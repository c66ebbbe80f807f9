"""endo.compose, endo.invert and endo.group_commutator against the
bracket-based chains they replaced (tests/endo_reference.py).

Every pair composes by the Jacobian chain rule J(phi) @ sigma_A(J(psi)).
A commutator c of IA maps is Q^-1 P for P = J(phi psi) and Q = J(psi
phi); otherwise, for K = (BA)^-1 the inverse of Q's constant part, it is
J(c) = sigma_K(Y0) with Y0 = (K Q)^-1 K P from one solve.  Both must give
the same map as the chain through apply, on dense sampled IA maps, GInn
maps, exp_ad maps, sparse maps, mixed IA/GInn pairs, linear maps after IA
maps with linear parts that do not commute, sampled automorphisms (kind
aut, dense with integer linear parts) and scaled normal maps, at c <= 3
(no iteration step for IA pairs) and above.  compose also takes a left
factor with a singular linear part, where invert and the commutator raise
DomainError.  endo.jacobian_commutator takes one poly_scalar_commutator,
and no poly_solve, mat_inv, TruncPoly.dilate or TruncPoly.scale, when
both linear parts are scalars (alpha = -1, alpha beta = 1 and scalar/IA
pairs among them), and the K route, one poly_solve and one mat_inv, when
one is not.
"""

import random
from fractions import Fraction as F

import endo_reference as ref
import pytest

from lmc import endo, liealg, normal
from lmc.arith import TruncPoly
from lmc.errors import DomainError
from lmc.liealg import Context
from lmc.verify import sample

CONTEXTS = [(2, 1), (2, 2), (3, 2), (2, 3), (3, 3), (3, 4), (2, 5), (4, 4), (4, 5)]


def sparse_ia(ctx, rnd):
    """x_j -> x_j + two random basis commutators."""
    images = []
    for j in range(1, ctx.m + 1):
        comm = {}
        for _ in range(2 if ctx.c >= 2 else 0):
            tup = rnd.choice(liealg.enumerate_basis(ctx, rnd.randint(2, ctx.c)))
            comm[tup] = F(rnd.choice((-3, -2, -1, 1, 2, 3)))
        w = liealg.from_basis(liealg.BasisForm(ctx, (0,) * ctx.m, comm))
        images.append(liealg.generator(ctx, j) + w)
    return endo.Endomorphism(ctx, tuple(images))


def linear(ctx, kind="upper"):
    """Not IA: "upper" x_i -> x_i + x_(i+1) and "lower" x_i -> 2 x_i - x_(i-1)/3
    are invertible and do not commute; "singular" sends x_1 to 0 and x_i to
    x_1 + x_i for i > 1."""
    entry = {
        "upper": lambda k, i: F(1) if k in (i, i + 1) else F(0),
        "lower": lambda k, i: F(2) if k == i else F(-1, 3) if k == i - 1 else F(0),
        "singular": lambda k, i: F(1) if k in (0, i) and i else F(0),
    }[kind]
    return endo.linear_endo(ctx, [[entry(k, i) for i in range(ctx.m)] for k in range(ctx.m)])


def scaled_normal(ctx, seed, alpha):
    """The normal map alpha * g for a sampled GInn map g, composed through apply."""
    scalar = [[alpha if i == k else F(0) for i in range(ctx.m)] for k in range(ctx.m)]
    g = normal.ginn_to_endo(sample("ginn", ctx, seed))
    return ref.compose(endo.linear_endo(ctx, scalar), g)


def pairs(ctx, tag):
    ia = [sample("ia", ctx, f"{tag}-ia-{k}") for k in range(2)]
    ginn = [normal.ginn_to_endo(sample("ginn", ctx, f"{tag}-ginn-{k}")) for k in range(2)]
    inner = [sample("inner", ctx, f"{tag}-inner-{k}") for k in range(2)]
    aut = [sample("aut", ctx, f"{tag}-aut-{k}") for k in range(2)]
    rnd = random.Random(tag)
    sparse = [sparse_ia(ctx, rnd) for _ in range(2)]
    out = {
        "ia": ia,
        "ginn": ginn,
        "inner": inner,
        "sparse": sparse,
        "aut": aut,
        "aut-ia": [aut[0], ia[1]],
        "ia-ginn": [ia[0], ginn[1]],
        "ginn-inner": [ginn[0], inner[1]],
        "linear-after-ia": [ref.compose(linear(ctx), ia[0]), ia[1]],
        "ia-linear": [ia[0], linear(ctx)],
        "noncommuting": [
            ref.compose(linear(ctx), ia[0]),
            ref.compose(ginn[1], linear(ctx, "lower")),
        ],
    }
    if ctx.c == 1 or (ctx.m, ctx.c) in ((2, 2), (2, 3)):
        out["normal-scaled"] = [
            scaled_normal(ctx, f"{tag}-ns-{k}", alpha) for k, alpha in enumerate((F(3, 2), F(-2)))
        ]
    return out


@pytest.mark.parametrize("m,c", CONTEXTS)
def test_compose_and_commutator_match_the_apply_chain(m, c):
    ctx = Context(m, c)
    for name, (phi, psi) in pairs(ctx, f"gc-{m}-{c}").items():
        assert endo.compose(phi, psi) == ref.compose(phi, psi), name
        assert endo.group_commutator(phi, psi) == ref.group_commutator(phi, psi), name
        assert endo.invert(phi) == ref.invert(phi), name


def _route_calls(monkeypatch):
    """Count the kernel calls that tell jacobian_commutator's routes apart:
    poly_commutator (IA pairs), poly_scalar_commutator (scalar pairs),
    poly_solve and mat_inv (the K route), and the TruncPoly dilations and
    scalings that the scalar kernel runs on numerators instead."""
    kernels = ["poly_commutator", "poly_scalar_commutator", "poly_solve", "mat_inv"]
    seen = dict.fromkeys(kernels + ["dilate", "scale"], 0)
    for name in seen:
        owner = endo if name in kernels else TruncPoly
        original = getattr(owner, name)

        def counting(*args, name=name, original=original):
            seen[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, counting)
    return seen


@pytest.mark.parametrize("m,c", [(2, 2), (2, 3), (3, 3), (3, 4)])
def test_scalar_pairs_take_one_solve_and_match_the_apply_chain(monkeypatch, m, c):
    ctx = Context(m, c)
    tag = f"scalar-{m}-{c}"
    scaled = {a: scaled_normal(ctx, f"{tag}-{a}", a) for a in (F(-1), F(2), F(1, 2), F(3, 2), F(-2))}
    ia = sample("ia", ctx, f"{tag}-ia")
    scalar_pairs = [
        (scaled[F(-1)], scaled[F(2)]),  # alpha = -1
        (scaled[F(2)], scaled[F(1, 2)]),  # alpha * beta = 1
        (scaled[F(3, 2)], scaled[F(-2)]),
        (scaled[F(-1)], ia),
        (ia, scaled[F(1, 2)]),
    ]
    k_pairs = [
        (scaled[F(2)], ref.compose(linear(ctx), ia)),
        (sample("aut", ctx, f"{tag}-aut"), scaled[F(-1)]),
    ]
    for k_route, (phi, psi) in [(False, p) for p in scalar_pairs] + [(True, p) for p in k_pairs]:
        ja, jb = endo.jacobian(phi), endo.jacobian(psi)
        assert (ja.scalar() is None or jb.scalar() is None) is k_route
        with monkeypatch.context() as patch:
            seen = _route_calls(patch)
            got = endo.jacobian_commutator(ja, jb)
        dilations = seen.pop("dilate") + seen.pop("scale")
        assert seen == {
            "poly_commutator": 0, "poly_scalar_commutator": int(not k_route),
            "poly_solve": int(k_route), "mat_inv": int(k_route),
        }
        assert k_route or not dilations
        want = ref.group_commutator(phi, psi)
        assert endo.group_commutator(phi, psi) == want
        assert endo.jacobian(endo.group_commutator(phi, psi)) == got == endo.jacobian(want)


@pytest.mark.parametrize("m,c", [(2, 1), (2, 3), (3, 3), (3, 4)])
def test_singular_left_factor_composes_like_the_apply_chain(m, c):
    ctx = Context(m, c)
    ia = [sample("ia", ctx, f"sing-{m}-{c}-{k}") for k in range(2)]
    phi = ref.compose(linear(ctx, "singular"), ia[0])
    assert not phi.is_automorphism()
    for psi in (ia[1], linear(ctx, "lower"), phi):
        assert endo.compose(phi, psi) == ref.compose(phi, psi)
    for call in (lambda: endo.invert(phi), lambda: endo.group_commutator(phi, ia[1])):
        with pytest.raises(DomainError):
            call()


def test_the_inputs_cover_both_paths():
    ctx = Context(3, 4)
    kinds = pairs(ctx, "cover")
    for name in ("ia", "ginn", "inner", "sparse", "ia-ginn", "ginn-inner"):
        assert all(phi.is_ia() for phi in kinds[name]), name
    for name in ("linear-after-ia", "ia-linear", "noncommuting", "aut-ia"):
        assert not all(phi.is_ia() for phi in kinds[name]), name
    phi, psi = kinds["aut"]
    assert not endo.compose(psi, phi).is_ia()  # BA != I
    assert phi.scalar() is None and psi.scalar() is None
    upper, lower = linear(ctx), linear(ctx, "lower")
    assert ref.compose(upper, lower) != ref.compose(lower, upper)
    phi, psi = pairs(Context(2, 3), "cover")["normal-scaled"]
    assert not phi.is_ia() and not psi.is_ia()
    phi, psi = kinds["ia"]
    assert endo.group_commutator(phi, psi) != endo.Endomorphism.identity(ctx)


@pytest.mark.parametrize("m,c", [(2, 1), (2, 3), (3, 4), (4, 5)])
def test_neumann_inverse_matches_the_sum_of_powers(m, c):
    ctx = Context(m, c)
    for k in range(3):
        jac = endo.jacobian(sample("ia", ctx, f"neumann-{k}"))
        assert jac.neumann_inverse() == ref.neumann_inverse(jac)
