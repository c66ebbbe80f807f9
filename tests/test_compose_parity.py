"""endo.compose and endo.group_commutator against the bracket-based chains
they replaced on IA maps (tests/endo_reference.py).

Two IA maps compose as a Jacobian product, and their commutator is
(BA)^-1 AB from the X = D - N X iteration; every other pair keeps the
apply path.  Both must give the same map as the chain through apply, on
dense sampled IA maps, GInn maps, exp_ad maps, sparse maps, mixed IA/GInn
pairs and pairs that are not IA, at c <= 3 (no iteration step) and above.
"""

import random
from fractions import Fraction as F

import endo_reference as ref
import pytest

from lmc import endo, liealg, normal
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


def linear(ctx):
    """x_i -> x_i + x_(i+1): invertible, not IA."""
    return endo.linear_endo(
        ctx, [[F(1) if k in (i, i + 1) else F(0) for i in range(ctx.m)] for k in range(ctx.m)]
    )


def pairs(ctx, tag):
    ia = [sample("ia", ctx, f"{tag}-ia-{k}") for k in range(2)]
    ginn = [normal.ginn_to_endo(sample("ginn", ctx, f"{tag}-ginn-{k}")) for k in range(2)]
    inner = [sample("inner", ctx, f"{tag}-inner-{k}") for k in range(2)]
    rnd = random.Random(tag)
    sparse = [sparse_ia(ctx, rnd) for _ in range(2)]
    out = {
        "ia": ia,
        "ginn": ginn,
        "inner": inner,
        "sparse": sparse,
        "ia-ginn": [ia[0], ginn[1]],
        "ginn-inner": [ginn[0], inner[1]],
        "linear-after-ia": [endo.compose(linear(ctx), ia[0]), ia[1]],
        "ia-linear": [ia[0], linear(ctx)],
    }
    if ctx.c == 1 or (ctx.m, ctx.c) in ((2, 2), (2, 3)):
        out["normal-scaled"] = [
            sample("normal_scaled", ctx, f"{tag}-ns-{k}").to_endo() for k in range(2)
        ]
    return out


@pytest.mark.parametrize("m,c", CONTEXTS)
def test_compose_and_commutator_match_the_apply_chain(m, c):
    ctx = Context(m, c)
    for name, (phi, psi) in pairs(ctx, f"gc-{m}-{c}").items():
        assert endo.compose(phi, psi) == ref.compose(phi, psi), name
        assert endo.group_commutator(phi, psi) == ref.group_commutator(phi, psi), name


def test_the_inputs_cover_both_paths():
    ctx = Context(3, 4)
    kinds = pairs(ctx, "cover")
    for name in ("ia", "ginn", "inner", "sparse", "ia-ginn", "ginn-inner"):
        assert all(phi.is_ia() for phi in kinds[name]), name
    for name in ("linear-after-ia", "ia-linear"):
        assert not all(phi.is_ia() for phi in kinds[name]), name
    phi, psi = kinds["ia"]
    assert endo.group_commutator(phi, psi) != endo.Endomorphism.identity(ctx)


@pytest.mark.parametrize("m,c", [(2, 1), (2, 3), (3, 4), (4, 5)])
def test_neumann_inverse_matches_the_sum_of_powers(m, c):
    ctx = Context(m, c)
    for k in range(3):
        jac = endo.jacobian(sample("ia", ctx, f"neumann-{k}"))
        assert jac.neumann_inverse() == ref.neumann_inverse(jac)
