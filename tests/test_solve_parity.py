"""The degree-by-degree solve and the GInn Jacobian build against
tests/endo_reference.py.

JacobianMatrix.neumann_inverse and endo.group_commutator solve Q Y = P for
a unipotent Q = I + N in one arith._impl.msolve pass, Y_d = P_d -
sum_{e>=1} N_e Y_(d-e).  Q^-1 P must equal the reference sum of powers of
I - Q times P, and the commutator the chain through apply, which shares no
product or solve with it.  arith.poly_commutator, I + Q^-1 (XY - YX) for
X = A - I and Y = B - I, must equal (BA)^-1 AB by the sum of powers on
any unipotent pair, and arith.poly_scalar_commutator the same chain of
TruncPoly dilations, scalings and products that it runs on numerators.
Where XY - YX is zero (c = 2, and nested commutators whose factors'
lowest degrees add up past the cap) the commutator is I with no msolve
call.  normal._ginn_s reads S off the numerators of the f_i; the
reference sums TruncPoly products.  Results must be equal on IA and
non-IA pairs, fractional Jacobians, nested commutators (where D = P - Q
starts in a high degree), zero and constant matrices, and c = 1, 2.
"""

from fractions import Fraction as F

import endo_reference as ref
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmc import arith, endo, normal
from lmc.arith import TruncPoly, all_monomials
from lmc.liealg import Context
from lmc.verify import sample

CONTEXTS = [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (3, 3), (3, 4), (2, 5), (4, 4)]
CHECK = settings(max_examples=40, deadline=None, database=None)

contexts = st.sampled_from(CONTEXTS).map(lambda mc: Context(*mc))
fractions = st.builds(F, st.integers(-5, 5), st.integers(1, 7))


@st.composite
def polys(draw, ctx, cap, constant=True):
    """Zero, sparse or dense at the given cap, with fractional coefficients;
    no constant term unless `constant`."""
    kind = draw(st.sampled_from(["zero", "sparse", "sparse", "dense"]))
    monos = [e for e in all_monomials(ctx.m, cap) if constant or sum(e)]
    if kind == "zero" or not monos:
        return TruncPoly.zero(ctx.m, cap)
    if kind == "sparse":
        monos = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3))
    return TruncPoly(ctx.m, cap, {e: draw(fractions) for e in monos})


@st.composite
def matrices(draw, ctx, unipotent):
    m, cap = ctx.m, ctx.module_cap
    one = TruncPoly.const(m, cap, 1)
    rows = [[draw(polys(ctx, cap, constant=not unipotent)) for _ in range(m)] for _ in range(m)]
    if unipotent:
        for i, row in enumerate(rows):
            row[i] = row[i] + one
    return endo.JacobianMatrix(ctx, rows)


@CHECK
@given(contexts, st.data())
def test_neumann_inverse_matches_the_sum_of_powers(ctx, data):
    q = data.draw(matrices(ctx, unipotent=True))
    inv = q.neumann_inverse()
    assert inv == ref.neumann_inverse(q)
    assert inv @ q == endo.JacobianMatrix.identity(ctx) == q @ inv


@CHECK
@given(contexts, st.data())
def test_poly_solve_matches_the_sum_of_powers(ctx, data):
    # any P, constants included
    q = data.draw(matrices(ctx, unipotent=True))
    p = data.draw(matrices(ctx, unipotent=data.draw(st.booleans())))
    expected = ref.matmul(ref.neumann_inverse(q), p)
    assert endo.JacobianMatrix(ctx, arith.poly_solve(q.rows, p.rows)) == expected
    assert q @ expected == p


@CHECK
@given(contexts, st.data())
def test_poly_commutator_matches_the_sum_of_powers(ctx, data):
    # fractional entries put A and B over different denominators, so the
    # identity each sheds is a numerator other than 1
    a, b = (data.draw(matrices(ctx, unipotent=True)) for _ in range(2))
    expected = ref.matmul(ref.neumann_inverse(ref.matmul(b, a)), ref.matmul(a, b))
    assert endo.JacobianMatrix(ctx, arith.poly_commutator(a.rows, b.rows)) == expected


def _entrywise(jac, f):
    return endo.JacobianMatrix(jac.ctx, [[f(x) for x in row] for row in jac.rows])


@CHECK
@given(contexts, fractions.filter(bool), fractions.filter(bool), st.data())
def test_poly_scalar_commutator_matches_the_dilated_sum_of_powers(ctx, alpha, beta, data):
    # A and B with constant parts alpha I and beta I: sigma_k(Q^-1 P) for
    # P = A sigma_alpha(B), Q = B sigma_beta(A) and k = 1/(alpha beta),
    # with k Q inverted by the sum of powers
    a, b = (
        _entrywise(data.draw(matrices(ctx, unipotent=True)), lambda x, s=s: x.scale(s))
        for s in (alpha, beta)
    )
    k = 1 / (alpha * beta)
    p = ref.matmul(a, _entrywise(b, lambda x: x.dilate(alpha)))
    q = ref.matmul(b, _entrywise(a, lambda x: x.dilate(beta)))
    scaled = (_entrywise(j, lambda x: x.scale(k)) for j in (q, p))
    y0 = ref.matmul(ref.neumann_inverse(next(scaled)), next(scaled))
    got = arith.poly_scalar_commutator(a.rows, b.rows, alpha, beta)
    assert endo.JacobianMatrix(ctx, got) == _entrywise(y0, lambda x: x.dilate(k))


def _commutator_pair(ctx, shape, tag):
    """Two IA maps: "pair" two sampled maps, "comm-ginn" a commutator and a
    sampled map, and "comms" two commutators.  At c = 2, at c = 3 for
    comm-ginn and at c = 4 for comms, the lowest degrees of X and Y, the
    Jacobians less I, add up past the cap, so XY = YX = 0; comm-ginn at
    (2,5) has XY - YX nonzero."""
    ia = [sample("ia", ctx, f"{tag}-{k}", 2) for k in range(4)]
    ginn = normal.ginn_to_endo(sample("ginn", ctx, tag))
    if shape == "pair":
        return ia[0], ia[1]
    first = endo.group_commutator(ia[0], ginn)
    if shape == "comm-ginn":
        return first, ia[2]
    return first, endo.group_commutator(ia[2], ia[3])


@pytest.mark.parametrize(
    "mc,shape",
    [((3, 2), "pair"), ((3, 3), "comm-ginn"), ((3, 4), "comms"), ((2, 4), "comms"),
     ((4, 4), "comms"), ((2, 5), "comm-ginn")],
)
def test_commutators_with_xy_equal_to_yx_take_no_solve(monkeypatch, mc, shape):
    ctx = Context(*mc)
    phi, psi = _commutator_pair(ctx, shape, f"shortcut-{mc}")
    ja, jb = endo.jacobian(phi), endo.jacobian(psi)
    commute = ref.matmul(ja, jb) == ref.matmul(jb, ja)
    assert commute is (mc != (2, 5))
    solves = []
    msolve = arith._impl.msolve
    monkeypatch.setattr(arith._impl, "msolve", lambda *args: solves.append(args) or msolve(*args))
    got = endo.group_commutator(phi, psi)
    assert len(solves) == int(not commute)
    assert got == ref.group_commutator(phi, psi)


@st.composite
def ginns(draw, ctx):
    """A generalized inner map with fractional parameters, or the identity
    for c = 1."""
    if ctx.c == 1:
        return normal.GInnAut.identity(ctx)
    return normal.GInnAut(ctx, [draw(polys(ctx, ctx.param_cap)) for _ in range(ctx.m)])


def _linear(ctx, kind):
    """Invertible linear maps: x_i -> x_i + x_(i+1), x_i -> 2 x_i - x_(i-1)/3
    and the scalar 3/2."""
    entry = {
        "upper": lambda k, i: F(1) if k in (i, i + 1) else F(0),
        "lower": lambda k, i: F(2) if k == i else F(-1, 3) if k == i - 1 else F(0),
        "scalar": lambda k, i: F(3, 2) if k == i else F(0),
    }[kind]
    return endo.linear_endo(ctx, [[entry(k, i) for i in range(ctx.m)] for k in range(ctx.m)])


@st.composite
def maps(draw, ctx):
    """An IA map (sampled dense, or GInn with fractional parameters), or one
    after an invertible linear map."""
    kind = draw(st.sampled_from(["ia", "ginn", "ginn", "linear"]))
    if kind == "ia":
        return sample("ia", ctx, draw(st.integers(0, 99)), 2)
    phi = normal.ginn_to_endo(draw(ginns(ctx)))
    if kind == "linear":
        lin = _linear(ctx, draw(st.sampled_from(["upper", "lower", "scalar"])))
        return endo.compose(lin, phi) if draw(st.booleans()) else endo.compose(phi, lin)
    return phi


@CHECK
@given(contexts, st.data())
def test_group_commutator_matches_the_apply_chain(ctx, data):
    phi, psi = data.draw(maps(ctx)), data.draw(maps(ctx))
    got = endo.group_commutator(phi, psi)
    assert got == ref.group_commutator(phi, psi)
    assert endo.jacobian(got) == endo.jacobian(endo.Endomorphism(ctx, got.images))


@settings(max_examples=15, deadline=None, database=None)
@given(st.sampled_from([(2, 5), (3, 5), (2, 6)]), st.data())
def test_nested_commutators_match_the_apply_chain(mc, data):
    ctx = Context(*mc)
    a, b, c, d = (data.draw(maps(ctx)) for _ in range(4))
    phi, psi = endo.group_commutator(a, b), endo.group_commutator(c, d)
    if all(x.is_ia() for x in (a, b, c, d)):
        # commutators of IA maps are I + S with S from degree 2 on, so
        # D = P - Q starts in degree 4 or above
        ja, jb = endo.jacobian(phi), endo.jacobian(psi)
        diff = ja @ jb - jb @ ja
        assert all(sum(e) >= 4 for row in diff.rows for x in row for e, _ in x.items())
    assert endo.group_commutator(phi, psi) == ref.group_commutator(phi, psi)


@CHECK
@given(contexts, st.data())
def test_ginn_jacobian_and_ginn_to_endo_match_the_sums(ctx, data):
    g = data.draw(ginns(ctx))
    assert normal._ginn_s(g) == ref.ginn_s(g)
    assert normal.ginn_jacobian(g) == ref.ginn_jacobian(g)
    assert normal.ginn_to_endo(g) == ref.ginn_to_endo(g)


@settings(max_examples=20, deadline=None, database=None)
@given(
    st.sampled_from([(2, 1), (3, 1), (2, 2), (2, 3)]),
    fractions.filter(lambda a: a not in (0, 1)),
    st.data(),
)
def test_one_build_of_s_gives_both_maps_of_a_scaled_normal_map(mc, alpha, data):
    # the closed-form Jacobian of alpha I after the GInn map, from one
    # ginn_jacobian or from its own, is the Jacobian of that composite
    # built through apply, for alpha 1 and for alpha != 1
    ctx = Context(*mc)
    g = data.draw(ginns(ctx))
    ginn = normal.ginn_jacobian(g)
    for a in (F(1), alpha):
        n = normal.NormalAut(a, g)
        scalar = [[a if i == j else F(0) for j in range(ctx.m)] for i in range(ctx.m)]
        composite = ref.compose(endo.linear_endo(ctx, scalar), ref.ginn_to_endo(g))
        assert n.jacobian(ginn) == n.jacobian() == endo.jacobian(composite), a
        assert n.to_endo() == composite, a
