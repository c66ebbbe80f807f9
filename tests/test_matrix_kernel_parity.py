"""The Jacobian product, t_dot and column_defect against the TruncPoly-level
loops they replaced.

JacobianMatrix.@ is one arith._impl.mmul pass over packed integer terms on
one denominator per matrix, and t_dot one pass that adds the code of t_i to
every code; tests/endo_reference.py keeps the entry-by-entry product and
the reference column_defect, tests/kernel_reference.py the reference
t_dot.  Results must be equal, on sparse and dense entries, fractional
entries with a different denominator in each entry, zero rows and
columns, matrices that are not unipotent, and terms that land exactly at
the cap.  On maps with a scalar linear part alpha I, the substitution
sigma_A is the dilation t -> alpha t, checked against the term-by-term
substitution.
"""

from fractions import Fraction as F

import endo_reference as ref
import kernel_reference as kref
from hypothesis import given, settings
from hypothesis import strategies as st

from lmc import arith, endo
from lmc.arith import TruncPoly, all_monomials
from lmc.liealg import Context
from lmc.verify import sample

CONTEXTS = [(2, 1), (2, 3), (3, 4), (4, 6), (5, 4)]
CHECK = settings(max_examples=40, deadline=None, database=None)

fractions = st.builds(F, st.integers(-5, 5), st.integers(1, 7))


@st.composite
def entries(draw, ctx):
    """Zero, sparse (a few monomials) or dense (every monomial up to the
    cap), each with its own fractional coefficients."""
    kind = draw(st.sampled_from(["zero", "sparse", "sparse", "dense"]))
    if kind == "zero":
        return ctx.zero_poly()
    monos = all_monomials(ctx.m, ctx.module_cap)
    if kind == "sparse":
        monos = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3))
    return TruncPoly(ctx.m, ctx.module_cap, {e: draw(fractions) for e in monos})


@st.composite
def matrices(draw, ctx):
    """A matrix of entries; sometimes one zero row and one zero column,
    sometimes unipotent (I plus entries without constant term)."""
    m, zero = ctx.m, ctx.zero_poly()
    rows = [[draw(entries(ctx)) for _ in range(m)] for _ in range(m)]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        rows[i] = [zero] * m
        for row in rows:
            row[j] = zero
    if draw(st.booleans()):
        one = TruncPoly.const(m, ctx.module_cap, 1)
        rows = [
            [(p - TruncPoly.const(m, ctx.module_cap, p.constant_term())) + (one if i == j else zero)
             for j, p in enumerate(row)]
            for i, row in enumerate(rows)
        ]
    return endo.JacobianMatrix(ctx, rows)


contexts = st.sampled_from(CONTEXTS).map(lambda mc: Context(*mc))


@CHECK
@given(contexts, st.data())
def test_product_matches_the_entrywise_product(ctx, data):
    a, b = data.draw(matrices(ctx)), data.draw(matrices(ctx))
    assert a @ b == ref.matmul(a, b)
    assert b @ a == ref.matmul(b, a)


@CHECK
@given(contexts, st.data())
def test_t_dot_and_column_defect_match(ctx, data):
    jac = data.draw(matrices(ctx))
    for j in range(1, ctx.m + 1):
        col = [row[j - 1] for row in jac.rows]
        assert jac.column_defect(j) == ref.column_defect(jac, j)
        k = data.draw(st.integers(1, ctx.m))
        cap = data.draw(st.integers(0, ctx.c))
        assert arith.t_dot(col[:k], cap) == kref.t_dot(col[:k], cap)


def single(ctx, at, p):
    """The matrix with p at position `at` (0-based) and zeros elsewhere."""
    return endo.JacobianMatrix(
        ctx, [[p if (i, j) == at else ctx.zero_poly() for j in range(ctx.m)] for i in range(ctx.m)]
    )


def test_terms_at_the_cap_are_kept_and_past_it_dropped():
    for m, c in CONTEXTS:
        ctx = Context(m, c)
        cap, zero, rest = ctx.module_cap, ctx.zero_poly(), (0,) * (m - 2)
        for k in range(cap + 1):
            # t_1^k (1/2 + t_1) times t_2^(cap-k)/3: one term at the cap, one past it
            left = TruncPoly(m, cap, {(k, 0) + rest: F(1, 2), (k + 1, 0) + rest: 1})
            right = TruncPoly.monomial(m, cap, (0, cap - k) + rest, F(1, 3))
            a, b = single(ctx, (0, 1), left), single(ctx, (1, 0), right)
            got = a @ b
            assert got == ref.matmul(a, b)
            assert got.rows[0][0] == TruncPoly.monomial(m, cap, (k, cap - k) + rest, F(1, 6))
            col = [left] + [zero] * (m - 1)
            assert arith.t_dot(col, cap) == kref.t_dot(col, cap)
            assert arith.t_dot(col, cap + 1) == kref.t_dot(col, cap + 1)


def test_sampled_jacobians_multiply_like_the_reference():
    for m, c in CONTEXTS:
        ctx = Context(m, c)
        lower = [[1 if k == i else k - i if k > i else 0 for i in range(m)] for k in range(m)]
        for tag in range(2):
            ia = sample("ia", ctx, f"mmul-a{tag}", 3)
            a = endo.jacobian(ia)
            b = endo.jacobian(endo.compose(endo.linear_endo(ctx, lower), ia))
            assert not b.is_unipotent()
            assert a @ b == ref.matmul(a, b)
            assert b @ a == ref.matmul(b, a)
            assert a.neumann_inverse() == ref.neumann_inverse(a)


@settings(max_examples=40, deadline=None, database=None)
@given(st.sampled_from([(2, 1), (2, 3), (3, 4), (4, 4)]), fractions, st.data())
def test_scalar_substitution_is_a_dilation(mc, alpha, data):
    ctx = Context(*mc)
    scalar = [[alpha if i == k else 0 for i in range(ctx.m)] for k in range(ctx.m)]
    phi = endo.linear_endo(ctx, scalar)
    if data.draw(st.booleans()):
        phi = endo.compose(phi, sample("ia", ctx, f"dilate-{mc}"))
    for _ in range(2):
        q = data.draw(entries(ctx))
        assert phi._substituted(q) == ref.substituted(phi, q)
    psi = sample("ia", ctx, f"dilate-psi-{mc}")
    assert endo.compose(phi, psi) == ref.compose(phi, psi)
