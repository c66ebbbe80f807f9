"""Endomorphism.apply against the basis-expansion reference it replaced.

apply reads the leading-pair polynomials q_ij straight off the module
coordinates; tests/endo_reference.py expands over the left-normed basis
with the Fraction reference solver.  Both must give the same element for
IA, generalized-inner, inner, linear and linear-after-IA maps, on zero,
linear-only, derived-only and mixed elements.

On maps that are not IA, apply substitutes the linear form of the image of
x_r for t_r with arith.LinearSubstitution, a table of monomial images; the
term-by-term loop it replaced is the reference for sparse and dense
polynomials with fractional coefficients and fractional linear forms.
"""

from fractions import Fraction as F

import endo_reference as ref
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lmc import endo, liealg, normal
from lmc.arith import TruncPoly, all_monomials
from lmc.errors import ValidationError
from lmc.liealg import Context, LieElement
from lmc.linalg import mat_inv
from lmc.verify import sample

CONTEXTS = [(2, 3), (3, 3), (3, 4), (2, 5), (4, 4)]


def rational_matrix(m, singular=False):
    """A fixed dense rational matrix U*L (U unit upper, L lower with
    diagonal 2), invertible; with singular, its last column repeats the first."""
    u = [[F(1) if i == k else F(i - k + 2, 3) if i > k else F(0) for i in range(m)] for k in range(m)]
    low = [[F(2) if i == k else F(k - 2 * i, 5) if i < k else F(0) for i in range(m)] for k in range(m)]
    a = [[sum((u[k][s] * low[s][i] for s in range(m)), F(0)) for i in range(m)] for k in range(m)]
    if singular:
        a = [row[:-1] + [row[0]] for row in a]
    return a


def maps(ctx, tag):
    a = rational_matrix(ctx.m)
    assert mat_inv(a) is not None
    ia = sample("ia", ctx, tag)
    return {
        "ia": ia,
        "ginn": normal.ginn_to_endo(sample("ginn", ctx, tag)),
        "inner": endo.exp_ad(sample("element", ctx, tag + "-inner")),
        "linear": endo.linear_endo(ctx, a),
        "linear-singular": endo.linear_endo(ctx, rational_matrix(ctx.m, singular=True)),
        "linear-after-ia": endo.compose(endo.linear_endo(ctx, a), ia),
    }


def elements(ctx, tag):
    mixed = sample("element", ctx, tag)
    linear = LieElement(ctx, mixed.beta, (ctx.zero_poly(),) * ctx.m)
    derived = mixed - linear
    half = sample("element", ctx, tag + "-half").scale(F(1, 2))
    return {
        "zero": liealg.zero(ctx),
        "linear": linear,
        "derived": derived,
        "mixed": mixed,
        "mixed-fractional": half,
    }


@pytest.mark.parametrize("m,c", CONTEXTS)
def test_apply_matches_basis_expansion(m, c):
    ctx = Context(m, c)
    for mname, phi in maps(ctx, f"apply-{m}-{c}").items():
        for uname, u in elements(ctx, f"apply-{m}-{c}-{mname}").items():
            assert phi.apply(u) == ref.apply(phi, u), (mname, uname)


def test_derived_element_is_not_trivially_zero():
    ctx = Context(3, 4)
    els = elements(ctx, "nonzero")
    assert not els["derived"].is_zero() and not els["linear"].is_zero()
    assert els["derived"].in_derived() and not els["mixed"].in_derived()


def malformed(ctx):
    """(module violating membership, module with a nonzero constant)."""
    t2 = liealg.TruncPoly.var(ctx.m, ctx.module_cap, 2)
    one = liealg.TruncPoly.const(ctx.m, ctx.module_cap, 1)
    zp = ctx.zero_poly()
    beta = (F(0),) * ctx.m
    return LieElement(ctx, beta, (t2, zp)), LieElement(ctx, beta, (one, zp))


def test_malformed_elements_are_rejected_without_invariant_checks(monkeypatch):
    monkeypatch.setattr(liealg, "CHECK_INVARIANTS", False)
    ctx = Context(2, 3)
    phi = sample("ia", ctx, "malformed")
    for u in malformed(ctx):
        with pytest.raises(ValidationError):
            liealg.to_basis(u)
        with pytest.raises(ValidationError):
            phi.apply(u)


fractions = st.builds(F, st.integers(-4, 4), st.integers(1, 5))


@st.composite
def polys(draw, ctx):
    """A sparse (a few terms) or dense (every monomial) polynomial at the
    module cap, with fractional coefficients."""
    monos = all_monomials(ctx.m, ctx.module_cap)
    if draw(st.booleans()):
        monos = draw(st.lists(st.sampled_from(monos), max_size=4))
    return TruncPoly(ctx.m, ctx.module_cap, {e: draw(fractions) for e in monos})


@settings(max_examples=60, deadline=None, database=None)
@given(st.data())
def test_substitution_kernel_matches_term_by_term(data):
    m, c = data.draw(st.sampled_from([(2, 3), (3, 4), (4, 4)]))
    ctx = Context(m, c)
    a = data.draw(st.lists(st.lists(fractions, min_size=m, max_size=m), min_size=m, max_size=m))
    phi = endo.linear_endo(ctx, a)
    assume(not phi.is_ia())
    if data.draw(st.booleans()):
        phi = endo.compose(phi, sample("ia", ctx, f"subst-{m}-{c}"))
    # several polynomials through one map share its table of monomial images
    for q in data.draw(st.lists(polys(ctx), min_size=1, max_size=3)):
        assert phi._substituted(q) == ref.substituted(phi, q)
