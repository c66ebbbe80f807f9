"""The GInn parameter algebra against the code it replaced
(tests/ginn_reference.py).

normal.ginn_pattern reads each parameter off one entry and certifies the
rest by the closed-form Jacobian; the reference divides every
off-diagonal entry.  Both must return equal parameters, or both None, on
GInn Jacobians, on sampled IA Jacobians, and on GInn Jacobians perturbed
in an off-diagonal entry (i, j) other than the one read (by a term t_j
divides) or in a diagonal entry.  normal.ginn_compose and normal._in_s
must give the numerators and denominators of the TruncPoly chains.
"""

from fractions import Fraction as F

import ginn_reference as ref
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmc import endo, normal
from lmc.arith import TruncPoly, all_monomials, t_dot
from lmc.liealg import Context
from lmc.verify import sample

CHECK = settings(max_examples=60, deadline=None, database=None)
CONTEXTS = [(2, 2), (2, 3), (3, 1), (3, 3), (3, 4), (4, 4)]
KINDS = ("ginn", "ia", "off_diagonal", "diagonal")

fractions = st.builds(F, st.integers(-4, 4), st.integers(1, 5))


def _same(got, want):
    assert got == want
    if got is not None:
        assert [(p.cap, p.nums, p.den) for p in got.f] == [(p.cap, p.nums, p.den) for p in want.f]


def _jacobian(ctx, kind, seed, pick):
    """A Jacobian of the given kind; pick(n) chooses one of n options: the
    perturbed entry, and the monomial and coefficient of the term added."""
    if kind == "ia":
        return endo.jacobian(sample("ia", ctx, seed, 2))
    jac = normal.ginn_jacobian(sample("ginn", ctx, seed, 2))
    if kind == "ginn":
        return jac
    m, cap = ctx.m, ctx.module_cap
    i = pick(m)
    if kind == "diagonal":
        j, monos = i, all_monomials(m, cap)
    else:
        j0 = 1 if i == 0 else 0
        others = [j for j in range(m) if j not in (i, j0)] or [j0]  # m = 2 has no other
        j = others[pick(len(others))]
        monos = [e for e in all_monomials(m, cap) if e[j]]
    if not monos:  # c = 1: no term of degree <= 0 that t_j divides
        return jac
    term = TruncPoly.monomial(m, cap, monos[pick(len(monos))], F(pick(7) - 3 or 1, pick(3) + 1))
    rows = [list(row) for row in jac.rows]
    rows[i][j] = rows[i][j] + term
    return endo.JacobianMatrix(ctx, rows)


@CHECK
@given(st.sampled_from(CONTEXTS), st.sampled_from(KINDS), st.integers(0, 10**6), st.data())
def test_ginn_pattern_matches_the_per_entry_match(mc, kind, seed, data):
    ctx = Context(*mc)
    jac = _jacobian(ctx, kind, seed, lambda n: data.draw(st.integers(0, n - 1)))
    _same(normal.ginn_pattern(jac), ref.ginn_pattern(jac))


@pytest.mark.parametrize("m,c", CONTEXTS)
def test_ginn_pattern_parity_sees_both_verdicts(m, c):
    ctx = Context(m, c)
    verdicts = set()
    for kind in KINDS:
        for seed in range(4):
            picks = iter(range(seed, seed + 10))
            jac = _jacobian(ctx, kind, f"pattern-{seed}", lambda n: next(picks) % n)
            got = normal.ginn_pattern(jac)
            _same(got, ref.ginn_pattern(jac))
            verdicts.add(got is None)
            if kind == "ginn":
                assert got is not None and normal.ginn_jacobian(got) == jac
    assert verdicts == {True, False}


@CHECK
@given(st.sampled_from(CONTEXTS), st.integers(0, 10**6), st.integers(0, 10**6))
def test_ginn_compose_matches_the_chain(mc, seed_a, seed_b):
    ctx = Context(*mc)
    a, b = sample("ginn", ctx, seed_a, 3), sample("ginn", ctx, seed_b, 3)
    _same(normal.ginn_compose(a, b), ref.ginn_compose(a, b))


@CHECK
@given(st.sampled_from(CONTEXTS), st.integers(0, 10**6), st.data())
def test_in_s_matches_the_chain(mc, seed, data):
    ctx = Context(*mc)
    s = t_dot(sample("ginn", ctx, seed, 3).f, ctx.param_cap)
    coeffs = data.draw(st.lists(fractions, min_size=1, max_size=ctx.param_cap + 2))
    got, want = normal._in_s(s, coeffs), ref.in_s(s, coeffs)
    assert (got.cap, got.nums, got.den) == (want.cap, want.nums, want.den)
