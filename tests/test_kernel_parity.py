"""TruncPoly against the dict-of-Fraction reference kernel.

Every operation of the packed integer representation must give exactly the
terms the reference gives, and every result must be in canonical form:
positive denominator sharing no factor with the numerators, no zero
numerators, and zero as ({}, 1).  Products are checked against the
reference pmul also with a one-term factor on either side, the shift that
arith._impl.pmac makes in one comprehension.
"""

from fractions import Fraction as F
from math import gcd

import kernel_reference as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from lmc.arith import TruncPoly

CHECK = settings(max_examples=150, deadline=None, database=None)

coefficients = st.builds(F, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def rings(draw):
    return draw(st.integers(1, 4)), draw(st.integers(0, 4))


def raw_terms(draw, nv, max_deg):
    """Exponent tuples of degree up to max_deg, zeros allowed."""
    exps = st.lists(st.integers(0, max_deg), min_size=nv, max_size=nv).map(tuple)
    return draw(
        st.dictionaries(exps.filter(lambda e: sum(e) <= max_deg), coefficients, max_size=8)
    )


@st.composite
def poly_pairs(draw):
    """(nv, cap, a, b) with a and b reference term maps in the ring."""
    nv, cap = draw(rings())
    a = ref.pcanon(raw_terms(draw, nv, cap), cap)
    b = ref.pcanon(raw_terms(draw, nv, cap), cap)
    return nv, cap, a, b


def terms(p: TruncPoly) -> dict:
    """The terms of p, after checking its canonical form."""
    assert p.den > 0
    assert all(type(c) is int and c for c in p.nums.values())
    assert gcd(p.den, *p.nums.values()) == 1
    if p.is_zero():
        assert p.den == 1
    out = dict(p.items())
    assert len(out) == len(p.nums)
    return out


@CHECK
@given(st.data())
def test_constructor_drops_zeros_and_over_cap_terms(data):
    nv, cap = data.draw(rings())
    raw = raw_terms(data.draw, nv, cap + 2)
    assert terms(TruncPoly(nv, cap, raw)) == ref.pcanon(raw, cap)


@CHECK
@given(poly_pairs(), coefficients | st.just(F(0)))
def test_ring_operations_match(pair, s):
    nv, cap, a, b = pair
    pa, pb = TruncPoly(nv, cap, a), TruncPoly(nv, cap, b)
    assert terms(pa + pb) == ref.padd(a, b)
    assert terms(pa - pb) == ref.psub(a, b)
    assert terms(-pa) == ref.pneg(a)
    assert terms(pa.scale(s)) == ref.pscale(a, s)
    # a one-term factor takes _impl.pmac's shift of the other's codes
    for x, y in ((a, b), (a, dict(list(b.items())[:1])), (dict(list(a.items())[:1]), b)):
        assert terms(TruncPoly(nv, cap, x) * TruncPoly(nv, cap, y)) == ref.pmul(x, y, cap)


@CHECK
@given(st.data())
def test_linear_form_matches(data):
    nv, cap = data.draw(rings())
    coeffs = data.draw(
        st.lists(coefficients | st.integers(-3, 3), min_size=nv, max_size=nv)
    )
    raw = {tuple(int(k == j) for k in range(nv)): c for j, c in enumerate(coeffs)}
    assert terms(TruncPoly.linear(nv, cap, coeffs)) == ref.pcanon(raw, cap)
    assert TruncPoly.linear(nv, cap, tuple(coeffs)) == TruncPoly(nv, cap, raw)


@CHECK
@given(poly_pairs(), st.data())
def test_variable_and_degree_operations_match(pair, data):
    nv, cap, a, _ = pair
    p = TruncPoly(nv, cap, a)
    j = data.draw(st.integers(1, nv))
    k = data.draw(st.integers(0, cap))
    assert terms(p.mul_var(j)) == ref.pmulvar(a, j - 1, cap)
    quo = p.divide_var(j)
    expected = ref.pdivvar(a, j - 1)
    if expected is None:
        assert quo is None
    else:
        assert quo.cap == max(cap - 1, 0)
        assert terms(quo) == expected
    assert terms(p.graded(k)) == ref.pgrade(a, k)
    q, r = p.split_var(j)
    assert terms(r) == {e: c for e, c in a.items() if not e[j - 1]}
    assert terms(q) == ref.pdivvar({e: c for e, c in a.items() if e[j - 1]}, j - 1)
    for new_cap in range(cap + 3):
        low = p.with_cap(new_cap)
        assert low.cap == new_cap
        assert terms(low) == ref.ptrunc(a, new_cap)


@CHECK
@given(poly_pairs(), st.data())
def test_lowest_var_quotients_match(pair, data):
    nv, cap, a, _ = pair
    below = data.draw(st.integers(1, nv + 1))
    quotients = TruncPoly(nv, cap, a).lowest_var_quotients(below)
    expected = {}
    for e, c in a.items():
        j = next((i for i, x in enumerate(e) if x), nv)  # 0-based lowest variable
        if j + 1 < below:
            expected.setdefault(j + 1, {})[e] = c
    assert list(quotients) == sorted(expected)
    for j, q in quotients.items():
        assert q.cap == cap
        assert terms(q) == ref.pdivvar(expected[j], j - 1)


@CHECK
@given(poly_pairs())
def test_queries_match(pair):
    nv, cap, a, _ = pair
    p = TruncPoly(nv, cap, a)
    assert p.constant_term() == a.get((0,) * nv, 0)
    for e, c in a.items():
        assert p.coeff(e) == c
    assert p.degree() == max((sum(e) for e in a), default=-1)
    assert p.support_vars() == {i + 1 for e in a for i, x in enumerate(e) if x}


@CHECK
@given(poly_pairs())
def test_equality_and_hash_follow_the_terms(pair):
    nv, cap, a, b = pair
    pa, pb = TruncPoly(nv, cap, a), TruncPoly(nv, cap, b)
    assert (pa == pb) == (a == b)
    assert hash(pa) == hash((nv, cap, frozenset(a.items())))
    same = (pa + pb) - pb
    assert same == pa and hash(same) == hash(pa)
    assert pa != TruncPoly(nv, cap + 1, a)


def test_cancelling_denominators():
    half = TruncPoly.const(2, 2, F(1, 2))
    one = half + half
    assert (one.nums, one.den) == ({0: 1}, 1)
    assert one == TruncPoly.const(2, 2, 1)
    assert half - half == TruncPoly.zero(2, 2)
    assert ((half - half).nums, (half - half).den) == ({}, 1)
    p = TruncPoly(2, 2, {(1, 0): F(1, 3), (0, 2): F(5, 4), (0, 0): 7})
    back = p.scale(F(2, 3)).scale(F(3, 2))
    assert back == p and (back.nums, back.den) == (p.nums, p.den)
    q = TruncPoly(2, 2, {(1, 0): F(1, 2), (2, 0): F(1, 3)})
    assert terms(q.with_cap(1)) == {(1, 0): F(1, 2)}
    assert q.with_cap(1).den == 2
    assert terms(q.graded(2)) == {(2, 0): F(1, 3)}
    assert q.graded(2).den == 3


def test_cap_zero_and_one_variable():
    c = TruncPoly.const(1, 0, F(3, 4))
    assert terms(c * c) == {(0,): F(9, 16)}
    assert TruncPoly.var(1, 0, 1).is_zero()
    assert c.mul_var(1).is_zero()
    assert c.divide_var(1) is None
    assert TruncPoly.zero(1, 0).divide_var(1) == TruncPoly.zero(1, 0)
    t = TruncPoly.var(1, 3, 1)
    assert terms(t * t * t) == {(3,): F(1)}
    assert (t * t * t * t).is_zero()
