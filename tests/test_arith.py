import random
from fractions import Fraction as F

import pytest

from lmc.arith import FIELD_BITS, MAX_CAP, TruncPoly, all_monomials, format_rational, poly_str
from lmc.errors import DimensionMismatch


def tp(nv, cap, s=None, **named):
    """Tiny builder: tp(2, 3, t1=1, t1t2=-2, c=5) style via explicit dicts."""
    return TruncPoly(nv, cap, s or {})


def rand_poly(rnd, nv, cap, bound=4):
    terms = {}
    for e in all_monomials(nv, cap):
        v = rnd.randint(-bound, bound)
        if v:
            terms[e] = F(v, rnd.randint(1, 3))
    return TruncPoly(nv, cap, terms)


def test_add_cancels():
    t1 = TruncPoly.var(2, 2, 1)
    t2 = TruncPoly.var(2, 2, 2)
    assert (t1 + t2) + (-t1) == t2


def test_mul_truncates_past_cap():
    t1 = TruncPoly.var(2, 2, 1)
    t2 = TruncPoly.var(2, 2, 2)
    assert ((t1 * t2) * t1).is_zero()


def test_scale_distributes():
    p = TruncPoly(2, 2, {(2, 0): F(1, 3), (0, 1): F(-1)})
    assert p.scale(3) == TruncPoly(2, 2, {(2, 0): F(1), (0, 1): F(-3)})


def test_divide_by_var():
    p = TruncPoly(2, 2, {(1, 1): F(1), (0, 2): F(-1)})  # t1t2 - t2^2
    q = p.divide_var(2)
    assert q == TruncPoly(2, 1, {(1, 0): F(1), (0, 1): F(-1)})
    assert q.cap == p.cap - 1
    assert p.divide_var(1) is None
    assert TruncPoly.zero(2, 2).divide_var(1) == TruncPoly.zero(2, 1)


def test_graded_component():
    p = TruncPoly(2, 2, {(0, 0): F(2), (1, 0): F(1), (1, 1): F(1)})
    assert p.graded(1) == TruncPoly(2, 2, {(1, 0): F(1)})
    assert p.graded(0) == TruncPoly(2, 2, {(0, 0): F(2)})
    q = TruncPoly(2, 2, {(0, 0): F(2), (1, 0): F(1)})
    assert q.graded(2).is_zero()


def graded_parts(p):
    """All (k, component) pairs of p with nonzero component, ascending k."""
    top = FIELD_BITS * p.nv
    degrees = sorted({e >> top for e in p.nums})
    return [(k, p.graded(k)) for k in degrees]


def test_graded_parts_sum_to_poly():
    rnd = random.Random(1)
    for _ in range(25):
        p = rand_poly(rnd, 3, 3)
        total = TruncPoly.zero(3, 3)
        for _k, part in graded_parts(p):
            total = total + part
        assert total == p


def test_ring_laws_random():
    rnd = random.Random(2)
    for _ in range(40):
        nv = rnd.randint(1, 3)
        cap = rnd.randint(0, 4)
        a, b, c = (rand_poly(rnd, nv, cap, 3) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == TruncPoly.zero(nv, cap)


def test_truncation_is_ring_homomorphism():
    rnd = random.Random(3)
    for _ in range(30):
        nv = rnd.randint(1, 3)
        cap = rnd.randint(0, 3)
        a = rand_poly(rnd, nv, cap + 2)
        b = rand_poly(rnd, nv, cap + 2)
        assert (a * b).with_cap(cap) == a.with_cap(cap) * b.with_cap(cap)


def test_divide_after_mul_var_round_trip():
    rnd = random.Random(4)
    for _ in range(30):
        nv = rnd.randint(1, 3)
        cap = rnd.randint(0, 3)
        p = rand_poly(rnd, nv, cap)
        j = rnd.randint(1, nv)
        assert p.with_cap(cap + 1).mul_var(j).divide_var(j) == p


def test_split_var():
    rnd = random.Random(5)
    for _ in range(30):
        p = rand_poly(rnd, 3, 3)
        j = rnd.randint(1, 3)
        q, r = p.split_var(j)
        assert j not in r.support_vars()
        assert q.with_cap(4).mul_var(j).with_cap(3) + r == p


def test_dimension_mismatch_errors():
    a = TruncPoly.var(2, 2, 1)
    b = TruncPoly.var(3, 2, 1)
    c = TruncPoly.var(2, 3, 1)
    for bad in (b, c):
        with pytest.raises(DimensionMismatch):
            a + bad
        with pytest.raises(DimensionMismatch):
            a * bad
    with pytest.raises(DimensionMismatch):
        TruncPoly.var(2, 2, 3)
    with pytest.raises(DimensionMismatch):
        a.graded(5)


def test_constructor_canonicalizes():
    p = TruncPoly(2, 1, {(0, 0): F(0), (1, 0): 2, (1, 1): F(7)})
    assert dict(p.items()) == {(1, 0): F(2)}  # zero dropped, over-cap truncated
    assert p.constant_term() == 0
    assert p.coeff((1, 0)) == 2
    assert p.degree() == 1
    assert TruncPoly.zero(2, 1).degree() == -1


def test_cap_must_fit_the_exponent_field():
    assert MAX_CAP == 2**16 - 1
    assert TruncPoly.zero(2, MAX_CAP).is_zero()
    t = TruncPoly.var(2, MAX_CAP, 2)
    assert dict(t.items()) == {(0, 1): 1}
    assert t.with_cap(MAX_CAP - 1) == TruncPoly.var(2, MAX_CAP - 1, 2)
    for build in (
        lambda: TruncPoly.zero(2, MAX_CAP + 1),
        lambda: TruncPoly.var(2, MAX_CAP + 1, 2),
        lambda: t.with_cap(MAX_CAP + 1),
    ):
        with pytest.raises(DimensionMismatch, match=str(MAX_CAP)):
            build()


def test_support_and_dependence():
    p = TruncPoly(3, 3, {(1, 0, 2): F(1)})
    assert p.support_vars() == frozenset({1, 3})
    assert p.depends_only_on({1, 3})
    assert not p.depends_only_on({2, 3})


def test_cap_zero_ring():
    a = TruncPoly.const(2, 0, F(3, 2))
    b = TruncPoly.const(2, 0, 2)
    assert a * b == TruncPoly.const(2, 0, 3)
    assert TruncPoly.var(2, 0, 1).is_zero()


def test_all_monomials_counts():
    import math

    for nv in (1, 2, 3, 4):
        for d in (0, 1, 2, 3):
            assert len(all_monomials(nv, d)) == math.comb(nv + d, d)


def test_poly_str_formats():
    assert poly_str(TruncPoly.zero(2, 2)) == "0"
    p = TruncPoly(3, 3, {(2, 0, 1): F(1, 2), (0, 1, 0): F(-1)})
    assert poly_str(p) == "-t2 + 1/2*t1^2*t3"
    assert poly_str(TruncPoly(2, 2, {(1, 0): F(-1)})) == "-t1"
    assert format_rational(F(3, 2)) == "3/2"
    assert format_rational(F(4, 2)) == "2"
