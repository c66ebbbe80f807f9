import random
from fractions import Fraction as F

import pytest

from lmc import liealg
from lmc.arith import TruncPoly
from lmc.errors import ContextMismatch, DomainError, ValidationError
from lmc.liealg import (
    BasisForm,
    Context,
    LieElement,
    ad_polynomial_action,
    algebra_dim,
    bracket,
    bracket_chain,
    degree_dim_formula,
    enumerate_basis,
    from_basis,
    generator,
    ideal_closure,
    membership_defect,
    to_basis,
)
from lmc.verify import sample

import ideal_reference
from ideal_reference import spans_equal


def ctx23():
    return Context(2, 3)


def test_context_validation():
    with pytest.raises(DomainError):
        Context(1, 3)
    with pytest.raises(DomainError):
        Context(2, 0)
    assert Context(2, 1).module_cap == 0
    assert Context(2, 1).param_cap == 0


def test_generator():
    ctx = ctx23()
    x1 = generator(ctx, 1)
    assert x1.beta == (F(1), F(0))
    assert all(p.is_zero() for p in x1.mod)
    with pytest.raises(DomainError):
        generator(ctx, 0)
    with pytest.raises(DomainError):
        generator(ctx, 3)
    assert (generator(ctx, 1) - generator(ctx, 1)).is_zero()


def test_bracket_of_generators_matches_embedding():
    ctx = ctx23()
    b = bracket(generator(ctx, 1), generator(ctx, 2))
    # a1 t2 - a2 t1
    assert b.mod[0] == TruncPoly(2, 2, {(0, 1): F(1)})
    assert b.mod[1] == TruncPoly(2, 2, {(1, 0): F(-1)})
    assert b.in_derived()


def test_bracket_degenerate_cases():
    ctx = Context(3, 3)
    x = [generator(ctx, i) for i in (1, 2, 3)]
    assert bracket(x[0], x[0]).is_zero()
    assert bracket(bracket(x[0], x[1]), bracket(x[0], x[2])).is_zero()  # metabelian
    four = bracket_chain(x[0], x[1], x[0], x[2])  # degree 4 at c = 3
    assert four.is_zero()


def test_bracket_context_mismatch():
    with pytest.raises(ContextMismatch):
        bracket(generator(Context(2, 3), 1), generator(Context(2, 4), 1))


def test_ad_polynomial_action():
    ctx = ctx23()
    w = bracket(generator(ctx, 1), generator(ctx, 2))
    t2 = TruncPoly.var(2, 2, 2)
    acted = ad_polynomial_action(w, t2)
    assert acted == bracket_chain(generator(ctx, 1), generator(ctx, 2), generator(ctx, 2))
    one = TruncPoly.const(2, 2, 1)
    assert ad_polynomial_action(w, one) == w
    with pytest.raises(DomainError):
        ad_polynomial_action(generator(ctx, 1), t2)


def test_algebra_laws_random():
    rnd = random.Random(10)
    for m, c in [(2, 3), (3, 3), (3, 4)]:
        ctx = Context(m, c)
        for trial in range(20):
            u = sample("element", ctx, f"u{trial}", 2)
            v = sample("element", ctx, f"v{trial}", 2)
            w = sample("element", ctx, f"w{trial}", 2)
            z = sample("element", ctx, f"z{trial}", 2)
            assert bracket(u, v) == -bracket(v, u)
            jac = (
                bracket(bracket(u, v), w)
                + bracket(bracket(v, w), u)
                + bracket(bracket(w, u), v)
            )
            assert jac.is_zero()
            assert bracket(bracket(u, v), bracket(w, z)).is_zero()
            args = [u, v, w, z][: c + 1]
            while len(args) < c + 1:
                args.append(generator(ctx, rnd.randint(1, m)))
            assert bracket_chain(*args).is_zero()


def test_membership_preserved_by_operations():
    ctx = Context(3, 4)
    u = sample("element", ctx, "a", 2)
    v = sample("element", ctx, "b", 2)
    b = bracket(u, v)
    assert membership_defect(b).is_zero()
    acted = ad_polynomial_action(b, TruncPoly.var(3, 3, 2))
    assert membership_defect(acted).is_zero()


def test_invalid_module_rejected():
    ctx = ctx23()
    bad = TruncPoly(2, 2, {(0, 1): F(1)})  # t2 in coordinate 1 only
    with pytest.raises(ValidationError):
        u = LieElement(ctx, (F(0), F(0)), (bad, TruncPoly.zero(2, 2)))
        liealg.validate_element(u)


def test_enumerate_basis_frozen():
    ctx = ctx23()
    assert enumerate_basis(ctx, 2) == [(2, 1)]
    assert enumerate_basis(ctx, 3) == [(2, 1, 1), (2, 1, 2)]
    assert enumerate_basis(ctx) == [(1,), (2,), (2, 1), (2, 1, 1), (2, 1, 2)]
    assert algebra_dim(ctx) == 5
    assert len(enumerate_basis(Context(3, 3), 3)) == 8
    with pytest.raises(DomainError):
        enumerate_basis(ctx, 4)


def test_enumerate_basis_is_sorted_and_valid():
    for m, c in [(2, 4), (3, 3), (4, 3)]:
        ctx = Context(m, c)
        for k in range(2, c + 1):
            tuples = enumerate_basis(ctx, k)
            assert tuples == sorted(tuples)
            for t in tuples:
                assert t[0] > t[1]
                assert all(t[r] <= t[r + 1] for r in range(1, len(t) - 1))


def test_dimension_formula_matches_enumeration():
    for m in (2, 3, 4):
        for c in range(1, 7):
            ctx = Context(m, c)
            for k in range(2, c + 1):
                assert len(enumerate_basis(ctx, k)) == degree_dim_formula(ctx, k)


def test_from_basis_frozen():
    ctx = ctx23()
    u = from_basis(BasisForm(ctx, (0, 0), {(2, 1): F(1)}))
    # a2 t1 - a1 t2
    assert u.mod[0] == TruncPoly(2, 2, {(0, 1): F(-1)})
    assert u.mod[1] == TruncPoly(2, 2, {(1, 0): F(1)})
    v = from_basis(BasisForm(ctx, (0, 0), {(2, 1, 1): F(1)}))
    assert v == bracket_chain(generator(ctx, 2), generator(ctx, 1), generator(ctx, 1))
    assert from_basis(BasisForm(ctx, (0, 0), {})).is_zero()


def test_to_basis_frozen():
    ctx = ctx23()
    b = bracket(generator(ctx, 1), generator(ctx, 2))
    bf = to_basis(b)
    assert bf.linear == (F(0), F(0))
    assert bf.comm == {(2, 1): F(-1)}
    x3 = generator(Context(3, 3), 3)
    bf3 = to_basis(x3)
    assert bf3.linear == (F(0), F(0), F(1))
    assert bf3.comm == {}


def test_basis_round_trips():
    rnd = random.Random(11)
    for m, c in [(2, 3), (3, 4), (4, 2), (2, 1)]:
        ctx = Context(m, c)
        for trial in range(25):
            u = sample("element", ctx, f"rt{trial}", 3)
            assert from_basis(to_basis(u)) == u
            comm = {}
            for k in range(2, c + 1):
                for tup in enumerate_basis(ctx, k):
                    v = rnd.randint(-3, 3)
                    if v:
                        comm[tup] = F(v)
            bf = BasisForm(ctx, tuple(rnd.randint(-2, 2) for _ in range(m)), comm)
            assert to_basis(from_basis(bf)) == bf


def test_basisform_validation():
    ctx = ctx23()
    with pytest.raises(ValidationError):
        BasisForm(ctx, (0, 0), {(1, 2): F(1)})  # i1 > i2 violated
    with pytest.raises(ValidationError):
        BasisForm(ctx, (0, 0), {(2, 1, 1, 1): F(1)})  # degree 4 > c


@pytest.mark.parametrize(
    "key,expected",
    [
        ((2.0, 1.0), (2, 1)),
        ((2, True, 2), (2, 1, 2)),
        ((F(2), F(1), 1), (2, 1, 1)),
        ((2, 1), (2, 1)),
    ],
)
def test_basisform_keeps_int_keys(key, expected):
    # (2.0, 1.0) and (2, True, 2) hash and compare equal to the int tuples,
    # so a lookup among the valid tuples must hand back the int tuple itself
    bf = BasisForm(ctx23(), (0, 0), {key: F(3)})
    (got,) = bf.comm
    assert got == expected
    assert [type(i) for i in got] == [int] * len(expected)
    assert bf.comm[expected] == F(3)


@pytest.mark.parametrize(
    "key,message",
    [
        ((1, 2), "tuple (1, 2) violates i1 > i2 <= i3 <= ... <= ik"),
        ((1.0, 2.0), "tuple (1, 2) violates i1 > i2 <= i3 <= ... <= ik"),
        ((2, 1, 1, 1), "tuple (2, 1, 1, 1) has degree 4, allowed 2..3"),
        ((2,), "tuple (2,) has degree 1, allowed 2..3"),
        ((3, 1), "tuple (3, 1) has indices outside 1..2"),
        ((2, 1, True, 0), "tuple (2, 1, 1, 0) has degree 4, allowed 2..3"),
        ((2, 2, 1), "tuple (2, 2, 1) violates i1 > i2 <= i3 <= ... <= ik"),
        # an index is kept only if it equals its int(): 2.5 is not read as 2
        ((2.5, 1), "tuple (2.5, 1) has indices outside 1..2"),
        (("2", "1"), "tuple ('2', '1') has indices outside 1..2"),
        ((2, 1.5, 2), "tuple (2, 1.5, 2) has indices outside 1..2"),
        ((2, F(3, 2)), "tuple (2, Fraction(3, 2)) has indices outside 1..2"),
        ((float("nan"), 1), "tuple (nan, 1) has indices outside 1..2"),
        # a key that is not a tuple at all
        (5, "tuple 5 has indices outside 1..2"),
        (None, "tuple None has indices outside 1..2"),
        (2.0, "tuple 2.0 has indices outside 1..2"),
    ],
)
def test_basisform_rejects_invalid_tuples_with_the_same_message(key, message):
    with pytest.raises(ValidationError) as exc:
        BasisForm(ctx23(), (0, 0), {key: F(1)})
    assert str(exc.value) == message


def test_from_basis_rejects_a_tuple_added_after_validation():
    bf = BasisForm(ctx23(), (0, 0), {(2, 1): F(1)})
    bf.comm[(1, 2)] = F(1)
    with pytest.raises(ValidationError, match=r"tuple \(1, 2\) is not a basis tuple"):
        from_basis(bf)


def test_ideal_closure_frozen_spans():
    ctx = Context(3, 2)
    x = [generator(ctx, i) for i in (1, 2, 3)]
    got = ideal_closure([x[0] + x[1]])
    expected = [
        x[0] + x[1],
        bracket(x[0], x[1]),
        bracket(x[0] + x[1], x[2]),
    ]
    assert len(got) == 3
    assert spans_equal(got, expected)

    ctx22 = Context(2, 2)
    got = ideal_closure([generator(ctx22, 1)])
    expected = [
        generator(ctx22, 1),
        bracket(generator(ctx22, 1), generator(ctx22, 2)),
    ]
    assert spans_equal(got, expected)

    assert ideal_closure([liealg.zero(ctx)]) == []


def test_ideal_closure_is_bracket_closed():
    ctx = Context(3, 3)
    gens = [sample("element", ctx, "g1", 2), sample("element", ctx, "g2", 2)]
    basis = ideal_closure(gens)
    span = ideal_reference.span_of(basis)
    for w in basis:
        for j in range(1, ctx.m + 1):
            b = ideal_reference.bracket(w, generator(ctx, j))
            assert span.contains(ideal_reference.vector(b))
