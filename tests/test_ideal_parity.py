"""bracket and preserves_ideal against the versions they replaced.

tests/ideal_reference.py keeps the bracket that multiplies every coordinate
by both linear forms, and the ideal-preservation test that applies phi to
every basis vector of the ideal.  The new bracket skips the products by a
zero linear form and returns zero on two derived elements; the new
preserves_ideal applies phi to the generators only and falls through to
the full image span for a singular linear part.  Both must give the same
results on automorphisms (generalized inner, IA but not generalized inner,
scalar and non-scalar linear) and on singular endomorphisms, in contexts
with c = 1 and (m, c) = (2, 2), with fractional generator coefficients.

For an automorphism and one generator g = sum gamma_j x_j + w outside the
derived algebra, preserves_ideal decides in closed form and builds no
span: A gamma must be beta gamma, and under sigma: t_q -> -(sum_{j != q}
gamma_j t_j)/gamma_q the full coordinates U of g must be proportional to D
= phi(g) - beta g: sigma(U_q) sigma(D_k) = sigma(U_k) sigma(D_q).
For linear g it must agree with the reference on the witness candidates a
x_p + x_q and on rational gamma with three or more nonzero entries, for
generalized inner, sampled IA, sparse IA but not generalized inner,
scaled, linear and linear-after-IA maps.  For g with a derived part and
rational gamma it must agree on generalized inner, IA, sparse IA but not
generalized inner, sampled automorphisms, scaled generalized inner and
inner maps, on maps x_1 -> x_1, x_j -> x_j + a [g, x_k], which
preserve (g) without being normal, and on maps x_i -> x_i + a [x_p, x_q];
both verdicts must occur on maps that are not normal.  At (4,3), x_1 ->
x_1 + [x_2, x_4] preserves neither (x_1), (x_1 + [x_3, x_2]) nor (x_1 +
x_2), which only the last of the closed form's m-2 conditions tells.

span_of spans integer rows (element_row), as ideal_span does.

The reference closure brackets every new basis element with x_1..x_m;
liealg.ideal_span brackets only the generators and then shifts the keys
of integer rows.  Both must span the same ideal.  ideal_span tries each
shift of a seed row once; the reference ideal_span, which shifted every
new row by every t_j, must build the same rows in the same order with at
least as many SpanBasis.add calls.
"""

import random
import sys
from fractions import Fraction as F
from functools import lru_cache
from pathlib import Path

import ideal_reference as ref
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmc import arith, endo, liealg, linalg, normal
from lmc.liealg import Context
from lmc.verify import sample

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

from inputs import sparse_ia  # noqa: E402

CONTEXTS = [(3, 1), (2, 2), (3, 2), (2, 3), (3, 3), (3, 4)]
CLOSURE_CONTEXTS = [(3, 1), (2, 2), (3, 2), (3, 3), (3, 4), (4, 3), (4, 4)]


def gen(ctx, i):
    return liealg.generator(ctx, i)


def elements(ctx, tag):
    """Named elements: linear, derived, mixed, fractional and zero."""
    mixed = sample("element", ctx, tag)
    linear = liealg.LieElement(ctx, mixed.beta, (ctx.zero_poly(),) * ctx.m)
    derived = mixed - linear
    fractional = liealg.LieElement(
        ctx, tuple(F(k + 1, k + 3) for k in range(ctx.m)), (ctx.zero_poly(),) * ctx.m
    ) + sample("element", ctx, tag + "-frac").scale(F(2, 3))
    out = {
        "zero": liealg.zero(ctx),
        "generator": gen(ctx, ctx.m),
        "linear": linear,
        "derived": derived,
        "mixed": mixed,
        "fractional": fractional,
    }
    if ctx.c >= 2:
        out["commutator"] = liealg.bracket_chain(gen(ctx, 2), gen(ctx, 1))
    return out


@pytest.mark.parametrize("m,c", CONTEXTS + [(2, 5), (4, 4)])
def test_bracket_matches_reference(m, c):
    ctx = Context(m, c)
    els = elements(ctx, f"br-{m}-{c}")
    assert c == 1 or not els["derived"].is_zero()
    for a, u in els.items():
        for b, v in els.items():
            got = liealg.bracket(u, v)
            assert got == ref.bracket(u, v), (a, b)
            if u.in_derived() and v.in_derived():
                assert got.is_zero(), (a, b)


def images_map(ctx, images):
    return endo.Endomorphism(ctx, tuple(images))


def maps(ctx, tag):
    """Named endomorphisms; the ones starting with 'singular' are not
    automorphisms."""
    m = ctx.m
    scalar = lambda s: endo.linear_endo(
        ctx, [[F(s) if i == k else F(0) for i in range(m)] for k in range(m)]
    )
    nonscalar = endo.linear_endo(
        ctx, [[F(i + 2) if i == k else F(k + 1, 2) if k < i else F(0) for i in range(m)] for k in range(m)]
    )
    ia = sample("ia", ctx, tag)
    out = {
        "ginn": normal.ginn_to_endo(sample("ginn", ctx, tag)),
        "ia": ia,
        "scalar-2": scalar(2),
        "scalar-3/2": scalar(F(3, 2)),
        "nonscalar": nonscalar,
        "nonscalar-after-ia": endo.compose(nonscalar, ia),
        "singular-x1-to-0": images_map(ctx, [liealg.zero(ctx)] + [gen(ctx, i) for i in range(2, m + 1)]),
        "singular-x1-to-x2": images_map(ctx, [gen(ctx, 2)] + [gen(ctx, i) for i in range(2, m + 1)]),
        "singular-after-ia": endo.compose(
            images_map(ctx, [gen(ctx, 2)] + [gen(ctx, i) for i in range(2, m + 1)]), ia
        ),
    }
    if m >= 3 and ctx.c >= 2:
        # x1 -> x1 + [x2,x3]: IA, and not generalized inner
        out["ia-not-ginn"] = images_map(
            ctx,
            [gen(ctx, 1) + liealg.bracket(gen(ctx, 2), gen(ctx, 3))]
            + [gen(ctx, i) for i in range(2, m + 1)],
        )
    return out


def ideals(ctx, tag):
    """Named generator lists."""
    m, c = ctx.m, ctx.c
    out = {
        "zero": [liealg.zero(ctx)],
        "x1": [gen(ctx, 1)],
        "2x1+x2": [gen(ctx, 1).scale(2) + gen(ctx, 2)],
        "element": [sample("element", ctx, tag)],
        "fractional-pair": [
            sample("element", ctx, tag + "-a").scale(F(1, 3)),
            gen(ctx, 2).scale(F(-5, 2)),
        ],
    }
    if c >= 2:
        top = liealg.bracket_chain(gen(ctx, 2), *[gen(ctx, 1)] * (c - 1))
        out["central"] = [top]
        out["derived"] = [elements(ctx, tag)["derived"]]
    if m >= 3 and c >= 2:
        out["[x3,x2]"] = [liealg.bracket(gen(ctx, 3), gen(ctx, 2))]
        out["x1+[x2,x3]"] = [gen(ctx, 1) + liealg.bracket(gen(ctx, 2), gen(ctx, 3))]
    return out


@pytest.mark.parametrize("m,c", CONTEXTS)
def test_preserves_ideal_matches_reference(m, c):
    ctx = Context(m, c)
    seen = set()
    for mname, phi in maps(ctx, f"pi-{m}-{c}").items():
        assert phi.is_automorphism() != mname.startswith("singular"), mname
        for iname, gens in ideals(ctx, f"pi-{m}-{c}-{mname}").items():
            got = normal.preserves_ideal(phi, gens)
            assert got == ref.preserves_ideal(phi, gens), (mname, iname)
            seen.add((mname.startswith("singular"), got))
    # both verdicts occur on automorphisms and on singular maps
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_the_map_families_are_what_they_claim():
    ctx = Context(3, 3)
    named = maps(ctx, "kinds")
    assert normal.recognize_ginn(named["ginn"]) is not None
    assert normal.recognize_ginn(named["ia-not-ginn"]) is None
    assert named["ia"].is_ia() and not named["nonscalar"].is_ia()


@pytest.mark.parametrize("m,c", [(3, 2), (3, 3), (4, 3)])
def test_witness_search_matches_reference(m, c):
    ctx = Context(m, c)
    found = []
    for trial in range(3):
        phi = maps(ctx, f"ws-{trial}")["ia"]
        verdict = normal.decide_normal(phi, search_witness=True)
        expected = None
        if normal.recognize_ginn(phi) is None:
            expected = []
            for p in range(1, m + 1):
                for q in range(1, m + 1):
                    for a in range(1, c + 2) if p != q else ():
                        g = gen(ctx, p).scale(a) + gen(ctx, q)
                        if not expected and not ref.preserves_ideal(phi, [g]):
                            expected = [g]
        assert verdict.witness == expected
        found.append(bool(expected))
    assert any(found)  # some sampled map is not generalized inner


LINEAR_CONTEXTS = [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 4), (4, 5)]


@lru_cache(maxsize=None)
def automorphisms(m, c):
    """Named automorphisms for the closed-form test.  scaled-ginn is
    normal on L_{2,2} and L_{2,3}; linear and linear-after-ia are not IA."""
    ctx = Context(m, c)
    tag = f"lin-{m}-{c}"
    ginn = normal.ginn_to_endo(sample("ginn", ctx, tag))
    ia = sample("ia", ctx, tag)
    linear = maps(ctx, tag)["nonscalar"]
    scalar = endo.linear_endo(ctx, [[F(3, 2) if i == k else F(0) for i in range(m)] for k in range(m)])
    out = {
        "ginn": ginn,
        "ia": ia,
        "scaled-ginn": endo.compose(scalar, ginn),
        "linear": linear,
        "linear-after-ia": endo.compose(linear, ia),
    }
    if m >= 3:
        out["sparse-not-ginn"] = sparse_ia(ctx, random.Random(tag), non_ginn=True)
    return out


def witness_candidates(ctx):
    """a x_p + x_q for a = 1..c+1; for m = 4 only the pairs (p, q) = (1, 2)
    and (4, 3), which bounds the reference's time."""
    m = ctx.m
    pairs = [(p, q) for p in range(1, m + 1) for q in range(1, m + 1) if p != q]
    if m == 4:
        pairs = [(1, 2), (4, 3)]
    return [gen(ctx, p).scale(a) + gen(ctx, q) for p, q in pairs for a in range(1, ctx.c + 2)]


@pytest.mark.parametrize("m,c", LINEAR_CONTEXTS)
def test_linear_generator_matches_reference(m, c):
    ctx = Context(m, c)
    seen = set()
    for mname, phi in automorphisms(m, c).items():
        assert phi.is_automorphism(), mname
        assert phi.is_ia() == (mname in ("ginn", "ia", "sparse-not-ginn")), mname
        for g in witness_candidates(ctx):
            got = normal.preserves_ideal(phi, [g])
            assert got == ref.preserves_ideal(phi, [g]), (mname, g)
            seen.add(got)
    assert seen == {False, True}


@st.composite
def rational_gammas(draw, m):
    """m rational coefficients, at least three of them nonzero."""
    nonzero = st.builds(F, st.integers(1, 7), st.integers(1, 5)).map(
        lambda x: x if draw(st.booleans()) else -x
    )
    support = draw(st.sets(st.integers(0, m - 1), min_size=3, max_size=m))
    return tuple(draw(nonzero) if j in support else F(0) for j in range(m))


@settings(max_examples=40, deadline=None, database=None)
@given(st.data())
def test_rational_linear_generator_matches_reference(data):
    m, c = data.draw(st.sampled_from([mc for mc in LINEAR_CONTEXTS if mc[0] >= 3]))
    ctx = Context(m, c)
    named = automorphisms(m, c)
    phi = named[data.draw(st.sampled_from(sorted(named)))]
    gamma = data.draw(rational_gammas(m))
    g = liealg.LieElement(ctx, gamma, (ctx.zero_poly(),) * m)
    assert normal.preserves_ideal(phi, [g]) == ref.preserves_ideal(phi, [g])


PRINCIPAL_CONTEXTS = [(2, 3), (3, 3), (3, 4), (4, 4), (3, 5)]


@lru_cache(maxsize=None)
def principal_maps(m, c):
    """Named automorphisms with their decide_normal verdicts.  scaled-ginn
    is normal on L_{2,3} only among these contexts."""
    ctx = Context(m, c)
    tag = f"pr-{m}-{c}"
    ginn = normal.ginn_to_endo(sample("ginn", ctx, tag))
    scalar = endo.linear_endo(ctx, [[F(3, 2) if i == k else F(0) for i in range(m)] for k in range(m)])
    out = {
        "ginn": ginn,
        "ia": sample("ia", ctx, tag),
        "aut": sample("aut", ctx, tag),
        "scaled-ginn": endo.compose(scalar, ginn),
        "inner": sample("inner", ctx, tag),
    }
    if m >= 3:
        out["sparse-not-ginn"] = sparse_ia(ctx, random.Random(tag), non_ginn=True)
    return {name: (phi, normal.decide_normal(phi).normal) for name, phi in out.items()}


rationals = st.builds(F, st.integers(-7, 7), st.integers(1, 5))


@st.composite
def principal_generators(draw, ctx):
    """g = sum gamma_j x_j + w with rational gamma != 0 and a derived w: a
    rational multiple of a sampled element's derived part, or of one
    commutator [x_a, x_b, ...] of length 2..c."""
    m = ctx.m
    gamma = tuple(draw(rationals) for _ in range(m))
    if not any(gamma):
        gamma = (F(draw(st.integers(1, 5))),) + gamma[1:]
    if draw(st.booleans()):
        mixed = sample("element", ctx, draw(st.integers(0, 10**6)))
        w = mixed - liealg.LieElement(ctx, mixed.beta, (ctx.zero_poly(),) * m)
    else:
        idx = draw(st.lists(st.integers(1, m), min_size=2, max_size=ctx.c))
        w = liealg.bracket_chain(*(gen(ctx, i) for i in idx))
    linear = liealg.LieElement(ctx, gamma, (ctx.zero_poly(),) * m)
    return linear + w.scale(draw(rationals.filter(bool)))


def ideal_fixing_map(data, ctx, g):
    """x_1 -> x_1, x_j -> x_j + a_j [g, x_k_j] for j >= 2: IA, and the
    identity modulo (g), so it preserves (g) without being normal."""
    images = [gen(ctx, 1)]
    for j in range(2, ctx.m + 1):
        k = data.draw(st.integers(1, ctx.m))
        images.append(gen(ctx, j) + liealg.bracket(g, gen(ctx, k)).scale(data.draw(rationals)))
    return endo.Endomorphism(ctx, tuple(images))


def bracket_shift_map(data, ctx):
    """x_i -> x_i + a [x_p, x_q], the other generators fixed: IA."""
    i, p, q = (data.draw(st.integers(1, ctx.m)) for _ in range(3))
    images = [gen(ctx, j) for j in range(1, ctx.m + 1)]
    shift = liealg.bracket(gen(ctx, p), gen(ctx, q)).scale(data.draw(rationals.filter(bool)))
    images[i - 1] = images[i - 1] + shift
    return endo.Endomorphism(ctx, tuple(images))


def test_principal_ideal_matches_reference():
    """One generator outside the derived algebra, decided in closed form
    (the module docstring of lmc.normal), against the reference closure."""
    seen = set()

    @settings(max_examples=100, deadline=None, database=None)
    @given(st.data())
    def check(data):
        m, c = data.draw(st.sampled_from(PRINCIPAL_CONTEXTS))
        ctx = Context(m, c)
        g = data.draw(principal_generators(ctx))
        assert not g.in_derived()
        named = principal_maps(m, c)
        name = data.draw(st.sampled_from(sorted(named) + ["fixes-g", "bracket-shift"]))
        if name in ("fixes-g", "bracket-shift"):
            phi = ideal_fixing_map(data, ctx, g) if name == "fixes-g" else bracket_shift_map(data, ctx)
            is_normal = normal.decide_normal(phi).normal
        else:
            phi, is_normal = named[name]
        got = normal.preserves_ideal(phi, [g])
        assert got == ref.preserves_ideal(phi, [g]), name
        assert got or not is_normal, name
        seen.add((is_normal, got))

    check()
    # both verdicts occur on maps that are not normal
    assert {(False, False), (False, True)} <= seen


def test_principal_ideal_sees_every_condition():
    # at m = 4 the closed form checks two conditions; for these g the
    # first one it checks holds, and only the second tells that
    # x1 -> x1 + [x2,x4] moves (g) out of itself
    ctx = Context(4, 3)
    x = [gen(ctx, i) for i in range(1, 5)]
    phi = endo.Endomorphism(ctx, (x[0] + liealg.bracket(x[1], x[3]), *x[1:]))
    for g in (x[0], x[0] + liealg.bracket(x[2], x[1]), x[0] + x[1]):
        assert not normal.preserves_ideal(phi, [g])
        assert not ref.preserves_ideal(phi, [g])


def row_of_vector(ctx, vec):
    """element_vector's keys renamed to element_row's."""
    m = ctx.m
    return {
        -i if kind == 0 else arith._encode(e, m) * m + i - 1: c
        for (kind, i, e), c in vec.items()
    }


def assert_proportional(row, vec):
    assert row.keys() == vec.keys()
    assert all(type(v) is int for v in row.values())
    if row:
        key = next(iter(row))
        ratio = vec[key] / row[key]
        assert all(vec[k] == ratio * v for k, v in row.items())


@pytest.mark.parametrize("m,c", CLOSURE_CONTEXTS)
def test_ideal_span_matches_reference_closure(m, c):
    ctx = Context(m, c)
    tag = f"is-{m}-{c}"
    for iname, gens in ideals(ctx, tag).items():
        expected = ref.ideal_closure(gens)
        span = liealg.ideal_span(gens)
        assert span.dim() == len(expected), iname
        assert all(span.contains(liealg.element_row(w)) for w in expected), iname
        got = liealg.ideal_closure(gens)
        assert len(got) == len(expected), iname
        ref_span = ref._span_of(expected)
        assert all(ref_span.contains(liealg.element_vector(w)) for w in got), iname


def test_ideal_span_tries_each_shift_once_and_keeps_the_rows(monkeypatch):
    adds = []
    add = linalg.SpanBasis.add
    monkeypatch.setattr(linalg.SpanBasis, "add", lambda self, row: adds.append(1) or add(self, row))

    def rows_and_adds(span_fn, gens):
        adds.clear()
        span = span_fn(gens)
        return list(span.rows.items()), len(adds)

    saved = 0
    for m, c in CLOSURE_CONTEXTS + [(2, 5), (5, 3)]:
        ctx = Context(m, c)
        named = ideals(ctx, f"st-{m}-{c}")
        named["pair"] = named["element"] + [sample("element", ctx, f"st-{m}-{c}-b")]
        for iname, gens in named.items():
            got, got_adds = rows_and_adds(liealg.ideal_span, gens)
            want, want_adds = rows_and_adds(ref.ideal_span, gens)
            assert got == want, (m, c, iname)  # same rows, same order
            assert got_adds <= want_adds, (m, c, iname)
            saved += want_adds - got_adds
    assert saved > 0


@pytest.mark.parametrize("m,c", CLOSURE_CONTEXTS)
def test_element_row_is_proportional_to_element_vector(m, c):
    ctx = Context(m, c)
    tag = f"er-{m}-{c}"
    for name, u in {**elements(ctx, tag), **{f"x{i}": gen(ctx, i) for i in range(1, m + 1)}}.items():
        row = liealg.element_row(u)
        assert_proportional(row, row_of_vector(ctx, liealg.element_vector(u)))
        assert liealg.element_row(liealg.row_element(ctx, row)) == row, name


@pytest.mark.parametrize("m,c", CLOSURE_CONTEXTS)
def test_ideal_closure_is_bracket_closed(m, c):
    ctx = Context(m, c)
    for iname, gens in ideals(ctx, f"bc-{m}-{c}").items():
        basis = liealg.ideal_closure(gens)
        span = liealg.span_of(basis)
        assert span.dim() == len(basis), iname
        for w in basis:
            for j in range(1, m + 1):
                b = liealg.bracket(w, gen(ctx, j))
                assert span.contains(liealg.element_row(b)), iname


def test_element_vector_values_are_fractions():
    """perfbench/certify.py divides by element_vector values (1 / v), which
    must stay exact: the values are Fraction, never int or float."""
    for m, c in CLOSURE_CONTEXTS:
        ctx = Context(m, c)
        for name, u in elements(ctx, f"ev-{m}-{c}").items():
            vec = liealg.element_vector(u)
            assert bool(vec) != u.is_zero(), name
            assert all(type(v) is F and v for v in vec.values()), name
