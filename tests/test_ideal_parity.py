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

The reference closure brackets every new basis element with x_1..x_m;
liealg.ideal_span brackets only the generators and then shifts the keys
of integer rows.  Both must span the same ideal.
"""

from fractions import Fraction as F

import ideal_reference as ref
import pytest

from lmc import arith, endo, liealg, normal
from lmc.liealg import Context
from lmc.verify import sample

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
                assert span.contains(liealg.element_vector(b)), iname


def test_element_vector_values_are_fractions():
    """perfbench/certify.py divides by element_vector values (1 / v), which
    must stay exact: the values are Fraction, never int or float."""
    for m, c in CLOSURE_CONTEXTS:
        ctx = Context(m, c)
        for name, u in elements(ctx, f"ev-{m}-{c}").items():
            vec = liealg.element_vector(u)
            assert bool(vec) != u.is_zero(), name
            assert all(type(v) is F and v for v in vec.values()), name
