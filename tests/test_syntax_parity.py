"""The text paths of lmc against the versions they replaced.

tests/syntax_reference.py keeps the per-character tokenizer, which built
one token with its line and column per character run and scanned those
tokens again for a bracket of bare generators; the parser that added one
LieElement (or one TruncPoly) per term to a running sum; the printers
that sorted Fraction items() and formatted abs() of each basis
coefficient; and to_basis by one sparse solve per degree.  lmc.syntax
scans text once, by one regex, into (kind, value) pairs, reads a bracket
of bare generators as one 'chain' token, finds the offset of token k
again (the k-th match of the regex) only when it raises, and sums the
terms of a text into coefficients keyed by code, wrapped once;
arith.poly_str reads the codes, and liealg.to_basis reads each
coordinate off the leading term of its tuple.  Each must give the same
element, polynomial, text, coordinates, or the same error (type and
message, ParseError line and column included), on any input, and an
error at the end of a long text as well as near its start.

The generated texts mix well-formed sums with the pieces where the two
could part: every whitespace character but '\\n' is one column; a letter
is any character with str.isalpha(), so 'ß' is one and '½' and '٣' are
not, nor is '½2' a name; a number or index past the integer-string limit
fails at its first character, inside a chain too; a chain reads as '[' in
messages and counts towards MAX_NESTING; an out-of-range chain index
fails at its 'x'.
"""

import contextlib
import sys
from fractions import Fraction as F

import pytest
import syntax_reference as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from lmc import endo, liealg, normal, syntax
from lmc.arith import TruncPoly, poly_str
from lmc.errors import ValidationError
from lmc.liealg import Context, LieElement
from lmc.verify import SAMPLE_KINDS, sample

CHECK = settings(max_examples=300, deadline=None, database=None)
CONTEXTS = [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (3, 3), (3, 4), (2, 5), (4, 3), (4, 4)]


def outcome(fn, *args):
    """('ok', value) or ('error', type, message, ParseError position)."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - the type is compared too
        where = (getattr(exc, "line", None), getattr(exc, "column", None))
        return ("error", type(exc), str(exc), where)


@contextlib.contextmanager
def invariants_off():
    """Elements that violate the invariants can be built inside."""
    saved = liealg.CHECK_INVARIANTS
    liealg.CHECK_INVARIANTS = False
    try:
        yield
    finally:
        liealg.CHECK_INVARIANTS = saved


# -- text pieces ------------------------------------------------------------------

LONG = "1" * (sys.get_int_max_str_digits() + 1)
SPACES = ["", "", " ", "\n", "\r", "\t", "\x0b", "\x0c", "\r\n", " ", " \n  "]
ODD = ["ß", "ß2", "½", "½2", "٣", "$", "x0", "x" + LONG, LONG, "[x2,x" + LONG + "]", "[x1,\tx9]", "[x1]", "x"]


def deep(k):
    """k brackets nested on the left, a generator chain innermost."""
    return "[" * (k - 1) + "[x2,x1]" + ",x1]" * (k - 1)


# degree >= 300 in x2 and x1: zero, or the nesting error, at every context
DEEP = [deep(k) for k in (syntax.MAX_NESTING - 1, syntax.MAX_NESTING, syntax.MAX_NESTING + 1)]

NUMBERS = st.one_of(
    st.integers(0, 12),
    st.integers(0, 10**30),
    st.tuples(st.integers(0, 40), st.integers(1, 12)).map(lambda q: f"{q[0]}/{q[1]}"),
)
space = st.sampled_from(SPACES)
odd = st.sampled_from(ODD + DEEP)


def rarely(wild, strategy, otherwise):
    """otherwise, or in a wild text a draw of strategy one time in eight."""
    if not wild:
        return otherwise
    return st.integers(0, 7).flatmap(lambda k: otherwise if k else strategy)


@st.composite
def chains(draw, m, longest, wild):
    """'[xa, xb, ...]' of 2..longest generators split by any whitespace,
    with repeated heads and, in a wild text, x0 or x(m+1) now and then."""
    idx = draw(st.lists(st.integers(1, m), min_size=2, max_size=longest))
    if draw(st.booleans()):
        idx[1] = idx[0]
    if draw(rarely(wild, st.just(True), st.just(False))):
        idx[draw(st.integers(0, len(idx) - 1))] = draw(st.sampled_from([0, m + 1]))
    body = ",".join(f"{draw(space)}x{i}{draw(space)}" for i in idx)
    return f"[{draw(space)}{body}]"


# -- element text -------------------------------------------------------------------


@st.composite
def element_text(draw, m, c, wild=None, depth=2):
    """A sum of terms, any whitespace around signs and atoms: zero,
    negative and fractional coefficients; bare generators, generator
    chains (repeated heads, up to 5 or c+2 long) and, while depth lasts,
    brackets of nested sums.  Half the texts are wild: there, now and
    then, a coefficient has a zero denominator or too many digits, an atom
    is an ODD or DEEP piece, and a bracket holds one argument."""
    if wild is None:
        wild = draw(st.booleans())
    gen = st.integers(1, m).map(lambda i: f"x{i}")
    out = []
    for k in range(draw(st.integers(1, 5))):
        sign = draw(st.sampled_from(["", "-"] if k == 0 else ["+", "-"]))
        number = rarely(wild, st.sampled_from(["7/0", LONG]), NUMBERS.map(str))
        coeff = draw(st.one_of(st.just(""), number.map(lambda q: f"{q}*")))
        kinds = [gen, chains(m, max(5, c + 2), wild)]
        if depth:
            arg = st.one_of(element_text(m, c, wild, depth - 1), gen)
            n_args = rarely(wild, st.just(1), st.integers(2, 3))
            nested = n_args.flatmap(lambda n: st.lists(arg, min_size=n, max_size=n))
            kinds.append(nested.map(lambda args: "[" + ", ".join(args) + "]"))
        atom = draw(rarely(wild, odd, st.one_of(*kinds)))
        out.append(f"{draw(space)}{sign}{draw(space)}{coeff}{atom}{draw(space)}")
    return "".join(out)


@CHECK
@given(st.data(), st.sampled_from(CONTEXTS))
def test_parse_element_matches_reference(data, mc):
    ctx = Context(*mc)
    text = data.draw(st.one_of(st.just("0"), element_text(ctx.m, ctx.c)))
    got = outcome(syntax.parse_element, ctx, text)
    assert got == outcome(ref.parse_element, ctx, text), repr(text)


ELEMENT_TOKENS = [
    "x1", "x2", "x3", "x5", "x0", "y1", "t1", "x", "[", "]", ",", "+", "-", "*", "/",
    "^", "0", "1", "3", "2/3", "4/0", "#", " ", "\n", "[x2,x1]", "[x1,x1]", "2*",
]


@CHECK
@given(st.lists(st.sampled_from(ELEMENT_TOKENS), max_size=14), st.sampled_from(CONTEXTS))
def test_malformed_element_text_raises_the_reference_error(tokens, mc):
    ctx = Context(*mc)
    text = "".join(tokens)
    assert outcome(syntax.parse_element, ctx, text) == outcome(ref.parse_element, ctx, text)


def test_nesting_limit_and_long_numbers_raise_the_reference_error():
    ctx = Context(2, 3)
    deep = "[" * (syntax.MAX_NESTING + 1) + "x1,x2" + "]" * (syntax.MAX_NESTING + 1)
    nested = "[" * syntax.MAX_NESTING + "x1,[x1,x2]" + "]" * syntax.MAX_NESTING
    for text in (deep, nested, "9" * 5000 + "*x1", "x1 + 1/" + "7" * 5000 + "*x2"):
        got = outcome(syntax.parse_element, ctx, text)
        assert got == outcome(ref.parse_element, ctx, text)
    assert got[0] == "error"


# -- polynomial text ----------------------------------------------------------------


@st.composite
def poly_text(draw, nv):
    """A sum of products, any whitespace around signs and terms, of
    numbers and of variables with or without an exponent.  Half the texts
    are wild: there, now and then, a number has a zero denominator or too
    many digits, a variable is t0 or t(nv+1) or lacks its exponent after
    '^', and a factor is a generator chain or an ODD or DEEP piece."""
    wild = draw(st.booleans())
    index = rarely(wild, st.sampled_from([0, nv + 1]), st.integers(1, nv))
    exponent = st.one_of(st.just(""), st.integers(0, 4).map(lambda k: f"^{k}"))
    variable = st.tuples(index, rarely(wild, st.just("^"), exponent)).map(lambda v: f"t{v[0]}{v[1]}")
    number = rarely(wild, st.sampled_from(["5/0", LONG]), NUMBERS.map(str))
    factor = rarely(wild, st.one_of(chains(nv, 5, wild), odd), st.one_of(number, variable))
    out = []
    for k in range(draw(st.integers(1, 5))):
        sign = draw(st.sampled_from(["", "-"] if k == 0 else ["+", "-"]))
        factors = draw(st.lists(factor, min_size=1, max_size=4))
        out.append(draw(space) + sign + draw(space) + "*".join(factors))
    return draw(space).join(out)


@CHECK
@given(st.data(), st.integers(1, 4), st.integers(0, 5))
def test_parse_poly_matches_reference(data, nv, cap):
    text = data.draw(poly_text(nv))
    got = outcome(syntax.parse_poly, text, nv, cap)
    assert got == outcome(ref.parse_poly, text, nv, cap), repr(text)


POLY_TOKENS = [
    "t1", "t2", "t4", "x1", "t", "^", "2", "0", "1/3", "5/0", "*", "+", "-", "[", ",",
    " ", "\n", "#", "t1^70000", "3*t2",
]


@CHECK
@given(st.lists(st.sampled_from(POLY_TOKENS), max_size=12), st.integers(1, 3), st.integers(0, 4))
def test_malformed_poly_text_raises_the_reference_error(tokens, nv, cap):
    text = "".join(tokens)
    assert outcome(syntax.parse_poly, text, nv, cap) == outcome(ref.parse_poly, text, nv, cap)


def test_parse_poly_checks_nv_and_cap_after_the_tokens_and_before_the_terms():
    for text, nv, cap in [("t1 +", 0, 2), ("#", 0, 2), ("t1", 2, -1), ("t9", 2, 70000)]:
        got = outcome(syntax.parse_poly, text, nv, cap)
        assert got == outcome(ref.parse_poly, text, nv, cap)
        assert got[0] == "error"


# -- pieces after whitespace ------------------------------------------------------

# A DEEP text parses to zero, x1 or an error at an offset, whatever the
# context, so one context runs them.
PIECE_CASES = [(mc, piece) for mc in [(2, 2), (3, 2), (3, 3), (4, 4)] for piece in ODD]
PIECE_CASES += [((2, 2), piece) for piece in DEEP]


@pytest.mark.parametrize(
    "mc,piece",
    PIECE_CASES,
    ids=[f"{m}{c}-" + (p if len(p) < 12 else f"{p[:5]}...({len(p)} chars)") for (m, c), p in PIECE_CASES],
)
def test_each_piece_matches_the_reference_after_any_whitespace(mc, piece):
    ctx = Context(*mc)
    for pad in SPACES:
        for text in (piece, f"x1 +{pad}{piece}", f"{pad}-{piece}{pad}*x2", f"t1{pad}*{piece}"):
            got = outcome(syntax.parse_element, ctx, text)
            assert got == outcome(ref.parse_element, ctx, text), repr(text)
            args = (text, ctx.m, ctx.module_cap)
            assert outcome(syntax.parse_poly, *args) == outcome(ref.parse_poly, *args)


# One error of each class, met at the end of a long text.
LATE_ERRORS = [
    "+ #",  # a bad character
    "+ 2*y",  # a name with no index
    f"- {LONG}*x1",  # a long number
    "+ x5",  # a generator index out of range
    "+ [x1, x2,\tx5]",  # a chain index out of range
    "- 3/0*x2",  # a zero denominator
    "+ [x2,x1] x3",  # a stray token after a chain
    "+ " + deep(syntax.MAX_NESTING + 1),  # past the nesting limit
]


@pytest.mark.parametrize("seed", range(3))
def test_errors_at_the_end_of_a_long_text_match_the_reference(seed):
    ctx = Context(4, 4)
    # a dense element, its terms split over several lines
    text = syntax.print_element(sample("element", ctx, f"late-{seed}"), "basis")
    text = text.replace(" - ", "\n - ")
    assert text.count("\n") >= 5
    for tail in LATE_ERRORS:
        for late in (f"{text} {tail}", f"{text}\n{tail}\n"):
            got = outcome(syntax.parse_element, ctx, late)
            assert got == outcome(ref.parse_element, ctx, late), tail
            assert got[0] == "error" and got[3][0] > 5, tail


def test_the_pieces_reach_both_outcomes():
    ctx = Context(3, 3)
    results = {piece: outcome(syntax.parse_element, ctx, f"x1\n + {piece}") for piece in ODD + DEEP}
    assert results[DEEP[0]][0] == results[DEEP[1]][0] == "ok"
    assert results[DEEP[2]][2:] == (
        "2:304: expected at most 300 nested brackets, found '['", (2, 304)
    )
    assert results["ß"][2] == "2:4: expected an index after the letter, found 'ß'"
    assert results["½"][2] == "2:4: expected a token, found '½'"
    assert results["x0"][2] == "2:4: expected a generator index in 1..3, found x0"
    assert results["[x1,\tx9]"][2] == "2:9: expected a generator index in 1..3, found x9"
    assert results["[x2,x" + LONG + "]"][2:] == (
        f"2:8: expected a shorter number, found {len(LONG)} digits", (2, 8)
    )


# -- printing -------------------------------------------------------------------------


@st.composite
def polys(draw, nv, cap):
    exps = st.lists(st.integers(0, cap), min_size=nv, max_size=nv).map(tuple)
    coeffs = st.one_of(
        st.integers(-5, 5).map(F),
        st.builds(F, st.integers(-50, 50), st.integers(1, 9)),
        st.integers(-(10**40), 10**40).map(F),
    )
    return TruncPoly(nv, cap, draw(st.dictionaries(exps, coeffs, max_size=6)))


@CHECK
@given(st.data(), st.integers(1, 4), st.integers(0, 5))
def test_poly_str_matches_reference(data, nv, cap):
    p = data.draw(polys(nv, cap))
    assert poly_str(p) == ref.poly_str(p)


def test_poly_str_of_a_long_coefficient_raises_the_reference_error():
    big = F(10**4400 + 1)
    for p in (
        TruncPoly(2, 2, {(0, 0): big}),
        TruncPoly(2, 2, {(1, 0): F(1, 3), (0, 1): -big}),
        TruncPoly(2, 2, {(1, 1): F(1, 10**4400 + 1)}),
    ):
        got = outcome(poly_str, p)
        assert got == outcome(ref.poly_str, p)
        assert got[:2] == ("error", ValidationError)


# -- basis coordinates -----------------------------------------------------------------

BASIS_CONTEXTS = [(m, c) for m in (2, 3, 4) for c in range(1, 7)]


def sampled_elements(ctx, seed):
    """An element and the images of every map kind that the context has."""
    out = []
    for kind in SAMPLE_KINDS:
        if kind == "normal_scaled" and ctx.c >= 2 and (ctx.m, ctx.c) not in ((2, 2), (2, 3)):
            continue
        obj = sample(kind, ctx, seed)
        if kind == "element":
            out.append(obj)
            continue
        phi = normal.ginn_to_endo(obj) if kind == "ginn" else obj
        phi = phi.to_endo() if kind == "normal_scaled" else phi
        out.extend(phi.images)
    return out


@pytest.mark.parametrize("m,c", BASIS_CONTEXTS)
def test_to_basis_matches_reference_on_every_sample_kind(m, c):
    ctx = Context(m, c)
    for seed in range(3):
        for u in sampled_elements(ctx, f"tb-{seed}"):
            got = liealg.to_basis(u)
            assert got == ref.to_basis(u)
            assert liealg.from_basis(got) == u


@pytest.mark.parametrize("m,c", BASIS_CONTEXTS)
def test_to_basis_builds_the_form_that_validation_would(m, c):
    # to_basis skips BasisForm.__post_init__; validating its coordinates
    # again must change nothing: same keys in the same order, int tuples,
    # nonzero Fraction values, and a tuple of m Fractions
    ctx = Context(m, c)
    for seed in range(3):
        for u in sampled_elements(ctx, f"tv-{seed}"):
            got = liealg.to_basis(u)
            again = liealg.BasisForm(ctx, got.linear, dict(got.comm))
            assert got == again
            assert list(got.comm.items()) == list(again.comm.items())
            assert type(got.linear) is tuple
            assert all(type(b) is F for b in got.linear)
            assert all(type(i) is int for tup in got.comm for i in tup)
            assert all(type(v) is F and v for v in got.comm.values())


@st.composite
def broken_elements(draw, ctx):
    """A sampled element plus module terms drawn at random: constant terms,
    and terms that break the membership condition or cancel it out."""
    u = sample("element", ctx, draw(st.integers(0, 50)))
    exps = st.lists(st.integers(0, ctx.module_cap), min_size=ctx.m, max_size=ctx.m).map(tuple)
    coeffs = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
    extra = [
        TruncPoly(ctx.m, ctx.module_cap, draw(st.dictionaries(exps, coeffs, max_size=3)))
        for _ in range(ctx.m)
    ]
    with invariants_off():
        return LieElement(ctx, u.beta, [p + q for p, q in zip(u.mod, extra)])


@CHECK
@given(st.data(), st.sampled_from([(2, 2), (3, 2), (2, 3), (3, 3), (3, 4), (4, 3)]))
def test_to_basis_rejects_broken_elements_as_the_reference_does(data, mc):
    u = data.draw(broken_elements(Context(*mc)))
    assert outcome(liealg.to_basis, u) == outcome(ref.to_basis, u)


def test_to_basis_reports_the_first_bad_degree_in_storage_order():
    ctx = Context(3, 3)
    good = syntax.parse_element(ctx, "[x2,x1] + [x3,x1,x2]")
    one = TruncPoly.const(3, 2, 1)
    half = TruncPoly(3, 2, {(1, 1, 0): F(1, 2)})
    cases = {
        "constant first": [one + half, good.mod[1], good.mod[2]],
        "membership first": [half + good.mod[0], good.mod[1], one],
        "constant only": [good.mod[0], one + good.mod[1], good.mod[2]],
    }
    messages = set()
    for name, mod in cases.items():
        with invariants_off():
            u = LieElement(ctx, (0, 0, 0), mod)
        got = outcome(liealg.to_basis, u)
        assert got == outcome(ref.to_basis, u), name
        messages.add(got[2])
    assert messages == {
        "module carries an impossible degree 1",
        "element is not in the embedded algebra (membership violated)",
    }


def test_print_element_and_jacobian_text_match_reference():
    ctx = Context(3, 3)
    long = 10**4400 + 1  # past the integer-string limit
    for linear, comm in [
        ((F(-1), F(1), F(-3, 2)), {(2, 1): F(-1), (3, 1): F(1), (2, 1, 1): F(-5, 7), (3, 2, 3): F(4)}),
        ((F(0), F(2, 3), F(0)), {(3, 1, 2): F(-1, 9), (3, 2): F(-12)}),
        ((F(long), F(0), F(0)), {}),
        ((F(0), F(0), F(0)), {(2, 1): F(-1, long)}),
        ((F(0), F(-1, 3), F(0)), {(3, 2): F(-long, 2)}),
    ]:
        u = liealg.from_basis(liealg.BasisForm(ctx, linear, comm))
        got = outcome(syntax.print_element, u, "basis")
        assert got == outcome(ref.print_basis, ref.to_basis(u))
    assert got[:2] == ("error", ValidationError)
    for m, c in [(2, 3), (3, 4), (4, 3)]:
        ctx = Context(m, c)
        for u in sampled_elements(ctx, "pe"):
            text = syntax.print_element(u, "basis")
            assert text == ref.print_basis(ref.to_basis(u))
            for i in range(1, m + 1):
                assert poly_str(u.full_poly(i)) == ref.poly_str(u.full_poly(i))
        for row in endo.jacobian(sample("ia", ctx, "pe")).rows:
            assert [poly_str(p) for p in row] == [ref.poly_str(p) for p in row]
