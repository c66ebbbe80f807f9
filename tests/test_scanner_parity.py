"""The regex scanner of lmc.syntax against the tokenizer it replaced.

tests/syntax_reference.py keeps the per-character tokenizer that built one
_Token, with its line and column, per token, and the scan of those tokens
for a bracket of bare generators.  lmc.syntax now scans the text once into
(kind, value, offset) tuples, reads such a bracket as one 'chain' token,
and works out a line and column only when it raises.  On any text,
parse_element and parse_poly must give the same value, or a ParseError with
the same message, line and column.

The texts mix well-formed sums with the pieces where the two could part:
every whitespace character but '\\n' is one column; a letter is any
character with str.isalpha(), so 'ß' is one and '½' and '٣' are not; a
number or index past the integer-string limit fails at its first
character, inside a chain too; a chain reads as '[' in messages and counts
towards MAX_NESTING; an out-of-range chain index fails at its 'x'.
"""

import sys

import pytest
import syntax_reference as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from lmc import syntax
from lmc.liealg import Context

CHECK = settings(max_examples=300, deadline=None, database=None)
CONTEXTS = [(2, 2), (3, 2), (3, 3), (4, 4)]

LONG = "1" * (sys.get_int_max_str_digits() + 1)
SPACES = ["", "", " ", "\n", "\r", "\t", "\x0b", "\x0c", "\r\n", " ", " \n  "]
ODD = ["ß", "ß2", "½", "٣", "$", "x0", "x" + LONG, LONG, "[x2,x" + LONG + "]", "[x1,\tx9]", "[x1]", "x"]


def deep(k):
    """k brackets nested on the left, a generator chain innermost."""
    return "[" * (k - 1) + "[x2,x1]" + ",x1]" * (k - 1)


DEEP = [deep(k) for k in (syntax.MAX_NESTING - 1, syntax.MAX_NESTING, syntax.MAX_NESTING + 1)]


def outcome(fn, *args):
    """('ok', value) or ('error', type, message, ParseError position)."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - the type is compared too
        where = (getattr(exc, "line", None), getattr(exc, "column", None))
        return ("error", type(exc), str(exc), where)


space = st.sampled_from(SPACES)
odd = st.sampled_from(ODD + DEEP)


@st.composite
def chains(draw, m):
    """'[xa, xb, ...]' split by any whitespace, with repeated heads, x0 and
    out-of-range indices now and then."""
    index = st.one_of(st.integers(1, m), st.integers(1, m), st.sampled_from([0, m + 1]))
    idx = draw(st.lists(index, min_size=2, max_size=5))
    if draw(st.booleans()):
        idx[1] = idx[0]
    body = ",".join(f"{draw(space)}x{i}{draw(space)}" for i in idx)
    return f"[{draw(space)}{body}]"


@st.composite
def elements(draw, m, depth=2):
    out = []
    for k in range(draw(st.integers(1, 4))):
        sign = draw(st.sampled_from(["", "-"] if k == 0 else ["+", "-"]))
        coeff = draw(st.sampled_from(["", "2*", "3/4*", "0*", "7/0*", LONG + "*"]))
        kinds = [st.integers(1, m).map(lambda i: f"x{i}"), chains(m), chains(m), odd]
        if depth:
            nested = st.lists(elements(m, depth - 1), min_size=1, max_size=3)
            kinds.append(nested.map(lambda args: "[" + ",".join(args) + "]"))
        atom = draw(st.one_of(*kinds))
        out.append(f"{draw(space)}{sign}{draw(space)}{coeff}{atom}{draw(space)}")
    return "".join(out)


@st.composite
def polys(draw, m):
    out = []
    for k in range(draw(st.integers(1, 4))):
        sign = draw(st.sampled_from(["", "-"] if k == 0 else ["+", "-"]))
        variable = st.tuples(st.integers(0, m + 1), st.sampled_from(["", "^2", "^0", "^"]))
        factor = st.one_of(
            variable.map(lambda v: f"t{v[0]}{v[1]}"),
            st.sampled_from(["3", "1/2", "5/0", LONG]),
            chains(m),
            odd,
        )
        factors = draw(st.lists(factor, min_size=1, max_size=3))
        out.append(draw(space) + sign + draw(space) + "*".join(factors))
    return draw(space).join(out)


@CHECK
@given(st.data(), st.sampled_from(CONTEXTS))
def test_parse_element_matches_the_old_scanner(data, mc):
    ctx = Context(*mc)
    text = data.draw(elements(ctx.m))
    got = outcome(syntax.parse_element, ctx, text)
    assert got == outcome(ref.parse_element, ctx, text), repr(text)


@CHECK
@given(st.data(), st.sampled_from(CONTEXTS))
def test_parse_poly_matches_the_old_scanner(data, mc):
    ctx = Context(*mc)
    text = data.draw(polys(ctx.m))
    args = (text, ctx.m, ctx.module_cap)
    assert outcome(syntax.parse_poly, *args) == outcome(ref.parse_poly, *args), repr(text)


@pytest.mark.parametrize("mc", CONTEXTS)
@pytest.mark.parametrize(
    "piece", ODD + DEEP, ids=lambda p: p if len(p) < 12 else f"{p[:5]}...({len(p)} chars)"
)
def test_each_piece_matches_the_old_scanner_after_any_whitespace(mc, piece):
    ctx = Context(*mc)
    for pad in SPACES:
        for text in (piece, f"x1 +{pad}{piece}", f"{pad}-{piece}{pad}*x2", f"t1{pad}*{piece}"):
            got = outcome(syntax.parse_element, ctx, text)
            assert got == outcome(ref.parse_element, ctx, text), repr(text)
            args = (text, ctx.m, ctx.module_cap)
            assert outcome(syntax.parse_poly, *args) == outcome(ref.parse_poly, *args)


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
