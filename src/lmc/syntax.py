"""Parsing and printing: elements, polynomials, automorphism JSON.

Element grammar (left-normed brackets, 1-based generator indices):

    element := ['-'] term (('+'|'-') term)*
    term    := [rational '*']? atom
    atom    := 'x' INT | '[' element (',' element)+ ']'
    rational:= INT ['/' INT]

The single literal '0' is also accepted and denotes the zero element.
Text is scanned once, by one regex, into (kind, value, offset) tuples:
'int', 'name' (value (letter, index)), a punctuation mark, 'end', and
'chain' for a bracket of two or more bare generators '[xa,xb,...]', the
form the printers write, whose value holds the indices and the offsets of
their 'x'.  An offset becomes a line and column only when a ParseError is
raised; a chain reads as '[' there and counts as one nesting level.
A sum is read in one pass into coefficients keyed by generator and by
module coordinate and packed code, and wrapped once.  A chain of in-range
indices gives its two module terms (liealg._tuple_codes); any other bracket
is the bracket_chain of its parsed arguments.  Brackets nest at most
MAX_NESTING deep.  Polynomial text uses t1..tm, '*', '^' and rational
coefficients, e.g. '1/2*t1^2*t3 - t2'.

Printers are deterministic: rationals as 'p/q' (integer when q = 1),
monomial variables in index order, basis-style elements in enumeration
order (generators first, then commutator tuples by degree and tuple order).
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from . import endo as _endo
from . import liealg
from .arith import TruncPoly, _encode, format_rational, poly_str, signed_sum
from .errors import ParseError, ValidationError
from .liealg import BasisForm, Context, LieElement

# -- scanner ------------------------------------------------------------------

# One match per token, whitespace (regex \s on str is str.isspace) skipped
# between matches: a bracket of bare generators, punctuation, ASCII digits
# (str.isdigit also takes other scripts' digits), or any other character
# with the digits after it, which is a name if the character is a letter.
_TOKEN = re.compile(
    r"(\[\s*x[0-9]+\s*(?:,\s*x[0-9]+\s*)+\])|([-+*/^\[\],])|([0-9]+)|(\S)([0-9]*)"
)
_CHAIN_INDEX = re.compile("x([0-9]+)")

# One nesting level costs the recursive-descent parser two stack frames, so
# this keeps the deepest bracket well inside Python's default recursion limit.
MAX_NESTING = 300


class _Cursor:
    """The (kind, value, offset) tokens of text and a position among them."""

    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.depth = 0  # brackets open at the current position
        self.tokens = tokens = []
        for mt in _TOKEN.finditer(text):
            chain, punct, digits, ch, index = mt.groups()
            at = mt.start()
            if punct:
                tokens.append((punct, punct, at))
            elif digits:
                tokens.append(("int", self._int(digits, at), at))
            elif chain:
                xs = list(_CHAIN_INDEX.finditer(text, at, mt.end()))
                gens = tuple([self._int(x[1], x.start()) for x in xs])
                tokens.append(("chain", (gens, tuple([x.start() for x in xs])), at))
            elif not ch.isalpha():
                raise self.error(at, "a token", repr(ch))
            elif not index:
                raise self.error(at, "an index after the letter", repr(ch))
            else:
                tokens.append(("name", (ch, self._int(index, at)), at))
        tokens.append(("end", None, len(text)))

    def _int(self, digits, at):
        try:
            return int(digits)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise self.error(at, "a shorter number", f"{len(digits)} digits") from None

    def error(self, at, expected, found) -> ParseError:
        """A ParseError at offset `at`: only '\\n' starts a line, and every
        other character, whitespace included, is one column."""
        line = self.text.count("\n", 0, at) + 1
        return ParseError(line, at - self.text.rfind("\n", 0, at), expected, found)

    def kind(self):
        return self.tokens[self.pos][0]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, expected):
        """The value of the token at the cursor, which must be a `kind`."""
        if self.tokens[self.pos][0] != kind:
            self.fail(expected)
        return self.next()[1]

    def fail(self, expected):
        kind, value, at = self.tokens[self.pos]
        if kind == "end":
            found = "end of input"
        elif kind == "name":  # as written, e.g. 'x2'
            found = repr(_TOKEN.match(self.text, at)[0])
        else:  # a chain reads as its '['
            found = repr("[" if kind == "chain" else str(value))
        raise self.error(at, expected, found)


def _parse_rational(cur: _Cursor) -> int | Fraction:
    num = cur.expect("int", "a number")
    if cur.kind() != "/":
        return num
    cur.next()
    at = cur.tokens[cur.pos][2]
    den = cur.expect("int", "a denominator")
    if den == 0:
        raise cur.error(at, "a nonzero denominator", "0")
    return Fraction(num, den)


# -- element parsing ------------------------------------------------------------


def parse_element(ctx: Context, text: str) -> LieElement:
    cur = _Cursor(text)
    tokens = cur.tokens
    if tokens[0][:2] == ("int", 0) and tokens[1][0] == "end":
        return liealg.zero(ctx)
    u = _parse_element(ctx, cur)
    if cur.kind() != "end":
        cur.fail("end of input")
    return u


def _parse_element(ctx, cur) -> LieElement:
    """One sum, added up under the keys of liealg.element_row and wrapped
    once; one bracket level costs two stack frames."""
    negate = cur.kind() == "-"
    if negate:
        cur.next()
    acc = {}
    while True:
        coeff = 1
        if cur.kind() == "int":
            coeff = _parse_rational(cur)
            cur.expect("*", "'*' between coefficient and atom")
        if negate:
            coeff = -coeff
        for key, v in _parse_atom(ctx, cur):
            acc[key] = acc.get(key, 0) + coeff * v
        if cur.kind() not in ("+", "-"):
            return liealg.row_element(ctx, acc)
        negate = cur.next()[0] == "-"


def _parse_atom(ctx, cur) -> list:
    """The (key, coefficient) terms of the atom at the cursor; none for a
    generator chain with a repeated head or more than c entries."""
    m = ctx.m
    kind, value, at = cur.tokens[cur.pos]
    if kind == "name":
        letter, idx = value
        if letter != "x":
            cur.fail("a generator 'xN'")
        if not 1 <= idx <= m:
            raise cur.error(at, f"a generator index in 1..{m}", f"x{idx}")
        cur.next()
        return [(-idx, 1)]
    if kind != "[" and kind != "chain":
        cur.fail("a generator or '['")
    if cur.depth == MAX_NESTING:
        cur.fail(f"at most {MAX_NESTING} nested brackets")
    cur.next()
    if kind == "chain":
        gens, offsets = value
        for idx, x_at in zip(gens, offsets):
            if not 1 <= idx <= m:
                raise cur.error(x_at, f"a generator index in 1..{m}", f"x{idx}")
        if gens[0] == gens[1] or len(gens) > ctx.c:
            return []
        i1, code1, i2, code2 = liealg._tuple_codes(m, gens)
        return [(code1 * m + i1, 1), (code2 * m + i2, -1)]
    cur.depth += 1
    args = [_parse_element(ctx, cur)]
    cur.expect(",", "',' inside a bracket")
    args.append(_parse_element(ctx, cur))
    while cur.kind() == ",":
        cur.next()
        args.append(_parse_element(ctx, cur))
    cur.expect("]", "']' closing the bracket")
    cur.depth -= 1
    mod = enumerate(liealg.bracket_chain(*args).mod)  # derived: no beta keys
    return [(code * m + i, Fraction(n, p.den)) for i, p in mod for code, n in p.nums.items()]


# -- polynomial parsing -----------------------------------------------------------


def parse_poly(text: str, nv: int, cap: int) -> TruncPoly:
    """Terms are added up by code; one above the cap is dropped unpacked."""
    cur = _Cursor(text)
    TruncPoly.zero(nv, cap)  # a bad nv or cap is reported before any term
    terms = {}
    sign = 1
    if cur.kind() == "-":
        cur.next()
        sign = -1
    while True:
        _parse_poly_term(cur, nv, cap, sign, terms)
        if cur.kind() not in ("+", "-"):
            break
        sign = -1 if cur.next()[0] == "-" else 1
    if cur.kind() != "end":
        cur.fail("end of input")
    return TruncPoly.from_code_terms(nv, cap, terms)


def _parse_poly_term(cur, nv, cap, coeff, terms):
    exps = [0] * nv
    saw_factor = False
    while True:
        kind, value, at = cur.tokens[cur.pos]
        if kind == "int":
            coeff *= _parse_rational(cur)
        elif kind == "name":
            letter, idx = value
            if letter != "t":
                cur.fail("a variable 'tN'")
            if not 1 <= idx <= nv:
                raise cur.error(at, f"a variable index in 1..{nv}", f"t{idx}")
            cur.next()
            power = 1
            if cur.kind() == "^":
                cur.next()
                power = cur.expect("int", "an exponent")
            exps[idx - 1] += power
        elif saw_factor:
            break
        else:
            cur.fail("a coefficient or a variable")
        saw_factor = True
        if cur.kind() != "*":
            break
        cur.next()
    if sum(exps) <= cap:
        code = _encode(tuple(exps), nv)
        terms[code] = terms.get(code, 0) + coeff


# -- printers ----------------------------------------------------------------------


def print_poly(p: TruncPoly) -> str:
    return poly_str(p)


def print_element(u: LieElement, style: str = "basis") -> str:
    if style == "basis":
        return _print_basis(liealg.to_basis(u))
    if style == "wreath":
        return _print_wreath(u)
    raise ValidationError(f"unknown element style {style!r}")


def _coeff_atom(coeff: Fraction, atom: str, force_coeff: bool) -> str:
    mag = abs(coeff)
    if mag == 1 and not force_coeff:
        return atom
    return f"{format_rational(mag)}*{atom}"


def _print_basis(b: BasisForm) -> str:
    parts = []
    for i, coeff in enumerate(b.linear, start=1):
        if coeff:
            parts.append((coeff < 0, _coeff_atom(coeff, f"x{i}", False)))
    for tup in sorted(b.comm, key=lambda t: (len(t), t)):
        coeff = b.comm[tup]
        atom = "[" + ",".join(f"x{i}" for i in tup) + "]"
        parts.append((coeff < 0, _coeff_atom(coeff, atom, True)))
    return signed_sum(parts)


def _print_wreath(u: LieElement) -> str:
    parts = []
    for i, beta in enumerate(u.beta, start=1):
        if beta:
            parts.append((beta < 0, _coeff_atom(beta, f"b{i}", False)))
    for i in range(1, u.ctx.m + 1):
        full = u.full_poly(i)
        if not full.is_zero():
            parts.append((False, f"a{i}*({poly_str(full)})"))
    return signed_sum(parts)


# -- automorphism JSON ----------------------------------------------------------------


def parse_automorphism(data, check_context=None) -> "_endo.Endomorphism":
    """Build an endomorphism from JSON text or an already-decoded dict.

    Expected fields: m, c, and either "images" (m element strings) or
    "jacobian" (m x m polynomial strings, IA maps only).  check_context,
    if given, is called with the Context before any image or Jacobian
    entry is parsed.
    """
    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.lineno, exc.colno, "valid JSON", exc.msg) from exc
        except RecursionError as exc:
            raise ValidationError("automorphism JSON nests too deeply") from exc
        except ValueError as exc:  # e.g. an integer above sys.get_int_max_str_digits()
            raise ValidationError(f"automorphism JSON cannot be read: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError("automorphism JSON must be an object")
    m, c = data.get("m"), data.get("c")
    if type(m) is not int or type(c) is not int:  # bools and floats rejected
        raise ValidationError("automorphism JSON needs integer fields m and c")
    ctx = Context(m, c)
    if check_context is not None:
        check_context(ctx)
    if "images" in data:
        images = data["images"]
        if not _is_str_list(images, m):
            raise ValidationError(f'"images" must list {m} element strings')
        phi = _endo.Endomorphism(ctx, tuple(parse_element(ctx, s) for s in images))
        if not phi.is_automorphism():
            raise ValidationError(
                "images do not define an automorphism (singular linear part)"
            )
        return phi
    if "jacobian" in data:
        rows = data["jacobian"]
        if not isinstance(rows, list) or len(rows) != m:
            raise ValidationError(f'"jacobian" must be an {m}x{m} array of polynomial strings')
        entries = []
        for row in rows:
            if not _is_str_list(row, m):
                raise ValidationError(f'"jacobian" must be an {m}x{m} array of polynomial strings')
            entries.append(
                tuple(parse_poly(s, m, ctx.module_cap) for s in row)
            )
        jac = _endo.JacobianMatrix(ctx, tuple(entries))
        return _endo.ia_from_jacobian(jac)
    raise ValidationError('automorphism JSON needs "images" or "jacobian"')


def _is_str_list(value, n: int) -> bool:
    return (
        isinstance(value, list) and len(value) == n and all(isinstance(s, str) for s in value)
    )


def jacobian_rows(jac) -> list:
    """The entries of a Jacobian matrix as printed polynomials, row by row."""
    return [[print_poly(p) for p in row] for row in jac.rows]


def automorphism_dict(phi) -> dict:
    """JSON-ready dict: images in basis style, plus the Jacobian for IA maps."""
    out = {
        "m": phi.ctx.m,
        "c": phi.ctx.c,
        "images": [print_element(im, "basis") for im in phi.images],
    }
    if phi.is_ia():
        out["jacobian"] = jacobian_rows(_endo.jacobian(phi))
    return out


def print_automorphism(phi, format: str = "json") -> str:
    """The JSON of automorphism_dict, or the text lines x_i -> image, which
    print no Jacobian."""
    if format == "json":
        return json.dumps(automorphism_dict(phi))
    if format == "text":
        return "\n".join(
            f"x{i} -> {print_element(im, 'basis')}" for i, im in enumerate(phi.images, start=1)
        )
    raise ValidationError(f"unknown automorphism format {format!r}")
