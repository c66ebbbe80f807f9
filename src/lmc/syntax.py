"""Parsing and printing: elements, polynomials, automorphism JSON.

Element grammar (left-normed brackets, 1-based generator indices):

    element := ['-'] term (('+'|'-') term)*
    term    := [rational '*']? atom
    atom    := 'x' INT | '[' element (',' element)+ ']'
    rational:= INT ['/' INT]

The single literal '0' is also accepted and denotes the zero element.
A sum is read in one pass into coefficients keyed by generator and by
module coordinate and packed code, and wrapped once.  A bracket of bare
generators '[xa,xb,...]', the form the printers write, gives its two module
terms (liealg._tuple_codes); any other bracket is the bracket_chain of its
parsed arguments.  Brackets nest at most MAX_NESTING deep.  Polynomial text
uses t1..tm, '*', '^' and rational coefficients, e.g. '1/2*t1^2*t3 - t2'.

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

# -- tokenizer ----------------------------------------------------------------

_PUNCT = {"+", "-", "*", "/", "^", "[", "]", ","}
_DIGITS = re.compile("[0-9]*")  # str.isdigit also takes other scripts' digits

# One nesting level costs the recursive-descent parser two stack frames, so
# this keeps the deepest bracket well inside Python's default recursion limit.
MAX_NESTING = 300


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind  # 'int' | 'name' | punctuation | 'end'
        self.value = value
        self.line = line
        self.col = col

    def describe(self):
        if self.kind == "end":
            return "end of input"
        return repr(str(self.value))


def _int(text, line, col):
    try:
        return int(text)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise ParseError(line, col, "a shorter number", f"{len(text)} digits") from None


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        if "0" <= ch <= "9":
            j = _DIGITS.match(text, i).end()
            tokens.append(_Token("int", _int(text[i:j], line, col), line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = _DIGITS.match(text, i + 1).end()
            if j == i + 1:
                raise ParseError(line, col, "an index after the letter", repr(ch))
            tokens.append(_Token("name", (ch, _int(text[i + 1 : j], line, col)), line, col))
            col += j - i
            i = j
            continue
        raise ParseError(line, col, "a token", repr(ch))
    tokens.append(_Token("end", None, line, col))
    return tokens


class _Cursor:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # brackets open at the current position

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, expected):
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(tok.line, tok.col, expected, tok.describe())
        return self.next()

    def fail(self, expected):
        tok = self.peek()
        raise ParseError(tok.line, tok.col, expected, tok.describe())


def _parse_rational(cur: _Cursor) -> int | Fraction:
    num = cur.expect("int", "a number").value
    if cur.peek().kind == "/":
        cur.next()
        den = cur.expect("int", "a denominator").value
        if den == 0:
            tok = cur.tokens[cur.pos - 1]
            raise ParseError(tok.line, tok.col, "a nonzero denominator", "0")
        return Fraction(num, den)
    return num


# -- element parsing ------------------------------------------------------------


def parse_element(ctx: Context, text: str) -> LieElement:
    cur = _Cursor(_tokenize(text))
    if (
        cur.peek().kind == "int"
        and cur.peek().value == 0
        and cur.tokens[cur.pos + 1].kind == "end"
    ):
        return liealg.zero(ctx)
    u = _parse_element(ctx, cur)
    if cur.peek().kind != "end":
        cur.fail("end of input")
    return u


def _parse_element(ctx, cur) -> LieElement:
    """One sum, added up under the keys of liealg.element_row and wrapped
    once; one bracket level costs two stack frames."""
    negate = cur.peek().kind == "-"
    if negate:
        cur.next()
    acc = {}
    while True:
        coeff = 1
        if cur.peek().kind == "int":
            coeff = _parse_rational(cur)
            cur.expect("*", "'*' between coefficient and atom")
        if negate:
            coeff = -coeff
        for key, v in _parse_atom(ctx, cur):
            acc[key] = acc.get(key, 0) + coeff * v
        if cur.peek().kind not in ("+", "-"):
            return liealg.row_element(ctx, acc)
        negate = cur.next().kind == "-"


def _parse_atom(ctx, cur) -> list:
    """The (key, coefficient) terms of the atom at the cursor; none for a
    generator chain with a repeated head or more than c entries."""
    m = ctx.m
    tok = cur.peek()
    if tok.kind == "name":
        letter, idx = tok.value
        if letter != "x":
            raise ParseError(tok.line, tok.col, "a generator 'xN'", tok.describe())
        cur.next()
        if not 1 <= idx <= m:
            raise ParseError(tok.line, tok.col, f"a generator index in 1..{m}", f"x{idx}")
        return [(-idx, 1)]
    if tok.kind == "[":
        if cur.depth == MAX_NESTING:
            raise ParseError(
                tok.line, tok.col, f"at most {MAX_NESTING} nested brackets", tok.describe()
            )
        gens = _generator_chain(ctx, cur)
        if gens is not None:
            if gens[0] == gens[1] or len(gens) > ctx.c:
                return []
            i1, code1, i2, code2 = liealg._tuple_codes(m, gens)
            return [(code1 * m + i1, 1), (code2 * m + i2, -1)]
        cur.next()
        cur.depth += 1
        args = [_parse_element(ctx, cur)]
        cur.expect(",", "',' inside a bracket")
        args.append(_parse_element(ctx, cur))
        while cur.peek().kind == ",":
            cur.next()
            args.append(_parse_element(ctx, cur))
        cur.expect("]", "']' closing the bracket")
        cur.depth -= 1
        mod = enumerate(liealg.bracket_chain(*args).mod)  # derived: no beta keys
        return [(code * m + i, Fraction(n, p.den)) for i, p in mod for code, n in p.nums.items()]
    cur.fail("a generator or '['")


def _generator_chain(ctx, cur):
    """The indices of a bracket of bare in-range generators '[xa, xb, ...]'
    at the cursor, which then moves past its ']'; None, with the cursor
    left at the '[', for any other bracket, whose parse reports errors."""
    tokens, pos = cur.tokens, cur.pos + 1
    idx = []
    while True:
        tok = tokens[pos]
        if tok.kind != "name" or tok.value[0] != "x" or not 1 <= tok.value[1] <= ctx.m:
            return None
        idx.append(tok.value[1])
        sep = tokens[pos + 1].kind
        pos += 2
        if sep == "]":
            break
        if sep != ",":
            return None
    if len(idx) < 2:
        return None
    cur.pos = pos
    return idx


# -- polynomial parsing -----------------------------------------------------------


def parse_poly(text: str, nv: int, cap: int) -> TruncPoly:
    """Terms are added up by code; one above the cap is dropped unpacked."""
    cur = _Cursor(_tokenize(text))
    TruncPoly.zero(nv, cap)  # a bad nv or cap is reported before any term
    terms = {}
    sign = 1
    if cur.peek().kind == "-":
        cur.next()
        sign = -1
    while True:
        _parse_poly_term(cur, nv, cap, sign, terms)
        if cur.peek().kind not in ("+", "-"):
            break
        sign = -1 if cur.next().kind == "-" else 1
    if cur.peek().kind != "end":
        cur.fail("end of input")
    return TruncPoly.from_code_terms(nv, cap, terms)


def _parse_poly_term(cur, nv, cap, coeff, terms):
    exps = [0] * nv
    saw_factor = False
    while True:
        tok = cur.peek()
        if tok.kind == "int":
            coeff *= _parse_rational(cur)
            saw_factor = True
        elif tok.kind == "name":
            letter, idx = tok.value
            if letter != "t":
                raise ParseError(tok.line, tok.col, "a variable 'tN'", tok.describe())
            if not 1 <= idx <= nv:
                raise ParseError(
                    tok.line, tok.col, f"a variable index in 1..{nv}", f"t{idx}"
                )
            cur.next()
            power = 1
            if cur.peek().kind == "^":
                cur.next()
                power = cur.expect("int", "an exponent").value
            exps[idx - 1] += power
            saw_factor = True
        else:
            if not saw_factor:
                cur.fail("a coefficient or a variable")
            break
        if cur.peek().kind == "*":
            cur.next()
            continue
        break
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


def automorphism_dict(phi) -> dict:
    """JSON-ready dict: images in basis style, plus the Jacobian for IA maps."""
    out = {
        "m": phi.ctx.m,
        "c": phi.ctx.c,
        "images": [print_element(im, "basis") for im in phi.images],
    }
    if phi.is_ia():
        jac = _endo.jacobian(phi)
        out["jacobian"] = [[print_poly(p) for p in row] for row in jac.rows]
    return out


def print_automorphism(phi, format: str = "json") -> str:
    d = automorphism_dict(phi)
    if format == "json":
        return json.dumps(d)
    if format == "text":
        lines = [f"x{i} -> {s}" for i, s in enumerate(d["images"], start=1)]
        return "\n".join(lines)
    raise ValidationError(f"unknown automorphism format {format!r}")
