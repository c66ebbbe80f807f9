"""Parsing and printing: elements, polynomials, automorphism JSON.

Element grammar (left-normed brackets, 1-based generator indices):

    element := ['-'] term (('+'|'-') term)*
    term    := [rational '*']? atom
    atom    := 'x' INT | '[' element (',' element)+ ']'
    rational:= INT ['/' INT]

The single literal '0' is also accepted and denotes the zero element.
Text is scanned once, by one regex, into (kind, value) pairs: 'int',
'name' (value (letter, index)), a punctuation mark, 'end', and 'chain'
for a bracket of two or more bare generators '[xa,xb,...]', the form the
printers write, whose value is the tuple of its indices.  No offset is
kept: a ParseError finds the offset of token k again as the start of the
k-th match of the same regex, and a chain reads as '[' there and counts
as one nesting level.  A sum is read in one pass into coefficients keyed
by generator and by module coordinate and packed code, and wrapped once.
An in-range generator, and a chain of in-range indices, is read in place
(_atom_terms): a basis tuple gives the two module terms of its
liealg._basis_terms row, any other chain those of liealg._tuple_codes.
Any other bracket is the bracket_chain of its parsed arguments.  Brackets
nest at most MAX_NESTING deep.  Polynomial text uses t1..tm, '*', '^' and
rational coefficients, e.g. '1/2*t1^2*t3 - t2'.

Printers are deterministic: rationals as 'p/q' (integer when q = 1),
monomial variables in index order, basis-style elements in enumeration
order (generators first, then commutator tuples by degree and tuple order).
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import islice

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
    """The (kind, value) tokens of text and a position among them."""

    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.depth = 0  # brackets open at the current position
        self.tokens = tokens = []
        append = tokens.append
        try:
            for chain, punct, digits, ch, index in _TOKEN.findall(text):
                if punct:
                    append((punct, punct))
                elif digits:
                    append(("int", int(digits)))
                elif chain:
                    append(("chain", tuple(map(int, _CHAIN_INDEX.findall(chain)))))
                elif index and ch.isalpha():
                    append(("name", (ch, int(index))))
                else:
                    break
            else:
                append(("end", None))
                return
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            pass
        self._raise_scan_error()

    def _raise_scan_error(self):
        """Scan again, with offsets, up to the first token that does not
        scan, and raise its ParseError."""
        text = self.text
        for mt in _TOKEN.finditer(text):
            chain, punct, digits, ch, index = mt.groups()
            at = mt.start()
            if punct:
                continue
            if digits:
                self._int(digits, at)
            elif chain:
                for x in _CHAIN_INDEX.finditer(text, at, mt.end()):
                    self._int(x[1], x.start())
            elif not ch.isalpha():
                raise self.error(at, "a token", repr(ch))
            elif not index:
                raise self.error(at, "an index after the letter", repr(ch))
            else:
                self._int(index, at)

    def _int(self, digits, at):
        try:
            int(digits)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise self.error(at, "a shorter number", f"{len(digits)} digits") from None

    def at(self, k, x=None):
        """The offset of token k, the start of the k-th match of _TOKEN,
        or with x that of the x-th 'x' of the chain token k."""
        mt = next(islice(_TOKEN.finditer(self.text), k, None), None)
        if mt is None:  # the end token
            return len(self.text)
        if x is None:
            return mt.start()
        return list(_CHAIN_INDEX.finditer(self.text, mt.start(), mt.end()))[x].start()

    def error(self, at, expected, found) -> ParseError:
        """A ParseError at offset `at`: only '\\n' starts a line, and every
        other character, whitespace included, is one column."""
        line = self.text.count("\n", 0, at) + 1
        return ParseError(line, at - self.text.rfind("\n", 0, at), expected, found)

    def expect(self, kind, expected):
        """The value of the token at the cursor, which must be a `kind`."""
        found, value = self.tokens[self.pos]
        if found != kind:
            self.fail(expected)
        self.pos += 1
        return value

    def fail(self, expected):
        kind, value = self.tokens[self.pos]
        at = self.at(self.pos)
        if kind == "end":
            found = "end of input"
        elif kind == "name":  # as written, e.g. 'x2'
            found = repr(_TOKEN.match(self.text, at)[0])
        else:  # a chain reads as its '['
            found = repr("[" if kind == "chain" else str(value))
        raise self.error(at, expected, found)


def _parse_rational(cur: _Cursor) -> int | Fraction:
    num = cur.expect("int", "a number")
    if cur.tokens[cur.pos][0] != "/":
        return num
    cur.pos += 1
    k = cur.pos
    den = cur.expect("int", "a denominator")
    if den == 0:
        raise cur.error(cur.at(k), "a nonzero denominator", "0")
    return Fraction(num, den)


# -- element parsing ------------------------------------------------------------


def parse_element(ctx: Context, text: str) -> LieElement:
    cur = _Cursor(text)
    tokens = cur.tokens
    if tokens[0] == ("int", 0) and tokens[1][0] == "end":
        return liealg.zero(ctx)
    u = _parse_element(ctx, cur)
    if tokens[cur.pos][0] != "end":
        cur.fail("end of input")
    return u


def _parse_element(ctx, cur) -> LieElement:
    """One sum, added up under the keys of liealg.element_row and wrapped
    once; one bracket level costs two stack frames."""
    tokens = cur.tokens
    negate = tokens[cur.pos][0] == "-"
    if negate:
        cur.pos += 1
    acc = {}
    while True:
        coeff = 1
        if tokens[cur.pos][0] == "int":
            coeff = _parse_rational(cur)
            cur.expect("*", "'*' between coefficient and atom")
        if negate:
            coeff = -coeff
        terms = _atom_terms(ctx, cur)
        if terms is None:
            terms = _parse_atom(ctx, cur)
        else:
            cur.pos += 1
        for key, v in terms:
            acc[key] = acc.get(key, 0) + coeff * v
        kind = tokens[cur.pos][0]
        if kind != "+" and kind != "-":
            return liealg.row_element(ctx, acc)
        cur.pos += 1
        negate = kind == "-"


def _atom_terms(ctx, cur):
    """The (key, coefficient) terms of the generator or generator chain at
    the cursor, if it is valid there: every index in 1..m, and a chain
    inside MAX_NESTING.  A chain with a repeated head or more than c
    entries has none.  None for any other token, which _parse_atom reads."""
    m = ctx.m
    kind, value = cur.tokens[cur.pos]
    if kind == "name":
        if value[0] == "x" and 0 < value[1] <= m:
            return ((-value[1], 1),)
    elif kind == "chain" and cur.depth < MAX_NESTING:
        found = liealg._basis_terms(m, ctx.c).get(value)
        if found is not None:
            _, i1, code1, i2, code2 = found
        elif 0 < min(value) and max(value) <= m:
            if value[0] == value[1] or len(value) > ctx.c:
                return ()
            i1, code1, i2, code2 = liealg._tuple_codes(m, value)
        else:
            return None
        return ((code1 * m + i1, 1), (code2 * m + i2, -1))
    return None


def _parse_atom(ctx, cur) -> list:
    """The (key, coefficient) terms of a bracket that is not a generator
    chain, from the bracket_chain of its arguments; the ParseError of any
    atom that _atom_terms does not read."""
    m = ctx.m
    kind, value = cur.tokens[cur.pos]
    if kind == "name":
        if value[0] != "x":
            cur.fail("a generator 'xN'")
        raise cur.error(cur.at(cur.pos), f"a generator index in 1..{m}", f"x{value[1]}")
    if kind != "[" and kind != "chain":
        cur.fail("a generator or '['")
    if cur.depth == MAX_NESTING:
        cur.fail(f"at most {MAX_NESTING} nested brackets")
    if kind == "chain":  # _atom_terms reads a chain of in-range indices
        for x, idx in enumerate(value):
            if not 1 <= idx <= m:
                raise cur.error(cur.at(cur.pos, x), f"a generator index in 1..{m}", f"x{idx}")
    cur.pos += 1
    cur.depth += 1
    args = [_parse_element(ctx, cur)]
    cur.expect(",", "',' inside a bracket")
    args.append(_parse_element(ctx, cur))
    while cur.tokens[cur.pos][0] == ",":
        cur.pos += 1
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
    tokens = cur.tokens
    terms = {}
    sign = 1
    if tokens[0][0] == "-":
        cur.pos = 1
        sign = -1
    while True:
        _parse_poly_term(cur, nv, cap, sign, terms)
        kind = tokens[cur.pos][0]
        if kind != "+" and kind != "-":
            break
        cur.pos += 1
        sign = -1 if kind == "-" else 1
    if kind != "end":
        cur.fail("end of input")
    return TruncPoly.from_code_terms(nv, cap, terms)


def _parse_poly_term(cur, nv, cap, coeff, terms):
    tokens = cur.tokens
    exps = [0] * nv
    saw_factor = False
    while True:
        kind, value = tokens[cur.pos]
        if kind == "int":
            coeff *= _parse_rational(cur)
        elif kind == "name":
            letter, idx = value
            if letter != "t":
                cur.fail("a variable 'tN'")
            if not 1 <= idx <= nv:
                raise cur.error(cur.at(cur.pos), f"a variable index in 1..{nv}", f"t{idx}")
            cur.pos += 1
            power = 1
            if tokens[cur.pos][0] == "^":
                cur.pos += 1
                power = cur.expect("int", "an exponent")
            exps[idx - 1] += power
        elif saw_factor:
            break
        else:
            cur.fail("a coefficient or a variable")
        saw_factor = True
        if tokens[cur.pos][0] != "*":
            break
        cur.pos += 1
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


def _coeff_atom(coeff, atom: str, force_coeff: bool) -> tuple:
    """(negative, text) of coeff*atom for an int or Fraction coeff; a
    coefficient of magnitude 1 is left out unless force_coeff."""
    num = coeff.numerator
    if not force_coeff and (num == 1 or num == -1) and coeff.denominator == 1:
        return num < 0, atom
    mag = format_rational(coeff)
    return num < 0, f"{mag[1:] if num < 0 else mag}*{atom}"


def _print_basis(b: BasisForm) -> str:
    parts = [_coeff_atom(q, f"x{i}", False) for i, q in enumerate(b.linear, start=1) if q]
    comm = b.comm
    for tup in sorted(comm, key=lambda t: (len(t), t)):
        parts.append(_coeff_atom(comm[tup], "[x" + ",x".join(map(str, tup)) + "]", True))
    return signed_sum(parts)


def _print_wreath(u: LieElement) -> str:
    parts = []
    for i, beta in enumerate(u.beta, start=1):
        if beta:
            parts.append(_coeff_atom(beta, f"b{i}", False))
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
