"""The element and polynomial text paths that lmc replaced: the reference
for tests/test_syntax_parity.py.

parse_element builds one LieElement per term and adds it to a running
sum, a generator chain through commutator, which this module keeps;
parse_poly builds one TruncPoly per term and adds it likewise.  poly_str
sorts the Fraction items() of a polynomial by monomial_sort_key, kept here.
to_basis solves each degree of the module coordinates against the
left-normed basis columns with liealg._basis_solver.  The tokenizer
built one _Token, with its line and column, per token in a per-character
loop, and _generator_chain scanned those tokens again for a bracket of
bare generators; lmc.syntax now scans the text with one regex into
(kind, value, offset) tuples.  tests/test_syntax_parity.py checks every
text it generates once against this module: the same value, or the same
error with its type, message, line and column.
"""

import re
from fractions import Fraction

from lmc import liealg
from lmc.arith import FIELD_BITS, TruncPoly, format_rational, signed_sum
from lmc.errors import DomainError, ParseError, ValidationError
from lmc.liealg import BasisForm, Context, LieElement
from lmc.syntax import MAX_NESTING

_ZERO = Fraction(0)

# -- tokenizer ----------------------------------------------------------------

_PUNCT = {"+", "-", "*", "/", "^", "[", "]", ","}
_DIGITS = re.compile("[0-9]*")  # str.isdigit also takes other scripts' digits


class _Token:
    __slots__ = ("kind", "value", "line", "col", "text")

    def __init__(self, kind, value, line, col, text=None):
        self.kind = kind  # 'int' | 'name' | punctuation | 'end'
        self.value = value
        self.line = line
        self.col = col
        self.text = text  # a name as written

    def describe(self):
        if self.kind == "end":
            return "end of input"
        return repr(self.text if self.kind == "name" else str(self.value))


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
            name = (ch, _int(text[i + 1 : j], line, col))
            tokens.append(_Token("name", name, line, col, text[i:j]))
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
    negate = cur.peek().kind == "-"
    if negate:
        cur.next()
    acc = None
    while True:
        coeff = Fraction(1)
        if cur.peek().kind == "int":
            coeff = Fraction(_parse_rational(cur))
            cur.expect("*", "'*' between coefficient and atom")
        term = _parse_atom(ctx, cur)
        if coeff != 1:
            term = term.scale(coeff)
        if acc is None:
            acc = -term if negate else term
        else:
            acc = acc - term if negate else acc + term
        if cur.peek().kind not in ("+", "-"):
            return acc
        negate = cur.next().kind == "-"


def _parse_atom(ctx, cur) -> LieElement:
    tok = cur.peek()
    if tok.kind == "name":
        letter, idx = tok.value
        if letter != "x":
            raise ParseError(tok.line, tok.col, "a generator 'xN'", tok.describe())
        cur.next()
        if not 1 <= idx <= ctx.m:
            raise ParseError(
                tok.line, tok.col, f"a generator index in 1..{ctx.m}", f"x{idx}"
            )
        return liealg.generator(ctx, idx)
    if tok.kind == "[":
        if cur.depth == MAX_NESTING:
            raise ParseError(
                tok.line, tok.col, f"at most {MAX_NESTING} nested brackets", tok.describe()
            )
        gens = _generator_chain(ctx, cur)
        if gens is not None:
            return commutator(ctx, gens)
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
        return liealg.bracket_chain(*args)
    cur.fail("a generator or '['")


def commutator(ctx: Context, idx) -> LieElement:
    """The left-normed commutator [x_i1, x_i2, ..., x_ik] of generators
    (1-based indices in any order, k >= 2), in closed form: module term
    t_i2 t_i3...t_ik of a_i1 and its negative with t_i1 for t_i2 in a_i2
    (_tuple_codes).  Zero when i1 == i2 or k > c."""
    idx = tuple(idx)
    if len(idx) < 2:
        raise DomainError("bracket needs at least two arguments")
    for i in idx:
        if not 1 <= i <= ctx.m:
            raise DomainError(f"generator index {i} out of range 1..{ctx.m}")
    if idx[0] == idx[1] or len(idx) > ctx.c:
        return liealg.zero(ctx)
    i1, code1, i2, code2 = liealg._tuple_codes(ctx.m, idx)
    mod = [ctx.zero_poly()] * ctx.m
    mod[i1] = TruncPoly.from_codes(ctx.m, ctx.module_cap, {code1: 1})
    mod[i2] = TruncPoly.from_codes(ctx.m, ctx.module_cap, {code2: -1})
    return LieElement(ctx, (_ZERO,) * ctx.m, mod)


# -- polynomial parsing -----------------------------------------------------------


def parse_poly(text: str, nv: int, cap: int) -> TruncPoly:
    cur = _Cursor(_tokenize(text))
    acc = TruncPoly.zero(nv, cap)
    sign = Fraction(1)
    if cur.peek().kind == "-":
        cur.next()
        sign = Fraction(-1)
    acc = acc + _parse_poly_term(cur, nv, cap).scale(sign)
    while cur.peek().kind in ("+", "-"):
        op = cur.next().kind
        term = _parse_poly_term(cur, nv, cap)
        acc = acc + term if op == "+" else acc - term
    if cur.peek().kind != "end":
        cur.fail("end of input")
    return acc


def _parse_poly_term(cur, nv, cap) -> TruncPoly:
    coeff = Fraction(1)
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
    return TruncPoly(nv, cap, {tuple(exps): coeff})


# -- printing ----------------------------------------------------------------------


def monomial_sort_key(e):
    """Graded order, ties broken so that t1 < t2 < ... within a degree."""
    return (sum(e), tuple(-x for x in e))


def _monomial_str(e) -> str:
    parts = []
    for i, x in enumerate(e):
        if x == 1:
            parts.append(f"t{i + 1}")
        elif x > 1:
            parts.append(f"t{i + 1}^{x}")
    return "*".join(parts)


def poly_str(p: TruncPoly) -> str:
    """Canonical text form, e.g. '1/2*t1^2*t3 - t2'; zero prints as '0'."""
    parts = []
    for e, c in sorted(p.items(), key=lambda item: monomial_sort_key(item[0])):
        mono = _monomial_str(e)
        mag = abs(c)
        if not mono:
            body = format_rational(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{format_rational(mag)}*{mono}"
        parts.append((c < 0, body))
    return signed_sum(parts)


# -- basis coordinates -------------------------------------------------------------


def to_basis(u: LieElement) -> BasisForm:
    """Unique left-normed basis coordinates, one sparse solve per degree."""
    ctx = u.ctx
    top = FIELD_BITS * ctx.m
    by_degree = {}
    for i, p in enumerate(u.mod):
        for code, c in p.nums.items():
            by_degree.setdefault((code >> top) + 1, {})[(i, code)] = Fraction(c, p.den)
    comm = {}
    for k, rhs in by_degree.items():
        if k < 2 or k > ctx.c:
            raise ValidationError(f"module carries an impossible degree {k}")
        coeffs = liealg._basis_solver(ctx, k).solve(rhs)
        if coeffs is None:
            raise ValidationError(
                "element is not in the embedded algebra (membership violated)"
            )
        for tup, coeff in zip(liealg._tuples(ctx.m, k), coeffs):
            if coeff:
                comm[tup] = coeff
    return BasisForm(ctx, u.beta, comm)
