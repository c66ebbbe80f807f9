"""Exact scalars and the truncated polynomial ring Q[t_1,...,t_m]/Omega^(d+1).

Rational scalars are stdlib Fraction values: arbitrary-precision integers,
always in lowest terms with positive denominator, exact arithmetic.

TruncPoly is a sparse polynomial in m variables in which every monomial of
total degree > cap is identically zero.  Omega denotes the augmentation
ideal (polynomials without constant term), so the ring is Q[t]/Omega^(cap+1).
Values are immutable; all operations are pure.

Representation: integer numerators over one common denominator (the
layout of FLINT's fmpq_poly), keyed by packed exponent vectors (as in
Monagan and Pearce's sparse polynomial multiplication).

- `nums` maps a monomial code to a nonzero int numerator and `den` is a
  positive int; the value is sum(nums[code] * t^code) / den.
- A code packs the exponents e_1..e_nv into 16-bit fields, e_1 highest,
  under a top field holding the total degree:
      code = deg << 16*nv | e_1 << 16*(nv-1) | ... | e_nv.
  A product of monomials is the sum of their codes, a term lies within
  the cap iff code < (cap + 1) << 16*nv, and ascending codes ascend in
  degree.  cap <= 65535 keeps every field inside its 16 bits.
- gcd(den, *nums.values()) == 1, so every value has one form; zero is
  ({}, 1).  The gcd is skipped when den == 1, the usual case.

Coefficients become Fraction only at the API edge: coeff, constant_term,
items() and printing.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import DimensionMismatch

KERNEL = "packed-int"  # names the polynomial kernel in benchmark run records

Rational = Fraction

FIELD_BITS = 16
MAX_CAP = (1 << FIELD_BITS) - 1
_MASK = MAX_CAP

_ZERO = Fraction(0)
_EXACT = (int, Fraction)


class _impl:
    """The per-term loops, over numerator maps {code: nonzero int}.  They
    return fresh maps without zero entries and never mutate their inputs.
    TruncPoly looks them up here at call time, so instrumentation can wrap
    them in place."""

    @staticmethod
    def padd(a, b):
        out = dict(a)
        get = out.get
        for e, c in b.items():
            v = get(e, 0) + c
            if v:
                out[e] = v
            else:
                del out[e]
        return out

    @staticmethod
    def psub(a, b):
        out = dict(a)
        get = out.get
        for e, c in b.items():
            v = get(e, 0) - c
            if v:
                out[e] = v
            else:
                del out[e]
        return out

    @staticmethod
    def pmul(a, b, lim):
        """Product with every code >= lim (degree past the cap) discarded."""
        if len(b) == 1:
            a, b = b, a
        if len(a) == 1:
            ((ea, ca),) = a.items()
            return {ea + e: ca * c for e, c in b.items() if ea + e < lim}
        out = {}
        get = out.get
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                if e < lim:
                    out[e] = get(e, 0) + ca * cb
        return {e: c for e, c in out.items() if c}


def _shifts(nv: int):
    """Bit offsets of the exponent fields e_1..e_nv."""
    return range(FIELD_BITS * (nv - 1), -1, -FIELD_BITS)


@lru_cache(maxsize=4096)
def _encode(e: tuple, nv: int) -> int:
    """The code of exponent tuple e; e must have degree at most MAX_CAP."""
    e = tuple(map(int, e))
    if len(e) != nv or any(x < 0 for x in e):
        raise DimensionMismatch(f"bad exponent vector {e} for nv={nv}")
    code = sum(e)
    for x in e:
        code = code << FIELD_BITS | x
    return code


@lru_cache(maxsize=4096)
def _decode(code: int, nv: int) -> tuple:
    return tuple(code >> s & _MASK for s in _shifts(nv))


def _limit(nv: int, cap: int) -> int:
    """The smallest code of degree cap + 1."""
    return cap + 1 << FIELD_BITS * nv


def _check_dims(nv: int, cap: int):
    if nv < 1:
        raise DimensionMismatch(f"need at least one variable, got nv={nv}")
    if cap < 0:
        raise DimensionMismatch(f"cap must be nonnegative, got {cap}")
    if cap > MAX_CAP:
        raise DimensionMismatch(
            f"cap {cap} exceeds {MAX_CAP}, the limit of a {FIELD_BITS}-bit exponent field"
        )


def _make(nv: int, cap: int, nums: dict, den: int = 1) -> "TruncPoly":
    """Wrap a canonical (nums, den) pair."""
    self = object.__new__(TruncPoly)
    _set_nv(self, nv)
    _set_cap(self, cap)
    _set_nums(self, nums)
    _set_den(self, den)
    return self


def _reduced(nv: int, cap: int, nums: dict, den: int) -> "TruncPoly":
    """Wrap nums / den after cancelling their common factor."""
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {e: c // g for e, c in nums.items()}
            den //= g
    return _make(nv, cap, nums, den)


class TruncPoly:
    """Sparse exact-rational polynomial truncated past total degree `cap`."""

    __slots__ = ("nv", "cap", "nums", "den")

    def __init__(self, nv: int, cap: int, terms=None):
        """`terms` maps exponent tuples to rational coefficients; zero and
        over-cap terms are dropped."""
        _check_dims(nv, cap)
        coeffs = {}
        for e, c in (terms or {}).items():
            if sum(e) > cap:
                continue
            if type(c) not in _EXACT:
                c = Fraction(c)
            if c:
                coeffs[_encode(e, nv)] = c
        den = lcm(*(c.denominator for c in coeffs.values()))
        _set_nv(self, nv)
        _set_cap(self, cap)
        _set_nums(self, {e: c.numerator * (den // c.denominator) for e, c in coeffs.items()})
        _set_den(self, den)

    # -- construction -----------------------------------------------------

    @classmethod
    def zero(cls, nv: int, cap: int) -> "TruncPoly":
        _check_dims(nv, cap)
        return _make(nv, cap, {})

    @classmethod
    def const(cls, nv: int, cap: int, value) -> "TruncPoly":
        _check_dims(nv, cap)
        if type(value) not in _EXACT:
            value = Fraction(value)
        if not value:
            return _make(nv, cap, {})
        return _make(nv, cap, {0: value.numerator}, value.denominator)

    @classmethod
    def var(cls, nv: int, cap: int, j: int) -> "TruncPoly":
        """The variable t_j (1-based index)."""
        if not 1 <= j <= nv:
            raise DimensionMismatch(f"variable index {j} out of range 1..{nv}")
        return cls.linear(nv, cap, [int(k == j) for k in range(1, nv + 1)])

    @classmethod
    def linear(cls, nv: int, cap: int, coeffs) -> "TruncPoly":
        """The linear form sum_j coeffs[j-1] * t_j, built on the codes of
        the t_j directly; zero at cap 0."""
        _check_dims(nv, cap)
        if len(coeffs) != nv:
            raise DimensionMismatch(f"need {nv} coefficients, got {len(coeffs)}")
        if not cap:
            return _make(nv, cap, {})
        top = FIELD_BITS * nv
        terms = {}
        den = 1
        for shift, c in zip(_shifts(nv), coeffs):
            if c:
                if type(c) not in _EXACT:
                    c = Fraction(c)
                terms[(1 << top) + (1 << shift)] = c
                den = lcm(den, c.denominator)
        nums = {e: c.numerator * (den // c.denominator) for e, c in terms.items()}
        return _make(nv, cap, nums, den)

    @classmethod
    def monomial(cls, nv: int, cap: int, exps, coeff=1) -> "TruncPoly":
        return cls(nv, cap, {tuple(exps): coeff})

    def __setattr__(self, name, value):
        raise AttributeError("TruncPoly is immutable")

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "TruncPoly"):
        if self.nv != other.nv or self.cap != other.cap:
            raise DimensionMismatch(
                f"operands disagree: ({self.nv} vars, cap {self.cap}) vs "
                f"({other.nv} vars, cap {other.cap})"
            )

    def _common(self, other: "TruncPoly"):
        """Numerator maps of self and other over their least common
        denominator, and that denominator."""
        self._check(other)
        da, db = self.den, other.den
        if da == db:
            return self.nums, other.nums, da
        g = gcd(da, db)
        fa, fb = db // g, da // g
        a = {e: c * fa for e, c in self.nums.items()} if fa != 1 else self.nums
        b = {e: c * fb for e, c in other.nums.items()} if fb != 1 else other.nums
        return a, b, da * fa

    def __add__(self, other: "TruncPoly") -> "TruncPoly":
        a, b, den = self._common(other)
        return _reduced(self.nv, self.cap, _impl.padd(a, b), den)

    def __sub__(self, other: "TruncPoly") -> "TruncPoly":
        a, b, den = self._common(other)
        return _reduced(self.nv, self.cap, _impl.psub(a, b), den)

    def __neg__(self) -> "TruncPoly":
        return _make(self.nv, self.cap, {e: -c for e, c in self.nums.items()}, self.den)

    def __mul__(self, other: "TruncPoly") -> "TruncPoly":
        self._check(other)
        nums = _impl.pmul(self.nums, other.nums, _limit(self.nv, self.cap))
        return _reduced(self.nv, self.cap, nums, self.den * other.den)

    def scale(self, s) -> "TruncPoly":
        if type(s) not in _EXACT:
            s = Fraction(s)
        p = s.numerator
        if not p:
            return _make(self.nv, self.cap, {})
        nums = {e: c * p for e, c in self.nums.items()} if p != 1 else self.nums
        return _reduced(self.nv, self.cap, nums, self.den * s.denominator)

    def _var_field(self, j: int):
        """Bit offset of the exponent field of t_j, and the code of t_j."""
        if not 1 <= j <= self.nv:
            raise DimensionMismatch(f"variable index {j} out of range 1..{self.nv}")
        shift = FIELD_BITS * (self.nv - j)
        return shift, (1 << FIELD_BITS * self.nv) + (1 << shift)

    def mul_var(self, j: int) -> "TruncPoly":
        """t_j * self at the same cap (1-based j)."""
        _, step = self._var_field(j)
        lim = _limit(self.nv, self.cap)
        nums = {e + step: c for e, c in self.nums.items() if e + step < lim}
        return _reduced(self.nv, self.cap, nums, self.den)

    def divide_var(self, j: int):
        """Exact quotient by t_j with cap one less, or None if not divisible."""
        shift, step = self._var_field(j)
        if any(not e >> shift & _MASK for e in self.nums):
            return None
        nums = {e - step: c for e, c in self.nums.items()}
        return _make(self.nv, max(self.cap - 1, 0), nums, self.den)

    def lowest_var_quotients(self, below: int) -> dict:
        """{j: q_j} over 1 <= j < below with q_j nonzero, where t_j * q_j is
        the part of self whose lowest variable is t_j (so q_j is free of
        t_1..t_{j-1}); same cap."""
        nv = self.nv
        top = FIELD_BITS * nv
        body = (1 << top) - 1
        groups = {}
        for e, c in self.nums.items():
            x = e & body
            if not x:
                continue  # the constant term
            j = nv - (x.bit_length() - 1) // FIELD_BITS
            if j < below:
                groups.setdefault(j, {})[e - (1 << top) - (1 << top - FIELD_BITS * j)] = c
        return {
            j: _reduced(nv, self.cap, nums, self.den) for j, nums in sorted(groups.items())
        }

    def graded(self, k: int) -> "TruncPoly":
        """Homogeneous degree-k component."""
        if not 0 <= k <= self.cap:
            raise DimensionMismatch(f"degree {k} outside 0..{self.cap}")
        top = FIELD_BITS * self.nv
        nums = {e: c for e, c in self.nums.items() if e >> top == k}
        return _reduced(self.nv, self.cap, nums, self.den)

    def split_var(self, j: int):
        """(q, r) with self = t_j * q + r and r free of t_j (same caps)."""
        shift, step = self._var_field(j)
        quo, rem = {}, {}
        for e, c in self.nums.items():
            if e >> shift & _MASK:
                quo[e - step] = c
            else:
                rem[e] = c
        return (
            _reduced(self.nv, self.cap, quo, self.den),
            _reduced(self.nv, self.cap, rem, self.den),
        )

    def with_cap(self, cap: int) -> "TruncPoly":
        """The same polynomial image in Q[t]/Omega^(cap+1)."""
        if cap == self.cap:
            return self
        _check_dims(self.nv, cap)
        if cap > self.cap:
            return _make(self.nv, cap, self.nums, self.den)
        lim = _limit(self.nv, cap)
        nums = {e: c for e, c in self.nums.items() if e < lim}
        return _reduced(self.nv, cap, nums, self.den)

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def items(self) -> list:
        """(exponent tuple, Fraction coefficient) pairs of the nonzero terms."""
        nv, den = self.nv, self.den
        if den == 1:
            return [(_decode(e, nv), Fraction(c)) for e, c in self.nums.items()]
        return [(_decode(e, nv), Fraction(c, den)) for e, c in self.nums.items()]

    def coeff(self, exps) -> Fraction:
        exps = tuple(exps)
        if len(exps) != self.nv or any(x < 0 for x in exps) or sum(exps) > self.cap:
            return _ZERO
        c = self.nums.get(_encode(exps, self.nv))
        return _ZERO if c is None else Fraction(c, self.den)

    def constant_term(self) -> Fraction:
        c = self.nums.get(0)
        return _ZERO if c is None else Fraction(c, self.den)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.nums:
            return -1
        return max(self.nums) >> FIELD_BITS * self.nv

    def support_vars(self) -> frozenset:
        """1-based indices of variables that actually occur."""
        used = 0
        for e in self.nums:
            used |= e
        return frozenset(
            j for j, s in enumerate(_shifts(self.nv), start=1) if used >> s & _MASK
        )

    def depends_only_on(self, allowed) -> bool:
        return self.support_vars() <= frozenset(allowed)

    def graded_parts(self):
        """All (k, component) pairs with nonzero component, ascending k."""
        top = FIELD_BITS * self.nv
        degrees = sorted({e >> top for e in self.nums})
        return [(k, self.graded(k)) for k in degrees]

    # -- equality and display ------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncPoly):
            return NotImplemented
        return (
            self.nv == other.nv
            and self.cap == other.cap
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self):
        return hash((self.nv, self.cap, frozenset(self.items())))

    def __str__(self) -> str:
        return poly_str(self)

    def __repr__(self) -> str:
        return f"TruncPoly({self.nv}, {self.cap}, {poly_str(self)!r})"


_set_nv, _set_cap, _set_nums, _set_den = (
    TruncPoly.__dict__[name].__set__ for name in TruncPoly.__slots__
)


def t_dot(polys, cap: int) -> TruncPoly:
    """sum_i t_i * polys[i-1] at the given cap (1-based i)."""
    acc = None
    for i, p in enumerate(polys, start=1):
        term = p.with_cap(cap).mul_var(i)
        acc = term if acc is None else acc + term
    return acc


def all_monomials(nv: int, max_deg: int):
    """Exponent tuples of total degree <= max_deg, in graded order."""

    def rec(rest, budget):
        if rest == 1:
            for d in range(budget + 1):
                yield (d,)
            return
        for d in range(budget + 1):
            for tail in rec(rest - 1, budget - d):
                yield (d,) + tail

    return sorted(rec(nv, max_deg), key=monomial_sort_key)


def monomial_sort_key(e):
    """Graded order, ties broken so that t1 < t2 < ... within a degree."""
    return (sum(e), tuple(-x for x in e))


def format_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


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
    if p.is_zero():
        return "0"
    out = []
    for e, c in sorted(p.items(), key=lambda item: monomial_sort_key(item[0])):
        mono = _monomial_str(e)
        mag = abs(c)
        if not mono:
            body = format_rational(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{format_rational(mag)}*{mono}"
        if not out:
            out.append(body if c > 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(out)
