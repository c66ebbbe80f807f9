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

The matrix kernel: poly_matmul multiplies two square matrices of TruncPoly
entries (the Jacobians of lmc.endo) in one integer pass, _impl.mmul.  Each
operand's numerators go over one common denominator, each row of the
right operand is bucketed by degree into (column and code, numerator)
terms and kept as one prefix list per degree d, its terms of degree at
most d, and a term of degree e of the left operand runs down the prefix
for cap - e of the row it selects: the ordered product of Monagan and
Pearce applied row by row, with the cap test moved into the choice of
prefix.  Each entry is wrapped once.

The solve kernel: poly_solve gives Y = Q^-1 P for a unipotent Q = I + N
in one integer pass, _impl.msolve.  N has no constant term, so the
degree-d part of Y is P_d - sum_{e>=1} N_e Y_(d-e), power-series division
applied to matrices: each degree needs only the parts of Y below it, and
the pairs of terms multiplied are those of the one product N Y.  Over a
common denominator a, Z_d = a^(d+1) Y_d obeys the integer recursion Z_d =
a^d Pn_d - sum_e a^(e-1) Nn_e Z_(d-e).  Y is zero below the lowest
degree of P, so the terms of N above the cap minus that degree are left
out.

The commutator kernels skip the identity and wrap only their result.
poly_commutator gives (BA)^-1 AB for unipotent A and B as I + Q^-1 D,
with X = A - I and Y = B - I on numerators, D = XY - YX from two mmul
passes and N = Q - I = X + Y + YX handed to msolve as its three parts;
when D is zero, as it is at c = 2 and for commutators whose factors'
lowest degrees add up past the cap, the result is I with no solve.
poly_scalar_commutator, for constant parts alpha I and beta I, runs the
dilations by alpha and beta, the scaling by 1/(alpha beta), the two
products, the solve and the final dilation by 1/(alpha beta) on
numerators in one call.

t_dot, the sum_i t_i p_i of the membership and S-conditions, is likewise
one pass that adds the code of t_i to every code of p_i;
first_defective_column runs it on every column of a matrix and only
tests the sums, wrapping none.  poly_mac,
base + sum p * q over pairs of polynomials, one pass of _impl.pmac over
their numerators on one common denominator: a module coordinate of a
bracket, of an image under apply or of a GInn sum is wrapped once.  There
is one product loop: a * b is _impl.pmul, which is pmac on the one pair
(a, b) into an empty sum.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import DimensionMismatch, ValidationError

KERNEL = "packed-int"  # names the polynomial kernel in benchmark run records

Rational = Fraction

FIELD_BITS = 16
MAX_CAP = (1 << FIELD_BITS) - 1
_MASK = MAX_CAP

_ZERO = Fraction(0)
_EXACT = (int, Fraction)


class _impl:
    """The per-term loops, over numerator maps {code: nonzero int} (pmac
    over a list of pairs of them, pmul being pmac on one pair, mmul and
    msolve over square matrices of them).  They return fresh maps without
    zero entries and never mutate their inputs.  TruncPoly looks them up
    here at call time, so instrumentation can wrap them in place."""

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
        """Product with every code >= lim (degree past the cap) discarded:
        pmac on the one pair (a, b).  The name stays a seam of its own, so
        a wrapper patched in place counts products apart from sums."""
        return _impl.pmac({}, ((a, b),), lim)

    @staticmethod
    def pmac(base, pairs, lim):
        """base + sum p * q over the (p, q) pairs of pairs, with every code
        >= lim discarded.  A sum that cancels is deleted where it falls.  A
        one-term factor shifts the codes of the other, which into an empty
        sum is one comprehension."""
        out = dict(base)
        for a, b in pairs:
            if len(a) < len(b):
                a, b = b, a
            if not out and len(b) == 1:
                ((eb, cb),) = b.items()
                room = lim - eb
                out = {ea + eb: ca * cb for ea, ca in a.items() if ea < room}
                continue
            get = out.get
            for eb, cb in b.items():
                room = lim - eb
                for ea, ca in a.items():
                    if ea < room:
                        e = ea + eb
                        v = get(e, 0) + ca * cb
                        if v:
                            out[e] = v
                        else:
                            del out[e]
        return out

    @staticmethod
    def mmul(a, b, lim, top):
        """Product of two square matrices of numerator maps (lists of rows),
        with every code >= lim discarded; the result is a fresh matrix of
        maps.  The degree of a code is code >> top, and the cap is (lim >>
        top) - 1.  Each row k of b is bucketed by degree into (key, num)
        terms, key = j * lim + code for column j, and kept as one prefix
        list per degree d, its terms of degree at most d.  A term of a with
        code ca of degree e in column k runs down the prefix for cap - e of
        row k, every term of which keeps the product within the cap.  The
        sums of a row are keyed by key + ca, which holds the pair (j, code)
        in one integer."""
        cap = (lim >> top) - 1
        prefixes = []
        for row in b:
            buckets = [[] for _ in range(cap + 1)]
            for j, p in enumerate(row):
                base = j * lim
                for e, c in p.items():
                    buckets[e >> top].append((base + e, c))
            run, prefix = [], []
            for terms in buckets:
                run = run + terms
                prefix.append(run)
            prefixes.append(prefix)
        out = []
        for row in a:
            acc = {}
            get = acc.get
            for p, prefix in zip(row, prefixes):
                if not prefix[cap]:
                    continue
                for ca, na in p.items():
                    for key, nb in prefix[cap - (ca >> top)]:
                        e = key + ca
                        acc[e] = get(e, 0) + na * nb
            sums = [{} for _ in prefixes]
            for e, c in acc.items():
                if c:
                    j, code = divmod(e, lim)
                    sums[j][code] = c
            out.append(sums)
        return out

    @staticmethod
    def msolve(parts, p, lim, top, a):
        """Numerators of Y = Q^-1 P over a^(cap+1), cap = (lim >> top) - 1,
        for a square matrix p of numerator maps over the denominator a and
        Q = I + N unipotent, N the sum of the square matrices of parts,
        each over a (constant terms, code 0, are not read: Q's are a I);
        the degree of a code is code >> top.  N has no constant term, so
        Y_d = P_d - sum_{e>=1} N_e Y_(d-e) reads only the parts of Y below
        degree d.  Z_d = a^(d+1) Y_d keeps it in integers, Z_d = a^d Pn_d -
        sum_e a^(e-1) Nn_e Z_(d-e), and Z is kept packed per row and degree
        as (key, num) terms, key = j * lim + code as in mmul: the pairs
        multiplied are those of the one product N Y, and a group of N_e
        whose part of Y below is zero is skipped.  Y is zero below the
        lowest degree of P, so the terms of N of degree above cap minus
        that degree multiply nothing and are left out."""
        cap = (lim >> top) - 1
        size = range(len(p))
        powers = [a**d for d in range(cap + 1)]
        span = cap - (min((min(nums) for row in p for nums in row if nums), default=lim) >> top)
        n_rows = []  # per row: (degree e, column k, [(code, a^(e-1) num)]) by e
        for rows in zip(*parts):
            terms = {}
            for row in rows:
                for k, nums in enumerate(row):
                    for code, c in nums.items():
                        e = code >> top
                        if 0 < e <= span:
                            terms.setdefault((e, k), []).append((code, c * powers[e - 1]))
            n_rows.append(sorted((e, k, t) for (e, k), t in terms.items()))
        z = [[[] for _ in range(cap + 1)] for _ in size]  # z[i][d]: terms of Z_d in row i
        for i in size:
            for j, nums in enumerate(p[i]):
                for code, c in nums.items():
                    d = code >> top
                    z[i][d].append((j * lim + code, c * powers[d]))
        for d in range(1, cap + 1):
            for i in size:
                acc = dict(z[i][d])
                get = acc.get
                for e, k, terms in n_rows[i]:
                    if e > d:
                        break
                    below = z[k][d - e]
                    if not below:
                        continue
                    for cn, nn in terms:
                        for key, nz in below:
                            x = key + cn
                            acc[x] = get(x, 0) - nn * nz
                z[i][d] = [(x, c) for x, c in acc.items() if c]
        out = []
        for row in z:
            sums = [{} for _ in size]
            for d, terms in enumerate(row):
                f = powers[cap - d]
                for x, c in terms:
                    j, code = divmod(x, lim)
                    sums[j][code] = c * f
            out.append(sums)
        return out


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


def code_limit(nv: int, cap: int) -> int:
    """The smallest code of degree cap + 1."""
    return cap + 1 << FIELD_BITS * nv


def var_code(nv: int, j: int) -> int:
    """The code of the variable t_j (1-based); adding it to a code
    multiplies that monomial by t_j."""
    return (1 << FIELD_BITS * nv) + (1 << FIELD_BITS * (nv - j))


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
    def from_codes(cls, nv: int, cap: int, nums: dict, den: int = 1) -> "TruncPoly":
        """sum nums[code] * t^code / den; nums maps codes below
        code_limit(nv, cap) to nonzero ints and is not copied unless nums
        and the positive int den have a common factor, which is cancelled."""
        _check_dims(nv, cap)
        return _reduced(nv, cap, nums, den)

    @classmethod
    def from_code_terms(cls, nv: int, cap: int, terms: dict) -> "TruncPoly":
        """sum terms[code] * t^code for int or Fraction values, zeros dropped."""
        _check_dims(nv, cap)
        den = lcm(*(c.denominator for c in terms.values()))
        nums = {e: n for e, c in terms.items() if (n := c.numerator * (den // c.denominator))}
        return _reduced(nv, cap, nums, den)

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
        nums = _impl.pmul(self.nums, other.nums, code_limit(self.nv, self.cap))
        return _reduced(self.nv, self.cap, nums, self.den * other.den)

    def scale(self, s) -> "TruncPoly":
        if type(s) not in _EXACT:
            s = Fraction(s)
        p = s.numerator
        if not p:
            return _make(self.nv, self.cap, {})
        nums = {e: c * p for e, c in self.nums.items()} if p != 1 else self.nums
        return _reduced(self.nv, self.cap, nums, self.den * s.denominator)

    def dilate(self, s) -> "TruncPoly":
        """self(s t_1, ..., s t_nv): each degree-d term times s^d, over the
        denominator times q^cap for s = p/q."""
        if type(s) not in _EXACT:
            s = Fraction(s)
        cap, top = self.cap, FIELD_BITS * self.nv
        powers, f = _dilation(s, cap)
        nums = {e: v for e, c in self.nums.items() if (v := c * powers[e >> top])}
        return _reduced(self.nv, cap, nums, self.den * f)

    def _var_field(self, j: int):
        """Bit offset of the exponent field of t_j, and the code of t_j."""
        if not 1 <= j <= self.nv:
            raise DimensionMismatch(f"variable index {j} out of range 1..{self.nv}")
        return FIELD_BITS * (self.nv - j), var_code(self.nv, j)

    def mul_var(self, j: int) -> "TruncPoly":
        """t_j * self at the same cap (1-based j)."""
        _, step = self._var_field(j)
        lim = code_limit(self.nv, self.cap)
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
        lim = code_limit(self.nv, cap)
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


def t_dot(polys, cap: int, skip_constants: bool = False) -> TruncPoly:
    """sum_i t_i * polys[i-1] at the given cap (1-based i; polys nonempty,
    at most nv of them), in one pass that adds the code of t_i to every
    code of polys[i-1] over their common denominator.  skip_constants
    leaves out each constant term (code 0)."""
    nv = polys[0].nv
    _check_dims(nv, cap)
    if len(polys) > nv or any(p.nv != nv for p in polys):
        raise DimensionMismatch(f"need at most {nv} polynomials in {nv} vars")
    acc, den = _t_dot_nums(polys, cap, int(skip_constants))
    return _reduced(nv, cap, {e: c for e, c in acc.items() if c}, den)


def _t_dot_nums(polys, cap, low):
    """The numerator sums of t_dot, zeros kept, over the common denominator
    it returns; codes below low are left out."""
    nv = polys[0].nv
    lim = code_limit(nv, cap)
    den = lcm(*(p.den for p in polys))
    acc = {}
    get = acc.get
    for i, p in enumerate(polys, start=1):
        step = var_code(nv, i)
        room = lim - step
        f = den // p.den
        for e, c in p.nums.items():
            if low <= e < room:
                e += step
                acc[e] = get(e, 0) + c * f
    return acc, den


def first_defective_column(rows, cap: int) -> int:
    """The 1-based index of the first column j of the square matrix rows
    (TruncPoly entries at one nv) whose defect sum_i t_i rows[i][j],
    constant terms left out, is nonzero at cap, or 0 when none is: the
    S-condition of every column, each sum a t_dot pass that is tested and
    never wrapped."""
    for j, col in enumerate(zip(*rows), start=1):
        if any(_t_dot_nums(col, cap, 1)[0].values()):
            return j
    return 0


def poly_mac(base: TruncPoly, pairs) -> TruncPoly:
    """base + sum p * q over the (p, q) pairs of TruncPoly in the variables
    of base, at the cap of base: one _impl.pmac over the numerators on one
    common denominator, wrapped once.  The smaller factor of each pair is
    the one brought to that denominator."""
    den = lcm(base.den, *(p.den * q.den for p, q in pairs))
    terms = []
    for p, q in pairs:
        p, q = (p, q) if len(p.nums) >= len(q.nums) else (q, p)
        f = den // (p.den * q.den)
        terms.append((p.nums, q.nums if f == 1 else {e: c * f for e, c in q.nums.items()}))
    f = den // base.den
    nums = base.nums if f == 1 else {e: c * f for e, c in base.nums.items()}
    nv, cap = base.nv, base.cap
    return _reduced(nv, cap, _impl.pmac(nums, terms, code_limit(nv, cap)), den)


def poly_matmul(a, b) -> tuple:
    """Product of two square matrices (sequences of rows) of TruncPoly
    entries at one (nv, cap), as a tuple of row tuples: one _impl.mmul over
    each operand's numerators on one common denominator, and each entry
    wrapped once."""
    nv, cap = a[0][0].nv, a[0][0].cap
    (na, da), (nb, db) = _over_one_den(a), _over_one_den(b)
    return _wrapped(_impl.mmul(na, nb, code_limit(nv, cap), FIELD_BITS * nv), nv, cap, da * db)


def poly_solve(q, p) -> tuple:
    """Q^-1 P for square matrices of TruncPoly entries at one (nv, cap) with
    Q unipotent: one _impl.msolve over the numerators of both on one
    common denominator, and each entry wrapped once."""
    nv, cap = q[0][0].nv, q[0][0].cap
    den = lcm(*(x.den for rows in (q, p) for row in rows for x in row))
    lim, top = code_limit(nv, cap), FIELD_BITS * nv
    z = _impl.msolve([_over_den(q, den)], _over_den(p, den), lim, top, den)
    return _wrapped(z, nv, cap, den ** (cap + 1))


def poly_commutator(a, b) -> tuple:
    """(BA)^-1 AB for unipotent square matrices A and B of TruncPoly entries
    at one (nv, cap), as I + Z with Z = Q^-1 D for X = A - I, Y = B - I,
    D = AB - BA = XY - YX and Q = BA = I + N, N = X + Y + YX.  XY and YX
    are two _impl.mmul passes over the numerators of X and Y, whose
    product is over the denominator of A times that of B; Z is one
    _impl.msolve of D with N passed as its three parts, and only I + Z is
    wrapped.  When D is zero the commutator is I, with no solve."""
    nv, cap = a[0][0].nv, a[0][0].cap
    (na, da), (nb, db) = _over_one_den(a), _over_one_den(b)
    lim, top = code_limit(nv, cap), FIELD_BITS * nv
    x, y = _minus_identity(na), _minus_identity(nb)
    xy, yx = _impl.mmul(x, y, lim, top), _impl.mmul(y, x, lim, top)
    d = [list(map(_impl.psub, r, s)) for r, s in zip(xy, yx)]
    if not any(map(any, d)):
        one, zero = _make(nv, cap, {0: 1}), _make(nv, cap, {})
        return tuple(tuple(one if i == j else zero for j in range(nv)) for i in range(nv))
    den = da * db
    z = _impl.msolve([_scaled(x, db), _scaled(y, da), yx], d, lim, top, den)
    out_den = den ** (cap + 1)
    for i, row in enumerate(z):
        row[i][0] = out_den  # Z has no constant term
    return _wrapped(z, nv, cap, out_den)


def poly_scalar_commutator(a, b, alpha, beta) -> tuple:
    """sigma_k(Q^-1 P), k = 1/(alpha beta), for square matrices A and B of
    TruncPoly entries at one (nv, cap) with constant parts alpha I and
    beta I, alpha and beta nonzero: P = A sigma_alpha(B), Q = B
    sigma_beta(A) and sigma_s the dilation t -> s t.  The two dilations,
    which carry the scaling by k that makes k Q unipotent and put k P and
    k Q over one denominator, the two _impl.mmul products, the one
    _impl.msolve and the final sigma_k all run on numerators, and only
    the result is wrapped."""
    nv, cap = a[0][0].nv, a[0][0].cap
    (na, da), (nb, db) = _over_one_den(a), _over_one_den(b)
    lim, top = code_limit(nv, cap), FIELD_BITS * nv
    k = 1 / Fraction(alpha * beta)
    (sa, fa), (sb, fb) = _dilation(alpha, cap), _dilation(beta, cap)
    p = _impl.mmul(na, _dilated(nb, [s * k.numerator * fb for s in sa], top), lim, top)
    q = _impl.mmul(nb, _dilated(na, [s * k.numerator * fa for s in sb], top), lim, top)
    den = da * db * fa * fb * k.denominator  # k Q is I + N over den
    y = _impl.msolve([q], p, lim, top, den)
    powers, f = _dilation(k, cap)
    return _wrapped(_dilated(y, powers, top), nv, cap, den ** (cap + 1) * f)


def _wrapped(rows, nv, cap, den) -> tuple:
    """A matrix of numerator maps over den as a tuple of row tuples of
    TruncPoly, each entry wrapped once."""
    return tuple(tuple(_reduced(nv, cap, nums, den) for nums in row) for row in rows)


def _minus_identity(rows):
    """The numerator maps of A - I for a unipotent A over one denominator:
    the diagonal without its constant term, which equals that denominator."""
    return [
        [{e: c for e, c in p.items() if e} if i == j else p for j, p in enumerate(row)]
        for i, row in enumerate(rows)
    ]


def _scaled(rows, f):
    """A matrix of numerator maps times the int f."""
    return rows if f == 1 else [[{e: c * f for e, c in p.items()} for p in row] for row in rows]


def _dilation(s, cap):
    """For s = p/q in lowest terms (q > 0): p^d q^(cap-d) for d = 0..cap,
    the factor of a degree-d numerator of f(s t), and q^cap, that of the
    denominator of f(s t)."""
    p, q = s.numerator, s.denominator
    return [p**d * q ** (cap - d) for d in range(cap + 1)], q**cap


def _dilated(rows, powers, top):
    """A matrix of numerator maps with each code of degree d times
    powers[d], all of them nonzero."""
    return [[{e: c * powers[e >> top] for e, c in p.items()} for p in row] for row in rows]


def _over_one_den(rows):
    """The numerator maps of a matrix over the lcm of its denominators, and
    that denominator."""
    den = lcm(*(p.den for row in rows for p in row))
    return _over_den(rows, den), den


def _over_den(rows, den):
    """The numerator maps of a matrix over den, a multiple of the
    denominator of every entry."""
    return [
        [p.nums if p.den == den else {e: c * (den // p.den) for e, c in p.nums.items()}
         for p in row]
        for row in rows
    ]


class LinearSubstitution:
    """The ring map t_r -> sum_k forms[r-1][k-1] t_k on TruncPoly at (nv,
    cap), over forms scaled to integers by one denominator den.  The image
    of a monomial of degree d, times den^d, is tabulated on first use: the
    image of the monomial over t_j times the form of t_j, where t_j is its
    variable of largest index (lowest set bit)."""

    def __init__(self, nv: int, cap: int, forms):
        self.nv, self.cap = nv, cap
        self.den = lcm(*(c.denominator for row in forms for c in row))
        self._forms = [TruncPoly.linear(nv, cap, [c * self.den for c in row]).nums for row in forms]
        self._lim = code_limit(nv, cap)
        self._table = {0: {0: 1}}

    def _image(self, code: int) -> dict:
        img = self._table.get(code)
        if img is None:
            j = self.nv - ((code & -code).bit_length() - 1) // FIELD_BITS
            lower = self._image(code - var_code(self.nv, j))
            img = self._table[code] = _impl.pmul(lower, self._forms[j - 1], self._lim)
        return img

    def __call__(self, p: TruncPoly) -> TruncPoly:
        if (p.nv, p.cap) != (self.nv, self.cap):
            raise DimensionMismatch(f"substitution needs {self.nv} vars and cap {self.cap}")
        top, den, cap = FIELD_BITS * self.nv, self.den, self.cap
        acc = {}
        for code, c in p.nums.items():
            c *= den ** (cap - (code >> top))
            for e, v in self._image(code).items():
                acc[e] = acc.get(e, 0) + c * v
        return _reduced(self.nv, cap, {e: c for e, c in acc.items() if c}, p.den * den**cap)


@lru_cache(maxsize=None)
def all_monomials(nv: int, max_deg: int) -> tuple:
    """Exponent tuples of total degree <= max_deg, in graded order, ties
    broken so that t1 < t2 < ... within a degree; one tuple per (nv,
    max_deg), shared by every caller."""

    def rec(rest, budget):
        if rest == 1:
            for d in range(budget + 1):
                yield (d,)
            return
        for d in range(budget + 1):
            for tail in rec(rest - 1, budget - d):
                yield (d,) + tail

    return tuple(sorted(rec(nv, max_deg), key=lambda e: (sum(e), [-x for x in e])))


def format_rational(q: Fraction) -> str:
    """'p' or 'p/q'.  A numerator or denominator past Python's integer-string
    limit is a ValidationError, the rule the parser applies to literals."""
    try:
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise ValidationError(
            f"a coefficient has more than {sys.get_int_max_str_digits()} digits,"
            " the limit for printing an integer"
        ) from None


@lru_cache(maxsize=4096)
def _monomial_str(code: int, nv: int) -> str:
    """'t1^2*t3' for a code; '' for the constant monomial."""
    e = _decode(code, nv)
    return "*".join(f"t{j}" if x == 1 else f"t{j}^{x}" for j, x in enumerate(e, 1) if x)


def poly_str(p: TruncPoly) -> str:
    """Canonical text form, e.g. '1/2*t1^2*t3 - t2'; zero prints as '0'.
    The terms go in the order of all_monomials, read off the codes."""
    nv, nums, den = p.nv, p.nums, p.den
    top = FIELD_BITS * nv
    low = (1 << top) - 1
    parts = []
    for code in sorted(nums, key=lambda e: (e >> top, -(e & low))):
        c = nums[code]
        mag = format_rational(abs(c) if den == 1 else Fraction(abs(c), den))
        mono = _monomial_str(code, nv)
        if mag != "1" or not mono:
            mono = f"{mag}*{mono}" if mono else mag
        parts.append((c < 0, mono))
    return signed_sum(parts)


def signed_sum(parts) -> str:
    """Join (negative, body) pairs as '-a + b - c'; no parts print as '0'."""
    if not parts:
        return "0"
    (neg, body), rest = parts[0], parts[1:]
    out = [f"-{body}" if neg else body]
    out += [f"- {body}" if neg else f"+ {body}" for neg, body in rest]
    return " ".join(out)
