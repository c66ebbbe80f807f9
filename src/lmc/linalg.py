"""Exact linear algebra: dense Gauss-Jordan over Fraction for the small
linear parts of maps, and sparse fraction-free elimination for everything
keyed by coordinates.

The sparse solvers keep integer rows: a row is a dict {key: nonzero int},
primitive (the gcd of its entries is 1) and positive at its pivot.  A
rational input vector is scaled to a primitive integer vector once, on the
way in; elimination then cross-multiplies, row := p*row - f*pivot_row with
the common factor of p and f taken out first, and divides each new row by
its content.  No Fraction is built inside the loops.  A primitive row
divides every integer row proportional to it, so its entries are never
larger than those of Bareiss's exact-division elimination (1968).

The pivot of a row is its largest key.  The module coordinates of the
left-normed basis commutator [x_i1, x_i2, ...] are a_i1 * t_i2 ... minus
a_i2 * t_i1 ..., and the first key is both the larger one and owned by that
commutator alone, so the basis solvers of liealg come out diagonal with
entries +1 and -1 and never eliminate.  SparseSolver rows stay fully
reduced (zero at every other row's pivot).  SpanBasis rows are echelon,
with distinct pivots, and are never touched again: a vector is reduced at
its largest key while that key is a pivot, and integer input is not scaled.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)
_ONE = Fraction(1)


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [
        [sum((a[i][s] * b[s][j] for s in range(k)), _ZERO) for j in range(m)]
        for i in range(n)
    ]


def mat_identity(n):
    return [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]


def mat_inv(a):
    """Inverse of a square Fraction matrix, or None if singular."""
    n = len(a)
    aug = [list(map(Fraction, row)) + mat_identity(n)[i] for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = _ONE / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _integral(vec):
    """(ints, scale): vec == scale * ints with ints a primitive {key: int}
    dict without zeros; zero vectors give ({}, 1)."""
    den = lcm(*(v.denominator for v in vec.values()))
    ints = {k: v.numerator * (den // v.denominator) for k, v in vec.items() if v}
    g = gcd(*ints.values())
    if g > 1:
        ints = {k: v // g for k, v in ints.items()}
    return ints, Fraction(g or 1, den)


def _combine(x, a, y, b):
    """x := a*x + b*y on int dicts, in place, dropping zeros."""
    if a != 1:
        for k in x:
            x[k] *= a
    get = x.get
    for k, v in y.items():
        w = get(k, 0) + b * v
        if w:
            x[k] = w
        else:
            del x[k]


def _cofactors(p, f):
    """(a, b) with a*f - b*p == 0 and a > 0: clears entry f by pivot p > 0."""
    g = gcd(p, f)
    return p // g, f // g


def _primitive(pivot, *rows):
    """Divide the int dicts in rows by their joint content, in place, with
    the sign that makes rows[0][pivot] positive."""
    g = gcd(*(v for row in rows for v in row.values()))
    if rows[0][pivot] < 0:
        g = -g
    if g != 1:
        for row in rows:
            for k in row:
                row[k] //= g


class SparseSolver:
    """Solves A x = b exactly for a fixed column family A given as sparse dicts.

    Columns may be dependent; dependent columns get coefficient 0 in the
    particular solution.  solve() returns None when b is outside the span.
    Built once, reused for many right-hand sides.
    """

    def __init__(self, columns):
        # reduced: pivot key -> (vec, expr) with vec == sum_j expr[j] * int_j,
        # where column j == scales[j] * int_j and int_j is primitive.  The
        # pair (vec, expr) is primitive together, positive at the pivot.
        self.ncols = len(columns)
        self._scales = []
        self.reduced = reduced = {}
        for j, col in enumerate(columns):
            vec, scale = _integral(col)
            self._scales.append(scale)
            expr = {j: 1}
            for key in [k for k in vec if k in reduced]:
                rvec, rexpr = reduced[key]
                a, b = _cofactors(rvec[key], vec[key])
                _combine(vec, a, rvec, -b)
                _combine(expr, a, rexpr, -b)
            if not vec:
                continue  # dependent column
            pivot = max(vec)
            _primitive(pivot, vec, expr)
            p = vec[pivot]
            for okey, (ovec, oexpr) in reduced.items():
                f = ovec.get(pivot)
                if f:
                    a, b = _cofactors(p, f)
                    _combine(ovec, a, vec, -b)
                    _combine(oexpr, a, expr, -b)
                    _primitive(okey, ovec, oexpr)
            reduced[pivot] = (vec, expr)

    def solve(self, b):
        """A coefficient list x with A x = b, or None if inconsistent."""
        # Invariant: mult * rhs == residual + sum_j coeffs[j] * int_j.
        residual, scale = _integral(b)
        reduced = self.reduced
        mult = 1
        coeffs = {}
        for key in [k for k in residual if k in reduced]:
            vec, expr = reduced[key]
            a, f = _cofactors(vec[key], residual[key])
            _combine(residual, a, vec, -f)
            _combine(coeffs, a, expr, f)
            mult *= a
        if residual:
            return None
        num, den = scale.numerator, scale.denominator * mult
        out = [_ZERO] * self.ncols
        for j, c in coeffs.items():
            s = self._scales[j]
            out[j] = Fraction(c * num * s.denominator, den * s.numerator)
        return out

    def rank(self):
        return len(self.reduced)


class SpanBasis:
    """Incremental echelon basis of a subspace of sparse vectors."""

    def __init__(self):
        self.rows = {}  # pivot key -> primitive int row, positive at the pivot

    def reduce(self, vec):
        """Integer residual of vec against the current basis (fresh dict):
        empty iff vec lies in the span, otherwise a nonzero multiple of vec
        minus a combination of rows, whose largest key is no pivot."""
        ints = all(type(v) is int for v in vec.values())
        out = {k: v for k, v in vec.items() if v} if ints else _integral(vec)[0]
        rows = self.rows
        while out and (key := max(out)) in rows:
            a, b = _cofactors(rows[key][key], out[key])
            _combine(out, a, rows[key], -b)
        return out

    def add(self, vec) -> bool:
        """Insert vec; True if it enlarged the span."""
        res = self.reduce(vec)
        if not res:
            return False
        pivot = max(res)
        _primitive(pivot, res)
        self.rows[pivot] = res
        return True

    def contains(self, vec) -> bool:
        return not self.reduce(vec)

    def dim(self) -> int:
        return len(self.rows)
