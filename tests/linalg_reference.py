"""The Fraction-valued sparse solvers that lmc.linalg replaced: the
reference for tests/test_linalg_parity.py, and the one solver of the
oracles (the cosets, ginn, ideal, inner and syntax references), so none
of them runs on lmc.linalg.

Gauss-Jordan over Fraction with the smallest key of each reduced vector as
its pivot, exactly as the library ran before its rows became integers.
"""

from __future__ import annotations

from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


class SparseSolver:
    """Solves A x = b exactly for a fixed column family A given as sparse dicts.

    Columns may be dependent; dependent columns get coefficient 0 in the
    particular solution.  solve() returns None when b is outside the span.
    Built once, reused for many right-hand sides.
    """

    def __init__(self, columns):
        # reduced: pivot key -> (reduced column dict, expression dict over
        # original column indices).  Full Gauss-Jordan by columns keeps each
        # reduced column zero at every other pivot key.
        self.ncols = len(columns)
        self.reduced = {}
        for j, col in enumerate(columns):
            vec = dict(col)
            expr = {j: _ONE}
            for key in list(vec):
                hit = self.reduced.get(key)
                if hit is None:
                    continue
                f = vec[key]
                rvec, rexpr = hit
                _axpy(vec, rvec, -f)
                _axpy(expr, rexpr, -f)
            if not vec:
                continue  # dependent column
            pivot = min(vec)
            inv = _ONE / vec[pivot]
            vec = {k: v * inv for k, v in vec.items()}
            expr = {k: v * inv for k, v in expr.items()}
            for okey, (ovec, oexpr) in self.reduced.items():
                f = ovec.get(pivot)
                if f:
                    _axpy(ovec, vec, -f)
                    _axpy(oexpr, expr, -f)
            self.reduced[pivot] = (vec, expr)

    def solve(self, b):
        """A coefficient list x with A x = b, or None if inconsistent."""
        residual = dict(b)
        coeffs = {}
        for key, (vec, expr) in self.reduced.items():
            f = residual.get(key)
            if f:
                _axpy(residual, vec, -f)
                _axpy(coeffs, expr, f)
        if residual:
            return None
        return [coeffs.get(j, _ZERO) for j in range(self.ncols)]

    def rank(self):
        return len(self.reduced)


def _axpy(target, source, factor):
    """target += factor * source, dropping zeros; mutates target."""
    for k, v in source.items():
        cur = target.get(k)
        if cur is None:
            target[k] = factor * v
        else:
            cur = cur + factor * v
            if cur:
                target[k] = cur
            else:
                del target[k]


class SpanBasis:
    """Incremental row-reduced basis of a subspace of sparse vectors."""

    def __init__(self):
        self.rows = {}  # pivot key -> reduced vector dict

    def reduce(self, vec):
        """Residual of vec against the current basis (fresh dict)."""
        out = dict(vec)
        for key in list(out):
            row = self.rows.get(key)
            if row is not None and out.get(key):
                _axpy(out, row, -out[key])
        return out

    def add(self, vec) -> bool:
        """Insert vec; True if it enlarged the span."""
        res = self.reduce(vec)
        if not res:
            return False
        pivot = min(res)
        inv = _ONE / res[pivot]
        res = {k: v * inv for k, v in res.items()}
        for row in self.rows.values():
            f = row.get(pivot)
            if f:
                _axpy(row, res, -f)
        self.rows[pivot] = res
        return True

    def contains(self, vec) -> bool:
        return not self.reduce(vec)

    def dim(self) -> int:
        return len(self.rows)
