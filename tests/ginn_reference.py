"""The GInn parameter algebra by routes that share no step with lmc.normal:
the references for tests/test_ginn_parity.py, and the GInn recognizer of
tests/cosets_reference.py.

ginn_of_jacobian and ginn_of_map recognize a generalized inner map by a
straight linear solve: S = J - I of the materialized map is linear in the
coefficients of the parameters f_1..f_m, so each unknown (i, t^e) has for
its column the S of the parameters f_i = t^e, f_k = 0 (k != i), built by
the TruncPoly sums of tests/endo_reference.ginn_s, and the solve runs on
the Fraction solver of tests/linalg_reference.py.  normal.ginn_pattern
reads each f_i off one entry and certifies the rest by the closed-form
Jacobian instead.  ginn_compose and in_s (the Horner sum of normal._in_s)
build each sum of products as a chain of TruncPoly products and sums, one
wrapped temporary per operation, where lmc calls arith.poly_mac once.
"""

from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

from endo_reference import ginn_s
from kernel_reference import t_dot
from linalg_reference import SparseSolver

from lmc.arith import TruncPoly, all_monomials
from lmc.errors import ContextMismatch
from lmc.liealg import Context
from lmc.normal import GInnAut

_ONE = Fraction(1)


def _keyed(s) -> dict:
    """The coefficients of an m x m matrix of polynomials, keyed (i, j, e)."""
    return {(i, j, e): c for i, row in enumerate(s) for j, p in enumerate(row) for e, c in p.items()}


@lru_cache(maxsize=None)
def _solver(ctx: Context):
    """The unknowns (i, e) and the solver over their S columns."""
    unknowns, cols = [], []
    for i in range(ctx.m):
        for e in all_monomials(ctx.m, ctx.param_cap):
            f = [TruncPoly.zero(ctx.m, ctx.param_cap)] * ctx.m
            f[i] = TruncPoly.monomial(ctx.m, ctx.param_cap, e)
            unknowns.append((i, e))
            # not a GInnAut, which refuses nonzero parameters at c = 1
            cols.append(_keyed(ginn_s(SimpleNamespace(ctx=ctx, f=f))))
    return unknowns, SparseSolver(cols)


def _solve(ctx, rhs):
    unknowns, solver = _solver(ctx)
    sol = solver.solve({k: v for k, v in rhs.items() if v})
    if sol is None:
        return None
    params = [{} for _ in range(ctx.m)]
    for (i, e), v in zip(unknowns, sol):
        if v:
            params[i][e] = v
    return GInnAut(ctx, tuple(TruncPoly(ctx.m, ctx.param_cap, d) for d in params))


def ginn_of_jacobian(jac):
    """Parameters whose materialized map has the Jacobian jac, or None."""
    rhs = _keyed(jac.rows)
    for key in ((i, i, (0,) * jac.ctx.m) for i in range(jac.ctx.m)):
        rhs[key] = rhs.get(key, 0) - _ONE
    return _solve(jac.ctx, rhs)


def ginn_of_map(phi):
    """Parameters whose materialized map is phi, or None: the image of x_j
    must be x_j plus column j of S."""
    if any(b != (k == j) for j, im in enumerate(phi.images) for k, b in enumerate(im.beta)):
        return None
    return _solve(phi.ctx, _keyed(zip(*(im.mod for im in phi.images))))


def ginn_compose(a, b):
    """F = f_a + f_b + f_b * sum t_k f_a_k, one TruncPoly operation at a time."""
    if a.ctx != b.ctx:
        raise ContextMismatch(f"{a.ctx} vs {b.ctx}")
    s = t_dot(a.f, a.ctx.param_cap)
    return GInnAut(a.ctx, tuple(fa + fb + fb * s for fa, fb in zip(a.f, b.f)))


def in_s(s, coeffs):
    """sum_n coeffs[n] s^n by Horner's rule, a product and a sum per step."""
    acc = TruncPoly.const(s.nv, s.cap, coeffs[-1])
    for a in reversed(coeffs[:-1]):
        acc = acc * s + TruncPoly.const(s.nv, s.cap, a)
    return acc
