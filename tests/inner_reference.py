"""The degree-peeling recognize_inner that lmc.normal replaced: the
reference for tests/test_inner_parity.py.

The lowest nonvanishing graded part of the residual exp_ad(-u) phi - id
determines the next graded piece of u by an exact linear solve against the
ad-images of the basis of that degree; the residual is recomputed by a full
composition every round.  It shares no step with the closed form of
normal.inner_params.
"""

from fractions import Fraction

from lmc import endo as _endo
from lmc import liealg
from lmc.errors import DomainError
from lmc.liealg import Context, LieElement
from lmc.linalg import SparseSolver

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _ad_solver(ctx: Context, d: int) -> SparseSolver:
    """Columns: coordinates of ([x_1, v],...,[x_m, v]) for v running over the
    degree-d basis.  Keys (i, k, exps) address the module coordinate k of
    the bracket with x_i."""
    key = ("ad_solver", ctx, d)
    cached = _AD_SOLVERS.get(key)
    if cached is not None:
        return cached
    cols = []
    basis = liealg.enumerate_basis(ctx, d)
    for tup in basis:
        if d == 1:
            v = liealg.generator(ctx, tup[0])
        else:
            v = liealg.from_basis(liealg.BasisForm(ctx, (_ZERO,) * ctx.m, {tup: _ONE}))
        col = {}
        for i in range(1, ctx.m + 1):
            w = liealg.bracket(liealg.generator(ctx, i), v)
            for k in range(1, ctx.m + 1):
                for e, cc in w.mod[k - 1].items():
                    col[(i, k, e)] = cc
        cols.append(col)
    solver = SparseSolver(cols)
    _AD_SOLVERS[key] = solver
    return solver


_AD_SOLVERS: dict = {}


def recognize_inner(phi: "_endo.Endomorphism"):
    """A generator u with exp_ad(u) = phi exactly, or None.

    Degree peeling: the lowest nonvanishing graded part of the residual
    exp_ad(-u) phi - id determines the next graded piece of u by an exact
    linear solve against the ad-images of the basis; u is unique modulo
    the center.
    """
    if not phi.is_ia():
        raise DomainError("recognize_inner expects an IA automorphism")
    ctx = phi.ctx
    u = liealg.zero(ctx)
    residual = phi
    ident = _endo.Endomorphism.identity(ctx)
    while residual != ident:
        # lowest algebra degree with a nonzero graded part of residual - id
        lowest = None
        for i in range(1, ctx.m + 1):
            diff = residual.images[i - 1] - liealg.generator(ctx, i)
            for k, _part in _graded_element_parts(diff):
                lowest = k if lowest is None else min(lowest, k)
                break
        if lowest is None or lowest - 1 > ctx.c - 1:
            return None  # residual nonzero only past the cap: impossible
        d = lowest - 1
        rhs = {}
        for i in range(1, ctx.m + 1):
            diff = residual.images[i - 1] - liealg.generator(ctx, i)
            for k in range(1, ctx.m + 1):
                for e, cc in diff.mod[k - 1].items():
                    if sum(e) + 1 == lowest:
                        rhs[(i, k, e)] = cc
        coeffs = _ad_solver(ctx, d).solve(rhs)
        if coeffs is None:
            return None
        basis = liealg.enumerate_basis(ctx, d)
        if d == 1:
            v = liealg.zero(ctx)
            for tup, cc in zip(basis, coeffs):
                if cc:
                    v = v + liealg.generator(ctx, tup[0]).scale(cc)
        else:
            comb = {tup: cc for tup, cc in zip(basis, coeffs) if cc}
            v = liealg.from_basis(liealg.BasisForm(ctx, (_ZERO,) * ctx.m, comb))
        if v.is_zero():
            return None  # no progress possible: not inner
        u = u + v
        residual = _endo.compose(_endo.exp_ad(-u), phi)
    return u


def _graded_element_parts(w: LieElement):
    """(degree, present) markers for the nonzero graded parts of w, ascending."""
    degs = set()
    for i, b in enumerate(w.beta):
        if b:
            degs.add(1)
            break
    for p in w.mod:
        for e, _c in p.items():
            degs.add(sum(e) + 1)
    return [(k, True) for k in sorted(degs)]
