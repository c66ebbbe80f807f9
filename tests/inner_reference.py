"""The bracket-series exp_ad, and the degree-peeling recognize_inner and
ginn_invert, that lmc replaced: the references for
tests/test_inner_parity.py.

exp_ad sums 1 + ad u + ... + ad^(c-1) u/(c-1)! on every generator, one
bracket per term, where endo.exp_ad materializes normal.inner_params.
In recognize_inner the lowest nonvanishing graded part of the residual
exp_ad(-u) phi - id determines the next graded piece of u by an exact
linear solve, on the Fraction solver of tests/linalg_reference.py,
against the ad-images of the basis of that degree; the residual is
recomputed by a full composition every round.  Neither shares a step
with the closed form of normal.inner_params.  ginn_invert cancels
the lowest graded part of the running parameters one degree at a time
through the TruncPoly chain of tests/ginn_reference.ginn_compose, where
normal.ginn_invert sums the geometric series in closed form.
"""

from fractions import Fraction
from functools import lru_cache

from ginn_reference import ginn_compose
from linalg_reference import SparseSolver

from lmc import endo as _endo
from lmc import liealg
from lmc.errors import DomainError
from lmc.liealg import Context, LieElement
from lmc.normal import GInnAut

_ZERO = Fraction(0)
_ONE = Fraction(1)


def exp_ad(u: LieElement) -> "_endo.Endomorphism":
    """exp(ad u) as the series x_i + [x_i, u] + [x_i, u, u]/2! + ..., the
    terms built by repeated brackets."""
    ctx = u.ctx
    images = []
    for i in range(1, ctx.m + 1):
        acc = liealg.generator(ctx, i)
        term = acc
        for k in range(1, ctx.c):
            term = liealg.bracket(term, u).scale(Fraction(1, k))
            if term.is_zero():
                break
            acc = acc + term
        images.append(acc)
    return _endo.Endomorphism(ctx, tuple(images))


@lru_cache(maxsize=None)
def _ad_solver(ctx: Context, d: int) -> SparseSolver:
    """Columns: coordinates of ([x_1, v],...,[x_m, v]) for v running over the
    degree-d basis.  Keys (i, k, exps) address the module coordinate k of
    the bracket with x_i."""
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
    return SparseSolver(cols)


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
        residual = _endo.compose(exp_ad(-u), phi)
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


def ginn_invert(g: GInnAut) -> GInnAut:
    """Inverse inside GInn by degree peeling: at each step cancel the lowest
    graded part of the running parameters."""
    ctx = g.ctx
    cur = g
    inv = GInnAut.identity(ctx)
    for d in range(0, ctx.param_cap + 1):
        step = tuple(-p.graded(d) for p in cur.f)
        if all(p.is_zero() for p in step):
            continue
        peel = GInnAut(ctx, step)
        cur = ginn_compose(cur, peel)
        inv = ginn_compose(inv, peel)
    if not cur.is_identity_params():
        raise DomainError("degree peeling failed to terminate")  # unreachable
    return inv
