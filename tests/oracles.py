"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: inner recognition goes
through a dense matrix logarithm, generalized-inner recognition through a
plain linear solve in the parameters, span questions through two-sided
containment.  Their solves run on the Fraction reference solver, not on
lmc.linalg.
"""

from fractions import Fraction

from linalg_reference import SparseSolver

from lmc import liealg, normal
from lmc.arith import TruncPoly, all_monomials
from lmc.liealg import BasisForm, Context

ZERO = Fraction(0)
ONE = Fraction(1)


def basis_elements(ctx: Context):
    """The left-normed linear basis of L_{m,c} as elements, fixed order."""
    elems = [liealg.generator(ctx, i) for i in range(1, ctx.m + 1)]
    for k in range(2, ctx.c + 1):
        for tup in liealg.enumerate_basis(ctx, k):
            elems.append(
                liealg.from_basis(BasisForm(ctx, (ZERO,) * ctx.m, {tup: ONE}))
            )
    return elems


def element_coords(ctx: Context, u) -> list:
    bf = liealg.to_basis(u)
    out = list(bf.linear)
    for k in range(2, ctx.c + 1):
        for tup in liealg.enumerate_basis(ctx, k):
            out.append(bf.comm.get(tup, ZERO))
    return out


def endo_matrix(phi) -> list:
    """Dense matrix of phi on the left-normed basis (columns are images)."""
    ctx = phi.ctx
    cols = [element_coords(ctx, phi.apply(b)) for b in basis_elements(ctx)]
    n = len(cols)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def ad_matrix(ctx: Context, u) -> list:
    """Dense matrix of v -> [v, u] on the left-normed basis."""
    cols = [element_coords(ctx, liealg.bracket(b, u)) for b in basis_elements(ctx)]
    n = len(cols)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def matrix_log_inner_oracle(phi):
    """Inner-recognition oracle: phi = exp(D) for the unique nilpotent
    D = log(phi); phi is inner iff D lies in the image of ad.  Returns a
    generator element or None."""
    ctx = phi.ctx
    n_mat = endo_matrix(phi)
    n = len(n_mat)
    # N = M - I, nilpotent because phi is IA
    for i in range(n):
        n_mat[i][i] -= ONE
    log = [[ZERO] * n for _ in range(n)]
    power = [row[:] for row in n_mat]
    k = 1
    while any(any(row) for row in power):
        sign = ONE if k % 2 == 1 else -ONE
        for i in range(n):
            for j in range(n):
                log[i][j] += sign * power[i][j] / k
        power = _mat_mul(power, n_mat)
        k += 1
        assert k <= n + 1, "log series failed to terminate"
    # solve log == sum_u x_u * ad(basis_u)
    basis = basis_elements(ctx)
    cols = []
    for b in basis:
        mat = ad_matrix(ctx, b)
        cols.append(
            {(i, j): mat[i][j] for i in range(n) for j in range(n) if mat[i][j]}
        )
    rhs = {(i, j): log[i][j] for i in range(n) for j in range(n) if log[i][j]}
    sol = SparseSolver(cols).solve(rhs)
    if sol is None:
        return None
    u = liealg.zero(ctx)
    for coeff, b in zip(sol, basis):
        if coeff:
            u = u + b.scale(coeff)
    return u


def _mat_mul(a, b):
    n = len(a)
    return [
        [sum((a[i][s] * b[s][j] for s in range(n)), ZERO) for j in range(n)]
        for i in range(n)
    ]


def ginn_params_by_solve(phi):
    """Generalized-inner recognition by a straight linear solve: the
    materialization map is linear in the parameter coefficients."""
    ctx = phi.ctx
    unknowns = []
    cols = []
    for i0 in range(1, ctx.m + 1):
        for e0 in all_monomials(ctx.m, ctx.param_cap):
            unknowns.append((i0, e0))
            f = [TruncPoly.zero(ctx.m, ctx.param_cap)] * ctx.m
            f[i0 - 1] = TruncPoly.monomial(ctx.m, ctx.param_cap, e0)
            mat = normal.ginn_to_endo(normal.GInnAut(ctx, tuple(f)))
            col = {}
            for j, im in enumerate(mat.images, start=1):
                w = im - liealg.generator(ctx, j)
                for k in range(1, ctx.m + 1):
                    for e, c in w.mod[k - 1].items():
                        col[(j, k, e)] = c
            cols.append(col)
    rhs = {}
    for j, im in enumerate(phi.images, start=1):
        w = im - liealg.generator(ctx, j)
        for k in range(1, ctx.m + 1):
            for e, c in w.mod[k - 1].items():
                rhs[(j, k, e)] = c
    sol = SparseSolver(cols).solve(rhs)
    if sol is None:
        return None
    params = [dict() for _ in range(ctx.m)]
    for (i0, e0), v in zip(unknowns, sol):
        if v:
            params[i0 - 1][e0] = v
    return normal.GInnAut(
        ctx, tuple(TruncPoly(ctx.m, ctx.param_cap, d) for d in params)
    )


def spans_equal(elems_a, elems_b) -> bool:
    """Two-sided containment of exact spans."""
    span_a = liealg.span_of(elems_a)
    span_b = liealg.span_of(elems_b)
    if span_a.dim() != span_b.dim():
        return False
    return all(
        span_a.contains(liealg.element_row(w)) for w in elems_b
    ) and all(span_b.contains(liealg.element_row(w)) for w in elems_a)
