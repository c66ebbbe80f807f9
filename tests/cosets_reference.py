"""Reference coset reductions: the full-system theta solve and the
endomorphism-level certificates, kept as the oracle for lmc.cosets.

reduce_mod_in solves one affine system over every parameter unknown with
a fresh SparseSolver and certifies its output by recognizing
phi o theta^-1 in GInn; reduce_mod_inn_normal certifies by recognizing
g o psi^-1 as inner.  Both return the same forms as lmc.cosets.
"""

from fractions import Fraction
from operator import add

from lmc import endo as _endo
from lmc import normal
from lmc.arith import TruncPoly, all_monomials, t_dot
from lmc.cosets import PsiForm, ThetaForm, shape_check
from lmc.errors import DomainError, ValidationError
from lmc.liealg import LieElement
from lmc.linalg import SparseSolver

_ZERO = Fraction(0)


def reduce_mod_in(phi):
    if not phi.is_ia():
        raise DomainError("reduce_mod_in expects an IA automorphism")
    ctx = phi.ctx
    cap = ctx.module_cap
    jac = _endo.jacobian(phi)
    one = TruncPoly.const(ctx.m, cap, 1)

    # T_i_col[(i, col)] = sum_{s != i} t_s J[s][col], col in {1, 2}
    cols_used = (1, 2) if ctx.m >= 2 else (1,)
    t_sums = {}
    for col in cols_used:
        dot = t_dot([row[col - 1] for row in jac.rows], cap)
        for i in range(1, ctx.m + 1):
            t_sums[(i, col)] = dot - jac.rows[i - 1][col - 1].mul_var(i)

    def constrained_key(i, col, e):
        """Key of the position t^e of M[i][col] if it is constrained, else None."""
        if col == 1 and i == 1:
            return ("A", e)
        if col == 1 and i >= 2 and e[0] > 0:
            return ("B", i, e)
        if col == 2 and i == 1 and e[1] > 0:
            return ("C", e)
        return None

    entries = [(i, 1) for i in range(1, ctx.m + 1)] + [(1, col) for col in cols_used[1:]]

    def effect(i0, i, col):
        eff = -t_sums[(i0, col)] if i == i0 else jac.rows[i - 1][col - 1].mul_var(i0)
        return i, col, [(e, sum(e), c) for e, c in eff.items()]

    monomials = all_monomials(ctx.m, ctx.param_cap)
    unknown_index = []
    columns = []
    for i0 in range(1, ctx.m + 1):
        effects = [effect(i0, i, col) for i, col in entries]
        for e0 in monomials:
            unknown_index.append((i0, e0))
            room = cap - sum(e0)
            colvec = {}
            for i, col, terms in effects:
                for e, deg, c in terms:
                    key = deg <= room and constrained_key(i, col, tuple(map(add, e, e0)))
                    if key:
                        prev = colvec.get(key)
                        colvec[key] = c if prev is None else prev + c
            columns.append({k: v for k, v in colvec.items() if v})

    rhs = {}
    for i, col in entries:
        entry = jac.rows[i - 1][col - 1]
        for e, c in (entry - one if i == col else entry).items():
            key = constrained_key(i, col, e)
            if key is not None:
                rhs[key] = rhs.get(key, _ZERO) - c
    rhs = {k: v for k, v in rhs.items() if v}

    solution = SparseSolver(columns).solve(rhs)
    if solution is None:
        raise ValidationError("no theta representative: input is not a valid IA map")
    params = [dict() for _ in range(ctx.m)]
    for (i0, e0), val in zip(unknown_index, solution):
        if val:
            params[i0 - 1][e0] = val
    g = normal.GInnAut(
        ctx, tuple(TruncPoly(ctx.m, ctx.param_cap, d) for d in params)
    )
    theta = _endo.compose(normal.ginn_to_endo(g), phi)
    theta_jac = _endo.jacobian(theta)
    if not shape_check(theta_jac, "theta"):
        raise ValidationError("reduction produced a non-theta matrix")
    if normal.recognize_ginn(_endo.compose(phi, _endo.invert(theta))) is None:
        raise ValidationError("reduction lost the coset")
    return ThetaForm(theta, g, theta_jac)


def reduce_mod_inn_normal(g):
    ctx = g.ctx
    params = g
    gamma = tuple(-p.constant_term() for p in params.f)
    if any(gamma):
        linear = LieElement(ctx, gamma, (ctx.zero_poly(),) * ctx.m)
        params = normal.ginn_compose(normal.inner_params(linear), params)
    for k in range(1, ctx.m):
        fbars = {}
        for j in range(k + 1, ctx.m + 1):
            fbar, _rest = params.f[j - 1].split_var(k)
            if not fbar.is_zero():
                fbars[j] = fbar
        if not fbars:
            continue
        w = [TruncPoly.zero(ctx.m, ctx.param_cap) for _ in range(ctx.m)]
        for i, fbar in fbars.items():
            w[k - 1] = w[k - 1] + fbar.mul_var(i)
            w[i - 1] = -fbar.mul_var(k)
        params = normal.ginn_compose(normal.GInnAut(ctx, tuple(w)), params)
    psi = normal.ginn_to_endo(params)
    jac = normal.ginn_jacobian(params)
    if not shape_check(jac, "psi"):
        raise ValidationError("reduction produced a non-psi matrix")
    cert = normal.recognize_inner(
        _endo.compose(normal.ginn_to_endo(g), _endo.invert(psi))
    )
    if cert is None:
        raise ValidationError("reduction left the inner coset")
    return PsiForm(psi, params, jac)
