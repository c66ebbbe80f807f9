"""Reference coset reductions: the full-system theta solve and the
endomorphism-level certificates, kept as the oracle for lmc.cosets.

reduce_mod_in solves one affine system over every parameter unknown with
a fresh Fraction SparseSolver (tests/linalg_reference.py), raises
ValidationError when that system has no solution, and certifies its
output by recognizing phi o theta^-1 in GInn; reduce_mod_inn_normal
certifies by recognizing g o psi^-1 as inner.  Both return the same forms
as lmc.cosets.  Nothing here calls lmc.normal or cosets.shape_check, as
lmc.cosets does (both read Jacobians with endo.jacobian): the maps are
materialized, composed and inverted by tests/endo_reference.py, GInn maps
are recognized by the solve of tests/ginn_reference.py and composed by
its TruncPoly chain, the linear-generator exponential and inner
recognition are the bracket series and the degree peeling of
tests/inner_reference.py, and theta_shape, psi_shape and df_shape test
the S-condition with endo_reference.column_defect.

df_shape is the df predicate before the S-condition dropped its two t_dot
sums: it builds s + sum t_i q_i and sum t_i r_i and asks both to vanish.
"""

from fractions import Fraction
from operator import add

import endo_reference as endo_ref
import inner_reference as inner_ref
from ginn_reference import ginn_compose, ginn_of_jacobian, ginn_of_map
from kernel_reference import t_dot
from linalg_reference import SparseSolver

from lmc import endo as _endo
from lmc.arith import TruncPoly, all_monomials
from lmc.cosets import CosetForm
from lmc.errors import DomainError, ValidationError
from lmc.liealg import LieElement
from lmc.normal import GInnAut

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
    g = GInnAut(ctx, tuple(TruncPoly(ctx.m, ctx.param_cap, d) for d in params))
    theta = endo_ref.compose(endo_ref.ginn_to_endo(g), phi)
    theta_jac = _endo.jacobian(theta)
    if not theta_shape(theta_jac):
        raise ValidationError("reduction produced a non-theta matrix")
    if ginn_of_map(endo_ref.compose(phi, endo_ref.invert(theta))) is None:
        raise ValidationError("reduction lost the coset")
    return CosetForm(theta, g, theta_jac)


def _s_condition(jac):
    return all(endo_ref.column_defect(jac, j).is_zero() for j in range(1, jac.ctx.m + 1))


def theta_shape(jac):
    """The S-condition, J[1][1] = 1, J[i][1] free of t_1 (i >= 2), J[1][2] free of t_2."""
    rows, one = jac.rows, TruncPoly.const(jac.ctx.m, jac.ctx.module_cap, 1)
    return _s_condition(jac) and rows[0][0] == one and 2 not in rows[0][1].support_vars() and all(
        1 not in row[0].support_vars() for row in rows[1:]
    )


def psi_shape(jac):
    """The S-condition and the GInn pattern of q, q_i free of 1, t_1..t_(i-1)."""
    g = _s_condition(jac) and ginn_of_jacobian(jac)
    return bool(g) and all(
        not q.constant_term() and q.depends_only_on(range(i, jac.ctx.m + 1)) for i, q in enumerate(g.f, 1)
    )


def df_shape(jac):
    ctx = jac.ctx
    if not _s_condition(jac):
        return False
    rows = jac.rows
    s = rows[0][0] - TruncPoly.const(ctx.m, ctx.module_cap, 1)
    if 1 in s.support_vars():
        return False
    qs, rs = [ctx.zero_poly()], [ctx.zero_poly()]  # the sums run over i >= 2
    for i in range(2, ctx.m + 1):
        q_i, r_i = rows[i - 1][0].split_var(1)
        if not q_i.depends_only_on(range(i, ctx.m + 1)):
            return False
        qs.append(q_i)
        rs.append(r_i)
    if not (s.with_cap(ctx.c) + t_dot(qs, ctx.c)).is_zero():
        return False
    if not t_dot(rs, ctx.c).is_zero():
        return False
    e_t2 = tuple(1 if k == 1 else 0 for k in range(ctx.m))
    return not rows[0][1].coeff(e_t2)


def reduce_mod_inn_normal(g):
    ctx = g.ctx
    params = g
    gamma = tuple(-p.constant_term() for p in params.f)
    if any(gamma):
        linear = LieElement(ctx, gamma, (ctx.zero_poly(),) * ctx.m)
        params = ginn_compose(ginn_of_map(inner_ref.exp_ad(linear)), params)
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
        params = ginn_compose(GInnAut(ctx, tuple(w)), params)
    psi = endo_ref.ginn_to_endo(params)
    jac = endo_ref.ginn_jacobian(params)
    if not psi_shape(jac):
        raise ValidationError("reduction produced a non-psi matrix")
    cert = inner_ref.recognize_inner(
        endo_ref.compose(endo_ref.ginn_to_endo(g), endo_ref.invert(psi))
    )
    if cert is None:
        raise ValidationError("reduction left the inner coset")
    return CosetForm(psi, params, jac)
