"""Canonical coset representatives and coset-equality tests.

Three Jacobian shapes are recognized:

  * theta -- representatives of IA modulo the normal IA-automorphisms:
    entry (1,1) of J - I vanishes, the rest of the first column is free of
    t_1 with sum_{i>=2} t_i p_i = 0 modulo Omega^(c+1), entry (1,2) does
    not depend on t_2 at all, and every column satisfies the S-condition.

  * psi -- representatives of the normal IA-automorphisms modulo the inner
    ones: the matrix is the generalized-inner pattern built from a single
    parameter vector q where q_i has no constant term and depends only on
    t_i,...,t_m.  (The entries -t_j q_i then carry no constant or linear
    part.)  The literal extra condition "sum of the q_j vanishes" from the
    source shape statement is self-contradictory with the worked examples;
    it is reported by psi_diagnostics as a warning, never asserted.

  * df -- the inner-coset representative shape: first column
    (s, t_1 q_i + r_i) with s, r_i free of t_1, q_i supported on
    t_i,...,t_m, s + sum t_i q_i = 0 and sum t_i r_i = 0 modulo
    Omega^(c+1), and entry (1,2) carrying no plain t_2 summand (only the
    degree-1 coefficient of t_2 must vanish, unlike theta's full
    independence).

reduce_mod_in finds the theta representative by one exact affine solve in
the parameters of a generalized-inner left multiplier.  For
reduce_mod_inn_normal no affine shortcut exists (inner multipliers enter
through an exponential), so it follows the explicit variable-splitting
construction: first strip parameter constants with a linear-generator
exponential, then for k = 1,...,m-1 strip the t_k-dependence of the
parameters above index k with exp(ad u_k), u_k = -sum_{i>k} [x_i,x_k]
(t_k-quotient of f_i).  Every reduction output is certified: the shape
predicate holds and the compose-difference is recognized in the subgroup.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import endo as _endo
from . import normal
from .arith import TruncPoly, all_monomials
from .errors import DomainError, ValidationError
from .liealg import Context
from .linalg import SparseSolver

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass
class ThetaForm:
    """Certified canonical representative of an IA map modulo normal IA."""

    endo: "_endo.Endomorphism"
    jac: "_endo.JacobianMatrix"


@dataclass
class PsiForm:
    """Certified canonical representative of a normal IA map modulo inner."""

    endo: "_endo.Endomorphism"
    params: "normal.GInnAut"
    jac: "_endo.JacobianMatrix"


# -- shape predicates ---------------------------------------------------------


def shape_check(jac: "_endo.JacobianMatrix", shape: str) -> bool:
    """Exact predicate for the theta / psi / df canonical shapes."""
    ctx = jac.ctx
    if not jac.satisfies_s_condition():
        return False
    one = TruncPoly.const(ctx.m, ctx.module_cap, 1)
    m_rows = [
        [
            jac.rows[i][j] - one if i == j else jac.rows[i][j]
            for j in range(ctx.m)
        ]
        for i in range(ctx.m)
    ]
    if shape == "theta":
        if not m_rows[0][0].is_zero():
            return False
        for i in range(1, ctx.m):
            if 1 in m_rows[i][0].support_vars():
                return False
        if ctx.m >= 2 and 2 in m_rows[0][1].support_vars():
            return False
        # sum_{i>=2} t_i p_i = 0 mod Omega^(c+1): the (1,1) entry vanishes,
        # so this is the column-1 S-condition, already verified above.
        return True
    if shape == "psi":
        g = normal.ginn_pattern(jac)
        if g is None:
            return False
        for i, q in enumerate(g.f, start=1):
            if q.constant_term():
                return False
            if not q.depends_only_on(range(i, ctx.m + 1)):
                return False
        return True
    if shape == "df":
        s = m_rows[0][0]
        if 1 in s.support_vars():
            return False
        q_sum = s.with_cap(ctx.c)
        r_sum = TruncPoly.zero(ctx.m, ctx.c)
        for i in range(2, ctx.m + 1):
            q_i, r_i = m_rows[i - 1][0].split_var(1)
            if not q_i.depends_only_on(range(i, ctx.m + 1)):
                return False
            q_sum = q_sum + q_i.with_cap(ctx.c).mul_var(i)
            r_sum = r_sum + r_i.with_cap(ctx.c).mul_var(i)
        if not q_sum.is_zero() or not r_sum.is_zero():
            return False
        e_t2 = tuple(1 if k == 1 else 0 for k in range(ctx.m))
        if m_rows[0][1].coeff(e_t2):
            return False
        return True
    raise DomainError(f"unknown shape {shape!r}")


def psi_diagnostics(jac: "_endo.JacobianMatrix") -> dict:
    """Non-asserting diagnostics for the psi shape, including the literal
    (ambiguously stated) condition sum_{j>=2} q_j = 0 mod Omega^(c+1)."""
    ctx = jac.ctx
    g = normal.ginn_pattern(jac)
    if g is None:
        return {"pattern": False}
    literal = TruncPoly.zero(ctx.m, ctx.c)
    for j in range(2, ctx.m + 1):
        literal = literal + g.f[j - 1].with_cap(ctx.c)
    out = {
        "pattern": True,
        "q": [str(p) for p in g.f],
        "literal_q_sum": str(literal),
        "warnings": [],
    }
    if not literal.is_zero():
        out["warnings"].append(
            "literal condition sum_{j>=2} q_j = 0 mod Omega^(c+1) does not hold; "
            "it is not part of the certified predicate"
        )
    if any(not p.graded(1).is_zero() for p in g.f if p.cap >= 1):
        out["warnings"].append(
            "parameters carry linear parts; the certified predicate bounds the "
            "matrix entries, not the parameters, below degree 2"
        )
    return out


# -- reduction: IA modulo normal IA (theta) ----------------------------------------


def reduce_mod_in(phi: "_endo.Endomorphism") -> ThetaForm:
    """Canonical theta representative of the coset of normal IA maps through
    phi, by an exact affine solve in the left multiplier's parameters.

    Constraints on M = J(psi_f phi) - I, affine in f: entry (1,1) vanishes,
    first-column entries below it are free of t_1, entry (1,2) is free of
    t_2.  The remaining theta conditions hold automatically for Jacobians
    of IA maps.  Theta is a transversal, so the system is consistent and
    the solution unique; failure signals corrupt input.
    """
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
        for i in range(1, ctx.m + 1):
            acc = TruncPoly.zero(ctx.m, cap)
            for s in range(1, ctx.m + 1):
                if s != i:
                    acc = acc + jac.rows[s - 1][col - 1].mul_var(s)
            t_sums[(i, col)] = acc

    def constrained_positions(i, col, poly):
        """Yield (key, coeff) pairs of poly at the constrained positions."""
        for e, c in poly.items():
            if col == 1 and i == 1:
                yield (("A", e), c)
            elif col == 1 and i >= 2 and e[0] > 0:
                yield (("B", i, e), c)
            elif col == 2 and i == 1 and e[1] > 0:
                yield (("C", e), c)

    unknown_index = []
    columns = []
    for i0 in range(1, ctx.m + 1):
        for e0 in all_monomials(ctx.m, ctx.param_cap):
            unknown_index.append((i0, e0))
            mono = TruncPoly.monomial(ctx.m, cap, e0)
            colvec = {}
            # effect on M[i][1] for every i, and on M[1][2]
            for i in range(1, ctx.m + 1):
                if i == i0:
                    eff = -(mono * t_sums[(i0, 1)])
                else:
                    eff = mono * jac.rows[i - 1][0].mul_var(i0)
                for key, c in constrained_positions(i, 1, eff):
                    colvec[key] = colvec.get(key, _ZERO) + c
            if 2 in cols_used:
                if i0 == 1:
                    eff = -(mono * t_sums[(1, 2)])
                else:
                    eff = mono * jac.rows[0][1].mul_var(i0)
                for key, c in constrained_positions(1, 2, eff):
                    colvec[key] = colvec.get(key, _ZERO) + c
            columns.append({k: v for k, v in colvec.items() if v})

    rhs = {}
    for i in range(1, ctx.m + 1):
        base = jac.rows[i - 1][0] - one if i == 1 else jac.rows[i - 1][0]
        for key, c in constrained_positions(i, 1, base):
            rhs[key] = rhs.get(key, _ZERO) - c
    if 2 in cols_used:
        for key, c in constrained_positions(1, 2, jac.rows[0][1]):
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
        raise ValidationError("reduction produced a non-theta matrix")  # unreachable
    if normal.recognize_ginn(_endo.compose(phi, _endo.invert(theta))) is None:
        raise ValidationError("reduction lost the coset")  # unreachable
    return ThetaForm(theta, theta_jac)


# -- reduction: normal IA modulo inner (psi) -----------------------------------------


def _exp_linear_params(ctx: Context, gamma) -> "normal.GInnAut":
    """Parameters of exp(ad u) for the linear u = sum gamma_j x_j:
    f_j = gamma_j * (1 + s/2! + s^2/3! + ...), s = sum gamma_k t_k."""
    cap = ctx.param_cap
    s = TruncPoly.linear(ctx.m, cap, gamma)
    series = TruncPoly.const(ctx.m, cap, 1)
    power = TruncPoly.const(ctx.m, cap, 1)
    fact = 1
    for r in range(1, cap + 1):
        power = power * s
        fact *= r + 1
        if power.is_zero():
            break
        series = series + power.scale(Fraction(1, fact))
    return normal.GInnAut(ctx, tuple(series.scale(gamma[j]) for j in range(ctx.m)))


def reduce_mod_inn_normal(g: "normal.GInnAut") -> PsiForm:
    """Canonical psi representative of the inner-automorphism coset through
    the generalized inner automorphism g, per the variable-splitting
    construction described in the module docstring."""
    ctx = g.ctx
    params = g
    gamma = tuple(-p.constant_term() for p in params.f)
    if any(gamma):
        params = normal.ginn_compose(_exp_linear_params(ctx, gamma), params)
    for k in range(1, ctx.m):
        fbars = {}
        for j in range(k + 1, ctx.m + 1):
            fbar, _rest = params.f[j - 1].split_var(k)
            if not fbar.is_zero():
                fbars[j] = fbar
        if not fbars:
            continue
        # exp(ad u_k), u_k = -sum_{i>k} [x_i, x_k] fbar_i, acts with
        # parameters w_k = sum_{i>k} t_i fbar_i, w_i = -t_k fbar_i.
        w = [TruncPoly.zero(ctx.m, ctx.param_cap) for _ in range(ctx.m)]
        for i, fbar in fbars.items():
            w[k - 1] = w[k - 1] + fbar.mul_var(i)
            w[i - 1] = -fbar.mul_var(k)
        params = normal.ginn_compose(normal.GInnAut(ctx, tuple(w)), params)
    psi = normal.ginn_to_endo(params)
    jac = normal.ginn_jacobian(params)
    if not shape_check(jac, "psi"):
        raise ValidationError("reduction produced a non-psi matrix")  # unreachable
    cert = normal.recognize_inner(
        _endo.compose(normal.ginn_to_endo(g), _endo.invert(psi))
    )
    if cert is None:
        raise ValidationError("reduction left the inner coset")  # unreachable
    return PsiForm(psi, params, jac)


# -- coset equality ---------------------------------------------------------------


def same_coset(phi: "_endo.Endomorphism", psi: "_endo.Endomorphism", subgroup: str) -> bool:
    """True iff phi and psi differ by an element of the named subgroup
    ('ginn' for the normal IA-automorphisms, 'inn' for the inner ones)."""
    if not phi.is_ia() or not psi.is_ia():
        raise DomainError("coset tests are defined on IA automorphisms")
    diff = _endo.compose(phi, _endo.invert(psi))
    if subgroup == "ginn":
        return normal.recognize_ginn(diff) is not None
    if subgroup == "inn":
        return normal.recognize_inner(diff) is not None
    raise DomainError(f"unknown subgroup {subgroup!r}")
