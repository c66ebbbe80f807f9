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

reduce_mod_in finds the theta representative psi_f o phi by solving for
the parameters f of a generalized-inner left multiplier.  The affine
system is block lower triangular in parameter degree: the degree-d part
of f moves M = J(psi_f phi) - I only in degrees >= d+1, and its
degree-(d+1) effect comes from the identity part of J(phi) alone.  So the
diagonal blocks depend on (m, c, d) only and are built once; per input,
degrees d = 0,...,c-2 are solved in turn against right-hand sides that
carry the effect of the lower degrees.  For reduce_mod_inn_normal no
affine shortcut exists (inner multipliers enter through an exponential),
so it follows the explicit variable-splitting construction: first strip
parameter constants with a linear-generator exponential, then for k =
1,...,m-1 strip the t_k-dependence of the parameters above index k with
exp(ad u_k), u_k = -sum_{i>k} [x_i,x_k] (t_k-quotient of f_i).

Every reduction output is certified: the shape predicate holds, and the
output lies in the coset of its input.  For theta, the Jacobian of the
bracket-built psi_f o phi equals ginn_jacobian(f) @ J(phi); the Jacobian
is faithful on IA maps.  For psi, the parameters of g o psi^-1, from
ginn_compose and ginn_invert, pass the closed-form inner test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import endo as _endo
from . import normal
from .arith import FIELD_BITS, MAX_CAP, TruncPoly, all_monomials, t_dot, var_code
from .errors import DomainError, ValidationError
from .liealg import Context, LieElement
from .linalg import SparseSolver


@dataclass
class ThetaForm:
    """Certified canonical representative of an IA map phi modulo normal IA,
    theta = psi_g o phi with params = g."""

    endo: "_endo.Endomorphism"
    params: "normal.GInnAut"
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
        qs, rs = [ctx.zero_poly()], [ctx.zero_poly()]  # the sums run over i >= 2
        for i in range(2, ctx.m + 1):
            q_i, r_i = m_rows[i - 1][0].split_var(1)
            if not q_i.depends_only_on(range(i, ctx.m + 1)):
                return False
            qs.append(q_i)
            rs.append(r_i)
        if not (s.with_cap(ctx.c) + t_dot(qs, ctx.c)).is_zero():
            return False
        if not t_dot(rs, ctx.c).is_zero():
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


def _entries(m: int):
    """The entries (i, col) of M that carry constraints: column 1 and (1,2)."""
    return [(i, 1) for i in range(1, m + 1)] + [(1, 2)]


def _constrained(m: int, i: int, col: int, code: int) -> bool:
    """Whether the coefficient of t^code in M[i][col] is constrained: every
    one on the diagonal (1,1), and off it the multiples of t_col (M[i][1]
    free of t_1 for i >= 2, M[1][2] free of t_2)."""
    return i == col or bool(code >> FIELD_BITS * (m - col) & MAX_CAP)


@lru_cache(maxsize=None)
def _theta_block(ctx: Context, d: int):
    """(unknowns, solver) of the degree-d diagonal block of the theta system.

    The unknown (i0, e0) is the coefficient of t^e0, deg e0 = d, in f_i0.
    Its degree-(d+1) effect on M is that of ginn_jacobian(f) - I, whose
    entry (i, i) is sum_{r != i} t_r f_r and entry (i, j != i) is -t_j f_i.
    """
    m = ctx.m
    unknowns, columns = [], []
    for i0 in range(1, m + 1):
        for e0 in all_monomials(m, d):
            if sum(e0) != d:
                continue
            code0 = sum(x * var_code(m, j) for j, x in enumerate(e0, start=1))
            column = {}
            for i, col in _entries(m):
                if i == col and i0 != i:
                    code, v = code0 + var_code(m, i0), 1
                elif i != col and i0 == i:
                    code, v = code0 + var_code(m, col), -1
                else:
                    continue
                if _constrained(m, i, col, code):
                    column[(i, col, code)] = v
            unknowns.append((i0, e0))
            columns.append(column)
    return tuple(unknowns), SparseSolver(columns)


def reduce_mod_in(phi: "_endo.Endomorphism") -> ThetaForm:
    """Canonical theta representative psi_f o phi of the coset of normal IA
    maps through phi, by a graded solve for the multiplier's parameters f.

    Constraints on M = J(psi_f phi) - I, affine in f: entry (1,1) vanishes,
    first-column entries below it are free of t_1, entry (1,2) is free of
    t_2.  The remaining theta conditions hold automatically for Jacobians
    of IA maps.  The degree-d part f_d is solved from the degree-(d+1)
    constraints with the cached block of _theta_block, after adding the
    effect of f_0,...,f_{d-1} to M.  Theta is a transversal, so every block
    is consistent and the solution unique; failure signals corrupt input.
    """
    if not phi.is_ia():
        raise DomainError("reduce_mod_in expects an IA automorphism")
    ctx = phi.ctx
    m, cap = ctx.m, ctx.module_cap
    jac = _endo.jacobian(phi)
    one = TruncPoly.const(m, cap, 1)
    entries = _entries(m)

    # t_sums[(i, col)] = sum_{s != i} t_s J[s][col].  With (G J)[i][col] =
    # (sum_{r != i} t_r f_r) J[i][col] - f_i t_sums[(i, col)], the
    # generalized-inner part G of J(psi_f) moves M by G(f) J linearly in f.
    t_sums = {}
    for col in (1, 2):
        dot = t_dot([row[col - 1] for row in jac.rows], cap)
        for i in range(1, m + 1):
            t_sums[(i, col)] = dot - jac.rows[i - 1][col - 1].mul_var(i)
    moved = {
        (i, col): jac.rows[i - 1][col - 1] - one if i == col else jac.rows[i - 1][col - 1]
        for i, col in entries
    }

    top = FIELD_BITS * m
    params = [dict() for _ in range(m)]
    for d in range(ctx.c - 1):
        rhs = {}
        for (i, col), p in moved.items():
            for code, num in p.nums.items():
                if code >> top == d + 1 and _constrained(m, i, col, code):
                    rhs[(i, col, code)] = Fraction(-num, p.den)
        unknowns, solver = _theta_block(ctx, d)
        solution = solver.solve(rhs)
        if solution is None:
            raise ValidationError("no theta representative: input is not a valid IA map")
        f_d = [dict() for _ in range(m)]
        for (i0, e0), val in zip(unknowns, solution):
            if val:
                f_d[i0 - 1][e0] = params[i0 - 1][e0] = val
        if d == ctx.c - 2 or not any(f_d):
            continue
        f_d = [TruncPoly(m, cap, terms) for terms in f_d]
        weight = t_dot(f_d, cap)
        for i, col in entries:
            f_i = f_d[i - 1]
            moved[(i, col)] = (
                moved[(i, col)]
                + (weight - f_i.mul_var(i)) * jac.rows[i - 1][col - 1]
                - f_i * t_sums[(i, col)]
            )

    g = normal.GInnAut(ctx, tuple(TruncPoly(m, ctx.param_cap, terms) for terms in params))
    theta = _endo.compose(normal.ginn_to_endo(g), phi)
    theta_jac = _endo.jacobian(theta)
    if not shape_check(theta_jac, "theta"):
        raise ValidationError("reduction produced a non-theta matrix")  # unreachable
    if theta_jac != normal.ginn_jacobian(g) @ jac:
        raise ValidationError("reduction lost the coset")  # unreachable
    return ThetaForm(theta, g, theta_jac)


# -- reduction: normal IA modulo inner (psi) -----------------------------------------


def reduce_mod_inn_normal(g: "normal.GInnAut") -> PsiForm:
    """Canonical psi representative of the inner-automorphism coset through
    the generalized inner automorphism g, per the variable-splitting
    construction described in the module docstring."""
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
        # exp(ad u_k), u_k = -sum_{i>k} [x_i, x_k] fbar_i, acts with
        # parameters w_k = sum_{i>k} t_i fbar_i, w_i = -t_k fbar_i.
        w = [TruncPoly.zero(ctx.m, ctx.param_cap) for _ in range(ctx.m)]
        for i, fbar in fbars.items():
            w[k - 1] = w[k - 1] + fbar.mul_var(i)
            w[i - 1] = -fbar.mul_var(k)
        params = normal.ginn_compose(normal.GInnAut(ctx, tuple(w)), params)
    jac = normal.ginn_jacobian(params)
    if not shape_check(jac, "psi"):
        raise ValidationError("reduction produced a non-psi matrix")  # unreachable
    diff = normal.ginn_compose(g, normal.ginn_invert(params))  # g o psi^-1
    u = normal.inner_generator(diff)
    if u is None or normal.inner_params(u) != diff:
        raise ValidationError("reduction left the inner coset")  # unreachable
    return PsiForm(normal.ginn_to_endo(params), params, jac)


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
