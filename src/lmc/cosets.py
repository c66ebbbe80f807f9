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

reduce_mod_in reads the parameters f of the generalized-inner left
multiplier psi_f with theta = psi_f o phi off M = J(psi_f phi) - I, degree
by degree: each coefficient of f owns one constrained coefficient of M, so
nothing is solved.  With J = I + S the Jacobian of phi, J(psi_f) = (1 + w)
I - f t^T for w = sum_r t_r f_r, and the S-condition sum_s t_s J[s][col] =
t_col gives column col of M as M = S + w J - t_col f.  The read is one
integer pass over the numerators of the m+1 constrained entries on their
common denominator D: each degree's move by w_d J is one _impl.pmac per
entry over a denominator that gains a factor D, nothing is wrapped until
each f_i is, once, and no entry is graded or split as a TruncPoly.

Every shape starts with the S-condition of every column, one
JacobianMatrix.satisfies_s_condition pass that wraps no sum.

reduce_mod_inn_normal first strips the parameter constants gamma with a
linear-generator exponential, one ginn_compose.  Then for k = 1,...,m-1
it strips the t_k-dependence of the parameters above index k with exp(ad
u_k), u_k = -sum_{j>k} [x_j,x_k] fbar_j, fbar_j the t_k-quotient of f_j,
and that step is a read of the parameters: exp(ad u) has parameters (gamma
+ W) E(s), which for a derived u (gamma = 0, s = 0, E(0) = 1) is its
module vector W, with sum_k t_k W_k = 0.  ginn_compose(w, f) = w + f (1 +
sum t_k w_k) is then w + f: each f_j = t_k fbar_j + r_j becomes r_j, and
f_k gains t_j fbar_j.

Every reduction output is certified by its shape and by its coset, and
each check sees a fault the others miss.  Theta shape: a multiplier f read
wrong off M, or a psi_f that strays in column 1.  Theta coset: J(psi_f)
must equal ginn_jacobian(f), so psi_f is generalized inner (the Jacobian is
faithful on IA maps); it sees a ginn_to_endo that moves a column theta
leaves free.  Psi shape: its S-condition pass sees a broken _ginn_s, which
ginn_pattern, comparing against the same _ginn_s, cannot.  Inner coset:
the parameters of g o psi^-1 must have a generator certified by
normal.inner_generator, as in recognize_inner; it sees a wrong
ginn_compose or ginn_invert.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from . import endo as _endo
from . import normal
from .arith import FIELD_BITS, MAX_CAP, TruncPoly, _impl, code_limit, var_code
from .errors import DomainError, ValidationError
from .liealg import LieElement


@dataclass
class CosetForm:
    """Certified canonical coset representative: theta = psi_g o phi of an
    IA map phi modulo normal IA, or psi of a normal IA map modulo inner,
    with its GInn parameters and Jacobian."""

    endo: "_endo.Endomorphism"
    params: "normal.GInnAut"
    jac: "_endo.JacobianMatrix"


# -- shape predicates ---------------------------------------------------------


def shape_check(jac: "_endo.JacobianMatrix", shape: str) -> bool:
    """Exact predicate for the theta / psi / df canonical shapes.  An
    unknown shape name is a DomainError whatever the matrix."""
    if shape not in ("theta", "psi", "df"):
        raise DomainError(f"unknown shape {shape!r}")
    ctx = jac.ctx
    if not jac.satisfies_s_condition():
        return False
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
    # theta and df read only column 1 and entry (1,2) of M = J - I, which
    # equal those of J except for M[1][1]
    rows = jac.rows
    s = rows[0][0] - TruncPoly.const(ctx.m, ctx.module_cap, 1)
    if shape == "theta":
        if not s.is_zero():
            return False
        for i in range(1, ctx.m):
            if 1 in rows[i][0].support_vars():
                return False
        if 2 in rows[0][1].support_vars():
            return False
        # sum_{i>=2} t_i p_i = 0 mod Omega^(c+1): the (1,1) entry vanishes,
        # so this is the column-1 S-condition, already verified above.
        return True
    if 1 in s.support_vars():
        return False
    for i in range(2, ctx.m + 1):
        if not rows[i - 1][0].split_var(1)[0].depends_only_on(range(i, ctx.m + 1)):
            return False
    # s + sum_{i>=2} t_i q_i = 0 and sum_{i>=2} t_i r_i = 0 mod Omega^(c+1):
    # column 1's defect, zero above, is t_1 (s + sum t_i q_i) + sum t_i r_i.
    # s, q_i and r_i are free of t_1, so the two groups share no monomial
    # and each vanishes at cap c; s + sum t_i q_i has degree <= c-1, so
    # t_1 times it vanishing at cap c means it vanishes.
    e_t2 = tuple(1 if k == 1 else 0 for k in range(ctx.m))
    return not rows[0][1].coeff(e_t2)


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


def reduce_mod_in(phi: "_endo.Endomorphism") -> CosetForm:
    """Canonical theta representative psi_f o phi of the coset of normal IA
    maps through phi, with f read off M = J(psi_f phi) - I degree by degree.

    Theta asks that M[1][1] vanish, M[i][1] (i >= 2) be free of t_1 and
    M[1][2] be free of t_2; its other conditions hold for every IA map.
    Column col of M is S + w J - t_col f (J = I + S the Jacobian of phi, w
    = sum_r t_r f_r; module docstring), so the degree-d part f_d moves M
    only in degrees >= d+1, and in degree d+1 by -t_1 f_i,d at (i,1), -t_2
    f_1,d at (1,2) and sum_{r>=2} t_r f_r,d at (1,1).  So, with the effect
    of f_0,...,f_{d-1} added to M, f_i,d is the t_1-quotient of the
    degree-(d+1) part of M[i][1], f_1,d the t_2-quotient of that of
    M[1][2], and M[1][1] must then cancel in degree d+1.  Theta is a
    transversal, so it does for every IA map; failure signals corrupt
    input.  Later steps read degrees >= d+2 only, so the -t_col f_i,d term
    is dropped and each constrained entry moves by w_d J[i][col] alone.
    """
    if not phi.is_ia():
        raise DomainError("reduce_mod_in expects an IA automorphism")
    g = normal.GInnAut(phi.ctx, _theta_multiplier(_endo.jacobian(phi)))
    psi = normal.ginn_to_endo(g)
    theta = _endo.compose(psi, phi)
    theta_jac = _endo.jacobian(theta)
    if not shape_check(theta_jac, "theta"):
        raise ValidationError("reduction produced a non-theta matrix")  # a wrong f or psi_f
    if _endo.jacobian(psi) != normal.ginn_jacobian(g):
        raise ValidationError("reduction lost the coset")  # a wrong ginn_to_endo
    return CosetForm(theta, g, theta_jac)


def _theta_multiplier(jac: "_endo.JacobianMatrix") -> tuple:
    """The f of reduce_mod_in, read in one integer pass over the numerators
    of the constrained entries (1,1), ..., (m,1), (1,2) of J on their common
    denominator D.  M differs from J there only in its constant term, which
    no step reads.  f_d is read off M over D^(d+1), and M's move by w_d J
    is one _impl.pmac per entry, over D^(d+2); each f_i is wrapped once."""
    ctx = jac.ctx
    m, c = ctx.m, ctx.c
    lim, top = code_limit(m, ctx.module_cap), FIELD_BITS * m
    s1, s2 = FIELD_BITS * (m - 1), FIELD_BITS * (m - 2)  # the fields of t_1 and t_2
    t1, t2 = var_code(m, 1), var_code(m, 2)
    entries = [row[0] for row in jac.rows] + [jac.rows[0][1]]
    unit = lcm(*(p.den for p in entries))
    js = [{e: v * (unit // p.den) for e, v in p.nums.items()} for p in entries]
    moved = js
    f = [{} for _ in range(m)]  # over D^(c-1)
    for d in range(c - 1):
        deg = d + 1
        f_d = [{e - t2: v for e, v in moved[m].items() if e >> top == deg and e >> s2 & MAX_CAP}]
        f_d += [{e - t1: v for e, v in p.items() if e >> top == deg and e >> s1 & MAX_CAP} for p in moved[1:m]]
        weight = {}  # w_d = sum_i t_i f_i,d
        for i, q in enumerate(f_d, start=1):
            step = var_code(m, i)
            for e, v in q.items():
                weight[e + step] = weight.get(e + step, 0) + v
        weight = {e: v for e, v in weight.items() if v}
        m11 = {e: v for e, v in moved[0].items() if e >> top == deg}
        if _impl.psub(_impl.padd(m11, weight), {e + t1: v for e, v in f_d[0].items()}):
            raise ValidationError("no theta representative: input is not a valid IA map")
        for p, q in zip(f, f_d):
            p.update((e, v * unit ** (c - 2 - d)) for e, v in q.items())
        if d == c - 2:
            break
        if unit != 1:
            moved = [{e: v * unit for e, v in p.items()} for p in moved]
        moved = [_impl.pmac(p, ((weight, j),), lim) for p, j in zip(moved, js)]
    return tuple(TruncPoly.from_codes(m, ctx.param_cap, p, unit ** (c - 1)) for p in f)


# -- reduction: normal IA modulo inner (psi) -----------------------------------------


def reduce_mod_inn_normal(g: "normal.GInnAut") -> CosetForm:
    """Canonical psi representative of the inner-automorphism coset through
    the generalized inner automorphism g, per the variable-splitting
    construction described in the module docstring: one ginn_compose
    strips the constants, and each splitting step moves parameters in
    place."""
    ctx = g.ctx
    params = g
    gamma = tuple(-p.constant_term() for p in params.f)
    if any(gamma):
        linear = LieElement(ctx, gamma, (ctx.zero_poly(),) * ctx.m)
        params = normal.ginn_compose(normal.inner_params(linear), params)
    # exp(ad u_k), u_k = -sum_{j>k} [x_j, x_k] fbar_j, is derived, so its
    # parameters are the module vector w of u_k: w_k = sum_{j>k} t_j fbar_j,
    # w_j = -t_k fbar_j.  sum t_i w_i = 0, so composing with it adds w.
    f = list(params.f)
    for k in range(1, ctx.m):
        for j in range(k + 1, ctx.m + 1):
            fbar, f[j - 1] = f[j - 1].split_var(k)
            f[k - 1] = f[k - 1] + fbar.mul_var(j)
    params = normal.GInnAut(ctx, tuple(f))
    jac = normal.ginn_jacobian(params)
    if not shape_check(jac, "psi"):
        raise ValidationError("reduction produced a non-psi matrix")  # a broken _ginn_s
    diff = normal.ginn_compose(g, normal.ginn_invert(params))  # g o psi^-1
    if normal.inner_generator(diff) is None:
        raise ValidationError("reduction left the inner coset")  # a wrong compose or invert
    return CosetForm(normal.ginn_to_endo(params), params, jac)


# -- coset equality ---------------------------------------------------------------


def same_coset(phi: "_endo.Endomorphism", psi: "_endo.Endomorphism", subgroup: str) -> bool:
    """True iff phi and psi differ by an element of the named subgroup
    ('ginn' for the normal IA-automorphisms, 'inn' for the inner ones)."""
    if subgroup not in ("ginn", "inn"):
        raise DomainError(f"unknown subgroup {subgroup!r}")
    if not phi.is_ia() or not psi.is_ia():
        raise DomainError("coset tests are defined on IA automorphisms")
    diff = _endo.compose(phi, _endo.invert(psi))
    recognize = normal.recognize_ginn if subgroup == "ginn" else normal.recognize_inner
    return recognize(diff) is not None
