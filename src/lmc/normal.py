"""Generalized inner automorphisms, recognition procedures, normality.

A generalized inner automorphism is determined by one parameter vector
(f_1,...,f_m) of polynomials in the ad-operators, acting as

    x_i  ->  x_i + sum_j [x_i, x_j] f_j(ad x_1,...,ad x_m),

with the same f for every generator.  These maps form a group GInn; its
closed-form multiplication and the iterative inverse are implemented at
the parameter level and cross-checked against the endomorphism level.

Recognition:
  * recognize_ginn pattern-matches the Jacobian against the GInn shape
    (off-diagonal (i,j) equal to -t_j f_i, diagonal sum_{r!=i} t_r f_r)
    using exact variable division, then certifies by re-materialization.
  * recognize_inner peels exp(ad u) degree by degree with exact linear
    solves; the returned generator reproduces the input map exactly.

decide_normal implements the case table: the linear part must be a scalar
alpha; alpha != 1 survives only on L_{m,1}, L_{2,2} and L_{2,3}, and in the
other contexts a scaling is defeated by an explicit witness ideal whose
closure is not preserved.  IA maps are normal exactly when they are
generalized inner.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from . import endo as _endo
from . import liealg
from .arith import TruncPoly, format_rational
from .errors import ContextMismatch, DomainError, UsageError, ValidationError
from .liealg import Context, LieElement
from .linalg import SparseSolver

_ZERO = Fraction(0)
_ONE = Fraction(1)


class GInnAut:
    """Parameter form of a generalized inner automorphism (caps c-2)."""

    __slots__ = ("ctx", "f")

    def __init__(self, ctx: Context, f):
        f = tuple(f)
        if len(f) != ctx.m:
            raise ValidationError(f"need {ctx.m} parameter polynomials")
        for p in f:
            if p.nv != ctx.m or p.cap != ctx.param_cap:
                raise ValidationError(
                    f"parameters must have {ctx.m} vars and cap {ctx.param_cap}"
                )
        if ctx.c == 1 and any(not p.is_zero() for p in f):
            raise ValidationError("for c = 1 only the identity exists; f must be 0")
        self.ctx = ctx
        self.f = f

    @classmethod
    def identity(cls, ctx: Context) -> "GInnAut":
        zp = TruncPoly.zero(ctx.m, ctx.param_cap)
        return cls(ctx, (zp,) * ctx.m)

    def is_identity_params(self) -> bool:
        return all(p.is_zero() for p in self.f)

    def __eq__(self, other):
        if not isinstance(other, GInnAut):
            return NotImplemented
        return self.ctx == other.ctx and self.f == other.f

    def __repr__(self):
        return f"GInnAut(m={self.ctx.m}, c={self.ctx.c}, f=({', '.join(map(str, self.f))}))"


def _param_weight(g: GInnAut) -> TruncPoly:
    """sum_k t_k f_k at the parameter cap."""
    ctx = g.ctx
    acc = TruncPoly.zero(ctx.m, ctx.param_cap)
    for k in range(1, ctx.m + 1):
        acc = acc + g.f[k - 1].mul_var(k)
    return acc


def ginn_to_endo(g: GInnAut) -> "_endo.Endomorphism":
    """Materialize: x_i -> x_i + sum_j [x_i,x_j] f_j."""
    ctx = g.ctx
    cap = ctx.module_cap
    f_full = [p.with_cap(cap) for p in g.f]
    images = []
    for i in range(1, ctx.m + 1):
        diag = TruncPoly.zero(ctx.m, cap)
        for r in range(1, ctx.m + 1):
            if r != i:
                diag = diag + f_full[r - 1].mul_var(r)
        mod = tuple(
            diag if k == i else -f_full[k - 1].mul_var(i) for k in range(1, ctx.m + 1)
        )
        beta = tuple(_ONE if k == i else _ZERO for k in range(1, ctx.m + 1))
        images.append(LieElement(ctx, beta, mod))
    return _endo.Endomorphism(ctx, tuple(images))


def ginn_compose(a: GInnAut, b: GInnAut) -> "GInnAut":
    """Parameters of a after b (b applied first): F = f_a + f_b + f_b * sum t_k f_a_k."""
    if a.ctx != b.ctx:
        raise ContextMismatch(f"{a.ctx} vs {b.ctx}")
    s = _param_weight(a)
    f = tuple(
        fa + fb + fb * s for fa, fb in zip(a.f, b.f)
    )
    return GInnAut(a.ctx, f)


def ginn_invert(g: GInnAut) -> "GInnAut":
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


def ginn_apply(g: GInnAut, u: LieElement) -> LieElement:
    """Closed-form action psi(u) = u + sum_j [u, x_j] f_j."""
    if g.ctx != u.ctx:
        raise ContextMismatch(f"{g.ctx} vs {u.ctx}")
    ctx = g.ctx
    acc = u
    for j in range(1, ctx.m + 1):
        if g.f[j - 1].is_zero():
            continue
        w = liealg.bracket(u, liealg.generator(ctx, j))
        acc = acc + liealg.ad_polynomial_action(w, g.f[j - 1])
    return acc


def ginn_jacobian(g: GInnAut) -> "_endo.JacobianMatrix":
    """Closed-form Jacobian: I + (diagonal sum_{r!=i} t_r f_r, off-diagonal
    (i,j) = -t_j f_i)."""
    ctx = g.ctx
    cap = ctx.module_cap
    f_full = [p.with_cap(cap) for p in g.f]
    rows = []
    for i in range(1, ctx.m + 1):
        row = []
        for j in range(1, ctx.m + 1):
            if i == j:
                acc = TruncPoly.const(ctx.m, cap, 1)
                for r in range(1, ctx.m + 1):
                    if r != i:
                        acc = acc + f_full[r - 1].mul_var(r)
                row.append(acc)
            else:
                row.append(-f_full[i - 1].mul_var(j))
        rows.append(tuple(row))
    return _endo.JacobianMatrix(ctx, tuple(rows))


def recognize_ginn(phi: "_endo.Endomorphism"):
    """Parameter vector f with materialization equal to phi, or None.

    Requires an IA input.  The Jacobian is matched against the GInn
    pattern: each off-diagonal entry (i, j) must be divisible by t_j with
    quotient -f_i independent of j, and the diagonal must reproduce
    sum_{r != i} t_r f_r.  The result is certified by re-materialization.
    """
    if not phi.is_ia():
        raise DomainError("recognize_ginn expects an IA automorphism")
    ctx = phi.ctx
    jac = _endo.jacobian(phi)
    params = []
    for i in range(1, ctx.m + 1):
        f_i = None
        for j in range(1, ctx.m + 1):
            if j == i:
                continue
            q = jac.rows[i - 1][j - 1].divide_var(j)
            if q is None:
                return None
            cand = -q.with_cap(ctx.param_cap)
            if f_i is None:
                f_i = cand
            elif f_i != cand:
                return None
        params.append(f_i)
    g = GInnAut(ctx, tuple(params))
    if ginn_jacobian(g) != jac:
        return None
    if ginn_to_endo(g) != phi:
        return None  # unreachable when the Jacobian matches
    return g


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


# -- normality ---------------------------------------------------------------------


@dataclass
class NormalAut:
    """Scalar alpha paired with a generalized inner automorphism."""

    alpha: Fraction
    g: GInnAut

    def __post_init__(self):
        self.alpha = Fraction(self.alpha)
        if not self.alpha:
            raise ValidationError("alpha must be nonzero")
        ctx = self.g.ctx
        if (
            self.alpha != 1
            and ctx.c >= 2
            and (ctx.m, ctx.c) not in ((2, 2), (2, 3))
        ):
            raise ValidationError(
                f"alpha != 1 is not normal on L_{{{ctx.m},{ctx.c}}}"
            )

    def to_endo(self) -> "_endo.Endomorphism":
        ctx = self.g.ctx
        scalar = [
            [self.alpha if i == j else _ZERO for j in range(ctx.m)]
            for i in range(ctx.m)
        ]
        return _endo.compose(_endo.linear_endo(ctx, scalar), ginn_to_endo(self.g))


@dataclass
class NormalityVerdict:
    normal: bool
    aut: NormalAut | None = None
    witness: list | None = None  # generators of a non-preserved ideal
    reason: str = ""

    def to_dict(self, element_printer=None) -> dict:
        out = {"normal": self.normal}
        if self.aut is not None:
            out["alpha"] = format_rational(self.aut.alpha)
            out["f"] = [str(p) for p in self.aut.g.f]
        if self.witness is not None:
            if element_printer is None:
                out["witness"] = [repr(w) for w in self.witness]
            else:
                out["witness"] = [element_printer(w) for w in self.witness]
        if self.reason:
            out["reason"] = self.reason
        return out

    def to_json(self, element_printer=None) -> str:
        return json.dumps(self.to_dict(element_printer))


def preserves_ideal(phi: "_endo.Endomorphism", gens) -> bool:
    """True iff phi maps the ideal generated by gens onto itself."""
    gens = list(gens)
    if any(g.ctx != phi.ctx for g in gens):
        raise ContextMismatch("ideal generators live in a different context")
    if all(g.is_zero() for g in gens):
        return True
    basis = liealg.ideal_closure([g for g in gens if not g.is_zero()])
    span = liealg.span_of(basis)
    images = [phi.apply(w) for w in basis]
    if any(not span.contains(liealg.element_vector(w)) for w in images):
        return False
    return liealg.span_of(images).dim() == span.dim()


def _scaling_witness(ctx: Context) -> list:
    """Ideal generators defeating x_i -> alpha x_i, alpha != 0, 1."""
    x = lambda i: liealg.generator(ctx, i)
    if ctx.c == 2:
        # x1 + [x2,x3]  (needs m >= 3)
        return [x(1) + liealg.bracket(x(2), x(3))]
    if ctx.c == 3:
        # [x1,x2] + [x1,x3,x3]  (needs m >= 3)
        return [
            liealg.bracket(x(1), x(2))
            + liealg.bracket_chain(x(1), x(3), x(3))
        ]
    # c >= 4: [x1,x2,...,x2] of length c-1 plus [x1,x2,x1,...,x1] of length c
    head = liealg.bracket_chain(x(1), *[x(2)] * (ctx.c - 2))
    tail = liealg.bracket_chain(x(1), x(2), *[x(1)] * (ctx.c - 2))
    return [head + tail]


def _nonscalar_witness(phi: "_endo.Endomorphism") -> list:
    """Generator or generator-pair ideal not preserved by a map whose linear
    part is not scalar."""
    ctx = phi.ctx
    a = phi.linear_matrix()
    m = ctx.m
    for i in range(m):
        if any(a[k][i] for k in range(m) if k != i):
            return [liealg.generator(ctx, i + 1)]
    for i in range(m):
        for j in range(i + 1, m):
            if a[i][i] != a[j][j]:
                return [liealg.generator(ctx, i + 1) + liealg.generator(ctx, j + 1)]
    return []


def _search_principal_witness(phi: "_endo.Endomorphism"):
    """Principal ideals generated by a*x_p + x_q, a = 1..c+1: first one not
    preserved, or None."""
    ctx = phi.ctx
    for p in range(1, ctx.m + 1):
        for q in range(1, ctx.m + 1):
            if p == q:
                continue
            for a in range(1, ctx.c + 2):
                gen = liealg.generator(ctx, p).scale(a) + liealg.generator(ctx, q)
                if not preserves_ideal(phi, [gen]):
                    return [gen]
    return None


def decide_normal(phi: "_endo.Endomorphism", search_witness: bool = False) -> NormalityVerdict:
    """Full normality decision following the structure theory.

    The linear part must be alpha * I.  For c = 1 any nonzero alpha is
    normal; on L_{2,2} and L_{2,3} normal maps are a scalar times a
    generalized inner automorphism; everywhere else alpha must be 1 and
    the IA part must be generalized inner.
    """
    if not phi.is_automorphism():
        raise DomainError("decide_normal expects an automorphism")
    ctx = phi.ctx
    a = phi.linear_matrix()
    scalar = all(
        a[k][i] == (a[0][0] if k == i else _ZERO)
        for k in range(ctx.m)
        for i in range(ctx.m)
    )
    if not scalar:
        return NormalityVerdict(
            False, witness=_nonscalar_witness(phi), reason="linear part is not scalar"
        )
    alpha = a[0][0]
    if ctx.c == 1:
        return NormalityVerdict(True, NormalAut(alpha, GInnAut.identity(ctx)))
    exceptional = (ctx.m, ctx.c) in ((2, 2), (2, 3))
    if alpha != 1 and not exceptional:
        return NormalityVerdict(
            False,
            witness=_scaling_witness(ctx),
            reason=f"scalar {format_rational(alpha)} != 1 preserves no witness ideal",
        )
    _, chi = _endo.decompose(phi)
    g = recognize_ginn(chi)
    if g is None:
        witness = _search_principal_witness(phi) if search_witness else []
        return NormalityVerdict(
            False, witness=witness, reason="IA part is not generalized inner"
        )
    return NormalityVerdict(True, NormalAut(alpha, g))


def check_law_guard(law: str, ctx: Context):
    """Reject (law, context) pairs outside the proven range."""
    m, c = ctx.m, ctx.c
    if law == "abelian" and c != 2:
        raise UsageError("the abelian law holds for class c = 2 only")
    if law == "nilpotent2" and c != 3:
        raise UsageError("the nilpotent-of-class-2 law holds for class c = 3 only")
    if law == "metabelian" and not (c >= 4 or (m, c) == (2, 2)):
        raise UsageError("the metabelian law needs c >= 4 or (m,c) = (2,2)")
    if law == "class2_by_abelian" and (m, c) != (2, 3):
        raise UsageError("the class-2-by-abelian law is specific to (m,c) = (2,3)")
