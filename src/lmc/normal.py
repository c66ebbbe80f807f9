"""Generalized inner automorphisms, recognition procedures, normality.

A generalized inner automorphism is determined by one parameter vector
(f_1,...,f_m) of polynomials in the ad-operators, acting as

    x_i  ->  x_i + sum_j [x_i, x_j] f_j(ad x_1,...,ad x_m),

with the same f for every generator.  These maps form a group GInn; its
closed-form multiplication and inverse are implemented at
the parameter level and cross-checked against the endomorphism level.

Recognition:
  * ginn_pattern matches a Jacobian against the GInn shape (off-diagonal
    (i,j) equal to -t_j f_i, diagonal sum_{r!=i} t_r f_r) using exact
    variable division; recognize_ginn and the psi shape predicates of
    lmc.cosets use it, and recognize_ginn certifies by re-materialization.
  * inner_params gives exp(ad u) in closed form.  Write u = sum gamma_j x_j
    + w, w derived with module vector W, and s = sum gamma_j t_j.  ad u
    multiplies the derived algebra by s, and sum_j t_j W_j = 0, so exp(ad u)
    is generalized inner with f_k = (gamma_k + W_k) E(s) at cap c-2, where
    E(s) = (e^s - 1)/s = sum s^n/(n+1)!.  inner_generator inverts it without
    a linear solve: gamma_k is the constant term of f_k, W_k = f_k E(s)^-1 -
    gamma_k with E(s)^-1 = s/(e^s - 1) = sum B_n s^n/n!, and the map is inner
    iff the membership test sum_k t_k W_k = 0 holds.  The generator has no
    degree-c (central) part, which makes it unique.  recognize_inner applies
    it to the parameters recognize_ginn finds and certifies the generator by
    exp_ad(u) == phi.

Ideal preservation is decided from the generators' images.  Let I be the
ideal generated by gens, spanned by the iterated brackets [g, x_j1, ...,
x_jk] with g in gens.  For any endomorphism phi, phi([g, x_j1, ...]) =
[phi g, phi x_j1, ...], which lies in I as soon as phi g does, because I is
an ideal; so phi(gens) in I implies phi(I) in I.  An automorphism is
injective, so then dim phi(I) = dim I and phi(I) = I.  The span of I comes
from liealg.ideal_span, which uses that the derived algebra is a module:
for derived w, [w, x_j] = w t_j, a shift of the packed monomial codes, so
only the generators outside the derived algebra are bracketed.

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
from functools import lru_cache
from math import factorial

from . import endo as _endo
from . import liealg
from .arith import TruncPoly, format_rational, t_dot
from .errors import ContextMismatch, DomainError, UsageError, ValidationError
from .liealg import Context, LieElement

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


def ginn_to_endo(g: GInnAut) -> "_endo.Endomorphism":
    """Materialize: x_i -> x_i + sum_j [x_i,x_j] f_j."""
    ctx = g.ctx
    cap = ctx.module_cap
    f_full = [p.with_cap(cap) for p in g.f]
    weight = t_dot(f_full, cap)
    images = []
    for i in range(1, ctx.m + 1):
        diag = weight - f_full[i - 1].mul_var(i)
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
    s = t_dot(a.f, a.ctx.param_cap)
    f = tuple(
        fa + fb + fb * s for fa, fb in zip(a.f, b.f)
    )
    return GInnAut(a.ctx, f)


def ginn_invert(g: GInnAut) -> "GInnAut":
    """Inverse inside GInn in closed form.  ginn_compose(g, h) = f + h (1 +
    s) with s = sum t_k f_k, which vanishes for h = -f (1 + s)^-1 = -f sum_n
    (-s)^n; s has no constant term, so the series ends at the cap."""
    cap = g.ctx.param_cap
    series = _in_s(t_dot(g.f, cap), [(-1) ** n for n in range(cap + 1)])
    return GInnAut(g.ctx, tuple(-(p * series) for p in g.f))


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
    one_plus_weight = TruncPoly.const(ctx.m, cap, 1) + t_dot(f_full, cap)
    rows = []
    for i in range(1, ctx.m + 1):
        row = []
        for j in range(1, ctx.m + 1):
            if i == j:
                row.append(one_plus_weight - f_full[i - 1].mul_var(i))
            else:
                row.append(-f_full[i - 1].mul_var(j))
        rows.append(tuple(row))
    return _endo.JacobianMatrix(ctx, tuple(rows))


def ginn_pattern(jac: "_endo.JacobianMatrix"):
    """Parameter vector whose closed-form Jacobian is jac, or None.

    Each off-diagonal entry (i, j) must be divisible by t_j with quotient
    -f_i independent of j (cap c-2, constants allowed), and the diagonal
    must reproduce sum_{r != i} t_r f_r.
    """
    ctx = jac.ctx
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
    return g


def recognize_ginn(phi: "_endo.Endomorphism"):
    """Parameter vector f with materialization equal to phi, or None.

    Requires an IA input.  The Jacobian is matched against the GInn
    pattern (ginn_pattern), and the result is certified by
    re-materialization.
    """
    if not phi.is_ia():
        raise DomainError("recognize_ginn expects an IA automorphism")
    g = ginn_pattern(_endo.jacobian(phi))
    if g is None:
        return None
    if ginn_to_endo(g) != phi:
        return None  # unreachable when the Jacobian matches
    return g


@lru_cache(maxsize=None)
def _e_series(cap: int):
    """Coefficients up to x^cap of E(x) = (e^x - 1)/x = sum x^n/(n+1)! and of
    E(x)^-1 = x/(e^x - 1) = sum B_n x^n/n!, the latter by inverting the
    series term by term."""
    e = [Fraction(1, factorial(n + 1)) for n in range(cap + 1)]
    inv = [_ONE]
    for n in range(1, cap + 1):
        inv.append(-sum(e[k] * inv[n - k] for k in range(1, n + 1)))
    return tuple(e), tuple(inv)


def _in_s(s: TruncPoly, coeffs) -> TruncPoly:
    """sum_n coeffs[n] s^n by Horner's rule, at the cap of s."""
    acc = TruncPoly.const(s.nv, s.cap, coeffs[-1])
    for a in reversed(coeffs[:-1]):
        acc = acc * s + TruncPoly.const(s.nv, s.cap, a)
    return acc


def inner_params(u: LieElement) -> GInnAut:
    """Parameters of exp(ad u): f_k = (gamma_k + W_k) E(s) at cap c-2, for
    u = sum gamma_j x_j + w with module vector W and s = sum gamma_j t_j
    (see the module docstring)."""
    ctx = u.ctx
    if ctx.c == 1:
        return GInnAut.identity(ctx)  # the cap c-2 is negative: exp(ad u) = id
    cap = ctx.param_cap
    e = _in_s(TruncPoly.linear(ctx.m, cap, u.beta), _e_series(cap)[0])
    f = tuple(
        (w.with_cap(cap) + TruncPoly.const(ctx.m, cap, gamma)) * e
        for gamma, w in zip(u.beta, u.mod)
    )
    return GInnAut(ctx, f)


# Always empty: the benchmark tracer reports its length as ad_solver.builds.
_AD_SOLVERS: dict = {}


def inner_generator(g: GInnAut):
    """The generator u of the inner automorphism with parameters g, or None
    if g is not inner; inverts inner_params in closed form.

    gamma_k is the constant term of f_k, W_k = f_k E(s)^-1 - gamma_k, and g
    is inner iff sum_k t_k W_k = 0.  u has no degree-c part, so it is
    unique.
    """
    ctx = g.ctx
    cap = ctx.param_cap
    gamma = tuple(p.constant_term() for p in g.f)
    e_inv = _in_s(TruncPoly.linear(ctx.m, cap, gamma), _e_series(cap)[1])
    w = [p * e_inv - TruncPoly.const(ctx.m, cap, c) for p, c in zip(g.f, gamma)]
    if not t_dot(w, ctx.module_cap).is_zero():
        return None
    return LieElement(ctx, gamma, tuple(p.with_cap(ctx.module_cap) for p in w))


def recognize_inner(phi: "_endo.Endomorphism"):
    """A generator u with exp_ad(u) = phi exactly, or None.

    Applies inner_generator to the generalized-inner parameters of phi;
    u is returned only if exp_ad(u) reproduces phi.
    """
    if not phi.is_ia():
        raise DomainError("recognize_inner expects an IA automorphism")
    g = recognize_ginn(phi)
    if g is None:
        return None
    u = inner_generator(g)
    return u if u is not None and _endo.exp_ad(u) == phi else None


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
    """True iff phi maps the ideal I generated by gens onto itself.

    Only the images of the generators are applied: phi(gens) in I gives
    phi(I) in I, and an automorphism is injective, so then phi(I) = I (see
    the module docstring).  A singular linear part falls through to
    comparing the dimension of the span of the images with dim I.
    """
    gens = list(gens)
    if any(g.ctx != phi.ctx for g in gens):
        raise ContextMismatch("ideal generators live in a different context")
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return True
    span = liealg.ideal_span(gens)
    if any(not span.contains(liealg.element_row(phi.apply(g))) for g in gens):
        return False
    if phi.is_automorphism():
        return True
    ctx = phi.ctx
    basis = [liealg.row_element(ctx, row) for row in span.rows.values()]
    return liealg.span_of(phi.apply(w) for w in basis).dim() == span.dim()


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
