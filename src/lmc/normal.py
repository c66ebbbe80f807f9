"""Generalized inner automorphisms, recognition procedures, normality.

A generalized inner automorphism is determined by one parameter vector
(f_1,...,f_m) of polynomials in the ad-operators, acting as

    x_i  ->  x_i + sum_j [x_i, x_j] f_j(ad x_1,...,ad x_m),

with the same f for every generator.  These maps form a group GInn; its
closed-form multiplication and inverse are implemented at
the parameter level and cross-checked against the endomorphism level.

Recognition:
  * ginn_pattern matches a Jacobian against the GInn shape (off-diagonal
    (i,j) equal to -t_j f_i, diagonal sum_{r!=i} t_r f_r): it reads each
    f_i once, by exact division of entry (i, j0) by t_j0 for j0 the first
    index other than i, and the closed-form Jacobian of those parameters
    must then equal the input, which checks every other entry.
    That match is recognize_ginn's one certificate; the psi shape
    predicates of lmc.cosets use ginn_pattern too.
  * inner_params gives exp(ad u) in closed form.  Write u = sum gamma_j x_j
    + w, w derived with module vector W, and s = sum gamma_j t_j.  ad u
    multiplies the derived algebra by s, and sum_j t_j W_j = 0, so exp(ad u)
    is generalized inner with f_k = (gamma_k + W_k) E(s) at cap c-2, where
    E(s) = (e^s - 1)/s = sum s^n/(n+1)!.  inner_generator inverts it without
    a linear solve: gamma_k is the constant term of f_k, W_k = f_k E(s)^-1 -
    gamma_k with E(s)^-1 = s/(e^s - 1) = sum B_n s^n/n!, and the map is inner
    iff the membership test sum_k t_k W_k = 0 holds.  The generator has no
    degree-c (central) part, which makes it unique, and it is returned only
    with the certificate inner_params(u) == g.  recognize_inner applies it
    to the parameters recognize_ginn finds and certifies; endo.exp_ad(u) is
    ginn_to_endo(inner_params(u)), so no bracket is needed.

Ideal preservation is decided from the generators' images.  Let I be the
ideal generated by gens, spanned by the iterated brackets [g, x_j1, ...,
x_jk] with g in gens.  For any endomorphism phi, phi([g, x_j1, ...]) =
[phi g, phi x_j1, ...], which lies in I as soon as phi g does, because I is
an ideal; so phi(gens) in I implies phi(I) in I.  An automorphism is
injective, so then dim phi(I) = dim I and phi(I) = I.  The span of I comes
from liealg.ideal_span, which uses that the derived algebra is a module:
for derived w, [w, x_j] = w t_j, a shift of the packed monomial codes, so
only the generators outside the derived algebra are bracketed.

The ideal of one generator g = sum gamma_j x_j + w outside the derived
algebra (w derived with module vector W) needs no span.  Let U_k = gamma_k
+ W_k be the full coordinates of g and s = sum gamma_j t_j.  [g, x_j] has
module vector U t_j - e_j s, so (g) = Q g + N with N = {U (h.t) - h s}.
phi(g) lies in (g) iff A gamma = beta gamma (A the linear part) and D =
phi(g) - beta g lies in N.  For gamma_q != 0, sigma: t_q -> -(sum_{j != q}
gamma_j t_j)/gamma_q is graded and onto with kernel (s), and sigma(U_q) has
constant term gamma_q, so it is a unit.  Hence D is in N iff sigma(U_q)
sigma(D_k) = sigma(U_k) sigma(D_q) at cap c-1 for every k != q: if D = U
lambda - h s, then sigma(D) = sigma(U) sigma(lambda).  Conversely, lift mu
= sigma(D_q)/sigma(U_q) to lambda; then U lambda - D = h s, and t.U = s
and t.D = 0 at cap c give s lambda = s (h.t), so lambda = h.t.  The
condition for one k != q follows from the others (see
_preserves_principal_ideal).  For linear g, sigma(U_k) = gamma_k.

decide_normal implements the case table: the linear part must be a scalar
alpha; alpha != 1 survives only on L_{m,1}, L_{2,2} and L_{2,3}, and in the
other contexts a scaling is defeated by an explicit witness ideal whose
closure is not preserved.  IA maps are normal exactly when they are
generalized inner.  A normal map (NormalAut) is alpha I after a GInn map
g; its Jacobian alpha J_g(alpha t) is in closed form, and
NormalAut.to_endo is the map endo._from_jacobian builds from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from . import endo as _endo
from . import liealg
from .arith import LinearSubstitution, TruncPoly, _make, format_rational, poly_mac, t_dot, var_code
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


def _ginn_s(g: GInnAut, unit: int = 0):
    """S = J - I of the materialized map, or J = I + S for unit 1: rows i
    and columns j at cap c-1, unit + sum_{r != i} t_r f_r on the diagonal,
    -t_j f_i off it.  Each entry is read off the numerators of the f_i and
    wrapped once: t_j f_i adds the code of t_j to every code of f_i, and
    the diagonal is weight - t_i f_i for weight = sum_r t_r f_r over the
    lcm of the denominators.  An off-diagonal entry shifts the codes of a
    canonical f_i, so it is canonical too and wrapped with no gcd.  S
    satisfies the S-condition by construction."""
    m, cap = g.ctx.m, g.ctx.module_cap
    den = lcm(*(p.den for p in g.f))
    steps = [var_code(m, j) for j in range(1, m + 1)]
    weight = {}
    own = []  # t_i f_i over den
    for p, step in zip(g.f, steps):
        k = den // p.den
        nums = {e + step: c * k for e, c in p.nums.items()}
        for e, c in nums.items():
            weight[e] = weight.get(e, 0) + c
        own.append(nums)
    rows = []
    for i, p in enumerate(g.f):
        row = []
        for j, step in enumerate(steps):
            if i != j:
                row.append(_make(m, cap, {e + step: -c for e, c in p.nums.items()}, p.den))
                continue
            diag = dict(weight)
            for e, c in own[i].items():
                diag[e] -= c
            nums = {e: c for e, c in diag.items() if c}
            if unit:
                nums[0] = unit * den
            row.append(TruncPoly.from_codes(m, cap, nums, den))
        rows.append(row)
    return rows


def ginn_to_endo(g: GInnAut) -> "_endo.Endomorphism":
    """Materialize: x_j -> x_j + sum_k [x_j,x_k] f_k, whose module vector is
    column j of S."""
    ctx = g.ctx
    beta = lambda j: tuple(_ONE if k == j else _ZERO for k in range(ctx.m))
    return _endo.Endomorphism(
        ctx, tuple(LieElement._clean(ctx, beta(j), col) for j, col in enumerate(zip(*_ginn_s(g))))
    )


def ginn_compose(a: GInnAut, b: GInnAut) -> "GInnAut":
    """Parameters of a after b (b applied first): F_k = f_a_k + f_b_k (1 +
    s) with s = sum t_k f_a_k, each one arith.poly_mac."""
    if a.ctx != b.ctx:
        raise ContextMismatch(f"{a.ctx} vs {b.ctx}")
    ctx = a.ctx
    unit = t_dot(a.f, ctx.param_cap) + TruncPoly.const(ctx.m, ctx.param_cap, 1)
    return GInnAut(ctx, tuple(poly_mac(fa, [(fb, unit)]) for fa, fb in zip(a.f, b.f)))


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
    return ginn_sum(u, lambda j: liealg.bracket(u, liealg.generator(g.ctx, j)), g.f)


def ginn_sum(u: LieElement, bracket_with, f) -> LieElement:
    """u + sum_j bracket_with(j) f_j(ad x_1,...,ad x_m) over the 1-based j
    with f_j != 0, bracket_with(j) standing for [u, x_j]: the GInn action
    assembled from given brackets.  On the derived algebra f_j(ad x) is
    multiplication by f_j, so module coordinate k is u's plus the sum of
    the products of the k-th coordinates of the brackets with the f_j, one
    arith.poly_mac per coordinate."""
    ctx = u.ctx
    pairs = [[] for _ in u.mod]  # per module coordinate: (p, f_j), summing p * f_j
    for j, q in enumerate(f, start=1):
        if q.is_zero():
            continue
        w = bracket_with(j)
        if not w.in_derived():
            raise DomainError("ad-polynomial action is defined on the derived algebra only")
        for k, p in enumerate(w.mod):
            if p.nums:
                pairs[k].append((p, q))
    mod = tuple(poly_mac(p, terms) if terms else p for p, terms in zip(u.mod, pairs))
    return LieElement._clean(ctx, u.beta, mod)


def ginn_jacobian(g: GInnAut) -> "_endo.JacobianMatrix":
    """Closed-form Jacobian I + S (see _ginn_s)."""
    return _endo.JacobianMatrix._clean(g.ctx, tuple(map(tuple, _ginn_s(g, unit=1))))


def ginn_pattern(jac: "_endo.JacobianMatrix"):
    """Parameter vector whose closed-form Jacobian is jac, or None.

    f_i is read once, as -(entry (i, j0)) / t_j0 for j0 the first index
    other than i (cap c-2, constants allowed); an entry that t_j0 does not
    divide gives None.  The closed-form Jacobian of f must then equal jac,
    which checks every other off-diagonal entry and the diagonal.
    """
    params = []
    for i, row in enumerate(jac.rows, start=1):
        j0 = 2 if i == 1 else 1
        q = row[j0 - 1].divide_var(j0)
        if q is None:
            return None
        params.append(-q)
    g = GInnAut(jac.ctx, tuple(params))
    return g if ginn_jacobian(g) == jac else None


def recognize_ginn(phi: "_endo.Endomorphism"):
    """Parameter vector f with materialization equal to phi, or None.

    Requires an IA input.  ginn_pattern's match ginn_jacobian(f) == J(phi)
    is the one certificate: the Jacobian is faithful on IA maps.
    """
    if not phi.is_ia():
        raise DomainError("recognize_ginn expects an IA automorphism")
    return ginn_pattern(_endo.jacobian(phi))


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
    """sum_n coeffs[n] s^n by Horner's rule, at the cap of s, each step one
    arith.poly_mac."""
    acc = TruncPoly.const(s.nv, s.cap, coeffs[-1])
    for a in reversed(coeffs[:-1]):
        acc = poly_mac(TruncPoly.const(s.nv, s.cap, a), [(acc, s)])
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
    unique.  u is returned only with its certificate inner_params(u) == g.
    """
    ctx = g.ctx
    cap = ctx.param_cap
    gamma = tuple(p.constant_term() for p in g.f)
    e_inv = _in_s(TruncPoly.linear(ctx.m, cap, gamma), _e_series(cap)[1])
    w = [p * e_inv - TruncPoly.const(ctx.m, cap, c) for p, c in zip(g.f, gamma)]
    if not t_dot(w, ctx.module_cap).is_zero():
        return None
    u = LieElement(ctx, gamma, tuple(p.with_cap(ctx.module_cap) for p in w))
    return u if inner_params(u) == g else None


def recognize_inner(phi: "_endo.Endomorphism"):
    """A generator u with exp_ad(u) = phi exactly, or None.

    recognize_ginn certifies the parameters g of phi, and inner_generator(g)
    certifies u by inner_params(u) == g; exp_ad(u) materializes
    inner_params(u), so it equals phi.
    """
    if not phi.is_ia():
        raise DomainError("recognize_inner expects an IA automorphism")
    g = recognize_ginn(phi)
    return None if g is None else inner_generator(g)


# -- normality ---------------------------------------------------------------------


def scalars_are_normal(ctx: Context) -> bool:
    """True iff a scalar linear map alpha I, alpha != 1, is normal on
    L_{m,c}: for c = 1 and on L_{2,2} and L_{2,3}."""
    return ctx.c == 1 or (ctx.m, ctx.c) in ((2, 2), (2, 3))


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
        if self.alpha != 1 and not scalars_are_normal(ctx):
            raise ValidationError(
                f"alpha != 1 is not normal on L_{{{ctx.m},{ctx.c}}}"
            )

    def to_endo(self) -> "_endo.Endomorphism":
        """The scalar map alpha I after ginn_to_endo(g), built from its
        closed-form Jacobian, which it keeps."""
        return _endo._from_jacobian(self.jacobian())

    def jacobian(self, ginn=None) -> "_endo.JacobianMatrix":
        """J(to_endo()) in closed form from ginn, the ginn_jacobian(g) that
        is built when not given: ginn itself for alpha 1, else alpha
        ginn(alpha t), the chain rule J(alpha I) sigma_(alpha I)(ginn) for
        the scalar map alpha I after ginn_to_endo(g)."""
        jac = ginn_jacobian(self.g) if ginn is None else ginn
        a = self.alpha
        if a == 1:
            return jac
        rows = tuple(tuple(p.dilate(a).scale(a) for p in row) for row in jac.rows)
        return _endo.JacobianMatrix._clean(jac.ctx, rows)


@dataclass
class NormalityVerdict:
    normal: bool
    aut: NormalAut | None = None
    witness: list | None = None  # generators of a non-preserved ideal
    reason: str = ""

    def to_dict(self, element_printer) -> dict:
        out = {"normal": self.normal}
        if self.aut is not None:
            out["alpha"] = format_rational(self.aut.alpha)
            out["f"] = [str(p) for p in self.aut.g.f]
        if self.witness is not None:
            out["witness"] = [element_printer(w) for w in self.witness]
        if self.reason:
            out["reason"] = self.reason
        return out


def preserves_ideal(phi: "_endo.Endomorphism", gens) -> bool:
    """True iff phi maps the ideal I generated by gens onto itself.

    Only the images of the generators are applied: phi(gens) in I gives
    phi(I) in I, and an automorphism is injective, so then phi(I) = I (see
    the module docstring).  A singular linear part falls through to
    comparing the dimension of the span of the images with dim I.  One
    generator g outside the derived algebra, on an automorphism, is decided
    in closed form with no span: A gamma = beta gamma, and sigma(U) is
    proportional to sigma(phi(g) - beta g) (see the module docstring).
    """
    gens = list(gens)
    if any(g.ctx != phi.ctx for g in gens):
        raise ContextMismatch("ideal generators live in a different context")
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return True
    if len(gens) == 1 and not gens[0].in_derived() and phi.is_automorphism():
        return _preserves_principal_ideal(phi, gens[0])
    span = liealg.ideal_span(gens)
    if any(not span.contains(liealg.element_row(phi.apply(g))) for g in gens):
        return False
    if phi.is_automorphism():
        return True
    ctx = phi.ctx
    basis = [liealg.row_element(ctx, row) for row in span.rows.values()]
    return liealg.span_of(phi.apply(w) for w in basis).dim() == span.dim()


def _preserves_principal_ideal(phi: "_endo.Endomorphism", g: LieElement) -> bool:
    """preserves_ideal for an automorphism and one generator g outside the
    derived algebra, in closed form (see the module docstring for U, D, beta
    and sigma).  Where W_k = 0, sigma(U_k) = gamma_k and the product by it
    is a scaling.  Of the conditions E_i = sigma(U_q) sigma(D_i) -
    sigma(U_i) sigma(D_q) = 0, i != q, the one for p = the first index other
    than q is skipped: it follows from the others.  sigma kills s and fixes
    t_p, and the membership conditions sum_i t_i D_i = 0 and sum_i t_i U_i
    = s give sum_i sigma(t_i) E_i = sigma(U_q) sigma(sum_i t_i D_i) -
    sigma(D_q) sigma(s) = 0, where E_q = 0; once E_i = 0 for i != p, q this
    leaves t_p E_p = 0.  D and U have degree at most c-1, so both conditions
    hold untruncated at cap c and sigma keeps degrees; t_p E_p = 0 in the
    polynomial ring, a domain, so E_p = 0."""
    ctx, m, gamma, u = phi.ctx, phi.ctx.m, g.beta, phi.apply(g)
    q = max(k for k in range(m) if gamma[k])
    if any(u.beta[k] * gamma[q] != u.beta[q] * gamma[k] for k in range(m)):
        return False
    p = 1 if q == 0 else 0
    rest = [i for i in range(m) if i not in (p, q)]
    if not rest:
        return True
    cap, beta = ctx.module_cap, u.beta[q] / gamma[q]
    forms = [[_ONE if j == k else _ZERO for j in range(m)] for k in range(m)]
    forms[q] = [_ZERO if j == q else -gamma[j] / gamma[q] for j in range(m)]
    sub = LinearSubstitution(m, cap, forms)

    def unit_and_d(k):  # sigma(U_k), a Fraction where W_k = 0, and sigma(D_k)
        w, d = g.mod[k], sub(u.mod[k])
        if not w.nums:
            return gamma[k], d
        w = sub(w)
        return w + TruncPoly.const(m, cap, gamma[k]), d - w.scale(beta)

    times = lambda a, b: a * b if isinstance(a, TruncPoly) else b.scale(a)
    u_q, d_q = unit_and_d(q)
    return all(times(u_q, d_i) == times(u_i, d_q) for u_i, d_i in map(unit_and_d, rest))


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
    alpha = phi.scalar()
    if alpha is None:
        return NormalityVerdict(
            False, witness=_nonscalar_witness(phi), reason="linear part is not scalar"
        )
    if ctx.c == 1:
        return NormalityVerdict(True, NormalAut(alpha, GInnAut.identity(ctx)))
    if alpha != 1 and not scalars_are_normal(ctx):
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
