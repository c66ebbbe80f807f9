"""The free metabelian nilpotent Lie algebra L_{m,c} in wreath coordinates.

An element is stored as (beta, module): beta gives the coefficients of the
generators x_1..x_m, and module[i] is the coefficient polynomial of a_i in
the wreath-product embedding, with the constant part beta_i kept separately.
Under the embedding x_i -> a_i + b_i the derived algebra becomes a module
over the truncated polynomial ring, and the bracket reduces to polynomial
multiplication:

    [sum a_i F_i + sum beta_i b_i, sum a_i G_i + sum gamma_i b_i]
        = sum a_i (F_i * sum gamma_j t_j  -  G_i * sum beta_j t_j).

Module polynomials live at cap c-1; membership of the commutator part in
the embedded algebra is the condition sum_i t_i * module[i] = 0 checked
with one extra degree of headroom (cap c).

Commutators are left normed: [u1,...,un] = [[u1,...,u_{n-1}],un].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

from .arith import TruncPoly, t_dot
from .errors import ContextMismatch, DomainError, ValidationError
from .linalg import SparseSolver, SpanBasis

# When set (the test suite turns it on), every constructed element is
# checked against the zero-constant and membership invariants.
CHECK_INVARIANTS = False

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class Context:
    """Number of generators m >= 2 and nilpotency class c >= 1."""

    m: int
    c: int

    def __post_init__(self):
        if self.m < 2:
            raise DomainError(f"rank m must be >= 2, got {self.m}")
        if self.c < 1:
            raise DomainError(f"class c must be >= 1, got {self.c}")

    @property
    def module_cap(self) -> int:
        """Cap of stored module and Jacobian polynomials."""
        return self.c - 1

    @property
    def param_cap(self) -> int:
        """Cap of generalized-inner parameter polynomials."""
        return max(self.c - 2, 0)

    def zero_poly(self) -> TruncPoly:
        return TruncPoly.zero(self.m, self.module_cap)


class LieElement:
    """Element of L_{m,c}: generator coefficients plus module coordinates."""

    __slots__ = ("ctx", "beta", "mod")

    def __init__(self, ctx: Context, beta, mod):
        beta = tuple(b if type(b) is Fraction else Fraction(b) for b in beta)
        mod = tuple(mod)
        if len(beta) != ctx.m or len(mod) != ctx.m:
            raise ValidationError(f"need {ctx.m} coordinates")
        for p in mod:
            if p.nv != ctx.m or p.cap != ctx.module_cap:
                raise ValidationError(
                    f"module polynomials must have {ctx.m} vars and cap {ctx.module_cap}"
                )
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "mod", mod)
        if CHECK_INVARIANTS:
            validate_element(self)

    def __setattr__(self, name, value):
        raise AttributeError("LieElement is immutable")

    # -- vector-space operations -------------------------------------------

    def _check(self, other: "LieElement"):
        if self.ctx != other.ctx:
            raise ContextMismatch(f"{self.ctx} vs {other.ctx}")

    def __add__(self, other: "LieElement") -> "LieElement":
        self._check(other)
        return LieElement(
            self.ctx,
            tuple(a + b for a, b in zip(self.beta, other.beta)),
            tuple(p + q for p, q in zip(self.mod, other.mod)),
        )

    def __sub__(self, other: "LieElement") -> "LieElement":
        self._check(other)
        return LieElement(
            self.ctx,
            tuple(a - b for a, b in zip(self.beta, other.beta)),
            tuple(p - q for p, q in zip(self.mod, other.mod)),
        )

    def __neg__(self) -> "LieElement":
        return LieElement(
            self.ctx, tuple(-b for b in self.beta), tuple(-p for p in self.mod)
        )

    def scale(self, s) -> "LieElement":
        s = Fraction(s)
        return LieElement(
            self.ctx,
            tuple(s * b for b in self.beta),
            tuple(p.scale(s) for p in self.mod),
        )

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return all(not b for b in self.beta) and all(p.is_zero() for p in self.mod)

    def in_derived(self) -> bool:
        return all(not b for b in self.beta)

    def full_poly(self, i: int) -> TruncPoly:
        """Coefficient of a_i in the embedding: beta_i + module[i] (1-based)."""
        p = self.mod[i - 1]
        b = self.beta[i - 1]
        if not b:
            return p
        return p + TruncPoly.const(self.ctx.m, self.ctx.module_cap, b)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LieElement):
            return NotImplemented
        return (
            self.ctx == other.ctx and self.beta == other.beta and self.mod == other.mod
        )

    def __hash__(self):
        return hash((self.ctx, self.beta, self.mod))

    def __repr__(self):
        mods = ", ".join(str(p) for p in self.mod)
        return f"LieElement(m={self.ctx.m}, c={self.ctx.c}, beta={self.beta}, mod=({mods}))"


def zero(ctx: Context) -> LieElement:
    zp = ctx.zero_poly()
    return LieElement(ctx, (_ZERO,) * ctx.m, (zp,) * ctx.m)


def generator(ctx: Context, i: int) -> LieElement:
    """The free generator x_i, 1-based."""
    if not 1 <= i <= ctx.m:
        raise DomainError(f"generator index {i} out of range 1..{ctx.m}")
    beta = tuple(_ONE if k == i - 1 else _ZERO for k in range(ctx.m))
    zp = ctx.zero_poly()
    return LieElement(ctx, beta, (zp,) * ctx.m)


def bracket(u: LieElement, v: LieElement) -> LieElement:
    """Lie bracket [u, v].

    The module part of each factor enters only against the linear form of
    the other's generator part, so a factor in the derived algebra
    contributes one product per nonzero coordinate and [derived, derived] =
    0 (the algebra is metabelian)."""
    u._check(v)
    ctx = u.ctx
    m, cap = ctx.m, ctx.module_cap
    u_linear = any(u.beta)
    v_linear = any(v.beta)
    if u_linear and v_linear:
        s_u = TruncPoly.linear(m, cap, u.beta)
        s_v = TruncPoly.linear(m, cap, v.beta)
        mod = tuple(
            _times(u.full_poly(i), s_v) - _times(v.full_poly(i), s_u) for i in range(1, m + 1)
        )
    elif v_linear:
        s_v = TruncPoly.linear(m, cap, v.beta)
        mod = tuple(_times(p, s_v) for p in u.mod)
    elif u_linear:
        s_u = TruncPoly.linear(m, cap, u.beta)
        mod = tuple(-_times(p, s_u) for p in v.mod)
    else:
        return zero(ctx)
    return LieElement(ctx, (_ZERO,) * m, mod)


def _times(p: TruncPoly, s: TruncPoly) -> TruncPoly:
    """p * s, passing a zero p through without a product."""
    return p if p.is_zero() else p * s


def bracket_chain(*elements: LieElement) -> LieElement:
    """Left-normed bracket [u1,...,un]."""
    if len(elements) < 2:
        raise DomainError("bracket needs at least two arguments")
    acc = elements[0]
    for v in elements[1:]:
        acc = bracket(acc, v)
    return acc


def ad_polynomial_action(w: LieElement, p: TruncPoly) -> LieElement:
    """w * p(ad x_1,...,ad x_m) for w in the derived algebra."""
    if not w.in_derived():
        raise DomainError("ad-polynomial action is defined on the derived algebra only")
    ctx = w.ctx
    if p.nv != ctx.m:
        raise ContextMismatch(f"polynomial has {p.nv} vars, context has {ctx.m}")
    q = p.with_cap(ctx.module_cap)
    return LieElement(ctx, w.beta, tuple(g * q for g in w.mod))


def membership_defect(u: LieElement) -> TruncPoly:
    """sum_i t_i * module[i] computed at cap c; zero iff u is well formed."""
    return t_dot(u.mod, u.ctx.c)


def validate_element(u: LieElement):
    for i, p in enumerate(u.mod):
        if p.constant_term():
            raise ValidationError(f"module[{i + 1}] has a nonzero constant term")
    if not membership_defect(u).is_zero():
        raise ValidationError("module coordinates violate the membership condition")


# -- left-normed basis ---------------------------------------------------------


@dataclass
class BasisForm:
    """Coordinates over the left-normed basis: linear part plus commutator
    tuples (i1,...,ik) with i1 > i2 <= i3 <= ... <= ik, 2 <= k <= c."""

    ctx: Context
    linear: tuple
    comm: dict

    def __post_init__(self):
        self.linear = tuple(Fraction(b) for b in self.linear)
        if len(self.linear) != self.ctx.m:
            raise ValidationError(f"need {self.ctx.m} linear coordinates")
        clean = {}
        for tup, coeff in self.comm.items():
            tup = tuple(int(i) for i in tup)
            _validate_tuple(self.ctx, tup)
            coeff = Fraction(coeff)
            if coeff:
                clean[tup] = coeff
        self.comm = clean

    def __eq__(self, other):
        if not isinstance(other, BasisForm):
            return NotImplemented
        return (
            self.ctx == other.ctx
            and self.linear == other.linear
            and self.comm == other.comm
        )


def _validate_tuple(ctx: Context, tup):
    k = len(tup)
    if not 2 <= k <= ctx.c:
        raise ValidationError(f"tuple {tup} has degree {k}, allowed 2..{ctx.c}")
    if any(not 1 <= i <= ctx.m for i in tup):
        raise ValidationError(f"tuple {tup} has indices outside 1..{ctx.m}")
    if not (tup[0] > tup[1] and all(tup[r] <= tup[r + 1] for r in range(1, k - 1))):
        raise ValidationError(f"tuple {tup} violates i1 > i2 <= i3 <= ... <= ik")


@lru_cache(maxsize=None)
def _tuples(m: int, k: int):
    out = []
    for i2 in range(1, m + 1):
        for i1 in range(i2 + 1, m + 1):
            for rest in combinations_with_replacement(range(i2, m + 1), k - 2):
                out.append((i1, i2) + rest)
    out.sort()
    return tuple(out)


def enumerate_basis(ctx: Context, k: int | None = None):
    """Basis tuples of degree k (generators as 1-tuples for k=1); all
    degrees 1..c in ascending order when k is omitted."""
    if k is None:
        out = []
        for kk in range(1, ctx.c + 1):
            out.extend(enumerate_basis(ctx, kk))
        return out
    if not 1 <= k <= ctx.c:
        raise DomainError(f"degree {k} outside 1..{ctx.c}")
    if k == 1:
        return [(i,) for i in range(1, ctx.m + 1)]
    return list(_tuples(ctx.m, k))


def degree_dim_formula(ctx: Context, k: int) -> int:
    """(k-1) * C(m+k-2, k), the dimension of the degree-k component."""
    return (k - 1) * math.comb(ctx.m + k - 2, k)


def algebra_dim(ctx: Context) -> int:
    return ctx.m + sum(degree_dim_formula(ctx, k) for k in range(2, ctx.c + 1))


def _tuple_module_terms(ctx: Context, tup, coeff):
    """Module term contributions of coeff * [x_{i1},...,x_{ik}]."""
    i1, i2 = tup[0], tup[1]
    base = [0] * ctx.m
    for r in tup[2:]:
        base[r - 1] += 1
    e1 = list(base)
    e1[i2 - 1] += 1
    e2 = list(base)
    e2[i1 - 1] += 1
    return (i1, tuple(e1), coeff), (i2, tuple(e2), -coeff)


def from_basis(b: BasisForm) -> LieElement:
    """Image of the basis coordinates under the wreath embedding."""
    ctx = b.ctx
    mods = [{} for _ in range(ctx.m)]
    for tup, coeff in b.comm.items():
        for i, e, c in _tuple_module_terms(ctx, tup, coeff):
            d = mods[i - 1]
            cur = d.get(e, _ZERO) + c
            if cur:
                d[e] = cur
            elif e in d:
                del d[e]
    mod = tuple(TruncPoly(ctx.m, ctx.module_cap, d) for d in mods)
    return LieElement(ctx, b.linear, mod)


@lru_cache(maxsize=None)
def _basis_solver(ctx: Context, k: int) -> SparseSolver:
    cols = []
    for tup in _tuples(ctx.m, k):
        (i1, e1, c1), (i2, e2, c2) = _tuple_module_terms(ctx, tup, 1)
        cols.append({(i1, e1): c1, (i2, e2): c2})
    return SparseSolver(cols)


def to_basis(u: LieElement) -> BasisForm:
    """Unique left-normed basis coordinates; inverse of from_basis."""
    ctx = u.ctx
    by_degree = {}
    for i in range(1, ctx.m + 1):
        for e, c in u.mod[i - 1].items():
            by_degree.setdefault(sum(e) + 1, {})[(i, e)] = c
    comm = {}
    for k, rhs in by_degree.items():
        if k < 2 or k > ctx.c:
            raise ValidationError(f"module carries an impossible degree {k}")
        coeffs = _basis_solver(ctx, k).solve(rhs)
        if coeffs is None:
            raise ValidationError(
                "element is not in the embedded algebra (membership violated)"
            )
        for tup, coeff in zip(_tuples(ctx.m, k), coeffs):
            if coeff:
                comm[tup] = coeff
    return BasisForm(ctx, u.beta, comm)


# -- coordinate vectors and ideals ---------------------------------------------

# Sparse coordinate keys: (0, i, ()) for the beta part, (1, i, exps) for the
# module part; homogeneous tuples so they sort cleanly inside the solvers.


def element_vector(u: LieElement) -> dict:
    vec = {}
    for i, b in enumerate(u.beta, start=1):
        if b:
            vec[(0, i, ())] = b
    for i, p in enumerate(u.mod, start=1):
        for e, c in p.items():
            vec[(1, i, e)] = c
    return vec


def vector_to_element(ctx: Context, vec: dict) -> LieElement:
    beta = [_ZERO] * ctx.m
    mods = [{} for _ in range(ctx.m)]
    for (kind, i, e), c in vec.items():
        if kind == 0:
            beta[i - 1] = c
        else:
            mods[i - 1][e] = c
    mod = tuple(TruncPoly(ctx.m, ctx.module_cap, d) for d in mods)
    return LieElement(ctx, tuple(beta), mod)


def ideal_closure(gens) -> list:
    """Linear basis of the smallest ideal containing the given elements."""
    gens = list(gens)
    if not gens:
        raise DomainError("ideal_closure needs at least one generator")
    ctx = gens[0].ctx
    xs = [generator(ctx, j) for j in range(1, ctx.m + 1)]
    span = SpanBasis()
    basis = []
    queue = []
    for g in gens:
        g._check(gens[0])
        if span.add(element_vector(g)):
            basis.append(g)
            queue.append(g)
    while queue:
        w = queue.pop()
        for xj in xs:
            b = bracket(w, xj)
            if not b.is_zero() and span.add(element_vector(b)):
                basis.append(b)
                queue.append(b)
    return basis


def span_of(elements) -> SpanBasis:
    span = SpanBasis()
    for u in elements:
        span.add(element_vector(u))
    return span
