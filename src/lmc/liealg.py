"""The free metabelian nilpotent Lie algebra L_{m,c} in wreath coordinates.

An element is stored as (beta, module): beta gives the coefficients of the
generators x_1..x_m, and module[i] is the coefficient polynomial of a_i in
the wreath-product embedding, with the constant part beta_i kept separately.
Under the embedding x_i -> a_i + b_i the derived algebra becomes a module
over the truncated polynomial ring, and the bracket reduces to polynomial
multiplication:

    [sum a_i F_i + sum beta_i b_i, sum a_i G_i + sum gamma_i b_i]
        = sum a_i (F_i * sum gamma_j t_j  -  G_i * sum beta_j t_j).

F_i = beta_i + module[i] is the full coefficient of a_i.  Each coordinate
is one pass over numerators on one common denominator, arith._impl.pmac:
the products of module[i] and of beta_i with the codes of the other
factor's linear form, whose one code for a generator makes them shifts.
A derived factor has no linear form, so [derived, derived] = 0: the
algebra is metabelian.

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

from .arith import FIELD_BITS, TruncPoly, _impl, code_limit, t_dot, var_code
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
        self._fill(ctx, beta, mod)

    @classmethod
    def _clean(cls, ctx: Context, beta: tuple, mod: tuple) -> "LieElement":
        """A LieElement of coordinates already as __init__ leaves them (m
        Fractions; a tuple of m TruncPoly in m variables at cap c-1),
        checked again only under CHECK_INVARIANTS."""
        return object.__new__(cls)._fill(ctx, beta, mod)

    def _fill(self, ctx, beta, mod) -> "LieElement":
        _set_ctx(self, ctx)
        _set_beta(self, beta)
        _set_mod(self, mod)
        if CHECK_INVARIANTS:
            validate_element(self)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("LieElement is immutable")

    # -- vector-space operations -------------------------------------------

    def _check(self, other: "LieElement"):
        if self.ctx != other.ctx:
            raise ContextMismatch(f"{self.ctx} vs {other.ctx}")

    def __add__(self, other: "LieElement") -> "LieElement":
        self._check(other)
        return LieElement._clean(
            self.ctx,
            tuple(a + b for a, b in zip(self.beta, other.beta)),
            tuple(p + q for p, q in zip(self.mod, other.mod)),
        )

    def __sub__(self, other: "LieElement") -> "LieElement":
        self._check(other)
        return LieElement._clean(
            self.ctx,
            tuple(a - b for a, b in zip(self.beta, other.beta)),
            tuple(p - q for p, q in zip(self.mod, other.mod)),
        )

    def __neg__(self) -> "LieElement":
        return LieElement._clean(
            self.ctx, tuple(-b for b in self.beta), tuple(-p for p in self.mod)
        )

    def scale(self, s) -> "LieElement":
        s = Fraction(s)
        return LieElement._clean(
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


_set_ctx, _set_beta, _set_mod = (LieElement.__dict__[name].__set__ for name in LieElement.__slots__)


def zero(ctx: Context) -> LieElement:
    zp = ctx.zero_poly()
    return LieElement._clean(ctx, (_ZERO,) * ctx.m, (zp,) * ctx.m)


def generator(ctx: Context, i: int) -> LieElement:
    """The free generator x_i, 1-based."""
    if not 1 <= i <= ctx.m:
        raise DomainError(f"generator index {i} out of range 1..{ctx.m}")
    beta = tuple(_ONE if k == i - 1 else _ZERO for k in range(ctx.m))
    zp = ctx.zero_poly()
    return LieElement._clean(ctx, beta, (zp,) * ctx.m)


def bracket(u: LieElement, v: LieElement) -> LieElement:
    """Lie bracket [u, v]: module coordinate i is F_i s_v - G_i s_u, one
    arith._impl.pmac pass (see the module docstring)."""
    u._check(v)
    ctx = u.ctx
    m, cap = ctx.m, ctx.module_cap
    forms = [(u, TruncPoly.linear(m, cap, v.beta)), (v, -TruncPoly.linear(m, cap, u.beta))]
    forms = [(w, s.nums, s.den) for w, s in forms if s.nums]
    if not forms:
        return zero(ctx)
    lim, zp = code_limit(m, cap), ctx.zero_poly()
    mod = []
    for i in range(m):
        pairs = []  # (numerators, linear numerators, denominator of their product)
        for w, s, ds in forms:
            p, b = w.mod[i], w.beta[i]
            if p.nums:
                pairs.append((p.nums, s, p.den * ds))
            if b:
                pairs.append(({0: b.numerator}, s, b.denominator * ds))
        den = math.lcm(*(d for _, _, d in pairs))
        pairs = [
            (p, s if d == den else {e: c * (den // d) for e, c in s.items()}) for p, s, d in pairs
        ]
        mod.append(TruncPoly.from_codes(m, cap, _impl.pmac({}, pairs, lim), den) if pairs else zp)
    return LieElement._clean(ctx, (_ZERO,) * m, tuple(mod))


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
        terms = _basis_terms(self.ctx.m, self.ctx.c)
        clean = {}
        for tup, coeff in self.comm.items():
            found = terms.get(tup)
            if found is None:
                tup = _int_indices(self.ctx, tup)
                _validate_tuple(self.ctx, tup)
            else:
                tup = found[0]  # the int tuple, also for an equal key like (2.0, 1.0)
            if type(coeff) is not Fraction:
                coeff = Fraction(coeff)
            if coeff:
                clean[tup] = coeff
        self.comm = clean

    @classmethod
    def _clean(cls, ctx: Context, linear: tuple, comm: dict) -> "BasisForm":
        """A BasisForm of coordinates already as __post_init__ leaves them
        (m Fractions; basis tuples of ints to nonzero Fractions), not
        validated again."""
        form = object.__new__(cls)
        form.ctx, form.linear, form.comm = ctx, linear, comm
        return form


def _int_indices(ctx: Context, tup) -> tuple:
    """tup with each index as an int; a key that is not a tuple, or an
    index that does not equal its int(), such as 2.5 or '2', lies outside
    1..m."""
    if not isinstance(tup, tuple):
        raise ValidationError(f"tuple {tup} has indices outside 1..{ctx.m}")
    out = []
    for i in tup:
        try:
            k = int(i)
        except (TypeError, ValueError, OverflowError):
            k = None
        if k is None or k != i:
            raise ValidationError(f"tuple {tup} has indices outside 1..{ctx.m}")
        out.append(k)
    return tuple(out)


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


def algebra_dim(ctx: Context, bound: int | None = None) -> int:
    """Dimension of L_{m,c}.  With a bound, the sum over degrees stops at
    the first partial sum past it, which is returned, so the call is cheap
    on contexts of any size."""
    total = ctx.m
    for k in range(2, ctx.c + 1):
        if bound is not None and total > bound:
            break
        total += degree_dim_formula(ctx, k)
    return total


def _tuple_codes(m: int, tup):
    """The module terms of [x_i1, x_i2, ..., x_ik] (i1 != i2): t_i2 t_i3...t_ik
    in a_i1 and minus t_i1 t_i3...t_ik in a_i2, as (i1 - 1, code1, i2 - 1,
    code2).  The code of a monomial is the sum of the var_codes of its
    variables."""
    i1, i2 = tup[0], tup[1]
    base = sum(var_code(m, r) for r in tup[2:])
    return i1 - 1, base + var_code(m, i2), i2 - 1, base + var_code(m, i1)


@lru_cache(maxsize=None)
def _basis_terms(m: int, c: int) -> dict:
    """{t: (t, *_tuple_codes(m, t))} over the basis tuples t of degrees
    2..c, in the order of enumerate_basis.  A key equal to t, such as
    (2.0, 1.0), finds t with its int entries."""
    return {t: (t, *_tuple_codes(m, t)) for k in range(2, c + 1) for t in _tuples(m, k)}


def from_basis(b: BasisForm) -> LieElement:
    """Image of the basis coordinates under the wreath embedding: the
    integer numerators of the coefficients over their common denominator,
    summed into each module coordinate at the codes of _tuple_codes."""
    ctx = b.ctx
    terms = _basis_terms(ctx.m, ctx.c)
    den = math.lcm(*(c.denominator for c in b.comm.values()))
    mods = [{} for _ in range(ctx.m)]
    for tup, coeff in b.comm.items():
        found = terms.get(tup)
        if found is None:  # a key set after BasisForm validated its own
            raise ValidationError(f"tuple {tup} is not a basis tuple of degree 2..{ctx.c}")
        _, i1, code1, i2, code2 = found
        n = coeff.numerator * (den // coeff.denominator)
        for d, code, v in ((mods[i1], code1, n), (mods[i2], code2, -n)):
            v += d.get(code, 0)
            if v:
                d[code] = v
            else:
                d.pop(code, None)
    mod = tuple(TruncPoly.from_codes(ctx.m, ctx.module_cap, d, den) for d in mods)
    return LieElement(ctx, b.linear, mod)


@lru_cache(maxsize=None)
def _leading_tuples(m: int, c: int) -> dict:
    """{(i1 - 1, code1): (t, i2 - 1, code2)} over the basis tuples t of
    degrees 2..c (_tuple_codes).  The leading term t_i2 t_i3...t_ik of a_i1
    is the one term of any tuple whose lowest variable comes before i1."""
    terms = _basis_terms(m, c).values()
    return {(i1, code1): (t, i2, code2) for t, i1, code1, i2, code2 in terms}


@lru_cache(maxsize=None)
def _basis_solver(ctx: Context, k: int) -> SparseSolver:
    cols = []
    for tup in _tuples(ctx.m, k):
        i1, code1, i2, code2 = _tuple_codes(ctx.m, tup)
        cols.append({(i1, code1): 1, (i2, code2): -1})
    return SparseSolver(cols)


def to_basis(u: LieElement) -> BasisForm:
    """Unique left-normed basis coordinates; inverse of from_basis.  Each
    leading term (_leading_tuples) is its tuple's coordinate; their second
    terms must cancel the others, degree by degree in storage order."""
    ctx = u.ctx
    lead = _leading_tuples(ctx.m, ctx.c)
    den = math.lcm(*(p.den for p in u.mod))
    comm, residue = {}, {}
    for i, p in enumerate(u.mod):
        f = den // p.den
        for code, n in p.nums.items():
            tup, i2, code2 = lead.get((i, code), (None, i, code))
            if tup is not None:
                comm[tup] = Fraction(n * f, den)
            residue[i2, code2] = residue.get((i2, code2), 0) + n * f
    top = FIELD_BITS * ctx.m  # a code's total degree sits above this bit
    bad = {code >> top for (_, code), n in residue.items() if n}
    if bad:
        if not next(code >> top for p in u.mod for code in p.nums if code >> top in bad):
            raise ValidationError("module carries an impossible degree 1")
        raise ValidationError("element is not in the embedded algebra (membership violated)")
    return BasisForm._clean(ctx, u.beta, comm)  # keys from _leading_tuples, values nonzero


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


# Integer rows: an element scaled to integers, keyed -i for beta_i and
# code*m + (i-1) for the term t^code of module[i].  The key of a module
# term moves with its code, so multiplying module coordinates by t_j adds
# var_code(m, j)*m to every key.


def element_row(u: LieElement) -> dict:
    """An integer row {key: nonzero int} proportional to u (see above)."""
    m = u.ctx.m
    den = math.lcm(*(b.denominator for b in u.beta), *(p.den for p in u.mod))
    row = {}
    for i, b in enumerate(u.beta, start=1):
        if b:
            row[-i] = b.numerator * (den // b.denominator)
    for i, p in enumerate(u.mod):
        f = den // p.den
        for code, c in p.nums.items():
            row[code * m + i] = c * f
    return row


def row_element(ctx: Context, row: dict) -> LieElement:
    """The element with the int or Fraction coefficients of row, keyed as
    in element_row: for an integer row, the element whose row it is."""
    m = ctx.m
    beta = [_ZERO] * m
    mods = [{} for _ in range(m)]
    for key, c in row.items():
        if key < 0:
            beta[-key - 1] = Fraction(c)
        else:
            code, i = divmod(key, m)
            mods[i][code] = c
    mod = tuple(TruncPoly.from_code_terms(m, ctx.module_cap, d) for d in mods)
    return LieElement(ctx, tuple(beta), mod)


def ideal_span(gens) -> SpanBasis:
    """Span of the smallest ideal containing the given elements, over the
    integer rows of element_row.

    The ideal is spanned by the generators and their iterated brackets with
    x_1..x_m.  A generator outside the derived algebra is bracketed with
    each x_j once; after that every element is derived, and for derived w,
    [w, x_j] multiplies the module coordinates by t_j, a shift of every key
    of its row (see above) that drops the terms past the cap.  Only rows
    that enlarged the span are shifted further.  Every row tried is t^a
    times a seed row r (a derived generator, or [g, x_j]), so it is keyed
    by (r, the key shift of t^a), and a key is tried once: t_i t_j r is
    reached from both t_i r and t_j r, and was in the span the second time."""
    gens = list(gens)
    if not gens:
        raise DomainError("ideal_span needs at least one generator")
    ctx = gens[0].ctx
    m = ctx.m
    span = SpanBasis()
    queue = []  # (seed number, key shift, row)
    for g in gens:
        g._check(gens[0])
        row = element_row(g)
        if not span.add(row):
            continue
        if g.in_derived():
            queue.append((len(queue), 0, row))
            continue
        for j in range(1, m + 1):
            row = element_row(bracket(g, generator(ctx, j)))
            if row and span.add(row):
                queue.append((len(queue), 0, row))
    lim = code_limit(m, ctx.module_cap) * m
    steps = [var_code(m, j) * m for j in range(1, m + 1)]
    tried = set()
    while queue:
        seed, shift, row = queue.pop()
        for step in steps:
            key = (seed, shift + step)
            if key in tried:
                continue
            tried.add(key)
            shifted = {k + step: v for k, v in row.items() if k + step < lim}
            if shifted and span.add(shifted):
                queue.append((seed, shift + step, shifted))
    return span


def ideal_closure(gens) -> list:
    """Linear basis of the smallest ideal containing the given elements:
    the rows of ideal_span as elements."""
    gens = list(gens)
    span = ideal_span(gens)
    return [row_element(gens[0].ctx, row) for row in span.rows.values()]


def span_of(elements) -> SpanBasis:
    """Span of the given elements over their integer rows (element_row)."""
    span = SpanBasis()
    for u in elements:
        span.add(element_row(u))
    return span
