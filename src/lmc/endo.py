"""Endomorphisms and automorphisms of L_{m,c}.

Composition convention, used repo-wide: compose(phi, psi) applies psi
first, compose(phi, psi)(x) = phi(psi(x)), which matches the
juxtaposition order of the worked identities this package reproduces.

Jacobian entries live in Q[t]/Omega^c (cap c-1); entry (i, j) is the full
a_i-coordinate of the image of x_j.  The Jacobian determines the map: its
constant terms are the linear part A, and every column of J - A satisfies
sum_i t_i s_ij = 0 modulo Omega^(c+1) (the module vector of the image of
x_j).  With this convention the chain rule holds for any two maps,

    jacobian(compose(phi, psi)) = jacobian(phi) @ sigma_A(jacobian(psi)),

where A is the linear part of phi and sigma_A replaces t_r by sum_k A_kr
t_k, the substitution Endomorphism.apply makes.  IA maps (identity modulo
the derived algebra) are the case A = I, matrices I + S on which the
Jacobian is a faithful semigroup isomorphism.

So every map is handled as a matrix: compose is the chain rule, and
jacobian_commutator (J of group_commutator, from the two Jacobians) and
the inverse of an IA map solve Q Y = P for a unipotent Q = I + N (Q over
alpha beta for linear parts alpha I and beta I; K Q, K a constant matrix,
for other maps that are not IA).  N has no constant term, so the degree-d
part of Y is P_d - sum_{e>=1} N_e Y_(d-e), which needs only the parts of
Y below degree d: power-series division, with the work of the one
product N Y.  A product is one pass of the matrix kernel
arith.poly_matmul, a solve one pass of arith.poly_solve, a map built from
a Jacobian keeps it (linear_endo is the map of a constant Jacobian), and
sigma_A for A = alpha I is the dilation t -> alpha t.  _from_jacobian
tests the S-condition of every column in one arith.first_defective_column
pass, which wraps none of the sums, and keeps the matrix and its scalar
with the map.  The commutator of IA maps skips the identity: for X =
J(phi) - I and Y = J(psi) - I it is J(c) = I + Q^-1 (XY - YX), and I
with no solve when XY = YX (arith.poly_commutator).  That of scalar linear parts is one
arith.poly_scalar_commutator, dilations included, on numerators.

Endomorphism.apply is the one action built from the bracket, and no
composition calls it.  It collects, per module coordinate, the products
of the images' coordinates with the generator coefficients of u and of
the pair brackets [phi x_i, phi x_j] with the leading-pair polynomials
q_ij, and sums them in one arith.poly_mac call.  exp_ad is no bracket
series: it materializes the closed-form parameters normal.inner_params(u)
of the generalized inner map exp(ad u).
"""

from __future__ import annotations

import operator
from fractions import Fraction

from . import liealg
from .arith import (
    LinearSubstitution,
    TruncPoly,
    first_defective_column,
    poly_commutator,
    poly_mac,
    poly_matmul,
    poly_scalar_commutator,
    poly_solve,
    t_dot,
)
from .errors import ContextMismatch, DomainError, ValidationError
from .liealg import Context, LieElement
from .linalg import mat_inv

_ZERO = Fraction(0)


class JacobianMatrix:
    """m x m matrix of truncated polynomials at cap c-1, kept as a tuple of
    m row tuples.  The constructor checks the shape of what it is given;
    the results of the kernel (products, solves, commutators) and of
    the closed forms of lmc.normal are wrapped once by _clean, which
    checks it again only under liealg.CHECK_INVARIANTS, as
    LieElement._clean does."""

    __slots__ = ("ctx", "rows")

    def __init__(self, ctx: Context, rows):
        self._fill(ctx, tuple(tuple(row) for row in rows), True)

    @classmethod
    def _clean(cls, ctx: Context, rows) -> "JacobianMatrix":
        """A JacobianMatrix of rows already as __init__ leaves them, checked
        again only under liealg.CHECK_INVARIANTS."""
        return object.__new__(cls)._fill(ctx, rows, liealg.CHECK_INVARIANTS)

    def _fill(self, ctx, rows, check) -> "JacobianMatrix":
        if check:
            if type(rows) is not tuple or any(type(r) is not tuple for r in rows):
                raise ValidationError("rows must be a tuple of row tuples")
            if len(rows) != ctx.m or any(len(r) != ctx.m for r in rows):
                raise ValidationError(f"need an {ctx.m}x{ctx.m} matrix")
            for row in rows:
                for p in row:
                    if p.nv != ctx.m or p.cap != ctx.module_cap:
                        raise ValidationError(
                            f"entries must have {ctx.m} vars and cap {ctx.module_cap}"
                        )
        self.ctx = ctx
        self.rows = rows
        return self

    @classmethod
    def identity(cls, ctx: Context) -> "JacobianMatrix":
        one = TruncPoly.const(ctx.m, ctx.module_cap, 1)
        zero = TruncPoly.zero(ctx.m, ctx.module_cap)
        return cls._clean(
            ctx,
            tuple(
                tuple(one if i == j else zero for j in range(ctx.m))
                for i in range(ctx.m)
            ),
        )

    def __matmul__(self, other: "JacobianMatrix") -> "JacobianMatrix":
        if self.ctx != other.ctx:
            raise ContextMismatch(f"{self.ctx} vs {other.ctx}")
        return JacobianMatrix._clean(self.ctx, poly_matmul(self.rows, other.rows))

    def _entrywise(self, other: "JacobianMatrix", op) -> "JacobianMatrix":
        if self.ctx != other.ctx:
            raise ContextMismatch(f"{self.ctx} vs {other.ctx}")
        return JacobianMatrix._clean(
            self.ctx,
            tuple(tuple(map(op, ra, rb)) for ra, rb in zip(self.rows, other.rows)),
        )

    def __add__(self, other: "JacobianMatrix") -> "JacobianMatrix":
        return self._entrywise(other, operator.add)

    def __sub__(self, other: "JacobianMatrix") -> "JacobianMatrix":
        return self._entrywise(other, operator.sub)

    def __eq__(self, other):
        if not isinstance(other, JacobianMatrix):
            return NotImplemented
        return self.ctx == other.ctx and self.rows == other.rows

    def __hash__(self):
        return hash((self.ctx, self.rows))

    def is_unipotent(self) -> bool:
        """Constant part equal to the identity matrix, read off the packed
        numerators: a constant 1 is nums[0] == den, a constant 0 no code 0."""
        for i, row in enumerate(self.rows):
            for j, p in enumerate(row):
                if p.nums.get(0) != (p.den if i == j else None):
                    return False
        return True

    def scalar(self):
        """alpha when the constant part is alpha I, else None, read off the
        packed numerators as is_unipotent reads I."""
        n, d = self.rows[0][0].nums.get(0, 0), self.rows[0][0].den
        if all(p.nums.get(0, 0) * d == n * p.den if i == j else 0 not in p.nums
               for i, row in enumerate(self.rows) for j, p in enumerate(row)):
            return Fraction(n, d)

    def column_defect(self, j: int) -> TruncPoly:
        """sum_i t_i * (self - A)[i][j] at cap c (1-based column j), A the
        constant part: zero on every column of a Jacobian."""
        return t_dot([row[j - 1] for row in self.rows], self.ctx.c, skip_constants=True)

    def satisfies_s_condition(self) -> bool:
        """Unipotent with every column of J - I summing to zero against t,
        tested in one arith.first_defective_column pass."""
        return self.is_unipotent() and not first_defective_column(self.rows, self.ctx.c)

    def neumann_inverse(self) -> "JacobianMatrix":
        """Exact inverse of a unipotent matrix I + N, degree by degree: X_d
        = I_d - sum_{e>=1} N_e X_(d-e) (arith.poly_solve with P = I)."""
        if not self.is_unipotent():
            raise DomainError("Neumann inverse needs a unipotent matrix")
        ident = JacobianMatrix.identity(self.ctx)
        return JacobianMatrix._clean(self.ctx, poly_solve(self.rows, ident.rows))

    def __repr__(self):
        body = "; ".join(
            "[" + ", ".join(str(p) for p in row) + "]" for row in self.rows
        )
        return f"JacobianMatrix(m={self.ctx.m}, c={self.ctx.c}, {body})"


class Endomorphism:
    """Endomorphism of L_{m,c} given by the images of the generators."""

    __slots__ = ("ctx", "images", "_cache")

    def __init__(self, ctx: Context, images):
        images = tuple(images)
        if len(images) != ctx.m:
            raise ValidationError(f"need {ctx.m} generator images")
        for im in images:
            if im.ctx != ctx:
                raise ContextMismatch("image context differs from the map context")
        self.ctx = ctx
        self.images = images
        self._cache = {}

    @classmethod
    def identity(cls, ctx: Context) -> "Endomorphism":
        return cls(ctx, tuple(liealg.generator(ctx, i) for i in range(1, ctx.m + 1)))

    def __eq__(self, other):
        if not isinstance(other, Endomorphism):
            return NotImplemented
        return self.ctx == other.ctx and self.images == other.images

    def __hash__(self):
        return hash((self.ctx, self.images))

    def __repr__(self):
        return f"Endomorphism(m={self.ctx.m}, c={self.ctx.c}, {self.images!r})"

    # -- cached structure ----------------------------------------------------

    def linear_matrix(self):
        """A with A[k][i] = coefficient of x_{k+1} in the image of x_{i+1}."""
        a = self._cache.get("linear")
        if a is None:
            m = self.ctx.m
            a = [[self.images[i].beta[k] for i in range(m)] for k in range(m)]
            self._cache["linear"] = a
        return a

    def _linear_inverse(self):
        if "linear_inv" not in self._cache:
            self._cache["linear_inv"] = mat_inv(self.linear_matrix())
        return self._cache["linear_inv"]

    def scalar(self):
        """alpha when the linear part is alpha I, else None, read off the
        numerators and denominators of the entries (both in lowest terms)."""
        if "scalar" not in self._cache:
            a = self.linear_matrix()
            alpha = a[0][0]
            n, d = alpha.numerator, alpha.denominator
            scalar = all(
                x.numerator == n and x.denominator == d if k == i else not x.numerator
                for k, row in enumerate(a) for i, x in enumerate(row)
            )
            self._cache["scalar"] = alpha if scalar else None
        return self._cache["scalar"]

    def is_ia(self) -> bool:
        return self.scalar() == 1

    def is_automorphism(self) -> bool:
        """Invertible linear part; an IA map's is I, so it needs no inverse."""
        return self.is_ia() or self._linear_inverse() is not None

    def _pair_bracket(self, i: int, j: int) -> LieElement:
        pairs = self._cache.get("pairs")
        if pairs is None:
            pairs = {}
            self._cache["pairs"] = pairs
        w = pairs.get((i, j))
        if w is None:
            w = liealg.bracket(self.images[i - 1], self.images[j - 1])
            pairs[(i, j)] = w
        return w

    def _substituted(self, q: TruncPoly) -> TruncPoly:
        """q with every t_r replaced by the linear form of the image of x_r:
        q(alpha t) when the linear part is alpha I, else a table."""
        sub = self._cache.get("subs")
        if sub is None:
            alpha = self.scalar()
            if alpha is not None:
                sub = lambda p: p.dilate(alpha)
            else:
                betas = [im.beta for im in self.images]
                sub = LinearSubstitution(self.ctx.m, self.ctx.module_cap, betas)
            self._cache["subs"] = sub
        return sub(q)

    # -- action ------------------------------------------------------------------

    def apply(self, u: LieElement) -> LieElement:
        """Image of u, read straight off its module coordinates F_i.

        The left-normed basis commutator [x_i, x_j, x_r, ...] (i > j <= r
        <= ...) owns exactly one module term, a_i * t_j * t_r ..., and it is
        the only commutator putting a term with lowest variable t_j, j < i,
        into F_i.  So the derived part of u is sum_{j<i} [x_i, x_j] *
        q_ij(ad x) with t_j * q_ij the part of F_i whose lowest variable is
        t_j, and its image is the bracket of the two images acted on by
        q_ij, each t_r replaced by the linear form of the image of x_r (the
        ad operators commute on the derived algebra; IA maps keep t_r).
        The read ignores the terms that membership determines, so u is
        validated first.
        """
        if u.ctx != self.ctx:
            raise ContextMismatch(f"{u.ctx} vs {self.ctx}")
        liealg.validate_element(u)
        ctx, m = self.ctx, self.ctx.m
        beta = [_ZERO] * m
        pairs = [[] for _ in range(m)]  # per module coordinate: (p, q), summing p * q
        for im, coeff in zip(self.images, u.beta):
            if coeff:
                beta = [b + coeff * a for b, a in zip(beta, im.beta)]
                scalar = TruncPoly.const(m, ctx.module_cap, coeff)
                for k, p in enumerate(im.mod):
                    if p.nums:
                        pairs[k].append((p, scalar))
        ia = self.is_ia()
        for i in range(2, m + 1):
            for j, q in u.mod[i - 1].lowest_var_quotients(i).items():
                if not ia:
                    q = self._substituted(q)
                    if q.is_zero():
                        continue
                for k, p in enumerate(self._pair_bracket(i, j).mod):
                    if p.nums:
                        pairs[k].append((p, q))
        zp = ctx.zero_poly()
        mod = tuple(poly_mac(zp, terms) if terms else zp for terms in pairs)
        return LieElement._clean(ctx, tuple(beta), mod)


def compose(phi: Endomorphism, psi: Endomorphism) -> Endomorphism:
    """phi after psi: compose(phi, psi)(x) = phi(psi(x)), the map whose
    Jacobian is J(phi) @ sigma_A(J(psi)) by the chain rule (A the linear
    part of phi)."""
    if phi.ctx != psi.ctx:
        raise ContextMismatch(f"{phi.ctx} vs {psi.ctx}")
    return _from_jacobian(jacobian(phi) @ _sigma(phi, jacobian(psi)))


def _sigma(phi: Endomorphism, jac: JacobianMatrix) -> JacobianMatrix:
    """sigma_A(jac) for A the linear part of phi: every t_r replaced by the
    linear form of the image of x_r, which leaves jac as it is when phi is IA."""
    if phi.is_ia():
        return jac
    return JacobianMatrix._clean(
        jac.ctx, tuple(tuple(phi._substituted(p) for p in row) for row in jac.rows)
    )


def jacobian(phi: Endomorphism) -> JacobianMatrix:
    """Partial-derivative matrix: entry (i, j) reads the a_i coordinate of
    the image of x_j, constant term included.  Kept with the map, which
    _from_jacobian builds with the matrix it was read from."""
    jac = phi._cache.get("jacobian")
    if jac is None:
        ctx = phi.ctx
        rows = []
        for i in range(1, ctx.m + 1):
            rows.append(tuple(phi.images[j - 1].full_poly(i) for j in range(1, ctx.m + 1)))
        jac = phi._cache["jacobian"] = JacobianMatrix(ctx, tuple(rows))
    return jac


def _from_jacobian(jac: JacobianMatrix) -> Endomorphism:
    """Inverse of `jacobian`: column j's constant terms are the linear part
    of the image of x_j, and the rest is its module vector, which must
    satisfy the S-condition.  The map keeps the matrix, and the scalar of
    its linear part read off the matrix's constant terms."""
    ctx = jac.ctx
    m, cap = ctx.m, ctx.module_cap
    bad = first_defective_column(jac.rows, ctx.c)
    if bad:
        raise ValidationError(f"column {bad} violates the S-condition sum_i t_i*s_ij = 0")
    images = []
    for col in zip(*jac.rows):
        beta = tuple(p.constant_term() for p in col)
        mod = tuple(  # the constant term, code 0, is beta
            TruncPoly.from_codes(m, cap, {e: c for e, c in p.nums.items() if e}, p.den)
            if 0 in p.nums else p
            for p in col
        )
        images.append(LieElement._clean(ctx, beta, mod))
    phi = Endomorphism(ctx, tuple(images))
    phi._cache["jacobian"] = jac
    phi._cache["scalar"] = jac.scalar()
    return phi


def ia_from_jacobian(jac: JacobianMatrix) -> Endomorphism:
    """Inverse of `jacobian` on IA maps; validates the I + S form."""
    if not jac.is_unipotent():
        raise ValidationError("jacobian must have identity constant part")
    return _from_jacobian(jac)


def exp_ad(u: LieElement) -> Endomorphism:
    """The inner automorphism exp(ad u) = 1 + ad u + ... + ad^(c-1) u/(c-1)!,
    materialized from its generalized inner parameters normal.inner_params(u)."""
    from . import normal  # normal imports this module

    return normal.ginn_to_endo(normal.inner_params(u))


def linear_endo(ctx: Context, a) -> Endomorphism:
    """Multiplicative extension of the linear map with matrix a (columns are
    generator images), built from its Jacobian: the constant matrix a."""
    const = lambda x: TruncPoly.const(ctx.m, ctx.module_cap, x)
    return _from_jacobian(JacobianMatrix(ctx, ([const(x) for x in row] for row in a)))


def decompose(phi: Endomorphism):
    """Split an automorphism as (linear part A, IA part chi) with
    phi = linear_endo(A) after chi."""
    if not phi.is_automorphism():
        raise DomainError("decompose needs an automorphism (invertible linear part)")
    a = phi.linear_matrix()
    if phi.is_ia():
        return a, phi
    chi = compose(linear_endo(phi.ctx, phi._linear_inverse()), phi)
    return a, chi


def invert(phi: Endomorphism) -> Endomorphism:
    """Exact two-sided inverse of an automorphism."""
    if not phi.is_automorphism():
        raise DomainError("invert needs an automorphism (invertible linear part)")
    if phi.is_ia():
        return ia_from_jacobian(jacobian(phi).neumann_inverse())
    _, chi = decompose(phi)
    # chi is IA: a faulty decompose makes neumann_inverse raise DomainError,
    # where invert(chi) would recurse
    chi_inv = ia_from_jacobian(jacobian(chi).neumann_inverse())
    return compose(chi_inv, linear_endo(phi.ctx, phi._linear_inverse()))


def group_commutator(phi: Endomorphism, psi: Endomorphism) -> Endomorphism:
    """phi^-1 psi^-1 phi psi (psi first): the map of jacobian_commutator."""
    return _from_jacobian(jacobian_commutator(jacobian(phi), jacobian(psi)))


def jacobian_commutator(ja: JacobianMatrix, jb: JacobianMatrix) -> JacobianMatrix:
    """J(c), c = phi^-1 psi^-1 phi psi, from ja = J(phi) and jb = J(psi).

    P = J(phi psi) and Q = J(psi phi) satisfy P = Q sigma_C(J(c)), C = BA
    the constant part of Q.  IA pairs: J(c) = Q^-1 P = I + Q^-1 (XY - YX)
    for X = ja - I and Y = jb - I, and I with no solve when XY - YX is
    zero (arith.poly_commutator).  A = alpha I, B = beta I: Q^-1 P,
    dilated by 1/(alpha beta), in one arith.poly_scalar_commutator.
    Otherwise K = C^-1 makes K Q unipotent, Y0 = (K Q)^-1 K P =
    sigma_C(J(c)) and J(c) = sigma_K(Y0).
    """
    ctx = ja.ctx
    if ctx != jb.ctx:
        raise ContextMismatch(f"{ctx} vs {jb.ctx}")
    if ja.is_unipotent() and jb.is_unipotent():
        return JacobianMatrix._clean(ctx, poly_commutator(ja.rows, jb.rows))
    alpha, beta = ja.scalar(), jb.scalar()
    if alpha and beta:  # a singular scalar takes the K route to its DomainError
        return JacobianMatrix._clean(ctx, poly_scalar_commutator(ja.rows, jb.rows, alpha, beta))
    phi, psi = (linear_endo(ctx, _constant_part(j)) for j in (ja, jb))
    p, q = ja @ _sigma(phi, jb), jb @ _sigma(psi, ja)
    k = mat_inv(_constant_part(q))
    if k is None:
        raise DomainError("group_commutator needs automorphisms (invertible linear parts)")
    kmap = linear_endo(ctx, k)
    jk = jacobian(kmap)
    y0 = JacobianMatrix._clean(ctx, poly_solve((jk @ q).rows, (jk @ p).rows))
    return _sigma(kmap, y0)


def _constant_part(jac: JacobianMatrix):
    return [[x.constant_term() for x in row] for row in jac.rows]
