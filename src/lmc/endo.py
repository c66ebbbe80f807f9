"""Endomorphisms and automorphisms of L_{m,c}.

Composition convention, used repo-wide: compose(phi, psi) applies psi
first, compose(phi, psi)(x) = phi(psi(x)).  With this convention the
Jacobian map is multiplicative, jacobian(compose(phi, psi)) =
jacobian(phi) @ jacobian(psi), and matches the juxtaposition order of
the worked identities this package reproduces.

Jacobian entries live in Q[t]/Omega^c (cap c-1); entry (i, j) is the full
a_i-coordinate of the image of x_j.  IA maps (identity modulo the derived
algebra) correspond exactly to matrices I + S where every column of S
satisfies sum_i t_i s_ij = 0 modulo Omega^(c+1); on that subsemigroup the
Jacobian is a faithful semigroup isomorphism, which is what makes the
Neumann-series inverse below exact.
"""

from __future__ import annotations

from fractions import Fraction

from . import liealg
from .arith import TruncPoly, t_dot
from .errors import ContextMismatch, DomainError, ValidationError
from .liealg import Context, LieElement
from .linalg import mat_inv

_ZERO = Fraction(0)
_ONE = Fraction(1)


class JacobianMatrix:
    """m x m matrix of truncated polynomials at cap c-1."""

    __slots__ = ("ctx", "rows")

    def __init__(self, ctx: Context, rows):
        rows = tuple(tuple(row) for row in rows)
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

    @classmethod
    def identity(cls, ctx: Context) -> "JacobianMatrix":
        one = TruncPoly.const(ctx.m, ctx.module_cap, 1)
        zero = TruncPoly.zero(ctx.m, ctx.module_cap)
        return cls(
            ctx,
            tuple(
                tuple(one if i == j else zero for j in range(ctx.m))
                for i in range(ctx.m)
            ),
        )

    def __matmul__(self, other: "JacobianMatrix") -> "JacobianMatrix":
        if self.ctx != other.ctx:
            raise ContextMismatch(f"{self.ctx} vs {other.ctx}")
        m = self.ctx.m
        rows = []
        for i in range(m):
            row = []
            for j in range(m):
                acc = TruncPoly.zero(m, self.ctx.module_cap)
                for s in range(m):
                    acc = acc + self.rows[i][s] * other.rows[s][j]
                row.append(acc)
            rows.append(tuple(row))
        return JacobianMatrix(self.ctx, tuple(rows))

    def __sub__(self, other: "JacobianMatrix") -> "JacobianMatrix":
        if self.ctx != other.ctx:
            raise ContextMismatch(f"{self.ctx} vs {other.ctx}")
        return JacobianMatrix(
            self.ctx,
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
        )

    def __eq__(self, other):
        if not isinstance(other, JacobianMatrix):
            return NotImplemented
        return self.ctx == other.ctx and self.rows == other.rows

    def __hash__(self):
        return hash((self.ctx, self.rows))

    def is_unipotent(self) -> bool:
        """Constant part equal to the identity matrix."""
        for i, row in enumerate(self.rows):
            for j, p in enumerate(row):
                if p.constant_term() != (_ONE if i == j else _ZERO):
                    return False
        return True

    def column_defect(self, j: int) -> TruncPoly:
        """sum_i t_i * (self - I)[i][j] at cap c (1-based column j)."""
        ctx = self.ctx
        return t_dot([row[j - 1] for row in self.rows], ctx.c) - TruncPoly.var(ctx.m, ctx.c, j)

    def satisfies_s_condition(self) -> bool:
        """Unipotent with every column of J - I summing to zero against t."""
        if not self.is_unipotent():
            return False
        return all(
            self.column_defect(j).is_zero() for j in range(1, self.ctx.m + 1)
        )

    def neumann_inverse(self) -> "JacobianMatrix":
        """Exact inverse of a unipotent matrix: sum of powers of I - J."""
        if not self.is_unipotent():
            raise DomainError("Neumann inverse needs a unipotent matrix")
        ident = JacobianMatrix.identity(self.ctx)
        minus_n = ident - self  # entries in Omega, nilpotent
        acc = ident + minus_n
        power = minus_n
        for _ in range(2, self.ctx.c):
            power = power @ minus_n
            acc = acc + power
        return acc

    def __add__(self, other: "JacobianMatrix") -> "JacobianMatrix":
        if self.ctx != other.ctx:
            raise ContextMismatch(f"{self.ctx} vs {other.ctx}")
        return JacobianMatrix(
            self.ctx,
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
        )

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

    def is_ia(self) -> bool:
        a = self.linear_matrix()
        m = self.ctx.m
        return all(
            a[k][i] == (_ONE if k == i else _ZERO) for k in range(m) for i in range(m)
        )

    def is_automorphism(self) -> bool:
        return self._linear_inverse() is not None

    def is_identity(self) -> bool:
        return self == Endomorphism.identity(self.ctx)

    def _substituted_var(self, r: int) -> TruncPoly:
        """Image of t_r under the induced substitution on the module ring."""
        subs = self._cache.get("subs")
        if subs is None:
            subs = {}
            self._cache["subs"] = subs
        p = subs.get(r)
        if p is None:
            ctx = self.ctx
            p = TruncPoly.linear(ctx.m, ctx.module_cap, self.images[r - 1].beta)
            subs[r] = p
        return p

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
        """q with every t_r replaced by its substituted linear form."""
        ctx = self.ctx
        acc = TruncPoly.zero(ctx.m, ctx.module_cap)
        for e, coeff in q.items():
            term = TruncPoly.const(ctx.m, ctx.module_cap, coeff)
            for r, k in enumerate(e, start=1):
                for _ in range(k):
                    term = term * self._substituted_var(r)
            acc = acc + term
        return acc

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
        acc = liealg.zero(self.ctx)
        for i, coeff in enumerate(u.beta, start=1):
            if coeff:
                acc = acc + self.images[i - 1].scale(coeff)
        ia = self.is_ia()
        for i in range(2, self.ctx.m + 1):
            for j, q in u.mod[i - 1].lowest_var_quotients(i).items():
                if not ia:
                    q = self._substituted(q)
                    if q.is_zero():
                        continue
                acc = acc + liealg.ad_polynomial_action(self._pair_bracket(i, j), q)
        return acc


def compose(phi: Endomorphism, psi: Endomorphism) -> Endomorphism:
    """phi after psi: compose(phi, psi)(x) = phi(psi(x))."""
    if phi.ctx != psi.ctx:
        raise ContextMismatch(f"{phi.ctx} vs {psi.ctx}")
    return Endomorphism(phi.ctx, tuple(phi.apply(im) for im in psi.images))


def jacobian(phi: Endomorphism) -> JacobianMatrix:
    """Partial-derivative matrix: entry (i, j) reads the a_i coordinate of
    the image of x_j, constant term included."""
    ctx = phi.ctx
    rows = []
    for i in range(1, ctx.m + 1):
        rows.append(tuple(phi.images[j - 1].full_poly(i) for j in range(1, ctx.m + 1)))
    return JacobianMatrix(ctx, tuple(rows))


def ia_from_jacobian(jac: JacobianMatrix) -> Endomorphism:
    """Inverse of `jacobian` on IA maps; validates the I + S form."""
    ctx = jac.ctx
    if not jac.is_unipotent():
        raise ValidationError("jacobian must have identity constant part")
    for j in range(1, ctx.m + 1):
        if not jac.column_defect(j).is_zero():
            raise ValidationError(
                f"column {j} violates the S-condition sum_i t_i*s_ij = 0"
            )
    one = TruncPoly.const(ctx.m, ctx.module_cap, 1)
    images = []
    for j in range(1, ctx.m + 1):
        beta = tuple(_ONE if i == j else _ZERO for i in range(1, ctx.m + 1))
        mod = tuple(
            jac.rows[i - 1][j - 1] - one if i == j else jac.rows[i - 1][j - 1]
            for i in range(1, ctx.m + 1)
        )
        images.append(LieElement(ctx, beta, mod))
    return Endomorphism(ctx, tuple(images))


def exp_ad(u: LieElement) -> Endomorphism:
    """The inner automorphism exp(ad u) = 1 + ad u + ... + ad^(c-1) u/(c-1)!."""
    ctx = u.ctx
    images = []
    for i in range(1, ctx.m + 1):
        acc = liealg.generator(ctx, i)
        term = acc
        for k in range(1, ctx.c):
            term = liealg.bracket(term, u).scale(Fraction(1, k))
            if term.is_zero():
                break
            acc = acc + term
        images.append(acc)
    return Endomorphism(ctx, tuple(images))


def linear_endo(ctx: Context, a) -> Endomorphism:
    """Multiplicative extension of the linear map with matrix a (columns are
    generator images)."""
    zp = ctx.zero_poly()
    images = []
    for i in range(ctx.m):
        beta = tuple(Fraction(a[k][i]) for k in range(ctx.m))
        images.append(LieElement(ctx, beta, (zp,) * ctx.m))
    return Endomorphism(ctx, tuple(images))


def decompose(phi: Endomorphism):
    """Split an automorphism as (linear part A, IA part chi) with
    phi = linear_endo(A) after chi."""
    if not phi.is_automorphism():
        raise DomainError("decompose needs an automorphism (invertible linear part)")
    a = phi.linear_matrix()
    a_inv = phi._linear_inverse()
    chi = compose(linear_endo(phi.ctx, a_inv), phi)
    return a, chi


def invert(phi: Endomorphism) -> Endomorphism:
    """Exact two-sided inverse of an automorphism."""
    if not phi.is_automorphism():
        raise DomainError("invert needs an automorphism (invertible linear part)")
    if phi.is_ia():
        return ia_from_jacobian(jacobian(phi).neumann_inverse())
    _, chi = decompose(phi)
    return compose(invert(chi), linear_endo(phi.ctx, phi._linear_inverse()))


def group_commutator(phi: Endomorphism, psi: Endomorphism) -> Endomorphism:
    """phi^-1 psi^-1 phi psi under the repo composition order (psi first)."""
    return compose(compose(compose(invert(phi), invert(psi)), phi), psi)
