"""The map operations that lmc.endo replaced: the references for
tests/test_apply_parity.py, tests/test_compose_parity.py and
tests/test_matrix_kernel_parity.py.

apply: u is expanded over the left-normed basis with the Fraction reference
solver (tests/linalg_reference.py), and each basis commutator [x_i1, ...,
x_ik] maps to the bracket of the two leading images acted on by the product
of the substituted linear forms of the remaining letters.

substituted: the term-by-term substitution t_r -> linear form of the image
of x_r that Endomorphism.apply made on maps that are not IA.

compose, decompose, invert and group_commutator: the bracket-based chains
that endo replaced with the Jacobian chain rule.  compose sends each image
through apply, invert splits off the linear part as decompose did and
inverts the IA part by iterating apply, and group_commutator chains these
inverses and compositions, so no reference here calls endo's compose,
invert or group_commutator.  neumann_inverse: the sum of powers that
endo's Neumann iteration replaced.

matmul: the Jacobian product that arith.poly_matmul replaced, one
TruncPoly product and sum per term of each entry; column_defect: the
S-condition defect as the reference t_dot minus the linear form of the
constant terms.  neumann_inverse multiplies with this matmul.

neumann_solve and solve_commutator: the unrolled iteration X = D - N X
that arith.poly_solve replaced in JacobianMatrix.neumann_inverse and
endo.group_commutator, c-1-d full matrix products for d the lowest
degree of D.  ginn_s and ginn_jacobian: the closed-form S and I + S of a
generalized inner map as TruncPoly sums, which normal._ginn_s replaced by
one wrap per entry read off the numerators of the f_i.
"""

from fractions import Fraction

from kernel_reference import t_dot
from linalg_reference import SparseSolver
from verify_reference import tuple_module_terms

from lmc import endo, liealg
from lmc.arith import TruncPoly
from lmc.errors import ValidationError
from lmc.linalg import mat_inv

_ZERO = Fraction(0)
_ONE = Fraction(1)


def to_basis(u) -> dict:
    """{tuple: coefficient} of the derived part of u over the left-normed basis."""
    ctx = u.ctx
    by_degree = {}
    for i in range(1, ctx.m + 1):
        for e, c in u.mod[i - 1].items():
            by_degree.setdefault(sum(e) + 1, {})[(i, e)] = c
    comm = {}
    for k, rhs in by_degree.items():
        if k < 2 or k > ctx.c:
            raise ValidationError(f"module carries an impossible degree {k}")
        tuples = liealg.enumerate_basis(ctx, k)
        cols = []
        for tup in tuples:
            (i1, e1, c1), (i2, e2, c2) = tuple_module_terms(ctx, tup, _ONE)
            cols.append({(i1, e1): c1, (i2, e2): c2})
        coeffs = SparseSolver(cols).solve(rhs)
        if coeffs is None:
            raise ValidationError("membership violated")
        for tup, coeff in zip(tuples, coeffs):
            if coeff:
                comm[tup] = coeff
    return comm


def substituted_var(phi, r: int) -> TruncPoly:
    """Image of t_r under the substitution induced by phi's linear part."""
    ctx = phi.ctx
    terms = {}
    for k in range(ctx.m):
        coeff = phi.images[r - 1].beta[k]
        if coeff:
            e = [0] * ctx.m
            e[k] = 1
            terms[tuple(e)] = coeff
    return TruncPoly(ctx.m, ctx.module_cap, terms)


def substituted(phi, q) -> TruncPoly:
    """q with every t_r replaced by substituted_var(phi, r), one term and
    one factor at a time: the loop that arith.LinearSubstitution replaced
    in Endomorphism._substituted."""
    ctx = phi.ctx
    acc = TruncPoly.zero(ctx.m, ctx.module_cap)
    for e, coeff in q.items():
        term = TruncPoly.const(ctx.m, ctx.module_cap, coeff)
        for r, k in enumerate(e, start=1):
            for _ in range(k):
                term = term * substituted_var(phi, r)
        acc = acc + term
    return acc


def apply(phi, u):
    """phi(u) by basis expansion."""
    ctx = phi.ctx
    acc = liealg.zero(ctx)
    for i, coeff in enumerate(u.beta, start=1):
        if coeff:
            acc = acc + phi.images[i - 1].scale(coeff)
    for tup, coeff in to_basis(u).items():
        q = TruncPoly.const(ctx.m, ctx.module_cap, coeff)
        for r in tup[2:]:
            q = q * substituted_var(phi, r)
        w = liealg.bracket(phi.images[tup[0] - 1], phi.images[tup[1] - 1])
        acc = acc + liealg.ad_polynomial_action(w, q)
    return acc


def compose(phi, psi):
    """phi after psi, each image of psi sent through phi.apply."""
    return endo.Endomorphism(phi.ctx, tuple(phi.apply(im) for im in psi.images))


def decompose(phi):
    """(A, chi) with phi = linear_endo(A) after chi and chi IA."""
    a = phi.linear_matrix()
    return a, compose(endo.linear_endo(phi.ctx, mat_inv(a)), phi)


def invert_ia(phi):
    """Inverse of an IA map: the preimage of x_j is the limit of y <- y +
    (x_j - phi(y)) from y = x_j.  phi - 1 raises the degree, so each step
    pushes the residual one degree up, and c - 1 steps clear it."""
    ctx = phi.ctx
    images = []
    for j in range(1, ctx.m + 1):
        x = y = liealg.generator(ctx, j)
        for _ in range(ctx.c - 1):
            y = y + (x - phi.apply(y))
        assert phi.apply(y) == x
        images.append(y)
    return endo.Endomorphism(ctx, tuple(images))


def invert(phi):
    """phi^-1 = chi^-1 after linear_endo(A^-1), for (A, chi) = decompose(phi)."""
    a, chi = decompose(phi)
    return compose(invert_ia(chi), endo.linear_endo(phi.ctx, mat_inv(a)))


def group_commutator(phi, psi):
    """phi^-1 psi^-1 phi psi as a chain of inverses and compositions."""
    return compose(compose(compose(invert(phi), invert(psi)), phi), psi)


def matmul(a, b):
    """a @ b, entry by entry as sums of TruncPoly products."""
    zero = TruncPoly.zero(a.ctx.m, a.ctx.module_cap)
    cols = tuple(zip(*b.rows))
    rows = []
    for row in a.rows:
        out = []
        for col in cols:
            acc = zero
            for x, y in zip(row, col):
                if not (x.is_zero() or y.is_zero()):
                    acc = x * y if acc is zero else acc + x * y
            out.append(acc)
        rows.append(tuple(out))
    return endo.JacobianMatrix(a.ctx, tuple(rows))


def column_defect(jac, j: int) -> TruncPoly:
    """sum_i t_i * (jac - A)[i][j] at cap c, A the constant part."""
    ctx = jac.ctx
    col = [row[j - 1] for row in jac.rows]
    linear = TruncPoly.linear(ctx.m, ctx.c, [p.constant_term() for p in col])
    return t_dot(col, ctx.c) - linear


def neumann_inverse(jac):
    """Inverse of a unipotent J as I + M + M^2 + ... + M^(c-1), M = I - J."""
    ident = endo.JacobianMatrix.identity(jac.ctx)
    minus_n = ident - jac
    acc = ident + minus_n
    power = minus_n
    for _ in range(2, jac.ctx.c):
        power = matmul(power, minus_n)
        acc = acc + power
    return acc


def neumann_solve(minus_n, d, steps: int):
    """X with (I + N) X = D, for N with entries in Omega: X = D - N X
    unrolled `steps` times from X = D, as the sum of (-N)^k D for k <= steps.
    The error is (-N)^(steps+1) X, so each step fixes one more degree."""
    x = term = d
    for _ in range(steps):
        term = minus_n @ term
        x = x + term
    return x


def solve_inverse(jac):
    """Inverse of a unipotent J by neumann_solve: X = I - (J - I) X."""
    ident = endo.JacobianMatrix.identity(jac.ctx)
    return neumann_solve(ident - jac, ident, jac.ctx.c - 1)


def solve_commutator(phi, psi):
    """The Jacobian of phi^-1 psi^-1 phi psi as I + X, U X = D, for U =
    J(K psi phi) and D = J(K phi psi) - U with K = (BA)^-1 (skipped on IA
    pairs), by neumann_solve in c-1-d steps for d the lowest degree of D."""
    ctx = phi.ctx
    sigma = endo._sigma
    ja, jb = endo.jacobian(phi), endo.jacobian(psi)
    p, q = ja @ sigma(phi, jb), jb @ sigma(psi, ja)
    if not q.is_unipotent():
        k = endo.linear_endo(ctx, mat_inv([[x.constant_term() for x in row] for row in q.rows]))
        jk = endo.jacobian(k)
        p, q = jk @ sigma(k, p), jk @ sigma(k, q)
    d = p - q
    ident = endo.JacobianMatrix.identity(ctx)
    return ident + neumann_solve(ident - q, d, ctx.c - 1 - lowest_degree(d))


def lowest_degree(jac) -> int:
    """The lowest degree of a term of an entry of jac, c if all are zero."""
    return min(
        (sum(e) for row in jac.rows for x in row for e, _ in x.items()),
        default=jac.ctx.c,
    )


def ginn_s(g):
    """S = J - I of the materialized GInn map: sum_{r != i} t_r f_r on the
    diagonal, -t_j f_i off it, rows i and columns j at cap c-1."""
    cap = g.ctx.module_cap
    f = [p.with_cap(cap) for p in g.f]
    weight = t_dot(f, cap)
    js = range(1, g.ctx.m + 1)
    return [
        [weight - f_i.mul_var(j) if i == j else -f_i.mul_var(j) for j in js]
        for i, f_i in enumerate(f, start=1)
    ]


def ginn_jacobian(g):
    """I + ginn_s(g)."""
    one = TruncPoly.const(g.ctx.m, g.ctx.module_cap, 1)
    rows = ginn_s(g)
    for i, row in enumerate(rows):
        row[i] = row[i] + one
    return endo.JacobianMatrix(g.ctx, rows)


def ginn_to_endo(g):
    """x_j -> x_j + column j of ginn_s(g)."""
    ctx = g.ctx
    return endo.Endomorphism(
        ctx,
        tuple(
            liealg.LieElement(ctx, tuple(_ONE if k == j else _ZERO for k in range(ctx.m)), col)
            for j, col in enumerate(zip(*ginn_s(g)))
        ),
    )
