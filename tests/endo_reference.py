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
"""

from fractions import Fraction

from kernel_reference import t_dot
from linalg_reference import SparseSolver
from verify_reference import tuple_module_terms

from lmc import endo, liealg
from lmc.arith import TruncPoly
from lmc.errors import ValidationError
from lmc.linalg import mat_inv

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
