"""The map operations that lmc.endo replaced: the references for the
apply, element, compose, solve and matrix kernel parity tests.

apply: u is expanded over the left-normed basis by the reference to_basis
(tests/syntax_reference.py), and each basis commutator [x_i1, ..., x_ik]
maps to the reference bracket (tests/ideal_reference.py) of the two
leading images, times the product of the substituted linear forms of the
remaining letters.  substituted: the term-by-term substitution t_r ->
linear form of the image of x_r that Endomorphism.apply made on maps that
are not IA.

compose, decompose, invert and group_commutator: the bracket-based chains
that endo replaced with the Jacobian chain rule.  compose sends each image
through apply, invert splits off the linear part as decompose did and
inverts the IA part by iterating apply, and group_commutator chains these
inverses and compositions, so no reference here calls endo's compose,
invert or group_commutator, nor the solve they share.

matmul: the Jacobian product that arith.poly_matmul replaced, one
TruncPoly product and sum per term of each entry; column_defect: the
S-condition defect as the reference t_dot minus the linear form of the
constant terms.  neumann_inverse: the sum of powers I + M + ... +
M^(c-1), M = I - J, by this matmul; times P it is the Q^-1 P of
arith.poly_solve.  ginn_s and ginn_jacobian: the closed-form S and I + S
of a generalized inner map as TruncPoly sums, which normal._ginn_s
replaced by one wrap per entry read off the numerators of the f_i.
"""

from fractions import Fraction

import ideal_reference
import syntax_reference
from kernel_reference import t_dot

from lmc import endo, liealg
from lmc.arith import TruncPoly
from lmc.liealg import LieElement
from lmc.linalg import mat_inv

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
    for tup, coeff in syntax_reference.to_basis(u).comm.items():
        q = TruncPoly.const(ctx.m, ctx.module_cap, coeff)
        for r in tup[2:]:
            q = q * substituted_var(phi, r)
        w = ideal_reference.bracket(phi.images[tup[0] - 1], phi.images[tup[1] - 1])
        acc = acc + LieElement(ctx, w.beta, tuple(p * q for p in w.mod))
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
            LieElement(ctx, tuple(_ONE if k == j else _ZERO for k in range(ctx.m)), col)
            for j, col in enumerate(zip(*ginn_s(g)))
        ),
    )
