"""The element-layer paths that lmc replaced with one integer pass per
module coordinate: the ginn_sum and from_jacobian references for
tests/test_element_parity.py.

ginn_sum, the one test-side formula of the GInn sum u + sum_j [u, x_j] f_j
(tests/verify_reference.py certifies the law inputs with it), adds one
product per nonzero bracket coordinate, where lmc collects the products
of each coordinate and calls arith.poly_mac once.
from_jacobian subtracts a TruncPoly.const from each entry, where
endo._from_jacobian drops the code 0 from the numerators.  The bracket
and apply references of the same file are tests/ideal_reference.bracket
and tests/endo_reference.apply, the oldest of each.
"""

from lmc import endo
from lmc.arith import TruncPoly
from lmc.errors import DomainError, ValidationError
from lmc.liealg import LieElement


def ginn_sum(u: LieElement, bracket_with, f) -> LieElement:
    ctx = u.ctx
    mod = list(u.mod)
    for j, p in enumerate(f, start=1):
        if p.is_zero():
            continue
        w = bracket_with(j)
        if not w.in_derived():
            raise DomainError("ad-polynomial action is defined on the derived algebra only")
        q = p.with_cap(ctx.module_cap)
        for k, coord in enumerate(w.mod):
            if not coord.is_zero():
                mod[k] = mod[k] + coord * q
    return LieElement(ctx, u.beta, mod)


def from_jacobian(jac) -> "endo.Endomorphism":
    ctx = jac.ctx
    images = []
    for j in range(1, ctx.m + 1):
        if not jac.column_defect(j).is_zero():
            raise ValidationError(
                f"column {j} violates the S-condition sum_i t_i*s_ij = 0"
            )
        col = [row[j - 1] for row in jac.rows]
        beta = tuple(p.constant_term() for p in col)
        mod = tuple(
            p - TruncPoly.const(ctx.m, ctx.module_cap, b) if b else p
            for p, b in zip(col, beta)
        )
        images.append(LieElement(ctx, beta, mod))
    return endo.Endomorphism(ctx, tuple(images))
