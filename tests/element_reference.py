"""The element-layer paths that lmc replaced with one integer pass per
module coordinate: the reference for tests/test_element_parity.py.

bracket builds both linear forms with TruncPoly.linear and each
coordinate as full_poly(i) * s_v - full_poly(i) * s_u, one TruncPoly
product, constant sum and difference at a time, where liealg.bracket runs
one arith._impl.pmac pass over the numerators.  apply sums one LieElement
per generator coefficient and one ad_polynomial_action per leading pair
into a running sum, and ginn_sum adds one product per nonzero bracket
coordinate, where lmc collects the products of each coordinate and calls
arith.poly_mac once.  from_jacobian subtracts a TruncPoly.const from each
entry, where endo._from_jacobian drops the code 0 from the numerators.
apply brackets with this module's bracket, so it shares no product with
the code it checks; the leading-pair read (lowest_var_quotients) and the
substitution of a map that is not IA (Endomorphism._substituted) are
shared, as lmc did not change them.
"""

from fractions import Fraction

from lmc import endo, liealg
from lmc.arith import TruncPoly
from lmc.errors import DomainError, ValidationError
from lmc.liealg import LieElement

_ZERO = Fraction(0)


def _times(p: TruncPoly, s: TruncPoly) -> TruncPoly:
    """p * s, passing a zero p through without a product."""
    return p if p.is_zero() else p * s


def bracket(u: LieElement, v: LieElement) -> LieElement:
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
        return liealg.zero(ctx)
    return LieElement(ctx, (_ZERO,) * m, mod)


def apply(phi, u: LieElement) -> LieElement:
    liealg.validate_element(u)
    acc = liealg.zero(phi.ctx)
    for i, coeff in enumerate(u.beta, start=1):
        if coeff:
            acc = acc + phi.images[i - 1].scale(coeff)
    ia = phi.is_ia()
    for i in range(2, phi.ctx.m + 1):
        for j, q in u.mod[i - 1].lowest_var_quotients(i).items():
            if not ia:
                q = phi._substituted(q)
                if q.is_zero():
                    continue
            w = bracket(phi.images[i - 1], phi.images[j - 1])
            acc = acc + liealg.ad_polynomial_action(w, q)
    return acc


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
