"""The GInn parameter algebra as lmc wrote it before each formula became
one pass: the reference for tests/test_ginn_parity.py.

ginn_pattern divides every off-diagonal entry (i, j) by t_j and asks all
the quotients of row i to agree before its closed-form certificate, where
normal.ginn_pattern reads each f_i off one entry and lets the certificate
check the rest.  ginn_compose, in_s (the Horner sum of normal._in_s) and
mac_chain (the two-pair multiplier update of the graded theta read kept
in tests/cosets_reference.py) build each sum of products as a chain of
TruncPoly products and sums, one wrapped temporary per operation, where
lmc calls arith.poly_mac once.
"""

from lmc.arith import TruncPoly, t_dot
from lmc.errors import ContextMismatch
from lmc.normal import GInnAut, ginn_jacobian


def ginn_pattern(jac):
    """Parameter vector whose closed-form Jacobian is jac, or None, read
    off every off-diagonal entry."""
    ctx = jac.ctx
    params = []
    for i in range(1, ctx.m + 1):
        f_i = None
        for j in range(1, ctx.m + 1):
            if j == i:
                continue
            q = jac.rows[i - 1][j - 1].divide_var(j)
            if q is None:
                return None
            cand = -q.with_cap(ctx.param_cap)
            if f_i is None:
                f_i = cand
            elif f_i != cand:
                return None
        params.append(f_i)
    g = GInnAut(ctx, tuple(params))
    if ginn_jacobian(g) != jac:
        return None
    return g


def ginn_compose(a, b):
    """F = f_a + f_b + f_b * sum t_k f_a_k, one TruncPoly operation at a time."""
    if a.ctx != b.ctx:
        raise ContextMismatch(f"{a.ctx} vs {b.ctx}")
    s = t_dot(a.f, a.ctx.param_cap)
    return GInnAut(a.ctx, tuple(fa + fb + fb * s for fa, fb in zip(a.f, b.f)))


def in_s(s, coeffs):
    """sum_n coeffs[n] s^n by Horner's rule, a product and a sum per step."""
    acc = TruncPoly.const(s.nv, s.cap, coeffs[-1])
    for a in reversed(coeffs[:-1]):
        acc = acc * s + TruncPoly.const(s.nv, s.cap, a)
    return acc


def mac_chain(base, pairs):
    """base + sum p * q, one product and one sum per pair."""
    for p, q in pairs:
        base = base + p * q
    return base
