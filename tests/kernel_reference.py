"""Reference kernel: sparse truncated polynomials as dicts of Fractions.

A polynomial is a dict mapping exponent tuples (one int per variable) to
nonzero Fraction coefficients.  Every function returns a canonical dict:
no zero coefficients, and, where a cap applies, no term of total degree
beyond it.  Inputs are never mutated.

This is the representation lmc.arith.TruncPoly used before its packed
integer kernel; test_kernel_parity.py checks TruncPoly against it.

t_dot is the TruncPoly-level sum that arith.t_dot replaced with one pass
over packed codes: one with_cap, mul_var and addition per polynomial.
pmul is the product oracle of every packed product path, arith._impl.pmac
with its one-term shift included.
"""

from fractions import Fraction

from lmc.arith import TruncPoly


def padd(a, b):
    out = dict(a)
    for e, c in b.items():
        v = out.get(e)
        if v is None:
            out[e] = c
        else:
            v = v + c
            if v:
                out[e] = v
            else:
                del out[e]
    return out


def psub(a, b):
    out = dict(a)
    for e, c in b.items():
        v = out.get(e)
        if v is None:
            out[e] = -c
        else:
            v = v - c
            if v:
                out[e] = v
            else:
                del out[e]
    return out


def pneg(a):
    return {e: -c for e, c in a.items()}


def pscale(a, s):
    if not s:
        return {}
    return {e: c * s for e, c in a.items()}


def pmul(a, b, cap):
    """Product with all terms of total degree > cap discarded."""
    if not a or not b:
        return {}
    out = {}
    bitems = sorted(((sum(e), e, c) for e, c in b.items()))
    for ea, ca in a.items():
        da = sum(ea)
        for db, eb, cb in bitems:
            if da + db > cap:
                break
            e = tuple(x + y for x, y in zip(ea, eb))
            v = out.get(e)
            if v is None:
                out[e] = ca * cb
            else:
                v = v + ca * cb
                if v:
                    out[e] = v
                else:
                    del out[e]
    return out


def pmulvar(a, j, cap):
    """Multiply by the j-th variable (0-based), truncating past cap."""
    out = {}
    for e, c in a.items():
        if sum(e) + 1 > cap:
            continue
        le = list(e)
        le[j] += 1
        out[tuple(le)] = c
    return out


def pdivvar(a, j):
    """Exact division by the j-th variable (0-based), or None."""
    out = {}
    for e, c in a.items():
        if e[j] == 0:
            return None
        le = list(e)
        le[j] -= 1
        out[tuple(le)] = c
    return out


def pgrade(a, k):
    return {e: c for e, c in a.items() if sum(e) == k}


def ptrunc(a, cap):
    return {e: c for e, c in a.items() if sum(e) <= cap}


def pcanon(a, cap):
    """Coerce coefficients to Fraction, drop zeros and over-cap terms."""
    out = {}
    for e, c in a.items():
        if sum(e) > cap:
            continue
        c = Fraction(c)
        if c:
            out[tuple(int(x) for x in e)] = c
    return out


def t_dot(polys, cap: int) -> TruncPoly:
    """sum_i t_i * polys[i-1] at the given cap (1-based i)."""
    acc = None
    for i, p in enumerate(polys, start=1):
        term = p.with_cap(cap).mul_var(i)
        acc = term if acc is None else acc + term
    return acc

