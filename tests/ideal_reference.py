"""The bracket, the ideal closure and the ideal-preservation test that lmc
replaced: the reference for tests/test_ideal_parity.py, and the bracket
reference of tests/test_element_parity.py and tests/endo_reference.apply.

bracket builds both linear forms through the tuple-keyed TruncPoly
constructor and multiplies every coordinate by both.  ideal_closure
brackets every new basis element with x_1..x_m by this module's bracket
and spans the Fraction coordinates of vector over the Fraction reference
solver (tests/linalg_reference.py); spans_equal compares two such spans.
preserves_ideal applies phi to every vector of the closure and compares
the span of the images with the ideal.  None of them runs liealg.bracket,
liealg.ideal_span or lmc.linalg.
"""

from fractions import Fraction

from linalg_reference import SpanBasis

from lmc import liealg
from lmc.arith import TruncPoly
from lmc.errors import ContextMismatch
from lmc.liealg import LieElement

_ZERO = Fraction(0)


def _linear_form(ctx, coeffs) -> TruncPoly:
    """sum coeffs[j] * t_{j+1} at the module cap."""
    terms = {}
    for j, b in enumerate(coeffs):
        if b:
            e = [0] * ctx.m
            e[j] = 1
            terms[tuple(e)] = b
    return TruncPoly(ctx.m, ctx.module_cap, terms)


def bracket(u: LieElement, v: LieElement) -> LieElement:
    """Lie bracket [u, v]."""
    u._check(v)
    ctx = u.ctx
    s_u = _linear_form(ctx, u.beta)
    s_v = _linear_form(ctx, v.beta)
    mod = tuple(
        u.full_poly(i) * s_v - v.full_poly(i) * s_u for i in range(1, ctx.m + 1)
    )
    return LieElement(ctx, (_ZERO,) * ctx.m, mod)


def vector(u: LieElement) -> dict:
    """The Fraction coordinates of u: key (0, i, ()) for beta_i and (1, i, e)
    for the term t^e of module coordinate i."""
    vec = {(0, i, ()): b for i, b in enumerate(u.beta, start=1) if b}
    for i, p in enumerate(u.mod, start=1):
        for e, c in p.items():
            vec[(1, i, e)] = c
    return vec


def span_of(elements) -> SpanBasis:
    span = SpanBasis()
    for u in elements:
        span.add(vector(u))
    return span


def spans_equal(elems_a, elems_b) -> bool:
    """The two lists span one space: equal dimension, and b inside a."""
    span_a = span_of(elems_a)
    return span_a.dim() == span_of(elems_b).dim() and all(
        span_a.contains(vector(w)) for w in elems_b
    )


def ideal_closure(gens) -> list:
    """Linear basis of the smallest ideal containing the given elements."""
    ctx = gens[0].ctx
    xs = [liealg.generator(ctx, j) for j in range(1, ctx.m + 1)]
    span = SpanBasis()
    basis = []
    queue = []
    for g in gens:
        if span.add(vector(g)):
            basis.append(g)
            queue.append(g)
    while queue:
        w = queue.pop()
        for xj in xs:
            b = bracket(w, xj)
            if not b.is_zero() and span.add(vector(b)):
                basis.append(b)
                queue.append(b)
    return basis


def preserves_ideal(phi, gens) -> bool:
    """True iff phi maps the ideal generated by gens onto itself."""
    gens = list(gens)
    if any(g.ctx != phi.ctx for g in gens):
        raise ContextMismatch("ideal generators live in a different context")
    if all(g.is_zero() for g in gens):
        return True
    basis = ideal_closure([g for g in gens if not g.is_zero()])
    span = span_of(basis)
    images = [phi.apply(w) for w in basis]
    if any(not span.contains(vector(w)) for w in images):
        return False
    return span_of(images).dim() == span.dim()
