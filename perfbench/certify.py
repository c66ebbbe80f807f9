"""Certificates for operation results, run outside the timers.

Each function returns None when the result is certified and a short
reason when it is not.  Where the timed operation has its own internal
check, the certificate takes another route to the answer: Jacobian
products for group commutators, and a plain ideal closure with its own
elimination for ideal questions.
"""

from __future__ import annotations

from lmc import cosets, endo, liealg


def group_commutator(a, b, result):
    """J(result) = J(a)^-1 J(b)^-1 J(a) J(b), the Jacobian being a faithful
    semigroup isomorphism on IA maps."""
    if not result.is_ia():
        return "commutator is not IA"
    ja, jb = endo.jacobian(a), endo.jacobian(b)
    expected = ja.neumann_inverse() @ jb.neumann_inverse() @ ja @ jb
    if endo.jacobian(result) != expected:
        return "Jacobian differs from J(a)^-1 J(b)^-1 J(a) J(b)"
    return None


def theta_form(phi, form):
    if form.jac != endo.jacobian(form.endo):
        return "returned Jacobian does not belong to the returned map"
    if not cosets.shape_check(form.jac, "theta"):
        return "representative fails the theta shape"
    if not cosets.same_coset(form.endo, phi, "ginn"):
        return "representative left the coset modulo normal IA maps"
    return None


def psi_form(phi, form):
    if form.jac != endo.jacobian(form.endo):
        return "returned Jacobian does not belong to the returned map"
    if not cosets.shape_check(form.jac, "psi"):
        return "representative fails the psi shape"
    if not cosets.same_coset(form.endo, phi, "inn"):
        return "representative left the coset modulo inner maps"
    return None


def inner_generator(u, v):
    """recognize_inner(exp_ad(u)) returned v: exp_ad(v) must equal exp_ad(u)."""
    if v is None:
        return "inner map not recognized"
    if endo.exp_ad(v) != endo.exp_ad(u):
        return "exp_ad of the returned generator differs"
    return None


def ginn_verdict(phi, g, ideals, verdict):
    """A generalized inner map is normal and preserves every ideal."""
    if not verdict.normal:
        return "generalized inner map judged not normal"
    if verdict.aut is None or verdict.aut.alpha != 1 or verdict.aut.g != g:
        return "normal verdict carries the wrong parameters"
    for gens in ideals:
        if not preserves(phi, gens):
            return "generalized inner map moves a sampled ideal"
    return None


def non_ginn_verdict(phi, verdict):
    """A non-generalized-inner IA map is not normal, and the returned
    witness ideal is not preserved."""
    if verdict.normal:
        return "non generalized inner IA map judged normal"
    if not verdict.witness:
        return "non-normal verdict without a witness ideal"
    if preserves(phi, verdict.witness):
        return "witness ideal is preserved"
    return None


# -- ideals, by a closure independent of liealg.ideal_closure -------------------


class _Echelon:
    """Rows kept in insertion order; each row is zero at the pivots of the
    rows before it, so reducing in insertion order is exact."""

    def __init__(self):
        self.rows = []

    def reduce(self, vec):
        vec = dict(vec)
        for pivot, row in self.rows:
            f = vec.get(pivot)
            if f:
                for k, v in row.items():
                    cur = vec.get(k, 0) - f * v
                    if cur:
                        vec[k] = cur
                    else:
                        vec.pop(k, None)
        return vec

    def add(self, vec):
        res = self.reduce(vec)
        if not res:
            return False
        pivot = min(res)
        inv = 1 / res[pivot]
        self.rows.append((pivot, {k: v * inv for k, v in res.items()}))
        return True


def preserves(phi, gens):
    """phi maps the ideal I generated by gens onto itself.

    phi is an automorphism, so phi(I) is the ideal generated by the images
    of gens; it lies in I exactly when every such image does, and then
    equals I by dimension.
    """
    ctx = phi.ctx
    xs = [liealg.generator(ctx, j) for j in range(1, ctx.m + 1)]
    span = _Echelon()
    queue = [g for g in gens if span.add(liealg.element_vector(g))]
    while queue:
        w = queue.pop()
        for x in xs:
            b = liealg.bracket(w, x)
            if span.add(liealg.element_vector(b)):
                queue.append(b)
    return all(not span.reduce(liealg.element_vector(_image(phi, g))) for g in gens)


def _image(phi, u):
    """phi(u); a linear u maps to the same combination of generator images."""
    if any(not p.is_zero() for p in u.mod):
        return phi.apply(u)
    acc = liealg.zero(phi.ctx)
    for im, b in zip(phi.images, u.beta):
        if b:
            acc = acc + im.scale(b)
    return acc
