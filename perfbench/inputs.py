"""Seeded input generators for the benchmark workloads.

Everything here is built from a `random.Random` the caller seeds, so one
seed always gives the same inputs.  The shapes follow the paper's worked
examples: generator images carry a few basis commutators, and
generalized-inner parameters carry a few monomials.
"""

from __future__ import annotations

from fractions import Fraction

from lmc import endo, liealg, normal
from lmc.arith import TruncPoly, all_monomials

COEFFS = (-3, -2, -1, 1, 2, 3)


def sparse_comm(ctx, rnd, n, degree=None):
    """n random basis commutators of the given degree (default: each of a
    random degree 2..c) with small coefficients."""
    comm = {}
    for _ in range(n):
        k = degree or rnd.randint(2, ctx.c)
        tup = rnd.choice(liealg.enumerate_basis(ctx, k))
        comm[tup] = Fraction(rnd.choice(COEFFS))
    return comm


def sparse_element(ctx, rnd, n=3, linear=0, comm=None):
    """Element with n random basis commutators (or the given `comm`) and
    `linear` generators with coefficients +-1.  The cost of exp(ad u)
    grows steeply with the number of generators in u, so it is fixed."""
    beta = [0] * ctx.m
    for j in rnd.sample(range(ctx.m), linear):
        beta[j] = Fraction(rnd.choice((-1, 1)))
    if comm is None:
        comm = sparse_comm(ctx, rnd, n)
    return liealg.from_basis(liealg.BasisForm(ctx, beta, comm))


def sparse_ia(ctx, rnd, n=3, non_ginn=False):
    """IA map x_j -> x_j + (n basis commutators).

    With `non_ginn`, the image of x1 also gets a degree-2 commutator
    [x_p, x_q] with p > q >= 2.  Every commutator in the image of x_i
    under a generalized inner map lies in the ideal of x_i, so such a map
    is certainly not generalized inner (needs m >= 3).
    """
    images = []
    for j in range(1, ctx.m + 1):
        comm = sparse_comm(ctx, rnd, n)
        if non_ginn and j == 1:
            p = rnd.randint(3, ctx.m)
            q = rnd.randint(2, p - 1)
            comm[(p, q)] = Fraction(rnd.choice(COEFFS))
        w = liealg.from_basis(liealg.BasisForm(ctx, (0,) * ctx.m, comm))
        images.append(liealg.generator(ctx, j) + w)
    return endo.Endomorphism(ctx, tuple(images))


def sparse_ginn(ctx, rnd, max_monomials=2):
    """Generalized inner parameters, each with 0..max_monomials monomials;
    at least one parameter is nonzero."""
    monos = all_monomials(ctx.m, ctx.param_cap)
    while True:
        fs = []
        for _ in range(ctx.m):
            terms = {}
            for _ in range(rnd.randint(0, max_monomials)):
                terms[rnd.choice(monos)] = Fraction(rnd.choice(COEFFS))
            fs.append(TruncPoly(ctx.m, ctx.param_cap, terms))
        g = normal.GInnAut(ctx, tuple(fs))
        if not g.is_identity_params():
            return g


def fresh(phi):
    """A copy of phi without its per-object caches, so that every timed
    repetition pays for the work a first call pays for."""
    return endo.Endomorphism(phi.ctx, phi.images)
