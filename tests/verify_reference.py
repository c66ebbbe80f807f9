"""The law inputs that lmc replaced: the references for
tests/test_verify_parity.py (tuple_module_terms is also the basis formula
of tests/endo_reference.py).

tuple_module_terms and from_basis: each basis commutator contributes two
module terms keyed by exponent tuples, summed as Fractions, where
liealg.from_basis sums integer numerators at packed codes over one
denominator.

agree_with_ginn_apply: every generator image of every map checked against
the GInn sum of tests/element_reference.ginn_sum over the reference
bracket of tests/ideal_reference.py, taken afresh for each map and each
nonzero f_j, where verify._agree_with_ginn_apply reads one table of
generator brackets per context, kept until liealg.bracket is rebound, and
compares each sum with a column of a closed-form Jacobian.

sample: the sampler as it was, drawing each coefficient with randint,
GInn parameters over all_monomials, and building elements with the
from_basis above, where verify.sample draws with randrange into packed
module codes.
SAMPLE_KINDS are the kinds it had; the later kind `aut` draws from its
own generator, so these kinds' draws must not change with it.

to_endo: a scaled normal map as the chain-rule composite of the scalar
map alpha I after the GInn map of tests/endo_reference.ginn_to_endo, where
NormalAut.to_endo is the map of its closed-form Jacobian alpha J_g(alpha t).

LAWS: abelian, nilpotent2, metabelian and class2_by_abelian as the four
functions they were, each writing out its commutators of maps, the GInn
maps of endo_reference.ginn_to_endo and the scaled normal maps of to_endo
above, and certifying the GInn maps with agree_with_ginn_apply above;
lmc.verify states each as a commutator word evaluated by one recursion on
the closed-form Jacobians that one _certified_maps certifies.
"""

import random
from fractions import Fraction

import endo_reference
from element_reference import ginn_sum
from ideal_reference import bracket

from lmc import endo, liealg, normal, verify
from lmc.arith import TruncPoly, all_monomials
from lmc.errors import UsageError

_ZERO = Fraction(0)

SAMPLE_KINDS = ("element", "ginn", "ia", "normal_scaled", "inner")


def tuple_module_terms(ctx, tup, coeff):
    """Module term contributions of coeff * [x_{i1},...,x_{ik}]."""
    i1, i2 = tup[0], tup[1]
    base = [0] * ctx.m
    for r in tup[2:]:
        base[r - 1] += 1
    e1 = list(base)
    e1[i2 - 1] += 1
    e2 = list(base)
    e2[i1 - 1] += 1
    return (i1, tuple(e1), coeff), (i2, tuple(e2), -coeff)


def from_basis(b):
    """Image of the basis coordinates under the wreath embedding."""
    ctx = b.ctx
    mods = [{} for _ in range(ctx.m)]
    for tup, coeff in b.comm.items():
        for i, e, c in tuple_module_terms(ctx, tup, coeff):
            d = mods[i - 1]
            cur = d.get(e, _ZERO) + c
            if cur:
                d[e] = cur
            elif e in d:
                del d[e]
    mod = tuple(TruncPoly(ctx.m, ctx.module_cap, d) for d in mods)
    return liealg.LieElement(ctx, b.linear, mod)


def agree_with_ginn_apply(gs, maps) -> bool:
    def image(g, i):
        x_i = liealg.generator(g.ctx, i)
        return ginn_sum(x_i, lambda j: bracket(x_i, liealg.generator(g.ctx, j)), g.f)

    return all(
        image(g, i) == im for g, phi in zip(gs, maps) for i, im in enumerate(phi.images, start=1)
    )


def to_endo(n):
    ctx = n.g.ctx
    scalar = [[n.alpha if i == j else _ZERO for j in range(ctx.m)] for i in range(ctx.m)]
    return endo.compose(endo.linear_endo(ctx, scalar), endo_reference.ginn_to_endo(n.g))


def sample(kind, ctx, seed, coeff_bound=3):
    if coeff_bound < 1:
        raise UsageError("coeff_bound must be >= 1")
    rnd = random.Random(f"{kind}:{ctx.m}:{ctx.c}:{seed}")
    if kind == "element":
        return _sample_element(ctx, rnd, coeff_bound)
    if kind == "ginn":
        return _sample_ginn(ctx, rnd, coeff_bound)
    if kind == "ia":
        return _sample_ia(ctx, rnd, coeff_bound)
    if kind == "inner":
        return endo.exp_ad(_sample_element(ctx, rnd, coeff_bound))
    if kind == "normal_scaled":
        if ctx.c >= 2 and (ctx.m, ctx.c) not in ((2, 2), (2, 3)):
            raise UsageError(
                f"scaled normal automorphisms do not exist on L_{{{ctx.m},{ctx.c}}}"
            )
        num = rnd.choice([k for k in range(-coeff_bound, coeff_bound + 1) if k])
        den = rnd.randint(1, coeff_bound)
        return normal.NormalAut(Fraction(num, den), _sample_ginn(ctx, rnd, coeff_bound))
    raise UsageError(f"unknown sample kind {kind!r}")


def _sample_comm(ctx, rnd, bound):
    comm = {}
    for k in range(2, ctx.c + 1):
        for tup in liealg.enumerate_basis(ctx, k):
            v = rnd.randint(-bound, bound)
            if v:
                comm[tup] = Fraction(v)
    return comm


def _sample_element(ctx, rnd, bound):
    beta = tuple(Fraction(rnd.randint(-bound, bound)) for _ in range(ctx.m))
    return from_basis(liealg.BasisForm(ctx, beta, _sample_comm(ctx, rnd, bound)))


def _sample_ginn(ctx, rnd, bound):
    if ctx.c == 1:
        return normal.GInnAut.identity(ctx)
    fs = []
    for _ in range(ctx.m):
        terms = {}
        for e in all_monomials(ctx.m, ctx.param_cap):
            v = rnd.randint(-bound, bound)
            if v:
                terms[e] = Fraction(v)
        fs.append(TruncPoly(ctx.m, ctx.param_cap, terms))
    return normal.GInnAut(ctx, tuple(fs))


def _sample_ia(ctx, rnd, bound):
    images = []
    for j in range(1, ctx.m + 1):
        comm = _sample_comm(ctx, rnd, bound)
        w = from_basis(liealg.BasisForm(ctx, (_ZERO,) * ctx.m, comm))
        images.append(liealg.generator(ctx, j) + w)
    return endo.Endomorphism(ctx, tuple(images))


def certified_ginn_maps(ctx, seeds, bound, count):
    gs = [verify.sample("ginn", ctx, seeds(k), bound) for k in range(count)]
    maps = tuple(endo_reference.ginn_to_endo(g) for g in gs)
    return maps, agree_with_ginn_apply(gs, maps)


def law_abelian(ctx, seeds, bound):
    (a, b), ok = certified_ginn_maps(ctx, seeds, bound, 2)
    ok = ok and endo.group_commutator(a, b) == endo.Endomorphism.identity(ctx)
    return ok, (a, b)


def law_nilpotent2(ctx, seeds, bound):
    (a, b, c), ok = certified_ginn_maps(ctx, seeds, bound, 3)
    ok = ok and endo.group_commutator(
        endo.group_commutator(a, b), c
    ) == endo.Endomorphism.identity(ctx)
    return ok, (a, b, c)


def law_metabelian(ctx, seeds, bound):
    (a, b, c, d), ok = certified_ginn_maps(ctx, seeds, bound, 4)
    ok = ok and endo.group_commutator(
        endo.group_commutator(a, b), endo.group_commutator(c, d)
    ) == endo.Endomorphism.identity(ctx)
    return ok, (a, b, c, d)


def law_class2_by_abelian(ctx, seeds, bound):
    auts = [verify.sample("normal_scaled", ctx, seeds(k), bound) for k in range(6)]
    ginn = [endo_reference.ginn_to_endo(n.g) for n in auts]
    ok = agree_with_ginn_apply([n.g for n in auts], ginn)
    ns = tuple(map(to_endo, auts))
    c1 = endo.group_commutator(ns[0], ns[1])
    c2 = endo.group_commutator(ns[2], ns[3])
    c3 = endo.group_commutator(ns[4], ns[5])
    ok = ok and (
        endo.group_commutator(endo.group_commutator(c1, c2), c3)
        == endo.Endomorphism.identity(ctx)
    )
    return ok, ns


LAWS = {
    "abelian": law_abelian,
    "nilpotent2": law_nilpotent2,
    "metabelian": law_metabelian,
    "class2_by_abelian": law_class2_by_abelian,
}
