"""Seeded randomized verification of the group-structure laws.

Each law is an exact endomorphism identity evaluated on independently
sampled tuples; a passing report is a regression tripwire, not evidence
(the laws are theorems).  Laws are guarded by the contexts they are
proved for, so a report can never reflect a vacuous domain:

  abelian            (a,b) = 1 on GInn                c = 2
  nilpotent2         ((a,b),c) = 1 on GInn            c = 3
  metabelian         ((a,b),(c,d)) = 1 on GInn        c >= 4 or (m,c)=(2,2)
  class2_by_abelian  (((a,b),(c,d)),(e,f)) = 1 on
                     scaled normal maps               (m,c) = (2,3)
  jacobian_functorial J(phi psi) = J(phi) J(psi) and
                     phi(phi^-1(x_i)) = x_i on IA     any
  ginn_normal_oracle sampled GInn maps preserve
                     sampled principal ideals         any
  inner_conjugation  phi^-1 exp(ad u) phi =
                     exp(ad phi^-1(u)), phi sampled
                     with any invertible linear part  any

The first four are commutator words, (a,b) = a^-1 b^-1 a b, each
evaluated by one recursion (_commutator) of endo.jacobian_commutator on
the closed-form Jacobians of sampled normal maps, a GInn sample being the
normal map with alpha 1: normal.ginn_jacobian(g), and alpha J(alpha t)
of it for alpha != 1 (NormalAut.jacobian, the chain rule for alpha I
after the GInn map).  The Jacobian determines the map, so a law holds
iff J(word) = I.  A passing trial builds no map; a failed one
materializes its maps from their Jacobians (NormalAut.to_endo) for the
counterexample.
Group commutators and compositions are Jacobian products (lmc.endo),
and a sign-flipped bracket is still a Lie bracket, so these laws alone
cannot see a broken bracket.  Their inputs are therefore certified
against it: column i of the Jacobian of the GInn part of every map of a
word law must hold the coordinates of x_i + sum_j [x_i, x_j] f_j, the
assembly of ginn_apply (normal.ginn_sum), which compares the images of
the maps the Jacobians determine; jacobian_functorial builds phi psi
through phi.apply, not compose, and applies phi to the images of
phi^-1.  A failed certificate is a counterexample like a failed law.
inner_conjugation needs no certificate: its right side applies phi^-1 to
u through the bracket, its left side is Jacobian products only, and it
is the one law that applies a map that is not IA (through
arith.LinearSubstitution when the linear part is not scalar).

The brackets [x_i, x_j] come from one table of liealg.bracket over all m^2
ordered generator pairs, built by the first certificate call in a context
and kept with the liealg.bracket it was built with; a call that finds
liealg.bracket rebound (patched, or wrapped by a tracer) builds it again.
Brackets are pure, so that is as strong as bracketing per map: the
certificate only ever brackets generator pairs, and their arguments are
the same for every map.  No entry stands in for another: [x_j, x_i] is
bracketed, not read as -[x_i, x_j].

Sampling is deterministic in (kind, ctx, seed): coefficients are integers
b - bound for b = randrange(2 * bound + 1), the draw randint(-bound, bound)
makes, with bound = coeff_bound, drawn in a fixed order (a basis
commutator's straight into its packed module codes), and per-trial seeds
are derived from the trial index, so reports are reproducible and trials
independent.  Each kind draws from its own generator, so adding a kind
changes no other kind's samples.  An `aut` sample is an integer matrix,
redrawn until invertible, after an `ia` sample drawn next.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import endo as _endo
from . import liealg, normal, syntax
from .arith import TruncPoly, _encode, all_monomials
from .errors import UsageError
from .liealg import Context
from .linalg import mat_inv

SAMPLE_KINDS = ("element", "ginn", "ia", "normal_scaled", "inner", "aut")


@dataclass
class LawReport:
    law: str
    m: int
    c: int
    requested: int
    passed: int
    counterexample: str | None
    seed: int
    elapsed: float

    @property
    def ok(self) -> bool:
        return self.counterexample is None

    def to_dict(self) -> dict:
        return {
            "law": self.law,
            "m": self.m,
            "c": self.c,
            "trials_requested": self.requested,
            "trials_passed": self.passed,
            "counterexample": self.counterexample,
            "seed": self.seed,
            "elapsed_seconds": round(self.elapsed, 6),
        }


def _rng(kind: str, ctx: Context, seed) -> random.Random:
    return random.Random(f"{kind}:{ctx.m}:{ctx.c}:{seed}")


def sample(kind: str, ctx: Context, seed, coeff_bound: int = 3):
    """Deterministic pseudo-random object of the requested kind."""
    if coeff_bound < 1:
        raise UsageError("coeff_bound must be >= 1")
    rnd = _rng(kind, ctx, seed)
    if kind == "element":
        return _sample_element(ctx, rnd, coeff_bound)
    if kind == "ginn":
        return _sample_ginn(ctx, rnd, coeff_bound)
    if kind == "ia":
        return _sample_ia(ctx, rnd, coeff_bound)
    if kind == "inner":
        return _endo.exp_ad(_sample_element(ctx, rnd, coeff_bound))
    if kind == "aut":
        return _sample_aut(ctx, rnd, coeff_bound)
    if kind == "normal_scaled":
        if not normal.scalars_are_normal(ctx):
            raise UsageError(
                f"scaled normal automorphisms do not exist on L_{{{ctx.m},{ctx.c}}}"
            )
        num = rnd.choice([k for k in range(-coeff_bound, coeff_bound + 1) if k])
        den = rnd.randint(1, coeff_bound)
        return normal.NormalAut(Fraction(num, den), _sample_ginn(ctx, rnd, coeff_bound))
    raise UsageError(f"unknown sample kind {kind!r}")


def _sample_form(ctx, rnd, bound, beta):
    """The element with linear part beta and one draw per basis commutator
    of degree 2..c, in enumeration order, each added straight into the
    packed module codes of its commutator (liealg._basis_terms) as
    liealg.from_basis adds a coefficient."""
    draw, span = rnd.randrange, 2 * bound + 1
    mods = [{} for _ in range(ctx.m)]
    for _, i1, code1, i2, code2 in liealg._basis_terms(ctx.m, ctx.c).values():
        v = draw(span) - bound
        if v:
            for d, code, n in ((mods[i1], code1, v), (mods[i2], code2, -v)):
                n += d.get(code, 0)
                if n:
                    d[code] = n
                else:
                    del d[code]
    mod = tuple(TruncPoly.from_codes(ctx.m, ctx.module_cap, d) for d in mods)
    return liealg.LieElement._clean(ctx, tuple(map(Fraction, beta)), mod)


def _sample_element(ctx, rnd, bound):
    beta = tuple(rnd.randrange(2 * bound + 1) - bound for _ in range(ctx.m))
    return _sample_form(ctx, rnd, bound, beta)


def _sample_ginn(ctx, rnd, bound):
    if ctx.c == 1:
        return normal.GInnAut.identity(ctx)
    codes = _monomial_codes(ctx.m, ctx.param_cap)
    draw, span = rnd.randrange, 2 * bound + 1
    fs = []
    for _ in range(ctx.m):
        nums = {}
        for code in codes:
            v = draw(span) - bound
            if v:
                nums[code] = v
        fs.append(TruncPoly.from_codes(ctx.m, ctx.param_cap, nums))
    return normal.GInnAut(ctx, tuple(fs))


@lru_cache(maxsize=None)
def _monomial_codes(m: int, cap: int) -> tuple:
    """The codes of all_monomials(m, cap), in its order, which is the order
    of the draws."""
    return tuple(_encode(e, m) for e in all_monomials(m, cap))


def _sample_ia(ctx, rnd, bound):
    """x_j -> x_j plus sampled commutators, for j = 1..m in turn."""
    units = [tuple(int(k == j) for k in range(ctx.m)) for j in range(ctx.m)]
    return _endo.Endomorphism(ctx, tuple(_sample_form(ctx, rnd, bound, u) for u in units))


def _sample_aut(ctx, rnd, bound):
    m = ctx.m
    while True:
        a = [[rnd.randrange(2 * bound + 1) - bound for _ in range(m)] for _ in range(m)]
        if mat_inv(a) is not None:
            return _endo.compose(_endo.linear_endo(ctx, a), _sample_ia(ctx, rnd, bound))


# -- law evaluation --------------------------------------------------------------


def _describe(*objs) -> str:
    """The counterexample text of a failed trial; a normal map is printed
    as the map it materializes (NormalAut.to_endo)."""
    parts = []
    for obj in objs:
        if isinstance(obj, normal.NormalAut):
            obj = obj.to_endo()
        if isinstance(obj, normal.GInnAut):
            parts.append({"ginn_f": [str(p) for p in obj.f]})
        elif isinstance(obj, _endo.Endomorphism):
            parts.append(syntax.automorphism_dict(obj))
        else:
            parts.append(repr(obj))
    return json.dumps(parts)


def _certified_maps(kind, ctx, seeds, bound, count):
    """`count` sampled normal maps of `kind` ("ginn", wrapped as alpha 1,
    or "normal_scaled"), their closed-form Jacobians, and whether the
    Jacobians of their GInn parts pass _agree_with_ginn_apply.  Each map
    builds one ginn_jacobian, which is certified and from which
    NormalAut.jacobian gives the map's own."""
    ns = [sample(kind, ctx, seeds(k), bound) for k in range(count)]
    if kind == "ginn":
        ns = [normal.NormalAut(1, g) for g in ns]
    ginn = [normal.ginn_jacobian(n.g) for n in ns]
    jacs = [n.jacobian(j) for n, j in zip(ns, ginn)]
    return ns, jacs, _agree_with_ginn_apply([n.g for n in ns], ginn)


def _agree_with_ginn_apply(gs, jacs) -> bool:
    """Whether column i of each Jacobian holds the coordinates, constant
    terms included, of x_i + sum_j [x_i, x_j] f_j, the assembly of
    normal.ginn_apply, with its GInn parameters f and the brackets read
    from the context's table of liealg.bracket over the ordered generator
    pairs (_generator_brackets; the certificate the module docstring
    describes).  The Jacobian determines the map, so this is the
    comparison of the maps' images."""
    x, table = _generator_brackets(gs[0].ctx)
    coords = range(1, len(x) + 1)
    for g, jac in zip(gs, jacs):
        for i, xi in enumerate(x):
            im = normal.ginn_sum(xi, lambda j: table[i][j - 1], g.f)
            if [im.full_poly(k) for k in coords] != [row[i] for row in jac.rows]:
                return False
    return True


# ctx -> (the liealg.bracket the table was built with, generators, table)
_BRACKET_TABLES = {}


def _generator_brackets(ctx):
    """The generators x_1..x_m of ctx and the table [x_i, x_j] of
    liealg.bracket over all m^2 ordered pairs, built once per context and
    again whenever liealg.bracket is rebound (a patched or traced bracket)."""
    bracket = liealg.bracket
    cached = _BRACKET_TABLES.get(ctx)
    if cached is None or cached[0] is not bracket:
        x = [liealg.generator(ctx, i) for i in range(1, ctx.m + 1)]
        cached = _BRACKET_TABLES[ctx] = (bracket, x, [[bracket(xi, xj) for xj in x] for xi in x])
    return cached[1:]


def _commutator(word, jacs):
    """The Jacobian of the group commutator the word names, from the
    Jacobians of the maps: an index is that map's, a pair (u, v) the
    commutator of its two words."""
    if isinstance(word, int):
        return jacs[word]
    u, v = word
    return _endo.jacobian_commutator(_commutator(u, jacs), _commutator(v, jacs))


def _word_law(kind, count, word):
    """The law that `word` is the identity on `count` maps of `kind`; the
    inputs it returns are the normal maps, which only a failed trial
    materializes (_describe)."""

    def law(ctx, seeds, bound):
        ns, jacs, ok = _certified_maps(kind, ctx, seeds, bound, count)
        ok = ok and _commutator(word, jacs) == _endo.JacobianMatrix.identity(ctx)
        return ok, ns

    return law


def _law_jacobian_functorial(ctx, seeds, bound):
    phi = sample("ia", ctx, seeds(0), bound)
    psi = sample("ia", ctx, seeds(1), bound)
    # compose of IA maps is a Jacobian product; apply is the bracket-built side
    composite = _endo.Endomorphism(ctx, tuple(phi.apply(im) for im in psi.images))
    ok = _endo.jacobian(composite) == _endo.jacobian(phi) @ _endo.jacobian(psi)
    ok = ok and all(
        phi.apply(im) == liealg.generator(ctx, i)
        for i, im in enumerate(_endo.invert(phi).images, start=1)
    )
    return ok, (phi, psi)


def _law_ginn_normal_oracle(ctx, seeds, bound):
    g = sample("ginn", ctx, seeds(0), bound)
    u = sample("element", ctx, seeds(1), bound)
    ok = normal.preserves_ideal(normal.ginn_to_endo(g), [u])
    return ok, (g, u)


def _law_inner_conjugation(ctx, seeds, bound):
    phi = sample("aut", ctx, seeds(0), bound)
    u = sample("element", ctx, seeds(1), bound)
    inv = _endo.invert(phi)
    conjugate = _endo.compose(_endo.compose(inv, _endo.exp_ad(u)), phi)
    return conjugate == _endo.exp_ad(inv.apply(u)), (phi, u)


_LAWS = {
    "abelian": _word_law("ginn", 2, (0, 1)),
    "nilpotent2": _word_law("ginn", 3, ((0, 1), 2)),
    "metabelian": _word_law("ginn", 4, ((0, 1), (2, 3))),
    "class2_by_abelian": _word_law("normal_scaled", 6, (((0, 1), (2, 3)), (4, 5))),
    "jacobian_functorial": _law_jacobian_functorial,
    "ginn_normal_oracle": _law_ginn_normal_oracle,
    "inner_conjugation": _law_inner_conjugation,
}

LAW_NAMES = tuple(_LAWS)


def check_law(
    law: str, ctx: Context, trials: int, seed: int, coeff_bound: int = 3
) -> LawReport:
    """Run `trials` independent seeded evaluations of the named law."""
    if law not in _LAWS:
        raise UsageError(f"unknown law {law!r}; choose from {', '.join(LAW_NAMES)}")
    if trials < 1:
        raise UsageError("trials must be >= 1")
    normal.check_law_guard(law, ctx)
    evaluate = _LAWS[law]
    started = time.perf_counter()
    passed = 0
    counterexample = None
    for t in range(trials):
        seeds = lambda slot: f"{law}:{seed}:{t}:{slot}"
        ok, inputs = evaluate(ctx, seeds, coeff_bound)
        if ok:
            passed += 1
        else:
            counterexample = _describe(*inputs)
            break
    return LawReport(
        law=law,
        m=ctx.m,
        c=ctx.c,
        requested=trials,
        passed=passed,
        counterexample=counterexample,
        seed=seed,
        elapsed=time.perf_counter() - started,
    )
