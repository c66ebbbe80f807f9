"""recognize_inner against the degree-peeling version it replaced.

tests/inner_reference.py keeps the recognizer that peels exp(ad u) one
degree at a time with linear solves against the ad-images of the basis.
normal.recognize_inner inverts the closed form of normal.inner_params
instead.  Both must give the same verdict and the same generator on inner
maps of zero, linear-only, derived-only, mixed and fractional elements, on
generalized inner maps that are not inner (among them the section-3 map),
on sampled IA maps that are not generalized inner, and on the identity, in
contexts with c = 1 and c = 2.
"""

from fractions import Fraction as F
from math import factorial

import inner_reference as ref
import pytest

from lmc import endo, liealg, normal, syntax
from lmc.arith import TruncPoly
from lmc.liealg import Context, LieElement
from lmc.verify import sample

CONTEXTS = [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (3, 3), (3, 4), (2, 5), (4, 4)]


def elements(ctx, tag):
    """Named elements: zero, linear-only, derived-only, mixed, fractional."""
    mixed = sample("element", ctx, tag)
    linear = LieElement(ctx, mixed.beta, (ctx.zero_poly(),) * ctx.m)
    fractional = LieElement(
        ctx, tuple(F(k + 1, k + 3) for k in range(ctx.m)), (ctx.zero_poly(),) * ctx.m
    ) + sample("element", ctx, tag + "-frac").scale(F(2, 3))
    return {
        "zero": liealg.zero(ctx),
        "linear": linear,
        "derived": mixed - linear,
        "mixed": mixed,
        "fractional": fractional,
    }


def not_inner_ginn(ctx):
    """x_i -> x_i + [x_i, x_2, x_2]: parameters f = t_2 e_2, not inner
    because sum_k t_k W_k = t_2^2 != 0 (needs c >= 3)."""
    f = [TruncPoly.zero(ctx.m, ctx.param_cap) for _ in range(ctx.m)]
    f[1] = TruncPoly.var(ctx.m, ctx.param_cap, 2)
    return normal.ginn_to_endo(normal.GInnAut(ctx, f))


def non_ginn_ia(ctx, tag):
    """A sampled IA map with [x_3, x_2] added to the image of x_1: every
    commutator in the image of x_i under a generalized inner map lies in
    the ideal of x_i, so this one is not generalized inner (m >= 3)."""
    phi = sample("ia", ctx, tag)
    extra = liealg.bracket(liealg.generator(ctx, 3), liealg.generator(ctx, 2))
    return endo.Endomorphism(ctx, (phi.images[0] + extra,) + phi.images[1:])


def maps(ctx, tag):
    out = {f"exp_ad {name}": endo.exp_ad(u) for name, u in elements(ctx, tag).items()}
    out["identity"] = endo.Endomorphism.identity(ctx)
    out["ginn"] = normal.ginn_to_endo(sample("ginn", ctx, tag))
    out["ia"] = sample("ia", ctx, tag)
    if ctx.c >= 3:
        out["ginn not inner"] = not_inner_ginn(ctx)
    if ctx.m >= 3 and ctx.c >= 2:
        out["not ginn"] = non_ginn_ia(ctx, tag)
    return out


@pytest.mark.parametrize("m,c", CONTEXTS)
def test_recognize_inner_matches_reference(m, c):
    ctx = Context(m, c)
    verdicts = {}
    for trial in range(2):
        for name, phi in maps(ctx, f"inner-{m}-{c}-{trial}").items():
            got = normal.recognize_inner(phi)
            assert got == ref.recognize_inner(phi), name
            verdicts[name] = got is not None
            if got is not None:
                assert endo.exp_ad(got) == phi, name
    assert all(verdicts[name] for name in verdicts if name.startswith("exp_ad"))
    assert not verdicts.get("ginn not inner", False)
    assert not verdicts.get("not ginn", False)


def test_section3_map_is_ginn_but_not_inner():
    section3 = syntax.parse_automorphism(
        {"m": 2, "c": 3, "images": ["x1 + 1*[x1,x2,x2]", "x2"]}
    )
    assert section3 == not_inner_ginn(Context(2, 3))
    assert normal.recognize_ginn(section3) is not None
    assert normal.recognize_inner(section3) is None
    assert ref.recognize_inner(section3) is None


def test_non_ginn_ia_is_not_ginn():
    ctx = Context(3, 3)
    assert normal.recognize_ginn(non_ginn_ia(ctx, "check")) is None


@pytest.mark.parametrize("m,c", CONTEXTS)
def test_inner_params_materialize_to_exp_ad(m, c):
    ctx = Context(m, c)
    for trial in range(2):
        for name, u in elements(ctx, f"params-{m}-{c}-{trial}").items():
            assert normal.ginn_to_endo(normal.inner_params(u)) == endo.exp_ad(u), name


@pytest.mark.parametrize("m,c", [(2, 3), (3, 4), (2, 5), (4, 4)])
def test_inner_params_of_a_linear_element(m, c):
    """u = sum gamma_j x_j gives f_j = gamma_j * sum_n s^n/(n+1)!, the
    powers of s = sum gamma_k t_k summed one by one."""
    ctx = Context(m, c)
    cap = ctx.param_cap
    gamma = tuple(F(k - 1, k + 1) for k in range(1, m + 1))
    s = TruncPoly.linear(m, cap, gamma)
    series = TruncPoly.zero(m, cap)
    power = TruncPoly.const(m, cap, 1)
    for n in range(cap + 1):
        series = series + power.scale(F(1, factorial(n + 1)))
        power = power * s
    u = LieElement(ctx, gamma, (ctx.zero_poly(),) * m)
    assert normal.inner_params(u).f == tuple(series.scale(g) for g in gamma)
