"""The element layer's one integer pass per module coordinate against the
references it replaced.

liealg.bracket against tests/ideal_reference.bracket, which multiplies
every coordinate by both linear forms; Endomorphism.apply against the
basis expansion of tests/endo_reference.apply; normal.ginn_sum and
endo._from_jacobian against the TruncPoly chains of
tests/element_reference.py.  Each must give the element the reference
gives, compared with == and also numerator map by numerator map and
denominator by denominator, with Fraction linear coordinates and a tuple
of module coordinates, since LieElement._clean takes them as they come.
Inputs have fractional linear parts and fractional module denominators;
they are derived (no linear part), one-term (a multiple of one generator)
or dense, on contexts with c = 1 and c = 2 among others.  apply runs on IA
maps and on maps that are not IA: a scalar linear part (the dilation
path of Endomorphism._substituted), a non-scalar one
(arith.LinearSubstitution) and sampled `aut` maps.

LieElement._clean checks the invariants exactly when CHECK_INVARIANTS is
on, as tests/conftest.py sets it, and runs no t_dot when it is off.
"""

from fractions import Fraction as F

import element_reference as ref
import endo_reference
import ideal_reference
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lmc import endo, liealg, normal
from lmc.arith import LinearSubstitution, TruncPoly, all_monomials
from lmc.errors import DomainError, ValidationError
from lmc.liealg import BasisForm, Context, LieElement
from lmc.linalg import mat_inv
from lmc.verify import sample

CONTEXTS = [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (3, 3), (3, 4), (2, 5), (4, 4)]

fractions = st.builds(F, st.integers(-4, 4), st.integers(1, 5))
nonzero = fractions.filter(bool)
contexts = st.sampled_from(CONTEXTS).map(lambda mc: Context(*mc))


def assert_same(got: LieElement, want: LieElement):
    assert got == want
    assert all(type(b) is F for b in got.beta)
    assert type(got.mod) is tuple and len(got.mod) == got.ctx.m
    assert [(p.nv, p.cap) for p in got.mod] == [(got.ctx.m, got.ctx.module_cap)] * got.ctx.m
    assert [(p.nums, p.den) for p in got.mod] == [(p.nums, p.den) for p in want.mod]


@st.composite
def derived(draw, ctx):
    """A derived element with fractional basis coordinates, sparse or dense."""
    tuples = [t for k in range(2, ctx.c + 1) for t in liealg.enumerate_basis(ctx, k)]
    if tuples and draw(st.booleans()):
        tuples = draw(st.lists(st.sampled_from(tuples), unique=True, max_size=5))
    return liealg.from_basis(BasisForm(ctx, (F(0),) * ctx.m, {t: draw(fractions) for t in tuples}))


@st.composite
def elements(draw, ctx):
    """A derived, one-term or dense element with fractional coordinates."""
    shape = draw(st.sampled_from(["derived", "one-term", "dense"]))
    beta = [F(0)] * ctx.m
    if shape == "one-term":
        beta[draw(st.integers(0, ctx.m - 1))] = draw(nonzero)
    elif shape == "dense":
        beta = [draw(fractions) for _ in range(ctx.m)]
    w = draw(derived(ctx))
    return LieElement(ctx, beta, w.mod)


@st.composite
def maps(draw, ctx, kind):
    """An IA map with fractional images, or a linear map after one: alpha I
    for kind "dilation", a non-scalar invertible matrix for "substitution"."""
    ia = endo.Endomorphism(
        ctx, tuple(liealg.generator(ctx, j) + draw(derived(ctx)) for j in range(1, ctx.m + 1))
    )
    if kind == "ia":
        return ia
    m = ctx.m
    if kind == "dilation":
        alpha = draw(nonzero.filter(lambda a: a != 1))
        a = [[alpha if i == k else F(0) for i in range(m)] for k in range(m)]
    else:
        a = [[draw(fractions) for _ in range(m)] for _ in range(m)]
        assume(mat_inv(a) is not None)
        assume(any(a[k][i] != (a[0][0] if k == i else 0) for k in range(m) for i in range(m)))
    return endo.compose(endo.linear_endo(ctx, a), ia)


@settings(max_examples=200, deadline=None, database=None)
@given(st.data())
def test_bracket_matches_reference(data):
    ctx = data.draw(contexts)
    u, v = data.draw(elements(ctx)), data.draw(elements(ctx))
    for a, b in ((u, v), (v, u), (u, u)):
        assert_same(liealg.bracket(a, b), ideal_reference.bracket(a, b))


@pytest.mark.parametrize("m,c", CONTEXTS)
def test_bracket_matches_reference_on_fixed_shapes(m, c):
    ctx = Context(m, c)
    x = [liealg.generator(ctx, i) for i in range(1, m + 1)]
    dense = sample("element", ctx, "bracket-dense").scale(F(2, 3))
    w = dense - LieElement(ctx, dense.beta, (ctx.zero_poly(),) * m)
    half_x = x[1].scale(F(-1, 2))
    cases = [(dense, xi) for xi in x] + [(xi, dense) for xi in x]
    cases += [(dense, dense), (w, w), (w, dense), (half_x, w), (dense, half_x), (x[0], x[1])]
    for u, v in cases:
        assert_same(liealg.bracket(u, v), ideal_reference.bracket(u, v))
    assert liealg.bracket(w, w).is_zero() and liealg.bracket(dense, dense).is_zero()


@settings(max_examples=120, deadline=None, database=None)
@given(st.data())
def test_apply_matches_reference(data):
    ctx = data.draw(contexts)
    kind = data.draw(st.sampled_from(["ia", "dilation", "substitution", "aut"]))
    if kind == "aut":  # its linear part may be scalar, or even I
        phi = sample("aut", ctx, data.draw(st.integers(0, 10**6)))
    else:
        phi = data.draw(maps(ctx, kind))
        assert phi.is_ia() == (kind == "ia")
    u = data.draw(elements(ctx))
    assert_same(phi.apply(u), endo_reference.apply(phi, u))
    if kind != "aut" and "subs" in phi._cache:  # a map that is not IA read a derived part
        assert isinstance(phi._cache["subs"], LinearSubstitution) == (kind != "dilation")


@pytest.mark.parametrize("m,c", [(2, 2), (3, 3), (3, 4), (2, 5)])
def test_apply_takes_both_substitution_paths(m, c):
    ctx = Context(m, c)
    u = sample("element", ctx, "apply-paths").scale(F(3, 4))
    ia = sample("ia", ctx, "apply-paths")
    scalar = [[F(-2, 3) if i == k else F(0) for i in range(m)] for k in range(m)]
    shear = [[F(1) if i == k else F(1, 2) if i == k + 1 else F(0) for i in range(m)] for k in range(m)]
    for a, path in ((scalar, "dilation"), (shear, "substitution")):
        phi = endo.compose(endo.linear_endo(ctx, a), ia)
        assert_same(phi.apply(u), endo_reference.apply(phi, u))
        assert isinstance(phi._cache["subs"], LinearSubstitution) == (path == "substitution")


@st.composite
def params(draw, ctx):
    """GInn-shaped parameters f_1..f_m at cap c-2, fractional, sparse or dense."""
    monos = all_monomials(ctx.m, ctx.param_cap)
    out = []
    for _ in range(ctx.m):
        chosen = monos if draw(st.booleans()) else draw(st.lists(st.sampled_from(monos), max_size=3))
        out.append(TruncPoly(ctx.m, ctx.param_cap, {e: draw(fractions) for e in chosen}))
    return tuple(out)


@settings(max_examples=120, deadline=None, database=None)
@given(st.data())
def test_ginn_sum_matches_reference(data):
    ctx = data.draw(contexts)
    u, f = data.draw(elements(ctx)), data.draw(params(ctx))
    x = [liealg.generator(ctx, i) for i in range(1, ctx.m + 1)]
    with_x = lambda j: liealg.bracket(u, x[j - 1])
    assert_same(normal.ginn_sum(u, with_x, f), ref.ginn_sum(u, with_x, f))
    # the certificate's shape: a generator and one table of generator brackets
    i = data.draw(st.integers(0, ctx.m - 1))
    table = lambda j: liealg.bracket(x[i], x[j - 1])
    assert_same(normal.ginn_sum(x[i], table, f), ref.ginn_sum(x[i], table, f))


def test_ginn_sum_rejects_a_bracket_outside_the_derived_algebra():
    ctx = Context(3, 3)
    x1 = liealg.generator(ctx, 1)
    f = sample("ginn", ctx, "not-derived").f
    for ginn_sum in (normal.ginn_sum, ref.ginn_sum):
        with pytest.raises(DomainError):
            ginn_sum(x1, lambda j: x1, f)


@settings(max_examples=80, deadline=None, database=None)
@given(st.data())
def test_from_jacobian_matches_reference(data):
    ctx = data.draw(contexts)
    kinds = st.sampled_from(["ia", "dilation", "substitution"])
    phi, psi = data.draw(maps(ctx, data.draw(kinds))), data.draw(maps(ctx, data.draw(kinds)))
    for jac in (endo.jacobian(phi), endo.jacobian(phi) @ endo._sigma(phi, endo.jacobian(psi))):
        got, want = endo._from_jacobian(jac), ref.from_jacobian(jac)
        for a, b in zip(got.images, want.images, strict=True):
            assert_same(a, b)
        assert endo.jacobian(got) is jac


def test_from_jacobian_keeps_the_s_condition_check():
    ctx = Context(3, 3)
    jac = endo.jacobian(sample("aut", ctx, "s-condition"))
    t1 = TruncPoly.var(ctx.m, ctx.module_cap, 1)
    rows = [list(row) for row in jac.rows]
    rows[0][1] = rows[0][1] + t1
    bad = endo.JacobianMatrix(ctx, rows)
    for from_jacobian in (endo._from_jacobian, ref.from_jacobian):
        with pytest.raises(ValidationError, match="column 2 violates the S-condition"):
            from_jacobian(bad)


def _malformed(ctx):
    """Module coordinates violating membership, and with a nonzero constant."""
    t2 = TruncPoly.var(ctx.m, ctx.module_cap, 2)
    one = TruncPoly.const(ctx.m, ctx.module_cap, 1)
    zp = ctx.zero_poly()
    return (t2, zp), (one, zp)


def test_clean_validates_under_check_invariants():
    assert liealg.CHECK_INVARIANTS  # set for the whole run by tests/conftest.py
    ctx = Context(2, 3)
    for mod in _malformed(ctx):
        with pytest.raises(ValidationError):
            LieElement._clean(ctx, (F(0), F(0)), mod)


def test_clean_runs_no_t_dot_with_invariants_off(monkeypatch):
    monkeypatch.setattr(liealg, "CHECK_INVARIANTS", False)
    calls = []
    monkeypatch.setattr(liealg, "t_dot", lambda *args, **kwargs: calls.append(args))
    ctx = Context(2, 3)
    for mod in _malformed(ctx):
        u = LieElement._clean(ctx, (F(0), F(0)), mod)
        assert u.mod == mod
    assert calls == []
