"""The law inputs against the versions they replaced (tests/verify_reference.py).

The sampler must return equal objects for every kind the reference has
(all but the later `aut`), seed and bound on contexts from (2,1) to
(4,4); liealg.from_basis, which sums integer numerators at packed codes,
must equal the Fraction sum over exponent tuples, also with fractional
coefficients and with contributions that cancel; NormalAut.to_endo,
which dilates the columns of S, must equal the chain-rule composite
alpha I after the ginn_to_endo(g) of tests/endo_reference.py for negative and fractional alpha; and the
certificate of the law inputs, which reads one bracket table per call
and compares with the columns of Jacobians, must accept and reject the
Jacobians of exactly the maps the per-map GInn sum of
tests/element_reference.py over the reference bracket accepts and
rejects, among them maps changed in one basis coordinate.  The four laws
that verify states as commutator words must report as the functions that
wrote them out did (elapsed time aside) and commute the Jacobians of the
maps those functions commuted, at every context each law is proved for,
with the bracket as it is, negated, and negated on the one ordered pair
(x2, x1), on both sides: the functions certify with the reference
bracket, which is flipped with liealg.bracket.
"""

from collections import Counter
from fractions import Fraction as F

import pytest
import verify_reference as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from lmc import endo, liealg, normal, verify
from lmc.errors import UsageError
from lmc.liealg import BasisForm, Context

CONTEXTS = [(2, 1), (2, 2), (2, 3), (3, 2), (3, 4), (2, 5), (4, 4)]

seeds = st.one_of(st.integers(-(10**6), 10**6), st.text(max_size=6))
fractions = st.builds(F, st.integers(-6, 6), st.integers(1, 6))


def _sampled(kind, ctx, seed, bound, sampler):
    try:
        return sampler(kind, ctx, seed, bound)
    except UsageError as exc:
        return ("UsageError", str(exc))


@pytest.mark.parametrize("m,c", CONTEXTS)
@settings(max_examples=15, deadline=None, database=None)
@given(seed=seeds, bound=st.integers(1, 4))
def test_sample_is_unchanged_for_every_kind(m, c, seed, bound):
    ctx = Context(m, c)
    for kind in ref.SAMPLE_KINDS:
        assert _sampled(kind, ctx, seed, bound, verify.sample) == _sampled(
            kind, ctx, seed, bound, ref.sample
        ), kind


def test_sample_is_unchanged_on_fixed_seeds():
    count = 0
    for m, c in CONTEXTS:
        ctx = Context(m, c)
        for kind in ref.SAMPLE_KINDS:
            for seed in range(4):
                got = _sampled(kind, ctx, seed, 3, verify.sample)
                assert got == _sampled(kind, ctx, seed, 3, ref.sample), (m, c, kind, seed)
                count += 1
    assert count == len(CONTEXTS) * len(ref.SAMPLE_KINDS) * 4
    assert verify.SAMPLE_KINDS == ref.SAMPLE_KINDS + ("aut",)


@st.composite
def basis_forms(draw):
    m, c = draw(st.sampled_from([(2, 3), (3, 3), (3, 4), (2, 5), (4, 4)]))
    ctx = Context(m, c)
    tuples = [t for k in range(2, c + 1) for t in liealg.enumerate_basis(ctx, k)]
    chosen = draw(st.lists(st.sampled_from(tuples), unique=True, max_size=12))
    comm = {t: draw(fractions) for t in chosen}
    linear = tuple(draw(fractions) for _ in range(m))
    return BasisForm(ctx, linear, comm)


@settings(max_examples=80, deadline=None, database=None)
@given(b=basis_forms())
def test_from_basis_matches_the_fraction_sum(b):
    assert liealg.from_basis(b) == ref.from_basis(b)


@pytest.mark.parametrize("a", [F(1), F(-3), F(1, 2), F(-5, 6)])
def test_from_basis_cancels_shared_terms(a):
    # [x3,x1,x2] and [x2,x1,x3] both put t2*t3 into a_1 (with sign -1), so
    # a*[x3,x1,x2] - a*[x2,x1,x3] has no a_1 coordinate
    ctx = Context(3, 3)
    b = BasisForm(ctx, (0, 0, F(1, 3)), {(3, 1, 2): a, (2, 1, 3): -a, (2, 1): F(1, 2)})
    u = liealg.from_basis(b)
    assert u == ref.from_basis(b)
    assert u.mod[0] == liealg.from_basis(BasisForm(ctx, (0, 0, 0), {(2, 1): F(1, 2)})).mod[0]
    assert u.mod[0].coeff((0, 1, 1)) == 0


@settings(max_examples=40, deadline=None, database=None)
@given(
    mc=st.sampled_from([(2, 1), (3, 1), (2, 2), (2, 3)]),
    alpha=fractions.filter(bool),
    seed=seeds,
)
def test_to_endo_is_the_scalar_map_after_the_ginn_map(mc, alpha, seed):
    ctx = Context(*mc)
    n = normal.NormalAut(alpha, verify.sample("ginn", ctx, seed))
    assert n.to_endo() == ref.to_endo(n)


@pytest.mark.parametrize("m,c", [(3, 4), (2, 5), (4, 4)])
def test_to_endo_with_alpha_one_is_the_ginn_map(m, c):
    ctx = Context(m, c)
    g = verify.sample("ginn", ctx, "to-endo")
    n = normal.NormalAut(1, g)
    assert n.to_endo() == ref.to_endo(n) == normal.ginn_to_endo(g)


def _changed(phi, i, change):
    images = list(phi.images)
    images[i] = images[i] + change
    return type(phi)(phi.ctx, tuple(images))


@settings(max_examples=40, deadline=None, database=None)
@given(st.data())
def test_certificate_accepts_and_rejects_as_the_per_map_one(data):
    m, c = data.draw(st.sampled_from([(3, 2), (3, 3), (2, 3), (3, 4), (2, 5)]))
    ctx = Context(m, c)
    seed = data.draw(seeds)
    gs = [verify.sample("ginn", ctx, f"{seed}:{k}") for k in range(3)]
    maps = [normal.ginn_to_endo(g) for g in gs]
    jacs = [normal.ginn_jacobian(g) for g in gs]
    assert verify._agree_with_ginn_apply(gs, jacs) is ref.agree_with_ginn_apply(gs, maps) is True
    k = data.draw(st.integers(0, len(maps) - 1))
    i = data.draw(st.integers(0, m - 1))
    coeff = data.draw(fractions)
    tuples = [(j,) for j in range(1, m + 1)] + [
        t for d in range(2, c + 1) for t in liealg.enumerate_basis(ctx, d)
    ]
    tup = data.draw(st.sampled_from(tuples))
    if len(tup) == 1:
        linear = tuple(coeff if j == tup[0] else 0 for j in range(1, m + 1))
        change = liealg.from_basis(BasisForm(ctx, linear, {}))
    else:
        change = liealg.from_basis(BasisForm(ctx, (0,) * m, {tup: coeff}))
    maps[k] = _changed(maps[k], i, change)
    jacs[k] = endo.jacobian(maps[k])
    got = verify._agree_with_ginn_apply(gs, jacs)
    assert got is ref.agree_with_ginn_apply(gs, maps)
    assert got is (coeff == 0)


WORD_LAW_CONTEXTS = [
    ("abelian", (2, 2)), ("abelian", (3, 2)), ("abelian", (4, 2)),
    ("nilpotent2", (2, 3)), ("nilpotent2", (3, 3)),
    ("metabelian", (2, 2)), ("metabelian", (2, 4)), ("metabelian", (3, 4)),
    ("metabelian", (2, 5)),
    ("class2_by_abelian", (2, 3)),
]


def _flipped(original, pair_only):
    def bracket(u, v):
        w = original(u, v)
        if pair_only and (u, v) != tuple(liealg.generator(u.ctx, i) for i in (2, 1)):
            return w
        return w.scale(-1)

    return bracket


@pytest.mark.parametrize("law,mc", WORD_LAW_CONTEXTS)
@pytest.mark.parametrize("bracket", ["as-is", "negated", "negated-on-(x2,x1)"])
def test_word_laws_report_as_the_law_functions(monkeypatch, law, mc, bracket):
    ctx = Context(*mc)
    if bracket != "as-is":
        # the reference certifies with its own bracket, which flips too
        for module in (liealg, ref):
            monkeypatch.setattr(module, "bracket", _flipped(module.bracket, bracket != "negated"))
    # a wrong word that is also a law would pass on reports alone, so the
    # Jacobian pairs verify commutes must be those of the maps the
    # reference commutes (its group_commutator also runs
    # jacobian_commutator, whose calls it makes are not kept)
    jac_calls, map_calls = [], []
    jacobian_commutator, group_commutator = endo.jacobian_commutator, endo.group_commutator

    def recording_jacobians(ja, jb):
        jac_calls.append((ja, jb))
        return jacobian_commutator(ja, jb)

    def recording_maps(phi, psi):
        map_calls.append((endo.jacobian(phi), endo.jacobian(psi)))
        return group_commutator(phi, psi)

    monkeypatch.setattr(endo, "jacobian_commutator", recording_jacobians)
    monkeypatch.setattr(endo, "group_commutator", recording_maps)
    failed = 0
    for seed in (1, 2, 3):
        got = verify.check_law(law, ctx, 3, seed).to_dict()
        got_calls = Counter(jac_calls)
        assert not map_calls, seed
        with monkeypatch.context() as patch:
            patch.setitem(verify._LAWS, law, ref.LAWS[law])
            want = verify.check_law(law, ctx, 3, seed).to_dict()
        del got["elapsed_seconds"], want["elapsed_seconds"]
        assert got == want, seed
        if bracket == "as-is":  # the old class2_by_abelian took c1..c3 before its certificate
            assert got_calls == Counter(map_calls), seed
        jac_calls.clear()
        map_calls.clear()
        failed += got["counterexample"] is not None
    assert failed == (0 if bracket == "as-is" else 3)
