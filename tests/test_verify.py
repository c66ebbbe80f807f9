import json

import pytest

from lmc import endo, liealg, normal, verify
from lmc.errors import UsageError
from lmc.liealg import Context
from lmc.verify import check_law, sample


def test_sample_deterministic():
    ctx = Context(3, 3)
    for kind in ("element", "ginn", "ia", "inner"):
        assert sample(kind, ctx, 5) == sample(kind, ctx, 5)
    a = sample("normal_scaled", Context(2, 3), 5)
    b = sample("normal_scaled", Context(2, 3), 5)
    assert a.alpha == b.alpha and a.g == b.g


def test_sample_round_trip_properties():
    ctx = Context(3, 3)
    for seed in range(5):
        g = sample("ginn", ctx, seed)
        assert normal.recognize_ginn(normal.ginn_to_endo(g)) is not None
        inner = sample("inner", ctx, seed)
        assert normal.recognize_inner(inner) is not None
        ia = sample("ia", ctx, seed)
        assert ia.is_ia()


def test_sample_guards():
    with pytest.raises(UsageError):
        sample("normal_scaled", Context(3, 3), 1)
    with pytest.raises(UsageError):
        sample("unknown", Context(2, 3), 1)
    with pytest.raises(UsageError):
        sample("element", Context(2, 3), 1, coeff_bound=0)
    assert sample("normal_scaled", Context(2, 2), 1).alpha != 0
    assert sample("ginn", Context(2, 1), 1).is_identity_params()


def test_check_law_guards():
    with pytest.raises(UsageError):
        check_law("abelian", Context(3, 3), 5, 0)
    with pytest.raises(UsageError):
        check_law("nope", Context(3, 2), 5, 0)
    with pytest.raises(UsageError):
        check_law("abelian", Context(3, 2), 0, 0)


def test_laws_pass_small_budgets():
    cases = [
        ("abelian", 3, 2),
        ("nilpotent2", 2, 3),
        ("metabelian", 2, 4),
        ("metabelian", 2, 2),
        ("class2_by_abelian", 2, 3),
        ("jacobian_functorial", 3, 3),
        ("ginn_normal_oracle", 2, 4),
    ]
    for law, m, c in cases:
        report = check_law(law, Context(m, c), 10, seed=1)
        assert report.ok, report.to_dict()
        assert report.passed == report.requested == 10


def test_report_reproducible_and_serializable():
    r1 = check_law("abelian", Context(3, 2), 7, seed=3)
    r2 = check_law("abelian", Context(3, 2), 7, seed=3)
    d1, d2 = r1.to_dict(), r2.to_dict()
    d1.pop("elapsed_seconds")
    d2.pop("elapsed_seconds")
    assert d1 == d2
    parsed = json.loads(json.dumps(r1.to_dict()))
    assert parsed["law"] == "abelian"
    assert parsed["trials_passed"] == 7
    assert parsed["counterexample"] is None


def test_broken_bracket_is_caught(monkeypatch):
    original = liealg.bracket
    monkeypatch.setattr(
        liealg, "bracket", lambda u, v: original(u, v).scale(-1)
    )
    report = check_law("abelian", Context(3, 2), 100, seed=2)
    assert not report.ok
    assert report.counterexample is not None
    json.loads(report.counterexample)  # serialized inputs
    report = check_law("jacobian_functorial", Context(2, 3), 100, seed=2)
    assert not report.ok
    report = check_law("class2_by_abelian", Context(2, 3), 100, seed=2)
    assert not report.ok
    for m, c in ((3, 4), (2, 5)):
        report = check_law("metabelian", Context(m, c), 100, seed=2)
        assert not report.ok, (m, c)


def test_bracket_broken_after_its_table_was_built_is_caught(monkeypatch):
    # the certificate keeps one table of generator brackets per context; a
    # trial run first with the true bracket builds it, and a table that
    # outlived the rebinding of liealg.bracket would certify the flipped one
    ctx = Context(3, 2)
    assert check_law("abelian", ctx, 1, seed=2).ok
    original = liealg.bracket
    monkeypatch.setattr(liealg, "bracket", lambda u, v: original(u, v).scale(-1))
    report = check_law("abelian", ctx, 100, seed=2)
    assert not report.ok and report.passed == 0
    json.loads(report.counterexample)


def test_bracket_broken_on_one_ordered_pair_is_caught(monkeypatch):
    # only [x2, x1] flips its sign, [x1, x2] stays right: a certificate that
    # took -[x1, x2] for [x2, x1] would miss it
    original = liealg.bracket

    def broken(u, v):
        x = lambda i: liealg.generator(u.ctx, i)
        w = original(u, v)
        return w.scale(-1) if u == x(2) and v == x(1) else w

    monkeypatch.setattr(liealg, "bracket", broken)
    ctx = Context(3, 2)
    x1, x2 = liealg.generator(ctx, 1), liealg.generator(ctx, 2)
    assert liealg.bracket(x2, x1) == liealg.bracket(x1, x2) == original(x1, x2)
    for law, m, c in (
        ("abelian", 3, 2),
        ("nilpotent2", 3, 3),
        ("metabelian", 3, 4),
        ("metabelian", 2, 5),
        ("class2_by_abelian", 2, 3),
    ):
        report = check_law(law, Context(m, c), 100, seed=2)
        assert not report.ok, (law, m, c)
        json.loads(report.counterexample)


def test_a_word_that_is_not_the_identity_fails_on_certified_maps():
    # past the contexts a word law is proved for its word is no identity,
    # and the certificate still passes, so the final check J(word) = I
    # alone must fail it
    for kind, count, word, m, c in (
        ("ginn", 2, (0, 1), 3, 3),
        ("ginn", 3, ((0, 1), 2), 2, 4),
        ("normal_scaled", 2, (0, 1), 2, 3),
    ):
        ctx, seeds = Context(m, c), lambda slot: f"not-a-law:{slot}"
        assert verify._certified_maps(kind, ctx, seeds, 3, count)[-1] is True
        ok, maps = verify._word_law(kind, count, word)(ctx, seeds, 3)
        assert not ok and len(maps) == count, (kind, word, m, c)


def test_jacobian_functorial_composes_through_apply(monkeypatch):
    # compose of IA maps is a Jacobian product, so J(compose(phi, psi)) =
    # J(phi) J(psi) holds by construction; the law must build phi psi
    # through the bracket-based apply instead
    def no_compose(phi, psi):
        raise AssertionError("jacobian_functorial called endo.compose")

    monkeypatch.setattr(endo, "compose", no_compose)
    report = check_law("jacobian_functorial", Context(3, 3), 5, seed=3)
    assert report.ok and report.passed == 5


def test_class2_by_abelian_builds_s_once_per_map(monkeypatch):
    seen = []
    original = normal._ginn_s

    def counting(g, *args, **kwargs):
        seen.append(g)
        return original(g, *args, **kwargs)

    monkeypatch.setattr(normal, "_ginn_s", counting)
    for seed in (1, 2):
        seen.clear()
        assert check_law("class2_by_abelian", Context(2, 3), 1, seed).ok
        assert len(seen) == 6  # six scaled normal maps, each certified and used


def test_aut_sample_is_an_integer_linear_map_after_an_ia_sample():
    for m, c in ((2, 1), (2, 3), (3, 3), (3, 4)):
        ctx = Context(m, c)
        for seed in range(4):
            phi = sample("aut", ctx, seed)
            assert phi == sample("aut", ctx, seed)
            assert phi.is_automorphism()
            a, chi = endo.decompose(phi)
            assert all(x.denominator == 1 and abs(x) <= 3 for row in a for x in row)
            assert chi.is_ia()
            assert endo.compose(endo.linear_endo(ctx, a), chi) == phi
    assert any(not sample("aut", Context(3, 3), seed).is_ia() for seed in range(4))


@pytest.mark.parametrize("m,c", [(2, 1), (2, 2), (3, 2), (2, 3), (3, 3), (3, 4), (2, 5), (4, 4)])
def test_inner_conjugation_holds(m, c):
    report = check_law("inner_conjugation", Context(m, c), 4, seed=1)
    assert report.ok, report.to_dict()
    assert report.passed == 4


def test_inner_conjugation_catches_a_broken_bracket(monkeypatch):
    # only its right side applies phi^-1 through the bracket; from c = 3 on
    # a wrong derived part of phi^-1(u) changes exp(ad phi^-1(u))
    original = liealg.bracket
    monkeypatch.setattr(liealg, "bracket", lambda u, v: original(u, v).scale(-1))
    for m, c in ((2, 3), (3, 3), (3, 4), (2, 5)):
        report = check_law("inner_conjugation", Context(m, c), 20, seed=2)
        assert not report.ok, (m, c)
        json.loads(report.counterexample)
