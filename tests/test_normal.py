import random
import pytest
from fractions import Fraction as F

from lmc import endo, liealg, normal, syntax
from lmc.arith import TruncPoly
from lmc.errors import DomainError, UsageError, ValidationError
from lmc.liealg import Context
from lmc.verify import sample

import inner_reference
from ginn_reference import ginn_of_map


def parse(ctx, s):
    return syntax.parse_element(ctx, s)


def scaling(ctx, value):
    a = [[F(value) if i == j else F(0) for j in range(ctx.m)] for i in range(ctx.m)]
    return endo.linear_endo(ctx, a)


def section3_map():
    return syntax.parse_automorphism(
        {"m": 2, "c": 3, "images": ["x1 + 1*[x1,x2,x2]", "x2"]}
    )


def test_ginn_identity_and_validation():
    ctx = Context(2, 3)
    ident = normal.GInnAut.identity(ctx)
    assert normal.ginn_to_endo(ident) == endo.Endomorphism.identity(ctx)
    with pytest.raises(ValidationError):
        normal.GInnAut(ctx, (TruncPoly.zero(2, 1),))
    c1 = Context(2, 1)
    with pytest.raises(ValidationError):
        normal.GInnAut(c1, (TruncPoly.const(2, 0, 1), TruncPoly.zero(2, 0)))


def test_ginn_compose_matches_endo_composition():
    for m, c in [(2, 3), (3, 4), (3, 2)]:
        ctx = Context(m, c)
        for trial in range(12):
            a = sample("ginn", ctx, f"gc-a{trial}", 2)
            b = sample("ginn", ctx, f"gc-b{trial}", 2)
            closed = normal.ginn_to_endo(normal.ginn_compose(a, b))
            generic = endo.compose(normal.ginn_to_endo(a), normal.ginn_to_endo(b))
            assert closed == generic
    ctx = Context(2, 3)
    ident = normal.GInnAut.identity(ctx)
    g = sample("ginn", ctx, "gc-id", 2)
    assert normal.ginn_compose(g, ident) == g
    assert normal.ginn_compose(ident, g) == g


def test_ginn_invert_matches_endo_inversion():
    for m, c in [(2, 3), (3, 5)]:
        ctx = Context(m, c)
        for trial in range(8):
            g = sample("ginn", ctx, f"gi{trial}", 2)
            inv = normal.ginn_invert(g)
            assert normal.ginn_to_endo(inv) == endo.invert(normal.ginn_to_endo(g))
    ctx = Context(2, 3)
    ident = normal.GInnAut.identity(ctx)
    assert normal.ginn_invert(ident) == ident


def test_ginn_invert_example_coefficients():
    # alpha=1, beta=2, others 0: inverse coefficients
    # (-alpha, -(alpha beta + alpha1), alpha^2 - alpha2,
    #  -beta, -(beta^2 + beta1), alpha beta - beta2)
    ctx = Context(2, 3)
    psi = syntax.parse_automorphism(
        {"m": 2, "c": 3, "images": ["x1 + 1*[x1,x2]", "x2 + 2*[x1,x2]"]}
    )
    g = normal.recognize_ginn(psi)
    inv = normal.ginn_to_endo(normal.ginn_invert(g))
    assert inv.images[0] == parse(ctx, "x1 - 1*[x1,x2] - 2*[x1,x2,x1] + 1*[x1,x2,x2]")
    assert inv.images[1] == parse(ctx, "x2 - 2*[x1,x2] - 4*[x1,x2,x1] + 2*[x1,x2,x2]")


def test_ginn_apply_closed_form():
    ctx = Context(2, 3)
    g = normal.GInnAut(ctx, (TruncPoly.zero(2, 1), TruncPoly.const(2, 1, 1)))
    u = parse(ctx, "[x1,x2]")
    assert normal.ginn_apply(g, u) == parse(ctx, "[x1,x2] + [x1,x2,x2]")
    for m, c in [(2, 3), (3, 4)]:
        cx = Context(m, c)
        for trial in range(10):
            gg = sample("ginn", cx, f"ga{trial}", 2)
            uu = sample("element", cx, f"gau{trial}", 2)
            assert normal.ginn_apply(gg, uu) == normal.ginn_to_endo(gg).apply(uu)
            assert gg.f[0].is_zero() or normal.ginn_apply(gg, uu) is not None
    x = liealg.generator(ctx, 1)
    assert normal.ginn_apply(g, x) == normal.ginn_to_endo(g).images[0]


def test_ginn_jacobian_closed_form():
    ctx = Context(2, 3)
    g = normal.GInnAut(ctx, (TruncPoly.zero(2, 1), TruncPoly.const(2, 1, 1)))
    jac = normal.ginn_jacobian(g)
    assert jac.rows[0][0] == TruncPoly(2, 2, {(0, 0): F(1), (0, 1): F(1)})
    assert jac.rows[0][1].is_zero()
    assert jac.rows[1][0] == TruncPoly(2, 2, {(1, 0): F(-1)})
    assert jac.rows[1][1] == TruncPoly.const(2, 2, 1)
    assert normal.ginn_jacobian(normal.GInnAut.identity(ctx)) == endo.JacobianMatrix.identity(ctx)
    for m, c in [(3, 4)]:
        cx = Context(m, c)
        for trial in range(8):
            gg = sample("ginn", cx, f"gj{trial}", 2)
            assert normal.ginn_jacobian(gg) == endo.jacobian(normal.ginn_to_endo(gg))


def test_recognize_ginn_frozen():
    phi = section3_map()
    g = normal.recognize_ginn(phi)
    assert g is not None
    assert [str(p) for p in g.f] == ["0", "t2"]
    ident = endo.Endomorphism.identity(Context(3, 3))
    g0 = normal.recognize_ginn(ident)
    assert g0 is not None and g0.is_identity_params()


def test_recognize_ginn_round_trip_and_oracle():
    for m, c in [(2, 3), (3, 3), (3, 4)]:
        ctx = Context(m, c)
        for trial in range(10):
            g = sample("ginn", ctx, f"rg{trial}", 2)
            phi = normal.ginn_to_endo(g)
            got = normal.recognize_ginn(phi)
            assert got is not None
            assert normal.ginn_to_endo(got) == phi
            oracle = ginn_of_map(phi)
            assert oracle is not None
            assert normal.ginn_to_endo(oracle) == phi


def test_recognize_ginn_rejects_non_uniform():
    phi = syntax.parse_automorphism(
        {"m": 3, "c": 3, "images": ["x1 + 1*[x1,x2,x3]", "x2", "x3"]}
    )
    assert normal.recognize_ginn(phi) is None
    assert ginn_of_map(phi) is None  # oracle agrees
    # row-nonuniform parameters: f_{12} = 1 on the first row only
    rowwise = syntax.parse_automorphism(
        {"m": 3, "c": 3, "images": ["x1 + 1*[x1,x2]", "x2", "x3"]}
    )
    assert normal.recognize_ginn(rowwise) is None
    assert ginn_of_map(rowwise) is None
    non_ia = scaling(Context(3, 3), 2)
    with pytest.raises(DomainError):
        normal.recognize_ginn(non_ia)


def test_ginn_pattern_needs_the_diagonal():
    ctx = Context(3, 3)
    g = sample("ginn", ctx, "pattern", 2)
    jac = normal.ginn_jacobian(g)
    assert normal.ginn_pattern(jac) == g
    # right off-diagonal entries, diagonal (1,1) off by t1*t2
    rows = [list(row) for row in jac.rows]
    rows[0][0] = rows[0][0] + TruncPoly.monomial(3, ctx.module_cap, (1, 1, 0))
    assert normal.ginn_pattern(endo.JacobianMatrix(ctx, rows)) is None


def test_recognize_ginn_oracle_agreement_on_random_ia():
    ctx = Context(3, 3)
    for trial in range(10):
        phi = sample("ia", ctx, f"rgo{trial}", 2)
        ours = normal.recognize_ginn(phi)
        oracle = ginn_of_map(phi)
        assert (ours is None) == (oracle is None)


@pytest.mark.parametrize("m,c", [(3, 3), (3, 4), (4, 3), (4, 4)])
def test_recognize_ginn_and_decide_normal_match_the_oracle_one_commutator_off_ginn(m, c):
    # ginn_to_endo(g) o e with e: x_p -> x_p + a [x_q, x_r, ...] for one
    # basis commutator.  ginn_pattern reads f off one entry per row, so
    # only its Jacobian certificate sees the other entries move; a = 0
    # keeps the map generalized inner, so both verdicts show.
    ctx = Context(m, c)
    rnd = random.Random(f"one-off-{m}-{c}")
    commutators = liealg.enumerate_basis(ctx)[m:]
    x = [liealg.generator(ctx, j) for j in range(1, m + 1)]
    for trial in range(10):
        g = sample("ginn", ctx, f"one-off{trial}", 2)
        p, tup, a = rnd.randrange(m), rnd.choice(commutators), trial % 5 - 2
        w = liealg.bracket_chain(*(x[i - 1] for i in tup)).scale(a)
        e = endo.Endomorphism(ctx, tuple(xj + w if j == p else xj for j, xj in enumerate(x)))
        phi = endo.compose(normal.ginn_to_endo(g), e)
        oracle = ginn_of_map(phi)
        got = normal.recognize_ginn(phi)
        assert (got is None) == (oracle is None), (trial, p, tup, a)
        assert got is None or normal.ginn_to_endo(got) == phi
        assert normal.decide_normal(phi).normal == (oracle is not None)


def test_recognize_inner_round_trip():
    for m, c in [(2, 3), (3, 3), (3, 4)]:
        ctx = Context(m, c)
        for trial in range(8):
            u = sample("element", ctx, f"ri{trial}", 2)
            phi = endo.exp_ad(u)
            got = normal.recognize_inner(phi)
            assert got is not None
            assert endo.exp_ad(got) == phi
    ident = endo.Endomorphism.identity(Context(2, 3))
    u0 = normal.recognize_inner(ident)
    assert u0 is not None and u0.is_zero()


def test_recognize_inner_rejects_section3():
    phi = section3_map()
    assert normal.recognize_inner(phi) is None
    assert inner_reference.recognize_inner(phi) is None


def test_recognize_inner_oracle_agreement():
    for m, c in [(2, 3), (3, 3)]:
        ctx = Context(m, c)
        for trial in range(6):
            phi = sample("ia", ctx, f"rio{trial}", 1)
            ours = normal.recognize_inner(phi)
            assert ours == inner_reference.recognize_inner(phi)
            if ours is not None:
                assert endo.exp_ad(ours) == phi


def test_every_ginn_is_inner_at_class_two():
    for m in (2, 3, 4):
        ctx = Context(m, 2)
        for trial in range(10):
            g = sample("ginn", ctx, f"c2-{trial}", 3)
            phi = normal.ginn_to_endo(g)
            u = normal.recognize_inner(phi)
            assert u is not None
            assert endo.exp_ad(u) == phi


def test_every_inner_is_ginn():
    ctx = Context(3, 3)
    for trial in range(8):
        phi = sample("inner", ctx, f"ig{trial}", 2)
        assert normal.recognize_ginn(phi) is not None


def test_decide_normal_case_table():
    expectations = {
        (2, 2): True,
        (2, 3): True,
        (3, 2): False,
        (3, 3): False,
        (2, 4): False,
        (3, 4): False,
    }
    for (m, c), expect in expectations.items():
        ctx = Context(m, c)
        verdict = normal.decide_normal(scaling(ctx, 2))
        assert verdict.normal == expect, (m, c)
        if not expect:
            assert verdict.witness
            assert not normal.preserves_ideal(scaling(ctx, 2), verdict.witness)
    for m in (2, 3):
        ctx = Context(m, 1)
        assert normal.decide_normal(scaling(ctx, 2)).normal


def test_decide_normal_witness_matches_construction():
    ctx = Context(3, 2)
    v = normal.decide_normal(scaling(ctx, 2))
    assert v.witness == [parse(ctx, "x1 + [x2,x3]")]
    ctx = Context(3, 3)
    v = normal.decide_normal(scaling(ctx, 2))
    assert v.witness == [parse(ctx, "[x1,x2] + [x1,x3,x3]")]
    ctx = Context(2, 4)
    v = normal.decide_normal(scaling(ctx, 2))
    assert v.witness == [parse(ctx, "[x1,x2,x2] + [x1,x2,x1,x1]")]
    ctx = Context(3, 4)
    v = normal.decide_normal(scaling(ctx, 2))
    assert v.witness == [parse(ctx, "[x1,x2,x2] + [x1,x2,x1,x1]")]


def test_decide_normal_section3_and_inners():
    v = normal.decide_normal(section3_map())
    assert v.normal
    assert v.aut.alpha == 1
    assert [str(p) for p in v.aut.g.f] == ["0", "t2"]
    for m, c in [(2, 3), (3, 3)]:
        ctx = Context(m, c)
        for trial in range(5):
            phi = sample("inner", ctx, f"dn{trial}", 2)
            assert normal.decide_normal(phi).normal


def test_decide_normal_nonscalar_and_non_ginn():
    ctx = Context(2, 3)
    swap = endo.linear_endo(ctx, [[F(0), F(1)], [F(1), F(0)]])
    v = normal.decide_normal(swap)
    assert not v.normal
    assert v.witness == [liealg.generator(ctx, 1)]
    assert not normal.preserves_ideal(swap, v.witness)

    diag = endo.linear_endo(Context(2, 4), [[F(1), F(0)], [F(0), F(2)]])
    v = normal.decide_normal(diag)
    assert not v.normal
    assert not normal.preserves_ideal(diag, v.witness)

    ctx33 = Context(3, 3)
    phi = syntax.parse_automorphism(
        {"m": 3, "c": 3, "images": ["x1 + 1*[x1,x2,x3]", "x2", "x3"]}
    )
    v = normal.decide_normal(phi, search_witness=True)
    assert not v.normal
    if v.witness:  # witness search is best-effort by design
        assert not normal.preserves_ideal(phi, v.witness)

    with pytest.raises(DomainError):
        normal.decide_normal(
            endo.Endomorphism(
                ctx, (liealg.generator(ctx, 1), liealg.generator(ctx, 1))
            )
        )


def test_normal_aut_validation_and_json():
    ctx = Context(2, 3)
    aut = normal.NormalAut(F(2), normal.GInnAut.identity(ctx))
    assert aut.to_endo() == scaling(ctx, 2)
    with pytest.raises(ValidationError):
        normal.NormalAut(F(0), normal.GInnAut.identity(ctx))
    with pytest.raises(ValidationError):
        normal.NormalAut(F(2), normal.GInnAut.identity(Context(3, 3)))
    verdict = normal.decide_normal(scaling(Context(3, 2), 2))
    d = verdict.to_dict(lambda w: syntax.print_element(w, "basis"))
    assert d["normal"] is False
    assert d["witness"] == ["x1 - 1*[x3,x2]"]


def test_preserves_ideal():
    ctx = Context(3, 2)
    two = scaling(ctx, 2)
    assert normal.preserves_ideal(two, [liealg.zero(ctx)])
    full = [liealg.generator(ctx, i) for i in (1, 2, 3)]
    assert normal.preserves_ideal(two, full)
    assert not normal.preserves_ideal(two, [parse(ctx, "x1 + [x2,x3]")])
    for m, c in [(2, 3), (3, 3)]:
        cx = Context(m, c)
        for trial in range(8):
            g = sample("ginn", cx, f"pi{trial}", 2)
            u = sample("element", cx, f"piu{trial}", 2)
            assert normal.preserves_ideal(normal.ginn_to_endo(g), [u])


def test_ginn_subgroup_of_normal():
    for m, c in [(2, 3), (3, 2), (3, 3)]:
        ctx = Context(m, c)
        for trial in range(5):
            g = sample("ginn", ctx, f"gn{trial}", 2)
            assert normal.decide_normal(normal.ginn_to_endo(g)).normal


def test_check_law_guard():
    with pytest.raises(UsageError):
        normal.check_law_guard("abelian", Context(3, 3))
    with pytest.raises(UsageError):
        normal.check_law_guard("nilpotent2", Context(3, 2))
    with pytest.raises(UsageError):
        normal.check_law_guard("metabelian", Context(3, 3))
    with pytest.raises(UsageError):
        normal.check_law_guard("class2_by_abelian", Context(3, 3))
    normal.check_law_guard("metabelian", Context(2, 2))
    normal.check_law_guard("jacobian_functorial", Context(2, 2))
