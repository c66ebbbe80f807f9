import pytest
from fractions import Fraction as F

from lmc import cosets, endo, liealg, normal, syntax
from lmc.arith import TruncPoly
from lmc.errors import DomainError, ValidationError
from lmc.liealg import Context
from lmc.verify import sample


def ginn(ctx, *poly_strs):
    fs = tuple(
        syntax.parse_poly(s, ctx.m, ctx.param_cap) for s in poly_strs
    )
    return normal.GInnAut(ctx, fs)


def theta_fixture_33():
    """A nontrivial theta-shaped IA map on L_{3,3}: first column (0, t3^2, -t2*t3)."""
    ctx = Context(3, 3)
    zero = TruncPoly.zero(3, 2)
    one = TruncPoly.const(3, 2, 1)
    rows = [
        [one, zero, zero],
        [syntax.parse_poly("t3^2", 3, 2), one, zero],
        [syntax.parse_poly("-t2*t3", 3, 2), zero, one],
    ]
    return endo.ia_from_jacobian(endo.JacobianMatrix(ctx, tuple(map(tuple, rows))))


def test_shape_check_identity_all_shapes():
    for m, c in [(2, 3), (3, 3), (3, 4)]:
        ident = endo.JacobianMatrix.identity(Context(m, c))
        for shape in ("theta", "psi", "df"):
            assert cosets.shape_check(ident, shape)


def test_theta_shape_collapses_for_two_generators():
    ctx = Context(2, 4)
    phi = sample("ia", ctx, "theta-m2", 2)
    if phi == endo.Endomorphism.identity(ctx):  # pragma: no cover - unlikely seed
        pytest.skip("sample happened to be the identity")
    assert not cosets.shape_check(endo.jacobian(phi), "theta")


def test_theta_fixture_passes():
    theta = theta_fixture_33()
    assert cosets.shape_check(endo.jacobian(theta), "theta")


def test_psi_shape_accepts_triangular_support_and_rejects_otherwise():
    ctx = Context(2, 3)
    # q = (0, t2): the canonical representative of the non-inner normal map.
    jac = normal.ginn_jacobian(ginn(ctx, "0", "t2"))
    assert cosets.shape_check(jac, "psi")
    diag = cosets.psi_diagnostics(jac)
    assert diag["pattern"]
    assert diag["warnings"]  # linear parameter part is flagged, not asserted
    # q_2 depending on t_1 violates the support condition
    bad = normal.ginn_jacobian(ginn(ctx, "0", "t1"))
    assert not cosets.shape_check(bad, "psi")
    # a non-pattern IA map fails outright
    phi = syntax.parse_automorphism(
        {"m": 3, "c": 3, "images": ["x1 + 1*[x1,x2,x3]", "x2", "x3"]}
    )
    assert not cosets.shape_check(endo.jacobian(phi), "psi")


def test_df_shape_examples():
    ctx = Context(3, 3)
    # psi-shaped matrices satisfy the df (inner-coset) shape
    g = ginn(ctx, "0", "t2", "t3")
    assert cosets.shape_check(normal.ginn_jacobian(g), "df")
    # f_12 with a plain t2 summand is rejected by df (and by theta);
    # column 2 still satisfies the S-condition: t1*t2 + t2*(-t1) = 0.
    zero = TruncPoly.zero(3, 2)
    one = TruncPoly.const(3, 2, 1)
    t2 = syntax.parse_poly("t2", 3, 2)
    f22 = syntax.parse_poly("-t1", 3, 2)
    rows = ((one, t2, zero), (zero, one + f22, zero), (zero, zero, one))
    jac = endo.JacobianMatrix(ctx, rows)
    assert jac.satisfies_s_condition()
    assert not cosets.shape_check(jac, "df")
    assert not cosets.shape_check(jac, "theta")


def test_reduce_mod_in_identity_for_two_generators():
    for c in (3, 4):
        ctx = Context(2, c)
        for trial in range(6):
            phi = sample("ia", ctx, f"m2-{trial}", 2)
            tf = cosets.reduce_mod_in(phi)
            assert tf.endo == endo.Endomorphism.identity(ctx)


def test_reduce_mod_in_idempotent_invariant_certified():
    for m, c in [(3, 3), (3, 4)]:
        ctx = Context(m, c)
        for trial in range(6):
            phi = sample("ia", ctx, f"rmi{trial}", 2)
            tf = cosets.reduce_mod_in(phi)
            assert cosets.shape_check(tf.jac, "theta")
            assert normal.recognize_ginn(
                endo.compose(phi, endo.invert(tf.endo))
            ) is not None
            # idempotence
            assert cosets.reduce_mod_in(tf.endo).endo == tf.endo
            # coset invariance
            g = sample("ginn", ctx, f"rmi-g{trial}", 2)
            shifted = endo.compose(normal.ginn_to_endo(g), phi)
            assert cosets.reduce_mod_in(shifted).endo == tf.endo


def test_reduce_mod_in_construct_then_reduce():
    theta = theta_fixture_33()
    ctx = theta.ctx
    assert cosets.reduce_mod_in(theta).endo == theta
    g = sample("ginn", ctx, "ctr", 2)
    assert cosets.reduce_mod_in(endo.compose(normal.ginn_to_endo(g), theta)).endo == theta


def test_reduce_mod_in_rejects_non_ia():
    ctx = Context(3, 3)
    two = endo.linear_endo(ctx, [[F(2) if i == j else F(0) for j in range(3)] for i in range(3)])
    with pytest.raises(DomainError):
        cosets.reduce_mod_in(two)


@pytest.mark.parametrize("m,c", [(2, 3), (3, 3), (3, 4)])
def test_reduce_mod_in_rejects_an_image_outside_the_algebra(monkeypatch, m, c):
    # x1 -> x1 + a1*t2 is IA, but its module part breaks the membership
    # condition sum t_i p_i = 0, so the (1,1) entry of M cannot cancel.
    monkeypatch.setattr(liealg, "CHECK_INVARIANTS", False)
    ctx = Context(m, c)
    mod = (TruncPoly.var(m, ctx.module_cap, 2),) + (ctx.zero_poly(),) * (m - 1)
    x1 = liealg.LieElement(ctx, (1,) + (0,) * (m - 1), mod)
    phi = endo.Endomorphism(ctx, (x1,) + tuple(liealg.generator(ctx, i) for i in range(2, m + 1)))
    assert phi.is_ia()
    with pytest.raises(ValidationError, match="no theta representative"):
        cosets.reduce_mod_in(phi)


def test_reduce_mod_in_certificate_catches_a_wrong_multiplier(monkeypatch):
    # Adding a central element to the image of x_3 changes only column 3 of
    # theta's Jacobian, which the theta shape leaves free: only the coset
    # certificate can reject it.
    ctx = Context(3, 4)
    x = [liealg.generator(ctx, i) for i in range(1, 4)]
    central = liealg.bracket_chain(x[1], x[0], x[0], x[0])
    ginn_to_endo = normal.ginn_to_endo

    def perturbed(g):
        images = ginn_to_endo(g).images
        return endo.Endomorphism(ctx, images[:2] + (images[2] + central,))

    monkeypatch.setattr(normal, "ginn_to_endo", perturbed)
    with pytest.raises(ValidationError, match="lost the coset"):
        cosets.reduce_mod_in(sample("ia", ctx, "cert", 2))


def test_reduce_mod_in_certificate_catches_an_off_shape_multiplier(monkeypatch):
    # Adding [x2,x1,x1] to the image of x_1 moves column 1 of theta's
    # Jacobian, which the theta shape constrains: the shape check fails
    # before the coset certificate is reached.
    ctx = Context(3, 4)
    x = [liealg.generator(ctx, i) for i in range(1, 4)]
    extra = liealg.bracket_chain(x[1], x[0], x[0])
    ginn_to_endo = normal.ginn_to_endo

    def perturbed(g):
        images = ginn_to_endo(g).images
        return endo.Endomorphism(ctx, (images[0] + extra,) + images[1:])

    monkeypatch.setattr(normal, "ginn_to_endo", perturbed)
    with pytest.raises(ValidationError, match="non-theta matrix"):
        cosets.reduce_mod_in(sample("ia", ctx, "cert", 2))


def test_reduce_mod_inn_certificate_catches_an_s_condition_break(monkeypatch):
    # ginn_pattern's certificate compares against ginn_jacobian, which is
    # built from the same _ginn_s, so only the psi shape's S-condition pass
    # sees a t1*t2 added to entry (1,1) of S.
    ctx = Context(3, 4)
    g = sample("ginn", ctx, "cert", 2)
    ginn_s = normal._ginn_s
    t1t2 = TruncPoly.monomial(3, ctx.module_cap, (1, 1, 0))

    def broken(h, unit=0):
        rows = [list(row) for row in ginn_s(h, unit)]
        rows[0][0] = rows[0][0] + t1t2
        return rows

    monkeypatch.setattr(normal, "_ginn_s", broken)
    with pytest.raises(ValidationError, match="non-psi matrix"):
        cosets.reduce_mod_inn_normal(g)


def test_reduce_mod_inn_certificate_catches_a_wrong_inverse(monkeypatch):
    ctx = Context(3, 4)
    psi0 = ginn(ctx, "0", "t3^2", "t3^2")  # its own psi representative
    monkeypatch.setattr(normal, "ginn_invert", lambda g: g)
    with pytest.raises(ValidationError, match="inner coset"):
        cosets.reduce_mod_inn_normal(psi0)


def test_reduce_mod_inn_inner_gives_identity():
    for m, c in [(3, 3), (2, 4)]:
        ctx = Context(m, c)
        for trial in range(6):
            phi = sample("inner", ctx, f"inn{trial}", 2)
            g = normal.recognize_ginn(phi)
            pf = cosets.reduce_mod_inn_normal(g)
            assert pf.endo == endo.Endomorphism.identity(ctx)


def test_reduce_mod_inn_collapses_at_class_two():
    ctx = Context(3, 2)
    for trial in range(6):
        g = sample("ginn", ctx, f"c2-{trial}", 3)
        pf = cosets.reduce_mod_inn_normal(g)
        assert pf.endo == endo.Endomorphism.identity(ctx)


def test_reduce_mod_inn_idempotent_invariant_certified():
    for m, c in [(3, 3), (3, 4), (2, 5)]:
        ctx = Context(m, c)
        for trial in range(6):
            g = sample("ginn", ctx, f"rmn{trial}", 2)
            pf = cosets.reduce_mod_inn_normal(g)
            assert cosets.shape_check(pf.jac, "psi")
            assert cosets.shape_check(pf.jac, "df")  # psi specializes df
            diff = endo.compose(
                normal.ginn_to_endo(g), endo.invert(pf.endo)
            )
            assert normal.recognize_inner(diff) is not None
            g2 = normal.recognize_ginn(pf.endo)
            assert cosets.reduce_mod_inn_normal(g2).endo == pf.endo
            u = sample("element", ctx, f"rmn-u{trial}", 2)
            shifted = endo.compose(endo.exp_ad(u), normal.ginn_to_endo(g))
            gs = normal.recognize_ginn(shifted)
            assert cosets.reduce_mod_inn_normal(gs).endo == pf.endo


def test_reduce_mod_inn_psi_fixture_is_fixed_point():
    ctx = Context(3, 4)
    psi0 = ginn(ctx, "0", "t3^2", "t3^2")
    pf = cosets.reduce_mod_inn_normal(psi0)
    assert pf.params == psi0
    u = sample("element", ctx, "psi-shift", 2)
    shifted = endo.compose(endo.exp_ad(u), normal.ginn_to_endo(psi0))
    assert cosets.reduce_mod_inn_normal(normal.recognize_ginn(shifted)).endo == pf.endo


def test_same_coset():
    ctx = Context(3, 3)
    phi = sample("ia", ctx, "sc", 2)
    assert cosets.same_coset(phi, phi, "ginn")
    assert cosets.same_coset(phi, phi, "inn")
    g = sample("ginn", ctx, "sc-g", 2)
    assert cosets.same_coset(endo.compose(normal.ginn_to_endo(g), phi), phi, "ginn")
    u = sample("element", ctx, "sc-u", 2)
    assert cosets.same_coset(endo.compose(endo.exp_ad(u), phi), phi, "inn")
    one_off = syntax.parse_automorphism(
        {"m": 3, "c": 3, "images": ["x1 + 1*[x1,x2,x3]", "x2", "x3"]}
    )
    assert not cosets.same_coset(one_off, endo.Endomorphism.identity(ctx), "ginn")
    with pytest.raises(DomainError):
        cosets.same_coset(
            endo.linear_endo(ctx, [[F(2) if i == j else F(0) for j in range(3)] for i in range(3)]),
            phi,
            "ginn",
        )
    with pytest.raises(DomainError):
        cosets.same_coset(phi, phi, "center")


def test_shape_check_rejects_an_unknown_shape_whatever_the_matrix():
    # on a matrix that is not IA the name used to be read only after a
    # test of the matrix that returned False
    ctx = Context(3, 3)
    non_ia = endo.jacobian(endo.linear_endo(ctx, [[2, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert not any(cosets.shape_check(non_ia, shape) for shape in ("theta", "psi", "df"))
    ia = endo.jacobian(sample("ia", ctx, "bogus", 2))
    for jac in (non_ia, ia):
        with pytest.raises(DomainError, match="unknown shape 'bogus'"):
            cosets.shape_check(jac, "bogus")


def test_same_coset_rejects_an_unknown_subgroup_before_the_ia_check():
    ctx = Context(3, 3)
    scaled = endo.linear_endo(ctx, [[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    ia = sample("ia", ctx, "bogus", 2)
    for phi, psi in ((scaled, ia), (ia, ia)):
        with pytest.raises(DomainError, match="unknown subgroup 'bogus'"):
            cosets.same_coset(phi, psi, "bogus")
    with pytest.raises(DomainError, match="IA automorphisms"):
        cosets.same_coset(scaled, ia, "ginn")
