import pytest
from fractions import Fraction as F

from lmc import endo, liealg, syntax
from lmc.arith import TruncPoly
from lmc.errors import DomainError, ValidationError
from lmc.liealg import Context
from lmc.verify import sample


def parse(ctx, s):
    return syntax.parse_element(ctx, s)


def aut(m, c, *images):
    return syntax.parse_automorphism({"m": m, "c": c, "images": list(images)})


def test_identity_apply():
    ctx = Context(2, 3)
    ident = endo.Endomorphism.identity(ctx)
    u = sample("element", ctx, "id-apply", 3)
    assert ident.apply(u) == u


def test_apply_frozen_example():
    ctx = Context(2, 3)
    phi = aut(2, 3, "x1 + 1*[x1,x2]", "x2")
    got = phi.apply(parse(ctx, "[x1,x2]"))
    assert got == parse(ctx, "[x1,x2] + [x1,x2,x2]")


def test_exp_ad_frozen():
    ctx = Context(2, 3)
    ex = endo.exp_ad(liealg.generator(ctx, 2))
    assert ex.images[0] == parse(ctx, "x1 + [x1,x2] + 1/2*[x1,x2,x2]")
    assert ex.images[1] == liealg.generator(ctx, 2)
    assert endo.exp_ad(liealg.zero(ctx)) == endo.Endomorphism.identity(ctx)


def test_exp_ad_inverse_pair():
    ctx = Context(3, 4)
    for trial in range(10):
        u = sample("element", ctx, f"exp{trial}", 2)
        lhs = endo.compose(endo.exp_ad(u), endo.exp_ad(-u))
        assert lhs == endo.Endomorphism.identity(ctx)


def test_compose_identity_and_example():
    ctx = Context(2, 3)
    psi = aut(2, 3, "x1 + 1*[x1,x2]", "x2 + 2*[x1,x2]")
    phi = aut(2, 3, "x1 + 3*[x1,x2]", "x2 + 5*[x1,x2]")
    ident = endo.Endomorphism.identity(ctx)
    assert endo.compose(psi, ident) == psi
    assert endo.compose(ident, psi) == psi
    comp = endo.compose(psi, phi)
    assert comp.images[0] == parse(ctx, "x1 + 4*[x1,x2] - 6*[x1,x2,x1] + 3*[x1,x2,x2]")
    assert comp.images[1] == parse(ctx, "x2 + 7*[x1,x2] - 10*[x1,x2,x1] + 5*[x1,x2,x2]")


def test_apply_is_lie_homomorphism():
    for m, c in [(2, 3), (3, 4)]:
        ctx = Context(m, c)
        for trial in range(10):
            phi = sample("ia", ctx, f"hom{trial}", 2)
            u = sample("element", ctx, f"homu{trial}", 2)
            v = sample("element", ctx, f"homv{trial}", 2)
            assert phi.apply(liealg.bracket(u, v)) == liealg.bracket(
                phi.apply(u), phi.apply(v)
            )


def test_jacobian_frozen():
    phi = aut(2, 3, "x1 + 1*[x1,x2]", "x2")
    jac = endo.jacobian(phi)
    assert jac.rows[0][0] == TruncPoly(2, 2, {(0, 0): F(1), (0, 1): F(1)})  # 1 + t2
    assert jac.rows[0][1].is_zero()
    assert jac.rows[1][0] == TruncPoly(2, 2, {(1, 0): F(-1)})  # -t1
    assert jac.rows[1][1] == TruncPoly.const(2, 2, 1)
    ident = endo.Endomorphism.identity(Context(2, 3))
    assert endo.jacobian(ident) == endo.JacobianMatrix.identity(Context(2, 3))


def test_jacobian_functorial_random():
    for m, c in [(2, 3), (3, 3), (3, 4)]:
        ctx = Context(m, c)
        for trial in range(10):
            phi = sample("ia", ctx, f"jf-a{trial}", 2)
            psi = sample("ia", ctx, f"jf-b{trial}", 2)
            assert endo.jacobian(endo.compose(phi, psi)) == endo.jacobian(
                phi
            ) @ endo.jacobian(psi)


def test_jacobian_injective_spot_check():
    ctx = Context(3, 3)
    phi = sample("ia", ctx, "inj-a", 2)
    psi = sample("ia", ctx, "inj-b", 2)
    assert phi != psi
    assert endo.jacobian(phi) != endo.jacobian(psi)


def test_ia_from_jacobian_round_trip_and_errors():
    ctx = Context(2, 3)
    phi = aut(2, 3, "x1 + 1*[x1,x2]", "x2")
    assert endo.ia_from_jacobian(endo.jacobian(phi)) == phi
    zero = TruncPoly.zero(2, 2)
    one = TruncPoly.const(2, 2, 1)
    t1 = TruncPoly.var(2, 2, 1)
    with pytest.raises(ValidationError):
        endo.ia_from_jacobian(
            endo.JacobianMatrix(ctx, ((one, t1), (zero, one)))
        )  # column sum t1^2 != 0
    with pytest.raises(ValidationError):
        endo.ia_from_jacobian(
            endo.JacobianMatrix(ctx, ((one, TruncPoly.const(2, 2, 2)), (zero, one)))
        )  # constant off-diagonal


def test_invert_frozen_and_random():
    ctx = Context(2, 3)
    ident = endo.Endomorphism.identity(ctx)
    assert endo.invert(ident) == ident
    psi = aut(2, 3, "x1 + 1*[x1,x2]", "x2 + 2*[x1,x2]")
    inv = endo.invert(psi)
    assert inv.images[0] == parse(ctx, "x1 - 1*[x1,x2] - 2*[x1,x2,x1] + 1*[x1,x2,x2]")
    assert inv.images[1] == parse(ctx, "x2 - 2*[x1,x2] - 4*[x1,x2,x1] + 2*[x1,x2,x2]")
    assert endo.compose(psi, inv) == ident
    assert endo.compose(inv, psi) == ident
    # scaling map
    two = endo.linear_endo(ctx, [[F(2), F(0)], [F(0), F(2)]])
    inv2 = endo.invert(two)
    assert inv2.images[0] == liealg.generator(ctx, 1).scale(F(1, 2))
    for m, c in [(3, 3), (2, 4)]:
        cx = Context(m, c)
        for trial in range(8):
            phi = sample("ia", cx, f"inv{trial}", 2)
            assert endo.compose(phi, endo.invert(phi)) == endo.Endomorphism.identity(cx)


def test_invert_requires_automorphism():
    ctx = Context(2, 2)
    singular = endo.Endomorphism(
        ctx, (liealg.generator(ctx, 1), liealg.generator(ctx, 1))
    )
    with pytest.raises(DomainError):
        endo.invert(singular)
    assert not singular.is_automorphism()


def test_decompose():
    ctx = Context(2, 3)
    phi = sample("ia", ctx, "dec-ia", 2)
    a, chi = endo.decompose(phi)
    assert a == [[F(1), F(0)], [F(0), F(1)]]
    assert chi == phi
    w = parse(ctx, "[x1,x2]")
    images = (
        liealg.generator(ctx, 1).scale(2) + w,
        liealg.generator(ctx, 2).scale(2),
    )
    psi = endo.Endomorphism(ctx, images)
    a, chi = endo.decompose(psi)
    assert a == [[F(2), F(0)], [F(0), F(2)]]
    assert chi.is_ia()
    assert endo.compose(endo.linear_endo(ctx, a), chi) == psi


def test_group_commutator_frozen():
    ctx = Context(2, 3)
    psi = aut(2, 3, "x1 + 1*[x1,x2]", "x2 + 2*[x1,x2]")
    phi = aut(2, 3, "x1 + 3*[x1,x2]", "x2 + 5*[x1,x2]")
    gc = endo.group_commutator(psi, phi)
    # coefficient alpha*q - beta*p = 1*5 - 2*3 = -1 on [x1,x2,x_i]
    assert gc.images[0] == parse(ctx, "x1 - 1*[x1,x2,x1]")
    assert gc.images[1] == parse(ctx, "x2 - 1*[x1,x2,x2]")
    assert endo.group_commutator(psi, psi) == endo.Endomorphism.identity(ctx)
    theta = aut(2, 3, "x1 + 7*[x1,x2,x2]", "x2 - 3*[x1,x2,x1]")
    assert endo.group_commutator(gc, theta) == endo.Endomorphism.identity(ctx)
