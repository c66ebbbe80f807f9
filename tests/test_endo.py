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


def test_ia_from_jacobian_round_trip_and_errors(monkeypatch):
    # the S-condition is checked by the constructor itself, not only by the
    # element invariants the test session switches on
    monkeypatch.setattr(liealg, "CHECK_INVARIANTS", False)
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


def test_linear_endo_sends_each_generator_to_its_column():
    ctx = Context(3, 3)
    a = [[F(1), F(2), F(0)], [F(-1, 3), F(1), F(0)], [F(0), F(5), F(2)]]
    phi = endo.linear_endo(ctx, a)
    for j, image in enumerate(phi.images):
        assert image == sum(
            (liealg.generator(ctx, k + 1).scale(a[k][j]) for k in range(3)), liealg.zero(ctx)
        )
    assert phi.linear_matrix() == a


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


def test_is_unipotent_reads_constant_terms():
    """Each entry is swapped into the identity at (1,1) and (1,2), and the
    packed-numerator read must agree with the constant term as a Fraction;
    the entries share denominators with their higher terms."""
    ctx = Context(2, 3)
    t1 = TruncPoly.var(2, 2, 1)
    entries = [TruncPoly.const(2, 2, k) for k in (0, 1, 2, -1, F(1, 2))]
    entries += [p + t1.scale(F(1, 2)) for p in list(entries)]
    ident = endo.JacobianMatrix.identity(ctx)
    for p in entries:
        for i, j in ((0, 0), (0, 1)):
            rows = [list(row) for row in ident.rows]
            rows[i][j] = p
            expected = p.constant_term() == (1 if i == j else 0)
            assert endo.JacobianMatrix(ctx, rows).is_unipotent() == expected, (p, i, j)


def test_linear_part_and_scalar_read_every_entry():
    """Endomorphism.scalar reads numerators and denominators off the linear
    part of a map given by its images, and a map built from its Jacobian
    takes its scalar from the matrix: both agree with the Fraction reading
    of the constant part, an off-diagonal entry included."""
    ctx = Context(3, 3)
    for a in ([[2, 0, 0], [0, 2, 0], [0, 0, 2]], [[F(1, 2), 0, 0], [0, F(1, 2), 0], [0, 0, F(1, 2)]],
              [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, F(1, 3), 1]],
              [[2, 0, 0], [0, 2, 0], [0, 0, 3]], [[0, 0, 0], [0, 0, 0], [0, 0, 0]]):
        a = [[F(x) for x in row] for row in a]
        built = endo.linear_endo(ctx, a)
        phi = endo.Endomorphism(ctx, built.images)
        diagonal = all(a[k][i] == (a[0][0] if k == i else 0) for k in range(3) for i in range(3))
        expected = a[0][0] if diagonal else None
        assert phi.scalar() == built.scalar() == expected, a
        assert phi.is_ia() is built.is_ia() is (expected == 1)


def test_an_ia_map_is_an_automorphism_without_a_linear_inverse(monkeypatch):
    seen = []
    original = endo.mat_inv

    def counting(a):
        seen.append(a)
        return original(a)

    monkeypatch.setattr(endo, "mat_inv", counting)
    ctx = Context(3, 4)
    assert sample("ia", ctx, "auto", 2).is_automorphism()
    assert seen == []
    upper = [[1 if k in (i, i + 1) else 0 for i in range(3)] for k in range(3)]
    assert endo.linear_endo(ctx, upper).is_automorphism()
    singular = [[1 if k == 0 else 0 for i in range(3)] for k in range(3)]
    assert not endo.linear_endo(ctx, singular).is_automorphism()
    assert len(seen) == 2


def test_kernel_results_are_validated_under_check_invariants(monkeypatch):
    # JacobianMatrix._clean checks the shape again exactly when
    # CHECK_INVARIANTS is on, as LieElement._clean does
    assert liealg.CHECK_INVARIANTS  # set for the whole run by tests/conftest.py
    ctx = Context(2, 3)
    jac = endo.jacobian(aut(2, 3, "x1 + 1*[x1,x2]", "x2"))
    wrong_cap = tuple(tuple(p.with_cap(1) for p in row) for row in jac.rows)
    for rows in (wrong_cap, jac.rows[:1], [list(row) for row in jac.rows]):
        with pytest.raises(ValidationError):
            endo.JacobianMatrix._clean(ctx, rows)
    monkeypatch.setattr(liealg, "CHECK_INVARIANTS", False)
    assert endo.JacobianMatrix._clean(ctx, wrong_cap).rows is wrong_cap
    # products, solves and commutators (IA and scalar pairs) all wrap
    # through _clean
    wrapped = []
    clean = endo.JacobianMatrix._clean

    def spy(ctx, rows):
        wrapped.append(rows)
        return clean(ctx, rows)

    monkeypatch.setattr(endo.JacobianMatrix, "_clean", spy)
    scalar = endo.jacobian(endo.linear_endo(ctx, [[2, 0], [0, 2]]))
    results = [
        jac @ jac, jac.neumann_inverse(),
        endo.jacobian_commutator(jac, jac), endo.jacobian_commutator(scalar, jac),
    ]
    assert all(any(r.rows is rows for rows in wrapped) for r in results)
