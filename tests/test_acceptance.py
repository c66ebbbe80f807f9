"""Acceptance suite: one test per criterion, exact tolerances, one
pass/fail line each (run with -s or read the captured output).
"""

import random
from contextlib import contextmanager
from fractions import Fraction as F

from lmc import cosets, endo, liealg, normal, syntax
from lmc.liealg import Context
from lmc.verify import check_law, sample


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} ({title}): FAIL")
        raise
    print(f"[acceptance] criterion {number:2d} ({title}): PASS")


CTX23 = Context(2, 3)


def example_map(a, a1, a2, b, b1, b2):
    """x1 -> x1 + a[x1,x2] + a1[x1,x2,x1] + a2[x1,x2,x2] and likewise x2
    with (b, b1, b2).  Over the canonical tuples: [x1,x2,...] = -[x2,x1,...]."""

    def image(i, c0, c1, c2):
        w = liealg.from_basis(
            liealg.BasisForm(
                CTX23,
                (0, 0),
                {(2, 1): F(-c0), (2, 1, 1): F(-c1), (2, 1, 2): F(-c2)},
            )
        )
        return liealg.generator(CTX23, i) + w

    return endo.Endomorphism(CTX23, (image(1, a, a1, a2), image(2, b, b1, b2)))


def test_criterion_1_worked_example_reproduction():
    with criterion(1, "L_{2,3} worked-example coefficients, 50 random tuples"):
        rnd = random.Random(20230)
        ident = endo.Endomorphism.identity(CTX23)
        for _ in range(50):
            a, a1, a2, b, b1, b2 = (rnd.randint(-4, 4) for _ in range(6))
            p, p1, p2, q, q1, q2 = (rnd.randint(-4, 4) for _ in range(6))
            t, t1, t2, s, s1, s2 = (rnd.randint(-4, 4) for _ in range(6))
            psi = example_map(a, a1, a2, b, b1, b2)
            phi = example_map(p, p1, p2, q, q1, q2)
            theta = example_map(t, t1, t2, s, s1, s2)
            g_psi = normal.recognize_ginn(psi)
            g_phi = normal.recognize_ginn(phi)
            assert g_psi is not None and g_phi is not None

            # inverse coefficients
            expected_inv = example_map(
                -a, -(a * b + a1), a * a - a2, -b, -(b * b + b1), a * b - b2
            )
            assert normal.ginn_to_endo(normal.ginn_invert(g_psi)) == expected_inv
            assert endo.invert(psi) == expected_inv

            # composition coefficients (psi after phi)
            expected_comp = example_map(
                a + p, a1 + p1 - p * b, a2 + p2 + p * a,
                b + q, b1 + q1 - q * b, b2 + q2 + q * a,
            )
            assert (
                normal.ginn_to_endo(normal.ginn_compose(g_psi, g_phi))
                == expected_comp
            )
            assert endo.compose(psi, phi) == expected_comp

            # commutator coefficient alpha*q - beta*p on both images
            k = a * q - b * p
            expected_comm = example_map(0, k, 0, 0, 0, k)
            comm = endo.group_commutator(psi, phi)
            assert comm == expected_comm
            assert endo.group_commutator(comm, theta) == ident


def test_criterion_2_group_laws():
    with criterion(2, "group laws, >=100 seeded trials, zero failures"):
        cases = [
            ("abelian", (2, 2)), ("abelian", (3, 2)), ("abelian", (4, 2)),
            ("nilpotent2", (2, 3)), ("nilpotent2", (3, 3)),
            ("metabelian", (2, 4)), ("metabelian", (3, 4)),
            ("metabelian", (2, 5)), ("metabelian", (2, 2)),
            ("class2_by_abelian", (2, 3)),
        ]
        for law, (m, c) in cases:
            report = check_law(law, Context(m, c), trials=100, seed=101)
            assert report.ok and report.passed == 100, report.to_dict()


def test_criterion_3_jacobian_calculus():
    with criterion(3, "Jacobian semigroup isomorphism, 100 IA trials/context"):
        for m, c in [(2, 3), (3, 3), (3, 4)]:
            ctx = Context(m, c)
            for t in range(100):
                phi = sample("ia", ctx, f"c3-a-{t}", 3)
                psi = sample("ia", ctx, f"c3-b-{t}", 3)
                j_phi = endo.jacobian(phi)
                j_psi = endo.jacobian(psi)
                assert endo.jacobian(endo.compose(phi, psi)) == j_phi @ j_psi
                assert endo.jacobian(endo.invert(phi)) == j_phi.neumann_inverse()
                assert endo.ia_from_jacobian(j_phi) == phi


def test_criterion_4_recognition_round_trips():
    with criterion(4, "recognition round trips, 100 samples/context"):
        section3 = syntax.parse_automorphism(
            {"m": 2, "c": 3, "images": ["x1 + 1*[x1,x2,x2]", "x2"]}
        )
        assert normal.recognize_inner(section3) is None
        assert normal.recognize_ginn(section3) is not None
        for m, c in [(2, 3), (3, 2), (3, 3), (2, 4)]:
            ctx = Context(m, c)
            for t in range(100):
                g = sample("ginn", ctx, f"c4-g-{t}", 3)
                mat = normal.ginn_to_endo(g)
                back = normal.recognize_ginn(mat)
                assert back is not None
                assert normal.ginn_to_endo(back) == mat
                u = sample("element", ctx, f"c4-u-{t}", 3)
                inner = endo.exp_ad(u)
                got = normal.recognize_inner(inner)
                assert got is not None
                assert endo.exp_ad(got) == inner
        for m in (2, 3, 4):
            ctx = Context(m, 2)
            for t in range(100):
                g = sample("ginn", ctx, f"c4-c2-{t}", 3)
                mat = normal.ginn_to_endo(g)
                u = normal.recognize_inner(mat)
                assert u is not None
                assert endo.exp_ad(u) == mat


def scaling(ctx, value):
    a = [
        [F(value) if i == j else F(0) for j in range(ctx.m)] for i in range(ctx.m)
    ]
    return endo.linear_endo(ctx, a)


def test_criterion_5_normality_case_table():
    with criterion(5, "x_i -> 2x_i normality case table with verified witnesses"):
        for m in (2, 3, 4):
            assert normal.decide_normal(scaling(Context(m, 1), 2)).normal
        for m, c in [(2, 2), (2, 3)]:
            verdict = normal.decide_normal(scaling(Context(m, c), 2))
            assert verdict.normal and verdict.aut.alpha == 2
        expected_witness = {
            (3, 2): "x1 + [x2,x3]",
            (3, 3): "[x1,x2] + [x1,x3,x3]",
            (2, 4): "[x1,x2,x2] + [x1,x2,x1,x1]",
            (3, 4): "[x1,x2,x2] + [x1,x2,x1,x1]",
        }
        for (m, c), text in expected_witness.items():
            ctx = Context(m, c)
            two = scaling(ctx, 2)
            verdict = normal.decide_normal(two)
            assert not verdict.normal
            assert verdict.witness == [syntax.parse_element(ctx, text)]
            assert not normal.preserves_ideal(two, verdict.witness)


def test_criterion_6_ginn_preserves_ideals():
    with criterion(6, "GInn preserves 20 random principal ideals, 50 maps/context"):
        for m, c in [(2, 3), (3, 2), (3, 3), (2, 4)]:
            ctx = Context(m, c)
            for t in range(50):
                g = normal.ginn_to_endo(sample("ginn", ctx, f"c6-{t}", 3))
                for i in range(20):
                    u = sample("element", ctx, f"c6-{t}-{i}", 3)
                    assert normal.preserves_ideal(g, [u])


def test_criterion_7_coset_reductions():
    with criterion(7, "coset reductions: idempotent, invariant, certified"):
        ident23 = endo.Endomorphism.identity(Context(2, 4))
        for t in range(50):  # m = 2 collapse for reduce_mod_in
            phi = sample("ia", Context(2, 4), f"c7-m2-{t}", 3)
            assert cosets.reduce_mod_in(phi).endo == ident23
        for m, c in [(3, 3), (3, 4)]:
            ctx = Context(m, c)
            for t in range(50):
                phi = sample("ia", ctx, f"c7-in-{t}", 3)
                tf = cosets.reduce_mod_in(phi)
                assert cosets.shape_check(tf.jac, "theta")
                assert (
                    normal.recognize_ginn(endo.compose(phi, endo.invert(tf.endo)))
                    is not None
                )
                assert cosets.reduce_mod_in(tf.endo).endo == tf.endo
                g = sample("ginn", ctx, f"c7-in-g-{t}", 3)
                shifted = endo.compose(normal.ginn_to_endo(g), phi)
                assert cosets.reduce_mod_in(shifted).endo == tf.endo
        ident32 = endo.Endomorphism.identity(Context(3, 2))
        for t in range(50):  # c = 2 collapse for reduce_mod_inn_normal
            g = sample("ginn", Context(3, 2), f"c7-c2-{t}", 3)
            assert cosets.reduce_mod_inn_normal(g).endo == ident32
        for m, c in [(3, 3), (3, 4), (2, 5)]:
            ctx = Context(m, c)
            for t in range(50):
                g = sample("ginn", ctx, f"c7-inn-{t}", 3)
                pf = cosets.reduce_mod_inn_normal(g)
                assert cosets.shape_check(pf.jac, "psi")
                assert cosets.shape_check(pf.jac, "df")
                diff = endo.compose(normal.ginn_to_endo(g), endo.invert(pf.endo))
                assert normal.recognize_inner(diff) is not None
                again = cosets.reduce_mod_inn_normal(normal.recognize_ginn(pf.endo))
                assert again.endo == pf.endo
                u = sample("element", ctx, f"c7-inn-u-{t}", 3)
                shifted = endo.compose(endo.exp_ad(u), normal.ginn_to_endo(g))
                gs = normal.recognize_ginn(shifted)
                assert cosets.reduce_mod_inn_normal(gs).endo == pf.endo


def test_criterion_8_dimensions_and_round_trips():
    with criterion(8, "dimension formula and basis round trips, m<=4, c<=6"):
        for m in (2, 3, 4):
            for c in range(1, 7):
                ctx = Context(m, c)
                for k in range(2, c + 1):
                    assert len(liealg.enumerate_basis(ctx, k)) == (
                        liealg.degree_dim_formula(ctx, k)
                    )
                for t in range(100):
                    u = sample("element", ctx, f"c8-{t}", 3)
                    assert liealg.from_basis(liealg.to_basis(u)) == u


def test_criterion_9_algebra_axioms():
    with criterion(9, "algebra axioms, 200 random tuples/context"):
        contexts = [(2, 2), (3, 2), (2, 3), (3, 3), (2, 4), (3, 4), (2, 5), (4, 5)]
        rnd = random.Random(909)
        for m, c in contexts:
            ctx = Context(m, c)
            for t in range(200):
                u = sample("element", ctx, f"c9-u-{t}", 3)
                v = sample("element", ctx, f"c9-v-{t}", 3)
                w = sample("element", ctx, f"c9-w-{t}", 3)
                z = sample("element", ctx, f"c9-z-{t}", 3)
                assert liealg.bracket(u, v) == -liealg.bracket(v, u)
                jacobi = (
                    liealg.bracket(liealg.bracket(u, v), w)
                    + liealg.bracket(liealg.bracket(v, w), u)
                    + liealg.bracket(liealg.bracket(w, u), v)
                )
                assert jacobi.is_zero()
                assert liealg.bracket(
                    liealg.bracket(u, v), liealg.bracket(w, z)
                ).is_zero()
                args = [u, v, w, z]
                while len(args) < c + 1:
                    args.append(liealg.generator(ctx, rnd.randint(1, m)))
                assert liealg.bracket_chain(*args[: c + 1]).is_zero()


def test_criterion_10_mutation_tripwire(monkeypatch):
    with criterion(10, "sign-flipped bracket is caught by suites 2 and 3"):
        original = liealg.bracket
        monkeypatch.setattr(
            liealg, "bracket", lambda u, v: original(u, v).scale(-1)
        )
        report = check_law("abelian", Context(3, 2), trials=100, seed=55)
        assert not report.ok and report.counterexample is not None
        report = check_law("nilpotent2", Context(2, 3), trials=100, seed=55)
        assert not report.ok
        report = check_law("jacobian_functorial", Context(2, 3), trials=100, seed=55)
        assert not report.ok and report.counterexample is not None
        report = check_law("inner_conjugation", Context(3, 3), trials=100, seed=55)
        assert not report.ok and report.counterexample is not None
        report = check_law("ginn_normal_oracle", Context(3, 4), trials=20, seed=55)
        assert not report.ok and report.counterexample is not None
