"""The packed theta read and the parameter-level psi certificate against
the reference reductions in tests/cosets_reference.py: the same theta and
psi representatives, Jacobians and parameters on sampled and sparse maps.

reduce_mod_in reads the theta multiplier degree by degree, each
constrained entry moved by w_d J[i][col] alone, where the oracle solves
one system over every parameter unknown.  Both must give the same forms
on sampled, sparse, inner and GInn maps drawn by hypothesis, and on IA
maps with one module term bumped out of the algebra both must raise
ValidationError, lmc's with "no theta representative" on at least one
bumped map per context.  The df shape reads no sum of t_i q_i or t_i r_i, and
must give df_shape's verdict on the Jacobians of sampled maps, on theta
and psi outputs, and on psi Jacobians perturbed in one entry or in a pair
of entries (i, col), (j, col) by t_j u and -t_i u, which keeps the
S-condition; a Jacobian whose constant part is not I fails the df and
theta shapes on both sides.  Rational maps at c >= 5 reach the growing
denominator of the packed theta read.
"""

import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import cosets_reference as ref  # noqa: E402
from inputs import sparse_element, sparse_ginn, sparse_ia  # noqa: E402

from lmc import cosets, endo, liealg, normal  # noqa: E402
from lmc.arith import TruncPoly, all_monomials  # noqa: E402
from lmc.errors import ValidationError  # noqa: E402
from lmc.liealg import Context  # noqa: E402
from lmc.verify import sample  # noqa: E402

CONTEXTS = [(2, 2), (3, 2), (2, 3), (3, 3), (3, 4), (2, 5), (4, 4), (4, 5), (5, 3), (5, 4), (3, 6)]
S_CONTEXTS = [(2, 2), (2, 3), (3, 3), (3, 4), (4, 5), (5, 4), (3, 6)]
CHECK = settings(max_examples=100, deadline=None, database=None)
MAP_KINDS = ("ia", "sparse", "inner", "ginn")


def _form(form):
    return form.endo, form.jac, form.params


def _ia_inputs(ctx):
    rnd = random.Random(f"cosets-parity:ia:{ctx.m},{ctx.c}")
    phi = sparse_ia(ctx, rnd)
    for trial in range(3):
        yield sample("ia", ctx, f"cosets-parity-{trial}", 2)
    yield phi
    yield sparse_ia(ctx, rnd, non_ginn=ctx.m >= 3)
    # two more maps in phi's coset, the first with rational coefficients
    yield endo.compose(endo.exp_ad(sparse_element(ctx, rnd, 2, linear=1)), phi)
    yield endo.compose(normal.ginn_to_endo(sparse_ginn(ctx, rnd)), phi)


def _ginn_inputs(ctx):
    rnd = random.Random(f"cosets-parity:ginn:{ctx.m},{ctx.c}")
    g = sparse_ginn(ctx, rnd)
    for trial in range(3):
        yield sample("ginn", ctx, f"cosets-parity-{trial}", 2)
    yield g
    inner = endo.exp_ad(sparse_element(ctx, rnd, 2, linear=1))
    yield normal.recognize_ginn(endo.compose(inner, normal.ginn_to_endo(g)))


@pytest.mark.parametrize("m,c", CONTEXTS)
def test_reduce_mod_in_matches_reference(m, c):
    for phi in _ia_inputs(Context(m, c)):
        assert _form(cosets.reduce_mod_in(phi)) == _form(ref.reduce_mod_in(phi))


@pytest.mark.parametrize("m,c", CONTEXTS)
def test_reduce_mod_inn_normal_matches_reference(m, c):
    for g in _ginn_inputs(Context(m, c)):
        assert _form(cosets.reduce_mod_inn_normal(g)) == _form(ref.reduce_mod_inn_normal(g))


def _ia_map(ctx, kind, seed):
    if kind == "sparse":
        return sparse_ia(ctx, random.Random(seed), non_ginn=ctx.m >= 3 and seed % 2 == 1)
    if kind == "ginn":
        return normal.ginn_to_endo(sample("ginn", ctx, seed, 2))
    return sample(kind, ctx, seed, 2)


@CHECK
@given(st.sampled_from(S_CONTEXTS), st.sampled_from(MAP_KINDS), st.integers(0, 10**6))
def test_reduce_mod_in_matches_the_full_solve(mc, kind, seed):
    phi = _ia_map(Context(*mc), kind, seed)
    assert _form(cosets.reduce_mod_in(phi)) == _form(ref.reduce_mod_in(phi))


@pytest.mark.parametrize("m,c", [(2, 3), (3, 3), (3, 4), (4, 4), (2, 5)])
def test_reduce_mod_in_rejects_a_map_outside_the_algebra_as_the_full_solve(
    monkeypatch, m, c
):
    # one module term of one image bumped: sum_k t_k p_k no longer vanishes
    monkeypatch.setattr(liealg, "CHECK_INVARIANTS", False)
    ctx = Context(m, c)
    rnd = random.Random(f"cosets-parity:corrupt:{m},{c}")
    monos = [e for e in all_monomials(m, ctx.module_cap) if any(e)]
    theta_refusals = 0
    for trial in range(6 * m):
        phi = sample("ia", ctx, f"corrupt-{trial}", 2) if trial % 2 else sparse_ia(ctx, rnd)
        j, k = rnd.randrange(m), rnd.randrange(m)
        image = phi.images[j]
        bump = TruncPoly.monomial(m, ctx.module_cap, rnd.choice(monos), rnd.choice((-1, 1)))
        mod = tuple(p + bump if i == k else p for i, p in enumerate(image.mod))
        images = list(phi.images)
        images[j] = liealg.LieElement(ctx, image.beta, mod)
        bad = endo.Endomorphism(ctx, tuple(images))
        assert bad.is_ia()
        with pytest.raises(ValidationError) as refused:
            cosets.reduce_mod_in(bad)
        theta_refusals += "no theta representative" in str(refused.value)
        with pytest.raises(ValidationError):
            ref.reduce_mod_in(bad)
    # the (1,1) consistency check refuses some inputs before the S-condition
    # check of the Jacobian does
    assert theta_refusals


def _df_jacobian(ctx, kind, seed, pick):
    """A Jacobian for the df parity: of a sampled map, a theta or psi
    output, or a psi Jacobian perturbed in one entry or in an S-condition
    preserving pair; pick(n) chooses one of n options."""
    if kind in ("ia", "inner", "aut"):
        return endo.jacobian(sample(kind, ctx, seed, 2))
    if kind == "theta":
        return cosets.reduce_mod_in(sample("ia", ctx, seed, 2)).jac
    jac = cosets.reduce_mod_inn_normal(sample("ginn", ctx, seed, 2)).jac
    if kind == "psi":
        return jac
    m, cap = ctx.m, ctx.module_cap
    rows = [list(row) for row in jac.rows]
    i, col = pick(m), int(pick(4) == 0)  # column 2 a quarter of the time
    coeff = pick(5) - 2 or 1
    if kind == "entry":
        monos = [e for e in all_monomials(m, cap) if any(e)]
        rows[i][col] = rows[i][col] + TruncPoly.monomial(m, cap, monos[pick(len(monos))], coeff)
    else:
        j = (i + 1 + pick(m - 1)) % m
        monos = all_monomials(m, cap - 1)
        u = TruncPoly.monomial(m, cap, monos[pick(len(monos))], coeff)
        rows[i][col] = rows[i][col] + u.mul_var(j + 1)
        rows[j][col] = rows[j][col] - u.mul_var(i + 1)
    return endo.JacobianMatrix(ctx, tuple(map(tuple, rows)))


@CHECK
@given(
    st.sampled_from(S_CONTEXTS),
    st.sampled_from(("ia", "inner", "aut", "theta", "psi", "entry", "pair")),
    st.integers(0, 10**6),
    st.data(),
)
def test_df_shape_matches_the_summed_predicate(mc, kind, seed, data):
    ctx = Context(*mc)
    jac = _df_jacobian(ctx, kind, seed, lambda n: data.draw(st.integers(0, n - 1)))
    if kind == "pair":
        assert jac.satisfies_s_condition()
    assert cosets.shape_check(jac, "df") == ref.df_shape(jac)


def test_df_and_theta_shapes_refuse_a_constant_jacobian_that_is_not_unipotent():
    # the df and theta shapes are shapes of IA matrices, so a Jacobian
    # whose constant part is not I fails both predicates on both sides
    jac = endo.jacobian(sample("aut", Context(2, 2), 122922, 2))
    assert not jac.is_unipotent()
    for shape, oracle in (("df", ref.df_shape), ("theta", ref.theta_shape)):
        assert cosets.shape_check(jac, shape) is oracle(jac) is False


@pytest.mark.parametrize("m,c", [(3, 5), (2, 6)])
def test_reduce_mod_in_reads_rational_jacobians_as_the_full_solve(m, c):
    # exp(ad u) for a u with a linear part has the coefficients of E(s), so
    # the packed theta read runs over a denominator that gains a factor at
    # every degree
    ctx = Context(m, c)
    rnd = random.Random(f"cosets-parity:rational:{m},{c}")
    for _ in range(3):
        phi = endo.compose(endo.exp_ad(sparse_element(ctx, rnd, 2, linear=1)), sparse_ia(ctx, rnd))
        assert max(p.den for row in endo.jacobian(phi).rows for p in row) > 1
        assert _form(cosets.reduce_mod_in(phi)) == _form(ref.reduce_mod_in(phi))
