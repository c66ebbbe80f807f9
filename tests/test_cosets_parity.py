"""The graded theta solve and the parameter-level psi certificate against
the reference reductions in tests/cosets_reference.py: the same theta and
psi representatives, Jacobians and parameters on sampled and sparse maps,
and a full-rank diagonal block for every parameter degree."""

import random
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import cosets_reference as ref  # noqa: E402
from inputs import sparse_element, sparse_ginn, sparse_ia  # noqa: E402

from lmc import cosets, endo, normal  # noqa: E402
from lmc.liealg import Context  # noqa: E402
from lmc.verify import sample  # noqa: E402

CONTEXTS = [(2, 2), (3, 2), (2, 3), (3, 3), (3, 4), (2, 5), (4, 4), (4, 5)]


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


@pytest.mark.parametrize("m,c", CONTEXTS)
def test_theta_blocks_have_full_column_rank(m, c):
    ctx = Context(m, c)
    for d in range(c - 1):
        unknowns, solver = cosets._theta_block(ctx, d)
        assert solver.ncols == len(unknowns) > 0
        assert solver.rank() == solver.ncols
