"""The names the benchmark's tracer wraps must exist.

perfbench/tracer.py looks up its spans (module functions, methods and
normal._AD_SOLVERS) when it is installed, so a renamed or deleted seam
crashes a traced benchmark run.  Installing the tracer here, around one
recognize_inner call, one witness search and two pairs of coset
reductions, turns that crash into a failing test, and so does a witness
search that no longer goes through normal.preserves_ideal, or a coset
reduction that inverts, exponentiates or builds a solver per input.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import ideal_reference as ref  # noqa: E402
from tracer import Tracer  # noqa: E402

from lmc import cosets, endo, liealg, normal  # noqa: E402
from lmc.liealg import Context  # noqa: E402
from lmc.verify import sample  # noqa: E402


def test_tracer_installs_and_counts_recognize_inner():
    ctx = Context(3, 3)
    u = liealg.generator(ctx, 1) + liealg.bracket(
        liealg.generator(ctx, 2), liealg.generator(ctx, 3)
    )
    phi = endo.exp_ad(u)
    tracer = Tracer()
    tracer.install()
    try:
        got = normal.recognize_inner(phi)
        counts = tracer.counts()
    finally:
        tracer.uninstall()
    assert got == u
    assert counts["normal.recognize_inner.calls"] == 1
    assert counts["normal.recognize_inner.peel_steps"] <= 1
    assert counts["normal.ad_solver.builds"] == 0
    assert normal.recognize_inner.__module__ == "lmc.normal"  # uninstalled


def test_tracer_counts_the_witness_search():
    ctx = Context(3, 3)
    x = [liealg.generator(ctx, i) for i in range(1, 4)]
    # x1 -> x1 + [x2,x3]: IA and not generalized inner
    phi = endo.Endomorphism(ctx, (x[0] + liealg.bracket(x[1], x[2]), x[1], x[2]))
    tracer = Tracer()
    tracer.install()
    try:
        verdict = normal.decide_normal(phi, search_witness=True)
        counts = tracer.counts()
    finally:
        tracer.uninstall()
    tried = counts["normal.witness.ideals_tried"]
    assert tried >= 1
    assert counts["normal.preserves_ideal.calls"] == tried
    candidates = [
        x[p].scale(a) + x[q]
        for p in range(3)
        for q in range(3)
        if p != q
        for a in range(1, ctx.c + 2)
    ]
    expected = next(g for g in candidates if not ref.preserves_ideal(phi, [g]))
    assert not verdict.normal
    assert verdict.witness == [expected]
    assert tried == candidates.index(expected) + 1
    assert normal.preserves_ideal.__module__ == "lmc.normal"  # uninstalled


def _traced_reductions(ctx, seed):
    phi = sample("ia", ctx, seed, 2)
    g = sample("ginn", ctx, seed, 2)
    tracer = Tracer()
    tracer.install()
    try:
        cosets.reduce_mod_in(phi)
        cosets.reduce_mod_inn_normal(g)
        counts = tracer.counts()
    finally:
        tracer.uninstall()
    assert counts["cosets.reduce_mod_in.calls"] == 1
    assert counts["cosets.reduce_mod_inn_normal.calls"] == 1
    return counts


def test_coset_reductions_certify_without_invert_or_exp_ad():
    ctx = Context(3, 4)
    first = _traced_reductions(ctx, "seams-1")
    assert first["endo.invert.calls"] == 0
    assert first["endo.exp_ad.calls"] == 0
    # the diagonal blocks of the theta solve are built once per context
    second = _traced_reductions(ctx, "seams-2")
    assert second["linalg.solver.builds"] == 0
    assert second["endo.invert.calls"] == 0
    assert second["endo.exp_ad.calls"] == 0
    assert cosets.reduce_mod_in.__module__ == "lmc.cosets"  # uninstalled
