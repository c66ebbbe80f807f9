"""The names the benchmark's tracer wraps must exist.

perfbench/tracer.py looks up its spans (module functions, methods and
normal._AD_SOLVERS) when it is installed, so a renamed or deleted seam
crashes a traced benchmark run.  Installing the tracer here, around one
recognize_inner call, turns that crash into a failing test.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

from tracer import Tracer  # noqa: E402

from lmc import endo, liealg, normal  # noqa: E402
from lmc.liealg import Context  # noqa: E402


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
