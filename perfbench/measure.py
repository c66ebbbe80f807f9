"""Timing loop and the statistics the end-to-end metrics are made of.

Operation latency is the fastest of an operation's repetitions within a
run, each repetition scaled to the machine's reference speed.

The machines this runs on are shared.  A busy neighbour slows all code of
this process by up to about 1.9 times, in spells from under a second to
several minutes, so a whole run can fall inside one.  A fixed yardstick
is therefore timed just before and just after every timed operation, and
the operation's wall time is divided by how much slower than YARDSTICK_S
the yardstick ran around it.  The wall times are kept in the run record.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import resource
import statistics
import subprocess
import time
import traceback
from fractions import Fraction

clock = time.perf_counter

MIN_BEYOND = 10  # samples that must lie beyond a reported percentile
_UNSET = object()

# The yardstick: a sparse product of two small dict polynomials with
# Fraction coefficients, the shape of lmc's own inner loop.  It uses no lmc
# code, so no change to lmc changes its time.
_YA = {(i, j): Fraction(i - j + 1, j + 2) for i in range(3) for j in range(3)}
_YB = {(i, j): Fraction(j - i - 2, i + 3) for i in range(3) for j in range(3)}
# The yardstick's time between operations on the machine the benchmark was
# built on (2-core Xeon at 2.1 GHz) when no neighbour slowed it.  It fixes
# the unit of the scaled figures, which read close to the wall times of a
# quiet run there, and nothing else.
YARDSTICK_S = 0.235e-3


def yardstick():
    """Seconds of one yardstick product, best of three."""
    best = math.inf
    for _ in range(3):
        t0 = clock()
        out = {}
        for ea, ca in _YA.items():
            for eb, cb in _YB.items():
                e = (ea[0] + eb[0], ea[1] + eb[1])
                out[e] = out.get(e, 0) + ca * cb
        best = min(best, clock() - t0)
    return best


def percentile(values, q):
    """Nearest-rank q-quantile, 0 < q < 1.  Refuses when fewer than
    MIN_BEYOND values lie beyond it, where it would rest on a handful of
    slow cases."""
    xs = sorted(values)
    rank = max(1, math.ceil(q * len(xs)))
    if len(xs) - rank < MIN_BEYOND:
        raise ValueError(
            f"p{round(q * 100)} of {len(xs)} values has {len(xs) - rank} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return xs[rank - 1]


class OpStats:
    """Repetitions of one operation: latencies of the certified ones, and
    failures.  A repetition fails if it raises, if the certificate rejects
    the first result, or if a later result differs from the certified one.
    `samples` are scaled latencies, `wall` the unscaled ones."""

    def __init__(self):
        self.samples = []
        self.wall = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._certified = _UNSET

    def record(self, op, seconds, result, error, slow=1.0):
        self.attempted += 1
        problem = error or self._verdict(op, result)
        if problem:
            self.failed += 1
            if len(self.problems) < 3:
                self.problems.append(problem)
        else:
            self.samples.append(seconds / slow)
            self.wall.append(seconds)

    def _verdict(self, op, result):
        try:
            if self._certified is _UNSET:
                problem = op.check(result)
                if problem is None:
                    self._certified = op.key(result)
                return problem
            if op.key(result) != self._certified:
                return "result differs from the certified result"
        except Exception:  # a certificate that crashes rejects the result
            return "certificate raised: " + traceback.format_exc(limit=3)
        return None


def time_round(ops, tracer=None, marks=None):
    """One timed repetition of every op, in order: (seconds, result, error)
    per op.  Arguments are prepared before the first op, and results are
    judged by the caller, so neither is timed nor traced.  If `marks` is a
    list, the yardstick is timed before the first op and after every op,
    and its times are appended to it."""
    gc.collect()
    args = [op.prepare() for op in ops]
    out = []
    if marks is not None:
        marks.append(yardstick())
    with tracer if tracer is not None else contextlib.nullcontext():
        for op, a in zip(ops, args):
            t0 = clock()
            try:
                result, error = op.run(*a), None
            except Exception:  # counted as a failed operation
                result, error = None, "raised: " + traceback.format_exc(limit=3)
            out.append((clock() - t0, result, error))
            if marks is not None:
                marks.append(yardstick())
    return out


def judge(ops, stats, outcomes, marks=None):
    """Record one round's outcomes; `marks` are that round's yardstick
    times from time_round, or None to leave the latencies unscaled.  An
    op's slowdown is the mean of the two times around it over YARDSTICK_S."""
    for i, (op, st, (seconds, result, error)) in enumerate(zip(ops, stats, outcomes)):
        slow = 1.0 if marks is None else (marks[i] + marks[i + 1]) / (2 * YARDSTICK_S)
        st.record(op, seconds, result, error, slow)


def warm_up(ops, marks=None):
    """Run the first op of every group once, untimed, to fill the
    process-global caches.  Failures are not judged here: every op is
    judged when it is timed.  If `marks` is a list, the yardstick is timed
    after every call, into it."""
    seen = set()
    for op in ops:
        if op.group not in seen:
            seen.add(op.group)
            with contextlib.suppress(Exception):
                op.run(*op.prepare())
            if marks is not None:
                marks.append(yardstick())


def measure(ops, seconds, min_rounds=2):
    """Round-robin repetitions of all ops until `seconds` would be
    exceeded by one more round (at least `min_rounds`).  Returns the
    per-op stats, the summed op wall time of each round, and every
    yardstick time."""
    stats = [OpStats() for _ in ops]
    rounds = []  # summed op wall time of each round
    yards = []
    start = clock()
    while True:
        t0 = clock()
        marks = []
        outcomes = time_round(ops, marks=marks)
        judge(ops, stats, outcomes, marks)
        rounds.append(sum(seconds for seconds, _, _ in outcomes))
        yards.extend(marks)
        last = clock() - t0
        if len(rounds) >= min_rounds and clock() - start + last > seconds:
            return stats, rounds, yards


def summarize(stats, wall=False):
    """End-to-end figures from per-op best latencies (ms): scaled, or the
    wall times with `wall`."""
    best = [min(st.wall if wall else st.samples) * 1e3 for st in stats if st.samples]
    return {
        "ops_per_s": len(best) / (sum(best) / 1e3),
        "op_p50_ms": statistics.median(best),
        "op_p90_ms": percentile(best, 0.9),
    }


def child_seconds(cmd, env=None, timeout=120):
    """Time a set-up child, which prints 'ready' and the yardstick times
    it took along the way as a JSON list, then exits at once.  Returns
    its wall seconds, the same scaled by the mean of those times, and the
    times."""
    t0 = clock()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, timeout=timeout)
    seconds = clock() - t0
    word, _, tail = proc.stdout.strip().partition(" ")
    if word != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up child failed with exit code {proc.returncode}")
    marks = json.loads(tail)
    return seconds, seconds / (statistics.mean(marks) / YARDSTICK_S), marks


def command_ms(cmd, env, reps=5):
    """Median wall time (ms) of a short command."""
    times = []
    for _ in range(reps):
        t0 = clock()
        subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=120)
        times.append((clock() - t0) * 1e3)
    return statistics.median(times)


def peak_rss_mb():
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024
