"""The three workloads, each a list of independent operations.

An operation has a timed call, an untimed `prepare` that makes its
arguments, and an untimed certificate.  Operations of one workload are
run round-robin, so a slow spell of the machine hits all of them alike.
See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Any, Callable

from lmc import cli, cosets, endo, liealg, normal, syntax, verify
from lmc.liealg import Context

import certify
from inputs import fresh, sparse_comm, sparse_element, sparse_ginn, sparse_ia

# The six laws on the contexts of the acceptance suite.
LAW_CONTEXTS = (
    ("abelian", (3, 2)),
    ("nilpotent2", (3, 3)),
    ("metabelian", (3, 4)),
    ("metabelian", (2, 5)),
    ("class2_by_abelian", (2, 3)),
    ("jacobian_functorial", (3, 4)),
    ("ginn_normal_oracle", (3, 4)),
)
LAWS_PER_CONTEXT = 15  # 7 x 15 = 105 distinct ops

DECIDE_CONTEXTS = ((4, 5), (5, 4), (4, 6))
DECIDE_PER_KIND = 6  # 7 kinds x 3 contexts x 6 = 126 distinct ops

CLI_CONTEXTS = ((2, 3), (3, 3), (3, 4))
CLI_SESSIONS = 4  # 19 invocations per session: 3 x 4 x 19 = 228 distinct ops
CLI_LAWS = {(2, 3): "class2_by_abelian", (3, 3): "nilpotent2", (3, 4): "metabelian"}


@dataclass
class Op:
    """One benchmark operation: `run(*prepare())` is timed; `check(result)`
    returns None when the result is certified, else a reason; `key(result)`
    is compared across repetitions once a result has been certified."""

    name: str
    group: str
    run: Callable[..., Any]
    check: Callable[[Any], str | None]
    prepare: Callable[[], tuple] = tuple
    key: Callable[[Any], Any] = field(default=lambda r: r)


def build(workload: str, seed: int, workdir: str) -> list:
    """The seeded operations of a workload.  `workdir` receives the cli
    workload's input files."""
    if workload == "laws":
        return _laws(seed)
    if workload == "decide":
        return _decide(seed)
    if workload == "cli":
        return _cli(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def late(owner, name, **kwargs):
    """A call of owner.name as bound at call time, so that a traced run
    sees the wrapper installed on it."""
    return lambda *args: getattr(owner, name)(*args, **kwargs)


def interleave(groups):
    """Round-robin merge, so that consecutive ops belong to different groups."""
    out = []
    for i in range(max(len(g) for g in groups)):
        out.extend(g[i] for g in groups if i < len(g))
    return out


# -- laws ---------------------------------------------------------------------------


def _law_check(report):
    if report.counterexample is not None or report.passed != report.requested:
        return f"law failed: {report.counterexample}"
    return None


def _laws(seed):
    rnd = random.Random(f"laws:{seed}")
    groups = []
    for law, (m, c) in LAW_CONTEXTS:
        ctx = Context(m, c)
        group = f"{law}({m},{c})"
        groups.append(
            [
                Op(
                    name=f"{group}#{i}",
                    group=group,
                    run=partial(late(verify, "check_law"), law, ctx, 1, rnd.randrange(2**31)),
                    check=_law_check,
                    key=lambda r: (r.passed, r.counterexample),
                )
                for i in range(LAWS_PER_CONTEXT)
            ]
        )
    return interleave(groups)


# -- decide -----------------------------------------------------------------------


def _gc(ctx, rnd):
    a, b = sparse_ia(ctx, rnd), sparse_ia(ctx, rnd)
    return dict(
        run=late(endo, "group_commutator"),
        prepare=lambda: (fresh(a), fresh(b)),
        check=partial(certify.group_commutator, a, b),
    )


def _reduce_in(ctx, rnd):
    phi = sparse_ia(ctx, rnd)
    return dict(
        run=late(cosets, "reduce_mod_in"),
        prepare=lambda: (fresh(phi),),
        check=partial(certify.theta_form, phi),
    )


def _reduce_inn(ctx, rnd):
    g = sparse_ginn(ctx, rnd)
    return dict(
        run=late(cosets, "reduce_mod_inn_normal"),
        prepare=lambda: (g,),
        check=partial(certify.psi_form, normal.ginn_to_endo(g)),
    )


def _normal_ginn(ctx, rnd):
    g = sparse_ginn(ctx, rnd)
    phi = normal.ginn_to_endo(g)
    ideals = [[sparse_element(ctx, rnd, 2)] for _ in range(2)]
    return dict(
        run=late(normal, "decide_normal", search_witness=True),
        prepare=lambda: (fresh(phi),),
        check=partial(certify.ginn_verdict, phi, g, ideals),
    )


def _normal_ia(ctx, rnd):
    phi = sparse_ia(ctx, rnd, non_ginn=True)
    return dict(
        run=late(normal, "decide_normal", search_witness=True),
        prepare=lambda: (fresh(phi),),
        check=partial(certify.non_ginn_verdict, phi),
    )


def _recognize_inner(ctx, rnd):
    u = sparse_element(ctx, rnd, 2, linear=1)
    phi = endo.exp_ad(u)
    return dict(
        run=late(normal, "recognize_inner"),
        prepare=lambda: (fresh(phi),),
        check=partial(certify.inner_generator, u),
    )


def _preserves(ctx, rnd):
    phi = normal.ginn_to_endo(sparse_ginn(ctx, rnd))
    # one commutator of degree 2 makes the ideal large, as in the witness
    # search; an ideal of high-degree commutators alone would be trivial
    comm = {**sparse_comm(ctx, rnd, 1), **sparse_comm(ctx, rnd, 1, degree=2)}
    gens = [sparse_element(ctx, rnd, comm=comm)]

    def check(result):
        return None if result else "generalized inner map moves an ideal"

    return dict(run=late(normal, "preserves_ideal"), prepare=lambda: (fresh(phi), gens), check=check)


DECIDE_KINDS = {
    "group_commutator": _gc,
    "reduce_mod_in": _reduce_in,
    "reduce_mod_inn_normal": _reduce_inn,
    "decide_normal_ginn": _normal_ginn,
    "decide_normal_ia": _normal_ia,
    "recognize_inner": _recognize_inner,
    "preserves_ideal": _preserves,
}


def _decide(seed):
    rnd = random.Random(f"decide:{seed}")
    groups = []
    for m, c in DECIDE_CONTEXTS:
        ctx = Context(m, c)
        for kind, make in DECIDE_KINDS.items():
            group = f"{kind}({m},{c})"
            groups.append(
                [
                    Op(name=f"{group}#{i}", group=group, **make(ctx, rnd))
                    for i in range(DECIDE_PER_KIND)
                ]
            )
    return interleave(groups)


# -- cli ----------------------------------------------------------------------------

# Expected results are (exit code, stdout) built from the library on the
# in-memory objects the input files were written from.  An expected
# stdout of None marks a malformed input: the exit code must match,
# stdout stay empty and stderr hold one line.


def run_in_process(argv):
    """One `lmc` invocation through lmc.cli.main: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _normalize(stdout):
    """verify reports carry their own wall time: compare them without it.
    Every other stdout is compared byte for byte."""
    try:
        payload = json.loads(stdout)
    except ValueError:
        return stdout
    if not isinstance(payload, dict) or "elapsed_seconds" not in payload:
        return stdout
    del payload["elapsed_seconds"]
    return payload


def _cli_check(expect, result):
    code, stdout, stderr = result
    want_code, want_out = expect()
    if code != want_code:
        return f"exit code {code}, expected {want_code}: {stderr.strip()[:200]}"
    if want_out is None:
        if stdout or len(stderr.splitlines()) != 1 or not stderr.startswith("lmc: "):
            return "malformed input did not give a one-line message"
        return None
    if stderr:
        return f"unexpected stderr: {stderr.strip()[:200]}"
    if _normalize(stdout) != _normalize(want_out):
        return "stdout differs from the library serialization"
    return None


def _dumps(payload):
    return json.dumps(payload) + "\n"


def _elem(u):
    return syntax.print_element(u, "basis")


def _aut_file(workdir, name, phi):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(syntax.automorphism_dict(phi), fh)
    return path


def _cli_session(ctx, rnd, workdir, tag, malformed):
    """(argv, expect) pairs of one scripted session on one context."""
    m, c = ctx.m, ctx.c
    mc = ["--m", str(m), "--c", str(c)]
    a, b = sparse_ia(ctx, rnd), sparse_ia(ctx, rnd)
    g = sparse_ginn(ctx, rnd)
    ginn = normal.ginn_to_endo(g)
    inner = endo.exp_ad(sparse_element(ctx, rnd, 2, linear=1))
    other = sparse_ia(ctx, rnd, non_ginn=m >= 3)
    u = sparse_element(ctx, rnd, 3, linear=2)
    v = sparse_element(ctx, rnd, 2, linear=1)
    fa, fb, fg, fi, fo = (
        _aut_file(workdir, f"{tag}-{n}.json", phi)
        for n, phi in (("a", a), ("b", b), ("g", ginn), ("i", inner), ("o", other))
    )
    degree = rnd.randint(1, c)
    law_seed = rnd.randrange(1000)
    law = CLI_LAWS[(m, c)]

    def eval_text():
        return 0, f"basis:  {_elem(u)}\nwreath: {syntax.print_element(u, 'wreath')}\n"

    def eval_json():
        return 0, _dumps(
            {"m": m, "c": c, "basis": _elem(v), "wreath": syntax.print_element(v, "wreath")}
        )

    def basis_text():
        lines = []
        for k in range(1, c + 1):
            tuples = ["(" + ",".join(map(str, t)) + ")" for t in liealg.enumerate_basis(ctx, k)]
            lines.append(f"degree {k}: dim {len(tuples)}: {' '.join(tuples)}")
        total = sum(len(liealg.enumerate_basis(ctx, k)) for k in range(1, c + 1))
        return 0, "\n".join(lines) + f"\ntotal dim {total}\n"

    def basis_json():
        tuples = ["(" + ",".join(map(str, t)) + ")" for t in liealg.enumerate_basis(ctx, degree)]
        return 0, _dumps(
            {"m": m, "c": c, "degrees": {str(degree): {"dim": len(tuples), "tuples": tuples}}}
        )

    def aut(phi):
        return 0, syntax.print_automorphism(phi, "json") + "\n"

    def jacobian():
        rows = [[syntax.print_poly(p) for p in row] for row in endo.jacobian(a).rows]
        return 0, _dumps({"m": m, "c": c, "jacobian": rows})

    def check_inner():
        w = normal.recognize_inner(inner)
        return 0, _dumps(
            {"check": "inner", "result": w is not None, "generator": None if w is None else _elem(w)}
        )

    def check_normal(phi):
        verdict = normal.decide_normal(phi, search_witness=True)
        payload = {"check": "normal"}
        payload.update(verdict.to_dict(_elem))
        payload["inner"] = phi.is_ia() and normal.recognize_inner(phi) is not None
        return 0, _dumps(payload)

    def reduce_in():
        form = cosets.reduce_mod_in(a)
        return 0, _reduce_payload("IN", a, form, [])

    def reduce_inn():
        form = cosets.reduce_mod_inn_normal(g)
        warnings = cosets.psi_diagnostics(form.jac).get("warnings", [])
        return 0, _reduce_payload("Inn", ginn, form, warnings)

    def verify_law():
        report = verify.check_law(law, ctx, 2, law_seed)
        return (0 if report.ok else 2), _dumps(report.to_dict())

    session = [
        (["eval", *mc, "--", _elem(u)], eval_text),
        (["eval", *mc, "--format", "json", "--", _elem(v)], eval_json),
        (["bracket", *mc, "--", _elem(u), _elem(v)], lambda: (0, _elem(liealg.bracket(u, v)) + "\n")),
        (["basis", *mc], basis_text),
        (["basis", *mc, "--degree", str(degree), "--format", "json"], basis_json),
        (["aut", "compose", fa, fb], lambda: aut(endo.compose(a, b))),
        (["aut", "invert", fa], lambda: aut(endo.invert(a))),
        (["aut", "commutator", fa, fb], lambda: aut(endo.group_commutator(a, b))),
        (["aut", "jacobian", fa], jacobian),
        (["aut", "apply", "--", fb, _elem(u)], lambda: (0, _elem(b.apply(u)) + "\n")),
        (["check", "ia", fa], lambda: (0, _dumps({"check": "ia", "result": True}))),
        (["check", "inner", fi], check_inner),
        (
            ["check", "ginner", fg],
            lambda: (0, _dumps({"check": "ginner", "result": True, "f": [str(p) for p in g.f]})),
        ),
        (["check", "normal", fg, "--witness"], lambda: check_normal(ginn)),
        (["check", "normal", fo, "--witness"], lambda: check_normal(other)),
        (["reduce", "--modulo", "in", fa], reduce_in),
        (["reduce", "--modulo", "inn", fg], reduce_inn),
        (["verify", "--law", law, *mc, "--trials", "2", "--seed", str(law_seed)], verify_law),
        _malformed(malformed, ctx, workdir, tag, fa, _elem(u)),
    ]
    return session


def _reduce_payload(subgroup, phi, form, warnings):
    conjugator = endo.compose(phi, endo.invert(form.endo))
    payload = {
        "subgroup": subgroup,
        "canonical_jacobian": [[syntax.print_poly(p) for p in row] for row in form.jac.rows],
        "conjugator": syntax.automorphism_dict(conjugator),
    }
    if warnings:
        payload["warnings"] = warnings
    return _dumps(payload)


def _malformed(kind, ctx, workdir, tag, aut_path, expr):
    """One input from each error class of the grammar and the argument
    parser: 64 for usage errors, 65 for malformed data."""
    m, c = ctx.m, ctx.c
    mc = ["--m", str(m), "--c", str(c)]
    if kind == 0:  # dangling operator
        return ["eval", *mc, "--", expr + " +"], lambda: (65, None)
    if kind == 1:  # generator index out of range
        return ["bracket", *mc, "x1", f"x{m + 1}"], lambda: (65, None)
    if kind == 2:  # context outside the domain
        return ["basis", "--m", "1", "--c", str(c)], lambda: (64, None)
    if kind == 3:  # truncated JSON
        path = os.path.join(workdir, f"{tag}-truncated.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"m": %d, "c": ' % m)
        return ["aut", "invert", path], lambda: (65, None)
    if kind == 4:  # unknown operation
        return ["aut", "transpose", aut_path], lambda: (64, None)
    # reduction of a map that is not IA
    scaled = endo.linear_endo(ctx, [[Fraction(2) if i == j else 0 for j in range(m)] for i in range(m)])
    path = _aut_file(workdir, f"{tag}-scaled.json", scaled)
    return ["reduce", "--modulo", "in", path], lambda: (65, None)


def _cli(seed, workdir):
    rnd = random.Random(f"cli:{seed}")
    groups = []
    sessions = [(s, ctx) for s in range(CLI_SESSIONS) for ctx in CLI_CONTEXTS]
    for n, (s, (m, c)) in enumerate(sessions):
        tag = f"s{s}-{m}{c}"
        ops = []
        for i, (argv, expect) in enumerate(_cli_session(Context(m, c), rnd, workdir, tag, n % 6)):
            ops.append(
                Op(
                    name=f"{tag}#{i}:{argv[0]}",
                    group=f"{m}{c}:{argv[0]}:{argv[1]}",
                    run=partial(run_in_process, argv),
                    check=partial(_cli_check, expect),
                    key=lambda r: (r[0], _normalize(r[1])),
                )
            )
        groups.append(ops)
    return interleave(groups)
