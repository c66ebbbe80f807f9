"""The mutant catalogue: one-line mutations of lmc and the tests that kill them.

    python tests/mutants.py

Each row of MUTANTS is (name, file, old text, new text, test node ids).
For each row in turn the runner copies src/, tests/, perfbench/ and
pyproject.toml into a temporary directory, replaces the old text, which
must occur exactly once in the file, with the new, and runs

    python -m pytest -q -x -p no:cacheprovider <node ids>

inside that copy, with the copy's src first on the path (pyproject.toml
and PYTHONPATH both put it there).  The mutant is killed when a named
test fails.  The runner prints
one line per row and exits nonzero if a mutant survives, its old text is
missing or repeated, or pytest cannot run the named tests.  It never
writes to the tree it copies.

Every row is a mutant that changes what lmc computes or reports; a
mutation that cannot (skipping the one principal-ideal condition that the
others imply, say) does not belong here.  A change that adds an oracle or
a certificate adds the mutant it must kill.  tests/test_mutants_table.py
checks in tier-1 that every row still applies and names tests that exist.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench")

GOLDEN = "tests/golden/test_golden.py::test_cli_corpus_replays_byte_identically"
SYNTAX = "tests/test_syntax_parity.py::"
COSETS = "tests/test_cosets_parity.py::"

MUTANTS = [
    # -- maps, decisions and laws --------------------------------------------------
    (
        "ginn_pattern returns g without its certificate",
        "src/lmc/normal.py",
        "return g if ginn_jacobian(g) == jac else None",
        "return g",
        ["tests/test_cosets.py::test_psi_shape_accepts_triangular_support_and_rejects_otherwise"],
    ),
    (
        "aut commutator without the final sigma_K",
        "src/lmc/endo.py",
        "return _from_jacobian(_sigma(kmap, y0))",
        "return _from_jacobian(y0)",
        ["tests/test_bench_seams.py::test_compositions_of_maps_that_are_not_ia_call_neither_apply_nor_bracket"],
    ),
    (
        "invert of a map that is not IA composes in the wrong order",
        "src/lmc/endo.py",
        "return compose(invert(chi), linear_endo(phi.ctx, phi._linear_inverse()))",
        "return compose(linear_endo(phi.ctx, phi._linear_inverse()), invert(chi))",
        ["tests/test_cli.py::test_aut_subcommands_on_maps_that_are_not_ia"],
    ),
    (
        "closed-form ideal test without the beta correction",
        "src/lmc/normal.py",
        "return w + TruncPoly.const(m, cap, gamma[k]), d - w.scale(beta)",
        "return w + TruncPoly.const(m, cap, gamma[k]), d",
        ["tests/test_acceptance.py::test_criterion_6_ginn_preserves_ideals"],
    ),
    (
        "closed-form ideal test checks one of its m-2 conditions",
        "src/lmc/normal.py",
        "rest = [i for i in range(m) if i not in (p, q)]",
        "rest = [i for i in range(m) if i not in (p, q)][:1]",
        ["tests/test_ideal_parity.py::test_principal_ideal_sees_every_condition"],
    ),
    (
        "scalars_are_normal without (2,3)",
        "src/lmc/normal.py",
        "(ctx.m, ctx.c) in ((2, 2), (2, 3))",
        "(ctx.m, ctx.c) in ((2, 2),)",
        [GOLDEN],
    ),
    (
        "the law certificate _agree_with_ginn_apply returns True",
        "src/lmc/verify.py",
        "    return all(\n        normal.ginn_sum(",
        "    return True or all(\n        normal.ginn_sum(",
        ["tests/test_acceptance.py::test_criterion_10_mutation_tripwire"],
    ),
    # -- polynomial kernel -----------------------------------------------------------
    (
        "pmac's one-term shift ignores the cap",
        "src/lmc/arith.py",
        "out = {ea + eb: ca * cb for ea, ca in a.items() if ea < room}",
        "out = {ea + eb: ca * cb for ea, ca in a.items()}",
        [GOLDEN],
    ),
    (
        "poly_mac drops every pair after the first",
        "src/lmc/arith.py",
        "    for p, q in pairs:\n        p, q = (p, q) if",
        "    for p, q in pairs[:1]:\n        p, q = (p, q) if",
        ["tests/test_element_parity.py::test_apply_takes_both_substitution_paths[2-2]"],
    ),
    # -- coset reductions --------------------------------------------------------------
    (
        "theta update moves every entry by J[1][1]",
        "src/lmc/cosets.py",
        "[poly_mac(p, [(weight, j)]) for p, j in zip(moved, js)]",
        "[poly_mac(p, [(weight, js[0])]) for p, j in zip(moved, js)]",
        [GOLDEN],
    ),
    (
        "theta (1,1) consistency check removed",
        "src/lmc/cosets.py",
        "if not (moved[0].graded(d + 1)",
        "if False and not (moved[0].graded(d + 1)",
        ["tests/test_cosets.py::test_reduce_mod_in_rejects_an_image_outside_the_algebra[2-3]"],
    ),
    (
        "theta reads f_1 off M[1][2] by t_1",
        "src/lmc/cosets.py",
        "f_d = [moved[m].graded(d + 1).split_var(2)[0]]",
        "f_d = [moved[m].graded(d + 1).split_var(1)[0]]",
        [COSETS + "test_reduce_mod_in_matches_the_full_solve"],
    ),
    (
        "theta reads f_i one degree too high",
        "src/lmc/cosets.py",
        "f_d += [p.graded(d + 1).split_var(1)[0] for p in moved[1:m]]",
        "f_d += [p.graded(d + 2).split_var(1)[0] for p in moved[1:m]]",
        [COSETS + "test_reduce_mod_in_matches_reference[2-3]"],
    ),
    (
        "a psi splitting step subtracts t_j fbar_j from f_k",
        "src/lmc/cosets.py",
        "f[k - 1] = f[k - 1] + fbar.mul_var(j)",
        "f[k - 1] = f[k - 1] - fbar.mul_var(j)",
        [COSETS + "test_reduce_mod_inn_normal_matches_reference[3-3]"],
    ),
    (
        "shape_check skips the S-condition",
        "src/lmc/cosets.py",
        "    if not jac.satisfies_s_condition():\n        return False\n    if shape",
        "    if False:\n        return False\n    if shape",
        ["tests/test_cosets.py::test_reduce_mod_inn_certificate_catches_an_s_condition_break"],
    ),
    # -- text --------------------------------------------------------------------------
    (
        "ParseError column off by one",
        "src/lmc/syntax.py",
        r'ParseError(line, at - self.text.rfind("\n", 0, at), expected',
        r'ParseError(line, at - self.text.rfind("\n", 0, at) + 1, expected',
        [SYNTAX + "test_malformed_element_text_raises_the_reference_error"],
    ),
    (
        "a carriage return starts a line",
        "src/lmc/syntax.py",
        r'line = self.text.count("\n", 0, at) + 1',
        r'line = self.text.count("\n", 0, at) + self.text.count("\r", 0, at) + 1',
        [SYNTAX + "test_each_piece_matches_the_reference_after_any_whitespace"],
    ),
    (
        "a chain of c generators reads as zero",
        "src/lmc/syntax.py",
        "or len(gens) > ctx.c:",
        "or len(gens) >= ctx.c:",
        [SYNTAX + "test_parse_element_matches_reference"],
    ),
    (
        "one more nesting level allowed",
        "src/lmc/syntax.py",
        "if cur.depth == MAX_NESTING:",
        "if cur.depth == MAX_NESTING + 1:",
        [SYNTAX + "test_each_piece_matches_the_reference_after_any_whitespace"],
    ),
    (
        "a chain does not count towards the nesting limit",
        "src/lmc/syntax.py",
        'if kind != "[" and kind != "chain":\n        cur.fail("a generator or \'[\'")\n    if cur.depth',
        'if kind != "[" and kind != "chain":\n        cur.fail("a generator or \'[\'")\n    if kind == "[" and cur.depth',
        [SYNTAX + "test_each_piece_matches_the_reference_after_any_whitespace"],
    ),
    (
        "a term of degree cap is dropped",
        "src/lmc/syntax.py",
        "if sum(exps) <= cap:",
        "if sum(exps) < cap:",
        [SYNTAX + "test_parse_poly_matches_reference"],
    ),
    (
        "an unexpected name reads as its (letter, index) pair",
        "src/lmc/syntax.py",
        "found = repr(_TOKEN.match(self.text, at)[0])",
        "found = repr(str(value))",
        [SYNTAX + "test_malformed_element_text_raises_the_reference_error"],
    ),
    (
        "an out-of-range chain index fails at the bracket",
        "src/lmc/syntax.py",
        'raise cur.error(x_at, f"a generator index',
        'raise cur.error(at, f"a generator index',
        [SYNTAX + "test_parse_element_matches_reference"],
    ),
    (
        "a long chain index fails at the bracket",
        "src/lmc/syntax.py",
        "self._int(x[1], x.start())",
        "self._int(x[1], at)",
        [SYNTAX + "test_each_piece_matches_the_reference_after_any_whitespace"],
    ),
    (
        "any alphanumeric character starts a name",
        "src/lmc/syntax.py",
        "elif not ch.isalpha():",
        "elif not ch.isalnum():",
        [SYNTAX + "test_each_piece_matches_the_reference_after_any_whitespace"],
    ),
    (
        "digits of any script read as a number",
        "src/lmc/syntax.py",
        "|([0-9]+)|",
        r"|(\d+)|",
        [SYNTAX + "test_each_piece_matches_the_reference_after_any_whitespace"],
    ),
]


def _copy(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in COPIED:
        shutil.copytree(ROOT / part, dest / part, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def run(row) -> str:
    """'killed', 'survived', or why the mutant could not be run."""
    _name, file, old, new, tests = row
    with tempfile.TemporaryDirectory(prefix="lmc-mutant-") as tmp:
        copy = Path(tmp)
        _copy(copy)
        path = copy / file
        text = path.read_text(encoding="utf-8")
        count = text.count(old)
        if count != 1:
            return f"old text found {count} times"
        path.write_text(text.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=copy,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
    if proc.returncode == 1:  # a test failed
        return "killed"
    if proc.returncode == 0:
        return "survived"
    tail = proc.stdout.strip().splitlines()[-1:] or [""]
    return f"pytest exit {proc.returncode}: {tail[0]}"


def main() -> int:
    bad = 0
    for row in MUTANTS:
        start = time.perf_counter()
        verdict = run(row)
        print(f"{verdict:10} {time.perf_counter() - start:6.1f} s  {row[0]}", flush=True)
        bad += verdict != "killed"
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
