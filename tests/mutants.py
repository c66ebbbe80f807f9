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
ELEMENT = "tests/test_element_parity.py::"
SOLVE = "tests/test_solve_parity.py::"
COMPOSE = "tests/test_compose_parity.py::"
OUTPUT = "tests/test_cli.py::test_every_subcommand_prints_by_the_one_output_rule"

MUTANTS = [
    # -- maps, decisions and laws --------------------------------------------------
    (
        "ginn_pattern returns g without its certificate",
        "src/lmc/normal.py",
        "return g if ginn_jacobian(g) == jac else None",
        "return g",
        [
            "tests/test_cosets.py::test_psi_shape_accepts_triangular_support_and_rejects_otherwise",
            "tests/test_normal.py::test_recognize_ginn_and_decide_normal_match_the_oracle_one_commutator_off_ginn",
        ],
    ),
    (
        "linear_endo reads its matrix transposed",
        "src/lmc/endo.py",
        "[const(x) for x in row] for row in a)",
        "[const(x) for x in col] for col in zip(*a))",
        [
            "tests/test_endo.py::test_linear_endo_sends_each_generator_to_its_column",
            COMPOSE + "test_compose_and_commutator_match_the_apply_chain",
        ],
    ),
    (
        "aut commutator without the final sigma_K",
        "src/lmc/endo.py",
        "return _sigma(kmap, y0)",
        "return y0",
        [
            "tests/test_bench_seams.py::test_compositions_of_maps_that_are_not_ia_call_neither_apply_nor_bracket",
            COMPOSE + "test_scalar_pairs_take_one_solve_and_match_the_apply_chain",
        ],
    ),
    (
        "the scalar commutator dilates by alpha beta where it dilates by its inverse",
        "src/lmc/arith.py",
        "powers, f = _dilation(k, cap)",
        "powers, f = _dilation(alpha * beta, cap)",
        [
            SOLVE + "test_poly_scalar_commutator_matches_the_dilated_sum_of_powers",
            COMPOSE + "test_scalar_pairs_take_one_solve_and_match_the_apply_chain",
        ],
    ),
    (
        "a word law's final check J(word) = I always holds",
        "src/lmc/verify.py",
        "ok = ok and _commutator(word, jacs) == _endo.JacobianMatrix.identity(ctx)",
        "ok = ok and (_commutator(word, jacs) == _endo.JacobianMatrix.identity(ctx) or True)",
        ["tests/test_verify.py::test_a_word_that_is_not_the_identity_fails_on_certified_maps"],
    ),
    (
        "metabelian takes ((a,c),(b,d)), also a law, for ((a,b),(c,d))",
        "src/lmc/verify.py",
        '"metabelian": _word_law("ginn", 4, ((0, 1), (2, 3))),',
        '"metabelian": _word_law("ginn", 4, ((0, 2), (1, 3))),',
        ["tests/test_verify_parity.py::test_word_laws_report_as_the_law_functions"],
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
        "!= [row[i] for row in jac.rows]:\n                return False",
        "!= [row[i] for row in jac.rows]:\n                pass",
        ["tests/test_acceptance.py::test_criterion_10_mutation_tripwire"],
    ),
    (
        "the law certificate skips the last column of each Jacobian",
        "src/lmc/verify.py",
        "for i, xi in enumerate(x):",
        "for i, xi in enumerate(x[:-1]):",
        [
            "tests/test_verify_parity.py::test_certificate_accepts_and_rejects_as_the_per_map_one",
            "tests/test_verify.py::test_bracket_broken_on_one_ordered_pair_is_caught",
        ],
    ),
    (
        "the generator-bracket table outlives a rebound liealg.bracket",
        "src/lmc/verify.py",
        "if cached is None or cached[0] is not bracket:",
        "if cached is None:",
        ["tests/test_verify.py::test_bracket_broken_after_its_table_was_built_is_caught"],
    ),
    (
        "the packed sampler draws commutator coefficients off by one",
        "src/lmc/verify.py",
        "liealg._basis_terms(ctx.m, ctx.c).values():\n        v = draw(span) - bound\n",
        "liealg._basis_terms(ctx.m, ctx.c).values():\n        v = draw(span) - bound + 1\n",
        ["tests/test_verify_parity.py::test_sample_is_unchanged_on_fixed_seeds"],
    ),
    (
        "apply of a map that is not IA skips the substitution",
        "src/lmc/endo.py",
        "if not ia:",
        "if False:",
        [
            "tests/test_apply_parity.py::test_apply_matches_basis_expansion",
            ELEMENT + "test_apply_matches_reference",
            ELEMENT + "test_apply_takes_both_substitution_paths",
        ],
    ),
    (
        "the inverse E series has its sign flipped",
        "src/lmc/normal.py",
        "inv.append(-sum(",
        "inv.append(sum(",
        ["tests/test_inner_parity.py::test_recognize_inner_matches_reference"],
    ),
    # -- GInn, inner and ideal layers ----------------------------------------------------
    (
        "_ginn_s adds t_i f_i on the diagonal where it subtracts it",
        "src/lmc/normal.py",
        "diag[e] -= c",
        "diag[e] += c",
        [SOLVE + "test_ginn_jacobian_and_ginn_to_endo_match_the_sums", "tests/test_ginn_parity.py::test_ginn_pattern_parity_sees_both_verdicts"],
    ),
    (
        "the scaled Jacobian scales without dilating",
        "src/lmc/normal.py",
        "rows = tuple(tuple(p.dilate(a).scale(a) for p in row) for row in jac.rows)",
        "rows = tuple(tuple(p.scale(a) for p in row) for row in jac.rows)",
        [
            SOLVE + "test_one_build_of_s_gives_both_maps_of_a_scaled_normal_map",
            "tests/test_verify_parity.py::test_word_laws_report_as_the_law_functions",
            "tests/test_verify_parity.py::test_to_endo_is_the_scalar_map_after_the_ginn_map",
        ],
    ),
    (
        "ginn_compose multiplies f_b by 1 where it multiplies by 1 + s",
        "src/lmc/normal.py",
        "unit = t_dot(a.f, ctx.param_cap) + TruncPoly.const(ctx.m, ctx.param_cap, 1)",
        "unit = TruncPoly.const(ctx.m, ctx.param_cap, 1)",
        ["tests/test_ginn_parity.py::test_ginn_compose_matches_the_chain"],
    ),
    (
        "the ginn_invert series loses its alternating sign",
        "src/lmc/normal.py",
        "[(-1) ** n for n in range(cap + 1)]",
        "[1 for n in range(cap + 1)]",
        ["tests/test_inner_parity.py::test_ginn_invert_matches_reference"],
    ),
    (
        "inner_generator skips its membership test",
        "src/lmc/normal.py",
        "if not t_dot(w, ctx.module_cap).is_zero():",
        "if False:",
        ["tests/test_inner_parity.py::test_recognize_inner_matches_reference"],
    ),
    (
        "ideal_span keys a tried shift by its last step alone",
        "src/lmc/liealg.py",
        "key = (seed, shift + step)",
        "key = (seed, step)",
        [
            "tests/test_ideal_parity.py::test_ideal_span_matches_reference_closure",
            "tests/test_ideal_parity.py::test_ideal_span_tries_each_shift_once_and_keeps_the_rows",
        ],
    ),
    # -- element layer -----------------------------------------------------------------
    (
        "bracket drops the constants of the generator coordinates",
        "src/lmc/liealg.py",
        "            if b:\n                pairs.append(({0: b.numerator}",
        "            if False:\n                pairs.append(({0: b.numerator}",
        [ELEMENT + "test_bracket_matches_reference", "tests/test_ideal_parity.py::test_bracket_matches_reference"],
    ),
    (
        "to_basis reads each coordinate without its denominator factor",
        "src/lmc/liealg.py",
        "comm[tup] = Fraction(n * f, den)",
        "comm[tup] = Fraction(n, den)",
        [SYNTAX + "test_to_basis_matches_reference_on_every_sample_kind"],
    ),
    # -- matrix kernel -----------------------------------------------------------------
    (
        "msolve adds N Y where it subtracts it",
        "src/lmc/arith.py",
        "acc[x] = get(x, 0) - nn * nz",
        "acc[x] = get(x, 0) + nn * nz",
        [SOLVE + "test_neumann_inverse_matches_the_sum_of_powers", COMPOSE + "test_neumann_inverse_matches_the_sum_of_powers"],
    ),
    (
        "mmul leaves the packed rows unbucketed",
        "src/lmc/arith.py",
        "buckets[e >> top].append((base + e, c))",
        "buckets[0].append((base + e, c))",
        ["tests/test_matrix_kernel_parity.py::test_product_matches_the_entrywise_product"],
    ),
    (
        "an mmul degree prefix stops one degree short",
        "src/lmc/arith.py",
        "run = run + terms\n                prefix.append(run)",
        "prefix.append(run)\n                run = run + terms",
        ["tests/test_matrix_kernel_parity.py::test_product_matches_the_entrywise_product"],
    ),
    (
        "JacobianMatrix._clean never checks the shape",
        "src/lmc/endo.py",
        "_fill(ctx, rows, liealg.CHECK_INVARIANTS)",
        "_fill(ctx, rows, False)",
        ["tests/test_endo.py::test_kernel_results_are_validated_under_check_invariants"],
    ),
    (
        "the IA commutator solves for YX - XY where it solves for XY - YX",
        "src/lmc/arith.py",
        "d = [list(map(_impl.psub, r, s)) for r, s in zip(xy, yx)]",
        "d = [list(map(_impl.psub, r, s)) for r, s in zip(yx, xy)]",
        [SOLVE + "test_poly_commutator_matches_the_sum_of_powers", COMPOSE + "test_compose_and_commutator_match_the_apply_chain"],
    ),
    (
        "the IA commutator's N = Q - I takes XY where it takes YX",
        "src/lmc/arith.py",
        "[_scaled(x, db), _scaled(y, da), yx]",
        "[_scaled(x, db), _scaled(y, da), xy]",
        [SOLVE + "test_poly_commutator_matches_the_sum_of_powers", COMPOSE + "test_compose_and_commutator_match_the_apply_chain"],
    ),
    (
        "the IA commutator is I when one entry of XY - YX is zero",
        "src/lmc/arith.py",
        "if not any(map(any, d)):",
        "if not all(map(all, d)):",
        [SOLVE + "test_poly_commutator_matches_the_sum_of_powers", COMPOSE + "test_compose_and_commutator_match_the_apply_chain"],
    ),
    # -- polynomial kernel -----------------------------------------------------------
    (
        "pmac's one-term shift ignores the cap",
        "src/lmc/arith.py",
        "out = {ea + eb: ca * cb for ea, ca in a.items() if ea < room}",
        "out = {ea + eb: ca * cb for ea, ca in a.items()}",
        [GOLDEN, "tests/test_kernel_parity.py::test_ring_operations_match"],
    ),
    (
        "poly_mac drops every pair after the first",
        "src/lmc/arith.py",
        "    for p, q in pairs:\n        p, q = (p, q) if",
        "    for p, q in pairs[:1]:\n        p, q = (p, q) if",
        [ELEMENT + "test_apply_takes_both_substitution_paths[2-2]"],
    ),
    (
        "the substitution drops the den power of each term",
        "src/lmc/arith.py",
        "c *= den ** (cap - (code >> top))",
        "c *= 1",
        ["tests/test_apply_parity.py::test_substitution_kernel_matches_term_by_term"],
    ),
    (
        "a linear form keeps each numerator without its lcm factor",
        "src/lmc/arith.py",
        "nums = {e: c.numerator * (den // c.denominator) for e, c in terms.items()}",
        "nums = {e: c.numerator for e, c in terms.items()}",
        ["tests/test_kernel_parity.py::test_linear_form_matches"],
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
        [
            "tests/test_cosets.py::test_reduce_mod_in_rejects_an_image_outside_the_algebra[2-3]",
            COSETS + "test_reduce_mod_in_rejects_a_map_outside_the_algebra_as_the_full_solve",
        ],
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
    (
        "reduce_mod_in skips its theta shape certificate",
        "src/lmc/cosets.py",
        'if not shape_check(theta_jac, "theta"):',
        "if False:",
        ["tests/test_cosets.py::test_reduce_mod_in_certificate_catches_an_off_shape_multiplier"],
    ),
    (
        "reduce_mod_in skips its coset certificate",
        "src/lmc/cosets.py",
        "if _endo.jacobian(psi) != normal.ginn_jacobian(g):",
        "if False:",
        ["tests/test_cosets.py::test_reduce_mod_in_certificate_catches_a_wrong_multiplier"],
    ),
    (
        "reduce_mod_inn_normal skips its psi shape certificate",
        "src/lmc/cosets.py",
        'if not shape_check(jac, "psi"):',
        "if False:",
        ["tests/test_cosets.py::test_reduce_mod_inn_certificate_catches_an_s_condition_break"],
    ),
    (
        "reduce_mod_inn_normal skips its inner coset certificate",
        "src/lmc/cosets.py",
        "if normal.inner_generator(diff) is None:",
        "if False:",
        ["tests/test_cosets.py::test_reduce_mod_inn_certificate_catches_a_wrong_inverse"],
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
        [
            SYNTAX + "test_parse_element_matches_reference",
            "tests/test_syntax.py::test_generator_commutators_cover_every_head_and_length",
        ],
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
        [
            SYNTAX + "test_parse_element_matches_reference",
            "tests/test_syntax.py::test_brackets_that_are_not_generator_chains_keep_their_parse_errors",
        ],
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
    # -- command line ------------------------------------------------------------------
    (
        "text output of a JSON-default command loses its indent",
        "src/lmc/cli.py",
        'indent=2 if fmt == "text" else None',
        "indent=None",
        [OUTPUT],
    ),
    (
        "the aut map ops always print JSON",
        "src/lmc/cli.py",
        "lambda fmt: syntax.print_automorphism(result, fmt)",
        'lambda fmt: syntax.print_automorphism(result, "json")',
        [OUTPUT],
    ),
    (
        "aut jacobian ignores the format",
        "src/lmc/cli.py",
        '_print(args, "json", {"m": phi.ctx.m',
        '_print(argparse.Namespace(format="json"), "json", {"m": phi.ctx.m',
        [OUTPUT],
    ),
    (
        "LMC_FORMAT is not applied to JSON-default commands",
        "src/lmc/cli.py",
        "fmt = args.format or _env_format() or default",
        'fmt = args.format or (default == "text" and _env_format()) or default',
        [OUTPUT],
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
