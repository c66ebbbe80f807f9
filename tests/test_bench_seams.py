"""The names the benchmark's tracer wraps must exist.

perfbench/tracer.py looks up its spans (module functions, methods and
normal._AD_SOLVERS) when it is installed, so a renamed or deleted seam
crashes a traced benchmark run.  Installing the tracer here, around
recognize_inner and exp_ad calls, one witness search and two pairs of coset
reductions, turns that crash into a failing test, and so does an exp_ad
or recognize_inner that brackets, a witness search that no longer goes
through normal.preserves_ideal or that builds a span, a ginn_normal_oracle
trial whose generator lies outside the derived algebra that builds a
span, a coset
reduction that inverts, exponentiates or builds a solver per input, a
composition, inverse or group commutator that goes through apply or the
bracket (IA maps, linear maps after IA maps, scaled normal maps), an IA
group commutator that is more than two matrix products (XY and YX, for
X and Y the Jacobians less I) and one solve, or that solves at c = 2,
where XY - YX is zero, a group commutator of maps that are not IA that
makes more than three substitutions and one solve, or an IA inverse that
is more than one solve.  A Jacobian product is one call of arith._impl.mmul and a solve
one call of arith._impl.msolve, which
wrappers patched in place see, and neither calls arith._impl.pmul; a map
built from a Jacobian keeps it, so endo.jacobian reads no images of a
composite, a commutator, a linear map or a scaled normal map.  A bracket, and apply on an IA map, build each
module coordinate in one arith._impl.pmac pass: no pmul, padd or psub.
A polynomial product is one pmac pass (pmul is pmac on one pair), a GInn
composition makes no pmul call, and recognize_ginn reads each parameter
off one entry: m calls of TruncPoly.divide_var, not m(m-1).  The psi
reduction composes GInn parameters twice whatever m: once to strip
constants and once in its certificate.  The theta reduction moves each
constrained entry by one poly_mac pair per step, and the df shape makes
one t_dot call per column, those of the S-condition.
Basis-form text (generator commutators such as [x2,x1,x1]) parses
without a bracket call, a sum of them in one pass that builds one element
and adds no polynomials, and lmc.cli.main registers only the subparser
of the subcommand it runs; the text output of an aut map op prints the
images only, no Jacobian entry.  The bracket certificate of a law trial reads
one table of generator brackets per context: the first trial in a context
makes its m^2 bracket calls and a later trial none, until liealg.bracket
is rebound.  A passing word-law trial materializes no map (no
normal.ginn_to_endo or NormalAut.to_endo call); a failed one
materializes each of its maps once, for its counterexample.
Every name in the tracer's SPANS exists where Tracer.install looks it up,
no reference module uses a name of lmc that only the tracer and that
name's own tests still use, and none uses the lmc code it checks.
"""

import argparse
import ast
import sys
from fractions import Fraction
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import cosets_reference as cosets_ref  # noqa: E402
import endo_reference as endo_ref  # noqa: E402
import ginn_reference as ginn_ref  # noqa: E402
import ideal_reference as ref  # noqa: E402
import inner_reference as inner_ref  # noqa: E402
import kernel_reference as kernel_ref  # noqa: E402
from tracer import SPANS, Tracer  # noqa: E402

from lmc import arith, cli, cosets, endo, liealg, normal, syntax  # noqa: E402
from lmc.liealg import Context  # noqa: E402
from lmc.verify import check_law, sample  # noqa: E402


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


def test_exp_ad_and_recognize_inner_make_no_bracket_call():
    ctx = Context(3, 4)
    u = sample("element", ctx, "seams-inner", 2)
    tracer = Tracer()
    tracer.install()
    try:
        phi = endo.exp_ad(u)
        got = normal.recognize_inner(phi)
        counts = tracer.counts()
    finally:
        tracer.uninstall()
    assert inner_ref.exp_ad(got) == phi == inner_ref.exp_ad(u)
    assert tracer.calls["endo.exp_ad"] == 1
    assert counts["normal.recognize_inner.calls"] == 1
    assert counts["normal.recognize_inner.peel_steps"] == 0
    assert counts["liealg.bracket.calls"] == 0


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


def test_witness_search_on_an_automorphism_builds_no_span():
    # every candidate a x_p + x_q, and every sampled element of a
    # ginn_normal_oracle trial at seed 1, is one generator outside the
    # derived algebra, decided in closed form; an ideal of a derived
    # generator still goes through SpanBasis
    ctx = Context(3, 4)
    x = [liealg.generator(ctx, i) for i in range(1, 4)]
    phi = endo.Endomorphism(ctx, (x[0] + liealg.bracket(x[1], x[2]), x[1], x[2]))
    tracer = Tracer()
    tracer.install()
    try:
        verdict = normal.decide_normal(phi, search_witness=True)
        counts = tracer.counts()
        report = check_law("ginn_normal_oracle", ctx, 3, 1)
        oracle = tracer.counts()
        derived = liealg.bracket(x[1], x[0]) + liealg.bracket_chain(x[2], x[0], x[0])
        normal.preserves_ideal(phi, [derived])
        spanned = tracer.counts()
    finally:
        tracer.uninstall()
    assert verdict.witness and counts["normal.witness.ideals_tried"] >= 1
    assert counts["linalg.span.add.calls"] == 0
    calls = lambda before, after, name: after[name] - before[name]
    assert report.ok and calls(counts, oracle, "normal.preserves_ideal.calls") == 3
    assert calls(counts, oracle, "linalg.span.add.calls") == 0
    assert calls(oracle, spanned, "linalg.span.add.calls") > 0


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
    assert first["endo.apply.calls"] == 0  # theta is a Jacobian product
    # theta's parameters are read, so no call builds a solver, first or later
    assert first["linalg.solver.builds"] == 0
    second = _traced_reductions(ctx, "seams-2")
    assert second["linalg.solver.builds"] == 0
    assert second["endo.invert.calls"] == 0
    assert second["endo.exp_ad.calls"] == 0
    assert cosets.reduce_mod_in.__module__ == "lmc.cosets"  # uninstalled


def test_ia_compose_and_commutator_call_neither_apply_nor_bracket():
    ctx = Context(3, 4)
    phi, psi = sample("ia", ctx, "seams-a", 2), sample("ia", ctx, "seams-b", 2)
    tracer = Tracer()
    tracer.install()
    try:
        endo.group_commutator(phi, psi)
        endo.compose(phi, psi)
        counts = tracer.counts()
    finally:
        tracer.uninstall()
    assert tracer.calls["endo.group_commutator"] == 1
    assert counts["endo.compose.calls"] == 1
    assert counts["endo.apply.calls"] == 0
    assert counts["liealg.bracket.calls"] == 0
    assert endo.group_commutator.__module__ == "lmc.endo"  # uninstalled


def _traced(*calls):
    tracer = Tracer()
    tracer.install()
    try:
        for call in calls:
            call()
    finally:
        tracer.uninstall()
    return tracer


def _maps_that_are_not_ia():
    ctx = Context(3, 3)
    upper = [[1 if k in (i, i + 1) else 0 for i in range(3)] for k in range(3)]
    lower = [[2 if k == i else -1 if k == i - 1 else 0 for i in range(3)] for k in range(3)]
    yield (
        endo.compose(endo.linear_endo(ctx, upper), sample("ia", ctx, "seams-c", 2)),
        endo.compose(sample("ia", ctx, "seams-d", 2), endo.linear_endo(ctx, lower)),
    )
    ctx = Context(2, 3)
    scaled = [sample("normal_scaled", ctx, f"seams-n{k}", 3) for k in range(2)]
    assert all(n.alpha != 1 for n in scaled)
    yield tuple(n.to_endo() for n in scaled)


def test_compositions_of_maps_that_are_not_ia_call_neither_apply_nor_bracket():
    for phi, psi in _maps_that_are_not_ia():
        assert not (phi.is_ia() or psi.is_ia())
        tracer = _traced(
            lambda: endo.compose(phi, psi),
            lambda: endo.invert(phi),
            lambda: endo.group_commutator(phi, psi),
        )
        assert tracer.calls["endo.group_commutator"] == 1
        assert tracer.calls["endo.invert"] >= 1
        assert tracer.calls["endo.compose"] >= 1
        assert tracer.calls["endo.apply"] == 0
        assert tracer.calls["liealg.bracket"] == 0


def _counting(monkeypatch, name):
    """Wrap arith._impl.<name> in place, as a tracer would; returns the
    list that collects the wrapper's calls."""
    seen = []
    original = vars(arith._impl)[name].__func__

    def wrapper(*args):
        seen.append(args)
        return original(*args)

    monkeypatch.setattr(arith._impl, name, wrapper)
    return seen


def test_one_product_is_one_mmul_pass_and_no_pmul(monkeypatch):
    ctx = Context(4, 6)
    a = endo.jacobian(sample("ia", ctx, "seams-g", 2))
    b = endo.jacobian(normal.ginn_to_endo(sample("ginn", ctx, "seams-h", 2)))
    expected = endo_ref.matmul(a, b)
    mmul, pmul = _counting(monkeypatch, "mmul"), _counting(monkeypatch, "pmul")
    got = a @ b
    assert got == expected
    assert len(mmul) == 1
    assert len(pmul) == 0


def _kernel_calls(monkeypatch):
    """Counters of the three kernels a Jacobian computation may call."""
    return {name: _counting(monkeypatch, name) for name in ("mmul", "msolve", "pmul")}


def test_ia_commutator_is_two_mmul_passes_and_one_msolve(monkeypatch):
    calls = _kernel_calls(monkeypatch)
    for m, c in ((3, 2), (3, 3), (3, 4), (4, 6)):
        ctx = Context(m, c)
        phi, psi = sample("ia", ctx, "seams-e", 1), sample("ia", ctx, "seams-f", 1)
        expected = endo_ref.group_commutator(phi, psi)
        for seen in calls.values():
            seen.clear()
        got = endo.group_commutator(phi, psi)
        assert {name: len(seen) for name, seen in calls.items()} == {
            "mmul": 2, "msolve": int(c > 2), "pmul": 0
        }, (m, c)
        assert got == expected


def test_aut_commutator_is_three_substitutions_and_one_msolve(monkeypatch):
    # sigma_A(J(psi)) and sigma_B(J(phi)) for the two products, and one
    # sigma_K, K = (BA)^-1, of the solved matrix: no sigma_K of P and Q
    original = endo._sigma
    passes = []

    def counting(phi, jac):
        if not phi.is_ia():
            passes.append(phi)
        return original(phi, jac)

    monkeypatch.setattr(endo, "_sigma", counting)
    msolve = _counting(monkeypatch, "msolve")
    for m, c in ((2, 3), (3, 4), (4, 4)):
        ctx = Context(m, c)
        phi, psi = sample("aut", ctx, "seams-t", 2), sample("aut", ctx, "seams-u", 2)
        assert not endo.compose(psi, phi).is_ia()  # BA != I
        expected = endo_ref.group_commutator(phi, psi)
        passes.clear()
        msolve.clear()
        got = endo.group_commutator(phi, psi)
        assert (len(passes), len(msolve)) == (3, 1), (m, c)
        assert got == expected


def test_ia_invert_is_one_msolve(monkeypatch):
    ctx = Context(4, 6)
    phi = sample("ia", ctx, "seams-e", 1)
    expected = endo_ref.neumann_inverse(endo.jacobian(phi))
    calls = _kernel_calls(monkeypatch)
    got = endo.invert(phi)
    assert {name: len(seen) for name, seen in calls.items()} == {"mmul": 0, "msolve": 1, "pmul": 0}
    assert endo.jacobian(got) == expected


def test_a_map_built_from_a_jacobian_keeps_it():
    ctx = Context(3, 4)
    phi, psi = sample("ia", ctx, "seams-k", 2), sample("ia", ctx, "seams-l", 2)
    made = []
    tracer = _traced(
        lambda: made.append(endo.group_commutator(endo.compose(phi, psi), psi)),
        lambda: made.append(endo.jacobian(made[0])),
    )
    # only J(phi) and J(psi) are read off images; the composite and the
    # commutator keep the matrices they were built from
    assert tracer.calls["liealg.full_poly"] == 2 * ctx.m**2
    assert made[1] == endo.jacobian(endo.Endomorphism(ctx, made[0].images))
    # a linear map and a scaled normal map keep their closed-form Jacobians
    ctx = Context(2, 3)
    n = normal.NormalAut(Fraction(-3, 2), sample("ginn", ctx, "seams-w", 2))
    a = [[Fraction(2), Fraction(-1, 3)], [Fraction(1), Fraction(3)]]
    built = {"linear": endo.linear_endo(ctx, a), "normal": n.to_endo()}
    kept = {}
    tracer = _traced(lambda: kept.update((k, endo.jacobian(phi)) for k, phi in built.items()))
    assert tracer.calls["liealg.full_poly"] == 0
    assert kept["normal"] == n.jacobian()
    for k, phi in built.items():
        assert kept[k] == endo.jacobian(endo.Endomorphism(ctx, phi.images)), k


def test_bracket_and_ia_apply_call_no_polynomial_add_or_product(monkeypatch):
    # each module coordinate is one arith._impl.pmac pass over numerators
    ctx = Context(4, 6)
    u, v = sample("element", ctx, "seams-q", 2), sample("element", ctx, "seams-r", 2)
    x2 = liealg.generator(ctx, 2)
    phi = sample("ia", ctx, "seams-s", 2)
    expected = [ref.bracket(u, v), ref.bracket(u, x2), endo_ref.apply(phi, u)]
    calls = {name: _counting(monkeypatch, name) for name in ("pmul", "padd", "psub", "pmac")}
    got = [liealg.bracket(u, v), liealg.bracket(u, x2), phi.apply(u)]
    assert {name: len(seen) for name, seen in calls.items() if name != "pmac"} == {
        "pmul": 0, "padd": 0, "psub": 0
    }
    assert calls["pmac"]
    assert got == expected


def test_recognize_ginn_divides_one_entry_per_parameter():
    ctx = Context(4, 5)
    g = sample("ginn", ctx, "seams-v", 2)
    phi = normal.ginn_to_endo(g)
    found = []
    tracer = _traced(lambda: found.append(normal.recognize_ginn(phi)))
    assert found == [g]
    assert tracer.calls["normal.recognize_ginn"] == 1
    assert tracer.calls["arith.divide_var"] == ctx.m
    # the Jacobian match is recognize_ginn's one certificate
    assert tracer.calls["normal.ginn_to_endo"] == 0
    assert tracer.calls["normal.ginn_jacobian"] == 1


def test_a_product_is_one_pmac_pass(monkeypatch):
    ctx = Context(3, 4)
    jac = endo.jacobian(sample("ia", ctx, "seams-w", 2))
    a, b = jac.rows[0][1], jac.rows[1][0]
    terms = kernel_ref.pmul(dict(a.items()), dict(b.items()), ctx.module_cap)
    expected = arith.TruncPoly(ctx.m, ctx.module_cap, terms)
    pmac = _counting(monkeypatch, "pmac")
    assert a * b == expected
    assert len(pmac) == 1


def test_ginn_compose_makes_no_pmul_call(monkeypatch):
    ctx = Context(4, 5)
    a, b = sample("ginn", ctx, "seams-x", 2), sample("ginn", ctx, "seams-y", 2)
    expected = ginn_ref.ginn_compose(a, b)
    pmul, pmac = _counting(monkeypatch, "pmul"), _counting(monkeypatch, "pmac")
    assert normal.ginn_compose(a, b) == expected
    assert len(pmul) == 0
    assert len(pmac) == ctx.m  # one poly_mac per parameter


def test_psi_reduction_composes_only_for_constants_and_certificate():
    for m, c in [(3, 4), (4, 5), (5, 4)]:
        ctx = Context(m, c)
        g = sample("ginn", ctx, 1)
        tracer = _traced(lambda: cosets.reduce_mod_inn_normal(g))
        # the linear step and g o psi^-1; the splitting steps add parameters
        assert tracer.calls["normal.ginn_compose"] == 2


def test_theta_update_is_one_poly_mac_pair_per_entry(monkeypatch):
    # the S-condition reduces each move of M[i][col] to w_d J[i][col]
    ctx = Context(4, 5)
    phi = sample("ia", ctx, "seams-z", 2)
    expected = cosets_ref.reduce_mod_in(phi)
    original, pairs = cosets.poly_mac, []

    def counting(base, terms):
        pairs.append(len(terms))
        return original(base, terms)

    monkeypatch.setattr(cosets, "poly_mac", counting)
    got = cosets.reduce_mod_in(phi)
    assert pairs == [1] * ((ctx.c - 2) * (ctx.m + 1))
    assert (got.endo, got.params) == (expected.endo, expected.params)


def test_df_shape_makes_only_the_s_condition_t_dots(monkeypatch):
    ctx = Context(4, 5)
    jac = cosets.reduce_mod_inn_normal(sample("ginn", ctx, "seams-z", 2)).jac
    calls = []

    def counting(original):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        return wrapper

    for module in (endo, cosets):
        monkeypatch.setattr(module, "t_dot", counting(module.t_dot))
    assert cosets.shape_check(jac, "df")
    assert len(calls) == ctx.m  # one column defect per column


def test_basis_form_text_parses_without_a_bracket_call():
    ctx = Context(3, 4)
    x = lambda i: liealg.generator(ctx, i)
    phi = sample("ia", ctx, "seams-p", 2)
    made = []
    tracer = _traced(
        lambda: made.append(syntax.parse_element(ctx, "x1 - 3*[x2,x1,x1]")),
        lambda: made.append(syntax.parse_automorphism(syntax.automorphism_dict(phi))),
    )
    assert tracer.calls["syntax.parse_element"] == 1 + ctx.m
    assert tracer.calls["liealg.bracket"] == tracer.calls["liealg.bracket_chain"] == 0
    assert made[0] == x(1) - liealg.bracket_chain(x(2), x(1), x(1)).scale(3)
    assert made[1] == phi


def test_a_sum_of_generator_chains_parses_in_one_pass():
    # one LieElement for the whole sum: a parser that adds a LieElement per
    # term copies the running sum once per term, quadratic in the terms
    ctx = Context(3, 4)
    x = lambda i: liealg.generator(ctx, i)
    chains = [(2, 1), (3, 1, 2), (3, 2, 2, 3), (1, 1, 2), (2, 3, 1, 1, 3)]
    for n in (1, 5, 40):
        terms = [(k - 7, chains[k % len(chains)]) for k in range(n)]
        text = " ".join(
            f"{'-' if a < 0 else '+'} {abs(a)}*[{','.join(f'x{i}' for i in t)}]" for a, t in terms
        )
        want = liealg.zero(ctx)
        for a, t in terms:
            want = want + liealg.bracket_chain(*map(x, t)).scale(a)
        made = []
        tracer = _traced(lambda: made.append(syntax.parse_element(ctx, text)))
        assert made[0] == want
        assert tracer.calls["liealg.bracket"] == 0
        assert tracer.calls["arith.__add__"] == 0
        assert tracer.calls["liealg.__init__"] == 1


def test_text_output_of_a_map_op_prints_no_jacobian(monkeypatch, capsys, tmp_path):
    ctx = Context(3, 4)
    paths = []
    for name in ("a", "b"):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(syntax.print_automorphism(sample("ia", ctx, f"seams-{name}", 2)))
    printed = []
    print_poly = syntax.print_poly
    monkeypatch.setattr(syntax, "print_poly", lambda p: printed.append(p) or print_poly(p))
    assert cli.main(["aut", "compose", *map(str, paths), "--format", "text"]) == 0
    assert capsys.readouterr().out.startswith("x1 -> ")
    assert printed == []
    assert cli.main(["aut", "compose", *map(str, paths), "--format", "json"]) == 0
    assert len(printed) == ctx.m**2  # the JSON carries the Jacobian


def test_main_registers_only_the_subparser_it_runs(monkeypatch, capsys):
    added = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        added.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    assert cli.main(["basis", "--m", "2", "--c", "3"]) == 0  # read from the table
    assert added == []
    # a declined argv that names a subcommand gets that subcommand's parser
    assert cli.main(["basis", "--m", "2", "--c", "3", "--deg", "1"]) == 0
    assert added == ["basis"]
    added.clear()
    assert cli.main(["foo"]) == 64  # an unknown name gets the full parser
    assert added == list(cli.SUBCOMMANDS)
    assert "invalid choice: 'foo'" in capsys.readouterr().err


def test_every_traced_name_exists():
    # Tracer.install reads vars(owner)[name], so a missing seam would crash
    # every traced benchmark run
    for layer, owner, names in SPANS:
        for name in names:
            assert name in vars(owner), f"{layer}: {owner.__name__}.{name}"
    names = {name for _, _, names in SPANS for name in names}
    assert {"ginn_apply", "from_basis", "sample", "to_endo"} <= names


# Names that lmc keeps only for the tracer and their own tests; no oracle
# may run on them, so that deleting them from src/ needs no oracle edit.
UNUSED_BY_SRC = {
    "lmc.linalg.SparseSolver",
    "lmc.liealg._basis_solver",
    "lmc.liealg.ad_polynomial_action",
    "lmc.liealg.element_vector",
}


def _dotted(node) -> list:
    """["a", "b", "c"] for the expression a.b.c, [] for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else []


# The lmc code each reference module checks, which it may not run itself:
# a mutant there would change both sides of a comparison.
CHECKED_CODE = {
    "cosets_reference.py": {
        "lmc.cosets.shape_check", "lmc.cosets.reduce_mod_in", "lmc.cosets.reduce_mod_inn_normal",
        "lmc.normal.recognize_ginn", "lmc.normal.recognize_inner", "lmc.normal.ginn_compose",
        "lmc.normal.inner_params", "lmc.normal.ginn_to_endo", "lmc.normal.ginn_jacobian"},
    "element_reference.py": {"lmc.normal.ginn_sum", "lmc.endo._from_jacobian"},
    "endo_reference.py": {
        "lmc.normal._ginn_s", "lmc.normal.ginn_jacobian", "lmc.normal.ginn_to_endo", "lmc.endo.compose",
        "lmc.endo.invert", "lmc.endo.group_commutator", "lmc.endo.jacobian_commutator",
        "lmc.liealg.bracket"},
    "ginn_reference.py": {
        "lmc.normal.ginn_pattern", "lmc.normal.recognize_ginn", "lmc.normal.ginn_jacobian",
        "lmc.normal.ginn_to_endo", "lmc.normal.ginn_compose", "lmc.normal._in_s", "lmc.arith.t_dot",
        "lmc.arith.poly_mac"},
    "ideal_reference.py": {
        "lmc.liealg.bracket", "lmc.liealg.ideal_span", "lmc.liealg.ideal_closure", "lmc.liealg.span_of",
        "lmc.liealg.element_row", "lmc.linalg.SpanBasis", "lmc.normal.preserves_ideal"},
    "inner_reference.py": {
        "lmc.endo.exp_ad", "lmc.normal.recognize_inner", "lmc.normal.recognize_ginn",
        "lmc.normal.inner_generator", "lmc.normal.inner_params", "lmc.normal.ginn_compose",
        "lmc.normal.ginn_invert"},
    "syntax_reference.py": {"lmc.liealg.to_basis", "lmc.syntax.parse_element", "lmc.syntax.parse_poly"},
    "verify_reference.py": {
        "lmc.normal.ginn_to_endo", "lmc.normal.ginn_sum", "lmc.liealg.from_basis", "lmc.liealg.bracket",
        "lmc.endo.jacobian_commutator", "lmc.verify._agree_with_ginn_apply"},
}


def test_no_oracle_uses_a_name_src_no_longer_runs():
    tests = Path(__file__).resolve().parent
    paths = sorted(tests.glob("*_reference.py"))
    assert set(CHECKED_CODE) <= {path.name for path in paths}
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound, used = {}, set()  # local name -> what it names; names read
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    full = f"{node.module}.{alias.name}"
                    bound[alias.asname or alias.name] = full
                    used.add(full)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.partition(".")[0]
                    bound[local] = alias.name if alias.asname else local
        for node in ast.walk(tree):
            parts = _dotted(node)
            if len(parts) > 1 and parts[0] in bound:
                used.add(".".join([bound[parts[0]], *parts[1:]]))
        assert not used & UNUSED_BY_SRC, f"{path.name} uses {sorted(used & UNUSED_BY_SRC)}"
        checked = used & CHECKED_CODE.get(path.name, set())
        assert not checked, f"{path.name} runs the code it checks: {sorted(checked)}"


def test_a_law_trial_brackets_each_ordered_generator_pair_once():
    # the table of generator brackets is built by the first trial in a
    # context under a given liealg.bracket (here the tracer's wrapper) and
    # read by every later one
    ctx = Context(3, 4)
    for seed in (1, 2, 3):
        tracer = Tracer()
        tracer.install()
        try:
            reports = [check_law("metabelian", ctx, 1, seed)]
            first = tracer.calls.copy()
            reports.append(check_law("metabelian", ctx, 1, seed + 10))
            reports.append(check_law("abelian", Context(3, 2), 1, seed))
            total = tracer.calls.copy()
        finally:
            tracer.uninstall()
        assert all(report.ok for report in reports)
        assert first["verify.sample"] == 4 and total["verify.sample"] == 10
        assert first["liealg.bracket"] == ctx.m**2 == 9
        assert total["liealg.bracket"] == 2 * 9  # the second trial none, (3,2) its own 9


def test_a_passing_word_law_trial_materializes_no_map(monkeypatch):
    # a word law certifies and commutes closed-form Jacobians; only a
    # failed trial builds its maps, each once, for its counterexample
    made = []
    ginn_to_endo, to_endo = normal.ginn_to_endo, normal.NormalAut.to_endo
    monkeypatch.setattr(normal, "ginn_to_endo", lambda g: made.append("ginn") or ginn_to_endo(g))
    monkeypatch.setattr(normal.NormalAut, "to_endo", lambda n: made.append("normal") or to_endo(n))
    original = liealg.bracket
    for law, mc, count in (("metabelian", (3, 4), 4), ("class2_by_abelian", (2, 3), 6)):
        ctx = Context(*mc)
        assert check_law(law, ctx, 2, seed=7).ok
        assert made == [], law
        with monkeypatch.context() as patch:
            patch.setattr(liealg, "bracket", lambda u, v: original(u, v).scale(-1))
            report = check_law(law, ctx, 2, seed=7)
        assert not report.ok and report.passed == 0
        assert made == ["normal"] * count, law
        made.clear()
