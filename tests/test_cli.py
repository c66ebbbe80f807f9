import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import endo_reference as ref
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lmc import cli, cosets, endo, liealg, normal, syntax, verify
from lmc.arith import TruncPoly
from lmc.errors import UsageError
from lmc.liealg import Context


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_aut(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


SECTION3 = {"m": 2, "c": 3, "images": ["x1 + 1*[x1,x2,x2]", "x2"]}


def test_bracket_golden(capsys):
    code, out, _ = run(capsys, "bracket", "--m", "2", "--c", "3", "x1", "x2")
    assert code == 0
    assert out == "-1*[x2,x1]\n"


def test_eval_text_and_json(capsys):
    code, out, _ = run(capsys, "eval", "--m", "2", "--c", "3", "x1 + [x1,x2]")
    assert code == 0
    assert "basis:  x1 - 1*[x2,x1]" in out
    assert "wreath: b1 + a1*(1 + t2) + a2*(-t1)" in out
    code, out, _ = run(
        capsys, "eval", "--m", "2", "--c", "3", "x1 + [x1,x2]", "--format", "json"
    )
    data = json.loads(out)
    assert data["basis"] == "x1 - 1*[x2,x1]"


def test_basis_table(capsys):
    code, out, _ = run(capsys, "basis", "--m", "2", "--c", "3")
    assert code == 0
    assert "degree 2: dim 1: (2,1)" in out
    assert "total dim 5" in out
    code, out, _ = run(capsys, "basis", "--m", "3", "--c", "3", "--degree", "3", "--format", "json")
    data = json.loads(out)
    assert data["degrees"]["3"]["dim"] == 8


def test_basis_degree_outside_range(capsys):
    for degree in ("0", "-1", "4"):
        code, out, err = run(capsys, "basis", "--m", "2", "--c", "3", "--degree", degree)
        assert code == 65
        assert out == ""
        assert err == f"lmc: bad input: degree {degree} outside 1..3\n"


def test_aut_subcommands_match_library(tmp_path, capsys):
    a = write_aut(tmp_path, "a.json", {"m": 2, "c": 3, "images": ["x1 + 1*[x1,x2]", "x2 + 2*[x1,x2]"]})
    b = write_aut(tmp_path, "b.json", {"m": 2, "c": 3, "images": ["x1 + 3*[x1,x2]", "x2 + 5*[x1,x2]"]})
    phi = syntax.parse_automorphism(json.loads(open(a).read()))
    psi = syntax.parse_automorphism(json.loads(open(b).read()))

    code, out, _ = run(capsys, "aut", "compose", a, b)
    assert code == 0
    assert out.strip() == syntax.print_automorphism(endo.compose(phi, psi), "json")

    code, out, _ = run(capsys, "aut", "invert", a)
    assert out.strip() == syntax.print_automorphism(endo.invert(phi), "json")

    code, out, _ = run(capsys, "aut", "commutator", a, b)
    assert out.strip() == syntax.print_automorphism(
        endo.group_commutator(phi, psi), "json"
    )

    code, out, _ = run(capsys, "aut", "jacobian", a)
    data = json.loads(out)
    assert data["jacobian"] == [
        [syntax.print_poly(p) for p in row] for row in endo.jacobian(phi).rows
    ]

    code, out, _ = run(capsys, "aut", "apply", a, "[x1,x2]")
    assert code == 0
    assert out.strip() == syntax.print_element(
        phi.apply(syntax.parse_element(Context(2, 3), "[x1,x2]")), "basis"
    )



def test_aut_subcommands_on_maps_that_are_not_ia(tmp_path, capsys):
    ctx = Context(3, 3)
    upper = [[F(1) if k in (i, i + 1) else F(0) for i in range(3)] for k in range(3)]
    lower = [[F(2) if k == i else F(-1, 3) if k == i - 1 else F(0) for i in range(3)] for k in range(3)]
    general = (
        ref.compose(endo.linear_endo(ctx, upper), verify.sample("ia", ctx, "cli-gl-a", 2)),
        ref.compose(verify.sample("ia", ctx, "cli-gl-b", 2), endo.linear_endo(ctx, lower)),
    )
    ctx = Context(2, 3)
    scaled = tuple(
        ref.compose(
            endo.linear_endo(ctx, [[alpha, 0], [0, alpha]]),
            normal.ginn_to_endo(verify.sample("ginn", ctx, f"cli-ns-{k}")),
        )
        for k, alpha in enumerate((F(3, 2), F(-2)))
    )
    for tag, (phi, psi) in (("general", general), ("scaled", scaled)):
        assert not (phi.is_ia() or psi.is_ia())
        a = tmp_path / f"{tag}-a.json"
        b = tmp_path / f"{tag}-b.json"
        a.write_text(syntax.print_automorphism(phi, "json"), encoding="utf-8")
        b.write_text(syntax.print_automorphism(psi, "json"), encoding="utf-8")
        for argv, want in (
            (["compose", a, b], ref.compose(phi, psi)),
            (["invert", a], ref.invert(phi)),
            (["commutator", a, b], ref.group_commutator(phi, psi)),
        ):
            code, out, err = run(capsys, "aut", *map(str, argv))
            assert (code, err) == (0, ""), (tag, argv[0])
            assert out.strip() == syntax.print_automorphism(want, "json"), (tag, argv[0])


def test_aut_commutator_of_a_singular_map_is_bad_input(tmp_path, capsys):
    a = write_aut(tmp_path, "a.json", {"m": 2, "c": 3, "images": ["x1 + x2 + [x1,x2]", "2*x1 + 2*x2"]})
    b = write_aut(tmp_path, "b.json", SECTION3)
    for argv in ((a, b), (b, a)):
        code, out, err = run(capsys, "aut", "commutator", *argv)
        assert code == 65
        assert out == ""
        assert err.startswith("lmc: bad input: ") and err.count("\n") == 1
        assert "Traceback" not in err


def test_misused_aut_and_check_arguments_print_one_line(tmp_path, capsys):
    # the argument counts and the IA requirement the parser cannot see
    aut = write_aut(tmp_path, "aut.json", SECTION3)
    scaling = write_aut(tmp_path, "two.json", {"m": 3, "c": 2, "images": ["2*x1", "2*x2", "2*x3"]})
    for argv, code, line in (
        (["aut", "compose", aut], 64, "usage error: aut compose takes 2 automorphism file(s)"),
        (["aut", "apply", aut], 64, "usage error: aut apply takes FILE EXPR"),
        (["check", "inner", scaling], 65, "bad input: inner automorphisms are IA; input is not"),
        (
            ["check", "ginner", scaling],
            65,
            "bad input: generalized inner automorphisms are IA; input is not",
        ),
    ):
        assert run(capsys, *argv) == (code, "", f"lmc: {line}\n"), argv


def test_check_normal_section3(tmp_path, capsys):
    path = write_aut(tmp_path, "aut.json", SECTION3)
    code, out, _ = run(capsys, "check", "normal", path)
    assert code == 0
    data = json.loads(out)
    assert data["normal"] is True
    assert data["inner"] is False
    assert data["alpha"] == "1"
    assert data["f"] == ["0", "t2"]


def test_check_exit_codes(tmp_path, capsys):
    path = write_aut(tmp_path, "aut.json", SECTION3)
    code, _, _ = run(capsys, "check", "inner", path)
    assert code == 0  # negative result but no --assert
    code, _, _ = run(capsys, "check", "inner", path, "--assert")
    assert code == 2
    code, _, _ = run(capsys, "check", "ginner", path, "--assert")
    assert code == 0
    scaling = write_aut(
        tmp_path, "two.json", {"m": 3, "c": 2, "images": ["2*x1", "2*x2", "2*x3"]}
    )
    code, out, _ = run(capsys, "check", "normal", scaling, "--assert")
    assert code == 2
    data = json.loads(out)
    assert data["normal"] is False
    assert data["witness"] == ["x1 - 1*[x3,x2]"]


def test_check_normal_reads_inner_off_the_verdict(tmp_path, capsys, monkeypatch):
    # inner is normal, IA and an inner_generator of the verdict's parameters:
    # the old rule, recognize_inner on the map, must agree without being run
    x = lambda ctx, i: liealg.generator(ctx, i)
    ctx21, ctx23, ctx33 = Context(2, 1), Context(2, 3), Context(3, 3)
    g23 = normal.GInnAut(ctx23, (TruncPoly.zero(2, 1), TruncPoly.var(2, 1, 2)))
    cases = {
        "c1-identity": endo.Endomorphism(ctx21, (x(ctx21, 1), x(ctx21, 2))),
        "c1-scaled": endo.linear_endo(ctx21, [[2, 0], [0, 2]]),
        "scaled-normal": normal.NormalAut(F(2), g23).to_endo(),
        "section3": syntax.parse_automorphism(SECTION3),
        "inner": endo.exp_ad(x(ctx33, 1) + liealg.bracket(x(ctx33, 2), x(ctx33, 3))),
        "not-ginn": endo.Endomorphism(
            ctx33, (x(ctx33, 1) + liealg.bracket(x(ctx33, 2), x(ctx33, 3)), x(ctx33, 2), x(ctx33, 3))
        ),
        "not-ia": endo.linear_endo(ctx33, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
    }
    expected = {
        name: phi.is_ia() and normal.recognize_inner(phi) is not None for name, phi in cases.items()
    }
    assert expected == {
        "c1-identity": True, "c1-scaled": False, "scaled-normal": False,
        "section3": False, "inner": True, "not-ginn": False, "not-ia": False,
    }

    def refuse(phi):
        raise AssertionError("check normal ran recognize_inner")

    monkeypatch.setattr(normal, "recognize_inner", refuse)
    for name, phi in cases.items():
        path = write_aut(tmp_path, f"{name}.json", syntax.automorphism_dict(phi))
        code, out, err = run(capsys, "check", "normal", path, "--witness")
        assert (code, err) == (0, ""), name
        assert json.loads(out)["inner"] is expected[name], name


def test_check_ia(tmp_path, capsys):
    path = write_aut(tmp_path, "aut.json", SECTION3)
    code, out, _ = run(capsys, "check", "ia", path)
    data = json.loads(out)
    assert data == {"check": "ia", "result": True}


def test_reduce_identity_for_two_generators(tmp_path, capsys):
    payload = {"m": 2, "c": 4, "images": ["x1 + 1*[x1,x2,x2]", "x2 + 1*[x2,x1,x1]"]}
    path = write_aut(tmp_path, "ia.json", payload)
    code, out, _ = run(capsys, "reduce", "--modulo", "in", path)
    assert code == 0
    data = json.loads(out)
    assert data["subgroup"] == "IN"
    assert data["canonical_jacobian"] == [["1", "0"], ["0", "1"]]
    # theta = id, so the conjugator is the input itself
    conj = syntax.parse_automorphism(data["conjugator"])
    assert conj == syntax.parse_automorphism(payload)


def test_reduce_mod_in_conjugator(tmp_path, capsys):
    phi = verify.sample("ia", Context(3, 3), "cli-conj", 2)
    path = write_aut(tmp_path, "ia.json", syntax.automorphism_dict(phi))
    code, out, _ = run(capsys, "reduce", "--modulo", "in", path)
    assert code == 0
    data = json.loads(out)
    theta = cosets.reduce_mod_in(phi).endo
    assert data["canonical_jacobian"] == [
        [syntax.print_poly(p) for p in row] for row in endo.jacobian(theta).rows
    ]
    conj = syntax.parse_automorphism(data["conjugator"])
    assert conj == endo.compose(phi, endo.invert(theta))


def test_reduce_mod_inn_matches_library(tmp_path, capsys):
    ctx = Context(3, 3)
    f = tuple(
        syntax.parse_poly(s, 3, ctx.param_cap) for s in ("1", "1 + t2", "t1")
    )
    source = normal.ginn_to_endo(normal.GInnAut(ctx, f))
    payload = {
        "m": 3,
        "c": 3,
        "images": [syntax.print_element(im, "basis") for im in source.images],
    }
    phi = syntax.parse_automorphism(payload)
    g = normal.recognize_ginn(phi)
    assert g is not None
    pf = cosets.reduce_mod_inn_normal(g)
    path = write_aut(tmp_path, "g.json", payload)
    code, out, _ = run(capsys, "reduce", "--modulo", "inn", path)
    assert code == 0
    data = json.loads(out)
    assert data["subgroup"] == "Inn"
    assert data["canonical_jacobian"] == [
        [syntax.print_poly(p) for p in row] for row in pf.jac.rows
    ]
    conj = syntax.parse_automorphism(data["conjugator"])
    assert endo.compose(conj, pf.endo) == phi
    assert normal.recognize_inner(conj) is not None


def test_reduce_rejects_bad_inputs(tmp_path, capsys):
    non_ginn = write_aut(
        tmp_path, "ng.json", {"m": 3, "c": 3, "images": ["x1 + 1*[x1,x2,x3]", "x2", "x3"]}
    )
    code, _, err = run(capsys, "reduce", "--modulo", "inn", non_ginn)
    assert code == 65
    scaling = write_aut(
        tmp_path, "sc.json", {"m": 3, "c": 3, "images": ["2*x1", "2*x2", "2*x3"]}
    )
    code, _, _ = run(capsys, "reduce", "--modulo", "in", scaling)
    assert code == 65


def test_verify_cli(capsys):
    code, out, _ = run(
        capsys, "verify", "--law", "abelian", "--m", "3", "--c", "2",
        "--trials", "10", "--seed", "4",
    )
    assert code == 0
    data = json.loads(out)
    lib = verify.check_law("abelian", Context(3, 2), 10, 4).to_dict()
    for key in ("law", "m", "c", "trials_requested", "trials_passed", "counterexample", "seed"):
        assert data[key] == lib[key]


def test_verify_counterexample_exits_nonzero(capsys, monkeypatch):
    failing = verify.LawReport(
        law="abelian", m=3, c=2, requested=5, passed=1,
        counterexample="[]", seed=0, elapsed=0.0,
    )
    monkeypatch.setattr(verify, "check_law", lambda *a, **k: failing)
    code, out, _ = run(
        capsys, "verify", "--law", "abelian", "--m", "3", "--c", "2", "--trials", "5"
    )
    assert code == 2
    assert json.loads(out)["counterexample"] == "[]"


def test_format_env_override(capsys, monkeypatch):
    monkeypatch.setenv("LMC_FORMAT", "json")
    code, out, _ = run(capsys, "bracket", "--m", "2", "--c", "3", "x1", "x2")
    assert code == 0
    assert json.loads(out)["basis"] == "-1*[x2,x1]"


@pytest.mark.parametrize("value", ["xml", "JSON", " json", "text\nxml"])
def test_an_unknown_lmc_format_is_a_usage_error_before_any_work(
    tmp_path, capsys, monkeypatch, value
):
    fa = write_aut(tmp_path, "a.json", SECTION3)
    monkeypatch.setenv("LMC_FORMAT", value)
    monkeypatch.setattr(syntax, "parse_element", None)  # any work would crash
    monkeypatch.setattr(cli, "_load_aut", None)
    message = f"lmc: usage error: LMC_FORMAT must be text or json, got {value!r}\n"
    for argv in (
        ["eval", "--m", "2", "--c", "3", "--", "[x2,x1]"],
        ["eval", "--m", "2", "--c", "3", "--format", "json", "--", "[x2,x1]"],
        ["check", "ia", fa],
        ["reduce", "--modulo", "in", fa],
    ):
        assert run(capsys, *argv) == (64, "", message), argv


def test_an_empty_lmc_format_counts_as_unset(tmp_path, capsys, monkeypatch):
    fa = write_aut(tmp_path, "a.json", SECTION3)
    lines = (["eval", "--m", "2", "--c", "3", "--", "[x2,x1]"], ["check", "ia", fa])
    monkeypatch.delenv("LMC_FORMAT", raising=False)
    unset = [run(capsys, *argv) for argv in lines]
    monkeypatch.setenv("LMC_FORMAT", "")
    assert [run(capsys, *argv) for argv in lines] == unset
    assert unset[0][0] == unset[1][0] == 0


_ELAPSED = re.compile(r'("elapsed_seconds": )[-+.0-9e]+')


def test_every_subcommand_prints_by_the_one_output_rule(tmp_path, capsys, monkeypatch):
    """Each subcommand with no format, --format and LMC_FORMAT: the README's
    defaults, --format over LMC_FORMAT, JSON on one line, and the text of
    each subcommand, which is the JSON indented by 2 where it has none."""
    fa =write_aut(tmp_path, "a.json", SECTION3)
    fb = write_aut(tmp_path, "b.json", {"m": 2, "c": 3, "images": ["x1 + 3*[x1,x2]", "x2"]})
    mc = ["--m", "2", "--c", "3"]
    maps = {"compose": [fa, fb], "invert": [fa], "commutator": [fa, fb]}
    text_default = [["eval", *mc, "x1 + [x1,x2]"], ["bracket", *mc, "x1", "x2"],
                    ["basis", *mc], ["aut", "apply", fa, "[x1,x2]"]]
    json_default = [["aut", op, *files] for op, files in maps.items()] + [
        ["aut", "jacobian", fa], ["check", "ia", fa], ["check", "normal", fa],
        ["reduce", "--modulo", "in", fa],
        ["verify", "--law", "abelian", "--m", "2", "--c", "2", "--trials", "2"]]

    def out(argv, env=None):
        if env is None:
            monkeypatch.delenv("LMC_FORMAT", raising=False)
        else:
            monkeypatch.setenv("LMC_FORMAT", env)
        code, stdout, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        return _ELAPSED.sub(r"\g<1>0.0", stdout)

    for default, lines in (("text", text_default), ("json", json_default)):
        for argv in lines:
            as_json, as_text = (out([*argv, "--format", f]) for f in ("json", "text"))
            assert out(argv) == {"json": as_json, "text": as_text}[default], argv
            for env, other in (("json", "text"), ("text", "json")):
                assert out(argv, env) == out([*argv, "--format", env], other), (argv, env)
            assert as_json.count("\n") == 1, argv
            payload = json.loads(as_json)
            if argv[0] == "basis":
                rows = payload["degrees"].items()
                want = [f"degree {k}: dim {r['dim']}: {' '.join(r['tuples'])}" for k, r in rows]
                want.append("total dim 5")
            elif argv[0] == "eval":
                want = [f"basis:  {payload['basis']}", f"wreath: {payload['wreath']}"]
            elif default == "text":
                want = [payload["basis"]]
            elif argv[1] in maps:
                want = [f"x{i} -> {s}" for i, s in enumerate(payload["images"], 1)]
            else:
                want = [json.dumps(payload, indent=2)]
            assert as_text == "\n".join(want) + "\n", argv


def _parse_outcome(parser, argv):
    """What one parse gives: the Namespace, the UsageError text or the
    SystemExit code, with everything printed on stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = ("namespace", parser.parse_args(argv))
        except UsageError as exc:
            result = ("usage error", str(exc))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


PARSER_ARGVS = [
    *([name, "-h"] for name in cli.SUBCOMMANDS),
    ["eval", "--m", "2", "--c", "3", "x1"],
    ["eval", "x1"],
    ["eval"],
    ["reduce", "a.json"],
    ["verify", "--m", "3", "--c", "2"],
    ["basis", "--m", "2", "--c", "3", "--bogus"],
    ["check", "ia", "a.json", "--nope"],
    ["reduce", "--mod", "in", "a.json"],
    ["check", "normal", "a.json", "--wit"],
    ["verify", "--law", "abelian", "--m", "3", "--c", "2", "--tri", "5", "--coeff", "2"],
    ["eval", "--m", "2", "--c", "3", "x1", "x2"],
    ["bracket", "--m", "2", "--c", "3", "x1", "x2", "x3"],
    ["aut", "transpose", "a.json"],
    ["aut", "compose", "a.json", "b.json", "--format", "json"],
    ["aut", "apply", "--", "a.json", "-[x2,x1]"],
    ["basis", "--m", "2", "--c", "3", "--format", "xml"],
    ["basis", "--m", "two", "--c", "3"],
    ["check", "ginner", "-", "--assert", "--format", "text"],
    [],
    ["-h"],
    ["--help"],
    ["foo"],
    ["-x", "eval"],
    ["--", "basis", "--m", "2", "--c", "3"],
]


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda argv: " ".join(argv) or "(none)")
def test_the_parser_for_one_subcommand_parses_like_the_full_one(argv):
    assert _parse_outcome(cli._parser_for(argv), argv) == _parse_outcome(
        cli._build_parser(), argv
    )


def _assert_read_as_parsed(argv):
    """The reader never raises or prints, and when it reads argv the full
    parser makes an equal Namespace and prints nothing."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        read = cli._read_argv(argv)
    assert out.getvalue() == err.getvalue() == ""
    if read is not None:
        assert _parse_outcome(cli._build_parser(), argv) == (("namespace", read), "", "")
    return read


# argv on the reader's decline boundary, with whether the reader reads it
READER_CASES = [
    (["eval", "--m", "2", "--c", "3", "--", "-x1 - x2"], True),
    (["check", "ia", "--assert", "a.json"], False),  # positionals split by an option
    (["aut", "apply", "a.json", "--", "-[x2,x1]"], True),
    (["basis", "--m", "2", "--c", "3", "--degree", "-1"], False),
    (["eval", "--m=2", "--c", "3", "x1"], False),
    (["verify", "--law", "abelian", "--m", "3", "--c", "2", "--"], False),
    (["eval", "--m", "2", "--c", "3", "--", "x1", "--", "x2"], False),
    (["aut", "apply", "--", "a.json", "--", "x1"], False),  # argparse drops the first '--' only
    (["eval", "--m", "2", "--c", "3", "x1"], True),
    (["aut", "compose", "a.json", "b.json", "--format", "json"], True),
    (["check", "ginner", "-", "--assert", "--format", "text"], False),  # '-' before any '--'
]


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda argv: " ".join(argv) or "(none)")
def test_the_reader_reads_as_the_full_parser_does(argv):
    _assert_read_as_parsed(argv)


@pytest.mark.parametrize("argv,read", READER_CASES, ids=[" ".join(a) for a, _ in READER_CASES])
def test_the_reader_declines_the_forms_it_is_unsure_of(argv, read):
    assert (_assert_read_as_parsed(argv) is not None) == read


_OPTIONS = sorted(
    {arg.name for _, table, _ in cli.SUBCOMMANDS.values() for arg in table if arg.name[0] == "-"}
)
_NOISE = st.sampled_from(["--", "-h", "-", "-1"]) | st.sampled_from(
    [
        "--help", "", "-x1 - x2", "--bogus", "2", "x1", "json", "a.json",
        *_OPTIONS,
        *(name[:k] for name in _OPTIONS for k in range(3, len(name))),  # abbreviations
        *(name + "=2" for name in _OPTIONS),
    ]
)


def _values(arg):
    if arg.kind is int:
        return st.sampled_from(["2", "3", "0", "-1", "007", " 4", "1_0", "two", ""])
    if isinstance(arg.kind, tuple):
        return st.sampled_from([*arg.kind, "bogus", "", "-" + arg.kind[0]])
    return st.sampled_from(["x1", "[x2,x1]", "-x1 - x2", "a.json", "-", "", "x1 + x2"])


@st.composite
def lmc_argvs(draw):
    """A command line built from the table (options in any order, the
    positionals as one run anywhere among them, with up to two '--'),
    then up to three tokens inserted, dropped or replaced by noise: '--',
    -h, abbreviations, '=' forms and values starting with '-'."""
    name = draw(st.sampled_from(list(cli.SUBCOMMANDS)))
    _, table, _ = cli.SUBCOMMANDS[name]
    options, words = [], []
    for arg in table:
        if not arg.name.startswith("-"):
            most = 3 if arg.nargs == "+" else 1
            words += draw(st.lists(_values(arg), min_size=1, max_size=most))
        elif arg.required or draw(st.booleans()):
            options.append([arg.name] if arg.kind == cli.FLAG else [arg.name, draw(_values(arg))])
    options = draw(st.permutations(options))
    for _ in range(draw(st.integers(0, 2))):
        words.insert(draw(st.integers(0, len(words))), "--")
    at = draw(st.integers(0, len(options)))
    argv = [name, *sum(options[:at], []), *words, *sum(options[at:], [])]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "drop", "replace"]))
        if edit == "insert":
            argv.insert(i, draw(_NOISE))
        elif i < len(argv):
            argv[i : i + 1] = [] if edit == "drop" else [draw(_NOISE)]
    return argv


@settings(max_examples=400, deadline=None, database=None)
@given(lmc_argvs())
def test_the_reader_agrees_with_argparse_on_drawn_command_lines(argv):
    _assert_read_as_parsed(argv)


def test_the_module_entry_point_runs_as_a_process():
    env = {k: v for k, v in os.environ.items() if k != "LMC_FORMAT"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])  # the src directory

    def lmc(*argv):
        done = subprocess.run(
            [sys.executable, "-m", "lmc.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        return done.returncode, done.stdout, done.stderr

    mc = ("--m", "2", "--c", "3")
    code, out, err = lmc("basis", *mc)
    assert (code, err) == (0, "") and out.endswith("total dim 5\n")
    for want, *argv in ((65, "eval", *mc, "--", "x9"), (64, "basis", *mc, "--bogus")):
        code, out, err = lmc(*argv)
        assert (code, out) == (want, "") and len(err.splitlines()) == 1 and err.startswith("lmc: ")
    code, out, err = lmc("eval", "-h")
    assert (code, err) == (0, "") and out.startswith("usage: lmc eval ")


@pytest.mark.parametrize(
    "argv",
    [
        ["basis", "--m", "2", "--c", "3"],
        ["eval", "--m", "2", "--c", "3", "--", "[x2,x1]"],
        ["bracket", "--m", "3", "--c", "3", "x2", "x1 + x3"],
    ],
)
def test_one_leading_double_dash_before_a_subcommand_is_dropped(capsys, argv):
    assert run(capsys, "--", *argv) == run(capsys, *argv)
    code, out, err = run(capsys, "--", *argv)
    assert code == 0 and out and err == ""


@pytest.mark.parametrize(
    "argv", [["--"], ["--", "--help"], ["--", "--", "basis", "--m", "2", "--c", "3"], ["--", "foo"]]
)
def test_a_double_dash_without_a_subcommand_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 64
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("lmc: usage error: ")


def refuse_work(monkeypatch) -> list:
    """Make the work a usage error must come before raise, and list what ran:
    a law check, a basis enumeration, a parse, or a dimension summed without
    the bound that stops it early."""
    ran = []

    def refuse(name, bounded=None):
        def call(*args, **kwargs):
            if bounded and kwargs.get("bound") is not None:
                return bounded(*args, **kwargs)
            ran.append(name)
            raise AssertionError(f"{name} ran before the usage error")

        return call

    for module, name in ((verify, "check_law"), (liealg, "enumerate_basis"), (syntax, "parse_element")):
        monkeypatch.setattr(module, name, refuse(f"{module.__name__}.{name}"))
    monkeypatch.setattr(liealg, "algebra_dim", refuse("algebra_dim without a bound", liealg.algebra_dim))
    return ran


def test_verify_trials_above_the_bound_exit_at_once(capsys, monkeypatch):
    ran = refuse_work(monkeypatch)
    for trials in (cli.MAX_TRIALS + 1, 10**12):
        code, out, err = run(
            capsys, "verify", "--law", "abelian", "--m", "3", "--c", "2", "--trials", str(trials)
        )
        assert code == 64
        assert out == ""
        assert len(err.splitlines()) == 1 and str(cli.MAX_TRIALS) in err
    assert ran == []


def test_verify_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--law", "abelian", "--m", "3", "--c", "3")
    assert code == 64
    assert "usage error" in err


def test_malformed_input_exit(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken", encoding="utf-8")
    code, _, err = run(capsys, "check", "ia", str(bad))
    assert code == 65
    code, _, err = run(capsys, "eval", "--m", "2", "--c", "3", "x1 +")
    assert code == 65
    code, _, err = run(capsys, "eval", "--m", "1", "--c", "3", "x1")
    assert code == 64


def test_automorphism_json_types_are_strict(tmp_path, capsys):
    bad = (
        {"m": 2, "c": 3, "images": ["x1", 5]},
        {"m": 2, "c": 3, "jacobian": [[1, 0], [0, 1]]},
        {"m": 2.7, "c": 3, "images": ["x1", "x2"]},
        {"m": True, "c": 3, "images": ["x1", "x2"]},
    )
    for n, payload in enumerate(bad):
        path = write_aut(tmp_path, f"bad{n}.json", payload)
        code, out, err = run(capsys, "check", "ia", path)
        assert code == 65, payload
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("lmc: bad input: ")


def test_cap_past_the_exponent_field_is_bad_input(capsys):
    # class c stores module polynomials at cap c - 1, one past the 16-bit limit
    code, out, err = run(capsys, "eval", "--m", "2", "--c", "65537", "x1")
    assert code == 65
    assert out == ""
    assert len(err.splitlines()) == 1 and "65535" in err


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(SECTION3)))
    code, out, _ = run(capsys, "check", "ia", "-")
    assert code == 0
    assert json.loads(out)["result"] is True


def nested(depth):
    """[[...[x1,x2]...,x2],x2] with `depth` brackets open at the innermost pair."""
    return "[" * (depth - 1) + "[x1,x2]" + ",x2]" * (depth - 1)


def test_deep_bracket_nesting_is_bad_input(capsys):
    code, out, _ = run(capsys, "eval", "--m", "2", "--c", "3", "--", nested(syntax.MAX_NESTING))
    assert code == 0 and "basis:  0" in out
    for depth in (syntax.MAX_NESTING + 1, 400, 3000):
        code, out, err = run(capsys, "eval", "--m", "2", "--c", "3", "--", nested(depth))
        assert code == 65
        assert out == ""
        assert len(err.splitlines()) == 1
        assert f"at most {syntax.MAX_NESTING} nested brackets" in err


def test_deep_json_nesting_is_bad_input(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code, out, err = run(capsys, "aut", "invert", str(path))
    assert code == 65
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("lmc: bad input: ")


def assert_too_large(code, out, err):
    assert code == 64
    assert out == ""
    assert len(err.splitlines()) == 1 and str(cli.MAX_DIM) in err


def test_context_above_the_dimension_bound_is_a_usage_error(capsys, monkeypatch):
    assert liealg.algebra_dim(Context(60, 12)) > cli.MAX_DIM
    assert liealg.algebra_dim(Context(4, 6)) == 299 < cli.MAX_DIM
    ran = refuse_work(monkeypatch)
    for argv in (
        ("basis", "--m", "60", "--c", "12"),
        ("basis", "--m", "2", "--c", "65535"),  # the largest class within the cap
        ("eval", "--m", "1000000", "--c", "2", "x1"),
        ("verify", "--law", "metabelian", "--m", "60", "--c", "12"),
    ):
        assert_too_large(*run(capsys, *argv))
    assert ran == []


def test_automorphism_above_the_dimension_bound_is_rejected_before_parsing(tmp_path, capsys):
    # the images do not parse: the bound is checked first
    path = write_aut(tmp_path, "big.json", {"m": 60, "c": 12, "images": ["x1 +"] * 60})
    assert_too_large(*run(capsys, "check", "ia", path))
    path = write_aut(tmp_path, "bigjac.json", {"m": 60, "c": 12, "jacobian": [["0"]]})
    assert_too_large(*run(capsys, "aut", "jacobian", path))
    # library callers are not bounded
    phi = syntax.parse_automorphism({"m": 32, "c": 3, "images": [f"x{i}" for i in range(1, 33)]})
    assert liealg.algebra_dim(phi.ctx) > cli.MAX_DIM


def pairs(m, c):
    """The term-pair bound of a dense Jacobian product on L_{m,c}."""
    return m**3 * math.comb(c - 1 + 2 * m, 2 * m)


def test_context_above_the_pair_bound_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # (3,30) is under MAX_DIM, but a group commutator there runs for minutes
    assert liealg.algebra_dim(Context(3, 30)) == 9428 < cli.MAX_DIM
    assert pairs(3, 30) > cli.MAX_PAIRS
    path = write_aut(tmp_path, "dense.json", {"m": 3, "c": 30, "images": ["x1 +"] * 3})
    ran = refuse_work(monkeypatch)
    for argv in (
        ("eval", "--m", "3", "--c", "30", "x1"),
        ("bracket", "--m", "3", "--c", "30", "x1", "x2"),
        ("aut", "commutator", path, path),
        ("aut", "apply", path, "x1"),
        ("check", "normal", path),
        ("reduce", "--modulo", "in", path),  # the images do not parse: checked first
        ("verify", "--law", "metabelian", "--m", "3", "--c", "30", "--trials", "1"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 64, argv
        assert out == ""
        assert len(err.splitlines()) == 1 and str(cli.MAX_PAIRS) in err, argv
        assert "m^3 * C(c-1+2m, 2m)" in err
    assert ran == []
    monkeypatch.undo()
    # basis only enumerates tuples and keeps the dimension bound alone
    code, out, _ = run(capsys, "basis", "--m", "3", "--c", "30", "--degree", "2")
    assert code == 0 and "dim 3:" in out


def test_pair_bound_admits_the_largest_class_of_each_rank(capsys):
    for m, c in [(2, 72), (3, 22), (4, 13), (5, 9), (6, 7)]:
        assert pairs(m, c) <= cli.MAX_PAIRS < pairs(m, c + 1)
        code, out, _ = run(capsys, "eval", "--m", str(m), "--c", str(c), "[x2,x1]")
        assert code == 0 and "[x2,x1]" in out
        code, _, err = run(capsys, "eval", "--m", str(m), "--c", str(c + 1), "x1")
        assert code == 64 and str(cli.MAX_PAIRS) in err


def test_huge_class_exits_at_once(capsys, monkeypatch):
    # the dimension is summed with an early exit, and a class past the
    # exponent field is bad input before any dimension is summed
    degrees = []
    formula = liealg.degree_dim_formula

    def counting(ctx, k):
        degrees.append(k)
        return formula(ctx, k)

    monkeypatch.setattr(liealg, "degree_dim_formula", counting)
    assert liealg.algebra_dim(Context(2, 10**9), bound=cli.MAX_DIM) > cli.MAX_DIM
    assert degrees == list(range(2, 143))  # 2 + (1 + 2 + ... + 141) = 10013
    degrees.clear()
    code, out, err = run(capsys, "basis", "--m", "2", "--c", "1000000000")
    assert code == 65
    assert out == ""
    assert len(err.splitlines()) == 1 and "65535" in err
    assert degrees == []


DIGITS_5000 = "1" * 5000


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--m", "2", "--c", "3", "\u00b2"),  # a superscript is no ASCII digit
        ("eval", "--m", "2", "--c", "3", "x\u0661"),  # nor an Arabic-Indic one
        ("eval", "--m", "2", "--c", "3", DIGITS_5000 + "*x1"),  # past int()'s digit limit
        ("bracket", "--m", "2", "--c", "3", "x1", "x" + DIGITS_5000),
    ],
    ids=["superscript", "arabic-indic", "long-coefficient", "long-index"],
)
def test_number_literals_are_ascii_and_bounded(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 65
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("lmc: bad input: ")


DIGITS_3000 = "1" * 3000  # within the literal limit; its square is not


def test_a_result_past_the_printing_limit_is_bad_input(capsys):
    code, out, err = run(
        capsys, "bracket", "--m", "2", "--c", "3", DIGITS_3000 + "*x1", DIGITS_3000 + "*x2"
    )
    assert code == 65
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("lmc: bad input: ")
    assert str(sys.get_int_max_str_digits()) in err


@pytest.mark.parametrize(
    "text",
    [
        '{"m": %s, "c": 3, "images": ["x1", "x2"]}' % DIGITS_5000,
        '{"m": 2, "c": 3, "jacobian": [["1", "t2^%s"], ["0", "1"]]}' % DIGITS_5000,
        '{"m": 2, "c": 3, "jacobian": [["1", "%s*t2"], ["0", "1"]]}' % DIGITS_5000,
    ],
    ids=["long-m", "long-exponent", "long-jacobian-coefficient"],
)
def test_long_numbers_in_automorphism_files_are_bad_input(tmp_path, capsys, text):
    path = tmp_path / "long.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "aut", "invert", str(path))
    assert code == 65
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("lmc: bad input: ")


def test_undecodable_file_is_bad_input(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"m": 2, "c": 3, "images": ["x1\xff", "x2"]}')
    code, out, err = run(capsys, "check", "ia", str(path))
    assert code == 65
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("lmc: bad input: cannot read ")


# -- the total CLI contract: every input ends in a known exit code ----------------

AUT_FILE = "AUT_FILE"  # stands for the automorphism file of one example
COMMUTATORS = st.from_regex(r"( [+-] ([1-9]\*)?\[x[1-3](,x[1-3])+\])*", fullmatch=True)
TEXT = st.one_of(
    st.text(max_size=30),
    st.text(alphabet="x0123[],+-*/ ", max_size=30),
    COMMUTATORS.map(lambda tail: "x1" + tail),
)


@st.composite
def element_lines(draw):
    m, c = draw(st.sampled_from([(2, 3), (3, 3)]))
    command = draw(st.sampled_from(["eval", "bracket"]))
    texts = draw(st.lists(TEXT, min_size=1, max_size=3))
    return ([command, "--m", str(m), "--c", str(c), *texts], None)


@st.composite
def automorphism_lines(draw):
    m, c = draw(st.integers(2, 3)), draw(st.integers(1, 4))
    near_identity = st.lists(COMMUTATORS, min_size=m, max_size=m).map(
        lambda tails: [f"x{i}{tail}" for i, tail in enumerate(tails, start=1)]
    )
    images = draw(st.one_of(st.lists(TEXT, min_size=m, max_size=m), near_identity))
    command = draw(st.sampled_from([
        ["aut", "invert", AUT_FILE],
        ["aut", "compose", AUT_FILE, AUT_FILE],
        ["aut", "commutator", AUT_FILE, AUT_FILE],
        ["check", "normal", "--witness", AUT_FILE],
    ]))
    return (command, json.dumps({"m": m, "c": c, "images": images}))


def run_line(directory, argv, aut_text):
    """(exit code, stdout, stderr) of main on argv, with AUT_FILE holding
    aut_text; any exception escapes."""
    path = directory / "aut.json"
    if aut_text is not None:
        path.write_text(aut_text, encoding="utf-8")
    argv = [str(path) if arg == AUT_FILE else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None, database=None)
@given(line=st.one_of(element_lines(), automorphism_lines()))
@example(line=(["eval", "--m", "2", "--c", "3", "\u00b2"], None))
@example(line=(["eval", "--m", "2", "--c", "3", "x\u0661"], None))
@example(line=(["eval", "--m", "2", "--c", "3", DIGITS_5000 + "*x1"], None))
@example(line=(["bracket", "--m", "3", "--c", "3", "x1", "x" + DIGITS_5000], None))
@example(line=(["aut", "invert", AUT_FILE], '{"m": %s, "c": 3, "images": []}' % DIGITS_5000))
@example(line=(["bracket", "--m", "2", "--c", "3", DIGITS_3000 + "*x1", DIGITS_3000 + "*x2"], None))
def test_every_input_ends_in_a_known_exit_code(tmp_path_factory, line):
    code, out, err = run_line(tmp_path_factory.getbasetemp(), *line)
    assert code in (0, 2, 64, 65)
    if code in (64, 65):
        assert out == ""
        assert len(err.splitlines()) == 1, err


# Raw automorphism JSON: any JSON value where a field is expected, fields
# missing or extra, NaN and huge numbers, and text that is no JSON at all.
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-(10**20), 10**20), st.floats(), st.text(max_size=8)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=8,
)
POLY_TEXT = st.one_of(st.sampled_from(["0", "1", "t1", "-t2", "1/2*t1*t2", "t3^2"]), st.text(max_size=8))


@st.composite
def raw_automorphism_text(draw):
    """Automorphism JSON text, mostly well formed, so that the commands get
    past the parser; any field may hold any JSON value or be missing."""
    often = st.sampled_from([True] * 4 + [False])
    m = draw(st.integers(2, 3) if draw(often) else st.one_of(st.integers(-1, 4), JSON_VALUES))
    c = draw(st.integers(1, 4) if draw(often) else st.one_of(st.integers(-1, 5), JSON_VALUES))
    n = m if type(m) is int and 0 <= m <= 4 else draw(st.integers(0, 3))
    near_identity = st.lists(COMMUTATORS, min_size=n, max_size=n).map(
        lambda tails: [f"x{i}{tail}" for i, tail in enumerate(tails, start=1)]
    )
    unipotent = st.lists(
        st.lists(POLY_TEXT, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(lambda rows: [["1" if i == j else p for j, p in enumerate(r)] for i, r in enumerate(rows)])
    obj = {"m": m, "c": c}
    body = draw(st.sampled_from(["images", "jacobian", "both", "neither"]))
    if body in ("images", "both"):
        obj["images"] = draw(st.one_of(near_identity, st.lists(TEXT, min_size=n, max_size=n), JSON_VALUES))
    if body in ("jacobian", "both"):
        obj["jacobian"] = draw(st.one_of(unipotent, JSON_VALUES))
    for key in ("m", "c"):
        if not draw(often):
            del obj[key]
    if draw(st.booleans()):
        obj[draw(st.text(max_size=6))] = draw(JSON_VALUES)
    text = json.dumps(obj)
    shape = draw(st.sampled_from(["text"] * 8 + ["cut", "other"]))
    if shape == "cut":
        return text[: draw(st.integers(0, len(text)))]
    return json.dumps(draw(JSON_VALUES)) if shape == "other" else text


@settings(max_examples=200, deadline=None, database=None)
@given(
    argv=st.sampled_from([
        ["check", "ia", AUT_FILE],
        ["check", "inner", AUT_FILE],
        ["check", "ginner", AUT_FILE],
        ["check", "normal", "--witness", AUT_FILE],
        ["aut", "invert", AUT_FILE],
        ["aut", "jacobian", AUT_FILE],
        ["aut", "compose", AUT_FILE, AUT_FILE],
        ["aut", "commutator", AUT_FILE, AUT_FILE],
        ["aut", "apply", AUT_FILE, "[x2,x1]"],
        ["reduce", "--modulo", "in", AUT_FILE],
        ["reduce", "--modulo", "inn", AUT_FILE],
    ]),
    aut_text=raw_automorphism_text(),
)
@example(argv=["check", "ia", AUT_FILE], aut_text='{"m": NaN, "c": 3, "images": []}')
@example(argv=["aut", "invert", AUT_FILE], aut_text='{"m": 2, "c": 2, "jacobian": [["1", "t2"], []]}')
def test_raw_automorphism_json_ends_in_a_known_exit_code(tmp_path_factory, argv, aut_text):
    code, out, err = run_line(tmp_path_factory.getbasetemp(), argv, aut_text)
    assert code in (0, 2, 64, 65)
    assert len(err.splitlines()) <= 1, err
    if code in (64, 65):
        assert out == ""
