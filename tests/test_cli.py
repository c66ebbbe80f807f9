import json
import time

from lmc import cli, cosets, endo, liealg, normal, syntax, verify
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


def test_context_above_the_dimension_bound_is_a_usage_error(capsys):
    assert liealg.algebra_dim(Context(60, 12)) > cli.MAX_DIM
    assert liealg.algebra_dim(Context(4, 6)) == 299 < cli.MAX_DIM
    start = time.perf_counter()
    for argv in (
        ("basis", "--m", "60", "--c", "12"),
        ("basis", "--m", "2", "--c", "65535"),  # the largest class within the cap
        ("eval", "--m", "1000000", "--c", "2", "x1"),
        ("verify", "--law", "metabelian", "--m", "60", "--c", "12"),
    ):
        assert_too_large(*run(capsys, *argv))
    assert time.perf_counter() - start < 2


def test_automorphism_above_the_dimension_bound_is_rejected_before_parsing(tmp_path, capsys):
    # the images do not parse: the bound is checked first
    path = write_aut(tmp_path, "big.json", {"m": 60, "c": 12, "images": ["x1 +"] * 60})
    assert_too_large(*run(capsys, "check", "ia", path))
    path = write_aut(tmp_path, "bigjac.json", {"m": 60, "c": 12, "jacobian": [["0"]]})
    assert_too_large(*run(capsys, "aut", "jacobian", path))
    # library callers are not bounded
    phi = syntax.parse_automorphism({"m": 32, "c": 3, "images": [f"x{i}" for i in range(1, 33)]})
    assert liealg.algebra_dim(phi.ctx) > cli.MAX_DIM


def test_huge_class_exits_at_once(capsys):
    # the dimension is summed with an early exit, and a class past the
    # exponent field is bad input before any dimension is summed
    start = time.perf_counter()
    assert liealg.algebra_dim(Context(2, 10**9), bound=cli.MAX_DIM) > cli.MAX_DIM
    code, out, err = run(capsys, "basis", "--m", "2", "--c", "1000000000")
    assert code == 65
    assert out == ""
    assert len(err.splitlines()) == 1 and "65535" in err
    assert time.perf_counter() - start < 2
