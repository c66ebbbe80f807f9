import json

import pytest
from fractions import Fraction as F
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lmc import endo, liealg, syntax
from lmc.arith import TruncPoly, all_monomials
from lmc.errors import ParseError, ValidationError
from lmc.liealg import Context
from lmc.linalg import mat_inv
from lmc.verify import sample

CHECK = settings(max_examples=150, deadline=None, database=None)

# Zero, units, small fractions of either sign, and integers past 2^64.
COEFFS = st.one_of(
    st.sampled_from([F(0), F(1), F(-1)]),
    st.builds(F, st.integers(-9, 9), st.integers(1, 6)),
    st.builds(F, st.integers(-(10**25), 10**25)),
)
CONTEXTS = st.sampled_from([(2, 1), (3, 2), (2, 3), (3, 3), (3, 4), (2, 5), (4, 3)])


def test_parse_element_frozen():
    ctx = Context(2, 3)
    u = syntax.parse_element(ctx, "x1 + [x1,x2]")
    assert u.beta == (F(1), F(0))
    assert u.mod[0] == TruncPoly(2, 2, {(0, 1): F(1)})
    assert u.mod[1] == TruncPoly(2, 2, {(1, 0): F(-1)})


def test_left_normed_multibracket():
    ctx = Context(2, 3)
    a = syntax.parse_element(ctx, "[x1,x2,x2]")
    b = liealg.bracket(
        liealg.bracket(liealg.generator(ctx, 1), liealg.generator(ctx, 2)),
        liealg.generator(ctx, 2),
    )
    assert a == b


def test_parse_rationals_signs_zero():
    ctx = Context(3, 3)
    u = syntax.parse_element(ctx, "3/2*[x2,x1] - x3")
    bf = liealg.to_basis(u)
    assert bf.comm == {(2, 1): F(3, 2)}
    assert bf.linear == (F(0), F(0), F(-1))
    assert syntax.parse_element(ctx, "0").is_zero()
    assert syntax.parse_element(ctx, "-x1") == -liealg.generator(ctx, 1)
    assert syntax.parse_element(ctx, "-1*[x2,x1]") == -syntax.parse_element(
        ctx, "[x2,x1]"
    )


def test_print_parse_fixed_point_fuzz():
    for m, c in [(2, 3), (3, 4), (2, 5)]:
        ctx = Context(m, c)
        for trial in range(25):
            u = sample("element", ctx, f"pp{trial}", 3)
            s1 = syntax.print_element(u, "basis")
            v = syntax.parse_element(ctx, s1)
            assert v == u
            assert syntax.print_element(v, "basis") == s1


@st.composite
def sparse_elements(draw, ctx):
    """A few linear and left-normed basis coordinates, every other one zero."""
    linear = tuple(draw(COEFFS) if draw(st.booleans()) else F(0) for _ in range(ctx.m))
    tuples = [t for k in range(2, ctx.c + 1) for t in liealg.enumerate_basis(ctx, k)]
    picked = draw(st.lists(st.sampled_from(tuples), max_size=4)) if tuples else []
    comm = {t: draw(COEFFS) for t in picked}
    return liealg.from_basis(liealg.BasisForm(ctx, linear, comm))


@CHECK
@given(st.data(), CONTEXTS)
def test_element_print_parse_fixed_point(data, mc):
    ctx = Context(*mc)
    u = data.draw(sparse_elements(ctx))
    text = syntax.print_element(u, "basis")
    assert syntax.parse_element(ctx, text) == u
    assert syntax.print_element(syntax.parse_element(ctx, text), "basis") == text


@CHECK
@given(st.data(), st.integers(1, 4), st.integers(0, 4))
def test_poly_print_parse_fixed_point(data, nv, cap):
    monomials = list(all_monomials(nv, cap))
    picked = data.draw(st.lists(st.sampled_from(monomials), max_size=6))
    p = TruncPoly(nv, cap, {e: data.draw(COEFFS) for e in picked})
    text = syntax.print_poly(p)
    assert syntax.parse_poly(text, nv, cap) == p
    assert syntax.print_poly(syntax.parse_poly(text, nv, cap)) == text


@CHECK
@given(st.data(), CONTEXTS)
def test_non_ia_automorphism_print_parse_fixed_point(data, mc):
    ctx = Context(*mc)
    a = [[data.draw(COEFFS) for _ in range(ctx.m)] for _ in range(ctx.m)]
    identity = [[F(int(k == i)) for i in range(ctx.m)] for k in range(ctx.m)]
    assume(a != identity and mat_inv(a) is not None)
    derived = [data.draw(sparse_elements(ctx)) for _ in range(ctx.m)]
    phi = endo.Endomorphism(
        ctx,
        tuple(
            liealg.LieElement(ctx, tuple(a[k][i] for k in range(ctx.m)), w.mod)
            for i, w in enumerate(derived)
        ),
    )
    assert not phi.is_ia()
    text = syntax.print_automorphism(phi, "json")
    assert syntax.parse_automorphism(text) == phi
    assert syntax.print_automorphism(syntax.parse_automorphism(text), "json") == text


def test_semantic_round_trip_example():
    ctx = Context(3, 3)
    s = "3/2*[x2,x1] - x3"
    u = syntax.parse_element(ctx, s)
    assert syntax.parse_element(ctx, syntax.print_element(u, "basis")) == u


def test_wreath_style():
    ctx = Context(2, 3)
    u = syntax.parse_element(ctx, "x1 + [x1,x2]")
    assert syntax.print_element(u, "wreath") == "b1 + a1*(1 + t2) + a2*(-t1)"
    assert syntax.print_element(liealg.zero(ctx), "wreath") == "0"


def test_parse_error_positions():
    ctx = Context(2, 3)
    cases = [
        ("x1 +", 1, 5),
        ("[x1", 1, 4),
        ("[x1,", 1, 5),
        ("x9", 1, 1),
        ("x1 * x2", 1, 4),
        ("1/0*x1", 1, 3),
        ("y1", 1, 1),
        ("", 1, 1),
    ]
    for text, line, col in cases:
        with pytest.raises(ParseError) as exc:
            syntax.parse_element(ctx, text)
        assert exc.value.line == line
        assert exc.value.column == col


def test_poly_parse_print():
    p = syntax.parse_poly("1/2*t1^2*t3 - t2", 3, 3)
    assert p == TruncPoly(3, 3, {(2, 0, 1): F(1, 2), (0, 1, 0): F(-1)})
    assert syntax.parse_poly("0", 3, 3).is_zero()
    assert syntax.parse_poly("5", 2, 2) == TruncPoly.const(2, 2, 5)
    round_trip = syntax.parse_poly(syntax.print_poly(p), 3, 3)
    assert round_trip == p
    with pytest.raises(ParseError):
        syntax.parse_poly("t1 + x2", 3, 3)
    with pytest.raises(ParseError):
        syntax.parse_poly("t9", 3, 3)


def test_parse_automorphism_images():
    phi = syntax.parse_automorphism(
        {"m": 2, "c": 3, "images": ["x1 + 1*[x1,x2,x2]", "x2"]}
    )
    assert phi.is_ia()
    g = __import__("lmc.normal", fromlist=["recognize_ginn"]).recognize_ginn(phi)
    assert g is not None
    assert [str(p) for p in g.f] == ["0", "t2"]


def test_parse_automorphism_jacobian():
    ident = syntax.parse_automorphism(
        {"m": 2, "c": 3, "jacobian": [["1", "0"], ["0", "1"]]}
    )
    assert ident == endo.Endomorphism.identity(Context(2, 3))
    with pytest.raises(ValidationError):
        syntax.parse_automorphism(
            {"m": 2, "c": 3, "jacobian": [["1", "t1"], ["0", "1"]]}
        )  # S-condition violated
    with pytest.raises(ValidationError):
        syntax.parse_automorphism(
            {"m": 2, "c": 3, "jacobian": [["1", "2"], ["0", "1"]]}
        )  # constant off-diagonal


def test_parse_automorphism_errors():
    with pytest.raises(ValidationError):
        syntax.parse_automorphism({"m": 2, "c": 3})
    with pytest.raises(ValidationError):
        syntax.parse_automorphism({"m": 2, "c": 3, "images": ["x1"]})
    with pytest.raises(ValidationError):
        syntax.parse_automorphism({"m": 2, "c": 3, "images": ["x1", "2*x1"]})
    with pytest.raises(ParseError):
        syntax.parse_automorphism("{not json")


def test_automorphism_json_round_trip():
    for m, c in [(2, 3), (3, 3)]:
        ctx = Context(m, c)
        phi = sample("ia", ctx, "json-rt", 2)
        text = syntax.print_automorphism(phi, "json")
        data = json.loads(text)
        assert set(data) == {"m", "c", "images", "jacobian"}
        again = syntax.parse_automorphism(text)
        assert again == phi
        via_jac = syntax.parse_automorphism(
            {"m": m, "c": c, "jacobian": data["jacobian"]}
        )
        assert via_jac == phi


# -- generator commutators in closed form ----------------------------------------


@CHECK
@given(st.data())
def test_generator_commutators_in_closed_form_match_bracket_chain(data):
    m, c = data.draw(st.sampled_from([(2, 3), (3, 3), (3, 4), (4, 5)]))
    ctx = Context(m, c)
    idx = data.draw(st.lists(st.integers(1, m), min_size=2, max_size=c + 2))
    want = liealg.bracket_chain(*(liealg.generator(ctx, i) for i in idx))
    assert syntax.parse_element(ctx, "[" + ",".join(f"x{i}" for i in idx) + "]") == want


def test_generator_commutators_cover_every_head_and_length():
    for m, c in [(2, 3), (3, 3), (3, 4), (4, 5)]:
        ctx = Context(m, c)
        x = lambda i: liealg.generator(ctx, i)
        for head in [(1, 2), (2, 1), (m, m), (1, m)]:
            for tail in range(c + 1):
                idx = head + (m,) * tail
                want = liealg.bracket_chain(*map(x, idx))
                text = "[" + ",".join(f"x{i}" for i in idx) + "]"
                assert syntax.parse_element(ctx, text) == want, idx
                assert want.is_zero() == (head[0] == head[1] or len(idx) > c), idx
        text = "x1 - 3*[x2, x1,x1] + 1/2*[x1,x2]"
        want = x(1) - liealg.bracket_chain(x(2), x(1), x(1)).scale(3) + liealg.bracket(
            x(1), x(2)
        ).scale(F(1, 2))
        assert syntax.parse_element(ctx, text) == want


@pytest.mark.parametrize(
    "text, line, col, message",
    [
        ("[x1]", 1, 4, "1:4: expected ',' inside a bracket, found ']'"),
        ("[x1,]", 1, 5, "1:5: expected a generator or '[', found ']'"),
        ("[x1,x9]", 1, 5, "1:5: expected a generator index in 1..3, found x9"),
        ("[x1, x2 x3]", 1, 9, "1:9: expected ']' closing the bracket, found 'x3'"),
        ("[[x1,x2],x3", 1, 12, "1:12: expected ']' closing the bracket, found end of input"),
        ("[x1,t2]", 1, 5, "1:5: expected a generator 'xN', found 't2'"),
        ("[x1,x2]]", 1, 8, "1:8: expected end of input, found ']'"),
        ("x1 + [x2,\n x1,x4]", 2, 5, "2:5: expected a generator index in 1..3, found x4"),
    ],
)
def test_brackets_that_are_not_generator_chains_keep_their_parse_errors(text, line, col, message):
    with pytest.raises(ParseError) as exc:
        syntax.parse_element(Context(3, 3), text)
    assert (exc.value.line, exc.value.column, str(exc.value)) == (line, col, message)


def test_a_bracket_with_a_coefficient_inside_takes_the_general_path():
    ctx = Context(3, 3)
    x = lambda i: liealg.generator(ctx, i)
    assert syntax.parse_element(ctx, "[x1,2*x2]") == liealg.bracket(x(1), x(2).scale(2))
    assert syntax.parse_element(ctx, "[x1,x2+x3,x1]") == liealg.bracket_chain(
        x(1), x(2) + x(3), x(1)
    )
