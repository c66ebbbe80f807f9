"""The integer-row solvers of lmc.linalg against the Fraction reference.

SparseSolver and SpanBasis eliminate fraction-free over primitive integer
rows with the largest key as pivot; tests/linalg_reference.py is the
Fraction Gauss-Jordan they replaced, smallest key first.  On random sparse
rational systems both must give the same solve result (None included) and
the same rank, and the spans the same dimension, add results and
containment answers.
"""

from fractions import Fraction as F
from math import gcd

import linalg_reference as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from lmc import liealg, linalg

CHECK = settings(max_examples=300, deadline=None, database=None)

# Keys shaped like cosets.reduce_mod_in's: tuples of mixed lengths.
exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
keys = st.one_of(
    st.builds(lambda e: ("A", e), exps),
    st.builds(lambda i, e: ("B", i, e), st.integers(2, 3), exps),
    st.builds(lambda e: ("C", e), exps),
)
scalars = st.one_of(
    st.builds(F, st.integers(-6, 6), st.integers(1, 6)),
    st.builds(F, st.integers(-(10**30), 10**30), st.integers(1, 10**12)),
)
nonzero = scalars.filter(bool)


@st.composite
def systems(draw):
    """(columns, rhs): some columns are combinations of earlier ones, and
    the right-hand side is in the span, off it, or random."""
    pool = draw(st.lists(keys, min_size=1, max_size=7, unique=True))
    vectors = st.dictionaries(st.sampled_from(pool), nonzero, max_size=len(pool))
    columns = []
    for _ in range(draw(st.integers(0, 6))):
        if columns and draw(st.booleans()):
            picks = draw(st.lists(st.sampled_from(range(len(columns))), min_size=1, max_size=3))
            columns.append(combine(draw, [columns[j] for j in picks]))
        else:
            columns.append(draw(vectors))
    how = draw(st.sampled_from(("span", "off", "random")))
    if how == "random" or not columns:
        rhs = draw(vectors)
    else:
        rhs = combine(draw, columns)
        if how == "off":
            key = draw(keys)
            rhs[key] = rhs.get(key, 0) + draw(nonzero)
            rhs = {k: v for k, v in rhs.items() if v}
    return columns, rhs


def combine(draw, vecs):
    out = {}
    for vec in vecs:
        f = draw(scalars)
        for k, v in vec.items():
            out[k] = out.get(k, 0) + f * v
    return {k: v for k, v in out.items() if v}


@CHECK
@given(systems())
def test_solver_matches_reference(system):
    columns, rhs = system
    new, old = linalg.SparseSolver(columns), ref.SparseSolver(columns)
    assert new.ncols == old.ncols == len(columns)
    assert new.rank() == old.rank()
    assert new.solve(rhs) == old.solve(rhs)
    for col in columns:
        assert new.solve(col) == old.solve(col)


@CHECK
@given(systems())
def test_span_matches_reference(system):
    columns, rhs = system
    new, old = linalg.SpanBasis(), ref.SpanBasis()
    for col in columns:
        assert new.add(col) == old.add(col)
        assert new.dim() == old.dim()
    assert new.contains(rhs) == old.contains(rhs)
    assert all(new.contains(col) for col in columns)


@CHECK
@given(systems())
def test_rows_are_primitive_with_positive_pivot(system):
    columns, _ = system
    span = linalg.SpanBasis()
    for col in columns:
        span.add(col)
    solver = linalg.SparseSolver(columns)
    rows = list(span.rows.items()) + [(p, vec) for p, (vec, _) in solver.reduced.items()]
    for pivot, row in rows:
        assert pivot == max(row) and row[pivot] > 0
        assert all(type(v) is int and v for v in row.values())
    # echelon rows: no two rows share their largest key, the pivot
    assert len({max(row) for row in span.rows.values()}) == span.dim()
    for pivot, row in span.rows.items():
        assert gcd(*row.values()) == 1


def test_empty_column_family():
    solver, old = linalg.SparseSolver([]), ref.SparseSolver([])
    assert solver.ncols == 0 and solver.rank() == 0
    assert solver.solve({}) == old.solve({}) == []
    assert solver.solve({("A", (0, 1)): F(1, 2)}) is None
    span = linalg.SpanBasis()
    assert span.dim() == 0 and span.contains({}) and not span.contains({("A", (0, 0)): 3})


def test_basis_solver_is_diagonal():
    # The largest key of a basis column is its leading term, owned by that
    # column alone, so no column is eliminated against another.
    ctx = liealg.Context(3, 4)
    for k in range(2, ctx.c + 1):
        solver = liealg._basis_solver(ctx, k)
        assert solver.rank() == solver.ncols == liealg.degree_dim_formula(ctx, k)
        for vec, expr in solver.reduced.values():
            assert len(expr) == 1 and set(expr.values()) == {1}
            assert sorted(vec.values()) == [-1, 1]
