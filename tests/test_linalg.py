"""The fraction-free rank kernel against Fraction `rref`, its oracle."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from bbquiver.linalg import leading_columns, rref
from chart_oracle import rank

ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 7)),
    st.builds(Fraction, st.integers(-10**9, 10**9), st.integers(1, 10**4)),
)


@st.composite
def matrices(draw):
    """Rational matrices, wide or tall, with zero rows and columns mixed in
    and some rows repeated as multiples of others so the rank drops."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    m = [[draw(ENTRIES) for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        kind = draw(st.sampled_from(("plain", "plain", "zero", "multiple")))
        if kind == "zero":
            m[i] = [Fraction(0)] * cols
        elif kind == "multiple" and i > 0:
            j = draw(st.integers(0, i - 1))
            f = draw(st.builds(Fraction, st.integers(-5, 5), st.integers(1, 5)))
            m[i] = [f * x for x in m[j]]
    for c in draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=2)):
        for row in m:
            if c < len(row):
                row[c] = Fraction(0)
    return m


def rref_pivots(m):
    return rref(m)[1]


def sparse(m):
    return [{c: x for c, x in enumerate(row) if x} for row in m]


def transpose(m):
    return [list(col) for col in zip(*m)]


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rank_equals_rref(m):
    assert rank(m) == len(rref_pivots(m))


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_leading_columns_are_the_rref_pivots(m):
    assert leading_columns(sparse(m)) == rref_pivots(m)
    # columns as rows: the row coordinates spanning the column space
    assert leading_columns(sparse(transpose(m))) == rref_pivots(transpose(m))


def test_integer_entries_and_empty_shapes():
    assert rank([]) == 0 and rank([[], []]) == 0
    assert leading_columns([]) == [] and leading_columns([{}, {}]) == []
    assert rank([[2, 4], [1, 2]]) == 1
    assert leading_columns([{1: 3, 2: 1}, {1: 6, 2: 2}]) == [1]


def test_rref_is_exact_on_integer_rows():
    # in floats, 121 - 55 * (11 / 5) is not 0 and the rank would read 2
    assert rref([[5, 11], [55, 121]]) == ([[1, Fraction(11, 5)], [0, 0]], [0])
