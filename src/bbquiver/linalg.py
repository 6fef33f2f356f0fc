"""Exact linear algebra over the rationals: echelon forms, ranks, solving.

Dense matrices are lists of lists of rationals (rows).  Rank decisions must
be tolerance-free, so everything runs in exact arithmetic.

Ranks and pivot columns come from a fraction-free kernel (`leading_columns`):
each row is scaled to integers by the least common multiple of its
denominators, which changes neither its span nor the pivot columns, and is
then reduced against the echelon rows found so far with integer
combinations, dividing out the content (gcd) of every new row so entries
stay small.  Rows are sparse ({column: value}), which suits the block
matrices of the cell charts.  `rref` keeps Fraction arithmetic because
`solve` needs the reduced form; it is also the tests' oracle for the kernel.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def zeros(rows: int, cols: int):
    return [[Fraction(0)] * cols for _ in range(rows)]


def copy(m):
    return [row[:] for row in m]


def rref(m):
    """Reduced row echelon form; returns (rref_matrix, pivot_column_indices)."""
    m = copy(m)
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def _integer_row(row: dict) -> dict:
    """The nonzero entries of a sparse rational row, scaled to coprime integers."""
    den = 1
    for x in row.values():
        if x.denominator != 1:
            den = lcm(den, x.denominator)
    out = {c: x.numerator * (den // x.denominator) for c, x in row.items() if x}
    g = gcd(*out.values())
    if g != 1:
        out = {c: x // g for c, x in out.items()}
    return out


def leading_columns(rows) -> list[int]:
    """Pivot columns of the span of sparse rational rows ({column: value}).

    Each row is reduced against the echelon rows kept so far, indexed by
    their leading (smallest) column, until it vanishes or leads at a new
    column.  The leading columns of any echelon basis are the pivot columns
    of the reduced row echelon form, so the result equals `rref`'s pivots.
    """
    echelon: dict = {}
    for row in rows:
        row = _integer_row(row)
        while row:
            lead = min(row)
            basis = echelon.get(lead)
            if basis is None:
                echelon[lead] = row
                break
            a, b = row[lead], basis[lead]
            g = gcd(a, b)
            a, b = a // g, b // g
            new = {c: b * x for c, x in row.items()}
            for c, y in basis.items():
                x = new.get(c, 0) - a * y
                if x:
                    new[c] = x
                else:
                    del new[c]
            g = gcd(*new.values())
            row = {c: x // g for c, x in new.items()} if g > 1 else new
    return sorted(echelon)


def rank(m) -> int:
    return len(leading_columns([{c: x for c, x in enumerate(row) if x} for row in m]))


def solve(a, b):
    """One solution x of a x = b (columns of b), or None if inconsistent."""
    if not a:
        return [] if all(all(x == 0 for x in row) for row in b) else None
    rows, cols = len(a), len(a[0])
    bcols = len(b[0]) if b else 0
    aug = [a[i][:] + b[i][:] for i in range(rows)]
    red, pivots = rref(aug)
    for row in red:
        if all(x == 0 for x in row[:cols]) and any(x != 0 for x in row[cols:]):
            return None
    x = zeros(cols, bcols)
    for r, c in enumerate(pivots):
        if c >= cols:
            return None
        for j in range(bcols):
            x[c][j] = red[r][cols + j]
    return x


def row_space_contains(sub_rows, big_rows) -> bool:
    """True iff the row space of sub_rows lies inside that of big_rows."""
    if not sub_rows:
        return True
    if not big_rows:
        return all(all(x == 0 for x in row) for row in sub_rows)
    r_big = rank(big_rows)
    return rank(big_rows + sub_rows) == r_big
