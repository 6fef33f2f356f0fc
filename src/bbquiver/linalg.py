"""Exact pivot columns over the rationals, without tolerances.

Ranks and pivot columns come from a fraction-free kernel (`leading_columns`):
each row is scaled to integers by the least common multiple of its
denominators, which changes neither its span nor the pivot columns, and is
then reduced against the echelon rows found so far with integer
combinations, dividing out the content (gcd) of every new row so entries
stay small.  Rows are sparse ({column: value}), which suits the block
matrices of the cell charts.  `rref`, the dense reduced row echelon form in
Fraction arithmetic on lists of rows, is the tests' reference for the kernel.
"""

from __future__ import annotations

from math import gcd, lcm


def rref(m):
    """Reduced row echelon form; returns (rref_matrix, pivot_column_indices)."""
    from fractions import Fraction

    m = [[Fraction(x) for x in row] for row in m]  # int rows would divide into floats
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
    den = lcm(*(x.denominator for x in row.values()))
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
