"""Exact stability of Kronecker representations with d = (2, 2r+1), and
the label helpers that only the tests use.

An independent oracle for the tests: it decides stability from the
representation's matrices alone, over the algebraic closure, without the
covering or chart machinery whose output it checks.
"""

import itertools
from fractions import Fraction

from bbquiver.errors import ValidationError
from bbquiver.kronecker import Label1, Label2, _check_lr
from chart_oracle import rank as _rank


def m_complement(label: Label1) -> tuple[int, ...]:
    used = {label.m, *label.m_star}
    return tuple(x for x in range(1, label.l + 2) if x not in used)


def n_complement(label: Label1) -> tuple[int, ...]:
    used = {label.n, *label.n_star}
    return tuple(x for x in range(1, label.l + 2) if x not in used)


def label_t(label: Label2) -> int:
    """t = l + 1 - x - y, the arrows that neither m_star nor n_star uses."""
    return label.l + 1 - label.x - label.y


def normal_form_label(l: int, r: int) -> Label1:
    """The unique type-1 label whose minus-attractor vanishes, hence whose
    plus-attractor chart is the dense open cell of dimension
    (2s+1)(2r+1) - 3."""
    _check_lr(l, r)
    s = l - r
    m = s + 1
    m_star = tuple(range(s + 2, l + 2))
    n = s + 2
    n_star = tuple([s + 1] + list(range(s + 3, l + 2)))
    return Label1(l, r, m, m_star, n, n_star)


def _form_mul(f, g):
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _form_det(entries):
    """Determinant of a square matrix of linear binary forms, as a binary form.

    Each entry is a coefficient pair (c1, c2) for c1*x1 + c2*x2; a binary
    form of degree d is the coefficient list of x1^k x2^(d-k), k = 0..d.
    """
    k = len(entries)
    if k == 0:
        return [Fraction(1)]
    if k == 1:
        c1, c2 = entries[0][0]
        return [Fraction(c2), Fraction(c1)]
    total = [Fraction(0)] * (k + 1)
    for col in range(k):
        c1, c2 = entries[0][col]
        minor = [[entries[r][c] for c in range(k) if c != col] for r in range(1, k)]
        sub = _form_det(minor)
        term = _form_mul([Fraction(c2), Fraction(c1)], sub)
        sign = 1 if col % 2 == 0 else -1
        for i, x in enumerate(term):
            total[i] += sign * x
    return total


def _poly_gcd(p, q):
    """gcd of univariate rational polynomials given as coefficient lists."""

    def trim(f):
        while f and f[-1] == 0:
            f.pop()
        return f

    p, q = trim(list(p)), trim(list(q))
    while q:
        r = list(p)
        while True:
            trim(r)
            if len(r) < len(q):
                break
            coef = r[-1] / q[-1]
            off = len(r) - len(q)
            for i, x in enumerate(q):
                r[off + i] -= coef * x
        p, q = q, r
    return p


def kronecker_stable_exact(matrices, r: int | None = None) -> bool:
    """Stability of a tuple of (2r+1) x 2 rational matrices: the images must
    jointly fill the target and every nonzero column vector x must have
    arrow images spanning at least r+1 dimensions.

    The second condition is checked over the algebraic closure: the size
    r+1 minors of [A_1 x | ... | A_{l+1} x] are binary forms in x, and a bad
    x exists iff they share a projective root (a nonconstant gcd, or a
    common root at infinity).
    """
    mats = [[[Fraction(x) for x in row] for row in m] for m in matrices]
    rows = len(mats[0])
    if any(len(m) != rows or any(len(row) != 2 for row in m) for m in mats):
        raise ValidationError("expected matrices with two columns and equal heights")
    if r is None:
        if rows % 2 == 0:
            raise ValidationError("target dimension must be odd")
        r = (rows - 1) // 2
    stacked = [sum((m[i] for m in mats), []) for i in range(rows)]
    if _rank(stacked) != rows:
        return False
    # columns of B(x): entry (i, t) is the linear form A_t[i][0] x1 + A_t[i][1] x2
    n_cols = len(mats)
    if r + 1 > min(rows, n_cols):
        return False
    forms = []
    for rset in itertools.combinations(range(rows), r + 1):
        for tset in itertools.combinations(range(n_cols), r + 1):
            entries = [[(mats[t][i][0], mats[t][i][1]) for t in tset] for i in rset]
            f = _form_det(entries)
            if any(x != 0 for x in f):
                forms.append(f)
    if not forms:
        return False  # rank below r+1 for every x
    if all(f[-1] == 0 for f in forms):
        return False  # common root at x = (1, 0)
    g = []
    for f in forms:
        g = _poly_gcd(g, f) if g else [x for x in f]
        while g and g[-1] == 0:
            g = g[:-1]
        if len(g) == 1:
            return True  # coprime already
    return len(g) <= 1
