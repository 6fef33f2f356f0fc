"""Small finite fields GF(q) and their subspace lattices, table-driven.

Elements are encoded as integers 0..q-1 (coefficient tuples of the residue
polynomial in mixed radix p).  Vectors over GF(q) are encoded as integers in
base q, lowest coordinate first, which keeps the brute-force counting code
numpy-friendly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import UnsupportedError, ValidationError


def _factor_prime_power(q: int):
    for p in (2, 3, 5, 7, 11, 13):
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m == 1:
                return p, k
            return None
    return None


def _poly_mul_mod(a, b, modpoly, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    # reduce by the monic modpoly of degree k
    k = len(modpoly) - 1
    for i in range(len(out) - 1, k - 1, -1):
        c = out[i]
        if c:
            for j in range(k + 1):
                out[i - k + j] = (out[i - k + j] - c * modpoly[j]) % p
    return [x % p for x in out[:k]]


def _find_irreducible(p, k):
    """Monic irreducible polynomial of degree k over F_p, by exhaustion."""
    if k == 1:
        return [0, 1]
    for tail in itertools.product(range(p), repeat=k):
        poly = list(tail) + [1]
        if poly[0] == 0:
            continue  # divisible by x
        # irreducible iff no monic factor of degree 1..k//2
        if not _has_factor(poly, p):
            return poly
    raise AssertionError("no irreducible polynomial found")


def _poly_divmod(a, b, p):
    a = a[:]
    out = [0] * (len(a) - len(b) + 1)
    inv = pow(b[-1], -1, p)
    for i in range(len(out) - 1, -1, -1):
        c = (a[i + len(b) - 1] * inv) % p
        out[i] = c
        if c:
            for j, x in enumerate(b):
                a[i + j] = (a[i + j] - c * x) % p
    rem = a[: len(b) - 1]
    while rem and rem[-1] == 0:
        rem.pop()
    return out, rem


def _has_factor(poly, p):
    k = len(poly) - 1
    for deg in range(1, k // 2 + 1):
        for tail in itertools.product(range(p), repeat=deg):
            cand = list(tail) + [1]
            _, rem = _poly_divmod(poly, cand, p)
            if not rem:
                return True
    return False


@dataclass(frozen=True)
class SmallField:
    """GF(q) with q = p^k, all arithmetic through numpy lookup tables."""

    q: int
    p: int
    k: int
    add: np.ndarray
    mul: np.ndarray
    neg: np.ndarray
    inv: np.ndarray

    def sub(self, a, b):
        return self.add[a, self.neg[b]]


@lru_cache(maxsize=None)
def small_field(q: int) -> SmallField:
    pk = _factor_prime_power(q)
    if pk is None:
        raise ValidationError(f"q = {q} is not a prime power")
    p, k = pk
    if k == 1:
        elems = list(range(p))
        add = np.array([[(a + b) % p for b in elems] for a in elems], dtype=np.uint8)
        mul = np.array([[(a * b) % p for b in elems] for a in elems], dtype=np.uint8)
        neg = np.array([(-a) % p for a in elems], dtype=np.uint8)
        inv = np.array([0] + [pow(a, -1, p) for a in range(1, p)], dtype=np.uint8)
        return SmallField(q, p, k, add, mul, neg, inv)
    modpoly = _find_irreducible(p, k)
    coeffs = [list(t) for t in itertools.product(range(p), repeat=k)]
    # encoding: element code = sum coeff_i * p^i, coeff tuples little-endian
    codes = {tuple(c): sum(x * p**i for i, x in enumerate(c)) for c in coeffs}
    by_code = sorted(coeffs, key=lambda c: codes[tuple(c)])
    add = np.zeros((q, q), dtype=np.uint8)
    mul = np.zeros((q, q), dtype=np.uint8)
    neg = np.zeros(q, dtype=np.uint8)
    for a in by_code:
        ca = codes[tuple(a)]
        neg[ca] = codes[tuple((-x) % p for x in a)]
        for b in by_code:
            cb = codes[tuple(b)]
            add[ca, cb] = codes[tuple((x + y) % p for x, y in zip(a, b))]
            mul[ca, cb] = codes[tuple(_poly_mul_mod(list(a), list(b), modpoly, p))]
    inv = np.zeros(q, dtype=np.uint8)
    for a in range(1, q):
        b = next(b for b in range(1, q) if mul[a, b] == 1)
        inv[a] = b
    return SmallField(q, p, k, add, mul, neg, inv)


def vec_encode(vec, q: int) -> int:
    code = 0
    for x in reversed(vec):
        code = code * q + int(x)
    return code


def vec_decode(code: int, n: int, q: int) -> tuple[int, ...]:
    out = []
    for _ in range(n):
        out.append(code % q)
        code //= q
    return tuple(out)


def coordinates(n: int, q: int) -> np.ndarray:
    """Coordinates of every vector of GF(q)^n: row `code` decodes `code`."""
    codes = np.arange(q**n, dtype=np.int64)
    return (codes[:, None] // q ** np.arange(n, dtype=np.int64) % q).astype(np.uint8)


def encode_rows(coords: np.ndarray, q: int) -> np.ndarray:
    """Vector codes of coordinate rows (last axis), the inverse of `coordinates`."""
    n = coords.shape[-1]
    return coords.astype(np.int64) @ (q ** np.arange(n, dtype=np.int64))


@dataclass(frozen=True)
class Subspace:
    dim: int
    members: frozenset  # codes of all member vectors
    basis: tuple        # tuple of coordinate tuples


@lru_cache(maxsize=None)
def subspaces(n: int, q: int) -> tuple[Subspace, ...]:
    """All subspaces of GF(q)^n: by dimension, then by sorted member codes.

    Each subspace of dimension k is listed once through its reduced
    row-echelon basis: pivot columns p_1 < ... < p_k, a 1 at (i, p_i), zeros
    in the other pivot columns and before p_i, free entries elsewhere.
    """
    F = small_field(q)
    scalars = np.arange(q, dtype=np.uint8)
    out = []
    for k in range(n + 1):
        level_codes, level_bases = [], []
        for pivots in itertools.combinations(range(n), k):
            free = [(i, j) for i, p in enumerate(pivots)
                    for j in range(p + 1, n) if j not in pivots]
            bases = np.zeros((q ** len(free), k, n), dtype=np.uint8)
            bases[:, range(k), pivots] = 1
            if free:
                rows, cols = zip(*free)
                bases[:, rows, cols] = coordinates(len(free), q)
            members = np.zeros((len(bases), 1, n), dtype=np.uint8)
            for i in range(k):
                multiples = F.mul[scalars[None, :, None], bases[:, i, None, :]]
                members = F.add[members[:, :, None, :], multiples[:, None, :, :]]
                members = members.reshape(len(bases), -1, n)
            level_codes.append(np.sort(encode_rows(members, q), axis=1))
            level_bases.append(bases)
        codes = np.concatenate(level_codes)
        bases = np.concatenate(level_bases)
        for o in np.lexsort(codes.T[::-1]):
            out.append(Subspace(k, frozenset(codes[o].tolist()),
                                tuple(map(tuple, bases[o].tolist()))))
    return tuple(out)


def batch_det(cols, F: SmallField):
    """Determinant of a k x k matrix given as k column arrays of k (batch,) arrays.

    cols[j][i] is the (i, j) entry, each a numpy array over field codes.
    Supported for k <= 3 (cofactor expansion through lookup tables).
    """
    k = len(cols)
    if k == 1:
        return cols[0][0]
    if k == 2:
        a, c = cols[0]
        b, d = cols[1]
        return F.sub(F.mul[a, d], F.mul[b, c])
    if k == 3:
        (a11, a21, a31), (a12, a22, a32), (a13, a23, a33) = cols
        m1 = F.mul[a11, F.sub(F.mul[a22, a33], F.mul[a23, a32])]
        m2 = F.mul[a12, F.sub(F.mul[a21, a33], F.mul[a23, a31])]
        m3 = F.mul[a13, F.sub(F.mul[a21, a32], F.mul[a22, a31])]
        return F.add[F.sub(m1, m2), m3]
    raise UnsupportedError("batched determinants implemented for size <= 3 only")


def batch_rank_ge(columns, threshold: int, F: SmallField):
    """Boolean mask: rank of the batch matrices is >= threshold.

    The pipeline does not call it; the tests count Kronecker-shape points
    with it as a reference for the span-signature fold in `existence`.

    `columns` is a list of column vectors, each a list of (batch,) arrays
    (the rows).  Ranks are detected through vanishing of all minors of size
    `threshold`, so threshold <= 3.
    """
    if threshold == 0:
        some = columns[0][0]
        return np.ones_like(some, dtype=bool)
    nrows = len(columns[0])
    ncols = len(columns)
    if threshold > min(nrows, ncols):
        some = columns[0][0]
        return np.zeros_like(some, dtype=bool)
    ok = None
    for rset in itertools.combinations(range(nrows), threshold):
        for cset in itertools.combinations(range(ncols), threshold):
            sub = [[columns[c][r] for r in rset] for c in cset]
            det = batch_det(sub, F)
            nz = det != 0
            ok = nz if ok is None else (ok | nz)
    return ok
