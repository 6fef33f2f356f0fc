"""Brute-force F_q-point counts of quiver moduli: the independent counting oracle.

The runtime counts by the Harder-Narasimhan recursion (`hn.stable_counts`)
and never imports this module or `finitefield`, the two numpy modules; only
the tests and the benchmark's tracer do.  `has_stable` is `hn.has_stable`,
re-exported because the tracer wraps it under this module's name.

`brute_force_stable_count` counts the F_q-points of the moduli space: the
stable points of R(Q, d)(F_q), divided by |PG_d(F_q)|.  Neither kernel builds
R(Q, d)(F_q); both fold the arrows one at a time over a histogram of
per-arrow signatures.  The generic kernel scores each subspace tuple linearly
(theta'' . dim) and keeps a table over the subspaces of the vertices in play
of the best score an invariant tuple could still reach; a representation is
stable iff no invariant tuple scores above 0.  For the two-vertex shapes
d = (2, 2r+1) the Kronecker kernel folds joins of per-arrow span signatures
instead.  The count is independent of HN, and the tests hold the two against
each other.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .core import Quiver, check_vector, is_coprime, slope_scores
from .errors import InconsistencyError, UnsupportedError
from .finitefield import coordinates, encode_rows, small_field, subspaces
from .hn import has_stable, pg_order  # noqa: F401 (has_stable: re-exported)


class BudgetExceededError(UnsupportedError):
    """The representation space `brute_force_stable_count` would count exceeds its budget."""


_HOPELESS = -1  # generic count: no invariant tuple through this entry can score above 0


def _is_kronecker_shape(quiver: Quiver, d, theta) -> bool:
    """Two vertices, every arrow source -> sink, d = (2, odd), theta favoring the source."""
    if len(quiver.vertices) != 2:
        return False
    v0, v1 = quiver.vertices
    if not all(a.source == v0 and a.target == v1 for a in quiver.arrows):
        return False
    if d[0] != 2 or d[1] % 2 != 1 or d[1] < 1:
        return False
    return theta[0] > theta[1]


def _rep_radices(quiver: Quiver, d, q):
    return [q ** (d[s] * d[t]) for s, t in quiver.arrow_pairs]


@lru_cache(maxsize=None)
def _arrow_signatures(ds: int, dt: int, q: int, loop: bool):
    """Histogram of the dt x ds matrices A over GF(q) by signature.

    The signature of A is the boolean table of subspace pairs (U_s, U_t),
    indexed as in `subspaces`, with A U_s inside U_t; for a loop only the
    pairs U_s = U_t.  Returns the distinct signatures and their counts.
    """
    sources, targets = subspaces(ds, q), subspaces(dt, q)
    if q ** (ds * dt) * len(sources) * len(targets) > 2**28:
        raise UnsupportedError("the generic count needs per-arrow signature tables "
                               "below 2^28 entries")
    F = small_field(q)
    vectors = coordinates(ds, q)
    mats = coordinates(ds * dt, q).reshape(q ** (ds * dt), ds, dt)  # mats[:, c]: column c
    image = np.zeros((len(mats), len(vectors), dt), dtype=np.uint8)
    for c in range(ds):
        image = F.add[image, F.mul[mats[:, None, c, :], vectors[None, :, c, None]]]
    image = encode_rows(image, q)  # image[m, v]: code of A v
    member = np.zeros((len(targets), q**dt), dtype=bool)
    for k, u in enumerate(targets):
        member[k, list(u.members)] = True
    fits = []  # fits[k][m, j]: matrix m maps U_k into U_j
    for u in sources:
        basis = encode_rows(np.array(u.basis, dtype=np.uint8).reshape(u.dim, ds), q)
        fits.append(member[:, image[:, basis]].all(axis=-1).T)
    signature = np.stack(fits, axis=1)
    if loop:
        signature = np.diagonal(signature, axis1=1, axis2=2)
    sigs, counts = np.unique(signature.reshape(len(mats), -1), axis=0, return_counts=True)
    return sigs.reshape((len(sigs),) + signature.shape[1:]), counts.astype(np.int64)


def _count_stable_generic(quiver: Quiver, d, theta, q) -> int:
    """Stable points of R(Q, d)(F_q), folding the arrows over signatures.

    With theta'' = |d| theta - (theta . d) 1, a subrepresentation of
    dimension e destabilizes iff theta'' . e > 0; e = 0 and e = d score 0 and
    coprimality rules out 0 elsewhere, so a representation is stable iff no
    invariant subspace tuple scores above 0.  A state is a table over the
    subspace tuples of the live vertices (touched by a folded arrow and by
    one still to come) holding the headroom of the best invariant tuple
    extending each entry: its score so far plus the best score the vertices
    not yet joined could add.  A vertex joins at its first arrow, each arrow
    masks the table by its signature, and a vertex is maximized out after
    its last arrow.  Entries with no headroom above 0 are hopeless and all
    become -1, so states merge and their weights add; a representation is
    stable iff its final state is hopeless.
    """
    if math.prod(_rep_radices(quiver, d, q)) >= 2**63:
        raise UnsupportedError("the generic count needs fewer than 2^63 representations")
    score = slope_scores(theta, d)
    score = [c // (math.gcd(*score) or 1) for c in score]
    gain = [max(0, c * x) for c, x in zip(score, d)]  # best score vertex i can add
    bound = sum(gain) + sum(abs(c) * x for c, x in zip(score, d)) + 2  # |entries| + 1 < bound
    if bound >= 2**63:
        raise UnsupportedError("the generic count needs subspace scores below 2^63")
    dtype = np.min_scalar_type(-bound)
    arrows = quiver.arrow_pairs
    last = {v: k for k, arrow in enumerate(arrows) for v in arrow}
    live: list = []
    states = _clip(np.array([sum(gain)], dtype=dtype))
    weights = np.ones(1, dtype=np.int64)
    for k, (s, t) in enumerate(arrows):
        for v in dict.fromkeys((s, t)):
            if v not in live:
                column = score[v] * np.array([u.dim for u in subspaces(d[v], q)]) - gain[v]
                states = states[..., None] + column.astype(dtype)
                live.append(v)
        sigs, counts = _arrow_signatures(d[s], d[t], q, s == t)
        shape = [1] * len(live)
        shape[live.index(s)], shape[live.index(t)] = sigs.shape[1], sigs.shape[-1]
        if live.index(s) > live.index(t):
            sigs = sigs.transpose(0, 2, 1)
        done = tuple(2 + j for j, v in enumerate(live) if last[v] == k)
        states, weights = _mask_arrow(states, weights, sigs.reshape(len(sigs), *shape), counts,
                                      done)
        live = [v for v in live if last[v] != k]
    return int(weights[states == _HOPELESS].sum())


def _clip(states):
    """Entries that cannot score above 0 become `_HOPELESS`."""
    return np.where(states > 0, states, _HOPELESS)


def _merge_rows(states, weights):
    """Sum the weights of equal state tables (axis 0 indexes the states).

    Each table is compared as one opaque byte string, which sorts far faster
    than `np.unique(..., axis=0)` comparing it entry by entry."""
    flat = np.ascontiguousarray(states.reshape(len(states), -1))
    keys = flat.view(np.dtype((np.void, flat.dtype.itemsize * flat.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    merged = np.zeros(len(first), dtype=np.int64)
    np.add.at(merged, inverse.ravel(), weights)
    return states[first], merged


def _mask_arrow(states, weights, mask, counts, done, pairs=2**22):
    """Mask every state table by every signature, maximize out the axes `done`
    (numbered with the state and signature axes in front), mark the hopeless
    entries and merge, a chunk of states at a time: at most about `pairs`
    table entries are held at once."""
    step = max(1, pairs // (len(mask) * states[0].size))
    parts = []
    for lo in range(0, len(states), step):
        # where(mask, states, _HOPELESS), without where's slow broadcasting
        masked = ((states[lo:lo + step, None] - _HOPELESS) * mask + _HOPELESS).max(axis=done)
        masked = _clip(masked)
        parts.append(_merge_rows(masked.reshape((-1,) + masked.shape[2:]),
                                 np.outer(weights[lo:lo + step], counts).ravel()))
    return _merge_rows(np.concatenate([c for c, _ in parts]),
                       np.concatenate([w for _, w in parts]))


class _SpanLattice:
    """The subspaces of GF(q)^m by index into `subspaces(m, q)`, with a join
    memoised on the index pairs that occur."""

    def __init__(self, m: int, q: int):
        self.q = q
        self.F = small_field(q)
        self.subs = subspaces(m, q)
        self.whole = len(self.subs) - 1
        self.dims = np.array([s.dim for s in self.subs])
        self.coords = coordinates(m, q)
        by_members = {s.members: k for k, s in enumerate(self.subs)}
        self.line_of = np.zeros(q**m, dtype=np.int64)  # vector code -> index of its span
        for s in self.subs:
            if s.dim == 1:
                self.line_of[list(s.members - {0})] = by_members[s.members]
        self._by_members = by_members
        self._join: dict = {}

    def _join_pair(self, a: int, b: int) -> int:
        if a == 0 or b == self.whole:
            return b
        if b == 0 or a == self.whole:
            return a
        u = self.coords[list(self.subs[a].members)]
        v = self.coords[list(self.subs[b].members)]
        sums = encode_rows(self.F.add[u[:, None, :], v[None, :, :]], self.q)
        return self._by_members[frozenset(sums.ravel().tolist())]

    def join(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Componentwise index of span(U_a + U_b)."""
        pairs, inverse = np.unique(a * len(self.subs) + b, return_inverse=True)
        keys, memo = pairs.tolist(), self._join
        for key in keys:
            if key not in memo:
                memo[key] = self._join_pair(*divmod(key, len(self.subs)))
        return np.array([memo[key] for key in keys], dtype=np.int64)[inverse.ravel()]


@lru_cache(maxsize=None)
def _span_lattice(m: int, q: int) -> _SpanLattice:
    return _SpanLattice(m, q)


def _merge(codes, weights):
    """Sum the weights of equal state codes."""
    codes, inverse = np.unique(codes, return_inverse=True)
    merged = np.zeros(len(codes), dtype=np.int64)
    np.add.at(merged, inverse.ravel(), weights)
    return codes, merged


def _fold_arrow(lat, saturate, place, states, weights, sigs, counts, pairs=2**18):
    """Join every state with every arrow signature, a chunk of states at a time.

    States are int-coded with one lattice index per component (place values
    `place`); component 0 is the column span, the rest saturated x-spans."""
    comps = states[:, None] // place % len(lat.subs)
    step = max(1, pairs // len(sigs))
    parts = []
    for lo in range(0, len(states), step):
        left = np.repeat(comps[lo:lo + step], len(sigs), axis=0)
        right = np.tile(sigs, (len(left) // len(sigs), 1))
        code = lat.join(left[:, 0], right[:, 0])
        for k in range(1, len(place)):
            code = code + saturate[lat.join(left[:, k], right[:, k])] * place[k]
        parts.append(_merge(code, np.outer(weights[lo:lo + step], counts).ravel()))
    return _merge(np.concatenate([c for c, _ in parts]), np.concatenate([w for _, w in parts]))


def _count_stable_kronecker(quiver: Quiver, d, q) -> int:
    """Stable count for d = (2, 2r+1) on the n-arrow two-vertex quiver.

    A representation (A_1, ..., A_n) is stable iff the column spans of the
    A_a fill the sink and, for each of the q+1 projective points x of
    GF(q)^2, the images A_a x span at least r+1 dimensions.  Both are joins
    of per-arrow subspaces, so each arrow gets a signature: the lattice index
    of its column span and of span(A x) for every x, with x-spans of
    dimension >= r+1 saturated to the whole space.  The n arrows are folded
    by componentwise join over the histogram of signatures; the count is the
    weight of the states that are the whole space in every component.
    """
    m = d[1]
    r = (m - 1) // 2
    n = len(quiver.arrows)
    if r >= n:  # 2r+1 > 2n and r+1 > n: too few columns, too few images of x
        return 0
    if q ** (2 * m * n) >= 2**63:
        raise UnsupportedError("the Kronecker count needs fewer than 2^63 representations")
    lat = _span_lattice(m, q)
    F = lat.F
    if len(lat.subs) ** (q + 2) >= 2**63:
        raise UnsupportedError("Kronecker count states need fewer than 2^63 codes")
    saturate = np.where(lat.dims > r, lat.whole, np.arange(len(lat.subs)))
    points = [(1, t) for t in range(q)] + [(0, 1)]  # projective points of GF(q)^2
    # axis 0 is column 1 and axis 1 column 0: A has code col0 + q^m * col1
    col0 = np.broadcast_to(lat.line_of[None, :], (q**m, q**m)).ravel()
    col1 = np.broadcast_to(lat.line_of[:, None], (q**m, q**m)).ravel()
    signature = [lat.join(col0, col1)]
    for x0, x1 in points:
        image = F.add[F.mul[x0, lat.coords][None, :, :], F.mul[x1, lat.coords][:, None, :]]
        signature.append(saturate[lat.line_of[encode_rows(image, q)]].ravel())
    signature = np.stack(signature, axis=1)
    sigs, counts = np.unique(signature, axis=0, return_counts=True)
    counts = counts.astype(np.int64)
    # Stability is invariant under GL_m acting on all arrows at once, and the
    # orbits of one arrow are its kernels: the first arrow is 0, e1 (x) phi for
    # each projective phi, or (e1 e2), weighted by the orbit sizes.
    first = [0] + [p0 + q**m * p1 for p0, p1 in points]
    weights = [1] + [q**m - 1] * (q + 1)
    if m > 1:
        first.append(1 + q ** (m + 1))
        weights.append((q**m - 1) * (q**m - q))
    place = len(lat.subs) ** np.arange(q + 2, dtype=np.int64)
    states = signature[first] @ place
    weights = np.array(weights, dtype=np.int64)
    for _ in range(n - 1):
        states, weights = _fold_arrow(lat, saturate, place, states, weights, sigs, counts)
    return int(weights[states == lat.whole * place.sum()].sum())


def brute_force_stable_count(quiver: Quiver, d, theta, q: int,
                             budget: int = 2**24) -> int:
    """|M^theta(Q, d)(F_q)|: stable points of R(Q, d)(F_q) divided by |PG_d(F_q)|.

    The Kronecker kernel counts the two-vertex (2, 2r+1) shape, the generic
    kernel every other.  The representation space must not exceed `budget`
    points, whether or not the kernel enumerates it.
    """
    d = check_vector(quiver, d, "d", nonnegative=True)
    theta = check_vector(quiver, theta, "theta")
    if q < 2 or q > 5:
        raise UnsupportedError("the oracle is restricted to prime powers q <= 5")
    small_field(q)  # validates q is a prime power
    if not is_coprime(quiver, d, theta):
        raise UnsupportedError("counting requires a theta-coprime dimension vector")
    size = 1
    for r in _rep_radices(quiver, d, q):
        size *= r
    if size > budget:
        raise BudgetExceededError(
            f"representation space has {size} points, budget is {budget}"
        )
    if _is_kronecker_shape(quiver, d, theta):
        stable = _count_stable_kronecker(quiver, d, q)
    else:
        stable = _count_stable_generic(quiver, d, theta, q)
    order = pg_order(d, q)
    if stable % order != 0:
        raise InconsistencyError(
            f"stable point count {stable} not divisible by |PG_d| = {order}"
        )
    return stable // order
