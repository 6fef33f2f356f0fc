"""The covering quiver attached to a torus action, and its dimension vectors.

For weights w assigning a character in Z^n to every arrow, the covering
quiver has vertices Q_0 x Z^n and arrows Q_1 x Z^n with
(a, chi): (s(a), chi) -> (t(a), chi + w_a).  Finitely supported dimension
vectors of the covering are the combinatorial shadows of torus-fixed
points; they are considered up to simultaneous translation (shift) of all
characters.
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass, field

from . import hn
from .core import Arrow, Quiver, check_vector
from .errors import UnsupportedError, ValidationError

Character = tuple[int, ...]


def _as_char(chi, rank: int) -> Character:
    if isinstance(chi, int):
        chi = (chi,)
    t = tuple(int(x) for x in chi)
    if len(t) != rank:
        raise ValidationError(f"character {t} has length {len(t)}, expected rank {rank}")
    return t


def char_sub(a: Character, b: Character) -> Character:
    return tuple(map(operator.sub, a, b))


class CharCodec:
    """Integer codes of rank-n characters: chi -> sum_i chi_i B^(n-1-i), B = 6 bound + 1.

    `encode` takes characters with every |chi_i| <= bound.  On sums of up to
    three of them the map is injective and additive, and codes order as the
    tuples order lexicographically.  A code is the pairing with the
    one-parameter subgroup (B^(n-1), ..., B, 1); for rank 1 it is the coordinate.
    """

    def __init__(self, rank: int, bound: int):
        self.rank, self.bound = rank, bound

    def encode(self, chi, origin=None) -> int:
        """The code of chi - origin (of chi when origin is None)."""
        code, b = 0, self.bound
        for x in chi if origin is None else map(operator.sub, chi, origin):
            if not -b <= x <= b:
                raise UnsupportedError(f"character {tuple(chi)} is more than {b} from {origin or 0}")
            code = code * (6 * b + 1) + x
        return code

    def decode(self, code: int) -> Character:
        r, top, low = 3 * self.bound, code, ()
        for _ in range(1, self.rank):  # peel the low digits; the top one is what is left
            top, digit = divmod(top + r, 2 * r + 1)
            low = (digit - r, *low)
        if not -r <= top <= r:
            raise UnsupportedError(f"code {code} is outside the code range {r}")
        return (top, *low)


@dataclass(frozen=True)
class WeightAssignment:
    """Rank-n torus weights: one integer n-tuple per arrow."""

    rank: int
    weights: dict = field(hash=False)
    _top: int = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        if self.rank < 1:
            raise ValidationError("torus rank must be positive")
        fixed = {}
        for name, w in self.weights.items():
            fixed[name] = _as_char(w, self.rank)
        object.__setattr__(self, "weights", fixed)
        top = max((abs(x) for w in fixed.values() for x in w), default=0)
        object.__setattr__(self, "_top", max(top, 1))

    def of(self, arrow: Arrow | str) -> Character:
        name = arrow.name if isinstance(arrow, Arrow) else arrow
        try:
            return self.weights[name]
        except KeyError:
            raise ValidationError(f"no weight assigned to arrow {name!r}") from None

    def codec(self, span: int) -> CharCodec:
        """Codes for characters within `span` of an origin and for the weights:
        bound span + M, where M = `_top` is the largest weight coordinate (at least 1)."""
        return CharCodec(self.rank, span + self._top)

    def to_dict(self) -> dict:
        return {"rank": self.rank, "weights": {k: list(v) for k, v in self.weights.items()}}

    @classmethod
    def from_dict(cls, doc: dict) -> "WeightAssignment":
        try:
            rank, weights = doc["rank"], doc["weights"]
            if type(rank) is not int or type(weights) is not dict:
                raise TypeError("rank must be an integer and weights an object")
            if not all(type(w) is int or type(w) is list and all(type(x) is int for x in w)
                       for w in weights.values()):
                raise TypeError("each weight must be a list of integers")
            return cls(rank, weights)
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed weight document: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "WeightAssignment":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid JSON: {exc}") from exc
        return cls.from_dict(doc)


def generic_rank1_weights(quiver: Quiver) -> WeightAssignment:
    """Rank-1 weights w_{a_k} = B^(N-k) realizing w_1 >> ... >> w_N > 0.

    B = 5 + 4 * (max arrow multiplicity) separates integer combinations of
    weights with coefficients in [-4, 4], which is never checked against the
    enumerated supports.  A base that fails to separate still gives a correct
    answer for its C* action (Bialynicki-Birula holds for any C* action), but
    a larger fixed locus than the full torus's.
    """
    base = 5 + 4 * quiver.max_multiplicity()
    n = len(quiver.arrows)
    return WeightAssignment(1, {a.name: (base ** (n - k - 1),) for k, a in enumerate(quiver.arrows)})


@dataclass(frozen=True)
class CoveringDimVector:
    """Finitely supported dimension vector of the covering quiver.

    Entries are stored as a sorted tuple of ((vertex, character), count)
    with all counts positive, so equal vectors compare and hash equal.
    """

    rank: int
    entries: tuple

    def __post_init__(self):
        fixed = []
        for (v, chi), m in self.entries:
            m = int(m)
            if m < 0:
                raise ValidationError("negative covering multiplicity")
            if m == 0:
                continue
            fixed.append(((v, _as_char(chi, self.rank)), m))
        fixed.sort(key=lambda item: (item[0][1], item[0][0]))
        object.__setattr__(self, "entries", tuple(fixed))

    @classmethod
    def trusted(cls, rank: int, entries: tuple) -> "CoveringDimVector":
        """Wrap entries already in stored form, skipping the constructor's checks."""
        beta = object.__new__(cls)
        object.__setattr__(beta, "rank", rank)
        object.__setattr__(beta, "entries", entries)
        return beta

    @classmethod
    def from_dict(cls, rank: int, support: dict) -> "CoveringDimVector":
        return cls(rank, tuple(support.items()))

    def get(self, v: str, chi) -> int:
        chi = _as_char(chi, self.rank)
        for (u, xi), m in self.entries:
            if u == v and xi == chi:
                return m
        return 0

    def is_zero(self) -> bool:
        return not self.entries


def shift(beta: CoveringDimVector, chi) -> CoveringDimVector:
    """s_chi(beta), whose value at (i, xi) is beta at (i, chi + xi)."""
    chi = _as_char(chi, beta.rank)
    return CoveringDimVector.trusted(  # a translation keeps the entries' order
        beta.rank, tuple(((v, char_sub(xi, chi)), m) for (v, xi), m in beta.entries))


def canonicalize(beta: CoveringDimVector) -> CoveringDimVector:
    """The unique shift whose lexicographically smallest support character is 0."""
    if beta.is_zero():
        raise ValidationError("cannot canonicalize the zero covering vector")
    return shift(beta, beta.entries[0][0][1])


def _entry_codes(w: WeightAssignment, *classes: CoveringDimVector):
    """The codec for some classes and their entries as ((vertex, code), count).

    Characters are coded relative to the least one of the first nonzero class,
    under `w.codec` of the largest coordinate distance of an entry from it.  So
    an entry plus or minus a weight, or a difference of two entries plus a
    weight, stays within the code range, whatever the classes' width.
    """
    origin = next((beta.entries[0][0][1] for beta in classes if beta.entries), None)
    codec = w.codec(max((abs(x - o) for beta in classes for (_, xi), _ in beta.entries
                         for x, o in zip(xi, origin)), default=0))
    return codec, [[((v, codec.encode(xi, origin)), m) for (v, xi), m in beta.entries]
                   for beta in classes]


def _adjacency(quiver: Quiver, w: WeightAssignment, codec: CharCodec) -> dict:
    """Per base vertex, (neighbour vertex, code offset) for every incident arrow.

    The neighbours of (v, c) in the underlying graph of Q(w) are the
    (u, c + offset) over adj[v].
    """
    adj = {v: [] for v in quiver.vertices}
    for a in quiver.arrows:
        wa = codec.encode(w.of(a))
        adj[a.source].append((a.target, wa))
        adj[a.target].append((a.source, -wa))
    return adj


@dataclass(frozen=True)
class SupportQuiver:
    """Finite full subquiver of Q(w) on the support of some beta."""

    quiver: Quiver
    dims: tuple[int, ...]
    covering_vertices: tuple  # (vertex, character) per support quiver vertex
    covering_arrows: tuple    # (arrow name of Q, character) per support quiver arrow
    base: Quiver

    def lift_stability(self, theta) -> tuple[int, ...]:
        """theta-hat: the base weight of the underlying Q-vertex, per vertex."""
        theta = check_vector(self.base, theta, "theta")
        return tuple(theta[self.base.vertex_index(v)] for v, _ in self.covering_vertices)


def _cv_name(v: str, chi: Character) -> str:
    return f"{v}@{','.join(str(c) for c in chi)}"


def support_quiver(quiver: Quiver, w: WeightAssignment, beta: CoveringDimVector) -> SupportQuiver:
    """The finite subquiver of Q(w) carrying beta, with beta as dimension vector."""
    if beta.is_zero():
        raise ValidationError("support quiver of the zero vector")
    codec, (rows,) = _entry_codes(w, beta)
    supp = dict(rows)
    char = {cv: xi for (cv, _), ((_, xi), _) in zip(rows, beta.entries)}
    keys = sorted(supp, key=lambda cv: (quiver.vertex_index(cv[0]), cv[1]))
    names = {cv: _cv_name(cv[0], char[cv]) for cv in keys}
    arrows = []
    cov_arrows = []
    for v, c in keys:
        for a in quiver.arrows_from(v):
            tgt = (a.target, c + codec.encode(w.of(a)))
            if tgt in supp:
                arrows.append(Arrow(_cv_name(a.name, char[(v, c)]), names[(v, c)], names[tgt]))
                cov_arrows.append((a.name, char[(v, c)]))
    sub = Quiver(tuple(names[cv] for cv in keys), tuple(arrows))
    dims = tuple(supp[cv] for cv in keys)
    return SupportQuiver(sub, dims, tuple((cv[0], char[cv]) for cv in keys), tuple(cov_arrows),
                         quiver)


def euler_form_covering(quiver: Quiver, w: WeightAssignment,
                        beta: CoveringDimVector, gamma: CoveringDimVector) -> int:
    """<beta, gamma> for the covering quiver, via the finite supports."""
    codec, (rows, gamma_rows) = _entry_codes(w, beta, gamma)
    gsup = dict(gamma_rows)
    total = 0
    for (v, c), m in rows:
        total += m * gsup.get((v, c), 0)
        for a in quiver.arrows_from(v):
            total -= m * gsup.get((a.target, c + codec.encode(w.of(a))), 0)
    return total


def _compositions(total: int, parts: int):
    """All tuples of `parts` >= 1 positive integers summing to `total`."""
    for cuts in itertools.combinations(range(1, total), parts - 1):
        yield tuple(map(operator.sub, (*cuts, total), (0, *cuts)))


def _connected_supports(adj: dict, cap: dict, seed):
    """Connected covering-vertex sets containing `seed` and no character below
    it, each yielded once; `adj` is `_adjacency`, so characters are codes.

    Per base vertex v at most cap[v] covering vertices are used.  The extension
    recursion (Wernicke's ESU) hands each branch its candidate frontier
    incrementally: the unexplored later siblings plus the new neighbours of
    the vertex just added, where `seen` holds every vertex already in the set,
    banned, or on the frontier.  So each connected set appears exactly once.
    """
    results = []

    def fresh(cv, seen):
        v, c = cv
        nbs = {(u, c + off) for u, off in adj[v]}
        return {nb for nb in nbs if nb not in seen and nb[1] >= seed[1]}

    def rec(current: frozenset, frontier: list, seen: set, per_vertex: dict):
        results.append(current)
        for k, cv in enumerate(frontier):
            if per_vertex.get(cv[0], 0) >= cap[cv[0]]:
                continue
            new = fresh(cv, seen)
            pv = dict(per_vertex)
            pv[cv[0]] = pv.get(cv[0], 0) + 1
            rec(current | {cv}, frontier[k + 1:] + list(new), seen | new, pv)

    first = fresh(seed, {seed})
    rec(frozenset([seed]), list(first), first | {seed}, {seed[0]: 1})
    return results


def shape_key(dims, theta, arrows) -> tuple:
    """Isomorphism invariant of a connected quiver with labelled vertices.

    Vertex k carries the label (dims[k], theta[k]); `arrows` lists
    (source, target) index pairs.  A tree keys by its Aho-Hopcroft-Ullman
    code: labels and arrow directions, rooted at the centre (the smaller code
    over the two centres when there are two), so two trees share a key
    exactly when they are isomorphic.  Any other quiver keys by its exact
    labelled arrow list.
    """
    n = len(dims)
    if len(arrows) != n - 1:
        return tuple(dims), tuple(theta), tuple(sorted(arrows))
    nbrs = [[] for _ in range(n)]
    for s, t in arrows:
        nbrs[s].append((t, 1))
        nbrs[t].append((s, -1))
    degree = [len(x) for x in nbrs]
    centres, left = [k for k in range(n) if degree[k] <= 1], n
    while left > 2 and centres:  # peel the leaves layer by layer
        left -= len(centres)
        peeled = []
        for k in centres:
            for u, _ in nbrs[k]:
                degree[u] -= 1
                if degree[u] == 1:
                    peeled.append(u)
        centres = peeled

    def code(k, parent):
        return dims[k], theta[k], tuple(sorted((o, code(u, k)) for u, o in nbrs[k] if u != parent))

    return min(code(c, -1) for c in centres)


def enumerate_compatible(quiver: Quiver, w: WeightAssignment, d, theta,
                         rejected: list | None = None) -> list[CoveringDimVector]:
    """All shift classes of covering dimension vectors compatible with d whose
    support quiver carries a stable representation.  d must be theta-coprime:
    the existence test refuses the support quivers of any other d.

    Each class projects to d and has connected support (a disconnected
    support carries no stable lift since stable representations are
    indecomposable).  It is already canonical: supports are grown from
    character 0 upwards, so their least character is 0.  A fill with
    1 - <beta, beta> < 0 is dropped on its integer tuple before a vector is
    built, and a class is dropped when the stable moduli on its support quiver
    is empty; `has_stable` is asked once per isomorphism class of labelled
    support quiver (`shape_key`).  When `rejected` is a list, the dropped
    classes are appended to it, sorted as the result is.  Which fills survive
    depends only on a support's shape, its base vertices in support-quiver
    order and the arrows between their positions, so they are found once per
    shape and turned into vectors for each support of that shape.
    """
    d = check_vector(quiver, d, "d", nonnegative=True)
    theta = check_vector(quiver, theta, "theta")
    if sum(d) == 0:
        raise ValidationError("d must be nonzero")

    vidx = quiver.vertex_index
    codec = w.codec((sum(d) - 1) * w._top)  # the span of a connected support
    adj = _adjacency(quiver, w, codec)
    order = [v for v, dv in zip(quiver.vertices, d) if dv]
    cap = dict(zip(quiver.vertices, d))
    supports = {sup for v in order for sup in _connected_supports(adj, cap, (v, 0))
                if len({u for u, _ in sup}) == len(order)}
    arrows_out = {v: [(a.target, codec.encode(w.of(a))) for a in quiver.arrows_from(v)]
                  for v in order}
    out, dropped = [], []
    verdicts: dict = {}  # shape_key -> has_stable
    fills: dict = {}     # support shape -> (its surviving fills, its dropped fills)
    for sup in supports:
        cvs = sorted(sup, key=lambda cv: (vidx(cv[0]), cv[1]))  # the support quiver's order
        pos = {cv: k for k, cv in enumerate(cvs)}
        links = tuple((k, pos[t]) for k, (v, c) in enumerate(cvs) for u, wa in arrows_out[v]
                      for t in [(u, c + wa)] if t in pos)
        bases = tuple(v for v, _ in cvs)
        split = fills.get((bases, links))
        if split is None:
            split = fills[(bases, links)] = ([], [])
            theta_hat = tuple(theta[vidx(v)] for v in bases)
            parts = [_compositions(d[vidx(v)], bases.count(v)) for v in order]
            for fill in itertools.product(*parts):
                dims = sum(fill, ())
                # 1 - <beta, beta> >= 0, then a stable point on the support quiver
                ok = sum(m * m for m in dims) - sum(dims[i] * dims[j] for i, j in links) <= 1
                if ok:
                    key = shape_key(dims, theta_hat, links)
                    if key not in verdicts:  # the support quiver, on vertices 0, 1, ...
                        sub = Quiver.from_arrows(map(str, range(len(dims))), (
                            (str(k), str(i), str(j)) for k, (i, j) in enumerate(links)))
                        verdicts[key] = hn.has_stable(sub, dims, theta_hat)
                    ok = verdicts[key]
                split[not ok].append(dims)
        kept, lost = split if rejected is not None else (split[0], ())
        if kept or lost:
            keys = [(v, codec.decode(c)) for v, c in cvs]
            by_char = sorted(range(len(cvs)), key=lambda k: (cvs[k][1], cvs[k][0]))
            for sink, dims_list in ((out, kept), (dropped, lost)):
                sink.extend(CoveringDimVector.trusted(
                    w.rank, tuple((keys[k], dims[k]) for k in by_char)) for dims in dims_list)
    if rejected is not None:
        rejected.extend(sorted(dropped, key=lambda b: b.entries))
    return sorted(out, key=lambda b: b.entries)
