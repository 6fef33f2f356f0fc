"""The covering quiver attached to a torus action, and its dimension vectors.

For weights w assigning a character in Z^n to every arrow, the covering
quiver has vertices Q_0 x Z^n and arrows Q_1 x Z^n with
(a, chi): (s(a), chi) -> (t(a), chi + w_a).  Finitely supported dimension
vectors of the covering are the combinatorial shadows of torus-fixed
points; they are considered up to simultaneous translation (shift) of all
characters.

A rank-n action enters through `reduce_to_rank_one` (`WeightAssignment` is
only that input), which replaces each weight by its pairing with the
one-parameter subgroup of `CharCodec`.  Every kernel reads the plain
{arrow name: int} map it returns, as `generic_rank1_weights` does, so below
the input a character is one integer; a covering vector stores it as (c,).
"""

from __future__ import annotations

import itertools
import operator

from . import hn
from .core import Arrow, Quiver, Record, check_vector
from .errors import UnsupportedError, ValidationError

def _as_char(chi, rank: int) -> tuple:
    if isinstance(chi, int):
        chi = (chi,)
    t = tuple(int(x) for x in chi)
    if len(t) != rank:
        raise ValidationError(f"character {t} has length {len(t)}, expected rank {rank}")
    return t


class CharCodec:
    """Integer codes of rank-n characters: chi -> sum_i chi_i B^(n-1-i), B = 6 bound + 1.

    `encode` takes characters with every |chi_i| <= bound.  On sums of up to
    three of them the map is injective and additive, and codes order as the
    tuples order lexicographically.  A code is the pairing with the
    one-parameter subgroup (B^(n-1), ..., B, 1); for rank 1 it is the coordinate.
    """

    def __init__(self, rank: int, bound: int):
        self.rank, self.bound = rank, bound

    def encode(self, chi) -> int:
        code, b = 0, self.bound
        for x in chi:
            if not -b <= x <= b:
                raise UnsupportedError(f"character {tuple(chi)} has a coordinate beyond {b}")
            code = code * (6 * b + 1) + x
        return code

    def decode(self, code: int) -> tuple:
        r, top, low = 3 * self.bound, code, ()
        for _ in range(1, self.rank):  # peel the low digits; the top one is what is left
            top, digit = divmod(top + r, 2 * r + 1)
            low = (digit - r, *low)
        if not -r <= top <= r:
            raise UnsupportedError(f"code {code} is outside the code range {r}")
        return (top, *low)


class WeightAssignment(Record):
    """Rank-n torus weights: one integer n-tuple per arrow."""

    __slots__ = _fields = ("rank", "weights")

    def __init__(self, rank: int, weights: dict):
        if rank < 1:
            raise ValidationError("torus rank must be positive")
        self.rank = rank
        self.weights = {name: _as_char(w, rank) for name, w in weights.items()}

    def __hash__(self):  # the weights are compared, not hashed
        return hash((self.rank,))

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


def reduce_to_rank_one(w: WeightAssignment, d) -> tuple[dict, CharCodec]:
    """The rank-1 weights {a: code(w_a)} under `CharCodec(rank, |d| max|w_a|)`, with that codec.

    A connected support of total |d| spans at most (|d| - 1) max|w_a| in every
    coordinate, so its characters, and each weight-space character
    xi + w_a - eta, lie within the bound.  There the codes add, stay distinct
    and order as the tuples do: the rank-1 covering quiver carries the same
    classes, with the same tangent weights, as the rank-n one, each
    character replaced by its code.  The codec decodes them for reports.
    """
    top = max((abs(x) for chi in w.weights.values() for x in chi), default=0)
    codec = CharCodec(w.rank, max(sum(map(abs, d)), 1) * max(top, 1))
    return {a: codec.encode(chi) for a, chi in w.weights.items()}, codec


def generic_rank1_weights(quiver: Quiver) -> dict:
    """Rank-1 weights {a_k: B^(N-k)} realizing w_1 >> ... >> w_N > 0.

    B = 5 + 4 * (max arrow multiplicity) separates integer combinations of
    weights with coefficients in [-4, 4]; only the tests check it against the
    full torus's classes, on nine instances.  A base that fails to separate
    still gives a correct answer for its C* action (Bialynicki-Birula holds
    for any C* action), but a larger fixed locus than the full torus's.
    """
    base = 5 + 4 * quiver.max_multiplicity()
    n = len(quiver.arrows)
    return {a.name: base ** (n - k - 1) for k, a in enumerate(quiver.arrows)}


class CoveringDimVector(Record):
    """Finitely supported dimension vector of the covering quiver.

    Entries are stored as a sorted tuple of ((vertex, (c,)), count), c an int
    given bare or as that 1-tuple, with all counts positive, so equal vectors
    compare and hash equal.
    """

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: tuple):
        fixed = []
        for (v, chi), m in entries:
            m = int(m)
            if m < 0:
                raise ValidationError("negative covering multiplicity")
            if m == 0:
                continue
            fixed.append(((v, _as_char(chi, 1)), m))
        fixed.sort(key=lambda item: (item[0][1], item[0][0]))
        self.entries = tuple(fixed)

    @classmethod
    def trusted(cls, entries: tuple) -> "CoveringDimVector":
        """Wrap entries already in stored form, skipping the constructor's checks."""
        beta = object.__new__(cls)
        beta.entries = entries
        return beta

    @classmethod
    def from_dict(cls, support: dict) -> "CoveringDimVector":
        return cls(tuple(support.items()))

    def is_zero(self) -> bool:
        return not self.entries


def shift(beta: CoveringDimVector, chi: int) -> CoveringDimVector:
    """s_chi(beta), whose value at (i, xi) is beta at (i, chi + xi)."""
    return CoveringDimVector.trusted(  # a translation keeps the entries' order
        tuple(((v, (xi - chi,)), m) for (v, (xi,)), m in beta.entries))


def canonicalize(beta: CoveringDimVector) -> CoveringDimVector:
    """The unique shift whose lexicographically smallest support character is 0."""
    if beta.is_zero():
        raise ValidationError("cannot canonicalize the zero covering vector")
    return shift(beta, beta.entries[0][0][1][0])


class SupportQuiver:
    """Finite full subquiver of Q(w) on the support of some beta, with its
    dimension vector and the (vertex, character) of each of its vertices."""

    __slots__ = ("quiver", "dims", "covering_vertices", "base")

    def __init__(self, quiver: Quiver, dims: tuple[int, ...], covering_vertices: tuple,
                 base: Quiver):
        self.quiver, self.dims, self.base = quiver, dims, base
        self.covering_vertices = covering_vertices

    def lift_stability(self, theta) -> tuple[int, ...]:
        """theta-hat: the base weight of the underlying Q-vertex, per vertex."""
        theta = check_vector(self.base, theta, "theta")
        return tuple(theta[self.base.vertex_index(v)] for v, _ in self.covering_vertices)


def support_quiver(quiver: Quiver, w: dict, beta: CoveringDimVector) -> SupportQuiver:
    """The finite subquiver of Q(w) carrying beta, with beta as dimension vector."""
    if beta.is_zero():
        raise ValidationError("support quiver of the zero vector")
    supp = {(v, c): m for (v, (c,)), m in beta.entries}
    keys = sorted(supp, key=lambda cv: (quiver.vertex_index(cv[0]), cv[1]))
    names = {cv: f"{cv[0]}@{cv[1]}" for cv in keys}
    arrows = []
    for v, c in keys:
        for a in quiver.arrows_from(v):
            tgt = (a.target, c + w[a.name])
            if tgt in supp:
                arrows.append(Arrow(f"{a.name}@{c}", names[(v, c)], names[tgt]))
    sub = Quiver(tuple(names.values()), tuple(arrows))
    return SupportQuiver(sub, tuple(supp[cv] for cv in keys), tuple(keys), quiver)


def euler_form_covering(quiver: Quiver, w: dict,
                        beta: CoveringDimVector, gamma: CoveringDimVector) -> int:
    """<beta, gamma> for the covering quiver, via the finite supports."""
    gsup = {(v, c): m for (v, (c,)), m in gamma.entries}
    total = 0
    for (v, (c,)), m in beta.entries:
        total += m * gsup.get((v, c), 0)
        for a in quiver.arrows_from(v):
            total -= m * gsup.get((a.target, c + w[a.name]), 0)
    return total


def _compositions(total: int, parts: int):
    """All tuples of `parts` >= 1 positive integers summing to `total`."""
    for cuts in itertools.combinations(range(1, total), parts - 1):
        yield tuple(map(operator.sub, (*cuts, total), (0, *cuts)))


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


def enumerate_compatible(quiver: Quiver, w: dict, d, theta,
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
    classes are appended to it, sorted as the result is.

    The supports come from one backtracking walk (Wernicke's ESU), at most
    d_v covering vertices over each base vertex v.  The walk from the seed
    (v, 0) bans (u, 0) for every u before v and every character below 0, and
    hands each branch the unexplored later siblings plus the new neighbours
    of the vertex just added, so each connected set is reached exactly once.
    It carries the set's shape: its members in discovery order, the links
    between their positions (a weight-0 loop links a vertex to itself), and
    how many of them lie over each base vertex.  Which fills survive depends
    only on that shape, so they are found once per shape, and vectors are
    built only for a support whose shape has a fill to report.
    """
    d = check_vector(quiver, d, "d", nonnegative=True)
    theta = check_vector(quiver, theta, "theta")
    if sum(d) == 0:
        raise ValidationError("d must be nonzero")

    vidx = quiver.vertex_index
    order = [v for v, dv in zip(quiver.vertices, d) if dv]
    cap = dict(zip(quiver.vertices, d))
    ins, outs = ({v: [] for v in order} for _ in range(2))  # (other end, character offset)
    for a in quiver.arrows:
        if cap[a.source] and cap[a.target]:
            wa = w[a.name]
            ins[a.target].append((a.source, -wa))
            outs[a.source].append((a.target, wa))
    adj = {v: list(dict.fromkeys(ins[v] + outs[v])) for v in order}
    # the walk's set in discovery order: (character, vertex, position) per member, its
    # base vertices, the position of each member and the links between positions
    placed, bases, pos, links = [], [], {}, []
    chars: dict = {}  # character -> its 1-tuple, one shared tuple per character
    count = dict.fromkeys(order, 0)
    covered = 0  # base vertices with a member over them
    out, dropped = [], []
    verdicts: dict = {}  # shape_key -> has_stable
    fills: dict = {}     # (bases, links) -> (its surviving fills, its dropped fills)

    def shape_fills(vertices, arrows):  # a memo key: base vertices and links by position
        split = ([], [])
        theta_hat = tuple(theta[vidx(v)] for v in vertices)
        # a fill is one composition per base vertex, scattered into that vertex's positions
        slots = [k for v in order for k, u in enumerate(vertices) if u == v]
        scatter = sorted(range(len(slots)), key=slots.__getitem__)
        parts = [_compositions(d[vidx(v)], vertices.count(v)) for v in order]
        for fill in itertools.product(*parts):
            dims = tuple(map(sum(fill, ()).__getitem__, scatter))
            # 1 - <beta, beta> >= 0, then a stable point on the support quiver
            ok = sum(m * m for m in dims) - sum(dims[i] * dims[j] for i, j in arrows) <= 1
            if ok:
                key = shape_key(dims, theta_hat, arrows)
                if key not in verdicts:  # the support quiver, on vertices 0, 1, ...
                    sub = Quiver.from_arrows(map(str, range(len(dims))), (
                        (str(k), str(i), str(j)) for k, (i, j) in enumerate(arrows)))
                    verdicts[key] = hn.has_stable(sub, dims, theta_hat)
                ok = verdicts[key]
            split[not ok].append(dims)
        return split

    def grow(cv, rest, seen):
        nonlocal covered
        v, c = cv
        new = [nb for u, off in adj[v] if c + off >= 0 and (nb := (u, c + off)) not in seen]
        seen.update(new)
        n, mark = len(placed), len(links)
        # arrows in, then out once cv has its position: a weight-0 loop gives one link (n, n)
        links.extend([(pos[s], n) for u, off in ins[v] if (s := (u, c + off)) in pos])
        pos[cv] = n
        links.extend([(n, pos[t]) for u, off in outs[v] if (t := (u, c + off)) in pos])
        placed.append((c, v, n))
        bases.append(v)
        covered += not count[v]
        count[v] += 1
        if covered == len(order):
            key = (tuple(bases), tuple(links))
            split = fills.get(key)
            if split is None:
                split = fills[key] = shape_fills(*key)
            kept, lost = split if rejected is not None else (split[0], ())
            if kept or lost:  # the entries sorted by (character, vertex), as a vector stores them
                ranked = sorted(placed)
                cells = [(u, chars.get(x) or chars.setdefault(x, (x,))) for x, u, _ in ranked]
                by_char = [k for *_, k in ranked]
                for sink, dims_list in ((out, kept), (dropped, lost)):
                    sink.extend(CoveringDimVector.trusted(tuple(
                        zip(cells, map(dims.__getitem__, by_char)))) for dims in dims_list)
        frontier = rest + new
        for k, nb in enumerate(frontier):
            if count[nb[0]] < cap[nb[0]]:
                grow(nb, frontier[k + 1:], seen)
        count[v] -= 1
        covered -= not count[v]
        bases.pop()
        placed.pop()
        del pos[cv], links[mark:]
        seen.difference_update(new)

    for i, v in enumerate(order):
        grow((v, 0), [], {(u, 0) for u in order[:i + 1]})
    if rejected is not None:
        rejected.extend(sorted(dropped, key=lambda b: b.entries))
    return sorted(out, key=lambda b: b.entries)
