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

from .core import Arrow, Quiver, check_vector
from .errors import ValidationError

Character = tuple[int, ...]


def _as_char(chi, rank: int) -> Character:
    if isinstance(chi, int):
        chi = (chi,)
    t = tuple(int(x) for x in chi)
    if len(t) != rank:
        raise ValidationError(f"character {t} has length {len(t)}, expected rank {rank}")
    return t


def char_add(a: Character, b: Character) -> Character:
    return tuple(map(operator.add, a, b))


def char_sub(a: Character, b: Character) -> Character:
    return tuple(map(operator.sub, a, b))


@dataclass(frozen=True)
class WeightAssignment:
    """Rank-n torus weights: one integer n-tuple per arrow."""

    rank: int
    weights: dict = field(hash=False)

    def __post_init__(self):
        if self.rank < 1:
            raise ValidationError("torus rank must be positive")
        fixed = {}
        for name, w in self.weights.items():
            fixed[name] = _as_char(w, self.rank)
        object.__setattr__(self, "weights", fixed)

    def of(self, arrow: Arrow | str) -> Character:
        name = arrow.name if isinstance(arrow, Arrow) else arrow
        try:
            return self.weights[name]
        except KeyError:
            raise ValidationError(f"no weight assigned to arrow {name!r}") from None

    def zero(self) -> Character:
        return (0,) * self.rank

    def to_dict(self) -> dict:
        return {"rank": self.rank, "weights": {k: list(v) for k, v in self.weights.items()}}

    @classmethod
    def from_dict(cls, doc: dict) -> "WeightAssignment":
        try:
            return cls(int(doc["rank"]), dict(doc["weights"]))
        except (KeyError, TypeError, ValueError) as exc:
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

    B = 5 + 4 * (max arrow multiplicity) separates every integer combination
    of weights with coefficients in [-4, 4], which covers all character
    differences produced by the weight-space formulas on these quivers.
    """
    base = 5 + 4 * quiver.max_multiplicity()
    n = len(quiver.arrows)
    return WeightAssignment(1, {a.name: (base ** (n - k - 1),) for k, a in enumerate(quiver.arrows)})


def covering_target(quiver: Quiver, w: WeightAssignment, arrow: Arrow | str, chi) -> tuple[str, Character]:
    """Target of the covering arrow (a, chi), namely (t(a), chi + w_a)."""
    a = quiver.arrow(arrow) if isinstance(arrow, str) else arrow
    chi = _as_char(chi, w.rank)
    return (a.target, char_add(chi, w.of(a)))


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
    def from_dict(cls, rank: int, support: dict) -> "CoveringDimVector":
        return cls(rank, tuple(support.items()))

    def support(self) -> dict:
        return {key: m for key, m in self.entries}

    def support_vertices(self) -> list[tuple[str, Character]]:
        return [key for key, _ in self.entries]

    def get(self, v: str, chi) -> int:
        chi = _as_char(chi, self.rank)
        for (u, xi), m in self.entries:
            if u == v and xi == chi:
                return m
        return 0

    def total(self) -> int:
        return sum(m for _, m in self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def characters(self) -> list[Character]:
        return sorted({chi for (_, chi), _ in self.entries})

    def to_jsonable(self) -> list[dict]:
        return [{"vertex": v, "char": list(chi), "dim": m} for (v, chi), m in self.entries]


def shift(beta: CoveringDimVector, chi) -> CoveringDimVector:
    """s_chi(beta), whose value at (i, xi) is beta at (i, chi + xi)."""
    chi = _as_char(chi, beta.rank)
    return CoveringDimVector(
        beta.rank,
        tuple((((v, char_sub(xi, chi)), m)) for (v, xi), m in beta.entries),
    )


def project(beta: CoveringDimVector, quiver: Quiver) -> tuple[int, ...]:
    """Push beta down to Q: d_i = sum over characters of beta_{i, chi}."""
    d = [0] * len(quiver.vertices)
    for (v, _), m in beta.entries:
        d[quiver.vertex_index(v)] += m
    return tuple(d)


def canonicalize(beta: CoveringDimVector) -> CoveringDimVector:
    """The unique shift whose lexicographically smallest support character is 0."""
    if beta.is_zero():
        raise ValidationError("cannot canonicalize the zero covering vector")
    chi_min = min(chi for (_, chi), _ in beta.entries)
    return shift(beta, chi_min)


def _adjacency(quiver: Quiver, w: WeightAssignment) -> dict:
    """Per base vertex, (neighbour vertex, character offset) for every incident arrow.

    The neighbours of (v, chi) in the underlying graph of Q(w) are the
    (u, chi + offset) over adj[v].
    """
    adj = {v: [] for v in quiver.vertices}
    for a in quiver.arrows:
        wa = w.of(a)
        adj[a.source].append((a.target, wa))
        adj[a.target].append((a.source, tuple(-x for x in wa)))
    return adj


def is_connected(quiver: Quiver, w: WeightAssignment, beta: CoveringDimVector) -> bool:
    supp = set(beta.support_vertices())
    if not supp:
        return True
    adj = _adjacency(quiver, w)
    todo = [next(iter(supp))]
    seen = {todo[0]}
    while todo:
        v, chi = todo.pop()
        for u, off in adj[v]:
            nb = (u, char_add(chi, off))
            if nb in supp and nb not in seen:
                seen.add(nb)
                todo.append(nb)
    return seen == supp


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
    supp = beta.support()
    keys = sorted(supp, key=lambda cv: (quiver.vertex_index(cv[0]), cv[1]))
    names = {cv: _cv_name(*cv) for cv in keys}
    arrows = []
    cov_arrows = []
    for v, chi in keys:
        for a in quiver.arrows_from(v):
            tgt = (a.target, char_add(chi, w.of(a)))
            if tgt in supp:
                arrows.append(Arrow(_cv_name(a.name, chi), names[(v, chi)], names[tgt]))
                cov_arrows.append((a.name, chi))
    sub = Quiver(tuple(names[cv] for cv in keys), tuple(arrows))
    dims = tuple(supp[cv] for cv in keys)
    return SupportQuiver(sub, dims, tuple(keys), tuple(cov_arrows), quiver)


def euler_form_covering(quiver: Quiver, w: WeightAssignment,
                        beta: CoveringDimVector, gamma: CoveringDimVector) -> int:
    """<beta, gamma> for the covering quiver, via the finite supports."""
    gsup = gamma.support()
    total = 0
    for (v, chi), m in beta.entries:
        total += m * gsup.get((v, chi), 0)
        for a in quiver.arrows_from(v):
            total -= m * gsup.get((a.target, char_add(chi, w.of(a))), 0)
    return total


def _compositions(total: int, parts: int):
    """All tuples of `parts` positive integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for cuts in itertools.combinations(range(1, total), parts - 1):
        prev = 0
        out = []
        for c in list(cuts) + [total]:
            out.append(c - prev)
            prev = c
        yield tuple(out)


def _connected_supports(quiver: Quiver, w: WeightAssignment, d: tuple[int, ...], seed):
    """Connected covering-vertex sets containing `seed` and no character below
    it, each yielded once.

    Per base vertex v at most d_v covering vertices are used.  The extension
    recursion (Wernicke's ESU) hands each branch its candidate frontier
    incrementally: the unexplored later siblings plus the new neighbours of
    the vertex just added, where `seen` holds every vertex already in the set,
    banned, or on the frontier.  So each connected set appears exactly once.
    """
    adj = _adjacency(quiver, w)
    cap = dict(zip(quiver.vertices, d))
    results = []

    def fresh(cv, seen):
        v, chi = cv
        nbs = {(u, char_add(chi, off)) for u, off in adj[v]}
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
                         use_existence_filter: bool = True) -> list[CoveringDimVector]:
    """All shift classes of covering dimension vectors compatible with d.

    Each emitted vector projects to d and has connected support (a
    disconnected support carries no stable lift since stable representations
    are indecomposable).  It is already canonical: supports are grown from
    character 0 upwards, so their least character is 0.  With the filter on,
    a fill with 1 - <beta, beta> < 0 is dropped on its integer tuple before a
    vector is built, and a class is discarded when the stable moduli on its
    support quiver is empty; `has_stable` is asked once per isomorphism class
    of labelled support quiver (`shape_key`).
    """
    d = check_vector(quiver, d, "d", nonnegative=True)
    theta = check_vector(quiver, theta, "theta")
    if sum(d) == 0:
        raise ValidationError("d must be nonzero")
    from . import existence

    vidx = quiver.vertex_index
    order = [v for v, dv in zip(quiver.vertices, d) if dv]
    supports = {sup for v in order for sup in _connected_supports(quiver, w, d, (v, w.zero()))
                if len({u for u, _ in sup}) == len(order)}
    arrows_out = {v: [(a.target, w.of(a)) for a in quiver.arrows_from(v)] for v in order}
    out = []
    verdicts: dict = {}
    for sup in supports:
        cvs = sorted(sup, key=lambda cv: (vidx(cv[0]), cv[1]))  # the support quiver's order
        pos = {cv: k for k, cv in enumerate(cvs)}
        links = [(k, pos[t]) for k, (v, chi) in enumerate(cvs) for u, wa in arrows_out[v]
                 for t in [(u, char_add(chi, wa))] if t in pos]
        theta_hat = tuple(theta[vidx(v)] for v, _ in cvs)
        parts = [_compositions(d[vidx(v)], sum(u == v for u, _ in cvs)) for v in order]
        for fill in itertools.product(*parts):
            dims = sum(fill, ())
            if use_existence_filter and \
                    sum(m * m for m in dims) - sum(dims[i] * dims[j] for i, j in links) > 1:
                continue  # 1 - <beta, beta> < 0
            beta = CoveringDimVector(w.rank, tuple(zip(cvs, dims)))
            if use_existence_filter:
                key = shape_key(dims, theta_hat, links)
                if key not in verdicts:
                    sq = support_quiver(quiver, w, beta)
                    verdicts[key] = existence.has_stable(sq.quiver, sq.dims, theta_hat)
                if not verdicts[key]:
                    continue
            out.append(beta)
    return sorted(out, key=lambda b: b.entries)
