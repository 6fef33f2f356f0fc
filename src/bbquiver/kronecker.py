"""Closed forms for the multi-arrow two-vertex quiver with d = (2, 2r+1).

Fixed points of the weight regime w_1 >> ... >> w_{l+1} > 0 come in two
kinds, indexed by arrow labels.  Attractor dimensions are given by counting
index comparisons in eight families; one sweep over them gives both
attractors, since a comparison that goes one way adds to att_+ and one that
goes the other way adds to att_-.  A comparison between two weight SUMS
w_p + w_q vs w_u + w_v is decided lexicographically on the sorted index
pairs (`_pairs`, compared in `_count_row`), because a smaller index
means a strictly dominant weight.  (Where a plain min() comparison of the
index pairs would tie, the sorted-pair rule still decides the sum correctly;
the two rules differ exactly when both sides share their smallest index.
Equal pairs are equal sums and count for neither attractor.)
"""

from __future__ import annotations

import itertools
import math

from .betti import PoincarePolynomial, kirwan_subspace_poincare
from .core import Quiver, Record
from .covering import CoveringDimVector, canonicalize
from .errors import InconsistencyError, UnsupportedError, ValidationError


def kronecker_quiver(num_arrows: int) -> Quiver:
    """Two vertices i, j with `num_arrows` parallel arrows i -> j."""
    if num_arrows < 1:
        raise ValidationError("need at least one arrow")
    return Quiver.from_arrows(
        ("i", "j"), [(f"a{k}", "i", "j") for k in range(1, num_arrows + 1)]
    )


LABEL_LIMIT = 1 << 22  # the most type-1 labels, and entries of the `_pairs` table, supported


def _check_lr(l: int, r: int):
    if l < 1 or r < 0:
        raise ValidationError("need l >= 1 and r >= 0")
    if l < r:
        raise ValidationError(f"empty moduli: l = {l} < r = {r}")
    # the table first: it bounds l, so the label count below is cheap
    if (entries := (l + 2) ** 2) > LABEL_LIMIT:
        raise UnsupportedError(f"l = {l} needs a table of (l + 2)^2 = {entries} index pairs; "
                               f"at most {LABEL_LIMIT} are supported")
    if (labels := math.comb(l + 1, 2) * math.comb(l, r) ** 2) > LABEL_LIMIT:
        raise UnsupportedError(f"(l, r) = ({l}, {r}) has C(l + 1, 2) C(l, r)^2 = {labels} type-1 "
                               f"labels; at most {LABEL_LIMIT} are supported")


class Label1(Record):
    """Isolated fixed points: star pairs (m, m_*) and (n, n_*).

    m_star avoids m, n_star avoids n, both strictly increasing, m < n.
    The complements in 1..l+1 (of size l - r each) are implicit.
    """

    __slots__ = _fields = ("l", "r", "m", "m_star", "n", "n_star")

    def __init__(self, l: int, r: int, m: int, m_star: tuple[int, ...], n: int,
                 n_star: tuple[int, ...]):
        self.l, self.r, self.m, self.m_star, self.n, self.n_star = l, r, m, m_star, n, n_star
        rng = range(1, l + 2)
        if not (m in rng and n in rng and m < n):
            raise ValidationError("need 1 <= m < n <= l+1")
        for name, star, avoid in (("m_star", m_star, m), ("n_star", n_star, n)):
            if len(star) != r or list(star) != sorted(set(star)):
                raise ValidationError(f"{name} must be a strictly increasing {r}-tuple")
            if avoid in star or any(x not in rng for x in star):
                raise ValidationError(f"{name} out of range or hitting its excluded index")

    def display(self) -> str:
        if self.l == 2 and self.r == 1:
            return f"{self.m_star[0]}{self.m}{self.n}{self.n_star[0]}"
        ms = ",".join(map(str, self.m_star))
        ns = ",".join(map(str, self.n_star))
        return f"m={self.m};m*=({ms});n={self.n};n*=({ns})"


class Label2(Record):
    """Positive-dimensional candidates: a weight-2 source over x single and
    y double sinks, x + 2y = 2r + 1."""

    __slots__ = _fields = ("l", "r", "y", "m_star", "n_star")

    def __init__(self, l: int, r: int, y: int, m_star: tuple[int, ...], n_star: tuple[int, ...]):
        self.l, self.r, self.y, self.m_star, self.n_star = l, r, y, m_star, n_star
        rng = range(1, l + 2)
        x = self.x
        if x % 2 == 0 or x < 3:
            raise ValidationError("x = 2(r - y) + 1 must be odd and at least 3")
        if len(m_star) != x or list(m_star) != sorted(set(m_star)):
            raise ValidationError(f"m_star must be a strictly increasing {x}-tuple")
        if len(n_star) != y or list(n_star) != sorted(set(n_star)):
            raise ValidationError(f"n_star must be a strictly increasing {y}-tuple")
        if set(m_star) & set(n_star):
            raise ValidationError("m_star and n_star must be disjoint")
        if any(i not in rng for i in m_star + n_star):
            raise ValidationError("indices out of range")

    @property
    def x(self) -> int:
        return 2 * (self.r - self.y) + 1

    @property
    def complement(self) -> tuple[int, ...]:
        used = set(self.m_star) | set(self.n_star)
        return tuple(i for i in range(1, self.l + 2) if i not in used)

    def display(self) -> str:
        ms = ",".join(map(str, self.m_star))
        ns = ",".join(map(str, self.n_star))
        return f"x={self.x};m*=({ms});n*=({ns})"


def enumerate_type1(l: int, r: int) -> list[Label1]:
    _check_lr(l, r)
    out = []
    idx = range(1, l + 2)
    for m, n in itertools.combinations(idx, 2):
        for m_star in itertools.combinations([i for i in idx if i != m], r):
            for n_star in itertools.combinations([i for i in idx if i != n], r):
                out.append(Label1(l, r, m, m_star, n, n_star))
    return out


def enumerate_type2(l: int, r: int) -> list[Label2]:
    _check_lr(l, r)
    out = []
    idx = range(1, l + 2)
    for y in range(max(0, 2 * r - l), r):
        x = 2 * (r - y) + 1
        if x + y > l + 1:
            continue
        for m_star in itertools.combinations(idx, x):
            rest = [i for i in idx if i not in m_star]
            for n_star in itertools.combinations(rest, y):
                out.append(Label2(l, r, y, m_star, n_star))
    return out


def _pairs(l: int) -> list:
    """pairs[a][b] is the index pair {a, b} in increasing order, encoded as
    the integer min * (l+2) + max, so that the integers compare as the
    sorted pairs do lexicographically.  Hence w_a + w_b > w_c + w_d exactly
    when pairs[a][b] < pairs[c][d].
    """
    base = l + 2
    return [[min(a, b) * base + max(a, b) for b in range(base)] for a in range(base)]


def _side(l: int, k: int, star: tuple) -> tuple:
    """(complement, plus, minus) for one side (k, star) of a type-1 label.

    plus and minus count the comparisons within the side: k against its
    star, the complement against k, and complement against star entries.
    The indices of one side are distinct, so every comparison that does not
    add to att_+ adds to att_-.
    """
    comp = tuple(u for u in range(1, l + 2) if u != k and u not in star)
    plus = (sum(1 for v in star if k < v) + sum(1 for u in comp if u < k)
            + sum(1 for u in comp for v in star if u < v))
    return comp, plus, len(star) + len(comp) * (1 + len(star)) - plus


def _count_row(with_b: list, us: tuple, with_a: list, scale: int) -> list:
    """Entry v compares w_u + w_b with w_a + w_v over u in us, where with_b =
    pairs[b] and with_a = pairs[a], packed as plus * scale + minus: plus
    counts the u with the left sum larger, minus those with it smaller, and
    equal sums count for neither."""
    return [sum(scale if with_b[u] < right else with_b[u] > right for u in us)
            for right in with_a]


def d1_attractor(label: Label1, sign: str = "plus") -> int:
    """Attractor dimension of an isolated (type-1) fixed point.

    Eight comparison counts minus one, counted as `attractor_rows` counts
    them; `sign`="minus" reverses every comparison and gives the opposite
    attractor.
    """
    if sign not in ("plus", "minus"):
        raise ValidationError("sign must be 'plus' or 'minus'")
    l, m, n, ms, ns = label.l, label.m, label.n, label.m_star, label.n_star
    pairs, scale = _pairs(l), (l + 1) ** 2  # scale exceeds every summed count, as in attractor_rows
    mc, pm, qm = _side(l, m, ms)
    nc, pn, qn = _side(l, n, ns)
    in_row6 = _count_row(pairs[n], mc, pairs[m], scale)  # w_mu + w_n vs w_m + w_nv
    in_row8 = _count_row(pairs[m], nc, pairs[n], scale)  # w_nu + w_m vs w_n + w_mv
    plus, minus = divmod(sum(in_row6[v] for v in ns) + sum(in_row8[u] for u in ms), scale)
    total = plus + pm + pn - 1 if sign == "plus" else minus + qm + qn - 1
    if total < 0:
        raise InconsistencyError(f"negative attractor dimension for label {label.display()}")
    return total


def d2_attractor(label: Label2) -> int:
    """Attractor dimension over a type-2 component."""
    x, y = label.x, label.y
    ms, ns, c = label.m_star, label.n_star, label.complement
    total = math.comb(x, 2)
    total += 2 * sum(1 for mu in ms for nv in ns if mu < nv)
    total += 2 * sum(1 for cx in c for mu in ms if cx < mu)
    total += 4 * sum(1 for cx in c for nv in ns if cx < nv)
    return total


def label_to_beta(label: Label1 | Label2, w: dict,
                  quiver: Quiver | None = None) -> CoveringDimVector:
    """The covering dimension vector of a label, under rank-1 weights {arrow name: int}.

    Arrow k of the quiver carries weight w_k; the label indices refer to the
    declared arrow order (1-based).
    """
    quiver = quiver or kronecker_quiver(label.l + 1)

    def wk(k: int) -> int:
        return w[quiver.arrows[k - 1].name]

    support: dict = {}

    def put(v, c, mult=1):
        key = (v, (c,))
        support[key] = support.get(key, 0) + mult

    if isinstance(label, Label1):
        put("i", -wk(label.m))
        put("i", -wk(label.n))
        put("j", 0)
        for mv in label.m_star:
            put("j", wk(mv) - wk(label.m))
        for nv in label.n_star:
            put("j", wk(nv) - wk(label.n))
    else:
        put("i", 0, 2)
        for mu in label.m_star:
            put("j", wk(mu))
        for nv in label.n_star:
            put("j", wk(nv), 2)
    return canonicalize(CoveringDimVector.from_dict(support))


def attractor_rows(l: int, r: int, betti: dict):
    """One pass over the labels of (l, r), in enumeration order.

    Yields (text, att_plus, att_minus, None) for every type-1 label, then
    (text, att_plus, None, x) for every type-2 label, text being the label's
    `display()`, and adds each label's Betti numbers into `betti`
    ({degree: count}): t^(2 att_plus) for a type-1 label, the subspace-star
    polynomial shifted by att_plus for a type-2 label.

    No type-1 label is built: per pair (m, n), a row per star of either side
    holds the cross-family counts of `d1_attractor` at each index v, so a
    label costs 2r reads.  Each is checked for att_+, att_- >= 0 summing to dim M.
    """
    _check_lr(l, r)
    idx = range(1, l + 2)
    pairs, scale = _pairs(l), (l + 1) ** 2  # scale exceeds 2r(l - r), every summed count
    dim = (2 * (l - r) + 1) * (2 * r + 1) - 3
    hist = [0] * (dim + 1)
    m_text, n_text = (("{0}{1}", "{1}{0}") if (l, r) == (2, 1)  # the paper's four digits
                      else ("m={1};m*=({0});", "n={1};n*=({0})"))
    sides = {k: [(star, *_side(l, k, star), ",".join(map(str, star)))
                 for star in itertools.combinations([i for i in idx if i != k], r)] for k in idx}
    for m, n in itertools.combinations(idx, 2):
        with_m, with_n = pairs[m], pairs[n]
        n_rows = [(ns, pn - 1, qn - 1, n_text.format(digits, n),
                   _count_row(with_m, nc, with_n, scale).__getitem__)
                  for ns, nc, pn, qn, digits in sides[n]]
        for ms, mc, pm, qm, digits in sides[m]:
            left, in_row6 = m_text.format(digits, m), _count_row(with_n, mc, with_m, scale).__getitem__
            for ns, pn, qn, right, in_row8 in n_rows:
                plus, minus = divmod(sum(map(in_row6, ns)) + sum(map(in_row8, ms)), scale)
                plus, minus = plus + pm + pn, minus + qm + qn
                if plus + minus != dim or not 0 <= plus <= dim:
                    raise InconsistencyError(f"label {left + right} needs att+, att- >= 0 summing "
                                             f"to dim M = {dim}: att+ = {plus}, att- = {minus}")
                hist[plus] += 1
                yield left + right, plus, minus, None
    for plus, count in enumerate(hist):
        if count:
            betti[2 * plus] = betti.get(2 * plus, 0) + count
    for lab in enumerate_type2(l, r):
        att = d2_attractor(lab)
        for deg, c in kirwan_subspace_poincare(lab.x).coefficients:
            betti[deg + 2 * att] = betti.get(deg + 2 * att, 0) + c
        yield lab.display(), att, None, lab.x


def kronecker_poincare(l: int, r: int) -> PoincarePolynomial:
    """Poincare polynomial of the moduli space for d = (2, 2r+1), assembled
    from the closed-form attractor dimensions."""
    betti: dict = {}
    for _ in attractor_rows(l, r, betti):
        pass
    return PoincarePolynomial.from_dict(betti)
