"""Concrete fixed representations and explicit attractor cell charts.

A fixed point is realized as a graded representation: vertex spaces split
into integer levels, arrow maps respect levels shifted by the arrow weight.
The weights are rank one, a plain {arrow name: int} map; a rank-n action is
charted for the one-parameter subgroup that `covering.reduce_to_rank_one`
pairs it with, so a level is the code of a character and the charts are
those of that subgroup's attractors.
Around such a point M the attractor is parametrized by {M} + sum over
degrees k > 0 of a complement of the bracket image [u_k, M] inside

    R_k = sum_{a: i->j} sum_n Hom(V_{i,n}, V_{j, n + w_a - k}),
    u_k = sum_i sum_n Hom(V_{i,n}, V_{i, n-k}),

with the bracket sending x to (x_j M_{a,n} - M_{a,n-k} x_i).  Complements
are chosen as coordinate complements by echelon pivoting in a fixed basis
order, so a chart is literally a star-pattern over the matrix entries;
which entries carry the stars is implementation-canonical, only their
number is intrinsic.  Where u_k = 0 the complement is all of R_k.

The bracket in degree k is the degree-k piece of the covering Hom map from
M to itself, and the degrees k in Z together resolve End(M): degree 0 holds
the scalars, so M is a brick (End = scalars) exactly when degree 0 has
nullity 1 and every other degree's bracket is injective.  One pass over
every ordered pair of levels (`_graded_blocks`) lays out every degree;
`_hom_rows` assembles any such map as sparse rows, and the fraction-free
kernel `linalg.leading_columns` finds its rank and pivots;
`choose_complements` reduces each degree where it is laid out, certifies
the brick and keeps the positive degrees' complements.  One GradedRep per
class indexes its levels and arrow pairs, and each fill of `_fills` is set
on it in turn, laid out and reduced once; the first fill that certifies is
charted by the reductions that certified it.  Charts become plain grids
(`emit_cell_table`).  `chart_class` charts one class from its beta and seed
alone, and the CLI charts every class by it, with no state shared between
charts.  A thin class (every multiplicity 1) takes none of the above: on
its unit fill the bracket columns are graph edges, and `_thin_chart`
certifies the fill by its degree 0, finds the same pivots and writes the
grids in one union-find walk.  Hom and Ext^1 between two representations,
plain representations, dense bracket matrices and the twisted-filtration
check of attractor membership are the tests' second route, and the general
route is the thin walk's.
"""

from __future__ import annotations

import random

from .core import Quiver
from .covering import CoveringDimVector
from .errors import InconsistencyError
from .linalg import leading_columns


def _hom_rows(dom, cod) -> list:
    """The map (A_x)_x -> (A_y f_a - g_a A_x)_{a: x -> y} as sparse rows.

    `dom` lists the domain blocks Hom(M_x, N_x) as (x, rows, cols); `cod`
    lists the codomain blocks Hom(M_x, N_y) as (label, rows, cols, x, y,
    f_a, g_a), with f_a and g_a the matrices of M and N on the arrow (falsy
    when zero).  Blocks are nonempty and row-major.  One {codomain index:
    entry} row per domain coordinate, so their rank is the rank of the map.
    """
    incoming: dict = {}
    outgoing: dict = {}
    offset = 0
    for _, rows, cols, x, y, f, g in cod:
        if f:
            incoming.setdefault(y, []).append((offset, cols, f))
        if g:
            outgoing.setdefault(x, []).append((offset, cols, rows, g))
        offset += rows * cols
    out = []
    for x, rows, cols in dom:
        ins = incoming.get(x, ())
        outs = outgoing.get(x, ())
        for r in range(rows):
            for c in range(cols):
                row = {}
                # E_{rc} f_a: row r of the block is row c of f_a
                for base, width, f in ins:
                    base += r * width
                    for cp, val in enumerate(f[c]):
                        if val:
                            row[base + cp] = val
                # -g_a E_{rc}: column c of the block is minus column r of g_a
                for base, width, height, g in outs:
                    for rp in range(height):
                        val = g[rp][r]
                        if val:
                            key = base + rp * width + c  # a loop may hit it twice
                            row[key] = row.get(key, 0) - val
                out.append(row)
    return out


def _size(blocks) -> int:
    return sum(block[1] * block[2] for block in blocks)


def _basis(blocks) -> list:
    """(*key, row, col) for every coordinate of the blocks, in order."""
    return [(*block[0], r, c) for block in blocks
            for r in range(block[1]) for c in range(block[2])]


class GradedRep:
    """Level-graded representation realizing a covering class under weights {arrow: int}.

    `blocks[(arrow, n)]` is the map V_{s(a), n} -> V_{t(a), n + w_a} as a
    tuple of rows, stored as given: `_fills` gives one per populated pair,
    which `_pairs` lists as (arrow, n, rows, cols, source, target).
    """

    __slots__ = ("quiver", "weights", "beta", "blocks",
                 "_dims", "_levels", "_offsets", "_totals", "_pairs")

    def __init__(self, quiver: Quiver, weights: dict, beta: CoveringDimVector, blocks: dict):
        self.quiver, self.weights, self.beta, self.blocks = quiver, weights, beta, blocks
        # the index: {(v, n): dim}, and per v its sorted levels, level offsets and total dim
        dims, levels, offsets, totals = {}, {}, {}, {}
        for (v, (n,)), m in beta.entries:  # sorted by level
            if (v, n) not in dims:
                dims[(v, n)] = m
                levels.setdefault(v, []).append(n)
                offsets.setdefault(v, {})[n] = totals.get(v, 0)
                totals[v] = totals.get(v, 0) + m
        self._dims, self._levels, self._offsets, self._totals = dims, levels, offsets, totals
        self._pairs = [(a.name, n, rows, cols, (v, n), tgt)
                       for (v, n), cols in dims.items() for a in quiver.arrows_from(v)
                       if (rows := dims.get(tgt := (a.target, n + weights[a.name]), 0))]


def _graded_blocks(rep: GradedRep) -> dict:
    """The bracket of u_k into R_k for every degree k, in one pass over every
    ordered pair of levels.

    Degree k maps the sum of Hom(V_{v,n}, V_{v,n-k}) to the sum of
    Hom(V_{s(a),n}, V_{t(a),n+w_a-k}); together the degrees are the Hom map
    of the plain representation to itself, split by degree.  Returns
    {k: (dom, cod)} with only nonempty degrees, in the block layout of
    `_hom_rows`, keyed by (v, n) and (arrow, n) in declaration order, then
    ascending n.
    """
    dims, levels, blocks = rep._dims, rep._levels, rep.blocks
    out: dict = {}
    for v in rep.quiver.vertices:
        at = [(m, dims[(v, m)]) for m in levels.get(v, ())]
        for n, cols in at:
            for m, rows in at:
                (out.get(n - m) or out.setdefault(n - m, ([], [])))[0].append(((v, n), rows, cols))
    for a in rep.quiver.arrows:
        name, target, wa = a.name, a.target, rep.weights[a.name]
        at = [(m, dims[(target, m)], blocks.get((name, m - wa))) for m in levels.get(target, ())]
        for n in levels.get(a.source, ()):
            top, key, src = n + wa, (name, n), (a.source, n)
            cols, tgt, f = dims[src], (target, top), blocks.get(key)
            for m, rows, g in at:
                (out.get(top - m) or out.setdefault(top - m, ([], [])))[1].append(
                    (key, rows, cols, src, tgt, f, g))
    return out


def _link(parent: dict, x, y) -> bool:
    """Join the union-find trees of x and y in `parent`; False when they are one tree."""
    while x in parent:
        x = parent[x]
    while y in parent:
        y = parent[y]
    if x != y:
        parent[x] = y
    return x != y


RANDOM_LIFTS = 24  # random fills tried after the unit fill, or alone where it is not tried


def _fills(pairs, seed: int, unit: bool):
    """The blocks of each fill of the pairs in turn, as tuples of int tuples: 0/1 partial
    identities when `unit`, then RANDOM_LIFTS fills of entries drawn in -9..9 from seed,
    seed + 1, ..."""
    if unit:
        yield {(name, n): tuple(tuple(int(r == c) for c in range(cols)) for r in range(rows))
               for name, n, rows, cols, _, _ in pairs}
    for k in range(RANDOM_LIFTS):
        rng = random.Random(seed + k)
        yield {(name, n): tuple(tuple(rng.randint(-9, 9) for _ in range(cols)) for _ in range(rows))
               for name, n, rows, cols, _, _ in pairs}


NO_LIFT = "no certified lift found for beta"


class CellChart:
    """Coordinates of the plus-attractor cell around a fixed representation."""

    __slots__ = ("base", "degrees")

    def __init__(self, base: GradedRep, degrees: dict):
        # degrees: {k: (arrow, source level, row, col) of each free coordinate}, per positive
        # degree with nonzero spaces, ascending
        self.base, self.degrees = base, degrees

    @property
    def total_dim(self) -> int:
        return sum(map(len, self.degrees.values()))


def _not_injective(k) -> InconsistencyError:
    kernel = "has a kernel beyond the scalars" if k == 0 else "is not injective"
    return InconsistencyError(f"bracket with the fixed representation {kernel} in degree {k}")


def choose_complements(rep: GradedRep) -> CellChart:
    """Certify that End(rep) is the scalars, and keep the non-pivot standard
    coordinates of R_k, against the echelon pivots of the bracket image, as
    the chart's free directions in every positive degree, as {k: free
    coordinates}.

    Every degree is laid out in one pass (`_graded_blocks`) and reduced
    where it is laid out, in ascending order.  End(rep) is the sum of the
    kernels, so it is the scalars exactly when degree 0 has nullity 1 and
    every other degree's bracket is injective; raises at the smallest degree
    where that fails.  Where u_k is zero the complement is all of R_k.
    """
    degrees = {}
    for k, (dom, cod) in sorted(_graded_blocks(rep).items()):
        pivots = set(leading_columns(_hom_rows(dom, cod))) if dom else ()  # u_k = 0: all of R_k
        if len(pivots) != _size(dom) - (k == 0):
            raise _not_injective(k)
        if k > 0:
            degrees[k] = tuple([x for j, x in enumerate(_basis(cod)) if j not in pivots])
    return CellChart(rep, degrees)


def _certified_chart(quiver: Quiver, w: dict, beta: CoveringDimVector, seed: int) -> CellChart:
    """The chart (`choose_complements`) of the first fill of beta that certifies.

    One GradedRep indexes the class, and each fill (`_fills`) is set on it
    in turn, laid out and reduced once, until End is the scalars: the 0/1
    unit fill, then random ones.  The unit fill is tried only for a thin
    beta (every multiplicity 1): its blocks map basis index r to index r, so
    it is the direct sum of its index layers, and where some multiplicity is
    2 or more there are two layers and dim End >= 2.  A failing fill is
    skipped for the next.  Where beta is a real root, dim End_0 = 1 alone
    forces Ext^1 = 0 over the covering (dim Hom - dim Ext^1 there is the
    size of degree 0's domain minus its codomain's, <beta, beta> = 1), so
    such a fill is the generic, stable one and passes in every degree.
    """
    rep = GradedRep(quiver, w, beta, {})
    unit = set(rep._dims.values()) == {1}
    for blocks in _fills(rep._pairs, seed, unit):
        rep.blocks = blocks
        try:
            return choose_complements(rep)
        except InconsistencyError:
            pass
    tried = f"the unit fill and {RANDOM_LIFTS}" if unit else f"its {RANDOM_LIFTS}"
    raise InconsistencyError(f"{NO_LIFT}: {tried} random fills failed")


def build_fixed_rep(quiver: Quiver, w: dict, beta: CoveringDimVector,
                    seed: int = 0) -> GradedRep:
    """A certified representative of the fixed point of class beta, whose End is
    the scalars: the base of `_certified_chart`.  beta must already have passed
    the existence filter."""
    return _certified_chart(quiver, w, beta, seed).base


def emit_cell_table(chart: CellChart) -> dict:
    """Symbol matrices {arrow: rows of strings}, in arrow order: fixed entries of M on their
    level diagonal, structural zeros above, and '*' on the chosen free coordinates below."""
    base = chart.base
    offsets, weights, totals = base._offsets, base.weights, base._totals
    arrows = {a.name: a for a in base.quiver.arrows}
    grids = {name: [["0"] * totals.get(a.source, 0) for _ in range(totals.get(a.target, 0))]
             for name, a in arrows.items()}
    for (name, n), blk in base.blocks.items():
        a = arrows[name]
        t0 = offsets[a.target][n + weights[name]]
        s0 = offsets[a.source][n]
        grid = grids[name]
        for r, row in enumerate(blk):
            grid[t0 + r][s0:s0 + len(row)] = map(str, row)
    for k, free in chart.degrees.items():
        for name, n, r, c in free:
            a = arrows[name]
            row = offsets[a.target][n + weights[name] - k] + r
            grids[name][row][offsets[a.source][n] + c] = "*"
    return grids


def _thin_chart(quiver: Quiver, w: dict, beta: CoveringDimVector) -> tuple[dict, dict]:
    """`chart_class` of a thin beta (every multiplicity 1), in one walk over the columns of
    every degree k >= 0 of its unit fill, with no representative, layout or reduction.

    With every block the unit block ((1,),), column (a, n, m), of degree k = n + w_a - m,
    is +1 at the domain pair (t(a), n + w_a -> m) and -1 at (s(a), n -> n - k), each where
    that pair is populated; an absent end is degree k's ground node, and a weight-0 loop's
    two ends coincide, so its column is zero.  Columns are independent exactly when their
    edges form a forest, so the echelon pivots, the first independent columns in basis
    order (arrows, then n, then m, ascending), are the edges a union-find pass keeps, and
    the columns that close a cycle are free.  Degree 0 has no ground: its columns are the
    unit entries, and dim End_0 = 1, the certificate, exactly when they join every level
    into one tree; where they do not, no fill of beta certifies.  On a class that passed
    the existence filter, such a unit fill is stable by King's criterion, so it is a brick
    and its negative degrees need no check.
    """
    levels: dict = {}  # per vertex, {level: its row or column in the grids}, ascending
    for (v, (n,)), _ in beta.entries:
        at = levels.setdefault(v, {})
        at.setdefault(n, len(at))
    unlinked = {0: -1}  # per degree, the domain pairs no pivot has joined yet; less a root in 0
    for at in levels.values():
        ns = list(at)
        for i, n in enumerate(ns):
            for m in ns[:i + 1]:
                unlinked[n - m] = unlinked.get(n - m, 0) + 1
    grids, free, parent = {}, {}, {}
    for a in quiver.arrows:
        s, t, wa = a.source, a.target, w[a.name]
        src, tgt = levels.get(s, {}), levels.get(t, {})
        grid = grids[a.name] = [["0"] * len(src) for _ in tgt]
        tails = [(m, row, m - wa in src) for m, row in tgt.items()]  # n - k = m - w_a
        for n, col in src.items():
            top = n + wa
            head = top in tgt
            for m, row, tail in tails:
                if m > top:
                    break
                k = top - m
                if not k:
                    grid[row][col] = "1"
                if _link(parent, (k, t, top) if head else k, (k, s, n) if tail else k):
                    unlinked[k] -= 1
                elif k:
                    free[k] = free.get(k, 0) + 1
                    grid[row][col] = "*"
    if unlinked[0]:
        raise InconsistencyError(f"{NO_LIFT}: its support is unlinked, so no fill has dim End = 1")
    if bad := [k for k, left in unlinked.items() if left]:
        raise _not_injective(min(bad))
    return grids, free


def chart_class(quiver: Quiver, w: dict, beta: CoveringDimVector,
                seed: int = 0) -> tuple[dict, dict]:
    """The cell chart of the fixed point of class beta: its grids, as `emit_cell_table`
    writes them, and its number of free coordinates in each positive degree that has any.

    A thin beta takes `_thin_chart`.  Any other is charted at its first certified fill
    (`_certified_chart`), whose reductions are the chart, by `emit_cell_table`.  The chart
    depends on beta and seed only; no state is kept between calls.  Raises where no fill
    certifies, or where the thin walk finds a bracket that is not injective.
    """
    if all(m == 1 for _, m in beta.entries):
        return _thin_chart(quiver, w, beta)
    chart = _certified_chart(quiver, w, beta, seed)
    return emit_cell_table(chart), {k: len(cells) for k, cells in chart.degrees.items() if cells}


def table_text(grids: dict) -> str:
    """The grids of `emit_cell_table` as text: each arrow's name, then its rows right-aligned."""
    parts = []
    for name, grid in grids.items():
        width = max((len(x) for row in grid for x in row), default=1)
        lines = ["  ".join(x.rjust(width) for x in row) for row in grid]
        parts.append(f"{name}:\n" + "\n".join("  " + ln for ln in lines))
    return "\n".join(parts)


def table_latex(grids: dict) -> str:
    """The grids of `emit_cell_table` as LaTeX pmatrices, '*' set as \\ast."""
    mats = []
    for grid in grids.values():
        body = r" \\ ".join(" & ".join(x.replace("*", r"\ast") for x in row) for row in grid)
        mats.append(r"\begin{pmatrix} " + body + r" \end{pmatrix}")
    return r",\; ".join(mats)
