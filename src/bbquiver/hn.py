"""F_q-point counts of quiver moduli by the Harder-Narasimhan recursion, in integers.

M. Reineke, Invent. Math. 152 (2003): |R_d^sst(F_q)| / |G_d(F_q)| is S(d), a
signed sum over the decompositions of d whose proper partial sums have slope
above mu(d).  With S(e) the same sum for e <= d, s(e) = S(e) |G_e(F_q)| and
a(x, y) the sum of x_s * y_t over the arrows s -> t (so |R_e(F_q)| = q^a(e,e)),
splitting off the last part gives

    s(e) = q^a(e,e) - sum_f s(f) * prod_i [e_i choose f_i]_q * q^a(e-f, e)

over the 0 < f < e with mu(f) > mu(d).  For theta-coprime d the semistable
points are stable with free PG_d-orbits, so |M^st_d(F_q)| = s(d) / |PG_d(F_q)|
exactly.  The identity is polynomial in q, so any integer q >= 2 serves.

The recursion runs on orbits of twin vertices: loop-free vertices with d_i = 1,
equal theta_i and equal multisets of in-arrow sources and out-arrow targets.
No arrow joins two twins, since it would force a loop.  Swapping two twins is
an automorphism of (Q, d, theta), so s(e) and the slope of e depend only on how
many vertices e holds in each twin group G (a vertex that is no twin is a
group of its own).  So does a(f, e) = sum_G f_G ae_G: each member of G has the
same number m of arrows to each member of H, so ae_G = sum_H m e_H reads the
arrows of one member of G into one member of each H.  The f <= e of one orbit
give equal terms, prod_G C(e_G, f_G) of them.  So a term weighs prod_G [e_G
choose f_G] from one table of q-binomials built by Pascal's rule, read at q on
a vertex of its own and at q = 1, where it is C(e_G, f_G), on a twin group.
An orbit scores theta'' . e as its vectors do, so d is refused with
`core.NOT_COPRIME` when an orbit other than 0 and d scores 0 (`core.box_sides`
over the orbit box).  On a star with x leaves the recursion visits at most
3 (x + 1) orbits, not up to 3 * 2^x.

`has_stable` decides whether the stable moduli is nonempty.  On a thin d
(every d_i 0 or 1) it applies King's criterion (A. D. King, Q. J. Math. 45,
1994) to the generic representation, which puts a nonzero scalar on every
arrow between vertices with d_i = 1: its subrepresentations are the vertex
sets closed under those arrows, so it is stable iff no proper nonempty closed
set has slope above mu(d).  Stability is open in the irreducible space R_d, so
M^st is nonempty iff the generic representation is stable.  Any other d reads
the answer off the count at q = 2.
"""

from __future__ import annotations

import math
import operator

from .core import NOT_COPRIME, Quiver, box, box_sides, check_dim, slope_scores
from .errors import InconsistencyError, UnsupportedError, ValidationError


def gl_order(n: int, q: int) -> int:
    return math.prod(q**n - q**k for k in range(n))


def pg_order(dims, q: int) -> int:
    """|PG_d(F_q)| = prod_i |GL_{d_i}(F_q)| / (q - 1), exact for d != 0: the factor of a
    d_i > 0 has q^{d_i} - 1 among its own factors."""
    return math.prod(gl_order(x, q) for x in dims) // (q - 1)


def q_binomials(n: int, q: int) -> list:
    """rows[k][m] = [k choose m]_q for 0 <= m <= k <= n, by Pascal's rule
    [k choose m]_q = [k-1 choose m-1]_q + q^m [k-1 choose m]_q; at q = 1, C(k, m)."""
    power = [q**m for m in range(n + 1)]
    rows = [[1]]
    for k in range(1, n + 1):
        row = rows[-1]
        rows.append([1, *(row[m - 1] + power[m] * row[m] for m in range(1, k)), 1])
    return rows


def _plan(quiver: Quiver, d, theta) -> tuple:
    """(twins, steps): the recursion on orbits of twin vertices (module docstring).

    A coordinate counts a vector's vertices in one group, placed at its first
    vertex; `twins` lists the groups of two or more.  The steps [(e, a(e, e),
    [(step of f, a(e - f, e), f) for the destabilizing f < e])] run over each
    destabilizing orbit e and then d, f before e; on a twin-free input they are
    the ungrouped steps.  theta'' . e over the orbit box is `core.box_sides`;
    d is refused as not theta-coprime if it holds a zero besides e = 0 and
    e = d.  The full box of d is refused beyond `core.BOX_LIMIT`.
    """
    box(d)
    ins, outs = [[] for _ in d], [[] for _ in d]
    for s, t in quiver.arrow_pairs:
        outs[s].append(t)
        ins[t].append(s)
    groups: dict = {}
    for i, x in enumerate(d):
        twin = x == 1 and i not in ins[i]
        key = (theta[i], tuple(sorted(ins[i])), tuple(sorted(outs[i]))) if twin else i
        groups.setdefault(key, []).append(i)
    first = {g[0]: k for k, g in enumerate(groups.values())}
    # each member of G has m(G, H) arrows to each member of H, so to H's first vertex
    arrows = [(first[s], first[t]) for s, t in quiver.arrow_pairs if s in first and t in first]
    scores = slope_scores(theta, d)
    score = [scores[i] for i in first]
    twins = [k for k, g in enumerate(groups.values()) if len(g) > 1]
    d = tuple(d[g[0]] * len(g) for g in groups.values())
    sides = box_sides(score, d)  # theta'' . e per orbit e: > 0 iff mu(e) > mu(d)
    if sides.count(0) > 2:  # e = 0 and e = d both score 0
        raise UnsupportedError(NOT_COPRIME)
    vecs = [e for e, side in zip(box(d), sides) if side > 0] + [d]
    # one bit field per coordinate: f <= e iff no field of (e | guard) - f borrows its guard bit
    width = max(d).bit_length() + 1
    guard = sum(1 << (width * i + width - 1) for i in range(len(d)))
    codes = [sum(x << (width * i) for i, x in enumerate(e)) for e in vecs]
    # a(f, e) = f . ae is the middle field of (f packed) * (ae packed in reverse); every field
    # of that product is at most |f| |ae| <= |d| * (sum of d_t over the arrows kept), where
    # d_t counts t's group, so none carries
    span = (sum(d) * sum(d[t] for _, t in arrows)).bit_length() or 1
    mid, mask = span * (len(d) - 1), (1 << span) - 1
    packed = [sum(x << (span * i) for i, x in enumerate(f)) for f in vecs]
    plan = []
    for j, e in enumerate(vecs):
        ae = [0] * len(d)
        for s, t in arrows:
            ae[s] += e[t]
        aee = sum(map(operator.mul, e, ae))
        rev = sum(x << (span * i) for i, x in enumerate(reversed(ae)))
        top = codes[j] | guard
        plan.append((e, aee, [(k, aee - ((packed[k] * rev >> mid) & mask), vecs[k])
                              for k in range(j) if (top - codes[k]) & guard == guard]))
    return twins, plan


def stable_counts(quiver: Quiver, d, theta, qs) -> list:
    """[(q, |M^theta-st_d(F_q)|)] for each integer q >= 2 in qs.

    A term f < e of `_plan`'s recursion stands for the prod_G C(e_G, f_G)
    vectors of its orbit below e.  It weighs prod_i [e_i choose f_i] from one
    Pascal table (`q_binomials`), read at q and, on a twin group, at q = 1.
    Raises ValidationError where `core.check_dim` does and for a q that is not
    an int >= 2, UnsupportedError unless d is theta-coprime (`core.NOT_COPRIME`)
    with a box of at most `core.BOX_LIMIT` vectors, and InconsistencyError if
    s(d) is not divisible by |PG_d(F_q)|.
    """
    d, theta = check_dim(quiver, d, theta)
    qs = list(qs)
    for q in qs:
        if type(q) is not int or q < 2:
            raise ValidationError(f"q must be an integer >= 2, got {q!r}")
    twins, plan = _plan(quiver, d, theta)
    orbits = plan[-1][0]
    comb = q_binomials(max([orbits[i] for i in twins], default=0), 1)
    out = []
    for q in qs:
        binom = q_binomials(max(orbits), q)
        # a coordinate of at most 1 weighs 1; a twin group reads the table at q = 1
        tables = [(i, comb if i in twins else binom) for i, x in enumerate(orbits) if x > 1]
        power = [q**x for x in range(plan[-1][1] + 1)]
        s: list = []
        for e, aee, terms in plan:
            v = power[aee]
            for k, x, f in terms:
                t = s[k] * power[x]
                for i, b in tables:
                    t *= b[e[i]][f[i]]
                v -= t
            s.append(v)
        count, rest = divmod(s[-1], pg_order(d, q))
        if rest:
            raise InconsistencyError(f"HN count {s[-1]} at q={q} is not divisible by |PG_d|")
        out.append((q, count))
    return out


def has_stable(quiver: Quiver, d, theta) -> bool:
    """M^{theta-st}(Q, d) != {} for theta-coprime d on an acyclic quiver.

    A thin d is decided by King's criterion, any other d by the count at q = 2:
    M^st is then smooth and projective with |M^st(F_q)| = sum_i b_{2i} q^i and
    b_0 = 1 when nonempty.  It checks d and theta with `core.check_dim`, and
    both routes refuse a d that is not theta-coprime with `core.NOT_COPRIME`.
    """
    d, theta = check_dim(quiver, d, theta)
    if not quiver.is_acyclic():
        raise UnsupportedError("the existence test needs an acyclic quiver")
    if max(d) == 1:
        return _king_stable(quiver, d, theta)
    return stable_counts(quiver, d, theta, (2,))[0][1] > 0


def _king_stable(quiver: Quiver, d, theta) -> bool:
    """Is the generic representation of the thin d theta-stable?

    S ranges over the bitmasks of the vertices with d_v = 1: its slope score is
    `core.box_sides` over the support reversed, its successor mask that of S
    without its highest vertex.  A proper nonempty S scoring 0 refuses d.
    """
    support = [i for i, x in enumerate(d) if x]
    bit = {i: 1 << k for k, i in enumerate(support)}
    succ = dict.fromkeys(support, 0)
    for s, t in quiver.arrow_pairs:
        if d[s] and d[t]:
            succ[s] |= bit[t]
    score = slope_scores(theta, d)
    sums = box_sides([score[i] for i in reversed(support)], [1] * len(support))
    if sums.count(0) > 2:  # the empty set and the whole support both score 0
        raise UnsupportedError(NOT_COPRIME)
    reach = [0]
    for i in support:
        reach += [y | succ[i] for y in reach]
    return not any(x > 0 and r | s == s for s, (x, r) in enumerate(zip(sums, reach)))
