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

import itertools
import operator

from .core import Quiver, check_vector, slope_scores
from .errors import InconsistencyError, UnsupportedError, ValidationError

_NOT_COPRIME = "the HN count needs a theta-coprime dimension vector"


def gl_order(n: int, q: int) -> int:
    total = 1
    for k in range(n):
        total *= q**n - q**k
    return total


def pg_order(dims, q: int) -> int:
    """|PG_d(F_q)| = prod_i |GL_{d_i}(F_q)| / (q - 1)."""
    total = 1
    for d in dims:
        total *= gl_order(d, q)
    if total % (q - 1) != 0:
        raise UnsupportedError("group order not divisible by q-1")
    return total // (q - 1)


def _plan(quiver: Quiver, d, theta) -> list:
    """The recursion's steps [(e, a(e, e), [(step of f, a(e - f, e), f) for the
    destabilizing f < e])], for each destabilizing e and then d, f before e."""
    arrows = quiver.arrow_pairs
    score = slope_scores(theta, d)
    vecs = []
    for e in itertools.product(*(range(x + 1) for x in d)):
        side = sum(map(operator.mul, score, e))  # > 0 iff mu(e) > mu(d)
        if side > 0:
            vecs.append(e)
        elif side == 0 and any(e) and e != d:
            raise UnsupportedError(_NOT_COPRIME)
    vecs.append(d)
    # one bit field per vertex: f <= e iff no field of (e | guard) - f borrows its guard bit
    width = max(d).bit_length() + 1
    guard = sum(1 << (width * i + width - 1) for i in range(len(d)))
    codes = [sum(x << (width * i) for i, x in enumerate(e)) for e in vecs]
    # a(f, e) = f . ae is the middle field of (f packed) * (ae packed in reverse); every field
    # of that product is at most |f| |ae| <= |d| * (sum of d_t over the arrows), so none carries
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
    return plan


def stable_counts(quiver: Quiver, d, theta, qs) -> list:
    """[(q, |M^theta-st_d(F_q)|)] for each integer q >= 2 in qs.

    Raises ValidationError for a malformed or zero d or theta and for a q that
    is not an int >= 2, UnsupportedError unless d is theta-coprime, and
    InconsistencyError if s(d) is not divisible by |PG_d(F_q)|.
    """
    d = check_vector(quiver, d, "d", nonnegative=True)
    theta = check_vector(quiver, theta, "theta")
    if sum(d) == 0:
        raise ValidationError("d must be nonzero")
    qs = list(qs)
    for q in qs:
        if type(q) is not int or q < 2:
            raise ValidationError(f"q must be an integer >= 2, got {q!r}")
    plan = _plan(quiver, d, theta)
    big = [i for i, x in enumerate(d) if x > 1]  # elsewhere [e_i choose f_i]_q = 1
    out = []
    for q in qs:
        binom = {(n, m): gl_order(n, q) // (gl_order(m, q) * gl_order(n - m, q) * q**(m * (n - m)))
                 for n in range(max(d) + 1) for m in range(n + 1)}
        power = [q**x for x in range(plan[-1][1] + 1)]
        s: list = []
        for e, aee, terms in plan:
            v = power[aee]
            for k, x, f in terms:
                t = s[k] * power[x]
                for i in big:
                    t *= binom[e[i], f[i]]
                v -= t
            s.append(v)
        count, rest = divmod(s[-1], pg_order(d, q))
        if rest:
            raise InconsistencyError(f"HN count {s[-1]} at q={q} is not divisible by |PG_d|")
        out.append((q, count))
    return out


def has_stable(quiver: Quiver, d, theta) -> bool:
    """M^{theta-st}(Q, d) != {} for theta-coprime d on an acyclic quiver.

    A thin d is decided by King's criterion, any other d by the count at
    q = 2: M^st is then smooth and projective with |M^st(F_q)| =
    sum_i b_{2i} q^i and b_0 = 1 when nonempty.  Both routes refuse a d that
    is not theta-coprime with the count's UnsupportedError.
    """
    d = check_vector(quiver, d, "d", nonnegative=True)
    theta = check_vector(quiver, theta, "theta")
    if sum(d) == 0:
        raise UnsupportedError("d must be nonzero")
    if not quiver.is_acyclic():
        raise UnsupportedError("the existence test needs an acyclic quiver")
    if max(d) == 1:
        return _king_stable(quiver, d, theta)
    return stable_counts(quiver, d, theta, (2,))[0][1] > 0


def _king_stable(quiver: Quiver, d, theta) -> bool:
    """Is the generic representation of the thin d theta-stable?

    S ranges over the bitmasks of the vertices with d_v = 1; S's slope score
    and successor mask come from S without its highest vertex.  A proper
    nonempty S scoring 0 refuses d as the count does.
    """
    support = [i for i, x in enumerate(d) if x]
    bit = {i: 1 << k for k, i in enumerate(support)}
    succ = dict.fromkeys(support, 0)
    for s, t in quiver.arrow_pairs:
        if d[s] and d[t]:
            succ[s] |= bit[t]
    score = slope_scores(theta, d)
    sums, reach = [0], [0]
    for i in support:
        x, r = score[i], succ[i]
        sums += [y + x for y in sums]
        reach += [y | r for y in reach]
    if sums.count(0) > 2:  # the empty set and the whole support both score 0
        raise UnsupportedError(_NOT_COPRIME)
    return not any(x > 0 and r | s == s for s, (x, r) in enumerate(zip(sums, reach)))
