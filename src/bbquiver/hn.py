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

`has_stable` reads nonemptiness of the stable moduli off the count at q = 2.
"""

from __future__ import annotations

import itertools
import operator

from .core import Quiver, check_vector, slope_scores
from .errors import InconsistencyError, UnsupportedError


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
    idx = quiver.vertex_index
    arrows = [(idx(a.source), idx(a.target)) for a in quiver.arrows]
    score = slope_scores(theta, d)
    vecs = []
    for e in itertools.product(*(range(x + 1) for x in d)):
        side = sum(map(operator.mul, score, e))  # > 0 iff mu(e) > mu(d)
        if side > 0:
            vecs.append(e)
        elif side == 0 and any(e) and e != d:
            raise UnsupportedError("the HN count needs a theta-coprime dimension vector")
    vecs.append(d)
    # one bit field per vertex: f <= e iff no field of (e | guard) - f borrows its guard bit
    width = max(d).bit_length() + 1
    guard = sum(1 << (width * i + width - 1) for i in range(len(d)))
    codes = [sum(x << (width * i) for i, x in enumerate(e)) for e in vecs]
    plan = []
    for j, e in enumerate(vecs):
        ae = [0] * len(d)  # a(f, e) = f . ae
        for s, t in arrows:
            ae[s] += e[t]
        aee = sum(map(operator.mul, e, ae))
        top = codes[j] | guard
        plan.append((e, aee, [(k, aee - sum(map(operator.mul, f, ae)), f)
                              for k, f in enumerate(vecs[:j]) if (top - codes[k]) & guard == guard]))
    return plan


def stable_counts(quiver: Quiver, d, theta, qs) -> list:
    """[(q, |M^theta-st_d(F_q)|)] for each integer q >= 2 in qs.

    Raises UnsupportedError unless d is theta-coprime, and InconsistencyError
    if s(d) is not divisible by |PG_d(F_q)|.
    """
    d = tuple(d)
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

    A d that is not theta-coprime is refused by the count itself (`_plan`).

    Asks the count at q = 2.  For coprime d on an acyclic quiver M^st is
    smooth and projective with |M^st(F_q)| = sum_i b_{2i} q^i, and b_0 = 1
    when it is nonempty, so the count at q = 2 is positive exactly when M^st
    is nonempty.
    """
    d = check_vector(quiver, d, "d", nonnegative=True)
    theta = check_vector(quiver, theta, "theta")
    if sum(d) == 0:
        raise UnsupportedError("d must be nonzero")
    if not quiver.is_acyclic():
        raise UnsupportedError("the existence test needs an acyclic quiver")
    return stable_counts(quiver, d, theta, (2,))[0][1] > 0
