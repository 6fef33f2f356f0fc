"""The ungrouped Harder-Narasimhan recursion with one pairing sum per pair, kept for the tests.

The plan and its evaluation as `bbquiver.hn` computed them before the pairing
a(f, e) = f . ae became one product of packed integers, before the recursion
ran on orbits of twin vertices and before its q-binomials came from Pascal's
rule: here every vector 0 <= e <= d is its own step, each pair sums f_i * ae_i
over the vertices, and [n choose m]_q is a quotient of `gl_order`s.  It takes
no input checks; a d that is not theta-coprime is refused by the plan with the
count's own UnsupportedError.  No numpy.
"""

import itertools
import operator

from bbquiver.core import slope_scores
from bbquiver.errors import InconsistencyError, UnsupportedError
from bbquiver.hn import gl_order, pg_order


def plan(quiver, d, theta) -> list:
    """[(e, a(e, e), [(step of f, a(e - f, e), f) for the destabilizing f < e])]
    for each destabilizing e and then d, f before e."""
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
    steps = []
    for j, e in enumerate(vecs):
        ae = [0] * len(d)  # a(f, e) = f . ae
        for s, t in arrows:
            ae[s] += e[t]
        aee = sum(map(operator.mul, e, ae))
        top = codes[j] | guard
        steps.append((e, aee, [(k, aee - sum(map(operator.mul, f, ae)), f)
                               for k, f in enumerate(vecs[:j])
                               if (top - codes[k]) & guard == guard]))
    return steps


def stable_counts(quiver, d, theta, qs) -> list:
    """[(q, |M^theta-st_d(F_q)|)] for each integer q >= 2 in qs, by `plan`."""
    d = tuple(d)
    steps = plan(quiver, d, theta)
    big = [i for i, x in enumerate(d) if x > 1]  # elsewhere [e_i choose f_i]_q = 1
    out = []
    for q in qs:
        binom = {(n, m): gl_order(n, q) // (gl_order(m, q) * gl_order(n - m, q) * q**(m * (n - m)))
                 for n in range(max(d) + 1) for m in range(n + 1)}
        power = [q**x for x in range(steps[-1][1] + 1)]
        s: list = []
        for e, aee, terms in steps:
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
