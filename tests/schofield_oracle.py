"""Stable nonemptiness from Schofield's generic-subdimension recursion.

An independent oracle for the tests.  A vector e <= d is a generic
subdimension of d (the generic representation of dimension d has a
subrepresentation of dimension e) iff <e', d - e> >= 0 for every generic
subdimension e' of e (A. Schofield, General representations of quivers,
Proc. LMS 65, 1992).  For theta-coprime d on an acyclic quiver, M^st(Q, d)
is nonempty iff no proper nonzero generic subdimension of d has slope above
mu(d).  Nothing here shares code with the Harder-Narasimhan count behind
`hn.has_stable`.
"""

import itertools

import numpy as np

import bbquiver as bq
from slope_oracle import slope


def generic_subdimensions(quiver, d):
    """gs(d), sorted: gs(e) for every e in the box of d, each e testing every
    e' < e against gs(e'), one numpy call per pair."""
    n = len(quiver.vertices)
    pairing = np.array([[bq.euler_form(quiver, u, v) for v in np.eye(n, dtype=int).tolist()]
                        for u in np.eye(n, dtype=int).tolist()], dtype=np.int64)
    box = sorted(itertools.product(*(range(x + 1) for x in d)), key=lambda t: (sum(t), t))
    gs: dict = {}
    for e in box:
        members = [e]
        for ep in itertools.product(*(range(x + 1) for x in e)):
            if ep == e:
                continue
            diff = np.array(e, dtype=np.int64) - np.array(ep, dtype=np.int64)
            if int((np.array(gs[ep], dtype=np.int64) @ pairing @ diff).min()) >= 0:
                members.append(ep)
        gs[e] = sorted(members)
    return gs[tuple(d)]


def has_stable(quiver, d, theta):
    """M^{theta-st}(Q, d) != {} by the slope criterion on Fraction slopes."""
    mu = slope(theta, d)
    return all(slope(theta, e) <= mu for e in generic_subdimensions(quiver, d)
               if any(e) and e != tuple(d))
