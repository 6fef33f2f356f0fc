"""The slope mu(d) = theta(d) / sum_i d_i as an exact `Fraction`.

The reference for the integer slope scores of `core.slope_scores`, which
the program compares instead.  No numpy.
"""

from fractions import Fraction

from bbquiver.errors import ValidationError


def slope(theta, d) -> Fraction:
    """theta(d) / sum_i d_i, exact; undefined for d = 0."""
    d = tuple(int(x) for x in d)
    total = sum(d)
    if total == 0:
        raise ValidationError("slope undefined for the zero dimension vector")
    return Fraction(sum(t * x for t, x in zip(theta, d)), total)
