"""The covering walk keeps a fill that the Euler bound or the existence test
drops only when `rejected` asks for it (`fixed-points --filter off`)."""

import tracemalloc

import pytest

import bbquiver as bq


@pytest.mark.slow
def test_filter_on_keeps_no_dropped_fill():
    """K16 at d = (1, 15), theta = (1, 0), is Gr(15, 16) = P^15 with 16 fixed points.
    The walk reaches 2^16 supports, and most of their fills break the Euler
    bound.  Its traced peak is about 4.6 MiB on Python 3.11, against 6.1 MiB
    when every dropped fill is kept."""
    k16 = bq.kronecker_quiver(16)
    w = bq.generic_rank1_weights(k16)
    tracemalloc.start()
    try:
        classes = bq.enumerate_compatible(k16, w, (1, 15), (1, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(classes) == 16
    assert peak < 5.3 * 2**20, f"{peak / 2**20:.2f} MiB"

