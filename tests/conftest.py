import pytest

import bbquiver as bq


@pytest.fixture(scope="session")
def k3():
    return bq.kronecker_quiver(3)


@pytest.fixture(scope="session")
def w3(k3):
    return bq.generic_rank1_weights(k3)


@pytest.fixture(scope="session")
def k3_classes(k3, w3):
    return bq.enumerate_compatible(k3, w3, (2, 3), (1, 0))


@pytest.fixture(scope="session")
def k3_components(k3, w3, k3_classes):
    return [bq.analyze_component(k3, w3, beta) for beta in k3_classes]


@pytest.fixture(scope="session")
def k3_lifts(k3, w3, k3_classes):
    return [bq.build_fixed_rep(k3, w3, beta) for beta in k3_classes]


def type1_beta(k3, w3, digits):
    """Covering class of a 4-digit label string m1 m n n1."""
    m1, m, n, n1 = (int(c) for c in digits)
    lab = bq.Label1(2, 1, m, (m1,), n, (n1,))
    return bq.label_to_beta(lab, w3, k3)


@pytest.fixture(scope="session")
def star_quiver():
    """Five subspace-style leaves under a dimension-2 center (center -> leaf)."""
    return bq.Quiver.from_arrows(
        ("c", "p1", "p2", "p3", "p4", "p5"),
        [(f"f{k}", "c", f"p{k}") for k in range(1, 6)],
    )
