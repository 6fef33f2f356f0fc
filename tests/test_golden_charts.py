"""`cells` and `normal-form` JSON output pinned byte for byte.

Which matrix entries carry the stars depends on the basis order and on the
pivoting, so the digests pin both, along with the emitted fixed entries.
K3 (2,3) and the 5-leaf star include classes whose unit lift fails and that
fall back to strategy="random".
"""

import hashlib
import json

import pytest

import bbquiver as bq
from bbquiver.cli import main


def star(leaves):
    return bq.Quiver.from_arrows(("c", *(f"p{k}" for k in range(1, leaves + 1))),
                                 [(f"f{k}", "c", f"p{k}") for k in range(1, leaves + 1)])


CASES = {
    "K3 (2,3)": (bq.kronecker_quiver(3), "2,3", "1,0"),
    "K4 (2,5)": (bq.kronecker_quiver(4), "2,5", "1,0"),
    "star5": (star(5), "2,1,1,1,1,1", "1,0,0,0,0,0"),
}

GOLDEN = {
    ("cells", "K3 (2,3)"): "9dab78d2c4000ca46a0ec1c9c9b9e1573d48bc23d08b899df6c2dd7e3ec01a79",
    ("cells", "K4 (2,5)"): "ec360fe3d39479b4dc5618a13b3bcdf47736fd08c28b705f12c9713768a3d3e5",
    ("cells", "star5"): "32cf521b26572f29b354cbe7db78c50c2b5ff74c5592210f9b05ca954d3c5822",
    ("normal-form", "K3 (2,3)"): "8026707431b5958d81be780e35823cd9ad7d7948ed399efe4f55b3ac17d23c57",
    ("normal-form", "K4 (2,5)"): "953da368e79aa9bcf810065b2cb41ce09167b34c2e2ac224bec70f98992d7902",
}


@pytest.mark.parametrize("command,case", sorted(GOLDEN))
def test_stdout_is_unchanged(capsys, tmp_path, command, case):
    quiver, dim, theta = CASES[case]
    path = tmp_path / "quiver.json"
    path.write_text(json.dumps(quiver.to_dict()))
    code = main([command, "--quiver", str(path), "--dim", dim, "--theta", theta,
                 "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[(command, case)]


def test_star5_needs_the_random_fallback():
    quiver, _, _ = CASES["star5"]
    w = bq.generic_rank1_weights(quiver)
    (beta,) = bq.enumerate_compatible(quiver, w, (2, 1, 1, 1, 1, 1), (1, 0, 0, 0, 0, 0))
    with pytest.raises(bq.UnsupportedError):
        bq.build_fixed_rep(quiver, w, beta, "unit")
