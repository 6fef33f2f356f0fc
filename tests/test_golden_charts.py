"""`cells` and `normal-form` JSON output pinned byte for byte.

Which matrix entries carry the stars depends on the basis order and on the
pivoting, so the digests pin both, along with the emitted fixed entries.
K3 (2,3), K4 (2,5), K3 (3,4) and the 5-leaf star include classes that are
not thin (some multiplicity is 2 or more).  Their unit fill is not tried,
so `build_fixed_rep` returns a seeded random fill there, and
`choose_complements` reduces every degree of it.  K3 (3,4) has 15 such
classes of its 65, the most of these inputs.
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
    "K3 (3,4)": (bq.kronecker_quiver(3), "3,4", "1,0"),
    "star5": (star(5), "2,1,1,1,1,1", "1,0,0,0,0,0"),
}

GOLDEN = {
    ("cells", "K3 (2,3)"): "016fa99c7c7947e1f7b8056efebdf64d9140fe7347151aad4264e41696372660",
    ("cells", "K4 (2,5)"): "2644ee5ca266df6d045acc08b3c6b2aa0969349e6550c5dd288ee3bfad9ac353",
    ("cells", "K3 (3,4)"): "8c6eda8a6d8989f305da1c8c0743a945a6ed6c8f962006033e71830ab3d9a858",
    ("cells", "star5"): "815b8098d869e596e3d5df0cd8a08c743f5a6fae501fa4ec35add3b3947acb37",
    ("normal-form", "K3 (2,3)"): "9e477a3b9bb136590f792b0b481d61b023be792e12cb385a676d81a841065284",
    ("normal-form", "K4 (2,5)"): "298382f9784a4aeba3c5e683f899d520a29e41db35388566c53651b8e37342ee",
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
    rep = bq.build_fixed_rep(quiver, w, beta)
    assert any(x not in (0, 1) for blk in rep.blocks.values() for row in blk for x in row)
