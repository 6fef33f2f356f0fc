"""`kronecker` stdout pinned byte for byte in every output format.

(2,1) takes the short display of the twelve printed labels, (3,2) and (5,2)
the long one; each format is its own branch of `cmd_kronecker`, and CSV
quotes a label that holds a comma.  The rows
carry every label with its attractor dimensions, so the digests pin the
enumeration order as well as the closed-form numbers and the polynomial.
"""

import hashlib

import pytest

from bbquiver.cli import main

GOLDEN = {
    ("csv", 2, 1): "91a174232a9d39e573abb11222e7742243b2f7a2d6224bb298f3bdb0277999fd",
    ("json", 2, 1): "1dbfdff18bec9034f22cf198b454b572319d8d668e7ebb42b4bf346b042a5293",
    ("latex", 2, 1): "3f25102f3ae243b939f96bc01e03724fc125aca6908c9c5e9e3b8e63e132e883",
    ("text", 2, 1): "69d45900a98d8f737f9810692c60aecd67f40befd26bd2848b4b7a645a78b56e",
    ("csv", 3, 2): "0049812010e1e74a60485d17b3d30074f4b4a8c157b8bc5063488e64ca259388",
    ("json", 3, 2): "a9d166c0f78fbe8d535733e20e7ed8e7d655e5968056d0270cc043d69b8dd3f3",
    ("latex", 3, 2): "6c7cbe48ffe57da8aca18708f2ccf4097f7342549c078cf63e6ba06fa39588a9",
    ("text", 3, 2): "51e2554d8778c078135918d3eb8b0f7bc0430eac228178c86372d86b8f58b5bc",
    ("csv", 5, 2): "c04c581bd5ce47c63e13fc1d735fec81d4f724030e3312cacfba64956d5609d0",
    ("json", 5, 2): "9022b74f93812c8a101b66e50c35853aafce16571c8b11c9bf839507c7eecc98",
    ("latex", 5, 2): "61e0afecd83eb781cc2a9a47777cbf281cfbea75158fa1bb4ad7429427f810ad",
    ("text", 5, 2): "cf125b633fca1e9b10f16b265c29a98a88b94db680bd18c2a6afc37eeee541ce",
}


@pytest.mark.parametrize("fmt,l,r", sorted(GOLDEN))
def test_stdout_is_unchanged(capsys, fmt, l, r):
    code = main(["kronecker", "--l", str(l), "--r", str(r), "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[(fmt, l, r)]


@pytest.mark.parametrize("l,r", [(0, 0), (1, -1), (2, 3)])
def test_invalid_l_r_exit_2(capsys, l, r):
    assert main(["kronecker", "--l", str(l), "--r", str(r), "--format", "json"]) == 2
    assert capsys.readouterr().out == ""
