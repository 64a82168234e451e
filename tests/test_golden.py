"""Byte-for-byte pins on sweep CSVs whose values no BLAS call feeds.

Each digest is the sha256 of the CSV the sweep writes.  A change that moves
any of these bytes (a probe witness, a grid verdict, a kernel norm) must say
so and re-pin the digest with the reason.
"""

import hashlib

import pytest

from walsh_lab.cli import main

GOLDEN = {
    "probe-hy": (
        ["probe-constants", "--inequality", "hy", "--p-in", "1.5", "--m", "6",
         "--trials", "500", "--seed", "3"],
        "a8df04a6f9044cbb8893e0b5ef978fb7f9cc41f0af5ba196f26d732f6cf50c08",
    ),
    "probe-synthesis": (
        ["probe-constants", "--inequality", "synthesis", "--p-in", "1.25", "--m", "6",
         "--trials", "500", "--seed", "3"],
        "c65c7d8693ac935eab452aef96dc84935fe8a5b8553a836e09a63035873fa86f",
    ),
    # The probe ascent's blocks reach their cap of 16 coordinates at m = 8.
    "probe-hy-m8": (
        ["probe-constants", "--inequality", "hy", "--p-in", "1.5", "--m", "8",
         "--trials", "2000", "--seed", "5"],
        "b2acf702b275ca2e423cd6544f10768f40033cc02d9066d5285e87a3f403823b",
    ),
    "spectrum-grid": (
        ["spectrum-grid", "--symbol", "alternating", "--m", "6", "--p-in", "3",
         "--grid=-2,2,-1,1,5"],
        "5d979d7759478970efd38b7a34948173f956f4a16ad6aa9cffef5ad27882fa64",
    ),
    # The batched resolvent path at m = 10; 0, 0.5 and 1 lie on the spectrum.
    "spectrum-grid-reciprocal-m10": (
        ["spectrum-grid", "--symbol", "reciprocal", "--m", "10", "--p-in", "2",
         "--grid=-0.5,1.5,-1,1,5"],
        "d3b950d2253eef6000e3cbc9186d4fa12cb9bd84dbfbf65474bbea770d69420e",
    ),
    "tail-decay": (
        ["tail-decay", "--symbol", "reciprocal", "--m", "10", "--p-in", "1", "--p-out", "1"],
        "23e0c8ceec9da27eaca7f5295bff45c8548a38b1331365e62aeaa6bd3197ace0",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_sweep_csv_bytes_are_pinned(name, tmp_path, capsys):
    argv, digest = GOLDEN[name]
    out = tmp_path / f"{name}.csv"
    assert main(["sweep", *argv, "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
