"""Byte-for-byte pins on sweep CSVs whose values no BLAS call feeds.

Each digest is the sha256 of the CSV the sweep writes.  A change that moves
any of these bytes (a probe witness, a grid verdict, a kernel norm) must say
so and re-pin the digest with the reason.
"""

import hashlib

import pytest

from walsh_lab.cli import main

GOLDEN = {
    # The probes return the exact constants (1 for hy, N**(1/p - 1/2) for
    # synthesis) and their closed-form witnesses, W_0 and c_n = i**|n|; the
    # digests moved from the random-start ascent's values when the ascent went.
    "probe-hy": (
        ["probe-constants", "--inequality", "hy", "--p-in", "1.5", "--m", "6",
         "--trials", "500", "--seed", "3"],
        "840a0bb398a05191656fb9fe0075e7375a08184bab05ca92dd82da1792854bee",
    ),
    "probe-synthesis": (
        ["probe-constants", "--inequality", "synthesis", "--p-in", "1.25", "--m", "6",
         "--trials", "500", "--seed", "3"],
        "61041a2084e456b9e90b7fad1e2068876a9c8055c53bd64b763f4171fde3a2bb",
    ),
    "probe-hy-m8": (
        ["probe-constants", "--inequality", "hy", "--p-in", "1.5", "--m", "8",
         "--trials", "2000", "--seed", "5"],
        "bdf6c891198493febae1f1e9b50a51d989ff363dd8f8250e6c460a349f7305cb",
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
    # Above MAX_POWER_LEVELS: the exact kernel rows and the one-transform
    # lower ends with their certified upper bounds, at m = 16.
    "opnorm-alternating-m16": (
        ["opnorm", "--symbol", "alternating", "--m", "16", "--p-in", "1,1.5,3",
         "--p-out", "1.5,3,inf"],
        "49487bc8297b5bbd30f4c15b9613aed3d4910b2637a7ea032a808e51c86a9f9b",
    ),
    # Tail norms and their analytic sups above MAX_POWER_LEVELS.
    "tail-decay-alternating-m14": (
        ["tail-decay", "--symbol", "alternating", "--m", "14", "--p-in", "1.5", "--p-out", "3"],
        "96902a46bf31f5e8e760a671d13ce5b3541259ab126c5ea6964b57ff90960e17",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_sweep_csv_bytes_are_pinned(name, tmp_path, capsys):
    argv, digest = GOLDEN[name]
    out = tmp_path / f"{name}.csv"
    assert main(["sweep", *argv, "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
