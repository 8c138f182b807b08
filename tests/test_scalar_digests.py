"""Golden scalars: metrics that read outcome indices reproduce pinned records.

Each CLI run below reads its counts through ``ShotTable.marginal``: the
heavy-output count, the Max-Cut objective, the algorithm suite's measured
distributions and the crosstalk assignment matrix.  The sha256 of each
record's ``scalars`` section was recorded before those readers moved from
bitstring keys to index vectors; a change to how outcomes are decoded must
leave every digest as it is.

The appsuite digest was re-pinned when the pure-state evolver moved its
pending 2x2 maps from numpy arrays to Python complex scalars: that changes
the ideal reference distributions by rounding only, and ``qft_w2`` moved by
one ulp (0.809027777777778 -> 0.8090277777777778).  The values recorded
before that change are kept below and must still hold to 1e-12 relative.

The calibrate digest (RB, T1/T2*/T2 echo, readout and crosstalk) was
recorded before the density path multiplied long pending chains pairwise
and cached layer maps across circuits, and before the outcome draw left
``Generator.choice`` for the same inverse CDF; both must leave it as it is.
"""
import hashlib

import pytest

from helpers import scalar_section_json
from qbench.cli import EXIT_OK, cli_main
from qbench.reporting import RunStore

GOLDEN = {
    "qv": (["--device", "starmon5", "--max-width", "3", "--circuits", "2"],
           "4b3112254b17007b3877add53920b48946eaf652cd0e3d47b030e4b4e7fca938"),
    "appsuite": (["--device", "starmon5", "--max-width", "3", "--shots", "256"],
                 "7ff5c241df3946180bb2f620c4ed9e29bdb7c3ef8fb3ce0153bad2b7a7e280fa"),
    "crosstalk": (["--device", "starmon5", "--shots", "512"],
                  "0953ded3f2ef61aa0f0c0288e35e3925c223ff609d9dc8db50c5f2878ca3fe10"),
    "qscore": (["--device", "ideal", "--time-limit", "600"],
               "efcb3f6d6d11d3d79327f8d231ba2bbb78115d591b1cd9b274e4b69d135ef2af"),
    "calibrate": (["--device", "starmon5"],
                  "8d52475cc1c78630aeaac9e79c9fc7a801c8fe16a29d6e0c6d80857dae1faec6"),
}

# appsuite scalars recorded before the scalar 2x2 maps, at the pinned settings
APPSUITE_BEFORE = {
    "bv_w2": 0.9635416666666666,
    "bv_w3": 0.9360119047619048,
    "dj_w2": 0.9661458333333334,
    "dj_w3": 0.9374999999999999,
    "qft_w2": 0.809027777777778,
    "qft_w3": 0.2648809523809526,
}


@pytest.mark.parametrize("metric", sorted(GOLDEN))
def test_scalars_digest_is_pinned(metric, tmp_path):
    args, digest = GOLDEN[metric]
    assert cli_main([metric, *args, "--seed", "7", "--out", str(tmp_path)]) == EXIT_OK
    (record,) = RunStore(str(tmp_path)).records()
    assert hashlib.sha256(scalar_section_json(record).encode()).hexdigest() == digest


def test_appsuite_scalars_within_rounding_of_earlier_values(tmp_path):
    args, _ = GOLDEN["appsuite"]
    assert cli_main(["appsuite", *args, "--seed", "7", "--out", str(tmp_path)]) == EXIT_OK
    (record,) = RunStore(str(tmp_path)).records()
    got = {k: v["value"] for k, v in record.scalars.items()}
    assert got == pytest.approx(APPSUITE_BEFORE, rel=1e-12, abs=0)
