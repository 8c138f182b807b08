"""Golden scalars: metrics that read outcome indices reproduce pinned records.

Each CLI run below reads its counts through ``ShotTable.marginal``: the
heavy-output count, the Max-Cut objective, the algorithm suite's measured
distributions and the crosstalk assignment matrix.  The sha256 of each
record's ``scalars`` section was recorded before those readers moved from
bitstring keys to index vectors; a change to how outcomes are decoded must
leave every digest as it is.
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
                 "a4b905a6eb47926bad4724f575ba41460413fb525e3dbdaffbb6481a5664e3d5"),
    "crosstalk": (["--device", "starmon5", "--shots", "512"],
                  "0953ded3f2ef61aa0f0c0288e35e3925c223ff609d9dc8db50c5f2878ca3fe10"),
    "qscore": (["--device", "ideal", "--time-limit", "600"],
               "efcb3f6d6d11d3d79327f8d231ba2bbb78115d591b1cd9b274e4b69d135ef2af"),
}


@pytest.mark.parametrize("metric", sorted(GOLDEN))
def test_scalars_digest_is_pinned(metric, tmp_path):
    args, digest = GOLDEN[metric]
    assert cli_main([metric, *args, "--seed", "7", "--out", str(tmp_path)]) == EXIT_OK
    (record,) = RunStore(str(tmp_path)).records()
    assert hashlib.sha256(scalar_section_json(record).encode()).hexdigest() == digest
