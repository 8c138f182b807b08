"""The benchmark's own checks.

    python3 -m pytest -q perfbench/test_perfbench.py

Tracing must not change what runs: a traced protocol run gives the same
scalars digest as an untraced run at the same seed, and leaves no patch
behind.  Without the qbench sources the benchmark exits non-zero and prints
no result.
"""
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import qbench.backends  # noqa: E402
import qbench.simulator  # noqa: E402
import qbench.system  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_matches_untraced_digest(name):
    workload = WORKLOADS[name]
    seed = 7001
    untraced = run.protocol_run(workload, seed, f"test-{name}-untraced")
    originals = (qbench.backends.run_noisy, qbench.system.submit_and_wait,
                 qbench.simulator.ShotTable.marginal)
    tracer = Tracer()
    with tracer:
        traced = run.protocol_run(workload, seed, f"test-{name}-traced")
    assert (qbench.backends.run_noisy, qbench.system.submit_and_wait,
            qbench.simulator.ShotTable.marginal) == originals
    assert untraced["failures"] == [] and traced["failures"] == []
    assert untraced["digest"] is not None
    assert traced["digest"] == untraced["digest"]
    assert any(span[0] == "simulator.run_noisy" for span in tracer.spans)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "qv_starmon5", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
