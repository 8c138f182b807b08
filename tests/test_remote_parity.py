"""Every CLI metric gives the same scalars over the remote path as on the
simulator it serves.

The client reads the served device (``GET /device``), so it ranks, routes
and checks circuits exactly as the simulator does, and the server runs each
batch at the seed the client sends.  Only CLOPS differs, by design: over
the remote path its quantum window is measured, not modelled.
"""
import dataclasses
import json

import pytest

from qbench import cli
from qbench.application import QScoreConfig
from qbench.backends import LocalSimBackend
from qbench.cli import cli_main
from qbench.device import ideal_device, starmon5_reference_model
from qbench.remote import MockServer
from qbench.reporting import RunStore

SEED = 7
DEVICES = {"starmon5": starmon5_reference_model, "ideal": lambda: ideal_device(5)}
# each metric at small settings
RUNS = [
    ["calibrate", "--shots", "32"],
    ["rb", "--qubit", "3", "--shots", "32"],
    ["readout", "--shots", "32"],
    ["crosstalk", "--shots", "32"],
    ["coherence", "t1", "--shots", "32"],
    ["coherence", "t2star", "--shots", "32"],
    ["coherence", "t2hahn", "--shots", "32"],
    ["qv", "--circuits", "3", "--shots", "16"],
    ["qscore", "--shots", "16"],
    ["appsuite", "--shots", "16"],
    ["stability", "--repeats", "3", "--shots", "32"],
]


@dataclasses.dataclass(frozen=True)
class SmallQScoreConfig(QScoreConfig):
    """Every size, on one graph with a short search: one HTTP round trip per evaluation."""

    graphs_per_size: int = 1
    max_evaluations: int = 8


@pytest.fixture(scope="module", params=sorted(DEVICES))
def served(request):
    """A device name and the URL of a server running that device's simulator."""
    with MockServer(LocalSimBackend(DEVICES[request.param](), drift_seed=SEED)) as srv:
        yield request.param, srv.url


def _run(argv: list[str], out: str) -> tuple[int, object]:
    code = cli_main([*argv, "--seed", str(SEED), "--out", out])
    (rec,) = RunStore(out).records()
    return code, rec


@pytest.mark.parametrize("argv", RUNS, ids=[r[0] if r[0] != "coherence" else " ".join(r[:2])
                                            for r in RUNS])
def test_remote_scalars_match_simulator(served, argv, tmp_path, monkeypatch):
    monkeypatch.setitem(cli._COMMANDS, "qscore", (cli.cmd_qscore, SmallQScoreConfig))
    device, url = served
    sim_code, sim = _run([*argv, "--device", device], str(tmp_path / "sim"))
    remote_code, remote = _run([*argv, "--backend", "remote", "--remote-url", url],
                               str(tmp_path / "remote"))
    assert remote_code == sim_code
    assert remote.flags == sim.flags
    assert json.dumps(remote.scalars, sort_keys=True) == json.dumps(sim.scalars, sort_keys=True)
    assert (sim.backend.pop("kind"), remote.backend.pop("kind")) == ("LocalSimBackend",
                                                                     "RemoteBackend")
    assert remote.backend == sim.backend


def test_clops_over_remote_runs_the_same_layers(served, tmp_path):
    argv = ["clops", "--templates", "2", "--updates", "2", "--shots", "8"]
    device, url = served
    sim_code, sim = _run([*argv, "--device", device], str(tmp_path / "sim"))
    remote_code, remote = _run([*argv, "--backend", "remote", "--remote-url", url],
                               str(tmp_path / "remote"))
    assert sim_code == remote_code == cli.EXIT_OK
    assert remote.scalars["layers_d"] == sim.scalars["layers_d"]
    # a remote record's device source is the server alone
    for source in ("device", "ideal_width"):
        sim.config.pop(source, None)
    assert remote.config == {**sim.config, "backend": "remote", "remote_url": url}
