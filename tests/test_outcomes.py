"""Each protocol result states its own share of a run record.

For every CLI metric, the library entry point called at the CLI's seed
gives, through ``outcome()``, exactly the record's scalars (names, units and
value types) and flags (in order), its timing keys and its raw payloads.  A
fake clock stands in for ``time.perf_counter`` in the system and application
modules, so CLOPS's measured classical time and Q-score's elapsed times
repeat between the CLI run and the library run.
"""
import contextlib
import dataclasses
import io
import itertools
import json
import types

import pytest

from qbench import application, cli, system
from qbench.application import (AppSuiteConfig, AppSuiteResult, QScoreConfig, run_app_suite,
                                run_qscore)
from qbench.backends import LocalSimBackend
from qbench.component import (CalibrationConfig, CalibrationSummary, CoherenceConfig,
                              CoherenceResult, CrosstalkConfig, RBConfig, RBResult,
                              ReadoutAssignment, ReadoutConfig, measure_crosstalk,
                              measure_readout, run_calibration, run_rb, t1_experiment,
                              t2hahn_experiment, t2star_experiment)
from qbench.device import ideal_device, starmon5_reference_model
from qbench.fitting import FitResult
from qbench.reporting import Outcome, RunStore, scalar
from qbench.system import (CLOPSConfig, QVConfig, StabilityConfig, run_clops,
                           run_quantum_volume, run_stability)

SEED = 7
DEVICES = {"starmon5": starmon5_reference_model, "ideal": lambda: ideal_device(5)}


@dataclasses.dataclass(frozen=True)
class SmallQScoreConfig(QScoreConfig):
    """Every size, on one graph with a short search."""

    graphs_per_size: int = 1
    max_evaluations: int = 8


def _all(backend, experiment, cfg):
    return [experiment(backend, q, cfg, seed=SEED) for q in range(backend.n_qubits)]


# each metric at small settings: its CLI arguments, and the library calls that run it
CASES = {
    "calibrate": (["calibrate", "--shots", "32"],
                  lambda b: [run_calibration(b, CalibrationConfig(shots=32), seed=SEED)]),
    "rb": (["rb", "--shots", "32"],
           lambda b: [run_rb(b, RBConfig(shots=32), q, seed=SEED) for q in range(b.n_qubits)]),
    "rb --qubit": (["rb", "--qubit", "3", "--shots", "32"],
                   lambda b: [run_rb(b, RBConfig(shots=32), 3, seed=SEED)]),
    "readout": (["readout", "--shots", "32"],
                lambda b: [measure_readout(b, ReadoutConfig(shots=32), seed=SEED)]),
    "crosstalk": (["crosstalk", "--shots", "32"],
                  lambda b: [measure_crosstalk(b, CrosstalkConfig(shots=32), seed=SEED)]),
    "coherence t1": (["coherence", "t1", "--shots", "32"],
                     lambda b: _all(b, t1_experiment, CoherenceConfig(shots=32))),
    "coherence t2star": (["coherence", "t2star", "--shots", "32"],
                         lambda b: _all(b, t2star_experiment, CoherenceConfig(shots=32))),
    "coherence t2hahn --qubit": (
        ["coherence", "t2hahn", "--qubit", "1", "--shots", "32"],
        lambda b: [t2hahn_experiment(b, 1, CoherenceConfig(shots=32), seed=SEED)]),
    "qv": (["qv", "--circuits", "3", "--shots", "16"],
           lambda b: [run_quantum_volume(b, QVConfig(n_circuits=3, shots=16), seed=SEED)]),
    "clops": (["clops", "--templates", "2", "--updates", "2", "--shots", "8"],
              lambda b: [run_clops(b, CLOPSConfig(m_templates=2, k_updates=2, shots=8),
                                   measured_qv=4, seed=SEED)]),
    "stability": (["stability", "--repeats", "3", "--shots", "32"],
                  lambda b: [run_stability(b, StabilityConfig(repeats=3, shots=32), seed=SEED)]),
    "qscore": (["qscore", "--shots", "16"],
               lambda b: [run_qscore(b, SmallQScoreConfig(shots=16), seed=SEED)]),
    "appsuite": (["appsuite", "--shots", "16"],
                 lambda b: [AppSuiteResult(tuple(run_app_suite(b, AppSuiteConfig(shots=16),
                                                               seed=SEED)))]),
}


@pytest.fixture
def restart_clock(monkeypatch):
    """A call that restarts a fake ``perf_counter``, 1 ms a tick, in system and application."""
    def restart():
        ticks = itertools.count()
        clock = types.SimpleNamespace(perf_counter=lambda: next(ticks) * 1e-3)
        monkeypatch.setattr(system, "time", clock)
        monkeypatch.setattr(application, "time", clock)
    return restart


def test_cases_cover_every_command():
    assert {argv[0] for argv, _ in CASES.values()} == set(cli._COMMANDS)


def _merged(results) -> Outcome:
    """The outcomes of one run's results, in the order the record takes them."""
    out = Outcome()
    for res in results:
        part = res.outcome()
        out.scalars.update(part.scalars)
        out.flags.extend(part.flags)
        out.timing.update(part.timing)
        out.raw.update(part.raw)
    return out


@pytest.mark.parametrize("device", sorted(DEVICES))
@pytest.mark.parametrize("case", sorted(CASES))
def test_outcome_is_the_record(case, device, tmp_path, monkeypatch, restart_clock):
    monkeypatch.setitem(cli._COMMANDS, "qscore", (cli._COMMANDS["qscore"][0], SmallQScoreConfig))
    argv, library_run = CASES[case]
    restart_clock()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.cli_main([*argv, "--device", device, "--seed", str(SEED),
                             "--out", str(tmp_path)])
    (rec,) = RunStore(str(tmp_path)).records()
    restart_clock()
    out = _merged(library_run(LocalSimBackend(DEVICES[device](), drift_seed=SEED)))

    # value types included: json writes an int as 4 and a float as 4.0
    assert json.dumps(out.scalars, sort_keys=True) == json.dumps(rec.scalars, sort_keys=True)
    assert out.flags == rec.flags
    assert sorted(out.timing) == sorted(rec.timing)
    skipped_only = all(flag.endswith("_skipped") for flag in out.flags)
    assert code == (cli.EXIT_OK if skipped_only else cli.EXIT_METRIC_INVALID)
    assert len(rec.raw_refs) == len(out.raw)
    for ref, (name, payload) in zip(rec.raw_refs, out.raw.items()):
        text = (tmp_path / ref).read_text()
        if isinstance(payload, str):  # text sits at the run directory's root
            assert (ref, text) == (name, payload)
        else:
            assert ref.startswith(f"raw/{name}/") and json.loads(text) == payload


def test_stability_names_the_qubits_it_ran():
    res = run_stability(LocalSimBackend(starmon5_reference_model(), drift_seed=SEED),
                        StabilityConfig(repeats=3, shots=32), seed=SEED, qubits=[3])
    assert sorted(res.outcome().scalars) == ["flagged_points", "max_rel_std", "rel_std_q3"]


# --- flags that the seeds above may not reach, from hand-built results -----------

def _fit(valid: bool) -> FitResult:
    return FitResult({"T": 10.0}, {"T": 1.0}, 0.0, valid, 3, () if valid else ("unidentifiable",))


def _rb(q: int, valid: bool) -> RBResult:
    return RBResult(q, (1, 20), (0.01, 0.05), _fit(valid), 0.002, 0.999, valid)


def _coherence(kind: str, q: int, valid: bool) -> CoherenceResult:
    return CoherenceResult(q, kind, (0.0, 1.0), (1.0, 0.9), _fit(valid), 10.0, valid)


def test_invalid_fits_flag_their_qubit():
    assert _rb(3, False).outcome() == Outcome(
        scalars={"f1q_q3": scalar(0.999 * 100, "percent"),
                 "epc_q3": scalar(0.002, "error_per_clifford")},
        flags=["q3_fit_invalid"])
    assert _rb(3, True).outcome().flags == []
    for kind in ("t1", "t2star", "t2hahn"):
        assert _coherence(kind, 2, False).outcome() == Outcome(
            scalars={f"{kind}_q2": scalar(10.0, "microsecond")}, flags=["q2_fit_invalid"])
        assert _coherence(kind, 2, True).outcome().flags == []


def _calibration() -> CalibrationSummary:
    """Two qubits: qubit 0's RB fit and qubit 1's T1 and echo fits invalid,
    crosstalk skipped."""
    valid = {(0, "rb"): False, (1, "t1"): False, (1, "t2hahn"): False}
    return CalibrationSummary(
        rb=[_rb(q, valid.get((q, "rb"), True)) for q in range(2)],
        readout=ReadoutAssignment((((0.9, 0.1), (0.2, 0.8)), ((1.0, 0.0), (0.0, 1.0)))),
        crosstalk=None,
        t1=[_coherence("t1", q, valid.get((q, "t1"), True)) for q in range(2)],
        t2star=[_coherence("t2star", q, True) for q in range(2)],
        t2hahn=[_coherence("t2hahn", q, valid.get((q, "t2hahn"), True)) for q in range(2)],
        q_factor=500.0,
    )


CALIBRATION_FLAGS = ["q0_rb_invalid", "q1_t1_invalid", "q1_t2hahn_invalid", "crosstalk_skipped"]


def test_calibration_flags_each_fit_by_name_and_skipped_crosstalk():
    out = _calibration().outcome()
    assert out.flags == CALIBRATION_FLAGS
    assert sorted(out.scalars) == ["f1q_q0", "f1q_q1", "fro_q0", "fro_q1", "q_factor",
                                   "t1_q0", "t1_q1", "t2hahn_q0", "t2hahn_q1",
                                   "t2star_q0", "t2star_q1"]
    assert out.scalars["fro_q0"]["value"] == pytest.approx(85.0)


def test_cli_records_a_hand_built_calibration(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_calibration", lambda *args, **kwargs: _calibration())
    code = cli.cli_main(["calibrate", "--device", "ideal", "--ideal-width", "2",
                         "--out", str(tmp_path)])
    assert code == cli.EXIT_METRIC_INVALID
    (rec,) = RunStore(str(tmp_path)).records()
    assert rec.flags == CALIBRATION_FLAGS
    assert rec.scalars == json.loads(json.dumps(_calibration().outcome().scalars))
    # the console shows every scalar and the flags
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" = ")[0] for line in lines[:-1]] == list(_calibration().outcome().scalars)
    assert lines[-1] == "flags: " + " ".join(CALIBRATION_FLAGS)
