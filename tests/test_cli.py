"""Command-line behavior: exit codes, determinism, artifacts."""
import dataclasses
import hashlib
import json
from datetime import datetime

import numpy as np
import pytest

from helpers import scalar_section_json
from qbench import cli, component
from qbench.application import AppSuiteConfig, QScoreConfig
from qbench.backends import LocalSimBackend
from qbench.cli import EXIT_METRIC_INVALID, EXIT_OK, EXIT_USAGE, build_parser, cli_main
from qbench.component import (CalibrationConfig, CoherenceConfig, CrosstalkConfig, RBConfig,
                              ReadoutConfig)
from qbench.device import ideal_device, save_device, starmon5_reference_model
from qbench.remote import MockServer
from qbench.reporting import RunStore
from qbench.system import CLOPSConfig, QVConfig, StabilityConfig


def _scalar_sections(path: str, metric: str) -> list[str]:
    out = []
    for rec in RunStore(path).records():
        if rec.metric == metric:
            out.append(scalar_section_json(rec))
    return out


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert cli_main(["rb", "--definitely-not-a-flag"]) == EXIT_USAGE

    def test_unknown_command_is_usage_error(self):
        assert cli_main(["frobnicate"]) == EXIT_USAGE

    def test_missing_device_file(self, tmp_path):
        code = cli_main(["rb", "--device", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("text", ["{not json", '{"qubits": 5}', "[]", '{"p2": 0.1}'])
    def test_malformed_device_file(self, tmp_path, text):
        path = tmp_path / "device.json"
        path.write_text(text)
        code = cli_main(["rb", "--device", str(path), "--out", str(tmp_path)])
        assert code == EXIT_USAGE

    def test_flagged_metric_exits_one(self, tmp_path):
        # infinite-coherence device makes the relaxation fit unidentifiable
        code = cli_main(
            ["coherence", "t1", "--device", "ideal", "--qubit", "0",
             "--shots", "512", "--out", str(tmp_path), "--seed", "3"]
        )
        assert code == EXIT_METRIC_INVALID

    @pytest.mark.parametrize("seed", ["2", "3"])
    def test_t2star_without_dephasing_exits_one(self, tmp_path, seed):
        # no decay over the 24 us scan: T is not identified, however finite
        code = cli_main(
            ["coherence", "t2star", "--device", "ideal", "--qubit", "0",
             "--shots", "512", "--out", str(tmp_path), "--seed", seed]
        )
        assert code == EXIT_METRIC_INVALID

    def test_failed_remote_job_exits_one(self, tmp_path, capsys, monkeypatch):
        # the served backend loses its device mid-run, so the server fails the job
        with MockServer(LocalSimBackend(starmon5_reference_model())) as srv:
            def lost(*args):
                raise RuntimeError("device lost")

            monkeypatch.setattr(srv.backend, "run", lost)
            code = cli_main(["clops", "--backend", "remote", "--remote-url", srv.url,
                             "--templates", "2", "--updates", "1", "--out", str(tmp_path)])
        assert code == EXIT_METRIC_INVALID
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "device lost" in err[0]
        assert RunStore(str(tmp_path)).records() == []

    def test_clops_wider_than_device_is_classified(self, tmp_path, capsys):
        path = tmp_path / "one_qubit.json"
        save_device(ideal_device(1), str(path))
        code = cli_main(["clops", "--device", str(path), "--templates", "2", "--updates", "1",
                         "--out", str(tmp_path)])
        assert code == EXIT_METRIC_INVALID
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_qscore_scores_the_sizes_that_fit(self, tmp_path):
        path = tmp_path / "three_qubits.json"
        save_device(ideal_device(3), str(path))
        code = cli_main(["qscore", "--device", str(path), "--shots", "256", "--seed", "1",
                         "--out", str(tmp_path)])
        assert code == EXIT_OK
        rec = [r for r in RunStore(str(tmp_path)).records() if r.metric == "qscore"][-1]
        assert rec.flags == ["n4_skipped", "n5_skipped"]
        assert sorted(rec.scalars) == ["beta_n2", "beta_n3", "qscore"]
        assert rec.scalars["qscore"]["value"] == 3

    def test_calibrate_wider_than_crosstalk_cap_skips_crosstalk(self, tmp_path):
        path = tmp_path / "seven_qubits.json"
        save_device(ideal_device(7), str(path))
        code = cli_main(["calibrate", "--device", str(path), "--shots", "64", "--seed", "1",
                         "--out", str(tmp_path)])
        rec = [r for r in RunStore(str(tmp_path)).records() if r.metric == "calibrate"][-1]
        assert "crosstalk_skipped" in rec.flags
        assert "crosstalk_max_row_l1" not in rec.scalars
        assert "f1q_q6" in rec.scalars
        # on a noiseless device only the unidentifiable decay fits fail the run
        fit_flags = [f for f in rec.flags if f != "crosstalk_skipped"]
        assert all(f.endswith("_invalid") for f in fit_flags)
        assert code == (EXIT_METRIC_INVALID if fit_flags else EXIT_OK)


# exit code and flags of each command at seed 7, recorded before the record
# envelope moved out of the commands into cli_main
ENVELOPE_CASES = [
    (["rb", "--device", "ideal", "--ideal-width", "2", "--shots", "256"],
     EXIT_METRIC_INVALID, ["q0_fit_invalid", "q1_fit_invalid"]),
    (["rb", "--qubit", "0", "--shots", "128"], EXIT_OK, []),
    (["qv", "--max-width", "3", "--circuits", "2", "--shots", "20"],
     EXIT_METRIC_INVALID, ["no_depth_passed"]),
    (["appsuite", "--device", "ideal", "--ideal-width", "2", "--max-width", "3", "--shots", "64"],
     EXIT_OK, ["bv_w3_skipped", "dj_w3_skipped", "qft_w3_skipped"]),
    (["qscore", "--device", "ideal", "--ideal-width", "2", "--shots", "64"],
     EXIT_OK, ["n3_skipped", "n4_skipped", "n5_skipped"]),
    (["calibrate", "--device", "ideal", "--ideal-width", "1", "--shots", "64"],
     EXIT_METRIC_INVALID, ["q0_rb_invalid", "q0_t1_invalid", "q0_t2star_invalid",
                           "q0_t2hahn_invalid"]),
    (["coherence", "t2hahn", "--device", "ideal", "--ideal-width", "2", "--qubit", "1",
      "--shots", "128"], EXIT_METRIC_INVALID, ["q1_fit_invalid"]),
    (["coherence", "t1", "--qubit", "2", "--shots", "256"], EXIT_OK, []),
    (["readout", "--device", "ideal", "--ideal-width", "2", "--shots", "64"], EXIT_OK, []),
    (["crosstalk", "--device", "ideal", "--ideal-width", "2", "--shots", "64"], EXIT_OK, []),
    (["clops", "--device", "ideal", "--ideal-width", "2", "--templates", "2", "--updates", "1"],
     EXIT_OK, []),
    (["stability", "--device", "ideal", "--ideal-width", "2", "--repeats", "3", "--shots", "64"],
     EXIT_OK, []),
]


class TestRunEnvelope:
    """Every metric command writes one record; any flag but a ``*_skipped``
    one exits 1."""

    @pytest.mark.parametrize("argv, code, flags", ENVELOPE_CASES,
                             ids=[" ".join(c[0]) for c in ENVELOPE_CASES])
    def test_exit_code_and_flags(self, tmp_path, argv, code, flags):
        assert cli_main([*argv, "--seed", "7", "--out", str(tmp_path)]) == code
        (rec,) = RunStore(str(tmp_path)).records()
        assert rec.flags == flags
        metric = "_".join(argv[:2]) if argv[0] == "coherence" else argv[0]
        assert rec.metric == metric and rec.seed == 7

    @pytest.mark.parametrize("argv", [c[0] for c in ENVELOPE_CASES],
                             ids=[" ".join(c[0]) for c in ENVELOPE_CASES])
    def test_record_is_stamped_in_utc(self, tmp_path, argv):
        cli_main([*argv, "--out", str(tmp_path)])
        (rec,) = RunStore(str(tmp_path)).records()
        started = datetime.fromisoformat(rec.started_at)
        finished = datetime.fromisoformat(rec.finished_at)
        assert started.utcoffset().total_seconds() == 0
        assert started <= finished

    def test_failed_run_writes_no_record(self, tmp_path, monkeypatch):
        def lost(*args, **kwargs):
            raise ValueError("device lost")

        monkeypatch.setattr(cli, "run_rb", lost)
        assert cli_main(["rb", "--qubit", "0", "--out", str(tmp_path)]) == EXIT_METRIC_INVALID
        assert RunStore(str(tmp_path)).records() == []


class TestCountArguments:
    """Counts must be positive integers; anything else is a usage error."""

    @pytest.mark.parametrize("argv", [
        ["readout", "--shots", "0"],
        ["readout", "--shots", "-5"],
        ["qv", "--circuits", "0"],
        ["qv", "--max-width", "0"],
        ["clops", "--templates", "0"],
        ["clops", "--updates", "-1"],
        ["clops", "--qv", "0"],
        ["stability", "--repeats", "0"],
        ["appsuite", "--max-width", "-2"],
        ["qscore", "--ideal-width", "0"],
        ["rb", "--shots", "many"],
    ])
    def test_non_positive_count_is_usage_error(self, tmp_path, capsys, argv):
        assert cli_main([*argv, "--device", "ideal", "--out", str(tmp_path)]) == EXIT_USAGE
        assert "Traceback" not in capsys.readouterr().err
        assert RunStore(str(tmp_path)).records() == []

    @pytest.mark.parametrize("command", ["qv", "appsuite"])
    def test_max_width_one_is_usage_error(self, tmp_path, capsys, command):
        """Widths start at 2, so a maximum of 1 would run nothing."""
        argv = [command, "--max-width", "1", "--device", "ideal", "--seed", "3"]
        assert cli_main([*argv, "--out", str(tmp_path)]) == EXIT_USAGE
        assert "max_width 1" in capsys.readouterr().err
        assert RunStore(str(tmp_path)).records() == []

    @pytest.mark.parametrize("given, used", [(None, 4096), ("1", 1), ("3", 3)])
    def test_readout_shots(self, tmp_path, monkeypatch, given, used):
        """The record's ``shots`` is the count the batch ran at, given or not."""
        seen = []
        submit_and_wait = component.submit_and_wait

        def spy(backend, circuits, shots, seed):
            seen.append(shots)
            return submit_and_wait(backend, circuits, shots, seed)

        monkeypatch.setattr(component, "submit_and_wait", spy)
        extra = [] if given is None else ["--shots", given]
        assert cli_main(["readout", "--device", "ideal", "--ideal-width", "2", *extra,
                         "--out", str(tmp_path)]) == EXIT_OK
        assert seen == [used]
        (rec,) = RunStore(str(tmp_path)).records()
        assert rec.config["shots"] == used


# each metric sub-command with its required arguments only, and its library config
METRIC_CONFIGS = [
    (["calibrate"], CalibrationConfig),
    (["rb"], RBConfig),
    (["readout"], ReadoutConfig),
    (["crosstalk"], CrosstalkConfig),
    (["coherence", "t1"], CoherenceConfig),
    (["qv"], QVConfig),
    (["clops"], CLOPSConfig),
    (["stability"], StabilityConfig),
    (["qscore"], QScoreConfig),
    (["appsuite"], AppSuiteConfig),
]
# options that are not protocol settings: device source, seed, output and targets
RUN_OPTIONS = {"command", "backend", "device", "ideal_width", "remote_url", "seed", "out", "kind",
               "qubit", "qv"}


class TestLibraryDefaults:
    """The command line states no protocol default: an unset option resolves
    to the library config's own value, and the record says what ran."""

    @pytest.mark.parametrize("argv, config_type", METRIC_CONFIGS,
                             ids=[" ".join(c[0]) for c in METRIC_CONFIGS])
    def test_unset_options_resolve_to_library_defaults(self, argv, config_type):
        args = build_parser().parse_args(argv)
        fields = {f.name for f in dataclasses.fields(config_type)}
        assert set(vars(args)) <= RUN_OPTIONS | fields
        assert all(getattr(args, name, None) is None for name in fields)
        assert cli.resolve_config(args) == config_type()

    def test_simulator_record_states_only_what_ran(self, tmp_path):
        assert cli_main(["qv", "--max-width", "2", "--circuits", "2", "--seed", "3",
                         "--out", str(tmp_path)]) in (EXIT_OK, EXIT_METRIC_INVALID)
        (rec,) = RunStore(str(tmp_path)).records()
        assert rec.config == {**dataclasses.asdict(QVConfig(n_circuits=2, max_width=2)),
                              "backend": "sim", "device": "starmon5"}


def test_report_reads_records_from_before_configs(tmp_path):
    """A record whose config is the old argparse namespace still reports."""
    old = {
        "backend": {"edges": None, "kind": "LocalSimBackend", "n_qubits": 2, "p2": 0.0},
        "config": {"backend": "sim", "device": "ideal", "ideal_width": 2, "out": "runs",
                   "remote_qubits": 5, "remote_url": "http://127.0.0.1:8000", "seed": 2,
                   "shots": None, "time_limit": 60.0},
        "finished_at": "2026-10-19T16:39:14.383541+00:00", "flags": [], "metric": "readout",
        "raw_refs": [], "scalars": {"fro_q0": {"unit": "percent", "value": 100.0},
                                    "fro_q1": {"unit": "percent", "value": 100.0}},
        "seed": 2, "started_at": "2026-10-19T16:39:14.374616+00:00", "timing": {},
        "toolkit_version": "0.1.0",
    }
    (tmp_path / "records.jsonl").write_text(json.dumps(old) + "\n")
    assert cli_main(["rb", "--device", "ideal", "--ideal-width", "2", "--qubit", "1",
                     "--shots", "64", "--out", str(tmp_path)]) == EXIT_METRIC_INVALID
    assert cli_main(["report", "--out", str(tmp_path)]) == EXIT_OK
    with open(tmp_path / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["metrics_present"] == ["rb", "readout"]
    rows = summary["component"]["per_qubit"]
    assert [r["fro_pct"] for r in rows] == [100.0, 100.0]
    assert rows[0]["f1q_pct"] is None and rows[1]["f1q_pct"] is not None


class TestReportOptions:
    """``report`` reads records and runs nothing, so it takes ``--out`` alone."""

    @pytest.mark.parametrize("option", [["--shots", "5"], ["--device", "nope.json"],
                                        ["--backend", "remote"], ["--remote-qubits", "3"],
                                        ["--seed", "1"]])
    def test_metric_option_is_usage_error(self, tmp_path, option):
        assert cli_main(["report", *option, "--out", str(tmp_path)]) == EXIT_USAGE
        assert not (tmp_path / "summary.json").exists()

    def test_out_alone_reports(self, tmp_path):
        assert cli_main(["report", "--out", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / "summary.json").exists()


class TestRecordsNameTheirDevice:
    def test_backend_section_hashes_the_device(self, tmp_path):
        assert cli_main(["readout", "--device", "ideal", "--ideal-width", "2", "--shots", "8",
                         "--out", str(tmp_path)]) == EXIT_OK
        (rec,) = RunStore(str(tmp_path)).records()
        doc = ideal_device(2).to_json_dict()
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert rec.backend == {"kind": "LocalSimBackend", "n_qubits": 2, "edges": None,
                               "p2": 0.0, "device_sha256": digest}

    def test_remote_record_states_only_its_url(self, tmp_path):
        with MockServer(LocalSimBackend(ideal_device(2))) as srv:
            assert cli_main(["readout", "--backend", "remote", "--remote-url", srv.url,
                             "--shots", "8", "--out", str(tmp_path)]) == EXIT_OK
        (rec,) = RunStore(str(tmp_path)).records()
        assert rec.config == {"shots": 8, "backend": "remote", "remote_url": srv.url}


class TestRangeArguments:
    """A qubit outside the backend, too few stability repeats or a negative
    or non-finite stability interval is a usage error, caught before any
    record is written."""

    @pytest.mark.parametrize("argv", [
        ["rb", "--qubit", "7"],
        ["coherence", "t1", "--qubit", "9"],
        ["rb", "--qubit", "-1"],
        ["coherence", "t2star", "--qubit", "5"],
        ["rb", "--device", "ideal", "--ideal-width", "2", "--qubit", "2"],
        ["stability", "--repeats", "2"],
        ["stability", "--repeats", "1"],
        ["stability", "--interval", "-3600", "--repeats", "3", "--shots", "64"],
        ["stability", "--interval", "nan"],
        ["stability", "--interval", "inf"],
    ])
    def test_out_of_range_is_usage_error(self, tmp_path, capsys, argv):
        assert cli_main([*argv, "--out", str(tmp_path)]) == EXIT_USAGE
        assert "Traceback" not in capsys.readouterr().err
        assert RunStore(str(tmp_path)).records() == []

    @pytest.mark.parametrize("limit", ["nan", "0", "-1", "inf"])
    def test_qscore_time_limit_must_be_finite_and_positive(self, tmp_path, capsys, limit):
        argv = ["qscore", "--time-limit", limit, "--shots", "16", "--out", str(tmp_path)]
        assert cli_main(argv) == EXIT_USAGE
        assert "time limit must be finite and > 0 s" in capsys.readouterr().err
        assert RunStore(str(tmp_path)).records() == []

    @pytest.mark.parametrize("volume", ["2", "3", "6"])
    def test_clops_volume_is_one_a_qv_run_reports(self, tmp_path, capsys, volume):
        argv = ["clops", "--qv", volume, "--templates", "1", "--out", str(tmp_path)]
        assert cli_main(argv) == EXIT_USAGE
        assert "a quantum volume is a power of two of at least 4" in capsys.readouterr().err
        assert RunStore(str(tmp_path)).records() == []

    def test_qubit_outside_the_served_device_is_usage_error(self, tmp_path, capsys):
        with MockServer(LocalSimBackend(ideal_device(3))) as srv:
            code = cli_main(["rb", "--backend", "remote", "--remote-url", srv.url,
                             "--qubit", "3", "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        assert "out of range for 3 qubits" in capsys.readouterr().err
        assert RunStore(str(tmp_path)).records() == []


class TestDeterminism:
    def test_rb_scalar_sections_byte_identical(self, tmp_path):
        args = ["rb", "--qubit", "0", "--shots", "1024", "--seed", "7", "--out", str(tmp_path)]
        assert cli_main(args) == EXIT_OK
        assert cli_main(args) == EXIT_OK
        sections = _scalar_sections(str(tmp_path), "rb")
        assert len(sections) == 2
        assert sections[0] == sections[1]

    def test_qv_scalar_sections_byte_identical(self, tmp_path):
        args = [
            "qv", "--device", "ideal", "--ideal-width", "2", "--max-width", "2",
            "--circuits", "10", "--shots", "50", "--seed", "5", "--out", str(tmp_path),
        ]
        assert cli_main(args) == EXIT_OK
        assert cli_main(args) == EXIT_OK
        sections = _scalar_sections(str(tmp_path), "qv")
        assert sections[0] == sections[1]


class TestArtifacts:
    def test_qv_on_small_ideal_device(self, tmp_path):
        code = cli_main(
            ["qv", "--device", "ideal", "--ideal-width", "3", "--max-width", "3",
             "--circuits", "20", "--shots", "100", "--seed", "5", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        recs = [r for r in RunStore(str(tmp_path)).records() if r.metric == "qv"]
        assert recs[-1].scalars["quantum_volume"]["value"] == 8

    def test_qv_record_keeps_each_circuits_heavy_fraction(self, tmp_path):
        """The raw payload reproduces every width's mean heavy fraction exactly."""
        cli_main(["qv", "--device", "starmon5", "--circuits", "5", "--seed", "7",
                  "--out", str(tmp_path)])
        (rec,) = RunStore(str(tmp_path)).records()
        (ref,) = rec.raw_refs
        assert ref.startswith("raw/qv_heavy_fractions/")
        fractions = json.loads((tmp_path / ref).read_text())
        assert sorted(fractions) == ["2", "3", "4", "5"]
        for width, per_circuit in fractions.items():
            assert len(per_circuit) == 5
            assert float(np.mean(per_circuit)) == rec.scalars[f"heavy_fraction_d{width}"]["value"]

    def test_report_aggregates(self, tmp_path):
        cli_main(["readout", "--shots", "256", "--seed", "2", "--out", str(tmp_path)])
        code = cli_main(["report", "--out", str(tmp_path)])
        assert code == EXIT_OK
        with open(tmp_path / "summary.json") as fh:
            summary = json.load(fh)
        assert summary["component"]["per_qubit"][0]["fro_pct"] is not None

    def test_appsuite_writes_csv(self, tmp_path):
        code = cli_main(
            ["appsuite", "--device", "ideal", "--max-width", "2", "--shots", "128",
             "--seed", "2", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        text = (tmp_path / "volumetric.csv").read_text()
        assert text.splitlines()[0] == "algorithm,width,depth,fidelity"
