"""Command-line behavior: exit codes, determinism, artifacts."""
import json

import pytest

from helpers import scalar_section_json
from qbench import cli
from qbench.backends import LocalSimBackend
from qbench.cli import EXIT_METRIC_INVALID, EXIT_OK, EXIT_USAGE, cli_main
from qbench.component import measure_readout
from qbench.device import ideal_device, save_device, starmon5_reference_model
from qbench.remote import MockServer
from qbench.reporting import RunStore


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

    def test_failed_remote_job_exits_one(self, tmp_path, capsys):
        # the client is not told the star coupling, so the server fails the job
        with MockServer(LocalSimBackend(starmon5_reference_model())) as srv:
            code = cli_main(["clops", "--backend", "remote", "--remote-url", srv.url,
                             "--templates", "2", "--updates", "1", "--out", str(tmp_path)])
        assert code == EXIT_METRIC_INVALID
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "unconnected" in err[0]

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

    @pytest.mark.parametrize("given, used", [(None, 4096), ("1", 1), ("3", 3)])
    def test_readout_shots(self, tmp_path, monkeypatch, given, used):
        seen = []

        def spy(backend, shots, seed):
            seen.append(shots)
            return measure_readout(backend, shots=shots, seed=seed)

        monkeypatch.setattr(cli, "measure_readout", spy)
        extra = [] if given is None else ["--shots", given]
        assert cli_main(["readout", "--device", "ideal", "--ideal-width", "2", *extra,
                         "--out", str(tmp_path)]) == EXIT_OK
        assert seen == [used]
        (rec,) = RunStore(str(tmp_path)).records()
        assert rec.config["shots"] == (None if given is None else used)


class TestRangeArguments:
    """A qubit outside the backend, too few stability repeats or an empty
    remote register is a usage error, caught before any record is written."""

    @pytest.mark.parametrize("argv", [
        ["rb", "--qubit", "7"],
        ["coherence", "t1", "--qubit", "9"],
        ["rb", "--qubit", "-1"],
        ["coherence", "t2star", "--qubit", "5"],
        ["rb", "--device", "ideal", "--ideal-width", "2", "--qubit", "2"],
        ["stability", "--repeats", "2"],
        ["stability", "--repeats", "1"],
        ["rb", "--backend", "remote", "--remote-qubits", "0"],
        ["rb", "--backend", "remote", "--remote-qubits", "-3"],
        ["rb", "--backend", "remote", "--remote-qubits", "3", "--qubit", "3"],
    ])
    def test_out_of_range_is_usage_error(self, tmp_path, capsys, argv):
        assert cli_main([*argv, "--out", str(tmp_path)]) == EXIT_USAGE
        assert "Traceback" not in capsys.readouterr().err
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

    def test_report_aggregates(self, tmp_path):
        cli_main(["readout", "--shots", "256", "--seed", "2", "--out", str(tmp_path)])
        code = cli_main(["report", "--out", str(tmp_path)])
        assert code == EXIT_OK
        summary = json.load(open(tmp_path / "summary.json"))
        assert summary["component"]["per_qubit"][0]["fro_pct"] is not None

    def test_appsuite_writes_csv(self, tmp_path):
        code = cli_main(
            ["appsuite", "--device", "ideal", "--max-width", "2", "--shots", "128",
             "--seed", "2", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        text = (tmp_path / "volumetric.csv").read_text()
        assert text.splitlines()[0] == "algorithm,width,depth,fidelity"
