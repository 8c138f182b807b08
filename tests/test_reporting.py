import dataclasses
import json

import pytest
from hypothesis import given, settings

from qbench.cli import EXIT_METRIC_INVALID, cli_main
from qbench.reporting import (
    MetricReport,
    RunStore,
    emit_report,
    scalar,
    write_summary,
)
from qbench.serialization import circuit_from_dict, circuit_to_dict
from helpers import native_circuits, shot_table_from_dict, shot_table_to_dict
from qbench.circuits import Circuit, cz, measure_all, rz, wait, x90
from qbench.simulator import ShotTable


class TestCircuitSerialization:
    def test_round_trip_exact(self):
        c = Circuit(
            3,
            (x90(0), rz(1, 0.1234567890123456789), cz(0, 2), wait(1, 37.5), measure_all()),
            label="roundtrip",
        )
        doc = json.loads(json.dumps(circuit_to_dict(c)))
        back = circuit_from_dict(doc)
        assert back == c
        # angles survive the decimal round trip bit for bit
        assert back.ops[1].angle_rad == c.ops[1].angle_rad

    @settings(max_examples=100, deadline=None)
    @given(native_circuits())
    def test_round_trip_random_circuits(self, circuit):
        assert circuit_from_dict(json.loads(json.dumps(circuit_to_dict(circuit)))) == circuit

    def test_shot_table_round_trip(self):
        t = ShotTable(counts={"01": 3, "10": 5}, shots=8, n_qubits=2)
        assert shot_table_from_dict(shot_table_to_dict(t)) == t


class TestMetricReport:
    def test_round_trip_bit_exact(self):
        rep = MetricReport(
            metric="rb",
            config={"shots": 4096, "seed": 7},
            backend={"kind": "LocalSimBackend", "n_qubits": 5},
            scalars={"f1q_q0": scalar(99.798, "percent")},
            seed=7,
            timing={"wall_s": 1.25},
            raw_refs=["raw/rb/abc.json"],
            started_at="2026-01-01T00:00:00+00:00",
            finished_at="2026-01-01T00:00:05+00:00",
        )
        doc = json.dumps(rep.to_json_dict(), sort_keys=True)
        again = MetricReport.from_json_dict(json.loads(doc))
        assert json.dumps(again.to_json_dict(), sort_keys=True) == doc

    def test_reading_rules(self, tmp_path, capsys):
        full = MetricReport(
            metric="qv", config={"shots": 100}, backend={"n_qubits": 2},
            scalars={"quantum_volume": scalar(4, "dimensionless")}, seed=3,
            timing={"wall_s": 1.0}, raw_refs=["raw/qv/a.json"], started_at="t0",
            finished_at="t1", toolkit_version="0.0.9", flags=["no_depth_passed"],
        ).to_json_dict()
        # a key this version does not know is ignored
        assert MetricReport.from_json_dict({**full, "circuit_stats": {}}).to_json_dict() == full
        # each missing optional field reads empty; an old record's version stays unknown
        empty = {"timing": {}, "raw_refs": [], "started_at": "", "finished_at": "",
                 "toolkit_version": "", "flags": []}
        required = {"metric", "config", "backend", "scalars", "seed"}
        assert {f.name for f in dataclasses.fields(MetricReport)} == required | set(empty)
        for name, value in empty.items():
            doc = {k: v for k, v in full.items() if k != name}
            assert MetricReport.from_json_dict(doc).to_json_dict() == {**full, name: value}
        # a record without its metric is a run error, not a traceback or a summary
        run = tmp_path / "run"
        run.mkdir()
        lacking = {k: v for k, v in full.items() if k != "metric"}
        (run / "records.jsonl").write_text(json.dumps(lacking) + "\n")
        assert cli_main(["report", "--out", str(run)]) == EXIT_METRIC_INVALID
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not (run / "summary.json").exists()

    @pytest.mark.parametrize("key, value", [
        ("scalars", []),
        ("backend", []),
        ("scalars", {"quantum_volume": 3}),
        ("backend", {"n_qubits": "5"}),
        ("metric", ["qv"]),
    ])
    def test_wrong_typed_field_is_a_run_error(self, tmp_path, capsys, key, value):
        doc = {"metric": "qv", "config": {}, "backend": {"n_qubits": 2},
               "scalars": {"quantum_volume": scalar(4, "dimensionless")}, "seed": 3, key: value}
        (tmp_path / "records.jsonl").write_text(json.dumps(doc) + "\n")
        assert cli_main(["report", "--out", str(tmp_path)]) == EXIT_METRIC_INVALID
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not (tmp_path / "summary.json").exists()

    def test_scalars_need_units(self):
        with pytest.raises(ValueError):
            MetricReport(
                metric="x", config={}, backend={}, scalars={"v": {"value": 1}}, seed=0
            )


class TestRunStore:
    def test_append_only_log(self, tmp_path):
        store = RunStore(str(tmp_path / "run"))
        for i in range(3):
            store.append(
                MetricReport(metric=f"m{i}", config={}, backend={}, scalars={}, seed=i)
            )
        recs = store.records()
        assert [r.metric for r in recs] == ["m0", "m1", "m2"]
        # appending never rewrites earlier lines
        with open(store.records_path) as fh:
            raw_before = fh.read()
        store.append(MetricReport(metric="m3", config={}, backend={}, scalars={}, seed=3))
        with open(store.records_path) as fh:
            assert fh.read().startswith(raw_before)

    def test_raw_files_land_in_metric_dirs(self, tmp_path):
        store = RunStore(str(tmp_path / "run"))
        rel = store.write_raw("crosstalk", {"matrix": [[1.0]]})
        assert rel.startswith("raw/crosstalk/")
        assert (tmp_path / "run" / rel).exists()


class TestEmitReport:
    def test_missing_metrics_stay_null(self, tmp_path):
        store = RunStore(str(tmp_path / "run"))
        store.append(
            MetricReport(
                metric="readout",
                config={},
                backend={"n_qubits": 2},
                scalars={"fro_q0": scalar(96.7, "percent"), "fro_q1": scalar(97.0, "percent")},
                seed=0,
            )
        )
        summary = emit_report(store)
        rows = summary["component"]["per_qubit"]
        assert rows[0]["fro_pct"] == 96.7
        assert rows[0]["t1_us"] is None
        assert summary["system"]["quantum_volume"] is None
        assert summary["application"]["qscore"] is None

    def test_zero_crosstalk_is_reported(self, tmp_path):
        # a measured 0.0 is a value, not a missing one: calibrate's must not replace it
        store = RunStore(str(tmp_path / "run"))
        for metric, name, value in (("calibrate", "crosstalk_max_row_l1", 0.25),
                                    ("crosstalk", "max_row_l1", 0.0)):
            store.append(MetricReport(metric=metric, config={}, backend={"n_qubits": 2},
                                      scalars={name: scalar(value, "l1_distance")}, seed=0))
        assert emit_report(store)["component"]["crosstalk_max_row_l1"] == 0.0

    @staticmethod
    def _t1_rows(tmp_path, records):
        store = RunStore(str(tmp_path / "run"))
        for metric, values in records:
            store.append(MetricReport(
                metric=metric, config={}, backend={"n_qubits": 2}, seed=0,
                scalars={f"t1_q{q}": scalar(v, "microsecond") for q, v in values.items()}))
        return [row["t1_us"] for row in emit_report(store)["component"]["per_qubit"]]

    def test_calibrate_wins_per_qubit(self, tmp_path):
        # the standalone record comes later and still loses
        rows = self._t1_rows(tmp_path, [("calibrate", {0: 30.0, 1: 31.0}),
                                        ("coherence_t1", {0: 20.0, 1: 21.0})])
        assert rows == [30.0, 31.0]

    def test_qubit_calibrate_lacks_falls_back(self, tmp_path):
        rows = self._t1_rows(tmp_path, [("coherence_t1", {0: 20.0, 1: 21.0}),
                                        ("calibrate", {0: 30.0})])
        assert rows == [30.0, 21.0]

    def test_summary_written(self, tmp_path):
        store = RunStore(str(tmp_path / "run"))
        store.append(
            MetricReport(
                metric="qv",
                config={},
                backend={"n_qubits": 2},
                scalars={"quantum_volume": scalar(4, "dimensionless")},
                seed=0,
            )
        )
        summary = emit_report(store)
        path = write_summary(store, summary)
        with open(path) as fh:
            assert json.load(fh)["system"]["quantum_volume"] == 4
