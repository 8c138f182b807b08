import json

import pytest
from hypothesis import given, settings

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
        raw_before = open(store.records_path).read()
        store.append(MetricReport(metric="m3", config={}, backend={}, scalars={}, seed=3))
        assert open(store.records_path).read().startswith(raw_before)

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
        assert json.load(open(path))["system"]["quantum_volume"] == 4
