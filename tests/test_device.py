import json
import math

import numpy as np
import pytest

from qbench.circuits import Gate, cz, unconnected_cz
from qbench.device import (
    DeviceModel,
    DriftSchedule,
    QubitParams,
    backsolve_p1,
    ideal_device,
    load_device,
    pulse_decoherence_polarization,
    save_device,
    starmon5_reference_model,
)


class TestReferenceModel:
    def test_tabulated_values(self):
        dev = starmon5_reference_model()
        assert dev.qubits[2].t1_us == 19.42
        assert dev.qubits[1].t2_us == 24.68
        # qubit 3 readout fidelity 98.4%
        m = dev.qubits[3].readout
        assert 1 - (m[0][1] + m[1][0]) / 2 == pytest.approx(0.984)

    def test_invariants_hold(self):
        dev = starmon5_reference_model()
        for q in dev.qubits:
            assert 0 < q.t2_us <= 2 * q.t1_us
            rows = np.asarray(q.readout).sum(axis=1)
            assert np.abs(rows - 1).max() < 1e-12
        assert all(0 <= p < 1 for p in dev.p1)

    def test_star_connectivity(self):
        dev = starmon5_reference_model()
        assert dev.edge_set() == frozenset({(0, 2), (1, 2), (2, 3), (2, 4)})
        assert unconnected_cz((cz(2, 4), cz(0, 1)), dev.edge_set()) == cz(0, 1)

    def test_timing_defaults(self):
        t = starmon5_reference_model().timing
        assert (t.single_qubit_gate_ns, t.two_qubit_gate_ns, t.rz_ns, t.measure_ns) == (
            20.0,
            40.0,
            0.0,
            1000.0,
        )


class TestValidation:
    def test_t2_bound(self):
        with pytest.raises(ValueError):
            QubitParams(t1_us=10.0, t2_us=25.0)

    def test_row_sums(self):
        with pytest.raises(ValueError):
            QubitParams(10.0, 10.0, readout=((0.9, 0.2), (0.1, 0.9)))

    def test_p1_per_qubit(self):
        q = QubitParams(10.0, 10.0)
        with pytest.raises(ValueError):
            DeviceModel(qubits=(q, q), p1=(0.1,), p2=0.0)

    def test_bad_edge(self):
        q = QubitParams(10.0, 10.0)
        with pytest.raises(ValueError):
            DeviceModel(qubits=(q, q), p1=(0.0, 0.0), p2=0.0, edges=((0, 5),))


class TestBacksolve:
    def test_reduces_to_naive_without_decoherence(self):
        f = 0.998
        p1 = backsolve_p1(f, math.inf, math.inf, 20.0)
        assert p1 == pytest.approx(2 * (1 - f), rel=0.05)

    def test_decoherence_lowers_p1(self):
        f = 0.998
        assert backsolve_p1(f, 15.0, 13.0, 20.0) < backsolve_p1(f, math.inf, math.inf, 20.0)

    def test_polarization_bounds(self):
        v = pulse_decoherence_polarization(15.0, 13.0, 20.0)
        assert 0.99 < v < 1.0
        assert pulse_decoherence_polarization(math.inf, math.inf, 20.0) == 1.0


class TestSerialization:
    def test_round_trip(self, tmp_path):
        dev = starmon5_reference_model(drift=DriftSchedule(jitter_sigma=0.05, epochs=((0.0, 1.0, 0.9),)))
        path = tmp_path / "model.json"
        save_device(dev, str(path))
        loaded = load_device(str(path))
        assert loaded == dev

    def test_infinite_times_as_null(self, tmp_path):
        dev = ideal_device(2)
        path = tmp_path / "ideal.json"
        save_device(dev, str(path))
        doc = json.loads(path.read_text())
        assert doc["qubits"][0]["t1_us"] is None
        assert load_device(str(path)) == dev

    def test_scalar_p1_broadcasts(self):
        doc = {
            "qubits": [{"t1_us": 10, "t2_us": 10, "readout": [[1, 0], [0, 1]]}] * 3,
            "p1": 0.01,
            "p2": 0.0,
        }
        dev = DeviceModel.from_json_dict(doc)
        assert dev.p1 == (0.01, 0.01, 0.01)


class TestDrift:
    def test_multipliers_piecewise(self):
        sched = DriftSchedule(jitter_sigma=0.0, epochs=((0.0, 1.0, 1.0), (100.0, 0.9, 0.8)))
        assert sched.multipliers_at(50.0) == (1.0, 1.0)
        assert sched.multipliers_at(150.0) == (0.9, 0.8)

    def test_coherence_scale_clips_to_bound(self):
        dev = starmon5_reference_model()
        scaled = dev.with_coherence_scale(1.0, [3.0] * 5)
        for q in scaled.qubits:
            assert q.t2_us <= 2 * q.t1_us


class TestConnectivity:
    @pytest.mark.parametrize(
        "dev",
        [
            starmon5_reference_model(),
            ideal_device(4, edges=((2, 1), (0, 1), (3, 2))),  # a line, edges given unsorted
            ideal_device(3),
        ],
        ids=["star", "line", "all_to_all"],
    )
    def test_is_connected_agrees_with_edges(self, dev):
        n = dev.n_qubits
        for d in (dev, dev.with_coherence_scale(0.5, [0.5] * n)):
            edges = None if d.edges is None else set(d.edges)
            assert d.edge_set() == (None if edges is None else frozenset(edges))
            for a in range(n):
                for b in range(n):
                    if a == b:
                        continue
                    want = edges is None or (min(a, b), max(a, b)) in edges
                    gate = Gate("CZ", (a, b))  # either orientation, not only cz()'s
                    assert (unconnected_cz((gate,), d.edge_set()) is None) == want
