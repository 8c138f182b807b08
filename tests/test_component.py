"""Component-metric protocol tests against the local simulator."""
import math

import numpy as np
import pytest

from qbench import cliffords
from qbench.backends import LocalSimBackend
from qbench.circuits import TimingModel, measure_all
from qbench.cliffords import AVG_PULSES_PER_CLIFFORD
from qbench.component import (
    T2HAHN_MAX_WAIT_US,
    CalibrationConfig,
    CoherenceConfig,
    CrosstalkConfig,
    RBConfig,
    ReadoutConfig,
    epc_from_alpha,
    f1q_from_epc,
    gen_rb_sequences,
    measure_crosstalk,
    measure_readout,
    q_factor,
    readout_fidelity_from_matrix,
    run_calibration,
    run_rb,
    t1_experiment,
    t2hahn_experiment,
    t2star_experiment,
)
from qbench.device import DeviceModel, QubitParams, ideal_device, starmon5_reference_model
from qbench.simulator import run_ideal


class TestFormulas:
    def test_epc_identity_cases(self):
        assert epc_from_alpha(1.0) == 0.0
        assert f1q_from_epc(0.0) == 1.0

    def test_epc_direct_evaluation(self):
        r = epc_from_alpha(0.996)
        assert r == pytest.approx(0.002, rel=1e-12)
        assert f1q_from_epc(r) == pytest.approx(0.998 ** (1 / 1.875), rel=1e-12)

    def test_readout_fidelity_formula(self):
        assert readout_fidelity_from_matrix(((1.0, 0.0), (0.0, 1.0))) == 1.0
        m = ((0.95, 0.05), (0.02, 0.98))
        assert readout_fidelity_from_matrix(m) == pytest.approx(0.965, rel=1e-12)

    def test_q_factor_examples(self):
        assert q_factor([20.0], 20.0) == pytest.approx(1000.0)
        table = [13.29, 24.68, 21.40, 21.40, 16.20]
        assert q_factor(table, 20.0) == pytest.approx(969.7, abs=0.05)
        # invariant under reordering
        assert q_factor(list(reversed(table)), 20.0) == q_factor(table, 20.0)

    def test_q_factor_preconditions(self):
        with pytest.raises(ValueError):
            q_factor([], 20.0)
        with pytest.raises(ValueError):
            q_factor([10.0], 0.0)


class TestRBSequences:
    def test_counts_and_determinism(self):
        cfg = RBConfig()
        circuits = gen_rb_sequences(cfg, qubit=1, n_qubits=5, seed=5)
        assert len(circuits) == len(cfg.lengths) * cfg.sequences_per_length == 50
        again = gen_rb_sequences(cfg, qubit=1, n_qubits=5, seed=5)
        assert [c.ops for c in again] == [c.ops for c in circuits]

    def test_every_sequence_is_identity(self):
        cfg = RBConfig(lengths=(1, 20), sequences_per_length=4)
        for c in gen_rb_sequences(cfg, qubit=0, n_qubits=2, seed=9):
            probs = run_ideal(c)
            assert probs[0] == pytest.approx(1.0, abs=1e-9)

    def test_single_clifford_plus_inverse(self):
        cfg = RBConfig(lengths=(1,), sequences_per_length=3)
        for c in gen_rb_sequences(cfg, qubit=0, n_qubits=1, seed=2):
            probs = run_ideal(c)
            assert probs[0] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("cfg, seed", [(RBConfig(), 0),
                                           (RBConfig(lengths=(1, 3, 7), sequences_per_length=4), 11)],
                             ids=["default", "short"])
    @pytest.mark.parametrize("qubit", [0, 4])
    def test_matches_per_element_ops(self, cfg, seed, qubit):
        """The shared op table builds the circuits each element's ``to_ops`` would."""
        rng = np.random.default_rng(np.random.SeedSequence([seed, qubit, 0x5B]))
        expected = []
        for n_cliff in cfg.lengths:
            for rep in range(cfg.sequences_per_length):
                indices = [int(i) for i in rng.integers(0, cliffords.N_CLIFFORDS, size=n_cliff)]
                sequence = indices + [cliffords.INVERSE_TABLE[cliffords.compose_indices(indices)]]
                ops = [g for i in sequence for g in cliffords.ELEMENTS[i].to_ops(qubit)]
                expected.append((tuple(ops) + (measure_all(),), f"rb_q{qubit}_N{n_cliff}_s{rep}"))
        circuits = gen_rb_sequences(cfg, qubit, n_qubits=5, seed=seed)
        assert [(c.ops, c.label) for c in circuits] == expected


class TestRBRoundTrip:
    def test_calibrated_fidelity_recovered(self, starmon_backend):
        res = run_rb(starmon_backend, RBConfig(), qubit=3, seed=11)
        assert res.valid
        assert res.f1q * 100 == pytest.approx(99.828, abs=0.05)

    def test_epc_monotone_in_p1(self):
        # error per Clifford must strictly grow with injected gate error
        epcs = []
        for p1 in (0.001, 0.004, 0.016):
            q = QubitParams(math.inf, math.inf)
            dev = DeviceModel(qubits=(q,), p1=(p1,), p2=0.0)
            res = run_rb(LocalSimBackend(dev), RBConfig(shots=2048), qubit=0, seed=21)
            epcs.append(res.epc)
        assert epcs[0] < epcs[1] < epcs[2]
        # theoretical per-Clifford error is ~1.875 * p1/2
        assert epcs[1] == pytest.approx(AVG_PULSES_PER_CLIFFORD * 0.004 / 2, rel=0.2)


class TestReadout:
    def test_perfect_backend(self, ideal_backend_5):
        res = measure_readout(ideal_backend_5, ReadoutConfig(shots=1024), seed=1)
        for q in range(5):
            assert res.fidelity(q) == pytest.approx(1.0)

    def test_reference_fidelities(self, starmon_backend):
        res = measure_readout(starmon_backend, ReadoutConfig(shots=4096), seed=11)
        targets = (96.7, 96.8, 97.5, 98.4, 96.4)
        for q, target in enumerate(targets):
            assert res.fidelity(q) * 100 == pytest.approx(target, abs=0.5)


class TestCrosstalk:
    def test_ideal_identity_matrix(self, ideal_backend_5):
        res = measure_crosstalk(ideal_backend_5, CrosstalkConfig(shots=2048), seed=3)
        assert res.max_row_offdiag == 0.0
        assert np.allclose(res.matrix, np.eye(32))

    def test_independent_readout_matches_tensor_product(self, starmon_backend):
        res = measure_crosstalk(starmon_backend, CrosstalkConfig(shots=16384), seed=7)
        assert res.max_row_l1 < 0.02

    def test_correlated_term_detected(self):
        dev = starmon5_reference_model()
        import dataclasses

        dev = dataclasses.replace(dev, correlated_readout_epsilon=0.05)
        res = measure_crosstalk(LocalSimBackend(dev), CrosstalkConfig(shots=16384), seed=7)
        assert res.max_row_l1 > 0.02

    def test_rows_are_distributions(self, starmon_backend):
        res = measure_crosstalk(starmon_backend, CrosstalkConfig(shots=1024), seed=5)
        assert np.allclose(res.matrix.sum(axis=1), 1.0)

    def test_width_cap(self):
        be = LocalSimBackend(ideal_device(7))
        with pytest.raises(ValueError):
            measure_crosstalk(be, CrosstalkConfig(shots=16), seed=0)


class TestCoherence:
    def test_t1_reference(self, starmon_backend):
        res = t1_experiment(starmon_backend, 2, CoherenceConfig(max_wait_us=60.0), seed=3)
        assert res.valid
        assert res.time_us == pytest.approx(19.42, rel=0.10)

    def test_t1_start_near_readout_ceiling(self, starmon_backend):
        res = t1_experiment(starmon_backend, 2, CoherenceConfig(max_wait_us=60.0), seed=3)
        fro = 0.975
        assert res.fractions[0] == pytest.approx(fro, abs=0.02)

    def test_t1_infinite_flagged(self, ideal_backend_5):
        res = t1_experiment(ideal_backend_5, 0, CoherenceConfig(max_wait_us=60.0, shots=1024), seed=3)
        assert not res.valid

    def test_t1_stable_under_doubled_window(self, starmon_backend):
        a = t1_experiment(starmon_backend, 0, CoherenceConfig(max_wait_us=60.0), seed=5)
        b = t1_experiment(starmon_backend, 0, CoherenceConfig(max_wait_us=120.0), seed=5)
        assert b.time_us == pytest.approx(a.time_us, rel=0.10)

    def test_t2star_reference_and_frequency(self, starmon_backend):
        res = t2star_experiment(starmon_backend, 1, CoherenceConfig(max_wait_us=24.0), seed=3)
        assert res.valid
        assert res.time_us == pytest.approx(24.68, rel=0.15)
        assert res.fit.params["omega"] == pytest.approx(2 * np.pi * 0.125, rel=0.05)

    def test_t2star_zero_detuning_flagged(self, starmon_backend):
        cfg = CoherenceConfig(max_wait_us=24.0, detuning_mhz=0.0, shots=1024)
        res = t2star_experiment(starmon_backend, 1, cfg, seed=3)
        assert not res.valid
        assert res.fit.unidentifiable

    def test_t2hahn_matches_ramsey_time(self, starmon_backend):
        # the noise model is Markovian, so echo recovers the Ramsey value
        res = t2hahn_experiment(starmon_backend, 3, CoherenceConfig(max_wait_us=120.0), seed=3)
        assert res.valid
        assert res.time_us == pytest.approx(21.40, rel=0.15)

    def test_t2hahn_zero_wait_is_readout_error(self, starmon_backend):
        res = t2hahn_experiment(starmon_backend, 3, CoherenceConfig(max_wait_us=120.0), seed=3)
        assert res.fractions[0] == pytest.approx(1 - 0.984, abs=0.02)

    @pytest.mark.parametrize("seed", [21, 26, 34, 8002])
    def test_t2hahn_smooth_scans_fit(self, starmon_backend, seed):
        # smooth scans that a log-linear start sends to the T lower bound, a
        # flat spot of the residual; the device's T2 is 13.29 us
        cfg = CoherenceConfig(max_wait_us=T2HAHN_MAX_WAIT_US, shots=4096)
        res = t2hahn_experiment(starmon_backend, 0, cfg, seed=seed)
        assert res.valid
        assert res.time_us == pytest.approx(13.29, rel=0.15)

    def test_t2hahn_noiseless_flagged(self, ideal_backend_5):
        res = t2hahn_experiment(ideal_backend_5, 0, CoherenceConfig(max_wait_us=120.0, shots=512), seed=3)
        assert not res.valid
        assert all(f == 0.0 for f in res.fractions)


class TestCalibration:
    def test_q_factor_uses_device_gate_time(self):
        q = QubitParams(40.0, 20.0)
        dev = DeviceModel(qubits=(q, q), p1=(0.001, 0.001), p2=0.0,
                          timing=TimingModel(single_qubit_gate_ns=40.0))
        summary = run_calibration(LocalSimBackend(dev), CalibrationConfig(shots=512), seed=3)
        valid_t2 = [r.time_us for r in summary.t2star if r.valid]
        assert valid_t2
        assert summary.q_factor == pytest.approx(np.mean(valid_t2) / 0.040)
