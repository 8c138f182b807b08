"""System-metric tests: model circuits, heavy outputs, throughput, stability."""
import dataclasses

import numpy as np
import pytest

from helpers import UniformRandomBackend, effective_device, heavy_output_mass, ideal_unitary
from qbench.backends import Backend, BackendError, LocalSimBackend
from qbench.circuits import Circuit, TimingModel
from qbench.cliffords import equal_up_to_phase
from qbench.device import DriftSchedule, ideal_device, starmon5_reference_model
from qbench.simulator import ShotTable, run_ideal
from qbench.system import (
    CLOPSConfig,
    CLOPSPartialError,
    QVConfig,
    StabilityConfig,
    angles_from_seed,
    clops_value,
    compile_qv_circuit,
    gen_qv_spec,
    haar_su4,
    heavy_set,
    ideal_qv_probs,
    run_clops,
    run_quantum_volume,
    run_stability,
    seed_from_counts,
)


@dataclasses.dataclass
class FailAfterBackend(Backend):
    """Proxies an inner backend, failing after N batches."""

    inner: Backend
    fail_after: int
    batches: int = 0

    @property
    def device(self):
        return self.inner.device

    def run(self, circuits: list[Circuit], shots: int, seed: int) -> list[ShotTable]:
        if self.batches >= self.fail_after:
            raise BackendError("injected backend failure")
        self.batches += 1
        return self.inner.run(circuits, shots, seed)


class TestModelCircuits:
    def test_square_shape(self):
        spec = gen_qv_spec(3, seed=1)
        assert spec.width == 3
        assert len(spec.layers) == 3
        assert all(len(l.unitaries) == 1 for l in spec.layers)

    def test_d2_block_count(self):
        spec = gen_qv_spec(2, seed=1)
        assert len(spec.layers) == 2
        assert all(len(l.unitaries) == 1 for l in spec.layers)

    def test_haar_trace_moment(self):
        rng = np.random.default_rng(8)
        traces = [abs(np.trace(haar_su4(rng))) ** 2 for _ in range(1000)]
        assert np.mean(traces) == pytest.approx(1.0, abs=0.1)

    def test_haar_matrices_are_special_unitary(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            u = haar_su4(rng)
            assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-12
            assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_compiled_matches_spec_unitary(self, d):
        # dense matrix-product oracle against the compiled native circuit
        spec = gen_qv_spec(d, seed=5)
        circ = compile_qv_circuit(spec, d)
        got = ideal_unitary(circ)
        want = np.eye(2**d, dtype=complex)
        for layer in spec.layers:
            m = np.eye(2**d, dtype=complex)
            for k, u in enumerate(layer.unitaries):
                a, b = layer.permutation[2 * k], layer.permutation[2 * k + 1]
                m = _embed(u, a, b, d) @ m
            want = m @ want
        assert equal_up_to_phase(got, want, 1e-8)

    def test_routed_compilation_equivalent(self):
        spec = gen_qv_spec(3, seed=4)
        star = frozenset({(0, 2), (1, 2), (2, 3), (2, 4)})
        probs_spec = ideal_qv_probs(spec)
        circuit = compile_qv_circuit(spec, 5, qubit_map=[2, 3, 1], connectivity=star)
        for g in circuit.ops:
            if g.kind == "CZ":
                assert tuple(sorted(g.qubits)) in star
        probs = run_ideal(circuit)
        marg = probs.reshape((2,) * 5)
        # marginalize onto mapped qubits (2, 3, 1) in logical order
        marg = marg.sum(axis=(0, 4))  # drop qubits 0 and 4
        # remaining axes are qubits (1, 2, 3); logical order is (2, 3, 1)
        marg = np.transpose(marg, (1, 2, 0)).reshape(-1)
        assert np.abs(marg - probs_spec).max() < 1e-9


def _embed(u: np.ndarray, a: int, b: int, n: int) -> np.ndarray:
    full = np.eye(2**n, dtype=complex).reshape((2,) * (2 * n))
    ut = u.reshape(2, 2, 2, 2)
    full = np.tensordot(ut, full, axes=([2, 3], [a, b]))
    full = np.moveaxis(full, (0, 1), (a, b))
    return full.reshape(2**n, 2**n)


class TestHeavySet:
    def test_uniform_is_empty(self):
        assert heavy_set(np.full(8, 1 / 8)).tolist() == []

    def test_simple_distribution(self):
        hs = heavy_set(np.array([0.1, 0.3, 0.2, 0.4]))
        assert hs.tolist() == [1, 3]

    def test_mass_at_least_half(self):
        for seed in range(50):
            probs = ideal_qv_probs(gen_qv_spec(3, seed))
            assert heavy_output_mass(probs) >= 0.5

    def test_porter_thomas_mass(self):
        masses = [heavy_output_mass(ideal_qv_probs(gen_qv_spec(3, s))) for s in range(100)]
        assert 0.80 <= np.mean(masses) <= 0.90


class TestQuantumVolume:
    def test_noiseless_small(self):
        be = LocalSimBackend(ideal_device(3))
        res = run_quantum_volume(be, QVConfig(n_circuits=25, shots=100), seed=5)
        assert res.qv == 8
        assert res.flag is None

    def test_uniform_random_flagged(self):
        res = run_quantum_volume(
            UniformRandomBackend(3), QVConfig(n_circuits=25, shots=100), seed=5
        )
        assert res.qv == 1
        assert res.flag == "no_depth_passed"
        for d in res.per_depth:
            assert d.heavy_fraction == pytest.approx(0.5, abs=0.05)

    def test_volume_is_power_of_two_and_bounded(self):
        be = LocalSimBackend(ideal_device(3))
        res = run_quantum_volume(be, QVConfig(n_circuits=10, shots=50), seed=2)
        assert res.qv in (1, 2, 4, 8)
        assert res.qv <= 2**3

    def test_noise_never_raises_volume(self):
        # monotonicity spot check over a few seeds
        for seed in (1, 2, 3):
            clean = run_quantum_volume(
                LocalSimBackend(ideal_device(3)),
                QVConfig(n_circuits=15, shots=60), seed=seed,
            )
            noisy_dev = dataclasses.replace(
                ideal_device(3), p1=(0.02,) * 3, p2=0.08
            )
            noisy = run_quantum_volume(
                LocalSimBackend(noisy_dev), QVConfig(n_circuits=15, shots=60), seed=seed
            )
            assert noisy.qv <= clean.qv


class TestCLOPS:
    def test_formula_exact(self):
        assert clops_value(1, 1, 1, 1, 1.0) == 1.0
        assert clops_value(100, 10, 100, 2, 537.63) == pytest.approx(
            200000 / 537.63, rel=1e-12
        )

    def test_formula_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            clops_value(1, 1, 1, 1, 0.0)

    def test_reported_value_matches_formula(self, starmon_backend):
        cfg = CLOPSConfig(m_templates=5, k_updates=2, shots=50)
        res = run_clops(starmon_backend, cfg, measured_qv=4, seed=3)
        assert res.clops == clops_value(5, 2, 50, 2, res.t_total_s)
        assert res.d == 2
        assert res.rounds_completed == 2

    def test_parameter_chain_deterministic(self, starmon_backend):
        cfg = CLOPSConfig(m_templates=4, k_updates=2, shots=50)
        # identical seeds walk identical template chains; t_total varies but
        # the chained angle seeds derive purely from measured counts
        from qbench.system import make_clops_templates

        order = starmon_backend.preferred_qubit_order()
        tpl = make_clops_templates(2, 1, 7, 5, order, starmon_backend.connectivity)[0]
        from qbench.backends import submit_and_wait

        bound = tpl.bind(angles_from_seed(7, 0, tpl.n_params))
        t1 = submit_and_wait(starmon_backend, [bound], 50, seed=1)[0]
        t2 = submit_and_wait(starmon_backend, [bound], 50, seed=1)[0]
        assert seed_from_counts(t1) == seed_from_counts(t2)

    def test_requires_measured_volume(self, starmon_backend):
        with pytest.raises(ValueError):
            run_clops(starmon_backend, CLOPSConfig(), measured_qv=1, seed=0)

    @pytest.mark.parametrize("volume", [2, 3, 6])
    def test_volume_must_be_one_a_qv_run_reports(self, starmon_backend, volume):
        cfg = CLOPSConfig(m_templates=1, k_updates=1, shots=8)
        with pytest.raises(ValueError, match="power of two of at least 4"):
            run_clops(starmon_backend, cfg, measured_qv=volume, seed=0)

    def test_partial_failure_carries_rounds(self, starmon_backend):
        inner = LocalSimBackend(starmon_backend.device)
        failing = FailAfterBackend(inner=inner, fail_after=2)
        cfg = CLOPSConfig(m_templates=3, k_updates=5, shots=20)
        with pytest.raises(CLOPSPartialError) as err:
            run_clops(failing, cfg, measured_qv=4, seed=1)
        assert err.value.rounds_completed == 2

    def test_doubling_latency_halves_throughput(self):
        cfg = CLOPSConfig(m_templates=20, k_updates=3, shots=500)
        base_dev = starmon5_reference_model()
        t = base_dev.timing
        slow_timing = TimingModel(2 * t.single_qubit_gate_ns, 2 * t.two_qubit_gate_ns,
                                  2 * t.rz_ns, 2 * t.measure_ns)
        slow_dev = dataclasses.replace(base_dev, timing=slow_timing)
        fast = run_clops(LocalSimBackend(base_dev), cfg, measured_qv=4, seed=3)
        slow = run_clops(LocalSimBackend(slow_dev), cfg, measured_qv=4, seed=3)
        # the modeled quantum window doubles; the classical window is wall
        # time, so the throughput ratio itself depends on machine load
        assert slow.t_quantum_s == pytest.approx(2 * fast.t_quantum_s, rel=1e-12)
        for res in (fast, slow):
            assert res.clops == clops_value(cfg.m_templates, cfg.k_updates, cfg.shots, res.d,
                                            res.t_quantum_s + res.t_classical_s)

    def test_angle_expansion_deterministic_and_in_range(self):
        a = angles_from_seed(123456789, 4, 40)
        b = angles_from_seed(123456789, 4, 40)
        assert a == b
        assert all(0 <= v < 2 * np.pi for v in a)
        assert angles_from_seed(123456789, 5, 40) != a


class TestStability:
    def test_repeats_precondition(self, starmon_backend):
        with pytest.raises(ValueError):
            run_stability(starmon_backend, StabilityConfig(repeats=1, interval_s=1.0))

    @pytest.mark.parametrize("interval_s", [-3600.0, -1e-9, float("nan"), float("inf")])
    def test_interval_must_be_finite_and_not_negative(self, interval_s):
        with pytest.raises(ValueError, match="interval"):
            StabilityConfig(interval_s=interval_s)
        assert StabilityConfig(interval_s=0.0).interval_s == 0.0

    def test_drift_free_spread_is_small(self):
        be = LocalSimBackend(starmon5_reference_model())
        rec = run_stability(be, StabilityConfig(repeats=3, shots=2048), seed=5, qubits=[0, 2])
        assert rec.flagged == 0
        for rs in rec.relative_std:
            assert rs < 0.05

    def test_injected_jitter_raises_spread(self):
        dev = starmon5_reference_model(drift=DriftSchedule(jitter_sigma=0.1))
        be = LocalSimBackend(dev, drift_seed=11)
        rec = run_stability(be, StabilityConfig(repeats=5, shots=2048), seed=5, qubits=[0, 2])
        for rs in rec.relative_std:
            assert 0.05 <= rs <= 0.2

    def test_epoch_schedule_applies(self):
        sched = DriftSchedule(jitter_sigma=0.0, epochs=((0.0, 1.0, 1.0), (1800.0, 1.0, 0.7)))
        dev = starmon5_reference_model(drift=sched)
        be = LocalSimBackend(dev)
        be.advance_clock(3600.0)
        assert effective_device(be).qubits[0].t2_us == pytest.approx(13.29 * 0.7)

    def test_unidentifiable_points_excluded_and_counted(self):
        # pure-noise outcomes make the dephasing fit flag nearly every point
        rec = run_stability(
            UniformRandomBackend(2),
            StabilityConfig(repeats=3, interval_s=1.0, shots=256),
            seed=2,
            qubits=[0],
        )
        assert rec.flagged >= 2
        assert sum(np.isnan(v) for v in rec.t2star_us[0]) == rec.flagged


class TestRemoteCLOPS:
    def test_wall_clock_window_used(self):
        from qbench.remote import MockServer, RemoteBackend

        with MockServer(LocalSimBackend(ideal_device(2))) as srv:
            backend = RemoteBackend(srv.url, n_qubits=2, poll_interval_s=0.01)
            cfg = CLOPSConfig(m_templates=2, k_updates=2, shots=20)
            res = run_clops(backend, cfg, measured_qv=4, seed=1)
            assert res.t_quantum_s > 0  # measured around the execution call
            assert res.clops == clops_value(2, 2, 20, 2, res.t_total_s)
