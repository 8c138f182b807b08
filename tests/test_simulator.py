"""Analytic checks for both simulators and the noise channels."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_su2
from density_oracle import OracleDensity, idle_kraus
from helpers import probabilities_dict, total_variation_distance
from qbench.circuits import Circuit, cz, measure_all, wait, x, x90, y90
from qbench.cliffords import X90_MAT, X_MAT, Y90_MAT
from qbench.device import DeviceModel, QubitParams, ideal_device
from qbench.simulator import (
    _PULSE_SUPEROPS,
    ShotTable,
    _density_probs,
    amplitude_damping_superop,
    dephasing_superop,
    depolarizing_superop,
    idle_superop,
    run_ideal,
    run_noisy,
)

VEC_I = np.array([1.0, 0.0, 0.0, 1.0])  # vec(I) in the 2*ket + bra index


@st.composite
def shot_tables(draw):
    """Valid tables on 1-6 qubits: distinct bitstring keys, zero counts included."""
    n = draw(st.integers(1, 6))
    keys = draw(st.lists(st.integers(0, 2**n - 1), unique=True, max_size=12))
    counts = {format(k, f"0{n}b"): draw(st.integers(0, 10**6)) for k in keys}
    return ShotTable(counts=counts, shots=sum(counts.values()), n_qubits=n)


def assert_cptp(s: np.ndarray) -> None:
    """Trace preserving, vec(I)^T S == vec(I)^T; completely positive Choi matrix."""
    assert np.abs(VEC_I @ s - VEC_I).max() < 1e-12
    choi = s.reshape(2, 2, 2, 2).transpose(2, 0, 3, 1).reshape(4, 4)
    assert np.abs(choi - choi.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(choi).min() >= -1e-12


class TestIdeal:
    def test_x_flips(self):
        probs = run_ideal(Circuit(1, (x(0), measure_all())))
        assert probabilities_dict(probs, 1) == {"1": 1.0}

    def test_x90_is_balanced(self):
        probs = run_ideal(Circuit(1, (x90(0),)))
        assert probs == pytest.approx([0.5, 0.5])

    def test_y90_is_balanced(self):
        probs = run_ideal(Circuit(1, (y90(0),)))
        assert probs == pytest.approx([0.5, 0.5])

    def test_cz_phase(self):
        # CZ between two superpositions is entangling; check Bell-like stats
        c = Circuit(2, (x90(0), x90(1), cz(0, 1), x90(1)))
        probs = run_ideal(c)
        assert probs.sum() == pytest.approx(1.0)

    def test_bit_order_is_qubit0_leftmost(self):
        probs = run_ideal(Circuit(3, (x(0), measure_all())))
        assert probabilities_dict(probs, 3) == {"100": pytest.approx(1.0)}

    def test_qubit_cap(self):
        with pytest.raises(ValueError):
            run_ideal(Circuit(13, (x(0),)))

    def test_wait_is_noop(self):
        a = run_ideal(Circuit(1, (x90(0), wait(0, 500.0))))
        b = run_ideal(Circuit(1, (x90(0),)))
        assert np.allclose(a, b)


class TestKraus:
    """The amplitude-damping and dephasing channels, as 4x4 superoperators."""

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0])
    def test_amplitude_damping_complete(self, gamma):
        s = amplitude_damping_superop(gamma)
        assert np.abs(VEC_I @ s - VEC_I).max() < 1e-9

    @pytest.mark.parametrize("lam", [0.0, 0.4, 1.0])
    def test_dephasing_complete(self, lam):
        s = dephasing_superop(lam)
        assert np.abs(VEC_I @ s - VEC_I).max() < 1e-9

    def test_dephasing_scales_coherence_linearly(self):
        lam = 0.3
        rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        out = (dephasing_superop(lam) @ rho.reshape(4)).reshape(2, 2)
        assert out[0, 1] == pytest.approx(0.5 * (1 - lam))

    def test_invalid_strengths(self):
        with pytest.raises(ValueError):
            amplitude_damping_superop(1.5)
        with pytest.raises(ValueError):
            dephasing_superop(-0.1)
        with pytest.raises(ValueError):
            depolarizing_superop(1.2)


unit = st.floats(0.0, 1.0)


class TestSuperopCPTP:
    @pytest.mark.parametrize(
        "build", [depolarizing_superop, amplitude_damping_superop, dephasing_superop]
    )
    @settings(max_examples=50, deadline=None)
    @given(strength=unit)
    def test_channel(self, build, strength):
        assert_cptp(build(strength))

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.01, 1.0), unit, unit)
    def test_idle(self, t1_scale, t2_ratio, dt_scale):
        # T1 up to 100 us, T2 in (0, 2*T1], idle up to 100 us
        t1 = 100.0 * t1_scale
        s = idle_superop(t1, max(2 * t1 * t2_ratio, 1e-6), 1e5 * dt_scale)
        assert_cptp(np.eye(4) if s is None else s)

    @settings(max_examples=50, deadline=None)
    @given(unit, st.sampled_from(["X", "X90", "Y90"]))
    def test_pulse(self, p, kind):
        assert_cptp(depolarizing_superop(p) @ _PULSE_SUPEROPS[kind])

    @pytest.mark.parametrize("kind, u", [("X", X_MAT), ("X90", X90_MAT), ("Y90", Y90_MAT)])
    def test_pulse_superop_is_conjugation(self, kind, u, rng):
        v = random_su2(rng)
        rho = v @ np.diag([0.7, 0.3]) @ v.conj().T
        out = (_PULSE_SUPEROPS[kind] @ rho.reshape(4)).reshape(2, 2)
        assert np.abs(out - u @ rho @ u.conj().T).max() < 1e-12

    def test_identity_idle_is_skipped(self):
        assert idle_superop(math.inf, math.inf, 100.0) is None
        assert idle_superop(15.0, 13.0, 0.0) is None


class TestNoisy:
    def test_noiseless_limit_matches_ideal(self):
        dev = ideal_device(3)
        c = Circuit(3, (x90(0), cz(0, 1), y90(1), x(2), measure_all()))
        probs = run_ideal(c)
        table = run_noisy(c, dev, 16384, seed=11)
        assert total_variation_distance(probs, table.frequencies()) < 0.02

    def test_t1_decay_analytic(self, starmon_backend):
        dev = starmon_backend.device
        t1 = dev.qubits[0].t1_us
        c = Circuit(5, (x(0), wait(0, t1 * 1000.0), measure_all()))
        table = run_noisy(c, dev, 4096, seed=42)
        m = dev.qubits[0].readout
        p1_true = math.exp(-1.0) * math.exp(-0.02 / t1)
        expected = p1_true * m[1][1] + (1 - p1_true) * m[0][1]
        # 4-sigma binomial window
        sigma = math.sqrt(expected * (1 - expected) / 4096)
        assert abs(table.fraction_ones(0) - expected) < 4 * sigma

    def test_confusion_matrix_flip(self):
        qp = QubitParams(math.inf, math.inf, readout=((1.0, 0.0), (0.1, 0.9)))
        dev = DeviceModel(qubits=(qp,), p1=(0.0,), p2=0.0)
        table = run_noisy(Circuit(1, (x(0), measure_all())), dev, 40000, seed=3)
        assert table.counts["0"] / 40000 == pytest.approx(0.1, abs=0.01)

    def test_ramsey_envelope(self, starmon_backend):
        dev = starmon_backend.device
        t2 = dev.qubits[0].t2_us
        m = dev.qubits[0].readout
        p1 = dev.p1[0]
        for t_us in (6.0, 12.0):
            c = Circuit(5, (x90(0), wait(0, t_us * 1000.0), x90(0), measure_all()))
            table = run_noisy(c, dev, 60000, seed=5)
            envelope = math.exp(-(t_us + 0.04) / t2) * (1 - p1) ** 2
            ideal_p1 = (1 + envelope) / 2
            expected = ideal_p1 * m[1][1] + (1 - ideal_p1) * m[0][1]
            assert table.fraction_ones(0) == pytest.approx(expected, abs=0.01)

    def test_echo_signal_is_pure_t2_exponential(self, starmon_backend):
        # population relaxation lands in the unmeasured quadrature
        dev = starmon_backend.device
        t2 = dev.qubits[3].t2_us
        m = dev.qubits[3].readout
        p1 = dev.p1[3]
        t_us = 20.0
        c = Circuit(
            5,
            (x90(3), wait(3, t_us * 500.0), x(3), wait(3, t_us * 500.0), x90(3), measure_all()),
        )
        table = run_noisy(c, dev, 60000, seed=5)
        envelope = math.exp(-(t_us + 0.06) / t2) * (1 - p1) ** 3
        ideal_p1 = (1 - envelope) / 2
        expected = ideal_p1 * m[1][1] + (1 - ideal_p1) * m[0][1]
        assert table.fraction_ones(3) == pytest.approx(expected, abs=0.01)

    def test_seed_determinism(self, starmon_backend):
        dev = starmon_backend.device
        c = Circuit(5, (x90(0), cz(0, 2), measure_all()))
        a = run_noisy(c, dev, 2048, seed=9)
        b = run_noisy(c, dev, 2048, seed=9)
        assert a.counts == b.counts

    def test_connectivity_enforced(self, starmon_backend):
        c = Circuit(5, (cz(0, 1), measure_all()))
        with pytest.raises(ValueError):
            run_noisy(c, starmon_backend.device, 10, seed=0)

    def test_width_enforced(self):
        dev = ideal_device(2)
        with pytest.raises(ValueError):
            run_noisy(Circuit(3, (x(2), measure_all())), dev, 10, seed=0)

    def test_correlated_readout_flips_together(self):
        qp = QubitParams(math.inf, math.inf)
        dev = DeviceModel(
            qubits=(qp, qp),
            p1=(0.0, 0.0),
            p2=0.0,
            edges=((0, 1),),
            correlated_readout_epsilon=0.2,
        )
        table = run_noisy(Circuit(2, (measure_all(),)), dev, 20000, seed=4)
        freqs = table.frequencies()
        # joint flips produce 11, never 01/10
        assert freqs[3] == pytest.approx(0.2, abs=0.01)
        assert freqs[1] == 0.0 and freqs[2] == 0.0

    def test_wide_register_counts_without_dense_histogram(self):
        """Counting 5 shots on 40 qubits must not allocate one slot per outcome."""
        qp = QubitParams(math.inf, math.inf, readout=((0.7, 0.3), (0.2, 0.8)))
        dev = DeviceModel(qubits=(qp,) * 40, p1=(0.0,) * 40, p2=0.0)
        tracemalloc.start()
        try:
            table = run_noisy(Circuit(40, (x(3), measure_all())), dev, 5, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert table.shots == 5 and sum(table.counts.values()) == 5
        assert all(len(key) == 40 for key in table.counts)


class TestDensityInvariants:
    def test_channels_preserve_trace_hermiticity_psd(self, rng):
        state = OracleDensity(2)
        for step in range(30):
            choice = rng.integers(0, 4)
            if choice == 0:
                state.apply_1q(X90_MAT, int(rng.integers(0, 2)))
            elif choice == 1:
                state.apply_cz(0, 1)
                state.depolarize_2q(0.05, 0, 1)
            elif choice == 2:
                state.depolarize_1q(0.02, int(rng.integers(0, 2)))
            else:
                for kraus in idle_kraus(15.0, 13.0, 100.0):
                    state.apply_kraus_1q(kraus, int(rng.integers(0, 2)))
            state.check()  # trace and Hermiticity within 1e-9
            m = state.rho.reshape(4, 4)
            assert np.linalg.eigvalsh(m).min() >= -1e-9

    def test_check_rejects_negative_population(self):
        rho = np.array([1.0 + 1e-6, 0.0, 0.0, -1e-6], dtype=complex)  # diag(1 + 1e-6, -1e-6)
        with pytest.raises(RuntimeError):
            _density_probs(rho)

    def test_round_off_negative_population_is_clipped(self):
        rho = np.array([1.0 + 1e-13, 0.0, 0.0, -1e-13], dtype=complex)
        assert _density_probs(rho).tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("rho", [
        [np.nan, 0.0, 0.0, 1.0],  # a NaN population
        [0.5, np.nan, 0.0, 0.5],  # a NaN coherence
    ])
    def test_check_rejects_nan(self, rho):
        with pytest.raises(RuntimeError):
            _density_probs(np.array(rho, dtype=complex))


class TestShotTable:
    def test_counts_must_sum(self):
        with pytest.raises(ValueError):
            ShotTable(counts={"0": 3}, shots=4, n_qubits=1)

    @pytest.mark.parametrize("key", ["0", "101", ""])
    def test_wrong_length_key_rejected(self, key):
        with pytest.raises(ValueError, match=f"bad bitstring key {key!r}"):
            ShotTable(counts={"00": 1, key: 1}, shots=2, n_qubits=2)

    @pytest.mark.parametrize("key", ["0a", "12", " 1"])
    def test_non_binary_key_rejected(self, key):
        with pytest.raises(ValueError, match=f"bad bitstring key {key!r}"):
            ShotTable(counts={"01": 1, key: 1}, shots=2, n_qubits=2)

    def test_first_bad_key_is_named(self):
        with pytest.raises(ValueError, match="bad bitstring key '2'"):
            ShotTable(counts={"0": 1, "2": 1, "10": 1}, shots=3, n_qubits=1)

    def test_zero_shots_empty_counts(self):
        t = ShotTable(counts={}, shots=0, n_qubits=3)
        assert t.marginal((0, 2)).tolist() == [0, 0, 0, 0]

    def test_fraction_and_marginal(self):
        t = ShotTable(counts={"10": 30, "01": 70}, shots=100, n_qubits=2)
        assert t.fraction_ones(0) == pytest.approx(0.3)
        marg = t.marginal((1,))
        assert marg.dtype == np.int64 and marg.tolist() == [30, 70]
        assert t.marginal((1, 0)).tolist() == [0, 30, 70, 0]  # first position is the MSB

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_marginal_matches_string_slicing(self, data):
        table = data.draw(shot_tables())
        n = table.n_qubits
        positions = tuple(data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)))
        # slow oracle: slice each key at the positions and parse the result
        want = [0] * 2 ** len(positions)
        for bits, c in table.counts.items():
            want[int("0" + "".join(bits[p] for p in positions), 2)] += c  # "0" parses an empty slice
        assert table.marginal(positions).tolist() == want

    @settings(max_examples=100, deadline=None)
    @given(shot_tables())
    def test_frequencies_are_the_full_marginal(self, table):
        assume(table.shots > 0)
        want = table.marginal(range(table.n_qubits)) / table.shots
        assert np.array_equal(table.frequencies(), want)
