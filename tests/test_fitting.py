"""Fit-model checks: exact recovery, flags, Jacobians, scaling invariance."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import MODEL_FUNCTIONS
from qbench.fitting import (
    DataSeries,
    fit_damped_sinusoid,
    fit_exp_decay,
    fit_geometric,
)

RB_LENGTHS = np.array([1.0, 20, 40, 80, 120])
WAITS = np.linspace(0.0, 24.0, 32)
ECHO_WAITS = np.linspace(0.0, 120.0, 32)
OMEGA = 2 * np.pi * 0.125


class TestDataSeries:
    def test_too_short(self):
        with pytest.raises(ValueError):
            DataSeries(np.array([0.0, 1.0]), np.array([0.1, 0.2]))

    def test_x_strictly_increasing(self):
        with pytest.raises(ValueError):
            DataSeries(np.array([0.0, 1.0, 1.0, 2.0]), np.zeros(4))

    def test_y_in_unit_interval(self):
        with pytest.raises(ValueError):
            DataSeries(np.arange(4.0), np.array([0.0, 0.5, 1.2, 0.3]))


class TestExactRecovery:
    def test_geometric(self):
        y = 0.45 * 0.98**RB_LENGTHS + 0.05
        fit = fit_geometric(DataSeries(RB_LENGTHS, y))
        assert fit.converged
        for name, truth in (("A", 0.45), ("alpha", 0.98), ("B", 0.05)):
            assert fit.params[name] == pytest.approx(truth, rel=1e-5)

    def test_exp_decay(self):
        y = 0.0 + 1.0 * np.exp(-WAITS / 15.45)
        fit = fit_exp_decay(DataSeries(WAITS, y))
        assert fit.converged
        assert fit.params["T"] == pytest.approx(15.45, rel=1e-5)
        assert fit.params["B"] == pytest.approx(1.0, rel=1e-5)

    def test_damped_sinusoid(self):
        y = 0.5 + 0.45 * np.exp(-WAITS / 21.4) * np.sin(OMEGA * WAITS + 1.2)
        fit = fit_damped_sinusoid(DataSeries(WAITS, y), omega_guess=OMEGA)
        assert fit.converged
        assert fit.params["T"] == pytest.approx(21.4, rel=1e-5)
        assert fit.params["omega"] == pytest.approx(OMEGA, rel=1e-5)
        assert fit.params["phi"] == pytest.approx(1.2, rel=1e-4)

    @pytest.mark.parametrize("factor", [0.6, 1.4])
    def test_wrong_omega_seed_recovered(self, factor):
        y = 0.5 + 0.45 * np.exp(-WAITS / 21.4) * np.sin(OMEGA * WAITS + 1.2)
        fit = fit_damped_sinusoid(DataSeries(WAITS, y), omega_guess=OMEGA * factor)
        assert fit.params["omega"] == pytest.approx(OMEGA, rel=1e-4)


class TestNoiseFreeRecovery:
    """Every noise-free curve in the protocol ranges is recovered."""

    @settings(max_examples=100, deadline=None)
    @given(
        u=st.floats(np.log(1e-4), np.log(0.05)),
        a=st.floats(0.2, 0.6),
        b=st.floats(0.0, 0.3),
    )
    def test_geometric(self, u, a, b):
        alpha = 1.0 - np.exp(u)
        fit = fit_geometric(DataSeries(RB_LENGTHS, a * alpha**RB_LENGTHS + b))
        assert fit.converged
        assert fit.params["alpha"] == pytest.approx(alpha, rel=1e-5)

    @settings(max_examples=100, deadline=None)
    @given(
        t=st.floats(2.0, 300.0),
        a=st.floats(0.0, 0.1),
        b=st.floats(0.2, 0.9),
        rising=st.booleans(),
    )
    def test_exp_decay(self, t, a, b, rising):
        y = a + b * np.exp(-ECHO_WAITS / t)
        fit = fit_exp_decay(DataSeries(ECHO_WAITS, 1.0 - y if rising else y))
        assert fit.converged
        assert fit.params["T"] == pytest.approx(t, rel=1e-5)
        assert fit.params["B"] == pytest.approx(-b if rising else b, rel=1e-5)

    @settings(max_examples=100, deadline=None)
    @given(
        t=st.floats(5.0, 100.0),
        factor=st.floats(0.7, 1.4),
        b=st.floats(0.2, 0.45),
        phi=st.floats(-np.pi, np.pi),
    )
    def test_damped_sinusoid(self, t, factor, b, phi):
        w = OMEGA * factor
        y = 0.5 + b * np.exp(-WAITS / t) * np.sin(w * WAITS + phi)
        fit = fit_damped_sinusoid(DataSeries(WAITS, y), omega_guess=OMEGA)
        assert fit.converged
        assert fit.params["T"] == pytest.approx(t, rel=1e-4)
        assert fit.params["omega"] == pytest.approx(w, rel=1e-5)


class TestDegenerateInputs:
    def test_constant_geometric_flagged(self):
        fit = fit_geometric(DataSeries(RB_LENGTHS, np.full(5, 0.5)))
        assert not fit.converged
        assert fit.unidentifiable

    def test_constant_exp_flagged(self):
        fit = fit_exp_decay(DataSeries(WAITS, np.full(32, 1.0)))
        assert fit.unidentifiable

    def test_noisy_flat_exp_flagged(self, rng):
        y = np.clip(1.0 - rng.binomial(4096, 0.01, 32) / 4096, 0, 1)
        fit = fit_exp_decay(DataSeries(WAITS, y))
        assert fit.unidentifiable

    def test_two_points_precondition(self):
        with pytest.raises(ValueError):
            fit_exp_decay(DataSeries(np.array([0.0, 1.0]), np.array([1.0, 0.5])))

    def test_sinusoid_needs_span(self):
        x = np.linspace(0, 1.0, 16)  # far below 1.5 periods of the guess
        with pytest.raises(ValueError):
            fit_damped_sinusoid(DataSeries(x, np.full(16, 0.5)), omega_guess=OMEGA)

    def test_pure_noise_flag_rate(self, rng):
        flagged = 0
        for _ in range(100):
            y = rng.uniform(0, 1, 32)
            fit = fit_damped_sinusoid(DataSeries(WAITS, y), omega_guess=OMEGA)
            flagged += fit.unidentifiable
        assert flagged > 90


class TestJacobians:
    @pytest.mark.parametrize("model", ["geometric", "exp_decay", "damped_sinusoid"])
    def test_matches_central_differences(self, model, rng):
        f, jac, names = MODEL_FUNCTIONS[model]
        x = np.linspace(0.5, 20.0, 16)
        for _ in range(10):
            if model == "geometric":
                p = np.array([rng.uniform(0.2, 0.8), rng.uniform(0.8, 0.99), rng.uniform(0.0, 0.3)])
            elif model == "exp_decay":
                p = np.array([rng.uniform(0.0, 0.3), rng.uniform(0.2, 0.9), rng.uniform(4.0, 30.0)])
            else:
                p = np.array(
                    [rng.uniform(0.2, 0.7), rng.uniform(0.2, 0.5), rng.uniform(4.0, 30.0),
                     rng.uniform(0.4, 2.0), rng.uniform(-1.0, 1.0)]
                )
            analytic = jac(x, p)
            eps = 1e-6
            for k in range(len(p)):
                dp = np.zeros_like(p)
                dp[k] = eps * max(1.0, abs(p[k]))
                numeric = (f(x, p + dp) - f(x, p - dp)) / (2 * dp[k])
                scale = np.maximum(np.abs(numeric), 1.0)
                assert np.max(np.abs(analytic[:, k] - numeric) / scale) < 1e-5


class TestScalingInvariance:
    def test_exp_decay_ns_vs_us(self):
        y = 0.1 + 0.8 * np.exp(-WAITS / 15.0)
        fit_us = fit_exp_decay(DataSeries(WAITS, y))
        fit_ns = fit_exp_decay(DataSeries(WAITS * 1000.0, y))
        assert fit_ns.params["T"] == pytest.approx(fit_us.params["T"] * 1000.0, rel=1e-4)
        assert fit_ns.params["A"] == pytest.approx(fit_us.params["A"], abs=1e-6)

    def test_sinusoid_rescaling(self):
        y = 0.5 + 0.4 * np.exp(-WAITS / 21.4) * np.sin(OMEGA * WAITS + 0.7)
        fit_a = fit_damped_sinusoid(DataSeries(WAITS, y), omega_guess=OMEGA)
        fit_b = fit_damped_sinusoid(DataSeries(WAITS * 10.0, y), omega_guess=OMEGA / 10.0)
        assert fit_b.params["omega"] == pytest.approx(fit_a.params["omega"] / 10.0, rel=1e-4)
        assert fit_b.params["T"] == pytest.approx(fit_a.params["T"] * 10.0, rel=1e-4)


class TestUncertainty:
    def test_synthetic_rb_alpha_within_three_sigma(self, rng):
        # Monte-Carlo oracle: binomial counts around a known decay, fitted
        # with shot-noise weights so the standard errors are calibrated
        hits = 0
        for _ in range(100):
            truth = 0.45 * 0.996**RB_LENGTHS + 0.05
            y = rng.binomial(4096 * 10, truth) / (4096 * 10)
            fit = fit_geometric(
                DataSeries(RB_LENGTHS, y, shots_per_point=4096 * 10), weighted=True
            )
            if abs(fit.params["alpha"] - 0.996) <= 3 * fit.stderr["alpha"]:
                hits += 1
        assert hits >= 93

    def test_weighted_fit_runs(self):
        y = 0.1 + 0.8 * np.exp(-WAITS / 15.0)
        fit = fit_exp_decay(DataSeries(WAITS, y, shots_per_point=1024), weighted=True)
        assert fit.converged
        assert fit.params["T"] == pytest.approx(15.0, rel=1e-4)
