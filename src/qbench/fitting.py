"""Nonlinear least-squares fits for the three characterization curves.

Models: geometric decay A*alpha^N + B (randomized benchmarking), exponential
decay A + B*exp(-t/T) (relaxation and echo), and the damped sinusoid
A + B*exp(-t/T)*sin(w*t + phi) (free induction with an artificial detuning).

The solver is a damped least-squares (Levenberg-Marquardt) loop with
analytic Jacobians, box bounds enforced by projection, and standard errors
from the residual-scaled inverse normal matrix.  Fits never raise on bad
data: degenerate or oscillation-free series come back flagged
"unidentifiable" with converged=False.  Weighting by shot noise is off by
default; pass weighted=True for inverse-variance weights.

All fit functions are pure and safe to call concurrently.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_ITERATIONS = 200
STEP_TOL = 1e-8
GRAD_TOL = 1e-10


@dataclass(frozen=True)
class DataSeries:
    """One measured characterization curve."""

    x: np.ndarray
    y: np.ndarray
    shots_per_point: int | None = None

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.shape != y.shape or x.ndim != 1:
            raise ValueError("x and y must be equal-length 1-d arrays")
        if len(x) < 4:
            raise ValueError("need at least 4 points")
        if not (np.diff(x) > 0).all():
            raise ValueError("x must be strictly increasing")
        if (y < -1e-9).any() or (y > 1 + 1e-9).any():
            raise ValueError("y values must lie in [0, 1]")

    def weights(self, weighted: bool) -> np.ndarray | None:
        if not weighted or not self.shots_per_point:
            return None
        var = np.clip(self.y * (1 - self.y), 1e-4, None) / self.shots_per_point
        return 1.0 / var


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters with uncertainties and convergence diagnostics."""

    params: dict[str, float]
    stderr: dict[str, float]
    rss: float
    converged: bool
    iterations: int
    flags: tuple[str, ...] = ()

    @property
    def unidentifiable(self) -> bool:
        return "unidentifiable" in self.flags

    def value(self, name: str) -> float:
        return self.params[name]


def _levenberg_marquardt(
    model,
    jac,
    x: np.ndarray,
    y: np.ndarray,
    p0: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    weights: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, float, bool, int]:
    """Damped least squares with projected box bounds.

    Returns (params, stderr, rss, converged, iterations).  When weights are
    true inverse variances the covariance is the plain inverse normal matrix
    (known-noise convention); otherwise it is scaled by the residual
    variance estimate.
    """
    known_variance = weights is not None
    w = np.ones_like(y) if weights is None else weights
    p = np.clip(p0.astype(float), lo, hi)
    r = model(x, p) - y
    cost = float(np.sum(w * r * r))
    lam = 1e-3
    converged = False
    it = 0
    for it in range(1, MAX_ITERATIONS + 1):
        j = jac(x, p)
        jtj = j.T @ (w[:, None] * j)
        g = j.T @ (w * r)
        if np.linalg.norm(g) < GRAD_TOL:
            converged = True
            break
        stepped = False
        for _ in range(40):
            a = jtj + lam * np.diag(np.clip(np.diag(jtj), 1e-12, None))
            try:
                delta = np.linalg.solve(a, -g)
            except np.linalg.LinAlgError:
                lam *= 10
                continue
            p_new = np.clip(p + delta, lo, hi)
            r_new = model(x, p_new) - y
            cost_new = float(np.sum(w * r_new * r_new))
            if cost_new <= cost:
                rel_step = np.max(
                    np.abs(p_new - p) / np.maximum(np.abs(p), 1e-12)
                )
                p, r, cost = p_new, r_new, cost_new
                lam = max(lam * 0.3, 1e-12)
                stepped = True
                if rel_step < STEP_TOL:
                    converged = True
                break
            lam *= 4
        if converged or not stepped:
            if not stepped:
                converged = np.linalg.norm(g) < 1e-6  # stuck at a flat spot
            break

    stderr = _standard_errors(jac(x, p), w, cost, len(y), len(p), known_variance)
    return p, stderr, cost, converged, it


def _standard_errors(
    j: np.ndarray, w: np.ndarray, rss: float, n: int, k: int, known_variance: bool
) -> np.ndarray:
    scale = 1.0 if known_variance else rss / max(n - k, 1)
    try:
        cov = np.linalg.inv(j.T @ (w[:, None] * j)) * scale
        diag = np.clip(np.diag(cov), 0.0, None)
        return np.sqrt(diag)
    except np.linalg.LinAlgError:
        return np.full(k, np.inf)


def _loglinear_rate(x: np.ndarray, y: np.ndarray, floor: float) -> float:
    """Slope of ln|y - floor| against x, for decay initializers."""
    z = np.abs(y - floor)
    mask = z > max(1e-6, 0.02 * z.max())
    if mask.sum() < 2:
        return 0.0
    coeffs = np.polyfit(x[mask], np.log(z[mask]), 1)
    return float(coeffs[0])


# --- geometric decay ---------------------------------------------------------

_GEOM_NAMES = ("A", "alpha", "B")


def _geom_f(x, p):
    a, alpha, b = p
    return a * alpha**x + b


def _geom_jac(x, p):
    a, alpha, b = p
    ax = alpha**x
    dalpha = a * x * alpha ** (x - 1.0)
    return np.stack([ax, dalpha, np.ones_like(x)], axis=1)


def fit_geometric(d: DataSeries, weighted: bool = False) -> FitResult:
    """Fit A*alpha^N + B with alpha constrained to (0, 1]."""
    x, y = d.x, d.y
    if np.ptp(y) < 1e-9:
        return _flat_result(_GEOM_NAMES, {"A": 0.0, "alpha": 1.0, "B": float(y.mean())})
    b0 = float(y[-1])
    a0 = float(y[0] - y[-1])
    rate = _loglinear_rate(x, y, b0)
    alpha0 = float(np.clip(np.exp(rate), 1e-4, 0.999999))
    p0 = np.array([a0 if abs(a0) > 1e-6 else 0.1, alpha0, b0])
    lo = np.array([-5.0, 1e-9, -5.0])
    hi = np.array([5.0, 1.0, 5.0])
    p, se, rss, conv, it = _levenberg_marquardt(
        _geom_f, _geom_jac, x, y, p0, lo, hi, d.weights(weighted)
    )
    flags = []
    if abs(p[0]) < 3 * se[0] or p[1] >= 1.0 - 1e-12:
        flags.append("unidentifiable")
        conv = False
    return FitResult(
        dict(zip(_GEOM_NAMES, map(float, p))),
        dict(zip(_GEOM_NAMES, map(float, se))),
        float(rss),
        conv,
        it,
        tuple(flags),
    )


# --- exponential decay ---------------------------------------------------------

_EXP_NAMES = ("A", "B", "T")


def _exp_f(x, p):
    a, b, t = p
    return a + b * np.exp(-x / t)


def _exp_jac(x, p):
    a, b, t = p
    e = np.exp(-x / t)
    return np.stack([np.ones_like(x), e, b * x / t**2 * e], axis=1)


def fit_exp_decay(d: DataSeries, weighted: bool = False) -> FitResult:
    """Fit A + B*exp(-t/T) with T > 0."""
    x, y = d.x, d.y
    if np.ptp(y) < 1e-9:
        return _flat_result(_EXP_NAMES, {"A": float(y.mean()), "B": 0.0, "T": np.inf})
    a0 = float(y[-1])
    b0 = float(y[0] - y[-1])
    rate = _loglinear_rate(x, y, a0)
    span = float(x[-1] - x[0])
    t0 = float(np.clip(-1.0 / rate if rate < -1e-12 else span / 2, 1e-6, 50 * span))
    p0 = np.array([a0, b0 if abs(b0) > 1e-6 else 0.1, t0])
    lo = np.array([-5.0, -5.0, 1e-9])
    hi = np.array([5.0, 5.0, 100 * span])
    p, se, rss, conv, it = _levenberg_marquardt(
        _exp_f, _exp_jac, x, y, p0, lo, hi, d.weights(weighted)
    )
    flags = []
    if abs(p[1]) < 3 * se[1] or p[2] >= 0.9 * 100 * span:
        flags.append("unidentifiable")
        conv = False
    return FitResult(
        dict(zip(_EXP_NAMES, map(float, p))),
        dict(zip(_EXP_NAMES, map(float, se))),
        float(rss),
        conv,
        it,
        tuple(flags),
    )


# --- damped sinusoid -----------------------------------------------------------

_SIN_NAMES = ("A", "B", "T", "omega", "phi")


def _sin_f(x, p):
    a, b, t, w, phi = p
    return a + b * np.exp(-x / t) * np.sin(w * x + phi)


def _sin_jac(x, p):
    a, b, t, w, phi = p
    e = np.exp(-x / t)
    s = np.sin(w * x + phi)
    c = np.cos(w * x + phi)
    return np.stack(
        [
            np.ones_like(x),
            e * s,
            b * x / t**2 * e * s,
            b * e * c * x,
            b * e * c,
        ],
        axis=1,
    )


def _sin_grid_seed(x: np.ndarray, y: np.ndarray, omega_guess: float) -> tuple[np.ndarray, float, float]:
    """Coarse frequency scan: linear fit of {1, e sin, e cos} per candidate omega."""
    span = float(x[-1] - x[0])
    t0 = span / 2
    e = np.exp(-x / t0)
    best = None
    for w in np.geomspace(0.25 * omega_guess, 4.0 * omega_guess, 120):
        basis = np.stack([np.ones_like(x), e * np.sin(w * x), e * np.cos(w * x)], axis=1)
        coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
        rss = float(np.sum((basis @ coef - y) ** 2))
        if best is None or rss < best[0]:
            best = (rss, w, coef)
    rss, w, (a0, cs, cc) = best
    b0 = float(np.hypot(cs, cc))
    phi0 = float(np.arctan2(cc, cs))
    return np.array([a0, b0, t0, w, phi0]), rss, float(np.sum((y - y.mean()) ** 2))


def fit_damped_sinusoid(
    d: DataSeries, omega_guess: float, weighted: bool = False
) -> FitResult:
    """Fit A + B*exp(-t/T)*sin(omega*t + phi).

    ``omega_guess`` seeds a coarse grid scan over [0.25, 4] times the guess;
    the series must hold at least 8 points spanning 1.5 periods of the guess.
    """
    x, y = d.x, d.y
    if len(x) < 8:
        raise ValueError("damped-sinusoid fits need at least 8 points")
    if omega_guess <= 0 or (x[-1] - x[0]) < 1.5 * (2 * np.pi / omega_guess):
        raise ValueError("series must span at least 1.5 periods of the seeded frequency")
    if np.ptp(y) < 1e-9:
        return _flat_result(
            _SIN_NAMES,
            {"A": float(y.mean()), "B": 0.0, "T": np.inf, "omega": omega_guess, "phi": 0.0},
        )

    p0, grid_rss, flat_rss = _sin_grid_seed(x, y, omega_guess)
    span = float(x[-1] - x[0])
    lo = np.array([-5.0, -5.0, 1e-9, 0.05 * omega_guess, -2 * np.pi])
    hi = np.array([5.0, 5.0, 100 * span, 8.0 * omega_guess, 2 * np.pi])
    p0 = np.clip(p0, lo, hi)
    p, se, rss, conv, it = _levenberg_marquardt(
        _sin_f, _sin_jac, x, y, p0, lo, hi, d.weights(weighted)
    )
    flags = []
    # no dominant oscillation: the scan barely beats a constant, or the
    # amplitude is statistically indistinguishable from zero
    if flat_rss > 0 and (grid_rss / flat_rss) > 0.6 and (rss / flat_rss) > 0.5:
        flags.append("unidentifiable")
        conv = False
    elif abs(p[1]) < 3 * se[1]:
        flags.append("unidentifiable")
        conv = False
    return FitResult(
        dict(zip(_SIN_NAMES, map(float, p))),
        dict(zip(_SIN_NAMES, map(float, se))),
        float(rss),
        conv,
        it,
        tuple(flags),
    )


def _flat_result(names: tuple[str, ...], params: dict[str, float]) -> FitResult:
    return FitResult(
        params,
        {k: float("inf") for k in names},
        0.0,
        False,
        0,
        ("unidentifiable",),
    )
