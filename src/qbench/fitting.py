"""Nonlinear least-squares fits for the three characterization curves.

Models: geometric decay A*alpha^N + B (randomized benchmarking), exponential
decay A + B*exp(-t/T) (relaxation and echo), and the damped sinusoid
A + B*exp(-t/T)*sin(w*t + phi) (free induction with an artificial detuning).

Every model is linear in its amplitudes once its rate (and, for the
sinusoid, its frequency) is fixed, so each fit is seeded by variable
projection: the amplitudes are solved exactly at every point of a log grid
over the nonlinear parameters, and the best point starts the solver.  The
grid search is unweighted; shot-noise weights enter in the polish.

The solver is a damped least-squares (Levenberg-Marquardt) loop with
analytic Jacobians, box bounds enforced by projection, and standard errors
from the residual-scaled inverse normal matrix.  Degenerate, decay-free or
oscillation-free series come back flagged "unidentifiable" (converged=False);
only the damped sinusoid raises ``ValueError``, on fewer than 8 points,
``omega_guess <= 0`` or a scan under 1.5 periods, and ``t2star_experiment``
reports that as an unidentifiable fit.  Weighting by shot noise is off by
default; pass weighted=True for inverse-variance weights.

Unweighted standard errors are residual-scaled with n - k degrees of
freedom, 2 for randomized benchmarking's 5 lengths, where a t-distribution
holds 90.5% of its mass within 3 sigma: 3-sigma coverage of unweighted RB
fits measured 86-96 in 100, weighted 99-100 (README, acceptance suite).

All fit functions are pure and safe to call concurrently.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_ITERATIONS = 200
STEP_TOL = 1e-8
GRAD_TOL = 1e-10

# seeding grid sizes (points per nonlinear parameter)
_GEOM_GRID = 200
_EXP_GRID = 200
_SIN_OMEGA_GRID, _SIN_T_GRID = 120, 24
_ZOOMS = 3  # refinements of the decay-rate grids


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
        if not (np.isfinite(x).all() and (np.diff(x) > 0).all()):
            raise ValueError("x must be finite and strictly increasing")
        if not ((y >= -1e-9) & (y <= 1 + 1e-9)).all():  # a NaN fails too
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


def _projected_grid(basis, grid: np.ndarray, y: np.ndarray, zooms: int = _ZOOMS):
    """Variable projection over a log grid of one nonlinear parameter.

    ``basis(values)`` stacks one (len(y), k) matrix per grid value: the
    columns of a model that is linear in its k amplitudes once that
    parameter is fixed.  Every point's least-squares residual comes from one
    modified Gram-Schmidt pass vectorized over the grid; a column left with
    less than 1e-10 of its norm is dependent and is dropped.  The grid then
    zooms ``zooms`` times onto the cell around its best point: where the
    residual is flat in the parameter (a decay much slower than the scan),
    the LM's absolute gradient test can accept a start still percents off
    the optimum, so the start must already be close.  Returns the best
    value, its amplitudes and its residual sum of squares.
    """
    def dot(a, b):  # row-wise, one value per grid point
        return np.einsum("gn,gn->g", a, b)

    for level in range(1 + zooms):
        if level:
            grid = np.geomspace(grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)], len(grid))
        bases = basis(grid)
        cols = list(np.moveaxis(bases, 2, 0).copy())
        r = np.repeat(y[None, :], len(grid), axis=0)
        for j, q in enumerate(cols):
            sq = dot(q, q)
            keep = sq > 1e-20 * dot(bases[:, :, j], bases[:, :, j])
            q *= np.where(keep, 1.0 / np.sqrt(np.where(keep, sq, 1.0)), 0.0)[:, None]
            for v in (r, *cols[j + 1:]):
                v -= dot(q, v)[:, None] * q
        i = int(np.argmin(dot(r, r)))
    coef = np.linalg.lstsq(bases[i], y, rcond=None)[0]
    return float(grid[i]), coef, float(np.sum((bases[i] @ coef - y) ** 2))


def _result(names, p, se, rss, converged, iterations, unidentifiable: bool) -> FitResult:
    """Package a fit; an unidentifiable fit is flagged and never converged."""
    return FitResult(
        dict(zip(names, map(float, p))),
        dict(zip(names, map(float, se))),
        float(rss),
        bool(converged) and not unidentifiable,
        iterations,
        ("unidentifiable",) if unidentifiable else (),
    )


def _flat_result(names: tuple[str, ...], params: tuple[float, ...]) -> FitResult:
    return _result(names, params, np.full(len(names), np.inf), 0.0, False, 0, True)


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
        return _flat_result(_GEOM_NAMES, (0.0, 1.0, y.mean()))

    def basis(gaps):  # gap = 1 - alpha
        return np.stack([(1.0 - gaps[:, None]) ** x, np.ones((len(gaps), len(x)))], axis=2)

    gap, (a0, b0), _ = _projected_grid(basis, np.geomspace(1e-3 / x[-1], 1.0 - 1e-4, _GEOM_GRID), y)
    lo = np.array([-5.0, 1e-9, -5.0])
    hi = np.array([5.0, 1.0, 5.0])
    p, se, rss, conv, it = _levenberg_marquardt(
        _geom_f, _geom_jac, x, y, np.array([a0, 1.0 - gap, b0]), lo, hi, d.weights(weighted)
    )
    return _result(_GEOM_NAMES, p, se, rss, conv, it,
                   abs(p[0]) < 3 * se[0] or p[1] >= 1.0 - 1e-12)


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
        return _flat_result(_EXP_NAMES, (y.mean(), 0.0, np.inf))
    span = float(x[-1] - x[0])

    def basis(ts):
        decay = np.exp(-x / ts[:, None])
        return np.stack([np.ones_like(decay), decay], axis=2)

    t0, (a0, b0), _ = _projected_grid(basis, np.geomspace(span / 1e3, 50 * span, _EXP_GRID), y)
    lo = np.array([-5.0, -5.0, 1e-9])
    hi = np.array([5.0, 5.0, 100 * span])
    p, se, rss, conv, it = _levenberg_marquardt(
        _exp_f, _exp_jac, x, y, np.array([a0, b0, t0]), lo, hi, d.weights(weighted)
    )
    return _result(_EXP_NAMES, p, se, rss, conv, it,
                   abs(p[1]) < 3 * se[1] or p[2] >= 0.9 * 100 * span)


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


def fit_damped_sinusoid(
    d: DataSeries, omega_guess: float, weighted: bool = False
) -> FitResult:
    """Fit A + B*exp(-t/T)*sin(omega*t + phi).

    ``omega_guess`` centres the seeding grid over [0.25, 4] times the guess;
    the series must hold at least 8 points spanning 1.5 periods of the guess.
    """
    x, y = d.x, d.y
    if len(x) < 8:
        raise ValueError("damped-sinusoid fits need at least 8 points")
    span = float(x[-1] - x[0])
    if omega_guess <= 0 or span < 1.5 * (2 * np.pi / omega_guess):
        raise ValueError("series must span at least 1.5 periods of the seeded frequency")
    if np.ptp(y) < 1e-9:
        return _flat_result(_SIN_NAMES, (y.mean(), 0.0, np.inf, omega_guess, 0.0))

    def basis(w, t):  # one of w and t is a grid, the other a scalar
        w, t = np.broadcast_arrays(w, t)
        phase, decay = w[:, None] * x, np.exp(-x / t[:, None])
        return np.stack([np.ones_like(phase), decay * np.sin(phase), decay * np.cos(phase)], axis=2)

    # omega first under a fixed envelope, then T at that omega: the residual
    # is sharply curved in omega and flat in T, so only the T line zooms
    ws = np.geomspace(0.25, 4.0, _SIN_OMEGA_GRID) * omega_guess
    w, _, _ = _projected_grid(lambda ws: basis(ws, span / 2), ws, y, zooms=0)
    ts = np.geomspace(span / 20, 50 * span, _SIN_T_GRID)
    t, (a0, cs, cc), grid_rss = _projected_grid(lambda ts: basis(w, ts), ts, y)
    flat_rss = float(np.sum((y - y.mean()) ** 2))
    p0 = np.array([a0, np.hypot(cs, cc), t, w, np.arctan2(cc, cs)])
    lo = np.array([-5.0, -5.0, 1e-9, 0.05 * omega_guess, -2 * np.pi])
    hi = np.array([5.0, 5.0, 100 * span, 8.0 * omega_guess, 2 * np.pi])
    p, se, rss, conv, it = _levenberg_marquardt(
        _sin_f, _sin_jac, x, y, p0, lo, hi, d.weights(weighted)
    )
    # no dominant oscillation: the grid barely beats a constant, or the
    # amplitude is statistically indistinguishable from zero
    no_oscillation = flat_rss > 0 and (grid_rss / flat_rss) > 0.6 and (rss / flat_rss) > 0.5
    # nor a measurable decay: the rate 1/T, whose z-score is T / se_T, is
    # within 3 standard errors of zero
    return _result(_SIN_NAMES, p, se, rss, conv, it,
                   no_oscillation or p[2] < 3 * se[2] or abs(p[1]) < 3 * se[1])
