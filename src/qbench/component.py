"""Component-level benchmarks: per-qubit gates, readout, crosstalk, coherence.

Each experiment builds device-width circuits acting on its target qubit, so
the same generator drives the local simulator and remote backends alike.
Measured fractions come from the target qubit's bit of the full register.

Protocols:

* randomized benchmarking: random Clifford sequences of several lengths,
  each closed by the group inverse, fitted to A*alpha^N + B on the fraction
  of |1> outcomes; error per Clifford r = (1 - alpha)/2 converts to a
  per-gate fidelity through the table's mean pulse count.
* readout: prepare all-zeros and all-ones, estimate each qubit's confusion
  matrix; the fidelity is 1 - (M01 + M10)/2.
* crosstalk: prepare every joint basis state and compare the full
  assignment matrix against the tensor product of per-qubit matrices.
* coherence: relaxation (X - wait - measure), free induction with an
  artificial detuning applied as a wait-dependent frame rotation, and a
  single-refocusing-pulse echo.  The simulator has no low-frequency noise,
  so echo times land near the free-induction times by construction.
"""
from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import cliffords
from .backends import Backend, submit_and_wait
from .circuits import Circuit, Gate, measure_all, rz, wait, x, x90
from .device import readout_fidelity_from_matrix
from .fitting import DataSeries, FitResult, fit_damped_sinusoid, fit_exp_decay, fit_geometric
from .reporting import Outcome, scalar
from .simulator import index_to_bitstring


@dataclass(frozen=True)
class RBConfig:
    lengths: tuple[int, ...] = (1, 20, 40, 80, 120)
    sequences_per_length: int = 10
    shots: int = 4096


@dataclass(frozen=True)
class CoherenceConfig:
    # longest wait of the scan; None runs each experiment's own scan
    # (T1_MAX_WAIT_US, T2STAR_MAX_WAIT_US or T2HAHN_MAX_WAIT_US)
    max_wait_us: float | None = None
    detuning_mhz: float = 0.125
    shots: int = 4096


@dataclass(frozen=True)
class ReadoutConfig:
    shots: int = 4096


@dataclass(frozen=True)
class CrosstalkConfig:
    shots: int = 16384


@dataclass(frozen=True)
class CalibrationConfig:
    shots: int = 4096  # of RB, coherence and readout; crosstalk runs at its own default


_N_WAITS = 32  # points of every coherence scan
T1_MAX_WAIT_US = 60.0
T2STAR_MAX_WAIT_US = 24.0
T2HAHN_MAX_WAIT_US = 120.0
_MAX_WAIT_US = {"t1": T1_MAX_WAIT_US, "t2star": T2STAR_MAX_WAIT_US, "t2hahn": T2HAHN_MAX_WAIT_US}


# --- randomized benchmarking --------------------------------------------------

def gen_rb_sequences(cfg: RBConfig, qubit: int, n_qubits: int, seed: int = 0) -> list[Circuit]:
    """Random Clifford sequences with their closing inverse, one per (length, rep)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, qubit, 0x5B]))
    table = [e.to_ops(qubit) for e in cliffords.ELEMENTS]  # Gate is frozen: share the tuples
    circuits = []
    for n_cliff in cfg.lengths:
        for rep in range(cfg.sequences_per_length):
            indices = rng.integers(0, cliffords.N_CLIFFORDS, size=n_cliff)
            inv = cliffords.INVERSE_TABLE[cliffords.compose_indices(list(indices))]
            ops: list[Gate] = []
            for idx in itertools.chain(indices, (inv,)):
                ops.extend(table[idx])
            ops.append(measure_all())
            circuits.append(
                Circuit(n_qubits, tuple(ops), label=f"rb_q{qubit}_N{n_cliff}_s{rep}")
            )
    return circuits


@dataclass(frozen=True)
class RBResult:
    qubit: int
    lengths: tuple[int, ...]
    incorrect_fractions: tuple[float, ...]
    fit: FitResult
    epc: float
    f1q: float
    valid: bool

    def outcome(self) -> Outcome:
        return Outcome(
            scalars={f"f1q_q{self.qubit}": scalar(self.f1q * 100, "percent"),
                     f"epc_q{self.qubit}": scalar(self.epc, "error_per_clifford")},
            flags=[] if self.valid else [f"q{self.qubit}_fit_invalid"],
        )


def epc_from_alpha(alpha: float) -> float:
    """Error per Clifford from the geometric decay constant."""
    return 0.5 * (1.0 - alpha)


def f1q_from_epc(epc: float) -> float:
    """Average native-gate fidelity from the per-Clifford error."""
    return (1.0 - epc) ** (1.0 / cliffords.AVG_PULSES_PER_CLIFFORD)


def run_rb(backend: Backend, cfg: RBConfig, qubit: int, seed: int = 0) -> RBResult:
    circuits = gen_rb_sequences(cfg, qubit, backend.n_qubits, seed)
    tables = submit_and_wait(backend, circuits, cfg.shots, seed)
    per_length: dict[int, list[float]] = {n: [] for n in cfg.lengths}
    i = 0
    for n_cliff in cfg.lengths:
        for _ in range(cfg.sequences_per_length):
            per_length[n_cliff].append(tables[i].fraction_ones(qubit))
            i += 1
    fractions = tuple(float(np.mean(per_length[n])) for n in cfg.lengths)
    series = DataSeries(
        np.array(cfg.lengths, dtype=float),
        np.array(fractions),
        shots_per_point=cfg.shots * cfg.sequences_per_length,
    )
    fit = fit_geometric(series)
    alpha = fit.value("alpha")
    epc = epc_from_alpha(alpha)
    return RBResult(
        qubit=qubit,
        lengths=cfg.lengths,
        incorrect_fractions=fractions,
        fit=fit,
        epc=epc,
        f1q=f1q_from_epc(epc),
        valid=fit.converged,
    )


# --- readout and crosstalk ----------------------------------------------------

# crosstalk prepares all 2^n joint basis states, so it stops at this width
_CROSSTALK_MAX_QUBITS = 6


@dataclass(frozen=True)
class ReadoutAssignment:
    """Per-qubit confusion matrices."""

    per_qubit: tuple[tuple[tuple[float, float], tuple[float, float]], ...]

    def fidelity(self, qubit: int) -> float:
        return readout_fidelity_from_matrix(self.per_qubit[qubit])

    def outcome(self) -> Outcome:
        return Outcome(scalars={f"fro_q{q}": scalar(self.fidelity(q) * 100, "percent")
                                for q in range(len(self.per_qubit))})


def _basis_prep_circuit(n_qubits: int, bits: int) -> Circuit:
    ops = [x(q) for q in range(n_qubits) if (bits >> (n_qubits - 1 - q)) & 1]
    ops.append(measure_all())
    return Circuit(n_qubits, tuple(ops), label=f"prep_{index_to_bitstring(bits, n_qubits)}")


def measure_readout(backend: Backend, cfg: ReadoutConfig, seed: int = 0) -> ReadoutAssignment:
    """Estimate per-qubit assignment matrices from all-zeros and all-ones preps."""
    n = backend.n_qubits
    zeros = _basis_prep_circuit(n, 0)
    ones = _basis_prep_circuit(n, 2**n - 1)
    t0, t1 = submit_and_wait(backend, [zeros, ones], cfg.shots, seed)
    per_qubit = []
    for q in range(n):
        m01 = t0.fraction_ones(q)
        m10 = 1.0 - t1.fraction_ones(q)
        per_qubit.append(((1.0 - m01, m01), (m10, 1.0 - m10)))
    return ReadoutAssignment(per_qubit=tuple(per_qubit))


@dataclass(frozen=True)
class CrosstalkResult:
    matrix: np.ndarray  # empirical joint assignment, rows = prepared states
    tensor_prediction: np.ndarray
    max_row_l1: float
    max_row_offdiag: float

    def outcome(self) -> Outcome:
        return Outcome(
            scalars={"max_row_l1": scalar(self.max_row_l1, "l1_distance"),
                     "max_row_offdiag": scalar(self.max_row_offdiag, "probability")},
            raw={"crosstalk": {"matrix": self.matrix.tolist()}},
        )


def measure_crosstalk(backend: Backend, cfg: CrosstalkConfig, seed: int = 0) -> CrosstalkResult:
    """Full-register assignment matrix from every joint basis-state preparation.

    The independent-readout prediction is the tensor product of per-qubit
    matrices estimated from the same data's marginals; ``max_row_l1`` is the
    worst row's L1 distance from that prediction.
    """
    n = backend.n_qubits
    if n > _CROSSTALK_MAX_QUBITS:
        raise ValueError(
            f"crosstalk measurement is capped at {_CROSSTALK_MAX_QUBITS} qubits (2^n preparations)"
        )
    dim = 2**n
    circuits = [_basis_prep_circuit(n, b) for b in range(dim)]
    tables = submit_and_wait(backend, circuits, cfg.shots, seed)

    matrix = np.array([t.marginal(range(n)) / cfg.shots for t in tables])

    # per-qubit matrices from marginals over every preparation
    per_qubit = np.zeros((n, 2, 2))
    for b, t in enumerate(tables):
        for q in range(n):
            prepared = (b >> (n - 1 - q)) & 1
            ones = t.fraction_ones(q)
            per_qubit[q, prepared, 1] += ones
            per_qubit[q, prepared, 0] += 1.0 - ones
    per_qubit /= dim / 2  # each prepared value occurs in half the preparations

    prediction = np.zeros((dim, dim))
    for b in range(dim):
        row = np.array([1.0])
        for q in range(n):
            prepared = (b >> (n - 1 - q)) & 1
            row = np.kron(row, per_qubit[q, prepared])
        prediction[b] = row

    l1 = np.abs(matrix - prediction).sum(axis=1)
    offdiag = matrix.sum(axis=1) - np.diag(matrix)
    return CrosstalkResult(
        matrix=matrix,
        tensor_prediction=prediction,
        max_row_l1=float(l1.max()),
        max_row_offdiag=float(offdiag.max()),
    )


# --- coherence times ------------------------------------------------------------

@dataclass(frozen=True)
class CoherenceResult:
    qubit: int
    kind: str
    waits_us: tuple[float, ...]
    fractions: tuple[float, ...]
    fit: FitResult
    time_us: float
    valid: bool

    def outcome(self) -> Outcome:
        return Outcome(
            scalars={f"{self.kind}_q{self.qubit}": scalar(self.time_us, "microsecond")},
            flags=[] if self.valid else [f"q{self.qubit}_fit_invalid"],
        )


def _wait_scan(
    backend: Backend,
    qubit: int,
    cfg: CoherenceConfig,
    kind: str,
    ops_at: Callable[[float], tuple[Gate, ...]],
    fit: Callable[[DataSeries], FitResult],
    seed: int,
) -> CoherenceResult:
    """Run ``ops_at(wait_us)`` then a measurement at every wait and fit the decay."""
    max_wait_us = _MAX_WAIT_US[kind] if cfg.max_wait_us is None else cfg.max_wait_us
    waits = np.linspace(0.0, max_wait_us, _N_WAITS)
    circuits = [
        Circuit(backend.n_qubits, (*ops_at(t), measure_all()), label=f"{kind}_q{qubit}_{i}")
        for i, t in enumerate(waits)
    ]
    tables = submit_and_wait(backend, circuits, cfg.shots, seed)
    y = [t.fraction_ones(qubit) for t in tables]
    result = fit(DataSeries(waits, np.array(y), shots_per_point=cfg.shots))
    return CoherenceResult(
        qubit=qubit,
        kind=kind,
        waits_us=tuple(map(float, waits)),
        fractions=tuple(y),
        fit=result,
        time_us=result.params.get("T", float("nan")),
        valid=result.converged,
    )


def t1_experiment(backend: Backend, qubit: int, cfg: CoherenceConfig = CoherenceConfig(),
                  seed: int = 0) -> CoherenceResult:
    """Relaxation: excite, idle for a scanned duration, measure."""
    return _wait_scan(
        backend, qubit, cfg, "t1",
        lambda t: (x(qubit), wait(qubit, t * 1000.0)),
        fit_exp_decay, seed,
    )


def t2star_experiment(
    backend: Backend, qubit: int, cfg: CoherenceConfig = CoherenceConfig(), seed: int = 0
) -> CoherenceResult:
    """Free-induction dephasing with an artificial detuning.

    The detuning enters as a frame rotation of 2*pi*f*t after each wait so
    the fitted oscillation frequency is known, which keeps slow dephasing
    from masquerading as a frequency mismatch.
    """
    omega = 2 * np.pi * cfg.detuning_mhz  # rad per microsecond

    def fit(series: DataSeries) -> FitResult:
        try:
            return fit_damped_sinusoid(series, omega_guess=omega)
        except ValueError:
            # zero or too-small detuning: decay and frequency are confounded
            return FitResult({}, {}, float("nan"), False, 0, ("unidentifiable",))

    return _wait_scan(
        backend, qubit, cfg, "t2star",
        lambda t: (
            x90(qubit),
            wait(qubit, t * 1000.0),
            rz(qubit, float(omega * t) % (2 * np.pi)),
            x90(qubit),
        ),
        fit, seed,
    )


def t2hahn_experiment(
    backend: Backend, qubit: int, cfg: CoherenceConfig = CoherenceConfig(), seed: int = 0
) -> CoherenceResult:
    """Echo: half the wait, one refocusing pulse, the other half."""
    return _wait_scan(
        backend, qubit, cfg, "t2hahn",
        lambda t: (x90(qubit), wait(qubit, t * 500.0), x(qubit), wait(qubit, t * 500.0), x90(qubit)),
        fit_exp_decay, seed,
    )


def q_factor(t2stars_us: list[float], gate_ns: float) -> float:
    """Mean dephasing time over the single-qubit gate duration."""
    if not t2stars_us:
        raise ValueError("need at least one dephasing time")
    if gate_ns <= 0:
        raise ValueError("gate duration must be positive")
    return float(np.mean(t2stars_us) / (gate_ns / 1000.0))


# --- full calibration ------------------------------------------------------------

@dataclass
class CalibrationSummary:
    rb: list[RBResult]
    readout: ReadoutAssignment
    crosstalk: CrosstalkResult | None  # None when skipped
    t1: list[CoherenceResult]
    t2star: list[CoherenceResult]
    t2hahn: list[CoherenceResult]
    q_factor: float

    def outcome(self) -> Outcome:
        """Per-qubit F1Q, F_RO and coherence times, Q-factor and crosstalk's worst row."""
        out = Outcome(scalars={f"f1q_q{r.qubit}": scalar(r.f1q * 100, "percent") for r in self.rb})
        out.scalars.update(self.readout.outcome().scalars)
        for res in (*self.t1, *self.t2star, *self.t2hahn):
            out.scalars.update(res.outcome().scalars)
        out.scalars["q_factor"] = scalar(self.q_factor, "gates_per_t2star")
        for fits in zip(self.rb, self.t1, self.t2star, self.t2hahn):
            out.flags.extend(f"q{res.qubit}_{tag}_invalid"
                             for tag, res in zip(("rb", "t1", "t2star", "t2hahn"), fits)
                             if not res.valid)
        if self.crosstalk is None:
            out.flags.append("crosstalk_skipped")
        else:
            out.scalars["crosstalk_max_row_l1"] = scalar(self.crosstalk.max_row_l1, "l1_distance")
        return out


def run_calibration(
    backend: Backend, cfg: CalibrationConfig = CalibrationConfig(), seed: int = 0
) -> CalibrationSummary:
    """Every component metric for every qubit at ``cfg.shots``; crosstalk runs at
    its own default and is skipped (None) on backends wider than its cap."""
    n = backend.n_qubits
    rb_cfg = RBConfig(shots=cfg.shots)
    coh_cfg = CoherenceConfig(shots=cfg.shots)
    rb_results = []
    t1s, t2stars, t2hahns = [], [], []
    for q in range(n):
        rb_results.append(run_rb(backend, rb_cfg, q, seed))
        t1s.append(t1_experiment(backend, q, coh_cfg, seed))
        t2stars.append(t2star_experiment(backend, q, coh_cfg, seed))
        t2hahns.append(t2hahn_experiment(backend, q, coh_cfg, seed))
    readout = measure_readout(backend, ReadoutConfig(shots=cfg.shots), seed)
    if n <= _CROSSTALK_MAX_QUBITS:
        crosstalk = measure_crosstalk(backend, CrosstalkConfig(), seed)
    else:
        crosstalk = None
    valid_t2 = [r.time_us for r in t2stars if r.valid]
    gate_ns = backend.device.timing.single_qubit_gate_ns
    qf = q_factor(valid_t2, gate_ns) if valid_t2 else float("nan")
    return CalibrationSummary(
        rb=rb_results,
        readout=readout,
        crosstalk=crosstalk,
        t1=t1s,
        t2star=t2stars,
        t2hahn=t2hahns,
        q_factor=qf,
    )
