"""System-level benchmarks: quantum volume, throughput, and stability.

Quantum volume runs square random circuits: d layers on d qubits, each layer
a random pairing with Haar-random two-qubit unitaries on the pairs.  A depth
passes when the mean heavy-output fraction minus two binomial standard
errors clears 2/3, and the volume is 2**d for the deepest d with every
depth up to it passing.  Pairings are virtual (they choose which qubits a
block acts on); blocks on unconnected pairs are routed through a shared
neighbour.

Throughput (circuit layer operations per second) chains parameterized
square-circuit templates: each round's measured bits seed the PRNG that
draws the next round's angles, so rounds are strictly sequential per
template.  On a backend with a timing model (the simulator) the quantum
time is modeled from it while binding and parameter derivation contribute
measured wall time; execution of the matrix simulation itself stands in for
the QPU and is excluded.

Stability repeats the free-induction dephasing experiment over the
backend's virtual clock, where it has one, and summarizes each qubit's
relative spread.
"""
from __future__ import annotations

import hashlib
import struct
import time
from dataclasses import dataclass

import numpy as np

from .backends import Backend, BackendError, submit_and_wait
from .circuits import Circuit, Gate, ParamCircuit, measure_all, parameterize_rz
from .compile import route_ops, su4_ops
from .component import CoherenceConfig, t2star_experiment
from .reporting import Outcome, scalar
from .simulator import ShotTable


def haar_su4(rng: np.random.Generator) -> np.ndarray:
    """Haar-random SU(4) via QR of a complex Gaussian with phase normalization."""
    z = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return q / np.linalg.det(q) ** 0.25


@dataclass(frozen=True)
class QVLayer:
    permutation: tuple[int, ...]
    unitaries: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class QVCircuitSpec:
    """Width-d, depth-d random model circuit: one pairing + SU(4)s per layer."""

    width: int
    layers: tuple[QVLayer, ...]

    def __post_init__(self) -> None:
        if len(self.layers) != self.width:
            raise ValueError("model circuits are square: layer count must equal width")


def gen_qv_spec(d: int, seed: int) -> QVCircuitSpec:
    if d < 2:
        raise ValueError("quantum volume widths start at 2")
    rng = np.random.default_rng(np.random.SeedSequence([seed, d, 0x9E]))
    layers = []
    for _ in range(d):
        perm = tuple(int(v) for v in rng.permutation(d))
        mats = tuple(haar_su4(rng) for _ in range(d // 2))
        layers.append(QVLayer(permutation=perm, unitaries=mats))
    return QVCircuitSpec(width=d, layers=tuple(layers))


def compile_qv_circuit(
    spec: QVCircuitSpec,
    n_qubits: int,
    qubit_map: list[int] | None = None,
    connectivity: frozenset[tuple[int, int]] | None = None,
    label: str = "",
) -> Circuit:
    """Native-gate circuit for a model circuit on mapped physical qubits.

    Routing is the baseline swap-sandwich per CZ: each unconnected CZ moves
    one qubit next to its partner and back, so the measured register needs
    no relabeling afterwards.
    """
    d = spec.width
    mapping = list(range(d)) if qubit_map is None else list(qubit_map[:d])
    ops: list[Gate] = []
    for layer in spec.layers:
        for k, u in enumerate(layer.unitaries):
            la, lb = layer.permutation[2 * k], layer.permutation[2 * k + 1]
            a, b = mapping[la], mapping[lb]
            ops.extend(su4_ops(u, a, b))
    ops = route_ops(ops, connectivity)
    ops.append(measure_all())
    return Circuit(n_qubits, tuple(ops), label=label)


def ideal_qv_probs(spec: QVCircuitSpec) -> np.ndarray:
    """Exact output distribution of the model circuit at its logical width."""
    d = spec.width
    psi = np.zeros((2,) * d, dtype=complex)
    psi[(0,) * d] = 1.0
    for layer in spec.layers:
        for k, u in enumerate(layer.unitaries):
            a, b = layer.permutation[2 * k], layer.permutation[2 * k + 1]
            ut = u.reshape(2, 2, 2, 2)
            psi = np.tensordot(ut, psi, axes=([2, 3], [a, b]))
            psi = np.moveaxis(psi, (0, 1), (a, b))
    return np.abs(psi.reshape(-1)) ** 2


def heavy_set(ideal_probs: np.ndarray) -> np.ndarray:
    """Indices of the outcomes strictly above the median ideal probability,
    ascending, for indexing a ``ShotTable.marginal`` count vector."""
    probs = np.asarray(ideal_probs, dtype=float)
    return np.flatnonzero(probs > np.median(probs))


# a width passes when its heavy fraction minus QV_Z standard errors clears QV_THRESHOLD
QV_THRESHOLD = 2.0 / 3.0
QV_Z = 2.0


@dataclass(frozen=True)
class QVConfig:
    n_circuits: int = 100
    shots: int = 100
    max_width: int | None = None


@dataclass(frozen=True)
class QVDepthResult:
    depth: int
    heavy_fraction: float
    sigma: float
    passed: bool
    circuit_fractions: tuple[float, ...]


@dataclass(frozen=True)
class QVResult:
    qv: int
    per_depth: tuple[QVDepthResult, ...]
    flag: str | None

    def outcome(self) -> Outcome:
        return Outcome(
            scalars={"quantum_volume": scalar(self.qv, "dimensionless"),
                     **{f"heavy_fraction_d{d.depth}": scalar(d.heavy_fraction, "fraction")
                        for d in self.per_depth}},
            flags=[self.flag] if self.flag else [],
        )


def run_quantum_volume(backend: Backend, cfg: QVConfig, seed: int = 0) -> QVResult:
    """Measure the quantum volume over widths 2..max_width."""
    max_width = cfg.max_width or backend.n_qubits
    max_width = min(max_width, backend.n_qubits)
    order = backend.preferred_qubit_order()
    results = []
    for d in range(2, max_width + 1):
        heavy_sets = []
        circuits = []
        for i in range(cfg.n_circuits):
            spec = gen_qv_spec(d, seed=seed * 100003 + d * 1009 + i)
            heavy_sets.append(heavy_set(ideal_qv_probs(spec)))
            circuits.append(
                compile_qv_circuit(
                    spec,
                    backend.n_qubits,
                    qubit_map=order,
                    connectivity=backend.connectivity,
                    label=f"qv_d{d}_c{i}",
                )
            )
        tables = submit_and_wait(backend, circuits, cfg.shots, seed=seed * 7919 + d)
        positions = tuple(order[:d])
        fractions = [
            int(table.marginal(positions)[hs].sum()) / cfg.shots
            for hs, table in zip(heavy_sets, tables)
        ]
        mean = float(np.mean(fractions))
        sigma = float(np.sqrt(max(mean * (1 - mean), 1e-12) / (cfg.n_circuits * cfg.shots)))
        passed = (mean - QV_Z * sigma) > QV_THRESHOLD
        results.append(
            QVDepthResult(
                depth=d,
                heavy_fraction=mean,
                sigma=sigma,
                passed=passed,
                circuit_fractions=tuple(fractions),
            )
        )

    # consecutive-pass rule: the volume reflects the deepest d with every
    # depth up to d passing
    best_d = 0
    for r in results:
        if r.passed:
            best_d = r.depth
        else:
            break
    if best_d == 0:
        return QVResult(qv=1, per_depth=tuple(results), flag="no_depth_passed")
    return QVResult(qv=2**best_d, per_depth=tuple(results), flag=None)


# --- throughput -------------------------------------------------------------------


def clops_value(m: int, k: int, s: int, d: int, t_total_s: float) -> float:
    """Circuit layer operations per second: M*K*S*D / T_total."""
    if t_total_s <= 0:
        raise ValueError("total time must be positive")
    return (m * k * s * d) / t_total_s


def seed_from_counts(table: ShotTable) -> int:
    """Deterministic 64-bit seed from a shot table's measured bitstrings."""
    digest = hashlib.blake2b(digest_size=8)
    for key in sorted(table.counts):
        digest.update(f"{key}:{table.counts[key]};".encode())
    return int.from_bytes(digest.digest(), "big")


_TWO_PI_OVER_2_64 = 2.0 * np.pi / 2.0**64


def angles_from_seed(seed: int, round_index: int, n_params: int) -> list[float]:
    """Uniform angles in [0, 2*pi) expanded from a 64-bit seed.

    Hash-counter expansion keeps the per-round parameter update cheap; the
    derivation is part of the timed classical-processing window.
    """
    out: list[float] = []
    base = seed.to_bytes(8, "big") + round_index.to_bytes(4, "big")
    counter = 0
    while len(out) < n_params:
        block = hashlib.blake2b(base + counter.to_bytes(4, "big"), digest_size=64).digest()
        out.extend(w * _TWO_PI_OVER_2_64 for (w,) in struct.iter_unpack(">Q", block))
        counter += 1
    return out[:n_params]


@dataclass(frozen=True)
class CLOPSConfig:
    m_templates: int = 100
    k_updates: int = 10
    shots: int = 100


@dataclass
class CLOPSResult:
    clops: float
    t_total_s: float
    t_quantum_s: float
    t_classical_s: float
    d: int
    rounds_completed: int

    def outcome(self) -> Outcome:
        return Outcome(
            scalars={"clops": scalar(self.clops, "layer_ops_per_second"),
                     "layers_d": scalar(self.d, "layers")},
            timing={"t_total_s": self.t_total_s, "t_quantum_s": self.t_quantum_s,
                    "t_classical_s": self.t_classical_s},
        )


class CLOPSPartialError(BackendError):
    """Backend failed mid-run; carries the rounds that did finish."""

    def __init__(self, rounds_completed: int, cause: Exception) -> None:
        super().__init__(f"backend failed after {rounds_completed} rounds: {cause}")
        self.rounds_completed = rounds_completed
        self.cause = cause


def make_clops_templates(
    d: int,
    m_templates: int,
    seed: int,
    n_qubits: int,
    qubit_map: list[int] | None,
    connectivity: frozenset[tuple[int, int]] | None,
) -> list[ParamCircuit]:
    """Square-circuit templates whose RZ angles are free parameters."""
    templates = []
    for m in range(m_templates):
        spec = gen_qv_spec(d, seed=seed * 60013 + m)
        circuit = compile_qv_circuit(
            spec, n_qubits, qubit_map=qubit_map, connectivity=connectivity,
            label=f"clops_t{m}",
        )
        templates.append(parameterize_rz(circuit))
    return templates


def volume_width(quantum_volume: int) -> int:
    """The width d of a quantum volume 2^d that a QV run reports, which has d >= 2."""
    d = int(quantum_volume).bit_length() - 1
    if d < 2 or quantum_volume != 1 << d:
        raise ValueError(f"a quantum volume is a power of two of at least 4, got {quantum_volume}")
    return d


def run_clops(
    backend: Backend,
    cfg: CLOPSConfig,
    measured_qv: int,
    seed: int = 0,
) -> CLOPSResult:
    """Chained-template throughput measurement.

    Round k+1 of each template binds angles drawn from a PRNG seeded by a
    hash of round k's measured bitstrings, so no round can start before its
    predecessor's shots exist.  Queue time does not exist on the local
    backend; remote adapters must exclude it from the measured window.
    """
    d = volume_width(measured_qv)  # template depth and width
    if d > backend.n_qubits:
        raise ValueError(f"{d}-qubit templates do not fit a {backend.n_qubits}-qubit backend")
    order = backend.preferred_qubit_order()
    templates = make_clops_templates(
        d, cfg.m_templates, seed, backend.n_qubits, order, backend.connectivity
    )

    # Backends with a timing model get a modeled quantum window (the matrix
    # simulation stands in for the QPU, so its wall time is excluded); other
    # backends are timed around the execution call, which on the bundled mock
    # has no queue.  Real adapters must subtract queue time from this window.
    timing = backend.timing
    t_quantum = 0.0
    t_classical = 0.0
    angle_seeds = [seed * 31 + m for m in range(cfg.m_templates)]
    rounds_done = 0
    for k in range(cfg.k_updates):
        tick = time.perf_counter()
        bound = [
            tpl.bind(angles_from_seed(angle_seeds[m], k, tpl.n_params))
            for m, tpl in enumerate(templates)
        ]
        t_classical += time.perf_counter() - tick

        tick = time.perf_counter()
        try:
            tables = submit_and_wait(backend, bound, cfg.shots, seed=seed * 101 + k)
        except BackendError as err:
            raise CLOPSPartialError(rounds_done, err) from err
        if timing is not None:
            t_quantum += sum(c.duration_ns(timing) for c in bound) * 1e-9 * cfg.shots
        else:
            t_quantum += time.perf_counter() - tick

        tick = time.perf_counter()
        angle_seeds = [seed_from_counts(t) for t in tables]
        t_classical += time.perf_counter() - tick
        rounds_done += 1

    t_total = t_quantum + t_classical
    return CLOPSResult(
        clops=clops_value(cfg.m_templates, cfg.k_updates, cfg.shots, d, t_total),
        t_total_s=t_total,
        t_quantum_s=t_quantum,
        t_classical_s=t_classical,
        d=d,
        rounds_completed=rounds_done,
    )


# --- stability -----------------------------------------------------------------

STABILITY_MIN_REPEATS = 3  # fewest repeats a relative spread is reported over


@dataclass(frozen=True)
class StabilityConfig:
    repeats: int = 5
    interval_s: float = 3600.0  # backend clock advance before each repeat
    shots: int = 4096

    def __post_init__(self) -> None:
        if self.repeats < STABILITY_MIN_REPEATS:
            raise ValueError(f"stability needs at least {STABILITY_MIN_REPEATS} repeats")
        if not 0.0 <= self.interval_s < float("inf"):  # also rejects NaN
            raise ValueError(f"stability interval must be finite and >= 0 s, got {self.interval_s}")


@dataclass(frozen=True)
class StabilityRecord:
    qubits: tuple[int, ...]
    timestamps_s: tuple[float, ...]
    t2star_us: tuple[tuple[float, ...], ...]  # [qubit][repeat], nan when flagged
    stderr_us: tuple[tuple[float, ...], ...]
    relative_std: tuple[float, ...]
    flagged: int

    def outcome(self) -> Outcome:
        finite = [v for v in self.relative_std if np.isfinite(v)]
        rel_std = zip(self.qubits, self.relative_std)
        return Outcome(scalars={
            "max_rel_std": scalar(max(finite) if finite else float("nan"), "fraction"),
            **{f"rel_std_q{q}": scalar(rs, "fraction") for q, rs in rel_std},
            "flagged_points": scalar(self.flagged, "count"),
        })


def run_stability(
    backend: Backend,
    cfg: StabilityConfig = StabilityConfig(),
    seed: int = 0,
    qubits: list[int] | None = None,
) -> StabilityRecord:
    """Track the free-induction dephasing time over a scan of repeats.

    Unidentifiable fits are excluded from the per-qubit summary and counted.
    """
    coh_cfg = CoherenceConfig(shots=cfg.shots)
    qubits = list(range(backend.n_qubits)) if qubits is None else qubits
    stamps = []
    series: list[list[float]] = [[] for _ in qubits]
    errs: list[list[float]] = [[] for _ in qubits]
    flagged = 0
    for rep in range(cfg.repeats):
        clock_s = backend.advance_clock(cfg.interval_s)
        stamps.append(rep * cfg.interval_s if clock_s is None else clock_s)
        for qi, q in enumerate(qubits):
            res = t2star_experiment(backend, q, coh_cfg, seed=seed * 997 + rep * 31 + q)
            if res.valid:
                series[qi].append(res.time_us)
                errs[qi].append(res.fit.stderr.get("T", float("nan")))
            else:
                series[qi].append(float("nan"))
                errs[qi].append(float("nan"))
                flagged += 1
    rel_std = []
    for qi in range(len(qubits)):
        vals = np.array([v for v in series[qi] if np.isfinite(v)])
        if len(vals) >= 2:
            rel_std.append(float(np.std(vals, ddof=1) / np.mean(vals)))
        else:
            rel_std.append(float("nan"))
    return StabilityRecord(
        qubits=tuple(qubits),
        timestamps_s=tuple(stamps),
        t2star_us=tuple(tuple(s) for s in series),
        stderr_us=tuple(tuple(e) for e in errs),
        relative_std=tuple(rel_std),
        flagged=flagged,
    )
