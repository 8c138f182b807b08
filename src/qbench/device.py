"""Device models for the built-in noisy simulator.

A DeviceModel bundles per-qubit relaxation/dephasing times, per-qubit
readout confusion matrices, depolarizing strengths for single- and
two-qubit gates, gate timing, and connectivity.  Models are immutable;
drifted variants are produced with :meth:`DeviceModel.with_coherence_scale`.

The bundled reference model mirrors a published five-qubit transmon
characterization (star connectivity, centre qubit 2).  Its two-qubit
depolarizing strength is a placeholder: the source characterization did
not include two-qubit gate fidelities.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import cliffords
from .circuits import TimingModel


@dataclass(frozen=True)
class QubitParams:
    """Relaxation time, Ramsey dephasing time, and readout confusion.

    ``readout[i][j]`` is the probability of reading ``j`` when the qubit held
    ``i``.  ``t2_us`` is the free-induction (Ramsey) dephasing time; the model
    has no low-frequency noise, so echo experiments recover roughly the same
    value.
    """

    t1_us: float
    t2_us: float
    readout: tuple[tuple[float, float], tuple[float, float]] = ((1.0, 0.0), (0.0, 1.0))

    def __post_init__(self) -> None:
        if not (0 < self.t2_us <= 2 * self.t1_us):
            raise ValueError("need 0 < T2 <= 2*T1")
        m = np.asarray(self.readout, dtype=float)
        if m.shape != (2, 2) or (m < 0).any() or (m > 1).any():
            raise ValueError("readout confusion must be a 2x2 matrix of probabilities")
        if np.abs(m.sum(axis=1) - 1.0).max() > 1e-12:
            raise ValueError("readout confusion rows must sum to 1")


@dataclass(frozen=True)
class DriftSchedule:
    """Slow drift of coherence times for stability runs.

    ``epochs`` is a piecewise-constant schedule of (start_s, t1_mult, t2_mult)
    entries sorted by start time; ``jitter_sigma`` adds a Gaussian fractional
    jitter to T2, redrawn once per calibration epoch.
    """

    jitter_sigma: float = 0.1
    epochs: tuple[tuple[float, float, float], ...] = ()

    def multipliers_at(self, t_s: float) -> tuple[float, float]:
        t1m = t2m = 1.0
        for start, m1, m2 in self.epochs:
            if t_s >= start:
                t1m, t2m = m1, m2
        return t1m, t2m


@dataclass(frozen=True)
class DeviceModel:
    qubits: tuple[QubitParams, ...]
    p1: tuple[float, ...]
    p2: float
    timing: TimingModel = TimingModel()
    edges: tuple[tuple[int, int], ...] | None = None  # None means all-to-all
    correlated_readout_epsilon: float = 0.0
    drift: DriftSchedule | None = None

    def __post_init__(self) -> None:
        n = len(self.qubits)
        if n == 0:
            raise ValueError("device needs at least one qubit")
        if len(self.p1) != n:
            raise ValueError("p1 must list one value per qubit")
        if any(not (0 <= p < 1) for p in self.p1) or not (0 <= self.p2 < 1):
            raise ValueError("depolarizing probabilities must lie in [0, 1)")
        if not (0 <= self.correlated_readout_epsilon < 1):
            raise ValueError("correlated readout epsilon must lie in [0, 1)")
        if self.edges is not None:
            canon = tuple(sorted(tuple(sorted(e)) for e in self.edges))
            object.__setattr__(self, "edges", canon)
            for a, b in canon:
                if a == b or not (0 <= a < n and 0 <= b < n):
                    raise ValueError(f"bad edge ({a}, {b})")
        # built once: routing and every simulated CZ look pairs up in it
        object.__setattr__(self, "_edge_set", None if self.edges is None else frozenset(self.edges))

    @property
    def n_qubits(self) -> int:
        return len(self.qubits)

    def edge_set(self) -> frozenset[tuple[int, int]] | None:
        return self._edge_set

    def with_coherence_scale(self, t1_mult: float, t2_mults: list[float]) -> "DeviceModel":
        """Scaled copy; T2 is clipped to the 2*T1 physical bound."""
        qs = []
        for q, m2 in zip(self.qubits, t2_mults):
            t1 = q.t1_us * t1_mult
            t2 = min(max(q.t2_us * m2, 1e-6), 2 * t1)
            qs.append(QubitParams(t1, t2, q.readout))
        return replace(self, qubits=tuple(qs))

    def to_json_dict(self) -> dict:
        doc = {
            "qubits": [
                {
                    "t1_us": q.t1_us if math.isfinite(q.t1_us) else None,
                    "t2_us": q.t2_us if math.isfinite(q.t2_us) else None,
                    "readout": [list(row) for row in q.readout],
                }
                for q in self.qubits
            ],
            "p1": list(self.p1),
            "p2": self.p2,
            "edges": None if self.edges is None else [list(e) for e in self.edges],
            "timing": {
                "single_qubit_gate_ns": self.timing.single_qubit_gate_ns,
                "two_qubit_gate_ns": self.timing.two_qubit_gate_ns,
                "rz_ns": self.timing.rz_ns,
                "measure_ns": self.timing.measure_ns,
            },
            "correlated_readout_epsilon": self.correlated_readout_epsilon,
        }
        if self.drift is not None:
            doc["drift"] = {
                "jitter_sigma": self.drift.jitter_sigma,
                "epochs": [list(e) for e in self.drift.epochs],
            }
        return doc

    @staticmethod
    def from_json_dict(doc: dict) -> "DeviceModel":
        qubits = tuple(
            QubitParams(
                t1_us=math.inf if q.get("t1_us") is None else float(q["t1_us"]),
                t2_us=math.inf if q.get("t2_us") is None else float(q["t2_us"]),
                readout=tuple(tuple(float(v) for v in row) for row in q["readout"]),
            )
            for q in doc["qubits"]
        )
        n = len(qubits)
        p1 = doc.get("p1", 0.0)
        p1 = tuple(float(v) for v in p1) if isinstance(p1, (list, tuple)) else (float(p1),) * n
        timing = TimingModel(**doc["timing"]) if "timing" in doc else TimingModel()
        edges = doc.get("edges")
        drift = None
        if doc.get("drift") is not None:
            drift = DriftSchedule(
                jitter_sigma=float(doc["drift"].get("jitter_sigma", 0.1)),
                epochs=tuple(tuple(e) for e in doc["drift"].get("epochs", ())),
            )
        return DeviceModel(
            qubits=qubits,
            p1=p1,
            p2=float(doc.get("p2", 0.0)),
            timing=timing,
            edges=None if edges is None else tuple(tuple(e) for e in edges),
            correlated_readout_epsilon=float(doc.get("correlated_readout_epsilon", 0.0)),
            drift=drift,
        )


def save_device(model: DeviceModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model.to_json_dict(), fh, indent=2, sort_keys=True)


def load_device(path: str) -> DeviceModel:
    with open(path, encoding="utf-8") as fh:
        return DeviceModel.from_json_dict(json.load(fh))


def pulse_decoherence_polarization(t1_us: float, t2_us: float, gate_ns: float) -> float:
    """Depolarizing-equivalent polarization of idle decay over one pulse."""
    t = gate_ns / 1000.0
    if not math.isfinite(t1_us) and not math.isfinite(t2_us):
        return 1.0
    return (2 * math.exp(-t / t2_us) + math.exp(-t / t1_us)) / 3.0


def backsolve_p1(f1q: float, t1_us: float, t2_us: float, gate_ns: float) -> float:
    """Per-pulse depolarizing strength that makes benchmarking recover ``f1q``.

    The randomized-benchmarking step polarization is the mean over the
    Clifford table of u**k, where k is an element's physical pulse count and
    u combines the depolarizing channel with idle decay over the pulse
    duration.  Inverting that chain (rather than the first-order shortcut
    p1 = 2(1 - F)) keeps the round trip exact to well under 0.01
    percentage points.
    """
    if not (0 < f1q <= 1):
        raise ValueError("fidelity must lie in (0, 1]")
    hist = cliffords.pulse_count_histogram()
    n = cliffords.N_CLIFFORDS
    mean_pulses = cliffords.AVG_PULSES_PER_CLIFFORD
    target = 2 * f1q**mean_pulses - 1  # per-step polarization to reproduce

    def alpha(u: float) -> float:
        return sum(cnt * u**k for k, cnt in hist.items()) / n

    def dalpha(u: float) -> float:
        return sum(cnt * k * u ** (k - 1) for k, cnt in hist.items()) / n

    u = 1.0 - (1.0 - target) / mean_pulses
    for _ in range(60):
        step = (alpha(u) - target) / dalpha(u)
        u -= step
        if abs(step) < 1e-15:
            break
    v = pulse_decoherence_polarization(t1_us, t2_us, gate_ns)
    return float(min(max(1.0 - u / v, 0.0), 0.999))


# Reference five-qubit transmon characterization (times in microseconds,
# fidelities in percent).
_STARMON5_T1 = (15.45, 15.95, 19.42, 22.74, 12.21)
_STARMON5_T2STAR = (13.29, 24.68, 21.40, 21.40, 16.20)
_STARMON5_F1Q = (99.798, 99.827, 99.812, 99.828, 99.868)
_STARMON5_FRO = (96.7, 96.8, 97.5, 98.4, 96.4)
STARMON5_EDGES = ((0, 2), (1, 2), (2, 3), (2, 4))
# CZ depolarizing strength: a placeholder set so the model lands on the
# published volume of 4
_STARMON5_P2 = 0.03


def starmon5_reference_model(drift: DriftSchedule | None = None) -> DeviceModel:
    """Five-qubit star-connectivity reference device.

    Readout infidelity splits symmetrically into both confusion entries, and
    the per-qubit depolarizing strength is back-solved so the benchmarking
    round trip reproduces the tabulated gate fidelities.  The CZ
    depolarizing strength is an invented placeholder: the reference
    characterization measured no two-qubit fidelity.
    """
    timing = TimingModel()
    qubits = []
    p1 = []
    for t1, t2, f1q, fro in zip(_STARMON5_T1, _STARMON5_T2STAR, _STARMON5_F1Q, _STARMON5_FRO):
        eps_ro = 1.0 - fro / 100.0
        m = ((1.0 - eps_ro, eps_ro), (eps_ro, 1.0 - eps_ro))
        qubits.append(QubitParams(t1_us=t1, t2_us=t2, readout=m))
        p1.append(backsolve_p1(f1q / 100.0, t1, t2, timing.single_qubit_gate_ns))
    return DeviceModel(
        qubits=tuple(qubits),
        p1=tuple(p1),
        p2=_STARMON5_P2,
        timing=timing,
        edges=STARMON5_EDGES,
        drift=drift,
    )


def ideal_device(n_qubits: int, edges: tuple[tuple[int, int], ...] | None = None) -> DeviceModel:
    """Noiseless fully-connected device: infinite coherence, perfect readout."""
    q = QubitParams(t1_us=math.inf, t2_us=math.inf)
    return DeviceModel(
        qubits=(q,) * n_qubits,
        p1=(0.0,) * n_qubits,
        p2=0.0,
        edges=edges,
    )
