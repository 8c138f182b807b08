"""Ideal and noisy circuit simulators.

The ideal path evolves a pure state and returns exact Born probabilities;
it is the classical oracle used for heavy-output sets and fidelity
references.  Each qubit keeps one pending 2x2 unitary (its pulses, with RZ
frames as row scalings) that is applied with one matrix product before
the qubit's next CZ and at the end.  ``run_noisy`` takes this same path on a
device whose channels on the circuit's qubits are all the identity (no
depolarizing, infinite T1, no pure dephasing).

On any other device the noisy path evolves a density matrix: every
physical pulse is its unitary followed by a depolarizing channel, every CZ
is followed by two-qubit depolarizing noise, and idle decay (amplitude
damping to the T1 and extra pure dephasing to the T2 of each qubit) runs
for the duration of every scheduling layer on every qubit.  On both paths
sampled bits pass through per-qubit readout confusion with an optional
correlated flip term.

Every single-qubit map is a 4x4 Liouville superoperator.  Between two CZs a
qubit's maps multiply into one, applied to the density matrix with a single
tensordot before the qubit's next CZ and at the end of the circuit.

Bit convention everywhere: qubit 0 is the leftmost character of a
bitstring, i.e. the most significant bit of a basis index.

Virtual RZ gates and WAIT are error-free apart from the idle decay WAIT
adds through its duration; measurement samples the final state as-is, since
confusion matrices are calibrated quantities that already contain
measurement-process errors.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit
from .cliffords import X90_MAT, X_MAT, Y90_MAT
from .device import DeviceModel

IDEAL_QUBIT_CAP = 12

_GATE_1Q = {"X": X_MAT, "X90": X90_MAT, "Y90": Y90_MAT}


# --- pure-state simulation --------------------------------------------------

_IDENTITY_2 = np.eye(2, dtype=complex)


def _evolve_pure(circuit: Circuit, qubits: list[int]) -> np.ndarray:
    """Pure state of ``qubits`` (a (2,)*k tensor, in that order) after the body.

    Each qubit keeps one pending 2x2 unitary that collects its pulses and RZ
    frames (row scaling) since its last CZ, applied with one matrix product
    before its next CZ and at the end.  WAIT is the identity.
    """
    k = len(qubits)
    pos = {q: i for i, q in enumerate(qubits)}
    psi = np.zeros((2,) * k, dtype=complex)
    psi[(0,) * k] = 1.0
    pending: list[np.ndarray | None] = [None] * k

    def flush(i: int) -> None:
        nonlocal psi
        if pending[i] is not None:
            psi = (pending[i] @ psi.reshape(2**i, 2, -1)).reshape(psi.shape)
            pending[i] = None

    for g in circuit.body():
        if g.kind in _GATE_1Q:
            i = pos[g.qubits[0]]
            u = _GATE_1Q[g.kind]
            pending[i] = u if pending[i] is None else u @ pending[i]
        elif g.kind == "RZ":
            i = pos[g.qubits[0]]
            phase = cmath.exp(-0.5j * g.angle_rad)
            u = (_IDENTITY_2 if pending[i] is None else pending[i]).copy()
            u[0] *= phase
            u[1] *= phase.conjugate()
            pending[i] = u
        elif g.kind == "CZ":
            a, b = pos[g.qubits[0]], pos[g.qubits[1]]
            flush(a)
            flush(b)
            idx = [slice(None)] * k
            idx[a], idx[b] = 1, 1
            psi[tuple(idx)] *= -1.0
    for i in range(k):
        flush(i)
    return psi


def run_ideal(circuit: Circuit, cap: int = IDEAL_QUBIT_CAP) -> np.ndarray:
    """Exact outcome probabilities of a circuit on the all-zeros input."""
    n = circuit.n_qubits
    if n > cap:
        raise ValueError(f"ideal simulation capped at {cap} qubits, got {n}")
    probs = np.abs(_evolve_pure(circuit, list(range(n))).reshape(-1)) ** 2
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise RuntimeError("state norm drifted during ideal simulation")
    return probs / total


def index_to_bitstring(index: int, n: int) -> str:
    return format(index, f"0{n}b")


# --- measurement records -----------------------------------------------------

@dataclass(frozen=True)
class ShotTable:
    """Histogram of measured bitstrings for one executed circuit."""

    counts: dict[str, int]
    shots: int
    seed: int
    n_qubits: int

    def __post_init__(self) -> None:
        if sum(self.counts.values()) != self.shots:
            raise ValueError("counts must sum to the shot total")
        for b in self.counts:
            if len(b) != self.n_qubits or set(b) - {"0", "1"}:
                raise ValueError(f"bad bitstring key {b!r}")

    def fraction_ones(self, qubit: int) -> float:
        hits = sum(c for b, c in self.counts.items() if b[qubit] == "1")
        return hits / self.shots

    def frequencies(self) -> np.ndarray:
        out = np.zeros(2**self.n_qubits)
        for b, c in self.counts.items():
            out[int(b, 2)] = c / self.shots
        return out

    def marginal(self, positions: tuple[int, ...]) -> dict[str, int]:
        out: dict[str, int] = {}
        for b, c in self.counts.items():
            key = "".join(b[p] for p in positions)
            out[key] = out.get(key, 0) + c
        return out


# --- noise channels ------------------------------------------------------------
# 4x4 Liouville superoperators on a qubit's (ket, bra) pair indexed 2*ket + bra,
# so rho -> M rho M^dagger is kron(M, M.conj()) and channels compose by matmul.

_VEC_I = np.array([1.0, 0.0, 0.0, 1.0])
_IDENTITY_4 = np.eye(4, dtype=complex)
_PULSE_SUPEROPS = {kind: np.kron(u, u.conj()) for kind, u in _GATE_1Q.items()}


def depolarizing_superop(p: float) -> np.ndarray:
    """rho -> (1 - p) rho + p tr(rho) I/2."""
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    return (1 - p) * _IDENTITY_4 + (p / 2.0) * np.outer(_VEC_I, _VEC_I)


def amplitude_damping_superop(gamma: float) -> np.ndarray:
    if not 0 <= gamma <= 1:
        raise ValueError("gamma must lie in [0, 1]")
    s = math.sqrt(1 - gamma)
    return np.array(
        [[1, 0, 0, gamma], [0, s, 0, 0], [0, 0, s, 0], [0, 0, 0, 1 - gamma]],
        dtype=complex,
    )


def dephasing_superop(lam: float) -> np.ndarray:
    """Scales coherences by exactly (1 - lam)."""
    if not 0 <= lam <= 1:
        raise ValueError("lambda must lie in [0, 1]")
    return np.diag([1.0, 1 - lam, 1 - lam, 1.0]).astype(complex)


def idle_superop(t1_us: float, t2_us: float, dt_ns: float) -> np.ndarray | None:
    """Amplitude damping to T1, then the pure dephasing that completes T2,
    over ``dt_ns``; None when that channel is the identity."""
    dt_us = dt_ns / 1000.0
    gamma = 0.0 if not math.isfinite(t1_us) else 1.0 - math.exp(-dt_us / t1_us)
    # pure-dephasing rate; none is left when T2 saturates 2*T1
    inv_tphi = 1.0 / t2_us - 1.0 / (2.0 * t1_us) if math.isfinite(t2_us) else 0.0
    lam = 1.0 - math.exp(-dt_us * inv_tphi) if inv_tphi > 1e-15 else 0.0
    if gamma <= 0 and lam <= 0:
        return None
    return dephasing_superop(lam) @ amplitude_damping_superop(gamma)


# --- density-matrix evolution -------------------------------------------------

class _Density:
    """Density matrix as a (2,)*2n tensor: ket axes first, then bra axes."""

    def __init__(self, n: int) -> None:
        self.n = n
        rho = np.zeros((2,) * (2 * n), dtype=complex)
        rho[(0,) * (2 * n)] = 1.0
        self.rho = rho

    def apply_superop_1q(self, s: np.ndarray, q: int) -> None:
        n = self.n
        rho = np.tensordot(s.reshape(2, 2, 2, 2), self.rho, axes=([2, 3], [q, n + q]))
        self.rho = np.moveaxis(rho, (0, 1), (q, n + q))

    def apply_cz(self, a: int, b: int) -> None:
        n = self.n
        sign = np.ones((2, 2))
        sign[1, 1] = -1.0
        shape_ket = [1] * (2 * n)
        shape_ket[a], shape_ket[b] = 2, 2
        shape_bra = [1] * (2 * n)
        shape_bra[n + a], shape_bra[n + b] = 2, 2
        self.rho = self.rho * sign.reshape(shape_ket)
        self.rho = self.rho * sign.reshape(shape_bra)

    def depolarize_2q(self, p: float, a: int, b: int) -> None:
        if p <= 0:
            return
        n = self.n
        tr = np.trace(self.rho, axis1=a, axis2=n + a)
        # axis positions shift after removing the first pair
        b_ket = b - 1 if b > a else b
        b_bra = (n - 1) + b_ket
        tr = np.trace(tr, axis1=b_ket, axis2=b_bra)
        out = (1 - p) * self.rho
        for ba in (0, 1):
            for bb in (0, 1):
                idx = [slice(None)] * (2 * n)
                idx[a], idx[n + a] = ba, ba
                idx[b], idx[n + b] = bb, bb
                out[tuple(idx)] += (p / 4.0) * tr
        self.rho = out

    def check(self) -> None:
        n = self.n
        dim = 2**n
        m = self.rho.reshape(dim, dim)
        if abs(np.trace(m).real - 1.0) > 1e-9 or abs(np.trace(m).imag) > 1e-9:
            raise RuntimeError("density matrix trace drifted")
        if np.abs(m - m.conj().T).max() > 1e-9:
            raise RuntimeError("density matrix lost Hermiticity")
        if np.real(np.diag(m)).min() < -1e-12:
            raise RuntimeError("density matrix has a negative population")

    def diagonal_probs(self) -> np.ndarray:
        """Outcome probabilities; only round-off negatives that check() admits are clipped."""
        dim = 2**self.n
        d = np.real(np.diag(self.rho.reshape(dim, dim)))
        d = np.clip(d, 0.0, None)
        return d / d.sum()


def _evolve(circuit: Circuit, device: DeviceModel) -> tuple[list[int], _Density | None]:
    """Evolve the circuit's active qubits; returns them and their final state.

    Each active qubit accumulates its single-qubit maps since its last CZ in
    one pending superoperator, flushed into the state before its next CZ and
    at the end; maps on different qubits commute, so the fusion is exact.
    """
    active = sorted({q for g in circuit.ops for q in g.qubits})
    if not active:
        return active, None
    pos = {q: i for i, q in enumerate(active)}
    state = _Density(len(active))
    pending: list[np.ndarray | None] = [None] * len(active)
    deps = [depolarizing_superop(device.p1[q]) for q in active]
    pulses = {(kind, i): dep @ s for kind, s in _PULSE_SUPEROPS.items()
              for i, dep in enumerate(deps)}
    idle_cache: dict[tuple[int, float], np.ndarray | None] = {}

    def flush(i: int) -> None:
        if pending[i] is not None:
            state.apply_superop_1q(pending[i], i)
        pending[i] = None

    for layer in circuit.layers():
        if layer[0].kind == "MEASURE_ALL":
            continue
        for g in layer:
            if g.kind in _GATE_1Q:
                i = pos[g.qubits[0]]
                s = pulses[g.kind, i]
                pending[i] = s if pending[i] is None else s @ pending[i]
            elif g.kind == "RZ":
                i = pos[g.qubits[0]]
                phase = cmath.exp(-1j * g.angle_rad)
                s = (_IDENTITY_4 if pending[i] is None else pending[i]).copy()
                s[1] *= phase
                s[2] *= phase.conjugate()
                pending[i] = s
            elif g.kind == "CZ":
                a, b = pos[g.qubits[0]], pos[g.qubits[1]]
                flush(a)
                flush(b)
                state.apply_cz(a, b)
                state.depolarize_2q(device.p2, a, b)
        duration = max(device.timing.gate_duration_ns(g) for g in layer)
        if duration > 0:
            for i, q_phys in enumerate(active):
                key = (q_phys, duration)
                if key not in idle_cache:
                    qp = device.qubits[q_phys]
                    idle_cache[key] = idle_superop(qp.t1_us, qp.t2_us, duration)
                s = idle_cache[key]
                if s is not None:
                    pending[i] = s if pending[i] is None else s @ pending[i]
    for i in range(len(active)):
        flush(i)
    return active, state


def _noiseless(device: DeviceModel, qubits: list[int]) -> bool:
    """True when every channel on these qubits is the identity: no pulse or
    CZ depolarizing, infinite T1 and no pure dephasing."""
    # with T1 infinite, whether the idle channel is the identity does not
    # depend on the duration probed
    return device.p2 == 0 and all(
        device.p1[q] == 0
        and math.isinf(device.qubits[q].t1_us)
        and idle_superop(device.qubits[q].t1_us, device.qubits[q].t2_us, 1.0) is None
        for q in qubits
    )


def _outcome_probs(circuit: Circuit, device: DeviceModel) -> tuple[list[int], np.ndarray | None]:
    """The circuit's active qubits and their outcome distribution.

    A noiseless device takes the pure-state path; any other the fused
    density-matrix path.
    """
    active = sorted({q for g in circuit.ops for q in g.qubits})
    if not active:
        return active, None
    if _noiseless(device, active):
        probs = np.abs(_evolve_pure(circuit, active).reshape(-1)) ** 2
        return active, probs / probs.sum()
    _, state = _evolve(circuit, device)
    state.check()
    return active, state.diagonal_probs()


def run_noisy(
    circuit: Circuit,
    device: DeviceModel,
    shots: int,
    seed: int | np.random.Generator,
) -> ShotTable:
    """Execute a circuit on the simulated device and sample measured bits.

    Deterministic given the seed.  Only qubits touched by gates are evolved;
    untouched qubits sit in the ground state, which is a fixed point of every
    idle channel, so their bits are drawn straight from the confusion matrix.
    """
    n = circuit.n_qubits
    if n > device.n_qubits:
        raise ValueError(
            f"circuit needs {n} qubits but the device has {device.n_qubits}"
        )
    for g in circuit.ops:
        if g.kind == "CZ" and not device.is_connected(*g.qubits):
            raise ValueError(f"CZ on unconnected pair {g.qubits}")

    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    seed_val = -1 if isinstance(seed, np.random.Generator) else int(seed)

    bits = np.zeros((shots, n), dtype=np.uint8)
    active, probs = _outcome_probs(circuit, device)
    if active:
        k = len(active)
        outcomes = rng.choice(2**k, size=shots, p=probs)
        for i, q_phys in enumerate(active):
            bits[:, q_phys] = (outcomes >> (k - 1 - i)) & 1

    # per-qubit readout confusion
    for q in range(n):
        m = device.qubits[q].readout
        p_flip = np.where(bits[:, q] == 1, m[1][0], m[0][1])
        flips = rng.random(shots) < p_flip
        bits[:, q] ^= flips.astype(np.uint8)

    # optional correlated readout flips along device edges
    eps = device.correlated_readout_epsilon
    if eps > 0 and device.edges:
        for a, b in device.edges:
            if a < n and b < n:
                mask = rng.random(shots) < eps
                bits[:, a] ^= mask.astype(np.uint8)
                bits[:, b] ^= mask.astype(np.uint8)

    weights = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)
    ints = bits.astype(np.int64) @ weights
    values, counts = np.unique(ints, return_counts=True)
    table = {
        index_to_bitstring(int(v), n): int(c) for v, c in zip(values, counts)
    }
    return ShotTable(counts=table, shots=shots, seed=seed_val, n_qubits=n)
