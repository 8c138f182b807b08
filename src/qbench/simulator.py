"""Ideal and noisy circuit simulators, on one fused evolver.

``_evolve`` serves both.  Without a device it evolves a pure state, a
(2,)*k tensor, and ``run_ideal`` returns its exact Born probabilities; it is
the classical oracle used for heavy-output sets and fidelity references.
``run_noisy`` takes the same pure path on a device whose channels on the
circuit's qubits are all the identity (no depolarizing, infinite T1, no
pure dephasing).

On any other device it evolves a density matrix stored as a (4,)*k tensor:
axis i holds qubit i's (ket, bra) pair at index 2*ket + bra, so a 4x4
Liouville superoperator acts on one axis the way a 2x2 unitary acts on a
pure state.  Every physical pulse is its unitary followed by a depolarizing
channel, every CZ is followed by two-qubit depolarizing noise, and idle
decay (amplitude damping to the T1 and extra pure dephasing to the T2 of
each qubit) runs for the duration of every scheduling layer on every qubit.

In both modes each qubit's single-qubit maps between two CZs multiply into
one pending d x d map (d = 2 or 4), applied with one matrix product before
the qubit's next CZ and at the end; a CZ is a constant sign mask on two
axes.  On the pure path a pending map is a row-major tuple of four Python
complex scalars, multiplied out by hand and turned into an array only when
applied, so pure-path probabilities match those of numpy 2x2 products to
rounding only (a few ulp).  A scheduling layer holds at most one gate per
qubit, so on the density path a qubit's pulse and the idle decay of the
layer it sits in join the pending map as one fused 4x4 map,
idle @ (depolarizing @ pulse), built once per call for each (pulse kind,
qubit, layer duration).

Sampled bits then pass through per-qubit readout confusion with an
optional correlated flip term.  The draws from the generator are part of
the determinism contract and come in this order: one ``choice`` of
``shots`` outcomes over the active qubits (none when no qubit is active),
then one (n, shots) block of uniforms whose row q decides qubit q's
readout flips, then, with correlated readout on, one block of ``shots``
uniforms per device edge inside the register, in edge order.

Bit convention everywhere: qubit 0 is the leftmost character of a
bitstring, i.e. the most significant bit of a basis index.  A
``ShotTable`` stores its counts keyed by bitstring, which is also the wire
format, until counts move to integer keys (ROADMAP, direction 5);
``ShotTable.marginal`` is the one place a key becomes an outcome index, and
every metric reads those indices.

Virtual RZ gates and WAIT are error-free apart from the idle decay WAIT
adds through its duration; measurement samples the final state as-is, since
confusion matrices are calibrated quantities that already contain
measurement-process errors.
"""
from __future__ import annotations

import cmath
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, unconnected_cz
from .cliffords import X90_MAT, X_MAT, Y90_MAT
from .device import DeviceModel

IDEAL_QUBIT_CAP = 12

_GATE_1Q = {"X": X_MAT, "X90": X90_MAT, "Y90": Y90_MAT}
_BITS = frozenset("01")


def index_to_bitstring(index: int, n: int) -> str:
    return format(index, f"0{n}b")


# --- measurement records -----------------------------------------------------

@dataclass(frozen=True)
class ShotTable:
    """Histogram of measured bitstrings for one executed circuit."""

    counts: dict[str, int]
    shots: int
    n_qubits: int

    def __post_init__(self) -> None:
        if sum(self.counts.values()) != self.shots:
            raise ValueError("counts must sum to the shot total")
        # two set operations over all keys; a bad key is named only on failure
        if set(map(len, self.counts)) - {self.n_qubits} or set("".join(self.counts)) - _BITS:
            bad = next(b for b in self.counts if len(b) != self.n_qubits or set(b) - _BITS)
            raise ValueError(f"bad bitstring key {bad!r}")

    def fraction_ones(self, qubit: int) -> float:
        hits = sum(c for b, c in self.counts.items() if b[qubit] == "1")
        return hits / self.shots

    def frequencies(self) -> np.ndarray:
        return self.marginal(range(self.n_qubits)) / self.shots

    def marginal(self, positions: Iterable[int]) -> np.ndarray:
        """Counts of the outcomes on ``positions``, indexed by outcome.

        An int64 vector of length 2**len(positions) whose first position is
        the most significant bit.  This is the one place a measured
        bitstring becomes an outcome index.
        """
        positions = tuple(positions)
        full = np.array([int(bits, 2) for bits in self.counts], dtype=np.int64)
        index = np.zeros_like(full)
        for p in positions:
            index = (index << 1) | ((full >> (self.n_qubits - 1 - p)) & 1)
        out = np.zeros(2 ** len(positions), dtype=np.int64)
        np.add.at(out, index, list(self.counts.values()))
        return out


# --- noise channels ------------------------------------------------------------
# 4x4 Liouville superoperators on a qubit's (ket, bra) pair indexed 2*ket + bra,
# so rho -> M rho M^dagger is kron(M, M.conj()) and channels compose by matmul.

_VEC_I = np.array([1.0, 0.0, 0.0, 1.0])
_IDENTITY_4 = np.eye(4, dtype=complex)
_IDENTITY_2 = (1 + 0j, 0j, 0j, 1 + 0j)  # a pure-path pending map, row-major
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


# --- state evolution ---------------------------------------------------------

_CZ_SIGNS = np.array([[1.0, 1.0], [1.0, -1.0]])
# CZ as a sign mask on two axes; both masks are symmetric in the two axes
_CZ_MASK = {2: _CZ_SIGNS, 4: np.kron(_CZ_SIGNS, _CZ_SIGNS)}
_TRACE_PAIR = np.outer(_VEC_I, _VEC_I)  # vec(I) on each of two axes
_KET_BRA_SWAP = [0, 2, 1, 3]  # 2*ket + bra -> 2*bra + ket


def _on_axes(mask: np.ndarray, k: int, a: int, b: int) -> np.ndarray:
    """A symmetric two-axis mask shaped to broadcast over axes a, b of a k-axis state."""
    shape = [1] * k
    shape[a] = shape[b] = mask.shape[0]
    return mask.reshape(shape)


def _depolarize_2q(rho: np.ndarray, p: float, a: int, b: int) -> np.ndarray:
    """rho -> (1 - p) rho + p I/4 (x) tr_ab(rho) on axes a and b."""
    tr = rho.take(0, a) + rho.take(3, a)
    b_rest = b - 1 if b > a else b  # b's position once a is traced out
    tr = tr.take(0, b_rest) + tr.take(3, b_rest)
    fill = (p / 4.0) * np.expand_dims(tr, (a, b)) * _on_axes(_TRACE_PAIR, rho.ndim, a, b)
    return (1 - p) * rho + fill


def _evolve(circuit: Circuit, qubits: list[int], device: DeviceModel | None) -> np.ndarray:
    """State of ``qubits`` (in that order) after the circuit body.

    With no device, the pure state (local dimension d = 2) under the ideal
    gates.  With a device, the density matrix (d = 4) under the device's
    noise, with idle decay per scheduling layer; WAIT acts only through its
    duration.  Each qubit keeps one pending d x d map of its single-qubit
    maps since its last CZ (RZ frames as row scalings), flushed before its
    next CZ and at the end; maps on different qubits commute, so the fusion
    is exact.  On the pure path a pending map is a tuple (a, b, c, d) of
    Python complex scalars, the row-major 2x2 matrix, multiplied out by
    hand: numpy calls on 2x2 arrays cost more than the arithmetic, and the
    scalar products agree with numpy's to rounding only.  On the density
    path pending maps are 4x4 arrays, and a layer holds at most one gate
    per qubit, so a qubit's pulse and the idle decay of its layer are
    pushed as one map, cached per (pulse kind or None, axis, layer
    duration).
    """
    k = len(qubits)
    pos = {q: i for i, q in enumerate(qubits)}
    pending: list = [None] * k
    if device is None:
        d = 2
        pulses = {kind: [tuple(u.reshape(-1).tolist())] * k for kind, u in _GATE_1Q.items()}
        layers = [circuit.body()]

        def push(i: int, m: tuple) -> None:
            p = pending[i]
            if p is None:
                pending[i] = m
            else:
                m0, m1, m2, m3 = m
                p0, p1, p2, p3 = p
                pending[i] = (m0 * p0 + m1 * p2, m0 * p1 + m1 * p3,
                              m2 * p0 + m3 * p2, m2 * p1 + m3 * p3)

        def rz(i: int, angle: float) -> None:
            phase = cmath.exp(-0.5j * angle)
            conj = phase.conjugate()
            p0, p1, p2, p3 = _IDENTITY_2 if pending[i] is None else pending[i]
            pending[i] = (p0 * phase, p1 * phase, p2 * conj, p3 * conj)
    else:
        d = 4
        deps = [depolarizing_superop(device.p1[q]) for q in qubits]
        pulses = {kind: [dep @ s for dep in deps] for kind, s in _PULSE_SUPEROPS.items()}
        layers = circuit.layers()[:-1] if circuit.has_measurement else circuit.layers()
        fused: dict[tuple[str | None, int, float], np.ndarray | None] = {}
        timing = device.timing  # per-kind durations; WAIT carries its own
        durations = dict.fromkeys(pulses, timing.single_qubit_gate_ns)
        durations.update(CZ=timing.two_qubit_gate_ns, RZ=timing.rz_ns)

        def push(i: int, m: np.ndarray) -> None:
            pending[i] = m if pending[i] is None else m @ pending[i]

        def rz(i: int, angle: float) -> None:
            phase = cmath.exp(-1j * angle)
            m = (_IDENTITY_4 if pending[i] is None else pending[i]).copy()
            m[1] *= phase
            m[2] *= phase.conjugate()
            pending[i] = m

        def fuse(kind: str | None, i: int, duration: float) -> np.ndarray | None:
            qp = device.qubits[qubits[i]]
            idle = idle_superop(qp.t1_us, qp.t2_us, duration)
            if kind is None:
                return idle
            return pulses[kind][i] if idle is None else idle @ pulses[kind][i]
    state = np.zeros((d,) * k, dtype=complex)
    state[(0,) * k] = 1.0

    def flush(i: int) -> None:
        nonlocal state
        if pending[i] is not None:
            m = np.asarray(pending[i]).reshape(d, d)  # a pure-path tuple becomes a 2x2 array
            state = (m @ state.reshape(d**i, d, -1)).reshape(state.shape)
            pending[i] = None

    for layer in layers:
        duration = 0.0
        pulsed: dict[int, str] = {}  # axis -> pulse kind, applied with the layer's idle decay
        for g in layer:
            if g.kind in pulses:
                i = pos[g.qubits[0]]
                if device is None:
                    push(i, pulses[g.kind][i])
                else:
                    pulsed[i] = g.kind
            elif g.kind == "RZ":
                rz(pos[g.qubits[0]], g.angle_rad)
            elif g.kind == "CZ":
                a, b = pos[g.qubits[0]], pos[g.qubits[1]]
                flush(a)
                flush(b)
                state *= _on_axes(_CZ_MASK[d], k, a, b)
                if device is not None and device.p2 > 0:
                    state = _depolarize_2q(state, device.p2, a, b)
            if device is not None:
                g_ns = float(g.duration_ns) if g.kind == "WAIT" else durations[g.kind]
                duration = max(duration, g_ns)
        if device is None or (duration <= 0 and not pulsed):
            continue
        for i in range(k):
            key = (pulsed.get(i), i, duration)
            if key not in fused:
                fused[key] = fuse(*key)
            if fused[key] is not None:
                push(i, fused[key])
    for i in range(k):
        flush(i)
    return state


def _density_probs(rho: np.ndarray) -> np.ndarray:
    """Outcome probabilities of a (4,)*k density matrix.

    Checks the trace, Hermiticity and populations first; only round-off
    negatives that pass the check are clipped.
    """
    k = rho.ndim
    pops = rho[(slice(None, None, 3),) * k].reshape(-1)  # ket == bra: indices 0 and 3
    trace = pops.sum()
    if abs(trace.real - 1.0) > 1e-9 or abs(trace.imag) > 1e-9:
        raise RuntimeError("density matrix trace drifted")
    if np.abs(rho - rho[np.ix_(*[_KET_BRA_SWAP] * k)].conj()).max() > 1e-9:
        raise RuntimeError("density matrix lost Hermiticity")
    pops = pops.real
    if pops.min() < -1e-12:
        raise RuntimeError("density matrix has a negative population")
    pops = np.clip(pops, 0.0, None)
    return pops / pops.sum()


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
        probs = np.abs(_evolve(circuit, active, None).reshape(-1)) ** 2
        return active, probs / probs.sum()
    return active, _density_probs(_evolve(circuit, active, device))


def run_ideal(circuit: Circuit) -> np.ndarray:
    """Exact outcome probabilities of a circuit on the all-zeros input."""
    n = circuit.n_qubits
    if n > IDEAL_QUBIT_CAP:
        raise ValueError(f"ideal simulation capped at {IDEAL_QUBIT_CAP} qubits, got {n}")
    probs = np.abs(_evolve(circuit, list(range(n)), None).reshape(-1)) ** 2
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise RuntimeError("state norm drifted during ideal simulation")
    return probs / total


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
    bad = unconnected_cz(circuit.ops, device.edge_set())
    if bad is not None:
        raise ValueError(f"CZ on unconnected pair {bad.qubits}")

    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    bits = np.zeros((n, shots), dtype=bool)  # row q holds qubit q's bit per shot
    active, probs = _outcome_probs(circuit, device)
    if active:
        k = len(active)
        outcomes = rng.choice(2**k, size=shots, p=probs)
        for i, q_phys in enumerate(active):
            bits[q_phys] = (outcomes >> (k - 1 - i)) & 1

    # per-qubit readout confusion: one uniform block, row q for qubit q
    p10 = np.array([device.qubits[q].readout[1][0] for q in range(n)])
    p01 = np.array([device.qubits[q].readout[0][1] for q in range(n)])
    bits ^= rng.random((n, shots)) < np.where(bits, p10[:, None], p01[:, None])

    # optional correlated readout flips along device edges
    eps = device.correlated_readout_epsilon
    if eps > 0 and device.edges:
        for a, b in device.edges:
            if a < n and b < n:
                mask = rng.random(shots) < eps
                bits[a] ^= mask
                bits[b] ^= mask

    weights = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)
    values, counts = np.unique(weights @ bits, return_counts=True)
    key = f"0{n}b"
    table = {format(v, key): c for v, c in zip(values.tolist(), counts.tolist())}
    return ShotTable(counts=table, shots=shots, n_qubits=n)
