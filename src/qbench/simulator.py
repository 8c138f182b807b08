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

In both modes each qubit's single-qubit maps between two CZs are kept
pending and applied as one d x d map (d = 2 or 4), with one matrix product
before the qubit's next CZ and at the end; a CZ is a constant sign mask on
two axes.  On the pure path the pending map is a row-major tuple of four
Python complex scalars, multiplied out by hand and turned into an array
only when applied, so pure-path probabilities match those of numpy 2x2
products to rounding only (a few ulp).  On the density path it is a list of
4x4 maps: a chain of up to eight is multiplied one map at a time, a longer
one (randomized benchmarking's) pairwise in stacked batches, which agrees
with the one-at-a-time product to rounding only.  An RZ there is a
diagonal map built once per angle per call.  A scheduling layer holds at
most one gate per qubit, so a qubit's pulse and the idle decay of the layer
it sits in join the chain as one fused 4x4 map, idle @ (depolarizing @
pulse), kept read-only in a bounded cache shared across circuits and keyed
by (pulse kind, p1, T1, T2, layer duration).

Sampled bits then pass through per-qubit readout confusion with an
optional correlated flip term.  The draws from the generator are part of
the determinism contract and come in this order: ``shots`` outcomes over
the active qubits (none when no qubit is active), drawn as
``Generator.choice`` with ``p`` draws them, by the same inverse CDF over
``shots`` uniforms; then one (n, shots) block of uniforms whose row q
decides qubit q's readout flips, then, with correlated readout on, one
block of ``shots`` uniforms per device edge inside the register, in edge
order.

Bit convention everywhere: qubit 0 is the leftmost character of a
bitstring, i.e. the most significant bit of a basis index.  A
``ShotTable`` stores its counts keyed by bitstring, which is also the wire
format, until counts move to integer keys (ROADMAP, direction 5).  Metrics
read keys through ``ShotTable.marginal``, as outcome indices (QV, Q-score,
the suite, crosstalk), or ``ShotTable.fraction_ones``, as one qubit's
character (RB, readout, crosstalk, coherence); CLOPS hashes them as they are.

Virtual RZ gates and WAIT are error-free apart from the idle decay WAIT
adds through its duration; measurement samples the final state as-is, since
confusion matrices are calibrated quantities that already contain
measurement-process errors.
"""
from __future__ import annotations

import cmath
import functools
import math
import sys
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, unconnected_cz
from .cliffords import PULSE_UNITARIES
from .device import DeviceModel

IDEAL_QUBIT_CAP = 12
MAX_REGISTER_QUBITS = 63  # outcome indices are int64, one bit per qubit

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
        if self.n_qubits > MAX_REGISTER_QUBITS:
            raise ValueError(f"a register holds at most {MAX_REGISTER_QUBITS} qubits, "
                             f"got {self.n_qubits}")
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
        bitstring becomes an outcome index; ``fraction_ones`` reads its characters.
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
_PULSE_SUPEROPS = {kind: np.kron(u, u.conj()) for kind, u in PULSE_UNITARIES.items()}


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
_SHORT_CHAIN = 8  # longest pending chain folded one product at a time
_LAYER_MAP_CACHE = 1024  # (pulse kind, p1, T1, T2, layer duration) keys kept
_SUM_TOLERANCE = math.sqrt(sys.float_info.epsilon)  # Generator.choice's, for float64


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


def _chain_product(chain: list[np.ndarray]) -> np.ndarray:
    """The product of 4x4 maps applied in list order, chain[-1] @ ... @ chain[0].

    A chain of up to ``_SHORT_CHAIN`` maps is folded one product at a time;
    a longer one is stacked and multiplied pairwise in batches, halving
    until one map is left, which costs a few numpy calls instead of one per
    map and agrees with the fold to rounding only.
    """
    if len(chain) <= _SHORT_CHAIN:
        m = chain[0]
        for nxt in chain[1:]:
            m = nxt @ m
        return m
    a = np.stack(chain)
    while len(a) > 1:
        pairs = a[1::2] @ a[: len(a) - 1 : 2]
        a = np.concatenate((pairs, a[-1:])) if len(a) % 2 else pairs
    return a[0]


@functools.lru_cache(maxsize=_LAYER_MAP_CACHE)
def _layer_map(kind: str | None, p1: float, t1_us: float, t2_us: float,
               duration_ns: float) -> np.ndarray | None:
    """One qubit's map for one scheduling layer: its pulse of ``kind`` (or
    none), that pulse's depolarizing noise, then the idle decay over the
    layer's duration, as idle @ (depolarizing @ pulse); None for the
    identity.  Cached across circuits; the arrays are read-only."""
    idle = idle_superop(t1_us, t2_us, duration_ns)
    if kind is None:
        m = idle
    else:
        pulse = depolarizing_superop(p1) @ _PULSE_SUPEROPS[kind]
        m = pulse if idle is None else idle @ pulse
    if m is not None:
        m.flags.writeable = False
    return m


def _evolve(circuit: Circuit, qubits: list[int], device: DeviceModel | None) -> np.ndarray:
    """State of ``qubits`` (in that order) after the circuit body.

    With no device, the pure state (local dimension d = 2) under the ideal
    gates.  With a device, the density matrix (d = 4) under the device's
    noise, with idle decay per scheduling layer; WAIT acts only through its
    duration.  Each qubit keeps its single-qubit maps since its last CZ
    pending, flushed as one d x d map before its next CZ and at the end;
    maps on different qubits commute, so the fusion is exact.  On the pure
    path the pending map is one tuple (a, b, c, d) of Python complex
    scalars, the row-major 2x2 product so far (RZ frames as row scalings),
    multiplied out by hand: numpy calls on 2x2 arrays cost more than the
    arithmetic, and the scalar products agree with numpy's to rounding only.
    On the density path the pending maps are a list of 4x4 arrays,
    multiplied by ``_chain_product`` at the flush: an RZ is a diagonal map
    built once per angle per call, and a layer holds at most one gate per
    qubit, so a qubit's pulse and the idle decay of its layer are one map
    from the cross-circuit cache ``_layer_map``.
    """
    k = len(qubits)
    pos = {q: i for i, q in enumerate(qubits)}
    pending: list = [None] * k
    if device is None:
        d = 2
        pulses = {kind: tuple(u.reshape(-1).tolist()) for kind, u in PULSE_UNITARIES.items()}
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

        def product(p: tuple) -> np.ndarray:
            return np.asarray(p).reshape(2, 2)
    else:
        d = 4
        layers = circuit.layers()[:-1] if circuit.has_measurement else circuit.layers()
        noise = [(device.p1[q], device.qubits[q].t1_us, device.qubits[q].t2_us) for q in qubits]
        rz_maps: dict[float, np.ndarray] = {}
        durations = device.timing.kind_ns  # WAIT carries its own
        product = _chain_product

        def push(i: int, m: np.ndarray) -> None:
            if pending[i] is None:
                pending[i] = [m]
            else:
                pending[i].append(m)

        def rz(i: int, angle: float) -> None:
            m = rz_maps.get(angle)
            if m is None:
                phase = cmath.exp(-1j * angle)
                m = rz_maps[angle] = np.diag((1, phase, phase.conjugate(), 1))
            push(i, m)
    state = np.zeros((d,) * k, dtype=complex)
    state[(0,) * k] = 1.0

    def flush(i: int) -> None:
        nonlocal state
        if pending[i] is not None:
            m = product(pending[i])
            state = (m @ state.reshape(d**i, d, -1)).reshape(state.shape)
            pending[i] = None

    for layer in layers:
        duration = 0.0
        pulsed: dict[int, str] = {}  # axis -> pulse kind, applied with the layer's idle decay
        for g in layer:
            if g.kind in PULSE_UNITARIES:
                i = pos[g.qubits[0]]
                if device is None:
                    push(i, pulses[g.kind])
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
            m = _layer_map(pulsed.get(i), *noise[i], duration)
            if m is not None:
                push(i, m)
    for i in range(k):
        flush(i)
    return state


def _density_probs(rho: np.ndarray) -> np.ndarray:
    """Outcome probabilities of a (4,)*k density matrix.

    Checks the trace, Hermiticity and populations first, each written so
    that a NaN fails it; only round-off negatives that pass the check are
    clipped.
    """
    k = rho.ndim
    pops = rho[(slice(None, None, 3),) * k].reshape(-1)  # ket == bra: indices 0 and 3
    trace = pops.sum()
    if not (abs(trace.real - 1.0) <= 1e-9 and abs(trace.imag) <= 1e-9):
        raise RuntimeError("density matrix trace drifted")
    if not np.abs(rho - rho[np.ix_(*[_KET_BRA_SWAP] * k)].conj()).max() <= 1e-9:
        raise RuntimeError("density matrix lost Hermiticity")
    pops = pops.real
    if not pops.min() >= -1e-12:
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


def _pure_probs(circuit: Circuit, qubits: list[int]) -> np.ndarray:
    """Born probabilities of ``qubits`` after the ideal circuit body.

    The norm check is written so that a NaN fails it.
    """
    probs = np.abs(_evolve(circuit, qubits, None).reshape(-1)) ** 2
    total = probs.sum()
    if not abs(total - 1.0) <= 1e-9:
        raise RuntimeError("state norm drifted during ideal simulation")
    return probs / total


def _outcome_probs(circuit: Circuit, device: DeviceModel) -> tuple[list[int], np.ndarray | None]:
    """The circuit's active qubits and their outcome distribution.

    A noiseless device takes the pure-state path; any other the fused
    density-matrix path.
    """
    active = sorted({q for g in circuit.ops for q in g.qubits})
    if not active:
        return active, None
    if _noiseless(device, active):
        return active, _pure_probs(circuit, active)
    return active, _density_probs(_evolve(circuit, active, device))


def _draw_outcomes(probs: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    """``rng.choice(len(probs), shots, p=probs)``, draw for draw.

    The same checks (NaN, negative, or a sum off 1 by more than sqrt(eps)
    raise ValueError), then the same inverse CDF over ``shots`` uniforms,
    so the outcomes and the generator state match ``choice``'s; it skips
    ``choice``'s per-call argument handling.
    """
    total = probs.sum()
    if np.isnan(total):
        raise ValueError("probabilities contain NaN")
    if (probs < 0).any():
        raise ValueError("probabilities are not non-negative")
    if abs(total - 1.0) > _SUM_TOLERANCE:
        raise ValueError("probabilities do not sum to 1")
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(shots), side="right")


def run_ideal(circuit: Circuit) -> np.ndarray:
    """Exact outcome probabilities of a circuit on the all-zeros input."""
    n = circuit.n_qubits
    if n > IDEAL_QUBIT_CAP:
        raise ValueError(f"ideal simulation capped at {IDEAL_QUBIT_CAP} qubits, got {n}")
    return _pure_probs(circuit, list(range(n)))


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
        outcomes = _draw_outcomes(probs, shots, rng)
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

    index = np.zeros(shots, dtype=np.int64)
    for row in bits:
        index = (index << 1) | row
    if 2**n <= shots:  # a dense histogram no longer than the shot vector
        counts = np.bincount(index, minlength=2**n)
        values = np.flatnonzero(counts)
        counts = counts[values]
    else:
        values, counts = np.unique(index, return_counts=True)
    key = f"0{n}b"
    table = {format(v, key): c for v, c in zip(values.tolist(), counts.tolist())}
    return ShotTable(counts=table, shots=shots, n_qubits=n)
