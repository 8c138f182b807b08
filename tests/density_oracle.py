"""Gate-by-gate density-matrix evolution: the reference for the fused simulator.

Each gate and each noise channel is applied to the full density matrix on
its own, with channels as Kraus sets, in the order the production simulator
fuses them: per scheduling layer, every gate in circuit order (a pulse's
unitary then its depolarizing channel; CZ then two-qubit depolarizing
noise), then idle decay on every active qubit for the layer's duration.
"""
from __future__ import annotations

import math

import numpy as np

from qbench.circuits import Circuit
from qbench.cliffords import X90_MAT, X_MAT, Y90_MAT
from qbench.device import DeviceModel

GATE_1Q = {"X": X_MAT, "X90": X90_MAT, "Y90": Y90_MAT}


def amplitude_damping_kraus(gamma: float) -> list[np.ndarray]:
    k0 = np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)
    return [k0, k1]


def dephasing_kraus(lam: float) -> list[np.ndarray]:
    """Kraus pair scaling coherences by exactly (1 - lam)."""
    pz = lam / 2.0
    k0 = math.sqrt(1 - pz) * np.eye(2, dtype=complex)
    k1 = math.sqrt(pz) * np.diag([1.0, -1.0]).astype(complex)
    return [k0, k1]


def idle_kraus(t1_us: float, t2_us: float, dt_ns: float) -> list[list[np.ndarray]]:
    dt_us = dt_ns / 1000.0
    out = []
    gamma = 0.0 if not math.isfinite(t1_us) else 1.0 - math.exp(-dt_us / t1_us)
    if gamma > 0:
        out.append(amplitude_damping_kraus(gamma))
    inv = 1.0 / t2_us - 1.0 / (2.0 * t1_us) if math.isfinite(t2_us) else 0.0
    tphi = math.inf if inv <= 1e-15 else 1.0 / inv
    lam = 0.0 if not math.isfinite(tphi) else 1.0 - math.exp(-dt_us / tphi)
    if lam > 0:
        out.append(dephasing_kraus(lam))
    return out


class OracleDensity:
    """Density matrix as a (2,)*2n tensor: ket axes first, then bra axes."""

    def __init__(self, n: int) -> None:
        self.n = n
        rho = np.zeros((2,) * (2 * n), dtype=complex)
        rho[(0,) * (2 * n)] = 1.0
        self.rho = rho

    def matrix(self) -> np.ndarray:
        dim = 2**self.n
        return self.rho.reshape(dim, dim)

    def apply_1q(self, m: np.ndarray, q: int) -> None:
        self.apply_kraus_1q([m], q)

    def apply_kraus_1q(self, kraus: list[np.ndarray], q: int) -> None:
        n = self.n
        out = None
        for k in kraus:
            rho = np.tensordot(k, self.rho, axes=([1], [q]))
            rho = np.moveaxis(rho, 0, q)
            rho = np.tensordot(k.conj(), rho, axes=([1], [n + q]))
            rho = np.moveaxis(rho, 0, n + q)
            out = rho if out is None else out + rho
        self.rho = out

    def apply_phase_1q(self, phases: np.ndarray, q: int) -> None:
        n = self.n
        shape_ket = [1] * (2 * n)
        shape_ket[q] = 2
        shape_bra = [1] * (2 * n)
        shape_bra[n + q] = 2
        self.rho = self.rho * phases.reshape(shape_ket)
        self.rho = self.rho * phases.conj().reshape(shape_bra)

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

    def depolarize_1q(self, p: float, q: int) -> None:
        if p <= 0:
            return
        n = self.n
        tr = np.trace(self.rho, axis1=q, axis2=n + q)
        out = (1 - p) * self.rho
        for b in (0, 1):
            idx = [slice(None)] * (2 * n)
            idx[q], idx[n + q] = b, b
            out[tuple(idx)] += (p / 2.0) * tr
        self.rho = out

    def depolarize_2q(self, p: float, a: int, b: int) -> None:
        if p <= 0:
            return
        n = self.n
        tr = np.trace(self.rho, axis1=a, axis2=n + a)
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
        """Trace and Hermiticity within 1e-9."""
        m = self.matrix()
        if abs(np.trace(m) - 1.0) > 1e-9:
            raise RuntimeError("density matrix trace drifted")
        if np.abs(m - m.conj().T).max() > 1e-9:
            raise RuntimeError("density matrix lost Hermiticity")

    def probs(self) -> np.ndarray:
        return np.real(np.diag(self.matrix()))


def evolve(circuit: Circuit, device: DeviceModel) -> tuple[list[int], OracleDensity | None]:
    """Active qubits in ascending order and their final state, gate by gate."""
    active = sorted({q for g in circuit.ops for q in g.qubits})
    if not active:
        return active, None
    pos = {q: i for i, q in enumerate(active)}
    state = OracleDensity(len(active))
    for layer in circuit.layers():
        if layer[0].kind == "MEASURE_ALL":
            continue
        duration = max(device.timing.gate_duration_ns(g) for g in layer)
        for g in layer:
            if g.kind in GATE_1Q:
                q = pos[g.qubits[0]]
                state.apply_1q(GATE_1Q[g.kind], q)
                state.depolarize_1q(device.p1[g.qubits[0]], q)
            elif g.kind == "RZ":
                phases = np.exp(np.array([-0.5j, 0.5j]) * g.angle_rad)
                state.apply_phase_1q(phases, pos[g.qubits[0]])
            elif g.kind == "CZ":
                a, b = pos[g.qubits[0]], pos[g.qubits[1]]
                state.apply_cz(a, b)
                state.depolarize_2q(device.p2, a, b)
        if duration > 0:
            for q_phys in active:
                qp = device.qubits[q_phys]
                for kraus in idle_kraus(qp.t1_us, qp.t2_us, duration):
                    state.apply_kraus_1q(kraus, pos[q_phys])
    return active, state
