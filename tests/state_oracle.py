"""Gate-by-gate pure-state evolution: the reference for the fused evolver.

Each gate is applied to the full state vector on its own, in circuit order.
"""
from __future__ import annotations

import numpy as np

from qbench.circuits import Circuit, Gate
from qbench.cliffords import X90_MAT, X_MAT, Y90_MAT

GATE_1Q = {"X": X_MAT, "X90": X90_MAT, "Y90": Y90_MAT}


def apply_gate_to_state(psi: np.ndarray, gate: Gate, n: int) -> np.ndarray:
    """Apply one gate to a pure state stored as a (2,)*n tensor."""
    if gate.kind in GATE_1Q:
        q = gate.qubits[0]
        return np.moveaxis(np.tensordot(GATE_1Q[gate.kind], psi, axes=([1], [q])), 0, q)
    if gate.kind == "RZ":
        q = gate.qubits[0]
        shape = [1] * n
        shape[q] = 2
        phases = np.exp(np.array([-0.5j, 0.5j]) * gate.angle_rad).reshape(shape)
        return psi * phases
    if gate.kind == "CZ":
        a, b = gate.qubits
        psi = psi.copy()
        idx = [slice(None)] * n
        idx[a], idx[b] = 1, 1
        psi[tuple(idx)] *= -1.0
        return psi
    if gate.kind == "WAIT":
        return psi
    raise ValueError(f"cannot apply {gate.kind} to a pure state")


def evolve(circuit: Circuit) -> np.ndarray:
    """State of all the circuit's qubits after its body, from all zeros."""
    n = circuit.n_qubits
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    for g in circuit.body():
        psi = apply_gate_to_state(psi, g, n)
    return psi
