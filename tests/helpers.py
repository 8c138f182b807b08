"""Reference helpers that only the tests use: dense unitaries, group-law
shortcuts, distribution helpers and the fit-model table."""
import numpy as np

from qbench import cliffords
from qbench.circuits import Circuit
from qbench.fitting import (
    _EXP_NAMES,
    _GEOM_NAMES,
    _SIN_NAMES,
    _exp_f,
    _exp_jac,
    _geom_f,
    _geom_jac,
    _sin_f,
    _sin_jac,
)
from qbench.simulator import apply_gate_to_state, index_to_bitstring

MODEL_FUNCTIONS = {
    "geometric": (_geom_f, _geom_jac, _GEOM_NAMES),
    "exp_decay": (_exp_f, _exp_jac, _EXP_NAMES),
    "damped_sinusoid": (_sin_f, _sin_jac, _SIN_NAMES),
}


def compose_cliffords(
    a: cliffords.CliffordElement, b: cliffords.CliffordElement
) -> cliffords.CliffordElement:
    """Group product in circuit order: apply ``a`` first, then ``b``."""
    return cliffords.ELEMENTS[cliffords.COMPOSE_TABLE[a.index, b.index]]


def inverse_clifford(a: cliffords.CliffordElement) -> cliffords.CliffordElement:
    return cliffords.ELEMENTS[cliffords.INVERSE_TABLE[a.index]]


def probabilities_dict(probs: np.ndarray, n: int, threshold: float = 0.0) -> dict[str, float]:
    return {
        index_to_bitstring(i, n): float(p)
        for i, p in enumerate(probs)
        if p > threshold
    }


def total_variation_distance(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def ideal_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary of a (measurement-free) circuit body; ignores WAIT."""
    n = circuit.n_qubits
    if n > 10:
        raise ValueError("ideal_unitary supports at most 10 qubits")
    dim = 2**n
    cols = []
    for k in range(dim):
        state = np.zeros(dim, dtype=complex)
        state[k] = 1.0
        psi = state.reshape([2] * n)
        for g in circuit.body():
            psi = apply_gate_to_state(psi, g, n)
        cols.append(psi.reshape(-1))
    return np.array(cols).T
