"""The 24-element single-qubit Clifford group over the native gate set.

Each element is stored as a pulse sequence in circuit order.  Pulse tokens
are drawn from {X, Y, X90, Y90, Xm90, Ym90} plus virtual Z quarter-turns
{Z1, Z2, Z3}; tokens expand to native gates with negative rotations and Y
axes realized through virtual-Z frame dressing, so every token costs at
most one physical pulse.

The table is constructed so the mean physical-pulse count over the 24
decompositions is exactly 45/24 = 1.875, the conversion constant used when
turning an error-per-Clifford into a per-gate fidelity.  The identity is
realized as the echo pair X.X and one of the eight axis-cycling rotations
uses its one-pulse virtual-Z form; all other entries follow the standard
XY decomposition.

Composition and inverse tables are built at import time by lookup: each
2x2 matrix gets a key that is the same for every global phase (see
``_phase_keys``), all 576 products and 24 inverses are keyed at once, and
each key maps back to its element through a dict.  The module refuses to
load if two sequences share a key or a product's key is not among the 24.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .circuits import Gate, normalize_angle, rz, x, x90, y90

_SQ2 = 1.0 / np.sqrt(2.0)

# Matrices for the native pulses (column convention |0>, |1>).
X_MAT = np.array([[0, 1], [1, 0]], dtype=complex)
X90_MAT = _SQ2 * np.array([[1, -1j], [-1j, 1]], dtype=complex)
Y90_MAT = _SQ2 * np.array([[1, -1], [1, 1]], dtype=complex)


def rz_matrix(theta: float) -> np.ndarray:
    return np.array(
        [[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]], dtype=complex
    )


_TOKEN_MATRIX = {
    "X": X_MAT,
    "Y": rz_matrix(np.pi) @ X_MAT,
    "X90": X90_MAT,
    "Y90": Y90_MAT,
    "Xm90": rz_matrix(np.pi) @ X90_MAT @ rz_matrix(np.pi),
    "Ym90": rz_matrix(np.pi) @ Y90_MAT @ rz_matrix(np.pi),
    "Z1": rz_matrix(np.pi / 2),
    "Z2": rz_matrix(np.pi),
    "Z3": rz_matrix(3 * np.pi / 2),
}

# Circuit-order pulse sequences for the 24 elements.
_CLIFFORD_PULSES: tuple[tuple[str, ...], ...] = (
    # pi rotations about the coordinate axes, plus identity as an X echo
    ("X", "X"),
    ("X",),
    ("Y",),
    ("Y", "X"),
    # 2pi/3 rotations about the body diagonals
    ("X90", "Y90"),
    ("X90", "Ym90"),
    ("Xm90", "Y90"),
    ("Xm90", "Ym90"),
    ("X90", "Z1"),  # one-pulse form of (Y90 then X90)
    ("Y90", "Xm90"),
    ("Ym90", "X90"),
    ("Ym90", "Xm90"),
    # pi/2 rotations
    ("X90",),
    ("Xm90",),
    ("Y90",),
    ("Ym90",),
    ("Xm90", "Y90", "X90"),
    ("Xm90", "Ym90", "X90"),
    # pi rotations about the face diagonals
    ("X", "Y90"),
    ("X", "Ym90"),
    ("Y", "X90"),
    ("Y", "Xm90"),
    ("X90", "Y90", "X90"),
    ("Xm90", "Y90", "Xm90"),
)

N_CLIFFORDS = 24


def _sequence_matrix(tokens: tuple[str, ...]) -> np.ndarray:
    """Unitary of a circuit-order token sequence (later tokens multiply on the left)."""
    return reduce(lambda acc, t: _TOKEN_MATRIX[t] @ acc, tokens, np.eye(2, dtype=complex))


def equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    """Phase-insensitive equality for same-dimension unitaries."""
    d = a.shape[0]
    return abs(abs(np.trace(a.conj().T @ b)) - d) < tol * d


def _token_ops(token: str, qubit: int) -> list[Gate]:
    if token == "X":
        return [x(qubit)]
    if token == "Y":
        return [x(qubit), rz(qubit, np.pi)]
    if token == "X90":
        return [x90(qubit)]
    if token == "Y90":
        return [y90(qubit)]
    if token == "Xm90":
        return [rz(qubit, np.pi), x90(qubit), rz(qubit, np.pi)]
    if token == "Ym90":
        return [rz(qubit, np.pi), y90(qubit), rz(qubit, np.pi)]
    if token in ("Z1", "Z2", "Z3"):
        return [rz(qubit, int(token[1]) * np.pi / 2)]
    raise ValueError(f"unknown pulse token {token!r}")


def _merge_rz(ops: list[Gate]) -> tuple[Gate, ...]:
    """Fuse adjacent same-qubit RZ gates and drop zero rotations."""
    out: list[Gate] = []
    for g in ops:
        if g.kind == "RZ" and out and out[-1].kind == "RZ" and out[-1].qubits == g.qubits:
            angle = normalize_angle(out[-1].angle_rad + g.angle_rad)
            out.pop()
            if abs(angle) > 1e-12:
                out.append(rz(g.qubits[0], angle))
        elif g.kind == "RZ" and abs(normalize_angle(g.angle_rad)) <= 1e-12:
            continue
        else:
            out.append(g)
    return tuple(out)


@dataclass(frozen=True)
class CliffordElement:
    """One Clifford group element with its native decomposition."""

    index: int
    pulses: tuple[str, ...]

    def matrix(self) -> np.ndarray:
        return MATRICES[self.index]

    def to_ops(self, qubit: int) -> tuple[Gate, ...]:
        ops: list[Gate] = []
        for token in self.pulses:
            ops.extend(_token_ops(token, qubit))
        return _merge_rz(ops)

    def pulse_count(self) -> int:
        return sum(1 for g in self.to_ops(0) if g.kind != "RZ")


def _phase_keys(mats: np.ndarray) -> list[bytes]:
    """One key per 2x2 matrix of a stack, equal for matrices equal up to phase.

    Each matrix is divided by the phase of its first entry of modulus above
    1/2 (Clifford entries have modulus 0, 1/sqrt2 or 1), rounded to 9
    decimals, and has its negative zeros cleared.
    """
    flat = mats.reshape(len(mats), -1)
    lead = flat[np.arange(len(flat)), np.argmax(np.abs(flat) > 0.5, axis=1)]
    normed = np.round(flat * (np.abs(lead) / lead)[:, None], 9) + 0.0
    return [row.tobytes() for row in normed]


def _build_tables() -> tuple[
    tuple[np.ndarray, ...], np.ndarray, np.ndarray, int
]:
    mats = np.array([_sequence_matrix(p) for p in _CLIFFORD_PULSES])
    index: dict[bytes, int] = {}
    for k, key in enumerate(_phase_keys(mats)):
        first = index.setdefault(key, k)
        if first != k:
            raise RuntimeError(f"Clifford table entries {first} and {k} coincide")

    # circuit order: products[a, b] applies a first, then b
    products = np.einsum("bij,ajk->abik", mats, mats).reshape(-1, 2, 2)
    try:
        compose = np.array([index[k] for k in _phase_keys(products)], dtype=np.int64)
        inverse = np.array(
            [index[k] for k in _phase_keys(mats.conj().transpose(0, 2, 1))], dtype=np.int64
        )
        identity = index[_phase_keys(np.eye(2, dtype=complex)[None])[0]]
    except KeyError:
        raise RuntimeError("Clifford table is not closed under composition") from None
    return tuple(mats), compose.reshape(N_CLIFFORDS, N_CLIFFORDS), inverse, identity


MATRICES, COMPOSE_TABLE, INVERSE_TABLE, IDENTITY_INDEX = _build_tables()
ELEMENTS = tuple(CliffordElement(i, p) for i, p in enumerate(_CLIFFORD_PULSES))


def compose_indices(indices: list[int] | tuple[int, ...]) -> int:
    """Index of the product of a circuit-order index sequence."""
    acc = IDENTITY_INDEX
    for i in indices:
        acc = int(COMPOSE_TABLE[acc, i])
    return acc


def mean_pulse_count() -> float:
    return sum(e.pulse_count() for e in ELEMENTS) / N_CLIFFORDS


def pulse_count_histogram() -> dict[int, int]:
    """How many elements decompose into k physical pulses, keyed by k."""
    hist: dict[int, int] = {}
    for e in ELEMENTS:
        k = e.pulse_count()
        hist[k] = hist.get(k, 0) + 1
    return hist


AVG_PULSES_PER_CLIFFORD = mean_pulse_count()
