"""Synthesis of arbitrary unitaries into the native gate set.

Single-qubit unitaries compile to at most two X90 pulses framed by virtual
Z rotations (the ZXZ/ZXZXZ family, with zero- and one-pulse fast paths).
Two-qubit unitaries compile through a magic-basis Cartan factorization into
local dressings around a fixed three-CZ core.  Correctness is enforced by
unitary-equivalence tests rather than by trusting any single closed form.

CZ gates on unconnected qubit pairs can be routed through a shared
neighbour with a swap sandwich, which is all the routing a star- or
fully-connected device needs.
"""
from __future__ import annotations

import functools
import itertools

import numpy as np

from .circuits import Gate, ParamRZ, cz, normalize_angle, rz, x, x90
from .cliffords import X_MAT, equal_up_to_phase, ops_unitary, rz_matrix

_EPS = 1e-12


def h_matrix() -> np.ndarray:
    return np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)


def rx_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def s_matrix() -> np.ndarray:
    return np.array([[1, 0], [0, 1j]], dtype=complex)


def su2_ops(u: np.ndarray, qubit: int) -> list[Gate]:
    """Compile a 2x2 unitary (up to global phase) into native gates.

    Diagonal targets cost zero pulses, antidiagonal and balanced targets one
    pulse, everything else two.
    """
    det = np.linalg.det(u)
    v = u / np.sqrt(det)

    a00, a01 = abs(v[0, 0]), abs(v[0, 1])
    if a01 < 1e-9:
        # diagonal: a pure frame change
        theta = normalize_angle(2 * np.angle(v[1, 1]))
        return [rz(qubit, theta)] if abs(theta) > _EPS else []
    if a00 < 1e-9:
        # antidiagonal: one X pulse with Z dressing
        delta = normalize_angle(np.angle(v[1, 0]) - np.angle(v[0, 1]))
        ops = [x(qubit)]
        if abs(delta) > _EPS:
            ops = [rz(qubit, -delta / 2), x(qubit), rz(qubit, delta / 2)]
        return _cleanup(ops, v, qubit)
    if abs(a00 - a01) < 1e-9:
        # balanced: RZ(b) X90 RZ(a) with a+b = -2 arg v00, a-b = -2 arg(v01) - pi
        p, q = np.angle(v[0, 0]), np.angle(v[0, 1])
        a = -(p + q) - np.pi / 2
        b = -p + q + np.pi / 2
        return _cleanup([rz(qubit, b), x90(qubit), rz(qubit, a)], v, qubit)

    gamma, beta, alpha = zxzxz_angles(v)
    ops = [rz(qubit, gamma), x90(qubit), rz(qubit, beta), x90(qubit), rz(qubit, alpha)]
    return _cleanup(ops, v, qubit)


def zxzxz_angles(v: np.ndarray) -> tuple[float, float, float]:
    """Angles (gamma, beta, alpha) of Rz(alpha) X90 Rz(beta) X90 Rz(gamma) = v.

    ``v`` has unit determinant.  This is the generic branch of ``su2_ops``;
    it reproduces any such ``v`` up to global phase, fast-path targets too.
    """
    a00, a01 = abs(v[0, 0]), abs(v[0, 1])
    beta = 2 * np.arctan2(a00, a01)
    p, q = np.angle(v[0, 0]), np.angle(v[0, 1])
    alpha_plus_gamma = -2 * p - np.pi  # arg(M00) = -(a+g)/2 - pi/2
    alpha_minus_gamma = -2 * q - np.pi
    alpha = (alpha_plus_gamma + alpha_minus_gamma) / 2
    gamma = (alpha_plus_gamma - alpha_minus_gamma) / 2
    return gamma, beta, alpha


def rx_angles(theta: float) -> tuple[float, float, float]:
    """The three frame angles ``su2_ops`` emits for RX(theta) on its generic path."""
    u = rx_matrix(theta)
    return zxzxz_angles(u / np.sqrt(np.linalg.det(u)))


def _cleanup(ops: list[Gate], target: np.ndarray, qubit: int) -> list[Gate]:
    out = [g for g in ops if not (g.kind == "RZ" and abs(normalize_angle(g.angle_rad)) <= _EPS)]
    got = ops_unitary(out)
    if not equal_up_to_phase(got, target, tol=1e-8):
        raise RuntimeError("single-qubit synthesis failed to reproduce its target")
    return out


class LocalFrame:
    """Accumulates pending single-qubit unitaries, flushing them lazily.

    Multiplying small dressings into one matrix per qubit and emitting only
    at entangling-gate boundaries keeps compiled pulse counts near what a
    hardware compiler would produce.
    """

    def __init__(self, n_qubits: int) -> None:
        self.pending = [np.eye(2, dtype=complex) for _ in range(n_qubits)]
        self.ops: list[Gate] = []

    def mul(self, qubit: int, m: np.ndarray) -> None:
        self.pending[qubit] = m @ self.pending[qubit]

    def flush(self, qubits: list[int] | None = None) -> None:
        targets = range(len(self.pending)) if qubits is None else qubits
        for q in targets:
            m = self.pending[q]
            # skip only a phase times the identity, to 1e-9 per entry; the
            # trace test equal_up_to_phase is quadratic and would drop
            # rotations up to ~1e-5 rad
            if max(abs(m[0, 1]), abs(m[1, 0]), abs(m[0, 0] - m[1, 1])) > 1e-9:
                self.ops.extend(su2_ops(m, q))
            self.pending[q] = np.eye(2, dtype=complex)

    def cz(self, a: int, b: int) -> None:
        self.flush([a, b])
        self.ops.append(cz(a, b))


# --- magic-basis Cartan factorization -------------------------------------

MAGIC = np.array(
    [
        [1, 0, 0, 1j],
        [0, 1j, 1, 0],
        [0, 1j, -1, 0],
        [1, 0, 0, -1j],
    ],
    dtype=complex,
) / np.sqrt(2.0)

_PAULI = {
    "X": X_MAT,
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _interaction_signs() -> np.ndarray:
    """Rows of the linear map (hx, hy, hz) -> magic-basis phase angles."""
    rows = []
    for axis in ("X", "Y", "Z"):
        pp = np.kron(_PAULI[axis], _PAULI[axis])
        d = MAGIC.conj().T @ pp @ MAGIC
        if np.abs(d - np.diag(np.diag(d))).max() > 1e-12:
            raise RuntimeError("magic basis does not diagonalize the interaction terms")
        rows.append(np.real(np.diag(d)))
    return np.array(rows).T  # shape (4, 3)


_SIGNS = _interaction_signs()


def _split_tensor_product(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor a product unitary into (A, B) with w = A kron B up to phase."""
    m = w.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    u_svd, s, vh = np.linalg.svd(m)
    if s[1] > 1e-6:
        raise RuntimeError("matrix is not a tensor product of single-qubit unitaries")
    a = (u_svd[:, 0] * np.sqrt(s[0])).reshape(2, 2)
    b = (vh[0, :] * np.sqrt(s[0])).reshape(2, 2)
    a = a / np.sqrt(np.linalg.det(a) + 0j)
    b = b / np.sqrt(np.linalg.det(b) + 0j)
    return a, b


def _simultaneous_orthogonal_eigh(p: np.ndarray) -> np.ndarray:
    """Real orthogonal O diagonalizing a symmetric unitary P."""
    pr, pi = p.real, p.imag
    rng = np.random.default_rng(12345)
    for _ in range(24):
        t = rng.uniform(0.2, 0.8)
        _, o = np.linalg.eigh(pr * t + pi * (1 - t))
        d = o.T @ p @ o
        if np.max(np.abs(d - np.diag(np.diag(d)))) < 1e-9:
            return o
    raise RuntimeError("failed to orthogonally diagonalize interaction matrix")


def kak_decompose(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cartan factorization U = (A1 kron A0) . exp(i sum h_k P_k P_k) . (B1 kron B0).

    Returns (a1, a0, h, b1, b0) with h = (hx, hy, hz); global phase dropped.
    """
    u = np.asarray(u, dtype=complex)
    u = u / np.linalg.det(u) ** 0.25
    v = MAGIC.conj().T @ u @ MAGIC
    p = v.T @ v

    o2 = _simultaneous_orthogonal_eigh(p)
    if np.linalg.det(o2) < 0:
        o2 = o2.copy()
        o2[:, 0] = -o2[:, 0]
    d2 = np.diag(o2.T @ p @ o2)
    theta = 0.5 * np.angle(d2)

    # Pick phase branches so theta lies exactly in the span of the
    # interaction signs and the left factor lands in SO(4).
    best = None
    for flips in itertools.product((-1, 0, 1), repeat=4):
        th = theta + np.pi * np.array(flips)
        h, *_ = np.linalg.lstsq(_SIGNS, th, rcond=None)
        if np.linalg.norm(_SIGNS @ h - th) > 1e-8:
            continue
        d_inv = np.diag(np.exp(-1j * th))
        k1 = v @ o2 @ d_inv
        if np.max(np.abs(k1.imag)) < 1e-8 and np.linalg.det(k1.real) > 0:
            best = (h, th, k1.real)
            break
    if best is None:
        raise RuntimeError("no consistent phase branch found in Cartan factorization")
    h, th, k1 = best

    left = MAGIC @ k1 @ MAGIC.conj().T
    right = MAGIC @ o2.T @ MAGIC.conj().T
    a1, a0 = _split_tensor_product(left)
    b1, b0 = _split_tensor_product(right)
    return a1, a0, h, b1, b0


def su4_ops(u: np.ndarray, qa: int, qb: int) -> list[Gate]:
    """Compile a 4x4 unitary on (qa, qb) into locals around three CZ gates.

    ``qa`` is the more significant index of the matrix basis.
    """
    a1, a0, h, b1, b0 = kak_decompose(u)
    hx, hy, hz = h
    a, b, c = -hx, -hy, -hz  # core implements exp(-i(a XX + b YY + c ZZ))

    n = max(qa, qb) + 1
    frame = LocalFrame(n)
    hmat, smat = h_matrix(), s_matrix()
    sdg = smat.conj().T

    frame.mul(qa, b1)
    frame.mul(qb, b0)
    # S-dagger on both, then CNOT(qa -> qb)
    frame.mul(qa, sdg)
    frame.mul(qb, sdg)
    frame.mul(qb, hmat)
    frame.cz(qa, qb)
    frame.mul(qb, hmat)
    # middle dressings
    frame.mul(qa, rx_matrix(2 * b))
    frame.mul(qa, rz_matrix(np.pi / 2))
    frame.mul(qb, rz_matrix(np.pi / 2 + 2 * c))
    frame.cz(qa, qb)
    # S then Rx(2a) on qa, second CNOT(qa -> qb)
    frame.mul(qa, smat)
    frame.mul(qa, rx_matrix(2 * a))
    frame.mul(qb, hmat)
    frame.cz(qa, qb)
    frame.mul(qb, hmat)
    frame.mul(qa, a1)
    frame.mul(qb, a0)
    frame.flush()
    return frame.ops


def rzz_ops(qa: int, qb: int, theta: float) -> list[Gate]:
    """exp(-i theta/2 ZZ) as two CZ gates with local dressing."""
    n = max(qa, qb) + 1
    frame = LocalFrame(n)
    hmat = h_matrix()
    frame.mul(qb, hmat)
    frame.cz(qa, qb)
    frame.mul(qb, rx_matrix(theta))
    frame.cz(qa, qb)
    frame.mul(qb, hmat)
    frame.flush()
    return frame.ops


@functools.cache
def h_ops(qubit: int) -> tuple[Gate, ...]:
    return tuple(su2_ops(h_matrix(), qubit))


@functools.cache
def cnot_ops(control: int, target: int) -> tuple[Gate, ...]:
    return h_ops(target) + (cz(control, target),) + h_ops(target)


@functools.cache
def swap_ops(a: int, b: int) -> tuple[Gate, ...]:
    return cnot_ops(a, b) + cnot_ops(b, a) + cnot_ops(a, b)


def _common_neighbor(a: int, b: int, edges: frozenset[tuple[int, int]]) -> int:
    for c in sorted({q for e in edges for q in e}):
        if c in (a, b):
            continue
        if tuple(sorted((a, c))) in edges and tuple(sorted((c, b))) in edges:
            return c
    raise ValueError(f"no routing path between qubits {a} and {b}")


def route_ops(ops: list[Gate], edges: frozenset[tuple[int, int]] | None) -> list[Gate]:
    """Route every CZ on its own: each is a one-gate :func:`routed_block`."""
    out: list[Gate] = []
    for g in ops:
        if g.kind == "CZ":
            out.extend(routed_block([g], *g.qubits, edges))
        else:
            out.append(g)
    return out


def routed_block(block: list[Gate | ParamRZ], a: int, b: int,
                 edges: frozenset[tuple[int, int]] | None) -> list[Gate | ParamRZ]:
    """Route a whole two-qubit block at once.

    If (a, b) is connected, or ``edges`` is None, the block passes through
    unchanged; otherwise ``a`` is swapped to a common neighbour of ``b``, the
    block runs there, and the swap is undone: six routing CZs per block.
    Only this one hop is supported, enough for star and complete coupling.
    ``ParamRZ`` slots in the block move with their qubit.
    """
    if edges is None or tuple(sorted((a, b))) in edges:
        return list(block)
    c = _common_neighbor(a, b, edges)
    moved: list[Gate | ParamRZ] = []
    for g in block:
        if isinstance(g, ParamRZ):
            moved.append(ParamRZ(c if g.qubit == a else g.qubit, g.index))
        else:
            qs = tuple(c if q == a else q for q in g.qubits)
            moved.append(cz(*qs) if g.kind == "CZ" else
                         Gate(g.kind, qs, angle_rad=g.angle_rad, duration_ns=g.duration_ns))
    swap = list(swap_ops(a, c))
    return swap + moved + swap
