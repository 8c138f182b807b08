"""Unitary-equivalence oracles for the native-gate compiler."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_su2, random_u4
from helpers import ideal_unitary

from qbench.circuits import Circuit, Gate, ParamCircuit, ParamRZ, cz, rz, x90
from qbench.cliffords import equal_up_to_phase, ops_unitary
from qbench.compile import (
    _common_neighbor,
    cnot_ops,
    h_matrix,
    kak_decompose,
    route_ops,
    routed_block,
    rzz_ops,
    su2_ops,
    su4_ops,
    swap_ops,
)

STAR = frozenset({(0, 2), (1, 2), (2, 3), (2, 4)})
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
ISWAP = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex)
CZ = np.diag([1, 1, 1, -1]).astype(complex)


class TestSU2:
    def test_random_unitaries(self, rng):
        for _ in range(200):
            u = random_su2(rng)
            ops = su2_ops(u, 0)
            assert equal_up_to_phase(ops_unitary(ops), u, 1e-8)
            assert sum(1 for g in ops if g.kind != "RZ") <= 2

    def test_diagonal_is_free(self):
        ops = su2_ops(np.diag([1.0, 1j]).astype(complex), 0)
        assert all(g.kind == "RZ" for g in ops)

    def test_hadamard_is_one_pulse(self):
        ops = su2_ops(h_matrix(), 0)
        assert sum(1 for g in ops if g.kind != "RZ") == 1

    def test_x_like_is_one_pulse(self):
        u = np.array([[0, 1j], [1, 0]], dtype=complex)
        ops = su2_ops(u, 0)
        assert sum(1 for g in ops if g.kind != "RZ") == 1
        assert equal_up_to_phase(ops_unitary(ops), u, 1e-9)


class TestSU4:
    def test_kak_reconstruction(self, rng):
        for _ in range(60):
            u = random_u4(rng)
            a1, a0, h, b1, b0 = kak_decompose(u)
            core = _canonical(h)
            rebuilt = np.kron(a1, a0) @ core @ np.kron(b1, b0)
            assert equal_up_to_phase(rebuilt, u, 1e-8)

    def test_compiled_circuit_matches_unitary(self, rng):
        for _ in range(60):
            u = random_u4(rng)
            ops = su4_ops(u, 0, 1)
            assert sum(1 for g in ops if g.kind == "CZ") == 3
            got = ideal_unitary(Circuit(2, tuple(ops)))
            assert equal_up_to_phase(got, u, 1e-7)

    def test_special_targets(self):
        swap = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
        for target in (np.eye(4, dtype=complex), np.diag([1, 1, 1, -1]).astype(complex), swap):
            got = ideal_unitary(Circuit(2, tuple(su4_ops(target, 0, 1))))
            assert equal_up_to_phase(got, target, 1e-7)


def _canonical(h) -> np.ndarray:
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.diag([1, -1]).astype(complex)
    gen = (
        h[0] * np.kron(x, x) + h[1] * np.kron(y, y) + h[2] * np.kron(z, z)
    )
    vals, vecs = np.linalg.eigh(gen)
    return vecs @ np.diag(np.exp(1j * vals)) @ vecs.conj().T


class TestTwoQubitHelpers:
    def test_rzz(self):
        theta = 0.7
        target = np.diag(np.exp(-0.5j * theta * np.array([1, -1, -1, 1])))
        got = ideal_unitary(Circuit(2, tuple(rzz_ops(0, 1, theta))))
        assert equal_up_to_phase(got, target, 1e-9)

    def test_cnot(self):
        target = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        got = ideal_unitary(Circuit(2, tuple(cnot_ops(0, 1))))
        assert equal_up_to_phase(got, target, 1e-9)

    def test_swap(self):
        target = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
        got = ideal_unitary(Circuit(2, tuple(swap_ops(0, 1))))
        assert equal_up_to_phase(got, target, 1e-9)


class TestRouting:
    def test_connected_pair_untouched(self):
        ops = [cz(0, 2)]
        assert route_ops(ops, STAR) == ops

    def test_disconnected_cz_routes_through_center(self):
        routed = route_ops([cz(0, 1)], STAR)
        for g in routed:
            if g.kind == "CZ":
                assert tuple(sorted(g.qubits)) in STAR
        # unitary equivalence on the 3 touched qubits
        direct = ideal_unitary(Circuit(3, (cz(0, 1),)))
        via = ideal_unitary(Circuit(3, tuple(routed)))
        assert equal_up_to_phase(direct, via, 1e-8)

    def test_routed_block_preserves_unitary(self, rng):
        u = random_u4(rng)
        block = su4_ops(u, 0, 1)
        routed = routed_block(block, 0, 1, STAR)
        for g in routed:
            if g.kind == "CZ":
                assert tuple(sorted(g.qubits)) in STAR
        direct = ideal_unitary(Circuit(3, tuple(block)))
        via = ideal_unitary(Circuit(3, tuple(routed)))
        assert equal_up_to_phase(direct, via, 1e-7)

    def test_routed_block_moves_param_slots(self, rng):
        block = [ParamRZ(0, 0), x90(0), ParamRZ(1, 1), *su4_ops(random_u4(rng), 0, 1),
                 ParamRZ(0, 1), x90(1), ParamRZ(1, 0)]
        routed = ParamCircuit(3, tuple(routed_block(block, 0, 1, STAR)), 2)
        angles = rng.uniform(-np.pi, np.pi, 2)
        direct = ideal_unitary(ParamCircuit(3, tuple(block), 2).bind(angles))
        via = ideal_unitary(routed.bind(angles))
        assert equal_up_to_phase(direct, via, 1e-7)

    def test_no_route_available(self):
        with pytest.raises(ValueError):
            route_ops([cz(0, 1)], frozenset({(0, 2)}))


def route_ops_per_cz(ops, edges):
    """Reference router: its own swap sandwich around each unconnected CZ."""
    if edges is None:
        return list(ops)
    out = []
    for g in ops:
        if g.kind == "CZ" and tuple(sorted(g.qubits)) not in edges:
            a, b = g.qubits
            c = _common_neighbor(a, b, edges)
            out.extend(swap_ops(a, c))
            out.append(cz(c, b))
            out.extend(swap_ops(a, c))
        else:
            out.append(g)
    return out


COMPLETE = frozenset((a, b) for a in range(5) for b in range(a + 1, 5))


@st.composite
def _gate_lists(draw):
    """CZs on any pair of 5 qubits, in either order, among frame and pulse gates."""
    ops = []
    for _ in range(draw(st.integers(0, 12))):
        a, b = draw(st.lists(st.integers(0, 4), min_size=2, max_size=2, unique=True))
        kind = draw(st.sampled_from(["CZ", "CZ", "CZ_RAW", "X90", "RZ"]))
        if kind == "CZ":
            ops.append(cz(a, b))
        elif kind == "CZ_RAW":
            ops.append(Gate("CZ", (a, b)))  # not canonicalized by cz()
        elif kind == "X90":
            ops.append(x90(a))
        else:
            ops.append(rz(a, draw(st.floats(-3.0, 3.0))))
    return ops


class TestRoutingMatchesPerCZReference:
    @settings(max_examples=150, deadline=None)
    @given(ops=_gate_lists(), edges=st.sampled_from([STAR, COMPLETE, None]))
    def test_gate_for_gate(self, ops, edges):
        assert route_ops(ops, edges) == route_ops_per_cz(ops, edges)

    def test_moved_cz_stays_canonical(self):
        # moving qubit 0 to the centre 2 of a star turns CZ(0, 1) into CZ(1, 2)
        routed = routed_block([cz(0, 1)], 0, 1, STAR)
        assert cz(1, 2) in routed
        assert all(g.qubits[0] < g.qubits[1] for g in routed if g.kind == "CZ")


# --- degenerate targets ----------------------------------------------------------

def phase_aligned_error(got: np.ndarray, target: np.ndarray) -> float:
    """Largest entry of |e^{i phi} got - target| at the best global phase phi."""
    overlap = np.trace(got.conj().T @ target)
    return float(np.abs(got * (overlap / abs(overlap)) - target).max())


def su2_from(a: float, b: float, c: float) -> np.ndarray:
    """RZ(a) RY(b) RZ(c), which reaches every single-qubit unitary up to phase."""
    ry = np.array([[np.cos(b / 2), -np.sin(b / 2)], [np.sin(b / 2), np.cos(b / 2)]])
    return np.diag(np.exp([-0.5j * a, 0.5j * a])) @ ry @ np.diag(np.exp([-0.5j * c, 0.5j * c]))


def near_identity(dim: int, eps: float, entries: list[float]) -> np.ndarray:
    """expm(i eps H) for a Hermitian H built from ``entries``."""
    m = np.array(entries[: dim * dim]).reshape(dim, dim) + 1j * np.array(
        entries[dim * dim:]).reshape(dim, dim)
    vals, vecs = np.linalg.eigh(m + m.conj().T)
    return vecs @ np.diag(np.exp(1j * eps * vals)) @ vecs.conj().T


angles = st.floats(-np.pi, np.pi)
small = st.one_of(st.floats(1e-13, 1e-6), st.sampled_from([1e-10, 1e-9, 2e-9, 1e-8]))


def hermitian_entries(dim: int):
    return st.lists(st.floats(-1.0, 1.0), min_size=2 * dim * dim, max_size=2 * dim * dim)


@st.composite
def degenerate_su2(draw) -> np.ndarray:
    kind = draw(st.sampled_from(["identity", "diagonal", "antidiagonal", "balanced",
                                 "near_diagonal"]))
    a, b = draw(angles), draw(angles)
    if kind == "identity":
        u = np.eye(2, dtype=complex)
    elif kind == "diagonal":
        u = np.diag(np.exp([1j * a, 1j * b]))
    elif kind == "antidiagonal":
        u = np.array([[0, np.exp(1j * a)], [np.exp(1j * b), 0]])
    elif kind == "balanced":
        u = np.diag(np.exp([1j * a, 1j * b])) @ h_matrix() @ np.diag(
            np.exp([0, 1j * draw(angles)]))
    else:
        u = np.diag(np.exp([1j * a, 1j * b])) @ near_identity(2, draw(small),
                                                              draw(hermitian_entries(2)))
    return np.exp(1j * draw(angles)) * u


@st.composite
def degenerate_su4(draw) -> np.ndarray:
    kind = draw(st.sampled_from(["identity", "CZ", "SWAP", "iSWAP", "local", "diagonal",
                                 "near_diagonal"]))
    if kind == "identity":
        u = np.eye(4, dtype=complex)
    elif kind in ("CZ", "SWAP", "iSWAP"):
        u = {"CZ": CZ, "SWAP": SWAP, "iSWAP": ISWAP}[kind]
        if draw(st.booleans()):  # dressed with local gates on both sides
            left = np.kron(su2_from(*draw(st.tuples(angles, angles, angles))),
                           su2_from(*draw(st.tuples(angles, angles, angles))))
            right = np.kron(su2_from(*draw(st.tuples(angles, angles, angles))),
                            su2_from(*draw(st.tuples(angles, angles, angles))))
            u = left @ u @ right
    elif kind == "local":
        u = np.kron(su2_from(*draw(st.tuples(angles, angles, angles))),
                    su2_from(*draw(st.tuples(angles, angles, angles))))
    elif kind == "diagonal":
        u = np.diag(np.exp(1j * np.array(draw(st.lists(angles, min_size=4, max_size=4)))))
    else:
        diag = np.diag(np.exp(1j * np.array(draw(st.lists(angles, min_size=4, max_size=4)))))
        u = diag @ near_identity(4, draw(small), draw(hermitian_entries(4)))
    return np.exp(1j * draw(angles)) * u


class TestDegenerateTargets:
    @settings(max_examples=300, deadline=None)
    @given(degenerate_su2())
    def test_su2_ops(self, u):
        got = ideal_unitary(Circuit(1, tuple(su2_ops(u, 0))))
        assert phase_aligned_error(got, u) <= 1e-8

    @settings(max_examples=300, deadline=None)
    @given(degenerate_su4())
    @example(np.kron(np.eye(2), np.diag(np.exp([0, -1e-5j]))))  # a frame within 1e-5 of I
    def test_su4_ops(self, u):
        got = ideal_unitary(Circuit(2, tuple(su4_ops(u, 0, 1))))
        assert phase_aligned_error(got, u) <= 1e-8
