"""Unitary-equivalence oracles for the native-gate compiler."""
import numpy as np
import pytest

from conftest import random_su2, random_u4
from helpers import ideal_unitary

from qbench.circuits import Circuit, ParamCircuit, ParamRZ, cz, x90
from qbench.cliffords import equal_up_to_phase
from qbench.compile import (
    _ops_matrix_1q,
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


class TestSU2:
    def test_random_unitaries(self, rng):
        for _ in range(200):
            u = random_su2(rng)
            ops = su2_ops(u, 0)
            assert equal_up_to_phase(_ops_matrix_1q(ops), u, 1e-8)
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
        assert equal_up_to_phase(_ops_matrix_1q(ops), u, 1e-9)


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
