"""Group-law and decomposition checks for the Clifford table.

The composition and inverse assertions run against a brute-force oracle:
2x2 matrix products identified up to global phase, independent of the
precomputed index tables.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import compose_cliffords, inverse_clifford
from qbench import cliffords as cl
from qbench.circuits import Circuit, measure_all
from qbench.simulator import run_ideal


def _ops_unitary(ops) -> np.ndarray:
    m = np.eye(2, dtype=complex)
    for g in ops:
        if g.kind == "X":
            m = cl.X_MAT @ m
        elif g.kind == "X90":
            m = cl.X90_MAT @ m
        elif g.kind == "Y90":
            m = cl.Y90_MAT @ m
        elif g.kind == "RZ":
            m = cl.rz_matrix(g.angle_rad) @ m
        else:
            raise AssertionError(g.kind)
    return m


class TestGroupStructure:
    def test_exactly_24_distinct_elements(self):
        for i in range(cl.N_CLIFFORDS):
            for j in range(i + 1, cl.N_CLIFFORDS):
                assert not cl.equal_up_to_phase(cl.MATRICES[i], cl.MATRICES[j])

    def test_composition_table_matches_matrix_oracle(self):
        # brute force: every product must land back in the set, at the
        # index the table claims
        for a in range(cl.N_CLIFFORDS):
            for b in range(cl.N_CLIFFORDS):
                product = cl.MATRICES[b] @ cl.MATRICES[a]
                idx = int(cl.COMPOSE_TABLE[a, b])
                assert cl.equal_up_to_phase(product, cl.MATRICES[idx])

    def test_identity_is_neutral(self):
        e = cl.ELEMENTS[cl.IDENTITY_INDEX]
        for g in cl.ELEMENTS:
            assert compose_cliffords(e, g).index == g.index
            assert compose_cliffords(g, e).index == g.index

    def test_inverse_via_matrix_oracle(self):
        for g in cl.ELEMENTS:
            inv = inverse_clifford(g)
            assert cl.equal_up_to_phase(
                inv.matrix() @ g.matrix(), np.eye(2)
            )
            assert compose_cliffords(g, inv).index == cl.IDENTITY_INDEX

    def test_x_is_an_involution(self):
        x_idx = next(
            g.index for g in cl.ELEMENTS if cl.equal_up_to_phase(g.matrix(), cl.X_MAT)
        )
        assert int(cl.INVERSE_TABLE[x_idx]) == x_idx

    def test_associativity_sampled(self, rng):
        for _ in range(200):
            a, b, c = rng.integers(0, 24, size=3)
            left = cl.COMPOSE_TABLE[cl.COMPOSE_TABLE[a, b], c]
            right = cl.COMPOSE_TABLE[a, cl.COMPOSE_TABLE[b, c]]
            assert left == right


def _search(u: np.ndarray) -> int:
    """Index of the one element equal to ``u`` up to phase, by brute force."""
    (found,) = [k for k, m in enumerate(cl.MATRICES) if cl.equal_up_to_phase(u, m)]
    return found


class TestPhaseKeys:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, cl.N_CLIFFORDS - 1), st.floats(-2 * np.pi, 2 * np.pi))
    def test_key_ignores_global_phase(self, k, phi):
        u = cl.MATRICES[k]
        key, rotated = cl._phase_keys(np.array([u, np.exp(1j * phi) * u]))
        assert rotated == key

    def test_24_distinct_keys(self):
        assert len(set(cl._phase_keys(np.array(cl.MATRICES)))) == cl.N_CLIFFORDS

    def test_tables_equal_brute_force_search(self):
        compose = [[_search(cl.MATRICES[b] @ cl.MATRICES[a]) for b in range(cl.N_CLIFFORDS)]
                   for a in range(cl.N_CLIFFORDS)]
        assert np.array_equal(cl.COMPOSE_TABLE, compose)
        assert np.array_equal(cl.INVERSE_TABLE, [_search(m.conj().T) for m in cl.MATRICES])
        assert cl.IDENTITY_INDEX == _search(np.eye(2))


class TestDecompositions:
    def test_native_ops_reproduce_matrices(self):
        for g in cl.ELEMENTS:
            got = _ops_unitary(g.to_ops(0))
            assert cl.equal_up_to_phase(got, g.matrix()), g.index

    def test_mean_pulse_count_exact(self):
        assert cl.AVG_PULSES_PER_CLIFFORD == 1.875

    def test_pulse_histogram_total(self):
        hist = cl.pulse_count_histogram()
        assert sum(hist.values()) == 24
        assert sum(k * v for k, v in hist.items()) == 45

    def test_only_native_kinds_emitted(self):
        for g in cl.ELEMENTS:
            for op in g.to_ops(3):
                assert op.kind in ("X", "X90", "Y90", "RZ")
                assert op.qubits == (3,)


class TestRandomSequences:
    def test_sequence_with_inverse_is_identity(self, rng):
        # checkable by plain 2x2 multiplication for any length
        for n in range(1, 7):
            for _ in range(20):
                seq = [int(v) for v in rng.integers(0, 24, size=n)]
                inv = int(cl.INVERSE_TABLE[cl.compose_indices(seq)])
                total = np.eye(2, dtype=complex)
                for idx in seq + [inv]:
                    total = cl.MATRICES[idx] @ total
                assert cl.equal_up_to_phase(total, np.eye(2))

    def test_sequence_circuit_simulates_to_zero(self, rng):
        seq = [int(v) for v in rng.integers(0, 24, size=40)]
        inv = int(cl.INVERSE_TABLE[cl.compose_indices(seq)])
        ops = []
        for idx in seq + [inv]:
            ops.extend(cl.ELEMENTS[idx].to_ops(0))
        ops.append(measure_all())
        probs = run_ideal(Circuit(1, tuple(ops)))
        assert probs[0] == pytest.approx(1.0, abs=1e-9)
