import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import native_circuits

from qbench.circuits import (
    Circuit,
    Gate,
    ParamCircuit,
    ParamRZ,
    TimingModel,
    cz,
    measure_all,
    normalize_angle,
    parameterize_rz,
    remap,
    rz,
    unconnected_cz,
    wait,
    x,
    x90,
    y90,
)

TIMING = TimingModel()


class TestGateValidation:
    def test_rz_requires_finite_angle(self):
        with pytest.raises(ValueError):
            Gate("RZ", (0,), angle_rad=float("nan"))
        with pytest.raises(ValueError):
            Gate("RZ", (0,))

    def test_wait_requires_nonnegative_duration(self):
        with pytest.raises(ValueError):
            wait(0, -1.0)
        assert wait(0, 0.0).duration_ns == 0.0

    def test_cz_needs_distinct_qubits(self):
        with pytest.raises(ValueError):
            Gate("CZ", (1, 1))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Gate("H", (0,))


class TestCircuitValidation:
    def test_qubit_indices_in_range(self):
        with pytest.raises(ValueError):
            Circuit(2, (x(2),))

    def test_measure_all_only_final(self):
        with pytest.raises(ValueError):
            Circuit(1, (measure_all(), x(0)))
        c = Circuit(1, (x(0), measure_all()))
        assert c.has_measurement

    def test_immutable(self):
        c = Circuit(1, (x(0),))
        with pytest.raises(Exception):
            c.n_qubits = 3


class TestDuration:
    def test_serial_with_wait(self):
        c = Circuit(1, (x90(0), wait(0, 100.0), x90(0)))
        assert c.duration_ns(TIMING) == 140.0

    def test_empty_circuit(self):
        assert Circuit(1).duration_ns(TIMING) == 0.0

    def test_parallel_layer_counts_once(self):
        c = Circuit(2, (x90(0), x90(1)))
        assert c.duration_ns(TIMING) == 20.0

    def test_rz_is_free(self):
        c = Circuit(1, (rz(0, 1.0), rz(0, 2.0)))
        assert c.duration_ns(TIMING) == 0.0

    def test_cz_and_measure(self):
        c = Circuit(2, (cz(0, 1), measure_all()))
        assert c.duration_ns(TIMING) == 1040.0


class TestLayers:
    def test_conflicting_gates_split(self):
        c = Circuit(2, (x(0), x(0), x(1)))
        layers = c.layers()
        assert len(layers) == 2
        assert [g.kind for g in layers[0]] == ["X"]

    def test_depth_ignores_rz_only_layers(self):
        c = Circuit(1, (x90(0), rz(0, 1.0), x90(0)))
        assert c.depth() == 2

    @staticmethod
    def _two_set_layers(circuit: Circuit) -> list[list[Gate]]:
        """The earlier layering, two sets per gate: the reference."""
        out: list[list[Gate]] = []
        used: set[int] = set()
        everything = frozenset(range(circuit.n_qubits))
        for g in circuit.ops:
            qs = set(g.qubits) if g.kind != "MEASURE_ALL" else set(everything)
            if not out or used & qs:
                out.append([g])
                used = set(qs)
            else:
                out[-1].append(g)
                used |= qs
        return out

    @settings(max_examples=200, deadline=None)
    @given(native_circuits(max_qubits=5))
    def test_layers_match_two_set_reference(self, circuit):
        assert circuit.layers() == self._two_set_layers(circuit)


class TestParamCircuit:
    def test_bind_round_trip(self):
        base = Circuit(2, (x90(0), rz(0, 0.5), cz(0, 1), rz(1, 1.5), measure_all()))
        pc = parameterize_rz(base)
        assert pc.n_params == 2
        bound = pc.bind([0.5, 1.5])
        assert bound.ops == base.ops

    def test_bind_arity_mismatch(self):
        pc = parameterize_rz(Circuit(1, (rz(0, 1.0),)))
        with pytest.raises(ValueError):
            pc.bind([1.0, 2.0])

    def test_bind_rejects_nonfinite(self):
        pc = parameterize_rz(Circuit(1, (rz(0, 1.0),)))
        with pytest.raises(ValueError):
            pc.bind([float("inf")])

    @settings(max_examples=100, deadline=None)
    @given(native_circuits(), st.data())
    def test_bind_replaces_exactly_the_rz_angles(self, circuit, data):
        pc = parameterize_rz(circuit)
        angles = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=pc.n_params,
                                    max_size=pc.n_params))
        it = iter(angles)
        want = tuple(rz(g.qubits[0], next(it)) if g.kind == "RZ" else g for g in circuit.ops)
        assert pc.bind(angles) == Circuit(circuit.n_qubits, want, label=circuit.label)

    def test_shared_parameter_index(self):
        pc = ParamCircuit(1, (ParamRZ(0, 0), x90(0), ParamRZ(0, 0)), n_params=1)
        bound = pc.bind([2.0])
        assert bound.ops[0].angle_rad == 2.0
        assert bound.ops[2].angle_rad == 2.0


class TestRemap:
    def test_remap_moves_qubits(self):
        c = Circuit(2, (x(0), cz(0, 1), measure_all()))
        mapped = remap(c, [3, 1], 4)
        assert mapped.ops[0].qubits == (3,)
        assert mapped.ops[1].qubits == (1, 3)

    def test_remap_requires_injective(self):
        with pytest.raises(ValueError):
            remap(Circuit(2, (x(0), x(1))), [1, 1], 3)


def test_normalize_angle():
    assert normalize_angle(3 * math.pi) == pytest.approx(math.pi)
    assert normalize_angle(-math.pi) == pytest.approx(math.pi)
    assert normalize_angle(0.25) == pytest.approx(0.25)


class TestUnconnectedCZ:
    STAR = frozenset({(0, 2), (1, 2), (2, 3), (2, 4)})

    def test_first_offending_cz(self):
        ops = (x90(0), cz(0, 2), cz(0, 1), cz(3, 4))
        assert unconnected_cz(ops, self.STAR) == cz(0, 1)

    def test_pair_order_does_not_matter(self):
        assert unconnected_cz((Gate("CZ", (2, 0)),), self.STAR) is None
        assert unconnected_cz((Gate("CZ", (1, 0)),), self.STAR) == Gate("CZ", (1, 0))

    def test_all_to_all_scans_nothing(self):
        class Unreadable:
            def __iter__(self):
                raise AssertionError("ops were scanned")

        assert unconnected_cz(Unreadable(), None) is None
