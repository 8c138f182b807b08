import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import native_circuits

from qbench.circuits import (
    GATE_KINDS,
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
from qbench.system import compile_qv_circuit, gen_qv_spec, make_clops_templates

TIMING = TimingModel()
# a model with four distinct durations, so a kind read from the wrong slot shows
SKEWED = TimingModel(single_qubit_gate_ns=17.5, two_qubit_gate_ns=43.0, rz_ns=2.0,
                     measure_ns=901.0)


def if_chain_duration_ns(timing: TimingModel, gate: Gate) -> float:
    """Slow reference: the per-kind if-chain the duration table replaced."""
    if gate.kind in ("X", "X90", "Y90"):
        return timing.single_qubit_gate_ns
    if gate.kind == "CZ":
        return timing.two_qubit_gate_ns
    if gate.kind == "RZ":
        return timing.rz_ns
    if gate.kind == "WAIT":
        return float(gate.duration_ns)
    return timing.measure_ns


def if_chain_circuit_ns(timing: TimingModel, circuit: Circuit) -> float:
    return sum(max(if_chain_duration_ns(timing, g) for g in layer) for layer in circuit.layers())


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


class TestDurationTable:
    ONE_OF_EACH = {"X": x(0), "X90": x90(0), "Y90": y90(0), "RZ": rz(0, 0.3), "CZ": cz(0, 1),
                   "WAIT": wait(0, 123.0), "MEASURE_ALL": measure_all()}

    @pytest.mark.parametrize("timing", [TIMING, SKEWED, TIMING.scaled(2.5)])
    @pytest.mark.parametrize("kind", GATE_KINDS)
    def test_every_kind_matches_the_if_chain(self, timing, kind):
        gate = self.ONE_OF_EACH[kind]
        assert timing.gate_duration_ns(gate) == if_chain_duration_ns(timing, gate)

    def test_table_covers_every_kind_but_wait(self):
        assert set(SKEWED.kind_ns) == set(GATE_KINDS) - {"WAIT"}

    def test_table_stays_out_of_equality_and_repr(self):
        assert SKEWED == TimingModel(17.5, 43.0, 2.0, 901.0)
        assert hash(SKEWED) == hash(TimingModel(17.5, 43.0, 2.0, 901.0))
        assert "kind_ns" not in repr(SKEWED)

    @pytest.mark.parametrize("timing", [TIMING, SKEWED])
    @pytest.mark.parametrize("width", [2, 3, 5])
    def test_qv_circuit_duration(self, timing, width):
        star = frozenset({(0, 2), (1, 2), (2, 3), (2, 4)})
        c = compile_qv_circuit(gen_qv_spec(width, seed=11), 5, connectivity=star)
        assert c.duration_ns(timing) == if_chain_circuit_ns(timing, c)

    @pytest.mark.parametrize("timing", [TIMING, SKEWED])
    def test_clops_circuit_duration(self, timing):
        for template in make_clops_templates(2, 3, seed=4, n_qubits=3, qubit_map=None,
                                             connectivity=None):
            c = template.bind([0.1 * i for i in range(template.n_params)])
            assert c.duration_ns(timing) == if_chain_circuit_ns(timing, c)


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
