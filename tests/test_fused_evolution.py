"""The fused-superoperator evolution agrees with the gate-by-gate oracle."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import density_oracle
from qbench.application import (
    bv_circuit,
    dj_circuit,
    gen_erdos_renyi,
    maxcut_ansatz,
    qft_roundtrip_circuit,
)
from qbench.circuits import Circuit, TimingModel, cz, measure_all, rz, wait, x, x90, y90
from qbench.component import RBConfig, gen_rb_sequences
from qbench.device import DeviceModel, QubitParams, ideal_device, starmon5_reference_model
from qbench.simulator import _evolve
from qbench.system import compile_qv_circuit, gen_qv_spec

TOL = 1e-12
STARMON = starmon5_reference_model()


def assert_agrees_with_oracle(circuit: Circuit, device: DeviceModel) -> None:
    active, fused = _evolve(circuit, device)
    oracle_active, oracle = density_oracle.evolve(circuit, device)
    assert active == oracle_active
    if fused is None:
        return
    fused.check()  # trace, Hermiticity, no population below -1e-12
    oracle.check()
    dim = 2 ** len(active)
    rho = fused.rho.reshape(dim, dim)
    assert np.linalg.eigvalsh(rho).min() >= -TOL
    assert np.linalg.eigvalsh(oracle.matrix()).min() >= -TOL
    assert np.abs(np.real(np.diag(rho)) - oracle.probs()).max() <= TOL
    assert np.abs(rho - oracle.matrix()).max() <= TOL


# --- random circuits on random devices -----------------------------------------

@st.composite
def devices(draw, n: int) -> DeviceModel:
    qubits = []
    for _ in range(n):
        if draw(st.booleans()):
            t1 = draw(st.floats(0.5, 200.0))
            t2 = 2 * t1 * draw(st.floats(0.01, 1.0))
            qubits.append(QubitParams(t1, t2))
        else:
            qubits.append(QubitParams(math.inf, math.inf))
    timing = TimingModel(
        single_qubit_gate_ns=draw(st.floats(0.0, 100.0)),
        two_qubit_gate_ns=draw(st.floats(0.0, 200.0)),
        rz_ns=draw(st.sampled_from([0.0, 5.0])),
    )
    return DeviceModel(
        qubits=tuple(qubits),
        p1=tuple(draw(st.floats(0.0, 0.5)) for _ in range(n)),
        p2=draw(st.floats(0.0, 0.5)),
        timing=timing,
    )


@st.composite
def gates(draw, n: int):
    kind = draw(st.sampled_from(["X", "X90", "Y90", "RZ", "CZ", "WAIT"] if n > 1
                                else ["X", "X90", "Y90", "RZ", "WAIT"]))
    q = draw(st.integers(0, n - 1))
    if kind == "CZ":
        other = draw(st.integers(0, n - 2))
        return cz(q, other if other < q else other + 1)
    if kind == "RZ":
        return rz(q, draw(st.floats(-2 * math.pi, 2 * math.pi)))
    if kind == "WAIT":
        return wait(q, draw(st.floats(0.0, 5000.0)))
    return {"X": x, "X90": x90, "Y90": y90}[kind](q)


@st.composite
def circuits_on_devices(draw):
    n = draw(st.integers(1, 4))
    ops = draw(st.lists(gates(n), max_size=40))
    if draw(st.booleans()):
        ops.append(measure_all())
    return Circuit(n, tuple(ops)), draw(devices(n))


@settings(max_examples=150, deadline=None)
@given(circuits_on_devices())
def test_random_circuits_agree(case):
    circuit, device = case
    assert_agrees_with_oracle(circuit, device)


# --- protocol circuits on the reference device -----------------------------------

def test_rb_sequences_agree():
    for c in gen_rb_sequences(RBConfig(lengths=(1, 20, 80), sequences_per_length=2), 1, 5):
        assert_agrees_with_oracle(c, STARMON)


@pytest.mark.parametrize("wait_us", [0.0, 7.5, 60.0])
def test_coherence_circuits_agree(wait_us):
    q, ns = 3, wait_us * 1000.0
    t1 = Circuit(5, (x(q), wait(q, ns), measure_all()))
    t2star = Circuit(5, (x90(q), wait(q, ns), rz(q, 0.785 * wait_us), x90(q), measure_all()))
    echo = Circuit(5, (x90(q), wait(q, ns / 2), x(q), wait(q, ns / 2), x90(q), measure_all()))
    for c in (t1, t2star, echo):
        assert_agrees_with_oracle(c, STARMON)


@pytest.mark.parametrize("width", [2, 3, 4, 5])
def test_qv_circuits_agree(width):
    order = [2, 0, 1, 3, 4]
    c = compile_qv_circuit(gen_qv_spec(width, 7), 5, order[:width], STARMON.edge_set())
    assert_agrees_with_oracle(c, STARMON)


def test_qaoa_circuits_agree():
    graph = gen_erdos_renyi(4, seed=3)
    c = maxcut_ansatz(graph, [0.4, 1.1], [0.7, 0.2], qubit_map=[2, 0, 1, 3], n_qubits=5,
                      connectivity=STARMON.edge_set())
    assert_agrees_with_oracle(c, STARMON)
    assert_agrees_with_oracle(maxcut_ansatz(graph, [0.4], [0.7]), ideal_device(4))


@pytest.mark.parametrize("circuit", [
    bv_circuit("101"),
    dj_circuit(3, "011"),
    dj_circuit(3, None),
    qft_roundtrip_circuit(3, 5),
], ids=["bv", "dj_balanced", "dj_constant", "qft"])
def test_app_suite_circuits_agree(circuit):
    assert_agrees_with_oracle(circuit, STARMON)
