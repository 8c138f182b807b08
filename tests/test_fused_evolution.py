"""The fused evolutions, density-matrix and pure-state, agree with their
gate-by-gate oracles; the density path's chain products agree with a fold."""
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import density_oracle
import state_oracle
from helpers import native_circuits
from qbench.application import (
    Graph,
    ansatz_angles,
    bv_circuit,
    dj_circuit,
    gen_erdos_renyi,
    maxcut_ansatz,
    qft_roundtrip_circuit,
)
from qbench.circuits import Circuit, TimingModel, cz, measure_all, rz, wait, x, x90, y90
from qbench.component import RBConfig, gen_rb_sequences
from qbench.device import DeviceModel, QubitParams, ideal_device, starmon5_reference_model
from qbench.simulator import (
    _SHORT_CHAIN,
    _chain_product,
    _density_probs,
    _evolve,
    _layer_map,
    _noiseless,
    _outcome_probs,
    depolarizing_superop,
    idle_superop,
    run_noisy,
)
from qbench.system import compile_qv_circuit, gen_qv_spec

TOL = 1e-12
STARMON = starmon5_reference_model()


def as_matrix(rho: np.ndarray) -> np.ndarray:
    """A (4,)*k density tensor, axis i indexed 2*ket + bra, as a 2^k x 2^k matrix."""
    k = rho.ndim
    ket_bra = rho.reshape((2,) * (2 * k)).transpose(*range(0, 2 * k, 2), *range(1, 2 * k, 2))
    return ket_bra.reshape(2**k, 2**k)


def assert_agrees_with_oracle(circuit: Circuit, device: DeviceModel) -> None:
    active = sorted({q for g in circuit.ops for q in g.qubits})
    oracle_active, oracle = density_oracle.evolve(circuit, device)
    assert active == oracle_active
    if not active:
        return
    fused = _evolve(circuit, active, device)
    _density_probs(fused)  # trace, Hermiticity, no population below -1e-12
    oracle.check()
    rho = as_matrix(fused)
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


@pytest.mark.parametrize("circuit", [
    Circuit(3, (x90(0), cz(1, 2), y90(0), x(1), measure_all())),
    Circuit(2, (x(0), wait(1, 800.0), x90(0), y90(1))),
    Circuit(2, (x90(0), rz(1, 0.3), wait(0, 500.0), x(1), x90(1))),
], ids=["longer_cz", "longer_wait", "rz_then_pulse"])
def test_pulse_sharing_a_longer_layer_agrees(circuit):
    """A pulse fused with its layer's idle decay, where another gate sets
    that layer's duration; the unpulsed qubits decay alone."""
    assert_agrees_with_oracle(circuit, STARMON)


@pytest.mark.parametrize("width", [2, 3, 4, 5])
def test_qv_circuits_agree(width):
    order = [2, 0, 1, 3, 4]
    c = compile_qv_circuit(gen_qv_spec(width, 7), 5, order[:width], STARMON.edge_set())
    assert_agrees_with_oracle(c, STARMON)


def test_qaoa_circuits_agree():
    graph = gen_erdos_renyi(4, seed=3)
    c = maxcut_ansatz(graph, 2, qubit_map=[2, 0, 1, 3], n_qubits=5,
                      connectivity=STARMON.edge_set()).bind(ansatz_angles([0.4, 1.1], [0.7, 0.2]))
    assert_agrees_with_oracle(c, STARMON)
    c = maxcut_ansatz(graph, 1).bind(ansatz_angles([0.4], [0.7]))
    assert_agrees_with_oracle(c, ideal_device(4))


@pytest.mark.parametrize("circuit", [
    bv_circuit("101"),
    dj_circuit(3, "011"),
    dj_circuit(3, None),
    qft_roundtrip_circuit(3, 5),
], ids=["bv", "dj_balanced", "dj_constant", "qft"])
def test_app_suite_circuits_agree(circuit):
    assert_agrees_with_oracle(circuit, STARMON)


# --- the pure-state path -------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(native_circuits(max_qubits=5))
def test_pure_evolver_matches_gate_by_gate(circuit):
    psi = _evolve(circuit, list(range(circuit.n_qubits)), None)
    assert np.abs(psi - state_oracle.evolve(circuit)).max() <= TOL


@settings(max_examples=150, deadline=None)
@given(native_circuits(max_qubits=5))
def test_noiseless_run_noisy_matches_density_oracle(circuit):
    device = ideal_device(circuit.n_qubits)
    active, probs = _outcome_probs(circuit, device)
    oracle_active, oracle = density_oracle.evolve(circuit, device)
    assert active == oracle_active
    if oracle is not None:
        assert np.abs(probs - oracle.probs()).max() <= TOL


@st.composite
def maxcut_circuits(draw) -> Circuit:
    """A bound Max-Cut ansatz on 2-5 nodes, random edges and angles, on 5 qubits."""
    n = draw(st.integers(2, 5))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    template = maxcut_ansatz(Graph(n, tuple(edges)), 1, n_qubits=5)
    angles = draw(st.lists(st.floats(-2 * math.pi, 2 * math.pi),
                           min_size=template.n_params, max_size=template.n_params))
    return template.bind(angles)


@settings(max_examples=100, deadline=None)
@given(maxcut_circuits())
def test_maxcut_outcomes_match_gate_by_gate(circuit):
    active, probs = _outcome_probs(circuit, ideal_device(5))
    psi = state_oracle.evolve(circuit)
    # qubits the ansatz leaves alone stay in |0>
    idle = tuple(q for q in range(5) if q not in active)
    want = (np.abs(psi) ** 2)[tuple(0 if q in idle else slice(None) for q in range(5))]
    assert np.abs(probs - want.reshape(-1)).max() <= TOL


def _one_qubit_noisy(**change) -> DeviceModel:
    """Three noiseless qubits, except that qubit 1 gets ``change``."""
    base = ideal_device(3)
    qubits = list(base.qubits)
    qubits[1] = QubitParams(change.get("t1_us", math.inf), change.get("t2_us", math.inf))
    p1 = [0.0, change.get("p1", 0.0), 0.0]
    return DeviceModel(qubits=tuple(qubits), p1=tuple(p1), p2=change.get("p2", 0.0))


@pytest.mark.parametrize("change, noiseless", [
    ({}, True),
    ({"p1": 1e-4}, False),
    ({"p2": 1e-4}, False),
    ({"t1_us": 50.0, "t2_us": 100.0}, False),
    ({"t2_us": 50.0}, False),
], ids=["ideal", "p1", "p2", "t1", "dephasing"])
def test_noiseless_rule(change, noiseless):
    device = _one_qubit_noisy(**change)
    assert _noiseless(device, [0, 1, 2]) is noiseless
    assert _noiseless(device, [0, 2]) is (change.get("p2", 0.0) == 0)


def test_noisy_idle_qubit_keeps_pure_path_and_samples():
    """A noisy qubit the circuit never touches does not force the density path,
    and sampling draws from the pure-state distribution."""
    device = _one_qubit_noisy(p1=0.1, t1_us=5.0, t2_us=5.0)
    circuit = Circuit(3, (x90(0), cz(0, 2), x90(2), measure_all()))
    active, probs = _outcome_probs(circuit, device)
    assert active == [0, 2]
    assert np.abs(probs - np.abs(state_oracle.evolve(Circuit(2, (x90(0), cz(0, 1), x90(1))))
                                 .reshape(-1)) ** 2).max() <= TOL
    table = run_noisy(circuit, device, 4000, seed=5)
    assert all(key[1] == "0" for key in table.counts)
    assert table.counts.get("000", 0) == pytest.approx(1000, abs=150)


# --- pending chains and cached layer maps ----------------------------------------

def test_chain_product_matches_left_fold():
    """Chains of 1-300 channel maps, on both sides of the batching threshold."""
    rng = np.random.default_rng(17)
    chain = []
    for j in range(300):
        u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        m = np.kron(u, u.conj())
        if j % 3 == 0:
            m = depolarizing_superop(rng.uniform(0.0, 0.05)) @ m
        if j % 5 == 0:
            m = idle_superop(20.0, 15.0, rng.uniform(0.0, 3000.0)) @ m
        chain.append(m)
    for length in range(1, 301):
        fold = functools.reduce(lambda acc, m: m @ acc, chain[:length])
        got = _chain_product(chain[:length])
        if length <= _SHORT_CHAIN:
            assert np.array_equal(got, fold)
        assert np.abs(got - fold).max() <= 1e-14


def test_layer_maps_are_read_only():
    m = _layer_map("X90", 0.01, 20.0, 15.0, 20.0)
    assert _layer_map("X90", 0.01, 20.0, 15.0, 20.0) is m
    with pytest.raises(ValueError):
        m[0, 0] = 0.0
    assert _layer_map(None, 0.0, math.inf, math.inf, 20.0) is None
