"""``run_noisy``'s block readout draws agree with the per-qubit reference sampler."""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import sampling_oracle
from qbench.circuits import Circuit, cz, measure_all, rz, wait, x, x90, y90
from qbench.device import DeviceModel, QubitParams
from qbench.simulator import run_noisy


@st.composite
def sampling_cases(draw):
    """A device of 1-6 qubits, a circuit on a random active subset of its
    first ``n`` qubits, and the shot count and seed to sample with.

    Readout is asymmetric; correlated readout is off or on, along edges that
    lie inside the circuit's register or reach past it.
    """
    n_dev = draw(st.integers(1, 6))
    n = draw(st.integers(1, n_dev))
    qubits = []
    for _ in range(n_dev):
        e0, e1 = draw(st.floats(0.0, 0.3)), draw(st.floats(0.0, 0.3))
        t1, t2 = draw(st.sampled_from([(math.inf, math.inf), (20.0, 15.0)]))
        qubits.append(QubitParams(t1, t2, ((1 - e0, e0), (e1, 1 - e1))))
    pairs = [(a, b) for a in range(n_dev) for b in range(a + 1, n_dev)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    device = DeviceModel(
        qubits=tuple(qubits),
        p1=tuple(draw(st.sampled_from([0.0, 0.01])) for _ in range(n_dev)),
        p2=0.0,
        edges=tuple(edges),
        correlated_readout_epsilon=draw(st.sampled_from([0.0, 0.05, 0.3])),
    )
    active = sorted(draw(st.sets(st.integers(0, n - 1))))
    ops = []
    for q in active:
        ops.append(draw(st.sampled_from([x, x90, y90]))(q))
        ops.append(rz(q, draw(st.floats(-math.pi, math.pi))))
        ops.append(draw(st.sampled_from([x90, y90]))(q))
        ops.append(wait(q, draw(st.sampled_from([0.0, 3000.0]))))
    ops += [cz(a, b) for a, b in edges if a in active and b in active][:2]
    circuit = Circuit(n, (*ops, measure_all()))
    shots = draw(st.sampled_from([1, 7, 100, 4096]))
    return circuit, device, shots, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(sampling_cases())
def test_block_draws_match_reference(case):
    circuit, device, shots, seed = case
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    table = run_noisy(circuit, device, shots, rng)
    assert table.counts == sampling_oracle.sample(circuit, device, shots, ref_rng)
    # the same number and order of draws, not just the same counts
    assert rng.bit_generator.state == ref_rng.bit_generator.state
