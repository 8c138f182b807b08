"""Reference sampler: ``run_noisy``'s readout tail written qubit by qubit.

It takes the outcome distribution from ``simulator._outcome_probs`` and then
draws exactly as the determinism contract states: ``choice`` over the
active outcomes, ``shots`` uniforms per qubit in qubit order, ``shots``
uniforms per in-range edge.  ``run_noisy`` must give the same counts and
leave its generator in the same state.
"""
import numpy as np

from qbench.circuits import Circuit
from qbench.device import DeviceModel
from qbench.simulator import _outcome_probs, index_to_bitstring


def sample(circuit: Circuit, device: DeviceModel, shots: int,
           rng: np.random.Generator) -> dict[str, int]:
    n = circuit.n_qubits
    bits = np.zeros((shots, n), dtype=np.uint8)
    active, probs = _outcome_probs(circuit, device)
    if active:
        k = len(active)
        outcomes = rng.choice(2**k, size=shots, p=probs)
        for i, q_phys in enumerate(active):
            bits[:, q_phys] = (outcomes >> (k - 1 - i)) & 1

    for q in range(n):
        m = device.qubits[q].readout
        p_flip = np.where(bits[:, q] == 1, m[1][0], m[0][1])
        flips = rng.random(shots) < p_flip
        bits[:, q] ^= flips.astype(np.uint8)

    eps = device.correlated_readout_epsilon
    if eps > 0 and device.edges:
        for a, b in device.edges:
            if a < n and b < n:
                mask = rng.random(shots) < eps
                bits[:, a] ^= mask.astype(np.uint8)
                bits[:, b] ^= mask.astype(np.uint8)

    weights = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)
    values, counts = np.unique(bits.astype(np.int64) @ weights, return_counts=True)
    return {index_to_bitstring(int(v), n): int(c) for v, c in zip(values, counts)}
