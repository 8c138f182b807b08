"""Reference helpers that only the tests use: dense unitaries, group-law
shortcuts, distribution helpers, shot-table documents, the fit-model
table, canonical scalars, the local backend's drifted device, a
uniform-random backend, a random-circuit strategy and a one-request HTTP
exchange."""
import http.client
import json
import math
from urllib.parse import urlsplit

import numpy as np
from hypothesis import strategies as st

from qbench import cliffords
from qbench.backends import Backend, LocalSimBackend
from qbench.circuits import Circuit, Gate, cz, measure_all, rz, wait
from qbench.device import DeviceModel, ideal_device
from qbench.fitting import (
    _EXP_NAMES,
    _GEOM_NAMES,
    _SIN_NAMES,
    _exp_f,
    _exp_jac,
    _geom_f,
    _geom_jac,
    _sin_f,
    _sin_jac,
)
from qbench.reporting import MetricReport
from qbench.simulator import ShotTable, index_to_bitstring
from qbench.system import heavy_set
from state_oracle import apply_gate_to_state

MODEL_FUNCTIONS = {
    "geometric": (_geom_f, _geom_jac, _GEOM_NAMES),
    "exp_decay": (_exp_f, _exp_jac, _EXP_NAMES),
    "damped_sinusoid": (_sin_f, _sin_jac, _SIN_NAMES),
}


def compose_cliffords(
    a: cliffords.CliffordElement, b: cliffords.CliffordElement
) -> cliffords.CliffordElement:
    """Group product in circuit order: apply ``a`` first, then ``b``."""
    return cliffords.ELEMENTS[cliffords.COMPOSE_TABLE[a.index, b.index]]


def inverse_clifford(a: cliffords.CliffordElement) -> cliffords.CliffordElement:
    return cliffords.ELEMENTS[cliffords.INVERSE_TABLE[a.index]]


def probabilities_dict(probs: np.ndarray, n: int, threshold: float = 0.0) -> dict[str, float]:
    return {
        index_to_bitstring(i, n): float(p)
        for i, p in enumerate(probs)
        if p > threshold
    }


def total_variation_distance(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def heavy_output_mass(ideal_probs: np.ndarray) -> float:
    """Ideal probability mass on the heavy outputs."""
    return float(sum(ideal_probs[i] for i in heavy_set(ideal_probs)))


def scalar_section_json(record: MetricReport) -> str:
    """Canonical serialization of a record's deterministic result section."""
    return json.dumps(record.scalars, sort_keys=True)


def http_json(url: str, method: str, path: str, body: dict | None = None) -> tuple[int, object]:
    """One request on a new connection to the server at ``url``: the reply's
    code and its JSON body."""
    conn = http.client.HTTPConnection(urlsplit(url).netloc, timeout=30)
    try:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        conn.request(method, path, payload, {"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def effective_device(backend: LocalSimBackend) -> DeviceModel:
    """The device the local backend runs at its current clock, drift applied."""
    return backend._effective


class UniformRandomBackend(Backend):
    """Returns uniformly random bitstrings; a floor for every metric."""

    def __init__(self, n_qubits: int) -> None:
        self._device = ideal_device(n_qubits)

    @property
    def device(self) -> DeviceModel:
        return self._device

    def run(self, circuits: list[Circuit], shots: int, seed: int) -> list[ShotTable]:
        tables = []
        for i, c in enumerate(circuits):
            rng = np.random.default_rng(np.random.SeedSequence([int(seed), i, 0xF00D]))
            outcomes = rng.integers(0, 2**c.n_qubits, size=shots)
            values, counts = np.unique(outcomes, return_counts=True)
            tables.append(
                ShotTable(
                    counts={
                        index_to_bitstring(int(v), c.n_qubits): int(k)
                        for v, k in zip(values, counts)
                    },
                    shots=shots,
                    n_qubits=c.n_qubits,
                )
            )
        return tables


def ideal_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary of a (measurement-free) circuit body; ignores WAIT."""
    n = circuit.n_qubits
    if n > 10:
        raise ValueError("ideal_unitary supports at most 10 qubits")
    dim = 2**n
    cols = []
    for k in range(dim):
        state = np.zeros(dim, dtype=complex)
        state[k] = 1.0
        psi = state.reshape([2] * n)
        for g in circuit.body():
            psi = apply_gate_to_state(psi, g, n)
        cols.append(psi.reshape(-1))
    return np.array(cols).T


def shot_table_to_dict(table: ShotTable) -> dict:
    return {
        "counts": dict(table.counts),
        "shots": table.shots,
        "n_qubits": table.n_qubits,
    }


def shot_table_from_dict(doc: dict) -> ShotTable:
    return ShotTable(
        counts={k: int(v) for k, v in doc["counts"].items()},
        shots=int(doc["shots"]),
        n_qubits=int(doc["n_qubits"]),
    )


@st.composite
def native_circuits(draw, max_qubits: int = 4) -> Circuit:
    """Random circuits over every gate kind: pulses, RZ, CZ, WAIT, and an
    optional final MEASURE_ALL."""
    n = draw(st.integers(1, max_qubits))
    kinds = ["X", "X90", "Y90", "RZ", "WAIT"] + (["CZ"] if n > 1 else [])
    ops = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=30)):
        q = draw(st.integers(0, n - 1))
        if kind == "CZ":
            other = draw(st.integers(0, n - 2))
            ops.append(cz(q, other if other < q else other + 1))
        elif kind == "RZ":
            ops.append(rz(q, draw(st.floats(-4 * math.pi, 4 * math.pi))))
        elif kind == "WAIT":
            ops.append(wait(q, draw(st.floats(0.0, 1e5))))
        else:
            ops.append(Gate(kind, (q,)))
    if draw(st.booleans()):
        ops.append(measure_all())
    return Circuit(n, tuple(ops), label=draw(st.text(max_size=8)))
