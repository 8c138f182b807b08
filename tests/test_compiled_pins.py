"""Pinned compiled circuits and Clifford tables.

Each digest is the sha256 of the ``circuit_to_dict`` documents of one
circuit family on one device, serialized as JSON.  The families are the
circuits the protocols compile and run: quantum-volume model circuits
(widths 2-5, several seeds), CLOPS templates and Max-Cut ansatz templates
(bound to fixed angles, so the digest covers both gates and slot order),
and the algorithm suite's routed circuits.  The Clifford composition,
inverse and identity tables are pinned the same way, and so is the Max-Cut
angle search: the best point and mean, best sampled cut, evaluation count
and running best of ``qaoa_maxcut`` over fixed graphs and seeds.

A refactor of synthesis, routing, qubit ranking or the Clifford tables
must leave every digest as it is.  Like the ``GOLDEN`` scalar digests,
these hold on one numpy/LAPACK build: synthesis runs eigendecompositions
whose last bits may differ on another, and a search's path follows them.
"""
import hashlib
import json

import numpy as np
import pytest

from qbench import cliffords
from qbench.application import (
    Graph,
    QScoreConfig,
    bv_circuit,
    dj_circuit,
    gen_erdos_renyi,
    maxcut_ansatz,
    qaoa_maxcut,
    qft_roundtrip_circuit,
)
from qbench.backends import LocalSimBackend
from qbench.circuits import Circuit, remap
from qbench.compile import route_ops
from qbench.device import ideal_device, starmon5_reference_model
from qbench.serialization import circuit_to_dict
from qbench.system import compile_qv_circuit, gen_qv_spec, make_clops_templates

DEVICES = {"starmon5": starmon5_reference_model, "ideal5": lambda: ideal_device(5)}


def _digest(circuits) -> str:
    docs = [circuit_to_dict(c) for c in circuits]
    return hashlib.sha256(json.dumps(docs).encode()).hexdigest()


def _bound(template) -> Circuit:
    return template.bind([0.1 + 0.37 * i for i in range(template.n_params)])


def _qv_circuits(backend):
    order = backend.preferred_qubit_order()
    return [
        compile_qv_circuit(gen_qv_spec(d, seed), backend.n_qubits, qubit_map=order,
                           connectivity=backend.connectivity, label=f"qv_d{d}_s{seed}")
        for d in range(2, 6) for seed in (0, 1, 7, 123)
    ]


def _clops_circuits(backend):
    order = backend.preferred_qubit_order()
    return [
        _bound(t)
        for d in (2, 3, 4)
        for t in make_clops_templates(d, 3, 7, backend.n_qubits, order, backend.connectivity)
    ]


def _maxcut_circuits(backend):
    order = backend.preferred_qubit_order()
    graphs = [gen_erdos_renyi(n, 0.5, seed) for n in range(2, 6) for seed in (0, 1, 2)]
    graphs.append(Graph(5, tuple((a, b) for a in range(5) for b in range(a + 1, 5))))
    return [
        _bound(maxcut_ansatz(g, p, qubit_map=order[: g.n_nodes], n_qubits=backend.n_qubits,
                             connectivity=backend.connectivity))
        for g in graphs for p in (1, 2)
    ]


def _appsuite_circuits(backend):
    order = backend.preferred_qubit_order()
    out = []
    for width in range(2, 6):
        logical = [
            bv_circuit("1" * width),
            bv_circuit("10" * (width // 2) + "1" * (width % 2)),
            dj_circuit(width, None),
            dj_circuit(width, "0" * (width - 1) + "1"),
            qft_roundtrip_circuit(width, 1),
            qft_roundtrip_circuit(width, 2**width - 2),
        ]
        for c in logical:
            physical = remap(c, order[:width], backend.n_qubits)
            routed = route_ops(list(physical.ops), backend.connectivity)
            out.append(Circuit(backend.n_qubits, tuple(routed), label=physical.label))
    return out


FAMILIES = {
    "qv": _qv_circuits,
    "clops": _clops_circuits,
    "maxcut": _maxcut_circuits,
    "appsuite": _appsuite_circuits,
}

PINS = {
    ("qv", "starmon5"):
        "f68b1e8e7a45d568410ef681d78c0af21d233d6239bac3571bc43efe0e154788",
    ("qv", "ideal5"):
        "1ec926c02f65ffae3afcbbc0341df2c2e59b3745f1f6fb83e25e864bd4967650",
    ("clops", "starmon5"):
        "324a2db4c15c0e7679c34eee535ce145d6af1b64e3e98b72c8032c61d694f938",
    ("clops", "ideal5"):
        "aef03f6ee08a954453b10a9c5fbf46bc8c940761cf650574f2edde301219c062",
    ("maxcut", "starmon5"):
        "89a568a242b9b48ea04f9cc6a23b6a5c415859c2f7ac1d5cbad4e7bdabaac077",
    ("maxcut", "ideal5"):
        "00cd77292eba300b44de2ee03b04033bedb2a68c626702c443f9b2b08f892a39",
    ("appsuite", "starmon5"):
        "8da764eb7798ce95cf0129ba9c1a1cca5eb285c055f1318edf3d3405605afacd",
    ("appsuite", "ideal5"):
        "d1c8181643cf4e0b72f5b6b0298be03a455490bed0031942b4cc1c1daf425d67",
}

CLIFFORD_TABLES_SHA256 = "0a4f3fad7395d257f267c5d37401b8669f98b56097471dfdf8bea4398a758f71"


@pytest.mark.parametrize("family,device", sorted(PINS))
def test_compiled_circuits_are_pinned(family, device):
    backend = LocalSimBackend(DEVICES[device]())
    assert _digest(FAMILIES[family](backend)) == PINS[family, device]


def test_clifford_tables_are_pinned():
    doc = {
        "compose": cliffords.COMPOSE_TABLE.tolist(),
        "inverse": cliffords.INVERSE_TABLE.tolist(),
        "identity": int(cliffords.IDENTITY_INDEX),
    }
    assert np.asarray(cliffords.COMPOSE_TABLE).shape == (24, 24)
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == CLIFFORD_TABLES_SHA256


def _qaoa_cases():
    """Sizes 2-5 at three seeds with 30 evaluations, then 1, 2 and 3 evaluations."""
    for n in range(2, 6):
        for seed in (0, 1, 2):
            graph = Graph(2, ((0, 1),)) if n == 2 else gen_erdos_renyi(n, 0.5, seed=seed)
            yield graph, QScoreConfig(shots=256, max_evaluations=30), seed
    for evals in (1, 2, 3):
        yield gen_erdos_renyi(4, 0.5, seed=7), QScoreConfig(shots=256, max_evaluations=evals), 2


QAOA_PINS = {
    "starmon5": "c5e3c96129fb543bdb770a2402a0dd9127e4af48517a57c44cadadd51832cbaa",
    "ideal5": "47aacb76afb46704d5655c59dcf5d1438d5097c1664d21e3d0365fdb4ba67c6f",
}


@pytest.mark.parametrize("device", sorted(QAOA_PINS))
def test_qaoa_search_is_pinned(device):
    backend = LocalSimBackend(DEVICES[device]())
    docs = []
    for graph, cfg, seed in _qaoa_cases():
        res = qaoa_maxcut(graph, backend, cfg, seed=seed)
        docs.append([list(res.best_params), res.best_mean_cut, res.best_sampled_cut,
                     res.evaluations, res.best_so_far])
    assert len(docs) == 15
    assert hashlib.sha256(json.dumps(docs).encode()).hexdigest() == QAOA_PINS[device]
