"""JSON schema for circuits.

Circuit documents are flat: {"n_qubits", "ops": [{"kind", "qubits",
"angle_rad"?, "duration_ns"?}], "label"}.  Angles survive a round trip
exactly because floats serialize via their shortest exact decimal
representation (up to 17 significant digits).
"""
from __future__ import annotations

from .circuits import Circuit, Gate


def circuit_to_dict(circuit: Circuit) -> dict:
    ops = []
    for g in circuit.ops:
        op: dict = {"kind": g.kind, "qubits": list(g.qubits)}
        if g.angle_rad is not None:
            op["angle_rad"] = g.angle_rad
        if g.duration_ns is not None:
            op["duration_ns"] = g.duration_ns
        ops.append(op)
    return {"n_qubits": circuit.n_qubits, "ops": ops, "label": circuit.label}


def circuit_from_dict(doc: dict) -> Circuit:
    ops = tuple(
        Gate(
            kind=op["kind"],
            qubits=tuple(op.get("qubits", ())),
            angle_rad=op.get("angle_rad"),
            duration_ns=op.get("duration_ns"),
        )
        for op in doc["ops"]
    )
    return Circuit(int(doc["n_qubits"]), ops, label=doc.get("label", ""))
