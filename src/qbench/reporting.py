"""Result records and the append-only run store.

Every metric run lands in a MetricReport: the metric id, the exact config,
backend metadata, named scalar results (each carrying its unit), references
to raw data files, timestamps, and the seed.  Reports round-trip through
JSON losslessly.  A RunStore is one directory per invocation holding
``records.jsonl`` (append-only, never rewritten), JSON payloads under
``raw/<metric>/<uuid>.json`` and text artifacts such as ``volumetric.csv``
at its root.  Each protocol result states its share of a record as an
Outcome: scalars, flags, timing and raw payloads.

Scalars under the ``scalars`` key are deterministic given seed, config,
and device; wall-clock measurements live under ``timing`` instead, since
repeated runs cannot reproduce them bit-for-bit.  Two exceptions are
documented.  Q-score: each size's pass/fail verdict, and so the score,
compares the size's wall-clock ``elapsed`` with ``time_limit_s``.  And QV
circuits and CLOPS templates depend on the numpy/LAPACK build: ``su4_ops``
calls ``kak_decompose``, which takes eigenvectors from ``np.linalg.eigh``
with signs the build chooses, so QV scalars and CLOPS counts reproduce only
on the same build.
"""
from __future__ import annotations

import json
import os
import uuid
from dataclasses import MISSING, asdict, dataclass, field, fields
from datetime import datetime, timezone

from . import __version__ as _toolkit_version


def utc_now() -> str:
    """The current UTC time in ISO 8601, the form of every record timestamp."""
    return datetime.now(timezone.utc).isoformat()


# a record field's annotation before any "[" -> (Python type, JSON name) of its value
_JSON_TYPES = {"str": (str, "string"), "int": (int, "integer"), "dict": (dict, "object"),
               "list": (list, "array")}


@dataclass
class MetricReport:
    metric: str
    config: dict
    backend: dict
    scalars: dict[str, dict]  # name -> {"value": ..., "unit": ...}
    seed: int
    timing: dict = field(default_factory=dict)
    raw_refs: list[str] = field(default_factory=list)
    started_at: str = ""
    finished_at: str = ""
    toolkit_version: str = _toolkit_version
    flags: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        for name, entry in self.scalars.items():
            if not isinstance(entry, dict) or "value" not in entry or "unit" not in entry:
                raise ValueError(f"scalar {name!r} must carry a value and a unit")

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "MetricReport":
        """Read a record's JSON; unknown keys are ignored.

        A missing required field raises ``KeyError``.  A missing optional one
        reads empty (``{}``, ``[]`` or ``""``): an old record's toolkit
        version is unknown, not the running one.  A field whose JSON type is
        not its annotation's, a scalar that is not an object with a value and
        a unit, or a ``backend.n_qubits`` that is not an integer raises
        ``ValueError``.
        """
        if not isinstance(doc, dict):
            raise ValueError("a record must be a JSON object")
        kwargs = {}
        for f in fields(cls):
            if f.name in doc:
                kwargs[f.name] = doc[f.name]
                json_type, json_name = _JSON_TYPES[f.type.partition("[")[0]]
                if not isinstance(doc[f.name], json_type):
                    raise ValueError(f"record field {f.name!r} must be a JSON {json_name}")
            elif f.default_factory is not MISSING:
                kwargs[f.name] = f.default_factory()
            elif f.default is not MISSING:
                kwargs[f.name] = type(f.default)()
            else:
                raise KeyError(f.name)
        if not isinstance(kwargs["backend"].get("n_qubits", 0), int):
            raise ValueError("record field 'backend.n_qubits' must be an integer")
        return cls(**kwargs)


def scalar(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


@dataclass
class Outcome:
    """One protocol result's share of its run record."""

    scalars: dict[str, dict] = field(default_factory=dict)  # name -> scalar(value, unit)
    flags: list[str] = field(default_factory=list)  # in record order
    timing: dict[str, float] = field(default_factory=dict)  # wall-clock seconds
    raw: dict[str, dict | str] = field(default_factory=dict)  # name -> RunStore.write_raw payload


class RunStore:
    """One directory per invocation: an append-only record log plus raw files."""

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        os.makedirs(os.path.join(root, "raw"), exist_ok=True)
        self.records_path = os.path.join(root, "records.jsonl")

    def append(self, report: MetricReport) -> None:
        with open(self.records_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(report.to_json_dict(), sort_keys=True) + "\n")

    def write_raw(self, name: str, payload: dict | str) -> str:
        """Write JSON to ``raw/<name>/<uuid>.json`` or text to ``<name>``; return the path."""
        rel, text = name, payload
        if not isinstance(payload, str):
            rel = os.path.join("raw", name, f"{uuid.uuid4()}.json")
            text = json.dumps(payload, sort_keys=True)
        path = os.path.join(self.root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return rel

    def records(self) -> list[MetricReport]:
        if not os.path.exists(self.records_path):
            return []
        out = []
        with open(self.records_path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    out.append(MetricReport.from_json_dict(json.loads(line)))
        return out


# per-qubit summary column -> (standalone metric, scalar name); a calibrate
# record's scalar of the same name wins over the standalone record's
_PER_QUBIT = {
    "t1_us": ("coherence_t1", "t1_q{q}"),
    "t2star_us": ("coherence_t2star", "t2star_q{q}"),
    "t2hahn_us": ("coherence_t2hahn", "t2hahn_q{q}"),
    "f1q_pct": ("rb", "f1q_q{q}"),
    "fro_pct": ("readout", "fro_q{q}"),
}


def emit_report(store: RunStore) -> dict:
    """Aggregate stored records into one summary document.

    The per-qubit table mirrors the usual characterization layout (one row
    per qubit: relaxation, both dephasing times, gate and readout fidelity);
    system and application metrics sit beside it.  Metrics never measured
    stay null.
    """
    latest = {rec.metric: rec for rec in store.records()}  # later lines win
    n_qubits = max((rec.backend.get("n_qubits", 0) for rec in latest.values()), default=0)

    def first(*pairs: tuple[str, str]) -> float | None:
        """The value of the first (metric, scalar name) the latest records hold."""
        for metric, name in pairs:
            entry = latest[metric].scalars.get(name) if metric in latest else None
            if entry is not None:
                return entry["value"]
        return None

    qubit_rows = []
    for q in range(n_qubits):
        row: dict[str, float | None] = {"qubit": q}
        for col, (metric, name) in _PER_QUBIT.items():
            name = name.format(q=q)
            row[col] = first(("calibrate", name), (metric, name))
        qubit_rows.append(row)
    return {
        "generated_at": utc_now(),
        "toolkit_version": _toolkit_version,
        "component": {
            "per_qubit": qubit_rows,
            "q_factor": first(("calibrate", "q_factor")),
            "crosstalk_max_row_l1": first(("crosstalk", "max_row_l1"),
                                          ("calibrate", "crosstalk_max_row_l1")),
        },
        "system": {
            "quantum_volume": first(("qv", "quantum_volume")),
            "clops": first(("clops", "clops")),
            "stability_max_rel_std": first(("stability", "max_rel_std")),
        },
        "application": {
            "qscore": first(("qscore", "qscore")),
        },
        "metrics_present": sorted(latest),
    }


def write_summary(store: RunStore, summary: dict) -> str:
    path = os.path.join(store.root, "summary.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    return path
