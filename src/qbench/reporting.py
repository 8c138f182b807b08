"""Result records and the append-only run store.

Every metric run lands in a MetricReport: the metric id, the exact config,
backend metadata, named scalar results (each carrying its unit), references
to raw data files, timestamps, and the seed.  Reports round-trip through
JSON losslessly.  A RunStore is one directory per invocation holding
``records.jsonl`` (append-only, never rewritten) and raw payloads under
``raw/<metric>/<uuid>.json``.

Scalars under the ``scalars`` key are deterministic given seed, config,
and device; wall-clock measurements live under ``timing`` instead, since
repeated runs cannot reproduce them bit-for-bit.  The one documented
exception is Q-score: each size's pass/fail verdict, and so the score,
compares the size's wall-clock ``elapsed`` with ``time_limit_s``.
"""
from __future__ import annotations

import json
import os
import uuid
from dataclasses import dataclass, field
from datetime import datetime, timezone

from . import __version__ as _toolkit_version


def utc_now() -> str:
    """The current UTC time in ISO 8601, the form of every record timestamp."""
    return datetime.now(timezone.utc).isoformat()


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
            if "value" not in entry or "unit" not in entry:
                raise ValueError(f"scalar {name!r} must carry a value and a unit")

    def to_json_dict(self) -> dict:
        return {
            "metric": self.metric,
            "config": self.config,
            "backend": self.backend,
            "scalars": self.scalars,
            "seed": self.seed,
            "timing": self.timing,
            "raw_refs": self.raw_refs,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "toolkit_version": self.toolkit_version,
            "flags": self.flags,
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "MetricReport":
        return MetricReport(
            metric=doc["metric"],
            config=doc["config"],
            backend=doc["backend"],
            scalars=doc["scalars"],
            seed=doc["seed"],
            timing=doc.get("timing", {}),
            raw_refs=doc.get("raw_refs", []),
            started_at=doc.get("started_at", ""),
            finished_at=doc.get("finished_at", ""),
            toolkit_version=doc.get("toolkit_version", ""),
            flags=doc.get("flags", []),
        )


def scalar(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


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

    def write_raw(self, metric: str, payload: dict) -> str:
        rel = os.path.join("raw", metric, f"{uuid.uuid4()}.json")
        path = os.path.join(self.root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
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


_COMPONENT_COLUMNS = ("t1_us", "t2star_us", "t2hahn_us", "f1q_pct", "fro_pct")


def emit_report(store: RunStore) -> dict:
    """Aggregate stored records into one summary document.

    The per-qubit table mirrors the usual characterization layout (one row
    per qubit: relaxation, both dephasing times, gate and readout fidelity);
    system and application metrics sit beside it.  Metrics never measured
    stay null.
    """
    latest: dict[str, MetricReport] = {}
    for rec in store.records():
        latest[rec.metric] = rec  # later lines win

    n_qubits = 0
    for rec in latest.values():
        n_qubits = max(n_qubits, rec.backend.get("n_qubits", 0))

    qubit_rows = []
    for q in range(n_qubits):
        row: dict[str, float | None] = {"qubit": q}
        for col in _COMPONENT_COLUMNS:
            row[col] = None
        qubit_rows.append(row)

    def fill(metric: str, key_fmt: str, col: str) -> None:
        rec = latest.get(metric)
        if rec is None:
            return
        for q in range(n_qubits):
            entry = rec.scalars.get(key_fmt.format(q=q))
            if entry is not None:
                qubit_rows[q][col] = entry["value"]

    fill("rb", "f1q_q{q}", "f1q_pct")
    fill("readout", "fro_q{q}", "fro_pct")
    fill("coherence_t1", "t1_q{q}", "t1_us")
    fill("coherence_t2star", "t2star_q{q}", "t2star_us")
    fill("coherence_t2hahn", "t2hahn_q{q}", "t2hahn_us")
    fill("calibrate", "f1q_q{q}", "f1q_pct")
    fill("calibrate", "fro_q{q}", "fro_pct")
    fill("calibrate", "t1_q{q}", "t1_us")
    fill("calibrate", "t2star_q{q}", "t2star_us")
    fill("calibrate", "t2hahn_q{q}", "t2hahn_us")

    def top_scalar(metric: str, name: str) -> float | None:
        rec = latest.get(metric)
        if rec is None:
            return None
        entry = rec.scalars.get(name)
        return None if entry is None else entry["value"]

    q_factor = top_scalar("calibrate", "q_factor")
    crosstalk = top_scalar("crosstalk", "max_row_l1")
    if crosstalk is None:
        crosstalk = top_scalar("calibrate", "crosstalk_max_row_l1")
    summary = {
        "generated_at": utc_now(),
        "toolkit_version": _toolkit_version,
        "component": {
            "per_qubit": qubit_rows,
            "q_factor": q_factor,
            "crosstalk_max_row_l1": crosstalk,
        },
        "system": {
            "quantum_volume": top_scalar("qv", "quantum_volume"),
            "clops": top_scalar("clops", "clops"),
            "stability_max_rel_std": top_scalar("stability", "max_rel_std"),
        },
        "application": {
            "qscore": top_scalar("qscore", "qscore"),
        },
        "metrics_present": sorted(latest),
    }
    return summary


def write_summary(store: RunStore, summary: dict) -> str:
    path = os.path.join(store.root, "summary.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    return path


def write_volumetric_csv(store: RunStore, csv_text: str) -> str:
    path = os.path.join(store.root, "volumetric.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(csv_text)
    return path
