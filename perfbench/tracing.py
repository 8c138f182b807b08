"""Span tracing around qbench's public functions, from outside the package.

Each traced function is replaced, where its caller looks it up, by a wrapper
that records a span (name, start, end, thread, parent) and, outside the
span's own interval, any counts the call carries (ops, shots, bytes, fit
iterations).  Spans stay in memory until the run ends.  A layer's self time
is the sum over its spans of the span's duration minus its direct children's.

The mock server handles each job synchronously inside the client's POST, on
a handler thread of its own.  A span that has no parent on its own thread is
therefore given, after the run, the innermost main-thread span whose
interval contains it, so server-side work nests under ``remote.submit``.
"""
from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import Counter, defaultdict

import requests

import qbench.application
import qbench.backends
import qbench.circuits
import qbench.cli
import qbench.compile
import qbench.component
import qbench.remote
import qbench.reporting
import qbench.simulator
import qbench.system


class Tracer:
    """Patches qbench for the duration of a ``with`` block and records spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, thread, parent index]
        self.counts: Counter = Counter()
        self.main_thread = threading.get_ident()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._records_size: dict[str, int] = {}

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, before=None, after=None):
        """Wrapper recording a span named ``name`` around each call of ``fn``.

        ``before(args, kwargs)`` and ``after(args, kwargs, result)`` update
        counts outside the span's interval.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            stack = tracer._stack()
            span = [name, 0.0, 0.0, threading.get_ident(), stack[-1] if stack else None]
            with tracer._lock:
                tracer.spans.append(span)
                index = len(tracer.spans) - 1
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, before=None, after=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, before, after))

    # -- hooks -----------------------------------------------------------------

    def _count_circuit(self, args, kwargs) -> None:
        circuit, shots = args[0], args[2]
        c = self.counts
        c["simulator.ops"] += len(circuit.body())
        c["simulator.layers"] += len(circuit.layers()) - int(circuit.has_measurement)
        c["simulator.cz"] += circuit.count("CZ")
        c["simulator.shots"] += shots

    def _count_batch(self, args, kwargs) -> None:
        self.counts["backends.circuits"] += len(args[1])

    def _count_http(self, args, kwargs, resp) -> None:
        c = self.counts
        if args[1].upper() == "POST":
            c["remote.posts"] += 1
        body = resp.request.body or b""
        c["remote.request_bytes"] += len(body)
        c["remote.response_bytes"] += len(resp.content)

    def _count_fit(self, args, kwargs, fit) -> None:
        c = self.counts
        c["fitting.iterations"] += fit.iterations
        c["fitting.flagged"] += int(bool(fit.flags) or not fit.converged)

    def _count_qaoa(self, args, kwargs, result) -> None:
        self.counts["application.qaoa_evals"] += result.evaluations

    def _count_append(self, args, kwargs, result) -> None:
        path = args[0].records_path
        size = os.path.getsize(path)
        self.counts["reporting.bytes_written"] += size - self._records_size.get(path, 0)
        self._records_size[path] = size

    # -- lifecycle -------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        app, be, comp, sysm = qbench.application, qbench.backends, qbench.component, qbench.system
        # each name is patched where its caller looks it up
        self.patch(be, "run_noisy", "simulator.run_noisy", before=self._count_circuit)
        for read in ("marginal", "fraction_ones", "frequencies"):
            self.patch(qbench.simulator.ShotTable, read, "simulator.shottable_read")
        self.patch(sysm, "su4_ops", "compile.su4_ops")
        self.patch(qbench.compile, "su2_ops", "compile.su2_ops")
        self.patch(sysm, "route_ops", "compile.route_ops")
        self.patch(app, "route_ops", "compile.route_ops")
        self.patch(qbench.circuits.ParamCircuit, "bind", "circuits.bind")
        for module in (sysm, comp, app):
            self.patch(module, "submit_and_wait", "backends.submit_and_wait",
                       before=self._count_batch)
        self.patch(be.Backend, "check_capabilities", "backends.check_capabilities")
        for method in ("submit", "wait", "result", "status"):
            self.patch(qbench.remote.RemoteBackend, method, f"remote.{method}")
        self.patch(requests.Session, "request", "remote.http", after=self._count_http)
        self.patch(qbench.remote, "circuit_to_dict", "serialization.circuit_to_dict")
        self.patch(qbench.remote, "circuit_from_dict", "serialization.circuit_from_dict")
        for fit in ("fit_geometric", "fit_exp_decay", "fit_damped_sinusoid"):
            self.patch(comp, fit, "fitting.fit", after=self._count_fit)
        for fn in ("compile_qv_circuit", "ideal_qv_probs", "heavy_set",
                   "seed_from_counts", "angles_from_seed"):
            self.patch(sysm, fn, f"system.{fn}")
        self.patch(qbench.cli, "run_quantum_volume", "system.run_quantum_volume")
        self.patch(sysm, "run_clops", "system.run_clops")
        self.patch(app, "maxcut_ansatz", "application.maxcut_ansatz")
        self.patch(app, "qaoa_maxcut", "application.qaoa_maxcut", after=self._count_qaoa)
        self.patch(qbench.cli, "run_qscore", "application.run_qscore")
        self.patch(qbench.cli, "run_calibration", "component.run_calibration")
        for fn in ("gen_rb_sequences", "run_rb", "t1_experiment", "t2star_experiment",
                   "t2hahn_experiment", "measure_readout", "measure_crosstalk"):
            self.patch(comp, fn, f"component.{fn}")
        self.patch(qbench.reporting.RunStore, "append", "reporting.append",
                   after=self._count_append)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis --------------------------------------------------------------

    def resolve_parents(self) -> None:
        """Give each other-thread root span its innermost enclosing main-thread span."""
        main = [i for i, s in enumerate(self.spans) if s[3] == self.main_thread]
        for span in self.spans:
            if span[3] == self.main_thread or span[4] is not None:
                continue
            enclosing = [i for i in main
                         if self.spans[i][1] <= span[1] and span[2] <= self.spans[i][2]]
            if enclosing:
                span[4] = min(enclosing, key=lambda i: self.spans[i][2] - self.spans[i][1])

    def self_times(self) -> list[float]:
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[4] is not None:
                out[s[4]] -= s[2] - s[1]
        return out

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, thread, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_s": start - t0,
                                     "end_s": end - t0, "thread": thread,
                                     "parent": parent}) + "\n")


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


# name -> unit, in reporting order; BENCHMARK.json's per_layer list matches it
PER_LAYER_UNITS = {
    "simulator.run_noisy_s": "s",
    "simulator.run_noisy_calls": "count",
    "simulator.layers": "count",
    "simulator.ops": "count",
    "simulator.cz": "count",
    "simulator.shots": "count",
    "simulator.us_per_layer": "us",
    "simulator.shottable_read_s": "s",
    "simulator.shottable_reads": "count",
    "compile.su4_ops_s": "s",
    "compile.su4_ops_calls": "count",
    "compile.su2_ops_s": "s",
    "compile.su2_ops_calls": "count",
    "compile.route_ops_s": "s",
    "compile.route_ops_calls": "count",
    "system.compile_qv_circuit_s": "s",
    "application.maxcut_ansatz_s": "s",
    "application.maxcut_ansatz_calls": "count",
    "circuits.bind_s": "s",
    "circuits.bind_calls": "count",
    "system.seed_from_counts_s": "s",
    "system.angles_from_seed_s": "s",
    "backends.submit_and_wait_s": "s",
    "backends.batches": "count",
    "backends.circuits": "count",
    "backends.self_s": "s",
    "backends.check_capabilities_calls": "count",
    "backends.batch_p50_ms": "ms",
    "backends.batch_p90_ms": "ms",
    "remote.submit_s": "s",
    "remote.wait_s": "s",
    "remote.result_s": "s",
    "remote.http_requests": "count",
    "remote.polls": "count",
    "remote.retries": "count",
    "remote.request_bytes": "bytes",
    "remote.response_bytes": "bytes",
    "remote.self_s": "s",
    "serialization.circuit_to_dict_s": "s",
    "serialization.circuit_from_dict_s": "s",
    "fitting.fit_s": "s",
    "fitting.fits": "count",
    "fitting.iterations": "count",
    "fitting.flagged": "count",
    "system.ideal_qv_probs_s": "s",
    "system.heavy_set_s": "s",
    "application.qaoa_evals": "count",
    "application.qaoa_self_s": "s",
    "component.gen_rb_sequences_s": "s",
    "component.self_s": "s",
    "reporting.append_s": "s",
    "reporting.bytes_written": "bytes",
    "trace.overhead_s": "s",
}

# p90 needs at least ten batches beyond it to be more than the maximum
P90_MIN_BATCHES = 100


def per_layer_metrics(tracer: Tracer, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """Every per-layer metric; a layer the workload never entered reads 0."""
    tracer.resolve_parents()
    selfs = tracer.self_times()
    total: Counter = Counter()
    calls: Counter = Counter()
    self_by_name: Counter = Counter()
    durations: dict[str, list[float]] = defaultdict(list)
    for (name, start, end, _thread, _parent), own in zip(tracer.spans, selfs):
        total[name] += end - start
        calls[name] += 1
        self_by_name[name] += own
        durations[name].append(end - start)

    def layer_self(layer: str) -> float:
        return sum(v for n, v in self_by_name.items() if n.startswith(layer + "."))

    c = tracer.counts
    batches = durations["backends.submit_and_wait"]
    parents_wait = {i for i, s in enumerate(tracer.spans) if s[0] == "remote.wait"}
    polls = sum(1 for s in tracer.spans if s[0] == "remote.status" and s[4] in parents_wait)
    values = {
        "simulator.run_noisy_s": total["simulator.run_noisy"],
        "simulator.run_noisy_calls": calls["simulator.run_noisy"],
        "simulator.layers": c["simulator.layers"],
        "simulator.ops": c["simulator.ops"],
        "simulator.cz": c["simulator.cz"],
        "simulator.shots": c["simulator.shots"],
        "simulator.us_per_layer": (total["simulator.run_noisy"] / c["simulator.layers"] * 1e6
                                   if c["simulator.layers"] else 0.0),
        "simulator.shottable_read_s": total["simulator.shottable_read"],
        "simulator.shottable_reads": calls["simulator.shottable_read"],
        "compile.su4_ops_s": total["compile.su4_ops"],
        "compile.su4_ops_calls": calls["compile.su4_ops"],
        "compile.su2_ops_s": total["compile.su2_ops"],
        "compile.su2_ops_calls": calls["compile.su2_ops"],
        "compile.route_ops_s": total["compile.route_ops"],
        "compile.route_ops_calls": calls["compile.route_ops"],
        "system.compile_qv_circuit_s": total["system.compile_qv_circuit"],
        "application.maxcut_ansatz_s": total["application.maxcut_ansatz"],
        "application.maxcut_ansatz_calls": calls["application.maxcut_ansatz"],
        "circuits.bind_s": total["circuits.bind"],
        "circuits.bind_calls": calls["circuits.bind"],
        "system.seed_from_counts_s": total["system.seed_from_counts"],
        "system.angles_from_seed_s": total["system.angles_from_seed"],
        "backends.submit_and_wait_s": total["backends.submit_and_wait"],
        "backends.batches": len(batches),
        "backends.circuits": c["backends.circuits"],
        "backends.self_s": layer_self("backends"),
        "backends.check_capabilities_calls": calls["backends.check_capabilities"],
        "backends.batch_p50_ms": _percentile(batches, 0.5) * 1e3 if batches else 0.0,
        "backends.batch_p90_ms": (_percentile(batches, 0.9) * 1e3
                                  if len(batches) >= P90_MIN_BATCHES else 0.0),
        "remote.submit_s": total["remote.submit"],
        "remote.wait_s": total["remote.wait"],
        "remote.result_s": total["remote.result"],
        "remote.http_requests": calls["remote.http"],
        "remote.polls": polls,
        "remote.retries": c["remote.posts"] - calls["remote.submit"],
        "remote.request_bytes": c["remote.request_bytes"],
        "remote.response_bytes": c["remote.response_bytes"],
        "remote.self_s": layer_self("remote"),
        "serialization.circuit_to_dict_s": total["serialization.circuit_to_dict"],
        "serialization.circuit_from_dict_s": total["serialization.circuit_from_dict"],
        "fitting.fit_s": total["fitting.fit"],
        "fitting.fits": calls["fitting.fit"],
        "fitting.iterations": c["fitting.iterations"],
        "fitting.flagged": c["fitting.flagged"],
        "system.ideal_qv_probs_s": total["system.ideal_qv_probs"],
        "system.heavy_set_s": total["system.heavy_set"],
        "application.qaoa_evals": c["application.qaoa_evals"],
        "application.qaoa_self_s": self_by_name["application.qaoa_maxcut"],
        "component.gen_rb_sequences_s": total["component.gen_rb_sequences"],
        "component.self_s": layer_self("component"),
        "reporting.append_s": total["reporting.append"],
        "reporting.bytes_written": c["reporting.bytes_written"],
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
