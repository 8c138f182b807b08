"""Command-line entry point orchestrating metric runs.

    qbench <metric> [--backend sim|remote] [--device MODEL] [--seed N]
                    [--shots N] [--out DIR] [--time-limit S] ...

Metrics: calibrate, rb, readout, crosstalk, coherence {t1,t2star,t2hahn},
qv, clops, stability, qscore, appsuite, report.  --device takes a JSON
model path or the built-in names "starmon5" and "ideal".  Exit codes:
0 success, 1 metric invalid (flagged fit or no passing depth/size),
2 usage error.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .application import QScoreConfig, run_app_suite, run_qscore, volumetric_csv
from .backends import Backend, BackendError, LocalSimBackend
from .component import (
    CoherenceConfig,
    RBConfig,
    T1_MAX_WAIT_US,
    T2HAHN_MAX_WAIT_US,
    T2STAR_MAX_WAIT_US,
    measure_crosstalk,
    measure_readout,
    run_calibration,
    run_rb,
    t1_experiment,
    t2hahn_experiment,
    t2star_experiment,
)
from .device import ideal_device, load_device, starmon5_reference_model
from .remote import RemoteBackend
from .reporting import MetricReport, RunStore, emit_report, scalar, write_summary, write_volumetric_csv
from .system import (
    STABILITY_MIN_REPEATS,
    CLOPSConfig,
    QVConfig,
    run_clops,
    run_quantum_volume,
    run_stability,
)

EXIT_OK = 0
EXIT_METRIC_INVALID = 1
EXIT_USAGE = 2


def positive_int(text: str) -> int:
    """argparse type for counts: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def stability_repeats(text: str) -> int:
    """argparse type for ``--repeats``: a relative spread needs three points."""
    value = int(text)
    if value < STABILITY_MIN_REPEATS:
        raise argparse.ArgumentTypeError(
            f"must be at least {STABILITY_MIN_REPEATS}, got {value}")
    return value


def _shots(args: argparse.Namespace, default: int) -> int:
    return default if args.shots is None else args.shots


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qbench", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"qbench {__version__}")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--backend", choices=("sim", "remote"), default="sim")
    common.add_argument("--device", default="starmon5",
                        help="device model JSON path, or built-in 'starmon5' / 'ideal'")
    common.add_argument("--ideal-width", type=positive_int, default=5,
                        help="qubit count for the built-in ideal device")
    common.add_argument("--remote-url", default="http://127.0.0.1:8000")
    common.add_argument("--remote-qubits", type=positive_int, default=5)
    common.add_argument("--seed", type=int, default=1234)
    common.add_argument("--shots", type=positive_int, default=None)
    common.add_argument("--out", default="qbench-runs")
    common.add_argument("--time-limit", type=float, default=60.0)

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("calibrate", parents=[common])
    p_rb = sub.add_parser("rb", parents=[common])
    p_rb.add_argument("--qubit", type=int, default=None, help="default: all qubits")
    sub.add_parser("readout", parents=[common])
    sub.add_parser("crosstalk", parents=[common])
    p_coh = sub.add_parser("coherence", parents=[common])
    p_coh.add_argument("kind", choices=("t1", "t2star", "t2hahn"))
    p_coh.add_argument("--qubit", type=int, default=None)
    p_qv = sub.add_parser("qv", parents=[common])
    p_qv.add_argument("--max-width", type=positive_int, default=None)
    p_qv.add_argument("--circuits", type=positive_int, default=100)
    p_clops = sub.add_parser("clops", parents=[common])
    p_clops.add_argument("--qv", type=positive_int, default=4, help="measured quantum volume")
    p_clops.add_argument("--templates", type=positive_int, default=100)
    p_clops.add_argument("--updates", type=positive_int, default=10)
    p_stab = sub.add_parser("stability", parents=[common])
    p_stab.add_argument("--repeats", type=stability_repeats, default=5)
    p_stab.add_argument("--interval", type=float, default=3600.0)
    sub.add_parser("qscore", parents=[common])
    p_app = sub.add_parser("appsuite", parents=[common])
    p_app.add_argument("--max-width", type=positive_int, default=5)
    sub.add_parser("report", parents=[common])
    return parser


def make_backend(args: argparse.Namespace) -> Backend:
    if args.backend == "remote":
        return RemoteBackend(args.remote_url, n_qubits=args.remote_qubits)
    if args.device == "starmon5":
        model = starmon5_reference_model()
    elif args.device == "ideal":
        model = ideal_device(args.ideal_width)
    else:
        model = load_device(args.device)
    return LocalSimBackend(model, drift_seed=args.seed)


def _base_report(args: argparse.Namespace, metric: str, backend: Backend) -> MetricReport:
    cfg = {
        k: v for k, v in vars(args).items()
        if k not in ("command",) and not k.startswith("_")
    }
    return MetricReport(
        metric=metric,
        config=cfg,
        backend=backend.metadata(),
        scalars={},
        seed=args.seed,
    )


def _store(args: argparse.Namespace) -> RunStore:
    return RunStore(args.out)


def _qubits(args: argparse.Namespace, backend: Backend) -> list[int]:
    q = getattr(args, "qubit", None)
    return list(range(backend.n_qubits)) if q is None else [q]


def cmd_rb(args, backend, store) -> int:
    rep = _base_report(args, "rb", backend)
    cfg = RBConfig(shots=_shots(args, 4096), seed=args.seed)
    invalid = False
    for q in _qubits(args, backend):
        res = run_rb(backend, cfg, q)
        rep.scalars[f"f1q_q{q}"] = scalar(res.f1q * 100, "percent")
        rep.scalars[f"epc_q{q}"] = scalar(res.epc, "error_per_clifford")
        if not res.valid:
            rep.flags.append(f"q{q}_fit_invalid")
            invalid = True
        print(f"rb q{q}: F1Q = {res.f1q * 100:.3f}%  EPC = {res.epc:.5f}"
              + ("  [invalid]" if not res.valid else ""))
    store.append(rep)
    return EXIT_METRIC_INVALID if invalid else EXIT_OK


def cmd_readout(args, backend, store) -> int:
    rep = _base_report(args, "readout", backend)
    res = measure_readout(backend, shots=_shots(args, 4096), seed=args.seed)
    for q in range(backend.n_qubits):
        rep.scalars[f"fro_q{q}"] = scalar(res.fidelity(q) * 100, "percent")
        print(f"readout q{q}: F_RO = {res.fidelity(q) * 100:.2f}%")
    store.append(rep)
    return EXIT_OK


def cmd_crosstalk(args, backend, store) -> int:
    rep = _base_report(args, "crosstalk", backend)
    res = measure_crosstalk(backend, shots=_shots(args, 16384), seed=args.seed)
    rep.scalars["max_row_l1"] = scalar(res.max_row_l1, "l1_distance")
    rep.scalars["max_row_offdiag"] = scalar(res.max_row_offdiag, "probability")
    rep.raw_refs.append(
        store.write_raw("crosstalk", {"matrix": res.matrix.tolist()})
    )
    print(f"crosstalk: max row L1 vs independent model = {res.max_row_l1:.4f}")
    store.append(rep)
    return EXIT_OK


def cmd_coherence(args, backend, store) -> int:
    runner = {
        "t1": (t1_experiment, T1_MAX_WAIT_US, "t1"),
        "t2star": (t2star_experiment, T2STAR_MAX_WAIT_US, "t2star"),
        "t2hahn": (t2hahn_experiment, T2HAHN_MAX_WAIT_US, "t2hahn"),
    }[args.kind]
    fn, max_wait, name = runner
    rep = _base_report(args, f"coherence_{name}", backend)
    cfg = CoherenceConfig(max_wait_us=max_wait, shots=_shots(args, 4096), seed=args.seed)
    invalid = False
    for q in _qubits(args, backend):
        res = fn(backend, q, cfg)
        rep.scalars[f"{name}_q{q}"] = scalar(res.time_us, "microsecond")
        if not res.valid:
            rep.flags.append(f"q{q}_fit_invalid")
            invalid = True
        print(f"{name} q{q}: {res.time_us:.2f} us" + ("  [invalid]" if not res.valid else ""))
    store.append(rep)
    return EXIT_METRIC_INVALID if invalid else EXIT_OK


def cmd_calibrate(args, backend, store) -> int:
    rep = _base_report(args, "calibrate", backend)
    summary = run_calibration(backend, seed=args.seed, shots=_shots(args, 4096))
    invalid = False
    for q in range(backend.n_qubits):
        rep.scalars[f"f1q_q{q}"] = scalar(summary.rb[q].f1q * 100, "percent")
        rep.scalars[f"fro_q{q}"] = scalar(summary.readout.fidelity(q) * 100, "percent")
        rep.scalars[f"t1_q{q}"] = scalar(summary.t1[q].time_us, "microsecond")
        rep.scalars[f"t2star_q{q}"] = scalar(summary.t2star[q].time_us, "microsecond")
        rep.scalars[f"t2hahn_q{q}"] = scalar(summary.t2hahn[q].time_us, "microsecond")
        for res, tag in ((summary.rb[q], "rb"), (summary.t1[q], "t1"),
                         (summary.t2star[q], "t2star"), (summary.t2hahn[q], "t2hahn")):
            if not res.valid:
                rep.flags.append(f"q{q}_{tag}_invalid")
                invalid = True
    rep.scalars["q_factor"] = scalar(summary.q_factor, "gates_per_t2star")
    if summary.crosstalk is None:
        rep.flags.append("crosstalk_skipped")
    else:
        rep.scalars["crosstalk_max_row_l1"] = scalar(summary.crosstalk.max_row_l1, "l1_distance")
    store.append(rep)
    for q in range(backend.n_qubits):
        print(
            f"q{q}: T1={rep.scalars[f't1_q{q}']['value']:.2f}us "
            f"T2*={rep.scalars[f't2star_q{q}']['value']:.2f}us "
            f"T2H={rep.scalars[f't2hahn_q{q}']['value']:.2f}us "
            f"F1Q={rep.scalars[f'f1q_q{q}']['value']:.3f}% "
            f"F_RO={rep.scalars[f'fro_q{q}']['value']:.2f}%"
        )
    print(f"Q-factor = {summary.q_factor:.1f}")
    return EXIT_METRIC_INVALID if invalid else EXIT_OK


def cmd_qv(args, backend, store) -> int:
    rep = _base_report(args, "qv", backend)
    cfg = QVConfig(
        n_circuits=args.circuits,
        shots=_shots(args, 100),
        max_width=args.max_width,
        seed=args.seed,
    )
    res = run_quantum_volume(backend, cfg)
    rep.scalars["quantum_volume"] = scalar(res.qv, "dimensionless")
    for d in res.per_depth:
        rep.scalars[f"heavy_fraction_d{d.depth}"] = scalar(d.heavy_fraction, "fraction")
    if res.flag:
        rep.flags.append(res.flag)
    store.append(rep)
    print(f"quantum volume = {res.qv}" + (f"  [{res.flag}]" if res.flag else ""))
    for d in res.per_depth:
        print(f"  depth {d.depth}: heavy fraction {d.heavy_fraction:.3f} "
              f"(2-sigma {2 * d.sigma:.3f}) {'pass' if d.passed else 'fail'}")
    return EXIT_METRIC_INVALID if res.flag else EXIT_OK


def cmd_clops(args, backend, store) -> int:
    rep = _base_report(args, "clops", backend)
    cfg = CLOPSConfig(
        m_templates=args.templates,
        k_updates=args.updates,
        shots=_shots(args, 100),
    )
    res = run_clops(backend, cfg, measured_qv=args.qv, seed=args.seed)
    rep.scalars["clops"] = scalar(res.clops, "layer_ops_per_second")
    rep.scalars["layers_d"] = scalar(res.d, "layers")
    rep.timing = {
        "t_total_s": res.t_total_s,
        "t_quantum_s": res.t_quantum_s,
        "t_classical_s": res.t_classical_s,
    }
    store.append(rep)
    print(f"CLOPS = {res.clops:.1f} (D={res.d}, T_total={res.t_total_s:.3f}s)")
    return EXIT_OK


def cmd_stability(args, backend, store) -> int:
    rep = _base_report(args, "stability", backend)
    res = run_stability(backend, repeats=args.repeats, interval_s=args.interval,
                        cfg=CoherenceConfig(max_wait_us=T2STAR_MAX_WAIT_US,
                                            shots=_shots(args, 4096), seed=args.seed))
    finite = [v for v in res.relative_std if np.isfinite(v)]
    rep.scalars["max_rel_std"] = scalar(max(finite) if finite else float("nan"), "fraction")
    for q, rs in enumerate(res.relative_std):
        rep.scalars[f"rel_std_q{q}"] = scalar(rs, "fraction")
        print(f"stability q{q}: relative std {rs:.3f}")
    rep.scalars["flagged_points"] = scalar(res.flagged, "count")
    store.append(rep)
    return EXIT_OK


def cmd_qscore(args, backend, store) -> int:
    rep = _base_report(args, "qscore", backend)
    cfg = QScoreConfig(time_limit_s=args.time_limit, shots=_shots(args, 1024))
    res = run_qscore(backend, cfg, seed=args.seed)
    rep.scalars["qscore"] = scalar(res.qscore, "graph_size")
    for r in res.per_size:
        if "exceeds_backend" in r.flags:
            rep.flags.append(f"n{r.size}_skipped")
            print(f"size {r.size}: skipped, wider than the backend")
            continue
        rep.scalars[f"beta_n{r.size}"] = scalar(r.beta, "fraction")
        rep.timing[f"elapsed_n{r.size}_s"] = r.elapsed_s
        print(f"size {r.size}: beta = {r.beta:.3f} "
              f"({'pass' if r.passed else 'fail'}, {r.elapsed_s:.1f}s)")
    if res.flag:
        rep.flags.append(res.flag)
    store.append(rep)
    print(f"Q-score = {res.qscore}" + (f"  [{res.flag}]" if res.flag else ""))
    return EXIT_METRIC_INVALID if res.flag else EXIT_OK


def cmd_appsuite(args, backend, store) -> int:
    rep = _base_report(args, "appsuite", backend)
    widths = tuple(range(2, args.max_width + 1))
    cells = run_app_suite(backend, widths=widths, shots=_shots(args, 1024), seed=args.seed)
    for c in cells:
        if c.skipped_reason:
            rep.flags.append(f"{c.algorithm}_w{c.width}_skipped")
            continue
        rep.scalars[f"{c.algorithm}_w{c.width}"] = scalar(c.fidelity, "fidelity")
        print(f"{c.algorithm} width {c.width}: fidelity {c.fidelity:.3f} (depth {c.depth})")
    csv_path = write_volumetric_csv(store, volumetric_csv(cells))
    rep.raw_refs.append(csv_path)
    store.append(rep)
    return EXIT_OK


def cmd_report(args, backend, store) -> int:
    summary = emit_report(store)
    path = write_summary(store, summary)
    print(json.dumps(summary, indent=2, sort_keys=True))
    print(f"summary written to {path}", file=sys.stderr)
    return EXIT_OK


_COMMANDS = {
    "calibrate": cmd_calibrate,
    "rb": cmd_rb,
    "readout": cmd_readout,
    "crosstalk": cmd_crosstalk,
    "coherence": cmd_coherence,
    "qv": cmd_qv,
    "clops": cmd_clops,
    "stability": cmd_stability,
    "qscore": cmd_qscore,
    "appsuite": cmd_appsuite,
    "report": cmd_report,
}


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        backend = make_backend(args) if args.command != "report" else None
    except (ValueError, KeyError, TypeError, OSError) as err:
        print(f"error: bad --device: {err}", file=sys.stderr)
        return EXIT_USAGE
    qubit = getattr(args, "qubit", None)
    if qubit is not None and not 0 <= qubit < backend.n_qubits:
        print(f"error: --qubit {qubit} out of range for {backend.n_qubits} qubits",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        store = _store(args)
        return _COMMANDS[args.command](args, backend, store)
    except (BackendError, ValueError, KeyError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_METRIC_INVALID


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
