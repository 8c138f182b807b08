"""Command-line entry point orchestrating metric runs.

    qbench <metric> [--backend sim|remote] [--device MODEL] [--seed N]
                    [--shots N] [--out DIR] ...

Metrics: calibrate, rb, readout, crosstalk, coherence {t1,t2star,t2hahn},
qv, clops, stability, qscore, appsuite, and report (--out alone).  --device
is a JSON model path or "starmon5" or "ideal"; remote runs use the server's.

Each metric runs one frozen library config built from the protocol options
given; each defaults to None and sets the config field its ``dest`` names.
One record per run, built in ``cli_main``: the metric, the config plus the
run's inputs (device source, ``--qubit``, ``clops --qv``), the backend's
metadata (kind, device and its hash), the seed and UTC start and finish
times; ``cmd_*`` adds scalars, flags, timing and raw references.  A run
that raises writes no record.

Exit codes: 0 success; 1 metric invalid, which is a record carrying any
flag other than a ``*_skipped`` one (a flagged fit, no passing depth or
size) or a run that raised a backend or value error; 2 usage error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import __version__
from .application import AppSuiteConfig, QScoreConfig, run_app_suite, run_qscore, volumetric_csv
from .backends import Backend, BackendError, LocalSimBackend
from .component import (
    CalibrationConfig,
    CoherenceConfig,
    CrosstalkConfig,
    RBConfig,
    ReadoutConfig,
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
from .reporting import (MetricReport, RunStore, emit_report, scalar, utc_now, write_summary,
                        write_volumetric_csv)
from .system import (
    CLOPSConfig,
    QVConfig,
    StabilityConfig,
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qbench", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"qbench {__version__}")

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default="qbench-runs")
    common = argparse.ArgumentParser(add_help=False, parents=[out])
    common.add_argument("--backend", choices=("sim", "remote"), default="sim")
    common.add_argument("--device", default="starmon5",
                        help="device model JSON path, or built-in 'starmon5' / 'ideal'")
    common.add_argument("--ideal-width", type=positive_int, default=5,
                        help="qubit count for the built-in ideal device")
    common.add_argument("--remote-url", default="http://127.0.0.1:8000")
    common.add_argument("--seed", type=int, default=1234)
    common.add_argument("--shots", type=positive_int)

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("calibrate", parents=[common])
    p_rb = sub.add_parser("rb", parents=[common])
    p_rb.add_argument("--qubit", type=int, help="default: all qubits")
    sub.add_parser("readout", parents=[common])
    sub.add_parser("crosstalk", parents=[common])
    p_coh = sub.add_parser("coherence", parents=[common])
    p_coh.add_argument("kind", choices=("t1", "t2star", "t2hahn"))
    p_coh.add_argument("--qubit", type=int)
    p_qv = sub.add_parser("qv", parents=[common])
    p_qv.add_argument("--max-width", type=positive_int)
    p_qv.add_argument("--circuits", dest="n_circuits", type=positive_int)
    p_clops = sub.add_parser("clops", parents=[common])
    p_clops.add_argument("--qv", type=positive_int, default=4, help="measured quantum volume")
    p_clops.add_argument("--templates", dest="m_templates", type=positive_int)
    p_clops.add_argument("--updates", dest="k_updates", type=positive_int)
    p_stab = sub.add_parser("stability", parents=[common])
    p_stab.add_argument("--repeats", type=int)
    p_stab.add_argument("--interval", dest="interval_s", type=float)
    p_qscore = sub.add_parser("qscore", parents=[common])
    p_qscore.add_argument("--time-limit", dest="time_limit_s", type=float)
    p_app = sub.add_parser("appsuite", parents=[common])
    p_app.add_argument("--max-width", type=positive_int)
    sub.add_parser("report", parents=[out])
    return parser


def make_backend(args: argparse.Namespace) -> Backend:
    if args.backend == "remote":
        return RemoteBackend(args.remote_url)
    if args.device == "starmon5":
        model = starmon5_reference_model()
    elif args.device == "ideal":
        model = ideal_device(args.ideal_width)
    else:
        model = load_device(args.device)
    return LocalSimBackend(model, drift_seed=args.seed)


def _qubits(args: argparse.Namespace, backend: Backend) -> list[int]:
    q = getattr(args, "qubit", None)
    return list(range(backend.n_qubits)) if q is None else [q]


def cmd_rb(args, backend, cfg, rep, store) -> None:
    for q in _qubits(args, backend):
        res = run_rb(backend, cfg, q, seed=args.seed)
        rep.scalars[f"f1q_q{q}"] = scalar(res.f1q * 100, "percent")
        rep.scalars[f"epc_q{q}"] = scalar(res.epc, "error_per_clifford")
        if not res.valid:
            rep.flags.append(f"q{q}_fit_invalid")
        print(f"rb q{q}: F1Q = {res.f1q * 100:.3f}%  EPC = {res.epc:.5f}"
              + ("  [invalid]" if not res.valid else ""))


def cmd_readout(args, backend, cfg, rep, store) -> None:
    res = measure_readout(backend, cfg, seed=args.seed)
    for q in range(backend.n_qubits):
        rep.scalars[f"fro_q{q}"] = scalar(res.fidelity(q) * 100, "percent")
        print(f"readout q{q}: F_RO = {res.fidelity(q) * 100:.2f}%")


def cmd_crosstalk(args, backend, cfg, rep, store) -> None:
    res = measure_crosstalk(backend, cfg, seed=args.seed)
    rep.scalars["max_row_l1"] = scalar(res.max_row_l1, "l1_distance")
    rep.scalars["max_row_offdiag"] = scalar(res.max_row_offdiag, "probability")
    rep.raw_refs.append(
        store.write_raw("crosstalk", {"matrix": res.matrix.tolist()})
    )
    print(f"crosstalk: max row L1 vs independent model = {res.max_row_l1:.4f}")


def cmd_coherence(args, backend, cfg, rep, store) -> None:
    experiment = {
        "t1": t1_experiment, "t2star": t2star_experiment, "t2hahn": t2hahn_experiment,
    }[args.kind]
    for q in _qubits(args, backend):
        res = experiment(backend, q, cfg, seed=args.seed)
        rep.scalars[f"{args.kind}_q{q}"] = scalar(res.time_us, "microsecond")
        if not res.valid:
            rep.flags.append(f"q{q}_fit_invalid")
        print(f"{args.kind} q{q}: {res.time_us:.2f} us" + ("  [invalid]" if not res.valid else ""))


def cmd_calibrate(args, backend, cfg, rep, store) -> None:
    summary = run_calibration(backend, cfg, seed=args.seed)
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
    rep.scalars["q_factor"] = scalar(summary.q_factor, "gates_per_t2star")
    if summary.crosstalk is None:
        rep.flags.append("crosstalk_skipped")
    else:
        rep.scalars["crosstalk_max_row_l1"] = scalar(summary.crosstalk.max_row_l1, "l1_distance")
    for q in range(backend.n_qubits):
        print(
            f"q{q}: T1={rep.scalars[f't1_q{q}']['value']:.2f}us "
            f"T2*={rep.scalars[f't2star_q{q}']['value']:.2f}us "
            f"T2H={rep.scalars[f't2hahn_q{q}']['value']:.2f}us "
            f"F1Q={rep.scalars[f'f1q_q{q}']['value']:.3f}% "
            f"F_RO={rep.scalars[f'fro_q{q}']['value']:.2f}%"
        )
    print(f"Q-factor = {summary.q_factor:.1f}")


def cmd_qv(args, backend, cfg, rep, store) -> None:
    res = run_quantum_volume(backend, cfg, seed=args.seed)
    rep.scalars["quantum_volume"] = scalar(res.qv, "dimensionless")
    for d in res.per_depth:
        rep.scalars[f"heavy_fraction_d{d.depth}"] = scalar(d.heavy_fraction, "fraction")
    if res.flag:
        rep.flags.append(res.flag)
    print(f"quantum volume = {res.qv}" + (f"  [{res.flag}]" if res.flag else ""))
    for d in res.per_depth:
        print(f"  depth {d.depth}: heavy fraction {d.heavy_fraction:.3f} "
              f"(2-sigma {2 * d.sigma:.3f}) {'pass' if d.passed else 'fail'}")


def cmd_clops(args, backend, cfg, rep, store) -> None:
    res = run_clops(backend, cfg, measured_qv=args.qv, seed=args.seed)
    rep.scalars["clops"] = scalar(res.clops, "layer_ops_per_second")
    rep.scalars["layers_d"] = scalar(res.d, "layers")
    rep.timing = {
        "t_total_s": res.t_total_s,
        "t_quantum_s": res.t_quantum_s,
        "t_classical_s": res.t_classical_s,
    }
    print(f"CLOPS = {res.clops:.1f} (D={res.d}, T_total={res.t_total_s:.3f}s)")


def cmd_stability(args, backend, cfg, rep, store) -> None:
    res = run_stability(backend, cfg, seed=args.seed)
    finite = [v for v in res.relative_std if np.isfinite(v)]
    rep.scalars["max_rel_std"] = scalar(max(finite) if finite else float("nan"), "fraction")
    for q, rs in enumerate(res.relative_std):
        rep.scalars[f"rel_std_q{q}"] = scalar(rs, "fraction")
        print(f"stability q{q}: relative std {rs:.3f}")
    rep.scalars["flagged_points"] = scalar(res.flagged, "count")


def cmd_qscore(args, backend, cfg, rep, store) -> None:
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
    print(f"Q-score = {res.qscore}" + (f"  [{res.flag}]" if res.flag else ""))


def cmd_appsuite(args, backend, cfg, rep, store) -> None:
    cells = run_app_suite(backend, cfg, seed=args.seed)
    for c in cells:
        if c.skipped_reason:
            rep.flags.append(f"{c.algorithm}_w{c.width}_skipped")
            continue
        rep.scalars[f"{c.algorithm}_w{c.width}"] = scalar(c.fidelity, "fidelity")
        print(f"{c.algorithm} width {c.width}: fidelity {c.fidelity:.3f} (depth {c.depth})")
    rep.raw_refs.append(write_volumetric_csv(store, volumetric_csv(cells)))


def cmd_report(store: RunStore) -> None:
    summary = emit_report(store)
    path = write_summary(store, summary)
    print(json.dumps(summary, indent=2, sort_keys=True))
    print(f"summary written to {path}", file=sys.stderr)


_COMMANDS = {
    "calibrate": (cmd_calibrate, CalibrationConfig),
    "rb": (cmd_rb, RBConfig),
    "readout": (cmd_readout, ReadoutConfig),
    "crosstalk": (cmd_crosstalk, CrosstalkConfig),
    "coherence": (cmd_coherence, CoherenceConfig),
    "qv": (cmd_qv, QVConfig),
    "clops": (cmd_clops, CLOPSConfig),
    "stability": (cmd_stability, StabilityConfig),
    "qscore": (cmd_qscore, QScoreConfig),
    "appsuite": (cmd_appsuite, AppSuiteConfig),
}
# a run that raises one of these writes no record and exits EXIT_METRIC_INVALID
_RUN_ERRORS = (BackendError, ValueError, KeyError, OSError)


def resolve_config(args: argparse.Namespace):
    """The metric's library config from the options given; an unset one keeps its default."""
    config_type = _COMMANDS[args.command][1]
    return config_type(**{f.name: getattr(args, f.name) for f in dataclasses.fields(config_type)
                          if getattr(args, f.name, None) is not None})


def _run_inputs(args: argparse.Namespace) -> dict:
    """The options a record states beside its config: the device source and the run's targets."""
    names = ["backend", "qubit", "qv"]
    names.append("remote_url" if args.backend == "remote" else "device")
    if args.backend == "sim" and args.device == "ideal":
        names.append("ideal_width")
    return {k: getattr(args, k) for k in names if hasattr(args, k)}


def _error(message: object, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if args.command == "report":  # reads the records and writes none
        try:
            cmd_report(RunStore(args.out))
        except _RUN_ERRORS as err:
            return _error(err, EXIT_METRIC_INVALID)
        return EXIT_OK
    try:
        cfg = resolve_config(args)
    except ValueError as err:  # a value the protocol rejects, such as too few repeats
        return _error(err, EXIT_USAGE)
    try:
        backend = make_backend(args)
    except (ValueError, KeyError, TypeError, OSError) as err:
        return _error(f"bad --device: {err}", EXIT_USAGE)
    # the one run envelope: build the record, let the command fill it in, store it
    try:
        qubit = getattr(args, "qubit", None)
        # the first read of the device: a remote backend fetches it here
        if qubit is not None and not 0 <= qubit < backend.n_qubits:
            return _error(f"--qubit {qubit} out of range for {backend.n_qubits} qubits", EXIT_USAGE)
        store = RunStore(args.out)
        rep = MetricReport(
            metric=f"coherence_{args.kind}" if args.command == "coherence" else args.command,
            config={**dataclasses.asdict(cfg), **_run_inputs(args)},
            backend=backend.metadata(),
            scalars={},
            seed=args.seed,
            started_at=utc_now(),
        )
        _COMMANDS[args.command][0](args, backend, cfg, rep, store)
        rep.finished_at = utc_now()
        store.append(rep)
    except _RUN_ERRORS as err:
        return _error(err, EXIT_METRIC_INVALID)
    invalid = any(not flag.endswith("_skipped") for flag in rep.flags)
    return EXIT_METRIC_INVALID if invalid else EXIT_OK


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
