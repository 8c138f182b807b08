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
times.  ``_COMMANDS`` maps each metric to a runner and its config type: the
runner calls the library entry point and returns its results, and each
result's ``outcome()`` gives the record's scalars, flags, timing and raw
payloads, which ``_print_outcome`` also prints.  A run that raises writes no
record.

Exit codes: 0 success; 1 metric invalid, which is a record carrying any
flag other than a ``*_skipped`` one (a flagged fit, no passing depth or
size) or a run that raised a backend or value error; 2 usage error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import __version__
from .application import AppSuiteConfig, AppSuiteResult, QScoreConfig, run_app_suite, run_qscore
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
from .reporting import MetricReport, Outcome, RunStore, emit_report, utc_now, write_summary
from .system import (
    CLOPSConfig,
    QVConfig,
    StabilityConfig,
    run_clops,
    run_quantum_volume,
    run_stability,
    volume_width,
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


def measured_volume(text: str) -> int:
    """argparse type for ``clops --qv``: a quantum volume a QV run can report."""
    value = int(text)
    try:
        volume_width(value)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None
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
    p_clops.add_argument("--qv", type=measured_volume, default=4, help="measured quantum volume")
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


# metric -> (runner, config type).  A runner(args, backend, cfg) returns the results whose
# outcomes fill the record; it looks its library entry point up in this module when it
# runs, so a name patched here (as perfbench's tracer and the tests do) is the one called.
_COMMANDS = {
    "calibrate": (lambda a, b, c: [run_calibration(b, c, seed=a.seed)], CalibrationConfig),
    "rb": (lambda a, b, c: [run_rb(b, c, q, seed=a.seed) for q in _qubits(a, b)], RBConfig),
    "readout": (lambda a, b, c: [measure_readout(b, c, seed=a.seed)], ReadoutConfig),
    "crosstalk": (lambda a, b, c: [measure_crosstalk(b, c, seed=a.seed)], CrosstalkConfig),
    "coherence": (lambda a, b, c: [globals()[f"{a.kind}_experiment"](b, q, c, seed=a.seed)
                                   for q in _qubits(a, b)], CoherenceConfig),
    "qv": (lambda a, b, c: [run_quantum_volume(b, c, seed=a.seed)], QVConfig),
    "clops": (lambda a, b, c: [run_clops(b, c, measured_qv=a.qv, seed=a.seed)], CLOPSConfig),
    "stability": (lambda a, b, c: [run_stability(b, c, seed=a.seed)], StabilityConfig),
    "qscore": (lambda a, b, c: [run_qscore(b, c, seed=a.seed)], QScoreConfig),
    "appsuite": (lambda a, b, c: [AppSuiteResult(tuple(run_app_suite(b, c, seed=a.seed)))],
                 AppSuiteConfig),
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


def _print_outcome(outcome: Outcome) -> None:
    """The console lines of a run: one per scalar, then the flags."""
    for name, entry in outcome.scalars.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    if outcome.flags:
        print("flags: " + " ".join(outcome.flags))


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
            store = RunStore(args.out)
            summary = emit_report(store)
            path = write_summary(store, summary)
        except _RUN_ERRORS as err:
            return _error(err, EXIT_METRIC_INVALID)
        print(json.dumps(summary, indent=2, sort_keys=True))
        print(f"summary written to {path}", file=sys.stderr)
        return EXIT_OK
    try:
        cfg = resolve_config(args)
    except ValueError as err:  # a value the protocol rejects, such as too few repeats
        return _error(err, EXIT_USAGE)
    try:
        backend = make_backend(args)
    except (ValueError, KeyError, TypeError, OSError) as err:
        return _error(f"bad --device: {err}", EXIT_USAGE)
    # the one run envelope: build the record, fill it from the results' outcomes, store it
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
        for result in _COMMANDS[args.command][0](args, backend, cfg):
            outcome = result.outcome()
            rep.scalars.update(outcome.scalars)
            rep.flags.extend(outcome.flags)
            rep.timing.update(outcome.timing)
            rep.raw_refs.extend(store.write_raw(name, payload)
                                for name, payload in outcome.raw.items())
            _print_outcome(outcome)
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
