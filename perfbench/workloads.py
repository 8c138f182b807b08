"""The four protocol workloads, their verdict checks and their scalars.

Each protocol run goes through three steps: ``prepare`` builds what a user
builds before the protocol starts (an output directory; for the remote
workload a fresh device, backend and mock server), ``execute`` is the timed
protocol call, and ``check`` reads its result, returning the failed checks
and the deterministic scalars whose sha256 is recorded.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil

import qbench.system
from qbench.backends import LocalSimBackend
from qbench.cli import build_parser, cli_main, make_backend
from qbench.device import starmon5_reference_model
from qbench.remote import MockServer, RemoteBackend
from qbench.reporting import RunStore

# Published gate fidelities (percent) that the starmon5 reference model is
# back-solved to reproduce; the model itself keeps only the derived p1.
STARMON5_F1Q_PCT = (99.798, 99.827, 99.812, 99.828, 99.868)


class CliWorkload:
    """One ``qbench`` CLI invocation through ``cli_main``, stdout captured."""

    def __init__(self, name: str, argv: list[str], check) -> None:
        self.name = name
        self.argv = argv
        self._check = check
        self.settings = {"argv": ["qbench", *argv, "--seed", "<seed>", "--out", "<dir>"]}

    def setup(self):
        """Set-up beyond the import: the device and backend the CLI builds.

        Returns the call that releases them.
        """
        make_backend(build_parser().parse_args(self.argv))
        return lambda: None

    def prepare(self, seed: int, workdir: str) -> dict:
        return {"seed": seed, "out": workdir}

    def execute(self, job: dict) -> None:
        argv = [*self.argv, "--seed", str(job["seed"]), "--out", job["out"]]
        with contextlib.redirect_stdout(io.StringIO()):
            job["exit_code"] = cli_main(argv)

    def check(self, job: dict) -> tuple[list[str], dict]:
        records = RunStore(job["out"]).records()
        if len(records) != 1:
            return [f"expected one run record, found {len(records)}"], {}
        record = records[0]
        job["flags"] = record.flags
        return self._check(job["exit_code"], record), record.scalars

    def close(self, job: dict) -> None:
        shutil.rmtree(job["out"], ignore_errors=True)


# --- verdicts -------------------------------------------------------------------

QV_CIRCUITS = 5
QV_SHOTS = 100


def check_qv(exit_code: int, record) -> list[str]:
    """Quantum volume on starmon5 at QV_CIRCUITS circuits per width.

    The reported volume must follow from the reported heavy fractions under
    the protocol's own rule, widths 4 and 5 (heavy fraction near 1/2 on this
    device) must fail, and width 2 must stay above the 1/2 of uniform noise.
    """
    s = record.scalars
    fails = []
    if exit_code not in (0, 1) or (exit_code == 1 and record.flags != ["no_depth_passed"]):
        fails.append(f"exit code {exit_code} with flags {record.flags}")
    heavy = {d: s[f"heavy_fraction_d{d}"]["value"] for d in range(2, 6)}
    best = 0
    for d, h in heavy.items():
        sigma = math.sqrt(max(h * (1 - h), 1e-12) / (QV_CIRCUITS * QV_SHOTS))
        if h - 2.0 * sigma > 2.0 / 3.0 and (d == 2 or best == d - 1):
            best = d
        else:
            break
    expected = 2**best if best else 1
    if s["quantum_volume"]["value"] != expected:
        fails.append(f"QV {s['quantum_volume']['value']} does not follow from "
                      f"heavy fractions {heavy} (expected {expected})")
    if expected > 8:
        fails.append(f"QV {expected}: width 4 passed on a device whose volume is 4")
    if not heavy[2] > 0.5:
        fails.append(f"width-2 heavy fraction {heavy[2]} at or below uniform noise")
    return fails


# acceptance criterion 2 tolerances; F1Q and F_RO widened to five standard
# deviations of their own shot noise at 4096 shots (see README.md)
CAL_T1_REL, CAL_T2STAR_REL = 0.10, 0.15
CAL_F1Q_PP, CAL_FRO_PP = 0.1, 1.0


def check_calibrate(exit_code: int, record) -> list[str]:
    """Every value from a fit the CLI reports valid must match the reference.

    A fit the CLI flags invalid (exit code 1, flag ``q<n>_<fit>_invalid``) is
    the documented outcome of a known fitting defect (see README.md); its
    value is not compared, and the flag stays in the run record.
    """
    model = starmon5_reference_model()
    s = record.scalars
    fails = []
    if exit_code not in (0, 1) or (exit_code == 1) != bool(record.flags):
        fails.append(f"exit code {exit_code} with flags {record.flags}")
    flagged = set(record.flags)
    for q, qp in enumerate(model.qubits):
        fro_ref = 100.0 * (1.0 - (qp.readout[0][1] + qp.readout[1][0]) / 2.0)
        checks = (
            ("t1", s[f"t1_q{q}"]["value"], qp.t1_us, CAL_T1_REL * qp.t1_us),
            ("t2star", s[f"t2star_q{q}"]["value"], qp.t2_us, CAL_T2STAR_REL * qp.t2_us),
            ("rb", s[f"f1q_q{q}"]["value"], STARMON5_F1Q_PCT[q], CAL_F1Q_PP),
            ("readout", s[f"fro_q{q}"]["value"], fro_ref, CAL_FRO_PP),
        )
        for fit, got, ref, tol in checks:
            if f"q{q}_{fit}_invalid" not in flagged and not abs(got - ref) <= tol:
                fails.append(f"q{q} {fit} {got:.4f} vs reference {ref:.4f} (tolerance {tol:.4f})")
    return fails


QSCORE_BETA_STAR = 0.2


def check_qscore(exit_code: int, record) -> list[str]:
    """Q-score 5 on the ideal device.

    The one accepted exception is a known defect (see README.md): when all
    five size-2 graphs drawn are edgeless, size 2 fails with beta exactly 0
    and the score is 1; sizes 3 to 5 must then still clear beta*.
    """
    s = record.scalars
    q = s["qscore"]["value"]
    betas = {n: s[f"beta_n{n}"]["value"] for n in range(2, 6)}
    if exit_code == 0 and q == 5 and not record.flags:
        return []
    degenerate_size_2 = (q == 1 and betas[2] == 0.0
                         and all(betas[n] > QSCORE_BETA_STAR for n in range(3, 6)))
    if exit_code == 1 and record.flags == ["no_size_passed"] and degenerate_size_2:
        return []
    return [f"Q-score {q}, betas {betas}, exit code {exit_code}, flags {record.flags}"]


# --- the remote throughput workload ---------------------------------------------

CLOPS_TEMPLATES = 20
CLOPS_ROUNDS = 10
CLOPS_SHOTS = 100
CLOPS_QV = 4


class ClopsRemoteWorkload:
    """``run_clops`` through a ``RemoteBackend`` against an in-process ``MockServer``.

    The client is given the server's connectivity; the CLI's remote path is
    not, and fails on star coupling (see README.md).  ``submit_and_wait`` is
    looked up on ``qbench.system`` at call time, so the tables each round
    returns can be kept for the verdict.
    """

    name = "clops_remote"
    settings = {
        "call": "qbench.system.run_clops",
        "m_templates": CLOPS_TEMPLATES,
        "k_updates": CLOPS_ROUNDS,
        "shots": CLOPS_SHOTS,
        "measured_qv": CLOPS_QV,
        "device": "starmon5",
    }

    def setup(self):
        """Set-up beyond the import: device, backend and a started mock server.

        Returns the call that stops the server.
        """
        job = self.prepare(0, "")
        return lambda: self.close(job)

    def prepare(self, seed: int, workdir: str) -> dict:
        local = LocalSimBackend(starmon5_reference_model(), drift_seed=seed)
        server = MockServer(local).start()
        remote = RemoteBackend(server.url, n_qubits=local.n_qubits,
                               connectivity=local.connectivity)
        return {"seed": seed, "server": server, "backend": remote, "batches": []}

    def execute(self, job: dict) -> None:
        inner = qbench.system.submit_and_wait

        def keep_tables(*args, **kwargs):
            tables = inner(*args, **kwargs)
            job["batches"].append(tables)
            return tables

        qbench.system.submit_and_wait = keep_tables
        try:
            cfg = qbench.system.CLOPSConfig(
                m_templates=CLOPS_TEMPLATES, k_updates=CLOPS_ROUNDS, shots=CLOPS_SHOTS)
            job["result"] = qbench.system.run_clops(
                job["backend"], cfg, measured_qv=CLOPS_QV, seed=job["seed"])
        finally:
            qbench.system.submit_and_wait = inner

    def check(self, job: dict) -> tuple[list[str], dict]:
        res, batches = job["result"], job["batches"]
        width = job["backend"].n_qubits
        fails = []
        if res.rounds_completed != CLOPS_ROUNDS or len(batches) != CLOPS_ROUNDS:
            fails.append(f"{res.rounds_completed} of {CLOPS_ROUNDS} rounds, "
                         f"{len(batches)} batches")
        for k, tables in enumerate(batches):
            if len(tables) != CLOPS_TEMPLATES:
                fails.append(f"round {k}: {len(tables)} tables")
            bad = [t for t in tables if t.shots != CLOPS_SHOTS or t.n_qubits != width]
            if bad:
                fails.append(f"round {k}: {len(bad)} tables with wrong shots or width")
        if not (math.isfinite(res.clops) and res.clops > 0):
            fails.append(f"clops {res.clops}")
        counts = [[sorted(t.counts.items()) for t in tables] for tables in batches]
        scalars = {
            "layers_d": res.d,
            "rounds_completed": res.rounds_completed,
            "counts_sha256": hashlib.sha256(json.dumps(counts).encode()).hexdigest(),
        }
        job["clops"] = res.clops
        return fails, scalars

    def close(self, job: dict) -> None:
        job["server"].stop()


WORKLOADS = {
    "qv_starmon5": CliWorkload(
        "qv_starmon5",
        ["qv", "--device", "starmon5", "--max-width", "5", "--circuits", str(QV_CIRCUITS)],
        check_qv,
    ),
    "calibrate_starmon5": CliWorkload(
        "calibrate_starmon5", ["calibrate", "--device", "starmon5"], check_calibrate),
    "qscore_ideal": CliWorkload("qscore_ideal", ["qscore", "--device", "ideal"], check_qscore),
    "clops_remote": ClopsRemoteWorkload(),
}

