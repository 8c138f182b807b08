"""Acceptance suite: every release criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them live).  Settings follow the standard protocol: 32 wait durations,
4096 shots per point, benchmarking lengths [1, 20, 40, 80, 120] with 10
sequences each, 100 volume circuits at 100 shots, 5 graphs per size.
"""
import time

import numpy as np

from helpers import UniformRandomBackend, heavy_output_mass, http_json, scalar_section_json
from qbench.application import (
    QScoreConfig,
    gen_erdos_renyi,
    maxcut_brute,
    qaoa_maxcut,
    run_qscore,
)
from qbench.backends import LocalSimBackend, submit_and_wait
from qbench.circuits import Circuit, measure_all, x
from qbench.cli import EXIT_OK, cli_main
from qbench.component import (
    CrosstalkConfig,
    epc_from_alpha,
    f1q_from_epc,
    measure_crosstalk,
    q_factor,
    readout_fidelity_from_matrix,
    run_calibration,
)
from qbench.device import (
    DriftSchedule,
    ideal_device,
    starmon5_reference_model,
)
from qbench.fitting import DataSeries, fit_damped_sinusoid, fit_exp_decay, fit_geometric
from qbench.remote import MockServer, RemoteBackend
from qbench.reporting import RunStore
from qbench.serialization import circuit_to_dict
from qbench.system import (
    QVConfig,
    StabilityConfig,
    clops_value,
    gen_qv_spec,
    ideal_qv_probs,
    run_quantum_volume,
    run_stability,
)

SEED = 11

TABLE_T1 = (15.45, 15.95, 19.42, 22.74, 12.21)
TABLE_T2STAR = (13.29, 24.68, 21.40, 21.40, 16.20)
TABLE_F1Q = (99.798, 99.827, 99.812, 99.828, 99.868)
TABLE_FRO = (96.7, 96.8, 97.5, 98.4, 96.4)


class _Budget:
    """Tracks a criterion's wall-clock budget in seconds."""

    def __init__(self, seconds: float) -> None:
        self.limit = seconds
        self.start = time.monotonic()

    @property
    def elapsed(self) -> float:
        return time.monotonic() - self.start


def _report(criterion: int, ok: bool, detail: str, budget: "_Budget | None" = None) -> None:
    if budget is not None:
        within = budget.elapsed < budget.limit
        detail += f" [{budget.elapsed:.1f}s of {budget.limit:.0f}s]"
        ok = ok and within
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_formula_exactness():
    budget = _Budget(1.0)
    checks = []

    fro = readout_fidelity_from_matrix(((0.95, 0.05), (0.02, 0.98)))
    checks.append(abs(fro - 0.965) <= 1e-12 * 0.965)

    r = epc_from_alpha(0.996)
    checks.append(abs(r - 0.002) <= 1e-12 * 0.002)
    f1q = f1q_from_epc(r)
    checks.append(abs(f1q - 0.998 ** (1 / 1.875)) <= 1e-12)

    clops = clops_value(100, 10, 100, 2, 537.63)
    checks.append(abs(clops - 200000 / 537.63) <= 1e-12 * clops)
    checks.append(abs(clops - 372.0) < 0.01)

    qf = q_factor(list(TABLE_T2STAR), 20.0)
    hand = (sum(TABLE_T2STAR) / 5) / 0.020
    checks.append(abs(qf - hand) <= 1e-12 * hand)

    _report(1, all(checks), f"formulas exact (F_RO=0.965, r=0.002, CLOPS={clops:.2f}, Q={qf:.1f})", budget)


def test_criterion_2_calibration_round_trip():
    budget = _Budget(300.0)
    backend = LocalSimBackend(starmon5_reference_model())
    cal = run_calibration(backend, seed=SEED)
    worst = {"t1": 0.0, "t2star": 0.0, "f1q": 0.0, "fro": 0.0}
    ok = True
    for q in range(5):
        dt1 = abs(cal.t1[q].time_us - TABLE_T1[q]) / TABLE_T1[q]
        dt2 = abs(cal.t2star[q].time_us - TABLE_T2STAR[q]) / TABLE_T2STAR[q]
        df1 = abs(cal.rb[q].f1q * 100 - TABLE_F1Q[q])
        dro = abs(cal.readout.fidelity(q) * 100 - TABLE_FRO[q])
        worst["t1"] = max(worst["t1"], dt1)
        worst["t2star"] = max(worst["t2star"], dt2)
        worst["f1q"] = max(worst["f1q"], df1)
        worst["fro"] = max(worst["fro"], dro)
        ok &= cal.t1[q].valid and cal.t2star[q].valid and cal.rb[q].valid
    ok &= worst["t1"] <= 0.10 and worst["t2star"] <= 0.15
    ok &= worst["f1q"] <= 0.05 and worst["fro"] <= 0.5
    _report(
        2,
        ok,
        "worst errors: T1 {t1:.1%}, T2* {t2star:.1%}, F1Q {f1q:.3f} pp, "
        "F_RO {fro:.2f} pp".format(**worst),
        budget,
    )


def test_criterion_3_q_factor():
    budget = _Budget(1.0)
    qf = q_factor(list(TABLE_T2STAR), 20.0)
    ok = abs(qf - 969.7) <= 0.1
    _report(3, ok, f"Q-factor {qf:.2f} vs 969.7 +- 0.1 (reported as 970)", budget)


def test_criterion_4_quantum_volume():
    budget = _Budget(600.0)
    cfg_kwargs = dict(n_circuits=100, shots=100)

    noiseless = run_quantum_volume(
        LocalSimBackend(ideal_device(4)), QVConfig(max_width=4, **cfg_kwargs), seed=SEED
    )
    ok_noiseless = noiseless.qv == 16 and all(
        0.78 <= d.heavy_fraction <= 0.92 for d in noiseless.per_depth
    )

    uniform = run_quantum_volume(
        UniformRandomBackend(4), QVConfig(max_width=4, **cfg_kwargs), seed=SEED
    )
    ok_uniform = uniform.flag == "no_depth_passed" and all(
        abs(d.heavy_fraction - 0.50) <= 0.03 for d in uniform.per_depth
    )

    reference = run_quantum_volume(
        LocalSimBackend(starmon5_reference_model()), QVConfig(**cfg_kwargs), seed=SEED
    )
    ok_reference = reference.qv in (2, 4)

    _report(
        4,
        ok_noiseless and ok_uniform and ok_reference,
        f"noiseless QV={noiseless.qv} "
        f"h={[round(d.heavy_fraction, 3) for d in noiseless.per_depth]}; "
        f"uniform h={[round(d.heavy_fraction, 3) for d in uniform.per_depth]} flagged; "
        f"reference QV={reference.qv}",
        budget,
    )


def test_criterion_5_heavy_output_oracle():
    budget = _Budget(60.0)
    masses = []
    for i in range(100):
        probs = ideal_qv_probs(gen_qv_spec(3, seed=SEED * 1000 + i))
        mass = heavy_output_mass(probs)
        assert mass >= 0.5
        masses.append(mass)
    mean = float(np.mean(masses))
    ok = 0.80 <= mean <= 0.90
    _report(5, ok, f"d=3 ideal heavy mass mean {mean:.4f} in [0.80, 0.90], min {min(masses):.3f}", budget)


def test_criterion_6_qscore():
    budget = _Budget(900.0)
    ideal = LocalSimBackend(ideal_device(5))
    res = run_qscore(ideal, QScoreConfig(time_limit_s=600.0), seed=1)
    ok_ideal = res.qscore == 5

    worst_beta = 0.0
    for seed in range(1, 21):
        uni = run_qscore(
            UniformRandomBackend(5),
            QScoreConfig(time_limit_s=600.0, max_evaluations=40),
            seed=seed,
        )
        worst_beta = max(worst_beta, max(abs(r.beta) for r in uni.per_size))
        ok_ideal &= uni.flag == "no_size_passed"
    ok_uniform = worst_beta < 0.1

    good = 0
    for s in range(20):
        graph = gen_erdos_renyi(4, 0.5, seed=300 + s)
        opt, _ = maxcut_brute(graph)
        if not graph.edges:
            good += 1  # zero-edge optimum is trivially reached
            continue
        qres = qaoa_maxcut(graph, ideal, QScoreConfig(), seed=s)
        good += qres.best_sampled_cut >= 0.9 * opt
    ok_qaoa = good >= 16

    _report(
        6,
        ok_ideal and ok_uniform and ok_qaoa,
        f"ideal Q-score {res.qscore}; uniform max |beta| {worst_beta:.3f}; "
        f"QAOA >=0.9*opt in {good}/20 graphs",
        budget,
    )


def test_criterion_7_fitting_suite():
    budget = _Budget(120.0)
    lengths = np.array([1.0, 20, 40, 80, 120])
    waits = np.linspace(0.0, 24.0, 32)
    omega = 2 * np.pi * 0.125

    geo = fit_geometric(DataSeries(lengths, 0.45 * 0.98**lengths + 0.05))
    expo = fit_exp_decay(DataSeries(waits, 1.0 * np.exp(-waits / 15.45)))
    sine = fit_damped_sinusoid(
        DataSeries(waits, 0.5 + 0.45 * np.exp(-waits / 21.4) * np.sin(omega * waits + 1.2)),
        omega_guess=omega,
    )
    exact = (
        abs(geo.params["alpha"] - 0.98) / 0.98 < 1e-5
        and abs(expo.params["T"] - 15.45) / 15.45 < 1e-5
        and abs(sine.params["T"] - 21.4) / 21.4 < 1e-5
        and abs(sine.params["omega"] - omega) / omega < 1e-5
    )

    rng = np.random.default_rng(SEED)
    coverage = {}
    shots = 40960
    hits = 0
    for _ in range(100):
        y = rng.binomial(shots, 0.45 * 0.996**lengths + 0.05) / shots
        fit = fit_geometric(DataSeries(lengths, y, shots_per_point=shots), weighted=True)
        hits += abs(fit.params["alpha"] - 0.996) <= 3 * fit.stderr["alpha"]
    coverage["geometric"] = hits

    hits = 0
    for _ in range(100):
        truth = 0.05 + 0.9 * np.exp(-waits / 15.0)
        y = rng.binomial(4096, truth) / 4096
        fit = fit_exp_decay(DataSeries(waits, y, shots_per_point=4096), weighted=True)
        hits += abs(fit.params["T"] - 15.0) <= 3 * fit.stderr["T"]
    coverage["exp_decay"] = hits

    hits = 0
    for _ in range(100):
        truth = 0.5 + 0.4 * np.exp(-waits / 21.4) * np.sin(omega * waits + 1.2)
        y = rng.binomial(4096, truth) / 4096
        fit = fit_damped_sinusoid(
            DataSeries(waits, y, shots_per_point=4096), omega_guess=omega, weighted=True
        )
        hits += abs(fit.params["T"] - 21.4) <= 3 * fit.stderr["T"]
    coverage["damped_sinusoid"] = hits

    ok = exact and all(v >= 93 for v in coverage.values())
    _report(7, ok, f"exact recovery ok; 3-sigma coverage {coverage} (need >= 93)", budget)


def test_criterion_8_crosstalk():
    budget = _Budget(120.0)
    shots = 16384
    cfg = CrosstalkConfig(shots=shots)
    ideal = measure_crosstalk(LocalSimBackend(ideal_device(5)), cfg, seed=SEED)
    ok_ideal = ideal.max_row_offdiag < 3.0 / shots

    independent = measure_crosstalk(
        LocalSimBackend(starmon5_reference_model()), cfg, seed=SEED
    )
    ok_independent = independent.max_row_l1 < 0.02

    _report(
        8,
        ok_ideal and ok_independent,
        f"ideal off-diagonal {ideal.max_row_offdiag:.2e} < {3 / shots:.2e}; "
        f"independent-readout max row L1 {independent.max_row_l1:.4f} < 0.02",
        budget,
    )


def test_criterion_9_determinism(tmp_path):
    budget = _Budget(60.0)
    args = ["rb", "--qubit", "0", "--seed", "7", "--out", str(tmp_path)]
    ok_cli = cli_main(args) == EXIT_OK and cli_main(args) == EXIT_OK
    sections = [
        scalar_section_json(rec)
        for rec in RunStore(str(tmp_path)).records()
        if rec.metric == "rb"
    ]
    ok_cli &= len(sections) == 2 and sections[0] == sections[1]

    with MockServer(LocalSimBackend(ideal_device(3))) as srv:
        backend = RemoteBackend(srv.url, n_qubits=3)
        probe = Circuit(3, (x(0), measure_all()), label="probe")
        tables = submit_and_wait(backend, [probe], 50, seed=1)
        ok_remote = tables[0].counts == {"100": 50}
        body = {
            "circuits": [circuit_to_dict(probe)],
            "shots": 10,
            "seed": 2,
            "idempotency_key": "acceptance-key",
        }
        first = http_json(srv.url, "POST", "/jobs", body)[1]["job_id"]
        second = http_json(srv.url, "POST", "/jobs", body)[1]["job_id"]
        ok_remote &= first == second
        ok_remote &= http_json(srv.url, "GET", "/jobs/unknown")[0] == 404

    _report(9, ok_cli and ok_remote, "identical scalar sections; idempotent resubmission; 404 contract", budget)


def test_criterion_10_stability():
    budget = _Budget(300.0)
    cfg = StabilityConfig(repeats=5, interval_s=3600.0, shots=4096)

    calm = run_stability(LocalSimBackend(starmon5_reference_model()), cfg, seed=SEED)
    ok_calm = calm.flagged == 0 and all(rs < 0.05 for rs in calm.relative_std)

    jittery_dev = starmon5_reference_model(drift=DriftSchedule(jitter_sigma=0.1))
    jittery = run_stability(LocalSimBackend(jittery_dev, drift_seed=SEED), cfg, seed=SEED)
    ok_jitter = all(0.05 <= rs <= 0.2 for rs in jittery.relative_std)

    _report(
        10,
        ok_calm and ok_jitter,
        f"drift-free rel std {[round(v, 3) for v in calm.relative_std]} < 0.05; "
        f"jitter rel std {[round(v, 3) for v in jittery.relative_std]} in [0.05, 0.2]",
        budget,
    )
