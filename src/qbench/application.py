"""Application-level benchmarks: Max-Cut scoring and a small algorithm suite.

The Max-Cut score runs depth-1 alternating-operator circuits on random
G(N, 1/2) graphs under a wall-clock budget.  Per graph size the average
sampled cut is normalized between the random baseline |E|/2 and the exact
optimum; a size passes when that ratio clears the threshold inside the time
limit, and the score is the largest size with every smaller size passing.
Each graph's ansatz is compiled once into a parameterized template whose
X rotations are RZ X90 RZ X90 RZ slots; a simplex step only binds the frame
angles, the same ones single-qubit synthesis would emit for that rotation.

The algorithm suite runs three textbook circuits per width (hidden-string
parity, constant-versus-balanced decision, and a Fourier-transform round
trip) and reports a uniform-floor-normalized Hellinger fidelity per
(algorithm, width) cell for volumetric plotting.
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .backends import Backend, submit_and_wait
from .circuits import Circuit, Gate, ParamCircuit, ParamRZ, cz, measure_all, remap, rz, x, x90
from .compile import h_ops, route_ops, routed_block, rx_angles, rzz_ops
from .reporting import Outcome, scalar
from .simulator import run_ideal


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes 0..n-1."""

    n_nodes: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        seen = set()
        for a, b in self.edges:
            if a == b:
                raise ValueError("self-loops are not allowed")
            if not (0 <= a < self.n_nodes and 0 <= b < self.n_nodes):
                raise ValueError(f"edge ({a}, {b}) out of range")
            key = tuple(sorted((a, b)))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
        object.__setattr__(
            self, "edges", tuple(sorted(tuple(sorted(e)) for e in self.edges))
        )

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def gen_erdos_renyi(n: int, p: float = 0.5, seed: int = 0) -> Graph:
    """Each of the C(n, 2) edges is present independently with probability p."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, n, 0xE5]))
    edges = [
        (a, b)
        for a, b in itertools.combinations(range(n), 2)
        if rng.random() < p
    ]
    return Graph(n_nodes=n, edges=tuple(edges))


def cut_values(graph: Graph) -> np.ndarray:
    """Cut size of every partition, as an int64 vector indexed like a
    ``ShotTable.marginal`` count vector over the nodes (node 0 = MSB)."""
    n = graph.n_nodes
    if n > 24:
        raise ValueError("brute-force cut search is capped at 24 nodes")
    cuts = np.zeros((2,) * n, dtype=np.int64)
    for a, b in graph.edges:
        shape = [1] * n
        shape[a] = shape[b] = 2
        cuts += np.array([[0, 1], [1, 0]]).reshape(shape)  # cut when a and b differ
    return cuts.reshape(-1)


def maxcut_brute(graph: Graph) -> tuple[int, int]:
    """Exact maximum cut by enumeration; returns (value, witness bitmask).

    The witness is the first maximum of :func:`cut_values`.  A partition
    and its complement cut the same edges, so it always has node 0 on side 0.
    """
    cuts = cut_values(graph)
    best = int(np.argmax(cuts))
    return int(cuts[best]), best


# --- alternating-operator Max-Cut circuits -------------------------------------

P_DEPTH = 1  # alternating-operator layers of the Max-Cut score
BETA_STAR = 0.2  # normalized cut ratio a size must beat
SIMPLEX_TOL = 1e-3  # simplex size below which the angle search restarts

def _rx_slot(qubit: int, first: int) -> list[Gate | ParamRZ]:
    """RX(theta) as bound later: RZ X90 RZ X90 RZ with parameters first..first+2."""
    return [ParamRZ(qubit, first), x90(qubit), ParamRZ(qubit, first + 1),
            x90(qubit), ParamRZ(qubit, first + 2)]


def maxcut_ansatz(graph: Graph, p_depth: int,
                  qubit_map: list[int] | None = None,
                  n_qubits: int | None = None,
                  connectivity=None) -> ParamCircuit:
    """Depth-p ansatz template: uniform superposition, then cost and mixer layers.

    The cost layer applies a ZZ rotation per edge (H, CZ, RX(gamma), CZ, H on
    the second qubit), the mixer an X rotation per node.  Every RX is a
    ``ParamRZ X90 ParamRZ X90 ParamRZ`` slot, so one template serves every
    angle; :func:`ansatz_angles` gives its parameter values.  Logical nodes
    map onto physical qubits through ``qubit_map``; unconnected edges are
    routed through a shared neighbour.
    """
    n = graph.n_nodes
    mapping = list(range(n)) if qubit_map is None else list(qubit_map[:n])
    width = n_qubits or (max(mapping) + 1)
    ops: list[Gate | ParamRZ] = []
    for node in range(n):
        ops.extend(h_ops(mapping[node]))
    for layer in range(p_depth):
        cost, mixer = 6 * layer, 6 * layer + 3
        for a, b in graph.edges:
            pa, pb = mapping[a], mapping[b]
            block = [*h_ops(pb), cz(pa, pb), *_rx_slot(pb, cost), cz(pa, pb), *h_ops(pb)]
            ops.extend(routed_block(block, pa, pb, connectivity))
        for node in range(n):
            ops.extend(_rx_slot(mapping[node], mixer))
    ops.append(measure_all())
    return ParamCircuit(width, tuple(ops), 6 * p_depth, label=f"maxcut_n{n}")


def ansatz_angles(gammas, betas) -> list[float]:
    """Parameter values of :func:`maxcut_ansatz` for cost angles gamma and mixer angles beta.

    Each layer binds RX(gamma) in its cost slots and RX(2 beta) in its mixer
    slots, with the frame angles single-qubit synthesis emits for them.
    """
    values: list[float] = []
    for gamma, beta in zip(gammas, betas):
        values.extend(rx_angles(float(gamma)))
        values.extend(rx_angles(float(2 * beta)))
    return values


class TimeBudgetExceeded(RuntimeError):
    """The wall-clock budget ran out before the first evaluation finished."""

    def __init__(self) -> None:
        super().__init__("time budget exhausted before the first evaluation")


@dataclass(frozen=True)
class QScoreConfig:
    sizes: tuple[int, ...] = (2, 3, 4, 5)
    graphs_per_size: int = 5
    time_limit_s: float = 60.0
    shots: int = 1024
    max_evaluations: int = 75

    def __post_init__(self) -> None:
        if not 0.0 < self.time_limit_s < float("inf"):  # also rejects NaN
            raise ValueError(f"Q-score time limit must be finite and > 0 s, "
                             f"got {self.time_limit_s}")


@dataclass
class QAOAResult:
    best_params: tuple[float, ...]
    best_mean_cut: float
    best_sampled_cut: int
    evaluations: int
    elapsed_s: float
    best_so_far: list[float]  # running maximum of the sampled best cut


def _nelder_mead_max(fn, x0: np.ndarray, spread: float, max_evals: int, tol: float) -> None:
    """Simplex maximization with restarts when the simplex collapses.

    ``fn`` is noisy; evaluation count is the budget, and ``fn`` enforces a
    wall-clock one by raising.  Each restart centres on the best point so far.
    """
    dim = len(x0)
    evals = 0
    best_x, best_v = None, -np.inf

    def f(x):
        nonlocal evals, best_x, best_v
        evals += 1
        v = fn(x)
        if v > best_v:
            best_x, best_v = np.array(x), v
        return v

    while evals < max_evals:
        pts = [np.array(x0, dtype=float)]
        for k in range(dim):
            y = np.array(x0, dtype=float)
            y[k] += spread
            pts.append(y)
        vals = [f(p) for p in pts[: max_evals - evals]]
        if len(vals) < dim + 1:
            break
        while evals < max_evals:
            order = np.argsort(vals)[::-1]  # maximizing: best first
            pts = [pts[i] for i in order]
            vals = [vals[i] for i in order]
            size = max(np.linalg.norm(p - pts[0]) for p in pts[1:])
            if size < tol:
                break  # collapsed; restart around the best point
            centroid = np.mean(pts[:-1], axis=0)
            refl = centroid + (centroid - pts[-1])
            v_refl = f(refl)
            if v_refl > vals[0]:
                expand = centroid + 2 * (centroid - pts[-1])
                v_exp = f(expand)
                if v_exp > v_refl:
                    pts[-1], vals[-1] = expand, v_exp
                else:
                    pts[-1], vals[-1] = refl, v_refl
            elif v_refl > vals[-2]:
                pts[-1], vals[-1] = refl, v_refl
            else:
                contract = centroid + 0.5 * (pts[-1] - centroid)
                v_con = f(contract)
                if v_con > vals[-1]:
                    pts[-1], vals[-1] = contract, v_con
                else:
                    for k in range(1, dim + 1):
                        if evals >= max_evals:
                            break
                        pts[k] = pts[0] + 0.5 * (pts[k] - pts[0])
                        vals[k] = f(pts[k])
        x0 = best_x
        spread *= 0.5
        if spread < 4 * tol:
            break


def qaoa_maxcut(
    graph: Graph,
    backend: Backend,
    cfg: QScoreConfig = QScoreConfig(),
    seed: int = 0,
    time_budget_s: float | None = None,
) -> QAOAResult:
    """Optimize the ansatz angles against sampled cuts.

    Nodes sit on the first qubits of ``backend.preferred_qubit_order()``.
    The objective per evaluation is the mean cut over the sampled outcomes,
    :func:`cut_values` against the ``ShotTable.marginal`` counts; the
    simplex search maximizes it, keeping the best sampled cut ever observed
    on the side.  Of ``cfg`` it reads ``shots`` and ``max_evaluations``.
    """
    if graph.n_nodes > backend.n_qubits:
        raise ValueError("graph does not fit the backend")
    start = time.perf_counter()
    deadline = None if time_budget_s is None else start + time_budget_s

    if not graph.edges:  # every cut is 0: nothing to sample or optimize
        return QAOAResult((), 0.0, 0, 0, time.perf_counter() - start, [])

    mapping = backend.preferred_qubit_order()[: graph.n_nodes]
    cuts = cut_values(graph)
    # compiled once; each evaluation only binds its angles
    template = maxcut_ansatz(
        graph, P_DEPTH,
        qubit_map=mapping,
        n_qubits=backend.n_qubits,
        connectivity=backend.connectivity,
    )
    state = {
        "best_sampled": 0,
        "best_mean": -np.inf,
        "best_params": tuple(),
        "evals": 0,
        "history": [],
    }

    def objective(params: np.ndarray) -> float:
        if deadline is not None and time.perf_counter() >= deadline:
            raise TimeBudgetExceeded()
        gammas, betas = params[:P_DEPTH], params[P_DEPTH:]
        circuit = template.bind(ansatz_angles(gammas, betas))
        (table,) = submit_and_wait(
            backend, [circuit], cfg.shots, seed=seed * 7 + state["evals"]
        )
        state["evals"] += 1
        counts = table.marginal(mapping)
        state["best_sampled"] = max(state["best_sampled"], int(cuts[counts > 0].max()))
        state["history"].append(state["best_sampled"])
        mean = int(cuts @ counts) / cfg.shots
        if mean > state["best_mean"]:
            state["best_mean"] = mean
            state["best_params"] = tuple(map(float, params))
        return mean

    x0 = np.array([0.8] * P_DEPTH + [0.4] * P_DEPTH)
    final_mean = None
    try:
        _nelder_mead_max(objective, x0, spread=0.6, max_evals=cfg.max_evaluations,
                         tol=SIMPLEX_TOL)
        # fresh sample at the best point: the reported mean must not carry
        # the selection bias of a maximum over noisy evaluations
        final_mean = objective(np.array(state["best_params"]))
    except TimeBudgetExceeded:
        if state["evals"] == 0:
            raise
    return QAOAResult(
        best_params=state["best_params"],
        best_mean_cut=float(state["best_mean"] if final_mean is None else final_mean),
        best_sampled_cut=int(state["best_sampled"]),
        evaluations=state["evals"],
        elapsed_s=time.perf_counter() - start,
        best_so_far=list(state["history"]),
    )


# --- the Max-Cut score ------------------------------------------------------------


@dataclass(frozen=True)
class QScoreSizeResult:
    size: int
    beta: float
    mean_best_cut: float
    mean_random_cut: float
    mean_optimal_cut: float
    elapsed_s: float
    passed: bool
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class QScoreResult:
    qscore: int
    per_size: tuple[QScoreSizeResult, ...]
    flag: str | None

    def outcome(self) -> Outcome:
        """The score and each size's beta and elapsed time, or its skip flag."""
        out = Outcome(scalars={"qscore": scalar(self.qscore, "graph_size")})
        for r in self.per_size:
            if "exceeds_backend" in r.flags:
                out.flags.append(f"n{r.size}_skipped")
                continue
            out.scalars[f"beta_n{r.size}"] = scalar(r.beta, "fraction")
            out.timing[f"elapsed_n{r.size}_s"] = r.elapsed_s
        if self.flag:
            out.flags.append(self.flag)
        return out


def run_qscore(backend: Backend, cfg: QScoreConfig = QScoreConfig(), seed: int = 0) -> QScoreResult:
    """Largest graph size whose normalized average cut clears the threshold.

    beta(N) = (C - R) / (O - R) with C the mean best sampled-average cut,
    R the random-cut expectation |E|/2, and O the exact optimum, averaged
    over the size's graphs.  A size passes when beta exceeds the threshold
    and its whole batch fits the time limit.  A size wider than the backend
    is not run: it fails with the flag ``exceeds_backend``, so the score
    comes from the sizes that fit.
    """
    if list(cfg.sizes) != sorted(cfg.sizes):
        raise ValueError("sizes must be ascending")
    per_size = []
    for n in cfg.sizes:
        if n > backend.n_qubits:
            nan = float("nan")
            per_size.append(QScoreSizeResult(
                size=n, beta=nan, mean_best_cut=nan, mean_random_cut=nan, mean_optimal_cut=nan,
                elapsed_s=0.0, passed=False, flags=("exceeds_backend",),
            ))
            continue
        t_start = time.perf_counter()
        budget_each = cfg.time_limit_s / cfg.graphs_per_size
        cuts, randoms, optima = [], [], []
        flags: list[str] = []
        for g_idx in range(cfg.graphs_per_size):
            graph = gen_erdos_renyi(n, 0.5, seed=seed * 613 + n * 37 + g_idx)
            opt, _ = maxcut_brute(graph)
            optima.append(opt)
            randoms.append(graph.n_edges / 2.0)
            try:
                res = qaoa_maxcut(
                    graph,
                    backend,
                    cfg,
                    seed=seed * 991 + n * 13 + g_idx,
                    time_budget_s=budget_each,
                )
                cuts.append(res.best_mean_cut)
            except TimeBudgetExceeded:
                cuts.append(0.0)
                flags.append(f"graph_{g_idx}_timed_out")
        elapsed = time.perf_counter() - t_start
        c_bar = float(np.mean(cuts))
        r_bar = float(np.mean(randoms))
        o_bar = float(np.mean(optima))
        if o_bar - r_bar <= 0:
            beta = 0.0
            flags.append("degenerate_denominator")
        else:
            beta = (c_bar - r_bar) / (o_bar - r_bar)
        passed = beta > BETA_STAR and elapsed <= cfg.time_limit_s and not flags
        per_size.append(
            QScoreSizeResult(
                size=n,
                beta=beta,
                mean_best_cut=c_bar,
                mean_random_cut=r_bar,
                mean_optimal_cut=o_bar,
                elapsed_s=elapsed,
                passed=passed,
                flags=tuple(flags),
            )
        )
    # largest N with every tested size up to N passing
    score = 0
    for r in per_size:
        if r.passed:
            score = r.size
        else:
            break
    if score == 0:
        return QScoreResult(qscore=1, per_size=tuple(per_size), flag="no_size_passed")
    return QScoreResult(qscore=score, per_size=tuple(per_size), flag=None)


# --- three-algorithm volumetric suite ----------------------------------------------

_VARIANTS_PER_CELL = 3  # hidden strings and Fourier basis states per width


@dataclass(frozen=True)
class AppSuiteConfig:
    max_width: int = 5  # widths run from 2 up to this one
    shots: int = 1024


@dataclass(frozen=True)
class VolumetricCell:
    algorithm: str
    width: int
    depth: int
    fidelity: float
    skipped_reason: str | None = None


def hellinger_fidelity(p: np.ndarray, q: np.ndarray) -> float:
    """(sum_i sqrt(p_i q_i))**2 for two distributions."""
    return float(np.sum(np.sqrt(np.asarray(p) * np.asarray(q))) ** 2)


def normalized_fidelity(ideal: np.ndarray, measured: np.ndarray) -> float:
    """Hellinger fidelity rescaled so uniform output scores exactly zero."""
    f_s = hellinger_fidelity(ideal, measured)
    uniform = np.full_like(np.asarray(ideal, dtype=float), 1.0 / len(ideal))
    f_u = hellinger_fidelity(ideal, uniform)
    if 1.0 - f_u < 1e-12:
        return 1.0 if f_s > 1.0 - 1e-9 else 0.0
    return max(0.0, (f_s - f_u) / (1.0 - f_u))


def _phase_oracle_circuit(n: int, marked: str, label: str) -> Circuit:
    """H on every qubit, Z on each marked one, H again: the output is the marked string."""
    ops: list[Gate] = []
    for q in range(n):
        ops.extend(h_ops(q))
    ops.extend(rz(q, np.pi) for q, bit in enumerate(marked) if bit == "1")
    for q in range(n):
        ops.extend(h_ops(q))
    ops.append(measure_all())
    return Circuit(n, tuple(ops), label=label)


def bv_circuit(secret: str) -> Circuit:
    """Hidden-string parity circuit: the ideal output is the secret itself."""
    return _phase_oracle_circuit(len(secret), secret, f"bv_{secret}")


def dj_circuit(n: int, oracle_bits: str | None) -> Circuit:
    """Constant-versus-balanced decision circuit.

    ``oracle_bits`` None means the constant oracle; otherwise the balanced
    parity oracle over the marked subset.  Constant oracles land on all
    zeros, balanced ones anywhere else.
    """
    if oracle_bits is None:
        return _phase_oracle_circuit(n, "0" * n, "dj_const")
    if set(oracle_bits) <= {"0"}:
        raise ValueError("balanced oracle needs a nonempty subset")
    return _phase_oracle_circuit(n, oracle_bits, f"dj_bal_{oracle_bits}")


def _cp_ops(control: int, target: int, phi: float) -> list[Gate]:
    """Controlled phase from two CZ gates and frame rotations."""
    ops: list[Gate] = [rz(control, phi / 2), rz(target, phi / 2)]
    ops.extend(rzz_ops(control, target, -phi / 2))
    return ops


def qft_ops(qubits: list[int]) -> list[Gate]:
    ops: list[Gate] = []
    for i, q in enumerate(qubits):
        ops.extend(h_ops(q))
        for j in range(i + 1, len(qubits)):
            ops.extend(_cp_ops(qubits[j], q, np.pi / 2 ** (j - i)))
    return ops


def _inverted(ops: list[Gate]) -> list[Gate]:
    out = []
    for g in reversed(ops):
        if g.kind == "RZ":
            out.append(rz(g.qubits[0], -g.angle_rad))
        elif g.kind in ("X", "CZ"):
            out.append(g)
        elif g.kind == "X90":
            # X90 inverse is Z-dressed X90
            q = g.qubits[0]
            out.extend([rz(q, np.pi), Gate("X90", (q,)), rz(q, np.pi)])
        elif g.kind == "Y90":
            q = g.qubits[0]
            out.extend([rz(q, np.pi), Gate("Y90", (q,)), rz(q, np.pi)])
        else:
            raise ValueError(f"cannot invert {g.kind}")
    return out


def qft_roundtrip_circuit(n: int, basis_state: int) -> Circuit:
    """Prepare a basis state, Fourier transform, invert, measure it back."""
    ops: list[Gate] = [
        x(q) for q in range(n) if (basis_state >> (n - 1 - q)) & 1
    ]
    fwd = qft_ops(list(range(n)))
    ops.extend(fwd)
    ops.extend(_inverted(fwd))
    ops.append(measure_all())
    return Circuit(n, tuple(ops), label=f"qft_rt_{basis_state:0{n}b}")


def run_app_suite(
    backend: Backend, cfg: AppSuiteConfig = AppSuiteConfig(), seed: int = 0
) -> list[VolumetricCell]:
    """Fidelity per (algorithm, width) cell, depth taken from compiled circuits."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA9]))
    order = backend.preferred_qubit_order()
    cells: list[VolumetricCell] = []
    for width in range(2, cfg.max_width + 1):
        if width > backend.n_qubits:
            cells.extend(
                VolumetricCell(alg, width, 0, 0.0, skipped_reason="width exceeds backend")
                for alg in ("bv", "dj", "qft")
            )
            continue
        mapping = order[:width]
        positions = tuple(mapping)
        groups: dict[str, list[Circuit]] = {"bv": [], "dj": [], "qft": []}
        for _ in range(_VARIANTS_PER_CELL):
            secret = "".join(rng.choice(["0", "1"], size=width))
            groups["bv"].append(bv_circuit(secret))
            state = int(rng.integers(0, 2**width))
            groups["qft"].append(qft_roundtrip_circuit(width, state))
        subset = "".join(rng.choice(["0", "1"], size=width))
        if set(subset) <= {"0"}:
            subset = "1" + subset[1:]
        groups["dj"] = [dj_circuit(width, None), dj_circuit(width, subset)]

        for alg, logical_circuits in groups.items():
            fids = []
            depth = 0
            for logical in logical_circuits:
                ideal = run_ideal(logical)
                physical = remap(logical, mapping, backend.n_qubits)
                routed = route_ops(list(physical.ops), backend.connectivity)
                physical = Circuit(backend.n_qubits, tuple(routed), label=physical.label)
                depth = max(depth, physical.depth())
                (table,) = submit_and_wait(backend, [physical], cfg.shots, seed=seed * 17 + width)
                measured = table.marginal(positions) / cfg.shots
                fids.append(normalized_fidelity(ideal, measured))
            cells.append(
                VolumetricCell(
                    algorithm=alg,
                    width=width,
                    depth=depth,
                    fidelity=float(np.mean(fids)),
                )
            )
    return cells


def volumetric_csv(cells: list[VolumetricCell]) -> str:
    lines = ["algorithm,width,depth,fidelity"]
    for c in cells:
        if c.skipped_reason is None:
            lines.append(f"{c.algorithm},{c.width},{c.depth},{c.fidelity:.6f}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class AppSuiteResult:
    cells: tuple[VolumetricCell, ...]

    def outcome(self) -> Outcome:
        """Each cell's fidelity or skip flag, and the run cells as ``volumetric.csv``."""
        out = Outcome(raw={"volumetric.csv": volumetric_csv(list(self.cells))})
        for c in self.cells:
            if c.skipped_reason:
                out.flags.append(f"{c.algorithm}_w{c.width}_skipped")
            else:
                out.scalars[f"{c.algorithm}_w{c.width}"] = scalar(c.fidelity, "fidelity")
        return out
