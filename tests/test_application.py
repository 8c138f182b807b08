"""Application-metric tests: graphs, cut optimization, algorithm suite."""
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import UniformRandomBackend, ideal_unitary
from qbench import application
from qbench.backends import LocalSimBackend
from qbench.circuits import Circuit, Gate, measure_all, normalize_angle, rz, x90
from qbench.cliffords import equal_up_to_phase
from qbench.compile import h_matrix, routed_block, rx_angles, rx_matrix, rzz_ops, su2_ops
from qbench.device import ideal_device
from qbench.application import (
    AppSuiteConfig,
    Graph,
    QScoreConfig,
    TimeBudgetExceeded,
    ansatz_angles,
    bv_circuit,
    cut_values,
    dj_circuit,
    gen_erdos_renyi,
    hellinger_fidelity,
    maxcut_ansatz,
    maxcut_brute,
    normalized_fidelity,
    qaoa_maxcut,
    qft_roundtrip_circuit,
    run_app_suite,
    run_qscore,
    volumetric_csv,
)
from qbench.simulator import run_ideal


class TestGraphs:
    def test_single_node_empty(self):
        g = gen_erdos_renyi(1, 0.5, seed=3)
        assert g.n_edges == 0

    def test_edge_frequency_half(self):
        count = sum(gen_erdos_renyi(2, 0.5, seed=s).n_edges for s in range(10000))
        assert count / 10000 == pytest.approx(0.5, abs=0.02)

    def test_expected_edges_scales(self):
        n = 6
        total = sum(gen_erdos_renyi(n, 0.5, seed=s).n_edges for s in range(2000))
        assert total / 2000 == pytest.approx(n * (n - 1) / 4, rel=0.05)

    def test_determinism(self):
        assert gen_erdos_renyi(5, 0.5, seed=9) == gen_erdos_renyi(5, 0.5, seed=9)

    def test_no_self_loops_or_duplicates(self):
        with pytest.raises(ValueError):
            Graph(2, ((0, 0),))
        with pytest.raises(ValueError):
            Graph(2, ((0, 1), (1, 0)))


@st.composite
def graphs(draw):
    """Graphs on 1-6 nodes, edgeless ones included."""
    n = draw(st.integers(1, 6))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, tuple(edges))


class TestMaxcutBrute:
    def test_single_edge(self):
        assert maxcut_brute(Graph(2, ((0, 1),)))[0] == 1

    def test_triangle(self):
        assert maxcut_brute(Graph(3, ((0, 1), (1, 2), (0, 2))))[0] == 2

    def test_five_cycle_against_enumeration(self):
        g = Graph(5, tuple((i, (i + 1) % 5) for i in range(5)))
        value, witness = maxcut_brute(g)
        # independent oracle: exhaustive itertools enumeration
        best = max(
            sum(1 for a, b in g.edges if bits[a] != bits[b])
            for bits in itertools.product((0, 1), repeat=5)
        )
        assert value == best == 4
        assert cut_values(g)[witness] == 4

    def test_empty_graph(self):
        assert maxcut_brute(Graph(4, ()))[0] == 0

    @settings(max_examples=200, deadline=None)
    @given(graphs())
    def test_cut_values_match_enumeration(self, g):
        # node 0 is the most significant bit of an outcome index
        want = [
            sum(1 for a, b in g.edges if bits[a] != bits[b])
            for bits in itertools.product((0, 1), repeat=g.n_nodes)
        ]
        assert cut_values(g).tolist() == want

    @settings(max_examples=200, deadline=None)
    @given(graphs())
    def test_brute_witness_has_node_0_on_side_0(self, g):
        value, witness = maxcut_brute(g)
        assert witness >> (g.n_nodes - 1) == 0
        assert value == cut_values(g).max() == cut_values(g)[witness]


def _synthesized_ansatz(graph, gammas, betas, qubit_map=None, n_qubits=None,
                        connectivity=None) -> Circuit:
    """The ansatz synthesized gate by gate for one set of angles: each H, ZZ
    block and RX goes through single-qubit synthesis on its own."""
    n = graph.n_nodes
    mapping = list(range(n)) if qubit_map is None else list(qubit_map[:n])
    ops = [g for node in range(n) for g in su2_ops(h_matrix(), mapping[node])]
    for gamma, beta in zip(gammas, betas):
        for a, b in graph.edges:
            pa, pb = mapping[a], mapping[b]
            ops.extend(routed_block(rzz_ops(pa, pb, gamma), pa, pb, connectivity))
        for node in range(n):
            ops.extend(su2_ops(rx_matrix(2 * beta), mapping[node]))
    ops.append(measure_all())
    return Circuit(n_qubits or max(mapping) + 1, tuple(ops), label=f"maxcut_n{n}")


@st.composite
def ansatz_cases(draw):
    n = draw(st.integers(2, 5))
    edges = draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), 2))),
                          min_size=1, unique=True))
    p = draw(st.sampled_from([1, 2]))
    angles = st.floats(-2 * np.pi, 2 * np.pi)
    gammas = draw(st.lists(angles, min_size=p, max_size=p))
    betas = draw(st.lists(angles, min_size=p, max_size=p))
    if draw(st.booleans()):
        layout = {"qubit_map": [2, 0, 1, 3, 4][:n], "n_qubits": 5, "connectivity": STAR_5}
    else:
        layout = {}
    return Graph(n, tuple(edges)), gammas, betas, layout


STAR_5 = frozenset({(0, 2), (1, 2), (2, 3), (2, 4)})


class TestAnsatz:
    def test_zero_angles_give_random_expectation(self):
        g = gen_erdos_renyi(4, 0.5, seed=3)
        probs = run_ideal(maxcut_ansatz(g, 1).bind(ansatz_angles([0.0], [0.0])))
        expected = probs @ cut_values(g)
        assert expected == pytest.approx(g.n_edges / 2, abs=1e-9)

    def test_respects_connectivity(self):
        g = Graph(3, ((0, 1), (1, 2), (0, 2)))
        star = frozenset({(0, 2), (1, 2)})
        c = maxcut_ansatz(g, 1, connectivity=star, n_qubits=3)
        for gate in c.ops:
            if isinstance(gate, Gate) and gate.kind == "CZ":
                assert tuple(sorted(gate.qubits)) in star

    @settings(max_examples=200, deadline=None)
    @given(ansatz_cases())
    def test_bound_template_is_the_synthesized_ansatz(self, case):
        graph, gammas, betas, layout = case
        # fast paths: synthesis emits fewer pulses
        for theta in [*gammas, *(2 * b for b in betas)]:
            assume(len(su2_ops(rx_matrix(theta), 0)) == 5)
        want = _synthesized_ansatz(graph, gammas, betas, **layout)
        got = maxcut_ansatz(graph, len(gammas), **layout).bind(ansatz_angles(gammas, betas))
        assert (got.n_qubits, got.label) == (want.n_qubits, want.label)
        assert [(g.kind, g.qubits) for g in got.ops] == [(g.kind, g.qubits) for g in want.ops]
        for g, w in zip(got.ops, want.ops):
            if g.kind == "RZ":
                assert abs(normalize_angle(g.angle_rad - w.angle_rad)) <= 1e-12

    @pytest.mark.parametrize("theta", [0.0, np.pi / 2, np.pi, -np.pi / 2, 3 * np.pi, 1e-10])
    def test_rx_slot_exact_on_fast_path_angles(self, theta):
        gamma, beta, alpha = rx_angles(theta)
        got = ideal_unitary(Circuit(1, (rz(0, gamma), x90(0), rz(0, beta), x90(0), rz(0, alpha))))
        assert equal_up_to_phase(got, rx_matrix(theta), tol=1e-12)


class TestQAOA:
    def test_single_edge_optimal(self, ideal_backend_5):
        g = Graph(2, ((0, 1),))
        res = qaoa_maxcut(g, ideal_backend_5, QScoreConfig(shots=512), seed=1)
        assert res.best_sampled_cut == 1

    def test_best_so_far_monotone(self, ideal_backend_5):
        g = gen_erdos_renyi(4, 0.5, seed=7)
        res = qaoa_maxcut(g, ideal_backend_5, QScoreConfig(shots=256, max_evaluations=30), seed=2)
        assert res.best_so_far == sorted(res.best_so_far)

    def test_reaches_near_optimum_on_ideal(self, ideal_backend_5):
        good = total = 0
        for s in range(8):
            g = gen_erdos_renyi(4, 0.5, seed=50 + s)
            if not g.edges:
                continue
            total += 1
            opt, _ = maxcut_brute(g)
            res = qaoa_maxcut(g, ideal_backend_5, QScoreConfig(), seed=s)
            good += res.best_sampled_cut >= 0.9 * opt
        assert good >= 0.8 * total

    def test_budget_exhausted_before_first_eval(self, ideal_backend_5):
        g = Graph(2, ((0, 1),))
        with pytest.raises(TimeBudgetExceeded):
            qaoa_maxcut(g, ideal_backend_5, QScoreConfig(), seed=1, time_budget_s=0.0)

    def test_budget_runs_out_mid_search(self, monkeypatch):
        # the clock moves 1 s per executed batch, however often it is read
        clock = {"now": 0.0}
        tables = []

        class ClockedBackend(LocalSimBackend):
            def run(self, circuits, shots, seed):
                clock["now"] += 1.0
                out = super().run(circuits, shots, seed)
                tables.extend(out)
                return out

        monkeypatch.setattr(application, "time", SimpleNamespace(perf_counter=lambda: clock["now"]))
        backend = ClockedBackend(ideal_device(5))
        g = gen_erdos_renyi(4, 0.5, seed=7)
        cfg = QScoreConfig(shots=256)
        res = qaoa_maxcut(g, backend, cfg, seed=2, time_budget_s=10.5)
        mapping = backend.preferred_qubit_order()[: g.n_nodes]
        means = [int(cut_values(g) @ t.marginal(mapping)) / cfg.shots for t in tables]
        assert res.evaluations == len(means) == 11
        assert res.best_mean_cut == max(means)  # no re-sample after the budget ran out
        assert res.elapsed_s == 11.0

    def test_search_returns_its_best_point_and_value(self):
        calls = []

        def fn(x):
            calls.append(float(x[0]))
            return -(x[0] - 1.0) ** 2

        best_x, best_v = application._nelder_mead_max(fn, np.array([0.0]), spread=0.5,
                                                      max_evals=40, tol=1e-3)
        assert best_v == max(-(c - 1.0) ** 2 for c in calls)
        assert best_v == -(best_x[0] - 1.0) ** 2 and abs(best_x[0] - 1.0) < 0.05

    @pytest.mark.parametrize("max_evals, calls", [(5, 6), (10, 11), (30, 31), (75, 75)])
    def test_search_may_exceed_max_evals_by_one(self, max_evals, calls):
        """A step begun at the last allowed evaluation finishes (see the docstring)."""
        seen = []

        def fn(x):
            seen.append(x)
            return -float(np.sum((x - np.array([0.3, -0.2])) ** 2))

        application._nelder_mead_max(fn, np.array([0.8, 0.4]), spread=0.6,
                                     max_evals=max_evals, tol=1e-3)
        assert len(seen) == calls

    def test_search_stops_at_the_budget(self):
        def fn(x):
            if len(seen) == 3:
                raise TimeBudgetExceeded()
            seen.append(float(x[0]))
            return float(x[0])

        seen = []
        best_x, best_v = application._nelder_mead_max(fn, np.array([0.0]), spread=0.5,
                                                      max_evals=40, tol=1e-3)
        assert len(seen) == 3 and best_v == max(seen) == best_x[0]
        seen = [0.0] * 3
        assert application._nelder_mead_max(fn, np.array([0.0]), spread=0.5,
                                            max_evals=40, tol=1e-3) is None

    def test_graph_too_wide(self):
        be = LocalSimBackend(ideal_device(2))
        with pytest.raises(ValueError):
            qaoa_maxcut(gen_erdos_renyi(3, 0.5, seed=1), be, QScoreConfig(), seed=1)


class TestQScore:
    def test_ideal_reaches_max_size(self, ideal_backend_5):
        res = run_qscore(ideal_backend_5, QScoreConfig(time_limit_s=600.0), seed=1)
        assert res.qscore == 5
        for r in res.per_size:
            assert r.beta > 0.2
            assert r.passed

    def test_uniform_random_flagged_near_zero(self):
        res = run_qscore(
            UniformRandomBackend(5),
            QScoreConfig(time_limit_s=600.0, max_evaluations=40),
            seed=3,
        )
        assert res.qscore == 1
        assert res.flag == "no_size_passed"
        for r in res.per_size:
            assert abs(r.beta) < 0.1

    def test_single_edge_denominator(self):
        g = Graph(2, ((0, 1),))
        opt, _ = maxcut_brute(g)
        assert opt - g.n_edges / 2 == pytest.approx(0.5)

    def test_time_limited_never_beats_generous(self, ideal_backend_5):
        tight = run_qscore(ideal_backend_5, QScoreConfig(time_limit_s=1e-9), seed=1)
        generous = run_qscore(ideal_backend_5, QScoreConfig(time_limit_s=600.0), seed=1)
        assert tight.qscore <= generous.qscore

    def test_sizes_wider_than_backend_are_skipped(self):
        cfg = QScoreConfig(graphs_per_size=2, max_evaluations=20, shots=256, time_limit_s=600.0)
        res = run_qscore(LocalSimBackend(ideal_device(3)), cfg, seed=1)
        assert (res.qscore, res.flag) == (3, None)
        assert [r.passed for r in res.per_size] == [True, True, False, False]
        assert [r.flags for r in res.per_size[2:]] == [("exceeds_backend",)] * 2

    def test_sizes_must_ascend(self, ideal_backend_5):
        with pytest.raises(ValueError):
            run_qscore(ideal_backend_5, QScoreConfig(sizes=(3, 2)), seed=1)

    @pytest.mark.parametrize("field", ["shots", "max_evaluations", "graphs_per_size"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_counts_must_be_positive(self, field, value):
        with pytest.raises(ValueError, match=field):
            QScoreConfig(**{field: value})
        assert getattr(QScoreConfig(**{field: 1}), field) == 1

    def test_library_calls_reject_zero_counts_by_name(self):
        """Both calls once failed deep inside ``bind`` or numpy."""
        with pytest.raises(ValueError, match="max_evaluations"):
            qaoa_maxcut(Graph(2, ((0, 1),)), LocalSimBackend(ideal_device(2)),
                        QScoreConfig(max_evaluations=0))
        with pytest.raises(ValueError, match="shots"):
            run_qscore(LocalSimBackend(ideal_device(2)),
                       QScoreConfig(sizes=(2,), shots=0, time_limit_s=5))


class TestFidelity:
    def test_hellinger_identical(self):
        p = np.array([0.25, 0.75])
        assert hellinger_fidelity(p, p) == pytest.approx(1.0)

    def test_normalized_anchors(self):
        ideal = np.array([1.0, 0.0, 0.0, 0.0])
        assert normalized_fidelity(ideal, ideal) == pytest.approx(1.0)
        uniform = np.full(4, 0.25)
        assert normalized_fidelity(ideal, uniform) == pytest.approx(0.0, abs=1e-12)

    def test_relabeling_invariance(self, rng):
        ideal = rng.dirichlet(np.ones(8))
        measured = rng.dirichlet(np.ones(8))
        perm = rng.permutation(8)
        assert normalized_fidelity(ideal[perm], measured[perm]) == pytest.approx(
            normalized_fidelity(ideal, measured)
        )


class TestAlgorithms:
    def test_bv_ideal_output(self):
        probs = run_ideal(bv_circuit("101"))
        assert probs[int("101", 2)] == pytest.approx(1.0)

    def test_dj_constant_lands_on_zero(self):
        probs = run_ideal(dj_circuit(3, None))
        assert probs[0] == pytest.approx(1.0)

    def test_dj_balanced_avoids_zero(self):
        probs = run_ideal(dj_circuit(3, "011"))
        assert probs[0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_dj_is_bv_of_its_marked_string(self, n):
        assert dj_circuit(n, None).ops == bv_circuit("0" * n).ops
        for bits in itertools.product("01", repeat=n):
            s = "".join(bits)
            if "1" in s:
                assert dj_circuit(n, s).ops == bv_circuit(s).ops
        assert dj_circuit(n, None).label == "dj_const"
        assert dj_circuit(n, "1" * n).label == f"dj_bal_{'1' * n}"
        assert bv_circuit("1" * n).label == f"bv_{'1' * n}"

    def test_dj_rejects_empty_balanced_subset(self):
        with pytest.raises(ValueError):
            dj_circuit(3, "000")

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_qft_roundtrip_every_basis_state(self, n, rng):
        for state in rng.integers(0, 2**n, size=3):
            probs = run_ideal(qft_roundtrip_circuit(n, int(state)))
            assert probs[int(state)] == pytest.approx(1.0, abs=1e-9)

    def test_suite_ideal_fidelities_are_one(self, ideal_backend_5):
        cells = run_app_suite(ideal_backend_5, AppSuiteConfig(max_width=3, shots=512), seed=4)
        assert {c.algorithm for c in cells} == {"bv", "dj", "qft"}
        for c in cells:
            assert c.fidelity == pytest.approx(1.0, abs=0.02)
            assert c.depth > 0

    def test_suite_uniform_fidelities_are_zero(self):
        cells = run_app_suite(UniformRandomBackend(3), AppSuiteConfig(max_width=3, shots=512), seed=4)
        for c in cells:
            assert c.fidelity == pytest.approx(0.0, abs=0.05)

    def test_suite_on_noisy_star_device(self, starmon_backend):
        cells = run_app_suite(starmon_backend, AppSuiteConfig(max_width=3, shots=512), seed=4)
        by_alg = {c.algorithm: c for c in cells}
        # shallow parity circuits survive; the Fourier round trip suffers
        assert by_alg["bv"].fidelity > by_alg["qft"].fidelity

    @pytest.mark.parametrize("max_width", [1, 0])
    def test_max_width_below_two_rejected(self, max_width):
        with pytest.raises(ValueError, match="max_width"):
            AppSuiteConfig(max_width=max_width)

    def test_width_exceeding_backend_skipped(self):
        be = LocalSimBackend(ideal_device(2))
        cells = run_app_suite(be, AppSuiteConfig(max_width=3, shots=128), seed=1)
        skipped = [c for c in cells if c.skipped_reason]
        assert {c.width for c in skipped} == {3}

    def test_csv_shape(self, ideal_backend_5):
        cells = run_app_suite(ideal_backend_5, AppSuiteConfig(max_width=2, shots=128), seed=1)
        text = volumetric_csv(cells)
        lines = text.strip().splitlines()
        assert lines[0] == "algorithm,width,depth,fidelity"
        assert len(lines) == 1 + len(cells)
