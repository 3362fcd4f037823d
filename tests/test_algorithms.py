"""Estimate-Res and Find-Marked behavior, statistics, and query accounting."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbacktrack.algorithms as algorithms
from qbacktrack import (
    MarkingOracle,
    ae_outcome_distribution,
    ae_outcome_grid,
    build_path,
    build_random_tree,
    build_star,
    pe_ancillas,
    shallowest_marked,
)
from qbacktrack.algorithms import (
    DELTA_AE,
    LOOP_PE_DELTA,
    MAX_ANCILLAS,
    MAX_REPETITIONS,
    SWEEP_PLAN_CACHE_SIZE,
    EstimateResConfig,
    RunRecord,
    WalkSimulator,
    classical_descent,
    detect_existence,
    estimate_res,
    find_all,
    find_marked,
    k_doubling_find,
)
from conftest import rebuild_matches

CFG = EstimateResConfig()


def loop_pe_ancillas(size_bound, eta):
    """The phase-estimation ancillas of one estimation-loop stage."""
    return min(MAX_ANCILLAS, pe_ancillas(size_bound, eta, LOOP_PE_DELTA))


@pytest.fixture(scope="module")
def star_sim():
    tree, oracle = build_star(64, 4)
    return tree, oracle, WalkSimulator(tree, oracle)


class TestConfig:
    def test_defaults_valid_on_shallow_and_deep_trees(self):
        CFG.validate(1)
        CFG.validate(100)

    def test_gamma2_tracks_depth(self):
        assert CFG.resolve_gamma2(1) == pytest.approx(1 / 16)
        assert CFG.resolve_gamma2(64) == pytest.approx(1 / 64)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            EstimateResConfig(gamma1=2.0).validate(4)
        with pytest.raises(ValueError):
            EstimateResConfig(step=2.5).validate(4)
        with pytest.raises(ValueError):
            EstimateResConfig(gamma2=0.11).validate(1)  # within 1/8 but above DELTA_AE
        with pytest.raises(ValueError):
            EstimateResConfig(delta0=0.0).validate(4)
        with pytest.raises(ValueError):
            EstimateResConfig(gamma2=0.25).validate(16)
        tree, oracle = build_star(8, 2)
        for k_guess in (0, 1.5, True):
            with pytest.raises(ValueError, match="^k_guess "):
                find_marked(tree, oracle, CFG, np.random.default_rng(0), k_guess=k_guess)

    def test_config_holds_only_the_loop_settings(self):
        names = [f.name for f in dataclasses.fields(EstimateResConfig)]
        assert names == ["delta0", "gamma1", "gamma2", "step"]

    @pytest.mark.parametrize(
        "name, value", [("gamma2", 0.0), ("gamma2", -1.0), ("gamma2", math.nan), ("gamma1", math.inf)]
    )
    def test_bad_gammas_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} "):
            EstimateResConfig(**{name: value}).validate(4)

    def test_repetition_count(self):
        assert CFG.repetitions() == math.ceil(4.0 * math.log(20))

    @pytest.mark.parametrize("gamma1", [1e308, 1e7, MAX_REPETITIONS / math.log(20) * 1.001])
    def test_gamma1_past_the_repetition_cap_rejected_by_name(self, gamma1):
        with pytest.raises(ValueError, match=f"^gamma1 .* cap of {MAX_REPETITIONS}$"):
            EstimateResConfig(gamma1=gamma1).validate(4)

    def test_repetitions_up_to_the_cap_accepted(self):
        cfg = EstimateResConfig(gamma1=MAX_REPETITIONS / math.log(20) * 0.999)
        cfg.validate(4)
        assert cfg.repetitions() <= MAX_REPETITIONS


class TestSweepPlan:
    def test_invalid_config_raises_on_every_call(self):
        tree, oracle = build_star(8, 2)
        bad = EstimateResConfig(step=2.5)
        for _ in range(2):
            with pytest.raises(ValueError, match="step"):
                estimate_res(tree, oracle, tree.root, bad, np.random.default_rng(0))
            with pytest.raises(ValueError, match="step"):
                find_marked(tree, oracle, bad, np.random.default_rng(0))

    def test_k_doubling_rejects_an_invalid_config(self):
        # a marked star is found at the first guess, so the fallback never runs
        tree, oracle = build_star(8, 2)
        with pytest.raises(ValueError, match="step"):
            k_doubling_find(tree, oracle, EstimateResConfig(step=2.5), np.random.default_rng(0))

    def test_cache_is_bounded(self):
        info = algorithms._sweep_plan.cache_info()
        assert info.maxsize == SWEEP_PLAN_CACHE_SIZE
        tree, _ = build_star(4, 1)
        for i in range(SWEEP_PLAN_CACHE_SIZE + 5):
            algorithms._sweep_plan(EstimateResConfig(delta0=0.01 + 0.001 * i), 1, 4, tree.size_bound)
        assert algorithms._sweep_plan.cache_info().currsize == SWEEP_PLAN_CACHE_SIZE

    def test_k_doubling_adds_at_most_two_plans(self, monkeypatch):
        # an unmarked star runs every guess, then the classical fallback
        tree, oracle = build_star(32, 0)
        guesses = set()
        original = algorithms.find_marked

        def recorded(tree, oracle, cfg, rng, sim=None, k_guess=1):
            guesses.add(k_guess)
            return original(tree, oracle, cfg, rng, sim, k_guess)

        monkeypatch.setattr(algorithms, "find_marked", recorded)
        algorithms._sweep_plan.cache_clear()
        sim = WalkSimulator(tree, oracle)
        k_doubling_find(tree, oracle, CFG, np.random.default_rng(0), sim)
        misses = algorithms._sweep_plan.cache_info().misses
        assert len(guesses) > 1
        # every guess shares the loop's plan; the fallback adds one of its own: its per-level delta0
        assert misses <= 2
        k_doubling_find(tree, oracle, CFG, np.random.default_rng(1), sim)
        assert algorithms._sweep_plan.cache_info().misses == misses

    @pytest.mark.parametrize("share", [None, 0.5, 0.1])
    def test_plan_order_puts_cells_nearest_quarter_first(self, share):
        # the grid holds cells exactly as far from pi/4 as others: the lower one comes first
        gamma2 = None if share is None else share * min(DELTA_AE, 1.0 / 16.0)
        plan = algorithms._sweep_plan(EstimateResConfig(gamma2=gamma2), 4, 2, 9)
        grid = plan.grid.tolist()
        assert plan.order.tolist() == sorted(range(len(grid)), key=lambda i: (abs(grid[i] - math.pi / 4.0), i))
        with pytest.raises(ValueError):
            plan.order[0] = 0

    def test_plan_grid_is_read_only(self):
        plan = algorithms._sweep_plan(CFG, 4, 2, 9)
        with pytest.raises(ValueError):
            plan.grid[0] = 1.0


class TestEstimateRes:
    def test_star_estimates_concentrate(self, star_sim):
        tree, oracle, sim = star_sim
        estimates = []
        for seed in range(200):
            rng = np.random.default_rng(seed)
            est, _ = estimate_res(tree, oracle, tree.root, CFG, rng, sim)
            estimates.append(est)
        envelope = 16 * DELTA_AE * 0.25 * 1.5
        hits = [abs(e - 0.25) <= envelope for e in estimates if math.isfinite(e)]
        assert sum(hits) >= 0.95 * len(estimates)

    def test_single_edge(self):
        tree, oracle = build_star(1, 1)
        sim = WalkSimulator(tree, oracle)
        for seed in range(30):
            est, _ = estimate_res(tree, oracle, 0, CFG, np.random.default_rng(seed), sim)
            assert math.isfinite(est)
            assert abs(est - 1.0) <= 16 * DELTA_AE * 1.5

    def test_unmarked_returns_infinity(self):
        tree, oracle = build_path(5, False)
        sim = WalkSimulator(tree, oracle)
        results = [
            estimate_res(tree, oracle, 0, CFG, np.random.default_rng(seed), sim)[0]
            for seed in range(100)
        ]
        assert np.mean([math.isinf(r) for r in results]) >= 0.95

    def test_reproducible_given_seed(self, star_sim):
        tree, oracle, sim = star_sim
        a = estimate_res(tree, oracle, 0, CFG, np.random.default_rng(123), sim)
        b = estimate_res(tree, oracle, 0, CFG, np.random.default_rng(123), sim)
        assert a[0] == b[0]
        assert a[1].walk_queries == b[1].walk_queries

    def test_query_record_monotone_fields(self, star_sim):
        tree, oracle, sim = star_sim
        _, rec = estimate_res(tree, oracle, 0, CFG, np.random.default_rng(0), sim)
        assert rec.walk_queries > 0
        assert rec.f_queries > 0
        assert rec.h_queries > 0
        assert rec.steps == 0

    def test_query_scaling_slope(self):
        # fixed gamma2 so the amplitude-estimation grid is constant across
        # the corpus; walk queries should then scale like sqrt(T * eta).
        # The corpus spans T * eta over three decades via stars and paths,
        # keeping the sweep long enough that its geometric cost constant is
        # saturated (single-stage exits would tilt the fit).
        from qbacktrack import resistance_profile, solution_tree

        cfg = EstimateResConfig(gamma2=1 / 80)
        instances = []
        for n_leaves in (32, 48, 64, 96, 128, 192, 256, 384, 512):
            for k in (1, 2, 4):
                if 8 * k <= n_leaves:
                    instances.append(build_star(n_leaves, k))
        for n_edges in (8, 12, 16, 24, 32, 48, 64, 96):
            instances.append(build_path(n_edges, True))
        xs, ys = [], []
        for seed, (tree, oracle) in enumerate(instances):
            marked = shallowest_marked(tree, oracle)
            rp = resistance_profile(solution_tree(tree, marked))
            sim = WalkSimulator(tree, oracle)
            est, rec = estimate_res(
                tree, oracle, tree.root, cfg, np.random.default_rng(seed), sim
            )
            if not math.isfinite(est):
                continue
            xs.append(math.log(tree.size_bound * rp.eta_root))
            ys.append(math.log(rec.walk_queries))
        assert len(xs) >= 30
        slope = np.polyfit(xs, ys, 1)[0]
        assert 0.4 <= slope <= 0.6

    def test_majority_vote_failure_rate(self, star_sim):
        # far from the acceptance window the per-loop acceptance probability
        # must stay below delta0: 10^4 trials at eta = eta_bar / 16
        tree, oracle, sim = star_sim
        s_pe = loop_pe_ancillas(tree.size_bound, 1 / 64)
        p_zero, _ = sim.pe_stats(tree.root, 1 / 64, s_pe)
        theta = math.asin(math.sqrt(p_zero))
        assert abs(theta - math.pi / 4) >= math.pi / 8
        from qbacktrack import ae_outcome_distribution, ae_outcome_grid

        gamma2 = CFG.resolve_gamma2(tree.depth_bound)
        s_ae = CFG.ae_ancillas(gamma2)
        reps = CFG.repetitions()
        grid = ae_outcome_grid(s_ae)
        probs = ae_outcome_distribution(theta, s_ae)
        rng = np.random.default_rng(0)
        failures = 0
        trials = 10_000
        for _ in range(trials):
            draws = grid[rng.choice(grid.size, size=reps, p=probs / probs.sum())]
            if 2 * int(np.sum(np.abs(draws - np.pi / 4) <= np.pi / 16)) > reps:
                failures += 1
        assert failures / trials <= CFG.delta0


def most_frequent(draws):
    """Reference mode: most frequent estimate value, ties resolved toward pi/4."""
    values, counts = np.unique(draws, return_counts=True)
    best = values[counts == counts.max()]
    return float(best[np.argmin(np.abs(best - np.pi / 4.0))])


def choice_estimate_res(tree, v, cfg, rng, sim):
    """Reference estimation loop: per-call set-up, one ``rng.choice`` per stage.

    Returns the estimate and the run's record, counted stage by stage.
    """
    cfg.validate(tree.depth_bound)
    d = max(1, tree.degree_bound)
    n = float(tree.depth_bound)
    size = len(tree.subtree_vertices(v))
    s_ae = cfg.ae_ancillas(cfg.resolve_gamma2(tree.depth_bound))
    grid = ae_outcome_grid(s_ae)
    reps = cfg.repetitions()
    rec = RunRecord()
    i = 0
    while True:
        eta = min(cfg.step**i / d, n)
        if eta > 0.0:
            s_pe = loop_pe_ancillas(tree.size_bound, eta)
            p_zero, _ = sim.pe_stats(v, eta, s_pe)
            probs = ae_outcome_distribution(float(np.arcsin(np.sqrt(p_zero))), s_ae)
            draws = grid[rng.choice(grid.size, size=reps, p=probs / probs.sum())]
            rec.walk_queries += reps * (2**s_pe - 1) * (2 ** (s_ae + 1) - 1)
            rec.f_queries += size
            rec.h_queries += size
            if 2 * int(np.sum(np.abs(draws - np.pi / 4) <= np.pi / 16)) > reps:
                tan_b = math.tan(most_frequent(draws))
                rec.outcome = math.inf if tan_b == 0.0 else eta / tan_b**2
                return rec.outcome, rec
        if eta >= n:
            rec.outcome = math.inf
            return rec.outcome, rec
        i += 1


def assert_equals_choice_loop(tree, oracle, v, cfg, seed, sim):
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got, got_rec = estimate_res(tree, oracle, v, cfg, got_rng, sim)
    want, want_rec = choice_estimate_res(tree, v, cfg, want_rng, sim)
    assert got == want
    assert got_rec.as_row() == want_rec.as_row()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestStageSampler:
    """The stage draws, the vote, the mode and the record equal the ``choice`` loop's, on the same stream."""

    @pytest.mark.parametrize(
        "build, args",
        [(build_star, (64, 4)), (build_random_tree, (40, 3, 0.1, 9)), (build_path, (4, False))],
    )
    def test_estimates_and_stream_equal_choice_loop(self, build, args):
        tree, oracle = build(*args)
        sim = WalkSimulator(tree, oracle)
        for v in (tree.root, *tree.children[tree.root][:2]):
            for seed in range(15):
                assert_equals_choice_loop(tree, oracle, v, CFG, seed, sim)

    @settings(max_examples=25, deadline=None)
    @given(
        star=st.booleans(),
        size=st.integers(min_value=2, max_value=30),
        seed=st.integers(min_value=0, max_value=10_000),
        delta0=st.floats(min_value=0.01, max_value=0.5),
        gamma1=st.floats(min_value=2.01, max_value=8.0),
        gamma2_share=st.none() | st.floats(min_value=0.05, max_value=1.0),
        step=st.floats(min_value=1.2, max_value=2.0),
    )
    def test_configs_and_vertices_equal_choice_loop(
        self, star, size, seed, delta0, gamma1, gamma2_share, step
    ):
        if star:
            tree, oracle = build_star(size, seed % (size + 1))
        else:
            tree, oracle = build_random_tree(size, 3, 0.15, seed)
        gamma2 = None
        if gamma2_share is not None:
            gamma2 = gamma2_share * min(DELTA_AE, 1.0 / (8.0 * math.sqrt(max(1, tree.depth_bound))))
        cfg = EstimateResConfig(delta0=delta0, gamma1=gamma1, gamma2=gamma2, step=step)
        sim = WalkSimulator(tree, oracle)
        for v in range(0, tree.n_vertices, max(1, tree.n_vertices // 4)):
            for trial in range(3):
                assert_equals_choice_loop(tree, oracle, v, cfg, seed + trial, sim)

    @settings(max_examples=100, deadline=None)
    @given(
        s=st.integers(min_value=3, max_value=10),
        cells=st.lists(st.integers(min_value=0, max_value=2**9), min_size=1, max_size=40),
        tie=st.integers(min_value=0, max_value=2**8),
    )
    def test_mode_equals_most_frequent(self, s, cells, tie):
        grid = ae_outcome_grid(s)
        idx = [c % grid.size for c in cells]
        # two cells equally far from pi/4 (in exact arithmetic), tied at the top count
        quarter = 1 << (s - 2)
        k = tie % (quarter + 1)
        top = max(np.bincount(idx)) + 1
        order = np.argsort(np.abs(grid - np.pi / 4.0), kind="stable")
        for draws in (idx, idx + [quarter - k] * top + [quarter + k] * top):
            counts = np.bincount(draws, minlength=grid.size)
            assert algorithms._modal_estimate(grid, order, counts) == most_frequent(grid[draws])


class TestDetect:
    def test_marked_star_detected(self):
        tree, oracle = build_star(8, 1)
        sim = WalkSimulator(tree, oracle)
        hits = sum(
            detect_existence(tree, oracle, CFG, np.random.default_rng(s), sim)[0]
            for s in range(60)
        )
        assert hits >= 0.95 * 60

    def test_unmarked_path_rejected(self):
        tree, oracle = build_path(4, False)
        sim = WalkSimulator(tree, oracle)
        hits = sum(
            detect_existence(tree, oracle, CFG, np.random.default_rng(s), sim)[0]
            for s in range(60)
        )
        assert hits <= 0.05 * 60

    def test_root_only_tree_always_false(self):
        tree, oracle = build_dpll_root_only()
        sim = WalkSimulator(tree, oracle)
        for seed in range(10):
            found, _ = detect_existence(tree, oracle, CFG, np.random.default_rng(seed), sim)
            assert not found


def build_dpll_root_only():
    from qbacktrack import build_dpll_tree

    return build_dpll_tree([(1,), (-1,)], [1])


class TestFindMarked:
    def test_returns_only_marked_vertices(self, star_sim):
        tree, oracle, sim = star_sim
        for seed in range(100):
            v, _ = find_marked(tree, oracle, CFG, np.random.default_rng(seed), sim)
            if v is not None:
                assert oracle.peek(v)

    def test_star_leaf_uniformity(self, star_sim):
        tree, oracle, sim = star_sim
        counts = {1: 0, 2: 0, 3: 0, 4: 0}
        runs = 0
        seed = 0
        while runs < 800:
            seed += 1
            v, _ = find_marked(tree, oracle, CFG, np.random.default_rng(seed), sim)
            if v is None:
                continue
            counts[v] += 1
            runs += 1
        expected = runs / 4
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        # chi-square with 3 dof: 11.34 at the 0.01 level
        assert chi2 < 11.34

    def test_unmarked_tree_returns_none(self):
        tree, oracle = build_path(3, False)
        sim = WalkSimulator(tree, oracle)
        for seed in range(40):
            v, _ = find_marked(tree, oracle, CFG, np.random.default_rng(seed), sim)
            assert v is None

    def test_path_descent_rounds(self):
        tree, oracle = build_path(5, True)
        sim = WalkSimulator(tree, oracle)
        steps = []
        for seed in range(500):
            v, rec = find_marked(tree, oracle, CFG, np.random.default_rng(seed), sim)
            if v is not None:
                assert v == 5
                steps.append(rec.steps)
        assert len(steps) >= 450
        assert np.mean(steps) <= 2 * math.log2(6)


class TestFindAll:
    def test_star_recovers_all(self):
        tree, oracle = build_star(16, 3)
        found, _ = find_all(tree, oracle, CFG, np.random.default_rng(0))
        assert sorted(found) == [1, 2, 3]

    def test_nested_marks_ancestor_first(self):
        tree, oracle = build_path(4, False)
        oracle._marks[2] = True
        oracle._marks[4] = True
        found, _ = find_all(tree, oracle, CFG, np.random.default_rng(1))
        assert found == [2, 4]

    def test_unmarked_tree_empty(self):
        tree, oracle = build_path(3, False)
        found, _ = find_all(tree, oracle, CFG, np.random.default_rng(2))
        assert found == []

    def test_original_oracle_untouched(self):
        tree, oracle = build_star(8, 2)
        find_all(tree, oracle, CFG, np.random.default_rng(3))
        assert sorted(oracle.marked_vertices()) == [1, 2]


class TestKDoubling:
    def test_star_terminates_quickly(self):
        tree, oracle = build_star(32, 8)
        sim = WalkSimulator(tree, oracle)
        for seed in range(20):
            v, _ = k_doubling_find(tree, oracle, CFG, np.random.default_rng(seed), sim)
            assert v is not None and oracle.peek(v)

    def test_single_edge(self):
        tree, oracle = build_star(1, 1)
        v, _ = k_doubling_find(tree, oracle, CFG, np.random.default_rng(0))
        assert v == 1

    def test_unmarked_falls_through_to_none(self):
        tree, oracle = build_star(4, 0)
        v, rec = k_doubling_find(tree, oracle, CFG, np.random.default_rng(0))
        assert v is None


class TestClassicalDescent:
    def test_path_descends_to_leaf(self):
        tree, oracle = build_path(4, True)
        sim = WalkSimulator(tree, oracle)
        ok = sum(
            classical_descent(tree, oracle, CFG, np.random.default_rng(s), sim)[0] == 4
            for s in range(50)
        )
        assert ok >= 45

    def test_branching_tree_single_leaf(self):
        tree, oracle = build_random_tree(40, 3, 0.0, seed=2)
        leaf = max(range(tree.n_vertices), key=lambda v: tree.depth[v])
        oracle._marks[leaf] = True
        sim = WalkSimulator(tree, oracle)
        ok = sum(
            classical_descent(tree, oracle, CFG, np.random.default_rng(s), sim)[0] == leaf
            for s in range(30)
        )
        assert ok >= 27

    def test_unmarked_returns_none(self):
        tree, oracle = build_path(3, False)
        v, _ = classical_descent(tree, oracle, CFG, np.random.default_rng(0))
        assert v is None


class TestSubtree:
    def test_every_vertex_re_roots_consistently(self):
        tree, oracle = build_random_tree(40, 3, 0.1, 9)
        sim = WalkSimulator(tree, oracle)
        for v in range(tree.n_vertices):
            sub = sim.subtree(v)
            rebuild_matches(sub.tree)
            ids = sub.ids
            assert ids[0] == v and sorted(ids) == sorted(tree.subtree_vertices(v))
            assert np.array_equal(sub.tree.depth, tree.depth[ids] - tree.depth[v])
            for i, kids in enumerate(sub.tree.children):
                assert [int(ids[c]) for c in kids] == list(tree.children[ids[i]])
            bounds = (sub.tree.size_bound, sub.tree.depth_bound, sub.tree.degree_bound)
            assert bounds == (tree.size_bound, tree.depth_bound, tree.degree_bound)
            # marked vertices strictly below v with no marked vertex between
            want = {
                u
                for u in tree.subtree_vertices(v)[1:]
                if oracle.peek(u)
                and not any(oracle.peek(w) for w in tree.path_from_root(u)[int(tree.depth[v]) + 1 : -1])
            }
            assert {int(ids[m]) for m in sub.marked.members} == want


class TestWalkSimulator:
    @pytest.mark.parametrize(
        "search",
        [
            lambda t, o, rng, sim: estimate_res(t, o, t.root, CFG, rng, sim),
            lambda t, o, rng, sim: detect_existence(t, o, CFG, rng, sim),
            lambda t, o, rng, sim: find_marked(t, o, CFG, rng, sim),
            lambda t, o, rng, sim: k_doubling_find(t, o, CFG, rng, sim),
            lambda t, o, rng, sim: classical_descent(t, o, CFG, rng, sim),
        ],
        ids=["estimate_res", "detect_existence", "find_marked", "k_doubling_find", "classical_descent"],
    )
    def test_a_simulator_of_another_tree_or_oracle_is_rejected(self, search):
        tree, oracle = build_star(8, 2)
        sim = WalkSimulator(tree, oracle)
        marks = np.zeros(tree.n_vertices, dtype=bool)
        marks[8] = True
        leaf_8 = MarkingOracle(marks, tree.root)
        twin, _ = build_star(8, 2)
        for t, o in ((tree, leaf_8), (twin, oracle), (tree, oracle.copy())):
            with pytest.raises(ValueError, match="^sim must be a WalkSimulator"):
                search(t, o, np.random.default_rng(0), sim)
        search(tree, oracle, np.random.default_rng(0), sim)

    def test_unmark_invalidates_to_a_fresh_simulator(self):
        tree, oracle = build_random_tree(40, 3, 0.2, 2)
        nested = [
            a for u in oracle.marked_vertices() for a in tree.path_from_root(u)[1:-1] if oracle.peek(a)
        ]
        assert nested, "the fixture needs a marked vertex below another"
        grid = [(eta, s) for eta in (0.5, 2.0, 8.0) for s in (3, 6)]
        sim = WalkSimulator(tree, oracle)
        before = [sim.pe_stats(tree.root, eta, s) for eta, s in grid]
        oracle.unmark(nested[0])
        fresh = WalkSimulator(tree, oracle)
        for (eta, s), old in zip(grid, before):
            p_zero, law = sim.pe_stats(tree.root, eta, s)
            want_p, want_law = fresh.pe_stats(tree.root, eta, s)
            assert p_zero == want_p and np.array_equal(law, want_law)
        # the unmark exposes deeper marks, so a stale cache would differ
        assert any(not np.array_equal(old[1], sim.pe_stats(tree.root, eta, s)[1])
                   for (eta, s), old in zip(grid, before))

    def test_ae_law_computed_once_per_stage(self, monkeypatch):
        tree, oracle = build_star(64, 4)
        sim = WalkSimulator(tree, oracle)
        computed, stages = [], set()
        original_dist, original_law = algorithms.ae_outcome_distribution, sim.ae_law

        def counted_dist(*args):
            computed.append(args)
            return original_dist(*args)

        def recorded_law(*args):
            stages.add(args)
            return original_law(*args)

        monkeypatch.setattr(algorithms, "ae_outcome_distribution", counted_dist)
        monkeypatch.setattr(sim, "ae_law", recorded_law)
        shared = [k_doubling_find(tree, oracle, CFG, np.random.default_rng(seed), sim)[1]
                  for seed in range(50)]
        assert len(computed) == len(stages) > 0
        monkeypatch.undo()
        for seed, rec in enumerate(shared):
            _, fresh = k_doubling_find(tree, oracle, CFG, np.random.default_rng(seed))
            assert rec.as_row() == fresh.as_row()

    def test_unmark_invalidates_the_ae_law(self):
        tree, oracle = build_star(64, 4)
        sim = WalkSimulator(tree, oracle)
        s_ae = CFG.ae_ancillas(CFG.resolve_gamma2(tree.depth_bound))
        eta = 1.0 / 64
        s_pe = loop_pe_ancillas(tree.size_bound, eta)
        before = sim.ae_law(tree.root, eta, s_pe, s_ae)
        for seed in range(5):
            estimate_res(tree, oracle, tree.root, CFG, np.random.default_rng(seed), sim)
        oracle.unmark(oracle.marked_vertices()[0])
        assert not np.array_equal(before, sim.ae_law(tree.root, eta, s_pe, s_ae))
        for seed in range(5):
            got, got_rec = estimate_res(tree, oracle, tree.root, CFG, np.random.default_rng(seed), sim)
            want, want_rec = estimate_res(tree, oracle, tree.root, CFG, np.random.default_rng(seed))
            assert got == want and got_rec.as_row() == want_rec.as_row()

    def test_vertex_law_checked_only_when_the_zero_outcome_can_occur(self, monkeypatch):
        tree, oracle = build_star(8, 2)
        nan_law = np.full(tree.n_vertices, np.nan)
        monkeypatch.setattr(algorithms, "pe_distribution", lambda sd, state, s: (0.0, nan_law))
        assert WalkSimulator(tree, oracle).pe_stats(tree.root, 1.0, 4) == (0.0, None)
        monkeypatch.setattr(algorithms, "pe_distribution", lambda sd, state, s: (0.5, nan_law))
        with pytest.raises(ValueError, match="NaN"):
            WalkSimulator(tree, oracle).pe_stats(tree.root, 1.0, 4)

    def test_search_keeps_no_walk_sized_state(self):
        tree, oracle = build_star(512, 4)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            sim = WalkSimulator(tree, oracle)
            for seed in range(5):
                k_doubling_find(tree, oracle, CFG, np.random.default_rng(seed), sim)
            kept = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        # one dense n x n complex spectrum alone is 16 n^2 = 4.2 MB
        assert kept < 2**20, f"simulator keeps {kept / 2**20:.2f} MiB"


class TestTracedCalls:
    """perfbench traces ``algorithms.estimate_res`` by replacing the module attribute."""

    @pytest.mark.parametrize("search", [find_marked, k_doubling_find, classical_descent])
    def test_searches_call_estimate_res_through_the_module(self, monkeypatch, search):
        tree, oracle = build_path(4, True)
        calls = []
        original = algorithms.estimate_res

        def counted(*args, **kwargs):
            calls.append(args[2])
            return original(*args, **kwargs)

        monkeypatch.setattr(algorithms, "estimate_res", counted)
        search(tree, oracle, CFG, np.random.default_rng(0))
        assert calls and calls[0] == tree.root


class TestRunRecord:
    def test_merge_accumulates(self):
        a = RunRecord(walk_queries=5, f_queries=2, h_queries=1, steps=3)
        b = RunRecord(walk_queries=7, f_queries=1, h_queries=4, steps=2)
        a.merge(b)
        assert (a.walk_queries, a.f_queries, a.h_queries, a.steps) == (12, 3, 5, 5)

    def test_row_serializes_infinity(self):
        rec = RunRecord(outcome=float("inf"))
        assert rec.as_row()["outcome"] == "inf"
