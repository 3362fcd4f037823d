"""The simulator's sweep and descent tables: cache-hot searches equal fresh ones bit for bit.

``WalkSimulator.sweep`` keeps, per vertex and configuration, the sweep plan
and the ``estimate_res`` stages reached so far; ``WalkSimulator.descent``
keeps ``find_marked``'s ancilla count and the subtree's ids per (vertex,
estimate, guess).  Every search on a shared simulator must return what it
returns on a fresh one and leave the generator in the same state, the tables
must fill only the stages a sweep reaches, and an unmark must clear them but
keep the plans.
"""

import math
import pathlib

import numpy as np
import pytest

import qbacktrack.algorithms as algorithms
from qbacktrack import MarkingOracle, build_path, build_random_tree, build_star
from qbacktrack.algorithms import (
    EstimateResConfig,
    WalkSimulator,
    classical_descent,
    estimate_res,
    find_all,
    find_marked,
    k_doubling_find,
)
from qbacktrack.estimation import ae_outcome_distribution, choice_cdf
from qbacktrack.trees import tree_from_json

CFG = EstimateResConfig()
DATA = pathlib.Path(__file__).parent / "data"


def miss_tree(name):
    return tree_from_json((DATA / f"{name}_tree.json").read_text())


INSTANCES = {
    "star_64_4": lambda: build_star(64, 4),
    "random_40": lambda: build_random_tree(40, 3, 0.1, 9),
    "seed109": lambda: miss_tree("seed109"),
    "seed1011": lambda: miss_tree("seed1011"),
}


@pytest.fixture(scope="module", params=sorted(INSTANCES))
def instance(request):
    return INSTANCES[request.param]()


def sweep_vertices(tree):
    """The root, two of its children and one vertex two levels down, where they exist."""
    kids = list(tree.children[tree.root][:2])
    grandkids = [g for c in kids for g in tree.children[c]][:1]
    return [tree.root, *kids, *grandkids]


def uncached_estimate_res(tree, v, cfg, rng, sim):
    """The sweep without the sweep table: each stage forms its AE law and bins every draw.

    The law is ``ae_outcome_distribution`` at the angle of ``sim.pe_stats``'s
    zero-outcome probability.  A draw votes when its cell lies in the window
    ``[lo, hi]``; the exit stage's estimate comes from ``_modal_estimate``
    over the cell counts.
    """
    plan = algorithms._sweep_plan(cfg, tree.depth_bound, tree.degree_bound, tree.size_bound)
    for eta, s_pe, _ in plan.stages:
        p_zero, _ = sim.pe_stats(v, eta, s_pe)
        probs = ae_outcome_distribution(float(np.arcsin(np.sqrt(p_zero))), plan.s_ae)
        cdf = choice_cdf(probs / probs.sum())
        cells = cdf.searchsorted(rng.random(plan.reps), side="right")
        if 2 * int(np.count_nonzero((plan.lo <= cells) & (cells <= plan.hi))) > plan.reps:
            counts = np.bincount(cells, minlength=plan.grid.size)
            tan_b = math.tan(algorithms._modal_estimate(plan.grid, plan.order, counts))
            return math.inf if tan_b == 0.0 else eta / tan_b**2
    return math.inf


def same_stream(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


class TestHotEqualsFresh:
    def test_estimate_res(self, instance):
        tree, oracle = instance
        hot, ref = WalkSimulator(tree, oracle), WalkSimulator(tree, oracle)
        for seed in range(4):
            for v in sweep_vertices(tree):
                hot_rng, fresh_rng = same_stream(seed)
                ref_rng = np.random.default_rng(seed)
                got, got_rec = estimate_res(tree, oracle, v, CFG, hot_rng, hot)
                want, want_rec = estimate_res(tree, oracle, v, CFG, fresh_rng)
                assert got_rec.as_row() == want_rec.as_row()
                assert hot_rng.bit_generator.state == fresh_rng.bit_generator.state
                # the exit stage's mode is _modal_estimate's over the same draws
                assert got == uncached_estimate_res(tree, v, CFG, ref_rng, ref)
                assert ref_rng.bit_generator.state == hot_rng.bit_generator.state

    @pytest.mark.parametrize(
        "search",
        [
            lambda t, o, rng, sim: find_marked(t, o, CFG, rng, sim),
            lambda t, o, rng, sim: find_marked(t, o, CFG, rng, sim, 4),
            lambda t, o, rng, sim: k_doubling_find(t, o, CFG, rng, sim),
        ],
        ids=["find_marked", "find_marked_k4", "k_doubling_find"],
    )
    def test_searches(self, instance, search):
        tree, oracle = instance
        hot = WalkSimulator(tree, oracle)
        for seed in range(4):
            hot_rng, fresh_rng = same_stream(seed)
            got, got_rec = search(tree, oracle, hot_rng, hot)
            want, want_rec = search(tree, oracle, fresh_rng, None)
            assert got == want
            assert got_rec.as_row() == want_rec.as_row()
            assert hot_rng.bit_generator.state == fresh_rng.bit_generator.state

    @pytest.mark.parametrize("search", [k_doubling_find, classical_descent])
    def test_two_configurations_share_a_simulator(self, search):
        # past depth 20 the fallback's per-level configuration differs from cfg, so its sweeps
        # form their own AE laws at vertices the loop's sweeps reached
        tree, oracle = build_path(24, False)
        hot = WalkSimulator(tree, oracle)
        for seed in range(3):
            hot_rng, fresh_rng = same_stream(seed)
            estimate_res(tree, oracle, tree.root, CFG, hot_rng, hot)
            estimate_res(tree, oracle, tree.root, CFG, fresh_rng)
            got, got_rec = search(tree, oracle, CFG, hot_rng, hot)
            want, want_rec = search(tree, oracle, CFG, fresh_rng)
            assert got == want
            assert got_rec.as_row() == want_rec.as_row()
            assert hot_rng.bit_generator.state == fresh_rng.bit_generator.state
        assert len(hot._plans) == 2

    def test_find_all_rounds(self, instance, monkeypatch):
        # find_all shares one simulator across its rounds and unmarks; the
        # reference gives every round a fresh one
        tree, oracle = instance
        original = algorithms.find_marked
        hot_rng, fresh_rng = same_stream(5)
        got, got_rec = find_all(tree, oracle, CFG, hot_rng)
        monkeypatch.setattr(
            algorithms, "find_marked", lambda t, o, cfg, rng, sim=None: original(t, o, cfg, rng)
        )
        want, want_rec = find_all(tree, oracle, CFG, fresh_rng)
        assert got == want
        assert got_rec.as_row() == want_rec.as_row()
        assert hot_rng.bit_generator.state == fresh_rng.bit_generator.state


def grover_stars_job(seed, job):
    """perfbench's ``grover_stars`` job: 250 doubling trials per star, one simulator per star."""
    for s, n in enumerate((64, 128, 256, 512)):
        tree, oracle = build_star(n, 4)
        sim = WalkSimulator(tree, oracle)
        for t in range(250):
            rng = np.random.default_rng(np.random.SeedSequence([seed, job, s, t]))
            k_doubling_find(tree, oracle, CFG, rng, sim)


def findall_random_job(seed, job):
    """perfbench's ``findall_random`` job: ``find_all`` on 24 random trees of 30..90 vertices."""
    shape_seeds = np.random.SeedSequence([seed, job]).generate_state(24)
    for i, n in enumerate(np.linspace(30, 90, 24).round().astype(int)):
        tree, _ = build_random_tree(int(n), 3, 0.0, int(shape_seeds[i]))
        marks = np.zeros(int(n), dtype=bool)
        pick = np.random.default_rng(np.random.SeedSequence([seed, job, i, 1]))
        marks[1 + pick.choice(int(n) - 1, size=max(1, round(0.03 * n)), replace=False)] = True
        rng = np.random.default_rng(np.random.SeedSequence([seed, job, i, 2]))
        find_all(tree, MarkingOracle(marks, tree.root), CFG, rng)


class TestLazyFill:
    def test_ae_laws_are_asked_only_for_reached_stages(self, instance, monkeypatch):
        # each estimate_res call forms the laws of exactly the stages no earlier sweep at
        # (v, cfg) reached
        tree, oracle = instance
        sim = WalkSimulator(tree, oracle)
        computed, reached = [], {}
        original_dist, original_res = algorithms.ae_outcome_distribution, algorithms.estimate_res

        def counted_dist(theta, s):
            computed.append(s)
            return original_dist(theta, s)

        def recorded_res(tree, oracle, v, cfg, rng, sim=None):
            before = len(computed)
            estimate, rec = original_res(tree, oracle, v, cfg, rng, sim)
            stages = rec.f_queries // len(tree.subtree_vertices(v))
            deepest = reached.get((v, cfg), 0)
            assert len(computed) - before == max(0, stages - deepest)
            reached[v, cfg] = max(deepest, stages)
            return estimate, rec

        monkeypatch.setattr(algorithms, "ae_outcome_distribution", counted_dist)
        monkeypatch.setattr(algorithms, "estimate_res", recorded_res)
        for seed in range(6):
            k_doubling_find(tree, oracle, CFG, np.random.default_rng(seed), sim)
        assert len(computed) == sum(reached.values()) > 0

    @pytest.mark.parametrize(
        "job, spectra, laws",
        [(grover_stars_job, 27, 22), (findall_random_job, 540, 438)],
        ids=["grover_stars", "findall_random"],
    )
    def test_benchmark_job_computes_the_same_laws(self, monkeypatch, job, spectra, laws):
        # the counts of job 1 of seed 7, recorded before the tables existed
        calls = {"spectral": 0, "ae": 0}
        spectral, ae = WalkSimulator.spectral, algorithms.ae_outcome_distribution

        def counted_spectral(self, v, eta):
            calls["spectral"] += 1
            return spectral(self, v, eta)

        def counted_ae(theta, s):
            calls["ae"] += 1
            return ae(theta, s)

        monkeypatch.setattr(WalkSimulator, "spectral", counted_spectral)
        monkeypatch.setattr(algorithms, "ae_outcome_distribution", counted_ae)
        job(7, 1)
        assert calls == {"spectral": spectra, "ae": laws}


class TestTables:
    def test_unmark_clears_both_tables(self):
        tree, oracle = build_star(64, 4)
        sim = WalkSimulator(tree, oracle)
        for seed in range(10):
            k_doubling_find(tree, oracle, CFG, np.random.default_rng(seed), sim)
        assert sim._sweeps and sim._descents
        oracle.unmark(oracle.marked_vertices()[0])
        _, size, stages = sim.sweep(tree.root, CFG)
        assert (size, stages) == (tree.n_vertices, []) and list(sim._sweeps) == [(tree.root, CFG)]
        assert sim._descents == {}
        for seed in range(10):
            hot_rng, fresh_rng = same_stream(seed)
            _, got = k_doubling_find(tree, oracle, CFG, hot_rng, sim)
            _, want = k_doubling_find(tree, oracle, CFG, fresh_rng)
            assert got.as_row() == want.as_row()
            assert hot_rng.bit_generator.state == fresh_rng.bit_generator.state

    def test_unmark_keeps_the_plan_and_clears_the_stages(self):
        tree, oracle = build_star(64, 4)
        sim = WalkSimulator(tree, oracle)
        for seed in range(5):
            estimate_res(tree, oracle, tree.root, CFG, np.random.default_rng(seed), sim)
        plan, _, stages = sim.sweep(tree.root, CFG)
        assert stages
        oracle.unmark(oracle.marked_vertices()[0])
        twin = EstimateResConfig()
        assert twin is not CFG
        entry = sim.sweep(tree.root, twin)
        assert entry[0] is plan and entry[2] == []
        assert sim.sweep(tree.root, CFG) is entry and list(sim._plans) == [CFG]

    def test_sweeps_are_keyed_by_configuration_value(self):
        tree, oracle = build_star(64, 4)
        sim = WalkSimulator(tree, oracle)
        estimate_res(tree, oracle, tree.root, CFG, np.random.default_rng(0), sim)
        entry = sim.sweep(tree.root, CFG)
        twin = EstimateResConfig()
        assert twin is not CFG
        for seed in range(5):
            estimate_res(tree, oracle, tree.root, twin, np.random.default_rng(seed), sim)
        assert list(sim._sweeps) == [(tree.root, CFG)] and list(sim._plans) == [CFG]
        assert sim.sweep(tree.root, twin) is entry

    def test_descent_ancillas_follow_the_guess(self):
        tree, oracle = build_star(64, 4)
        sim = WalkSimulator(tree, oracle)
        s1, size, ids = sim.descent(tree.root, 0.25, 1)
        s8, _, same_ids = sim.descent(tree.root, 0.25, 8)
        assert size == tree.n_vertices and ids is same_ids == sim.subtree(tree.root).ids
        assert s8 > s1
        assert sim.descent(tree.root, 0.25, 1)[0] == s1


class TestTracedSites:
    """perfbench's ``algorithms.pe_accept_ratio`` reads one ``pe_stats`` call per phase-estimation round."""

    def test_every_pe_round_reads_pe_stats(self, monkeypatch):
        tree, oracle = build_random_tree(40, 3, 0.1, 9)
        sim = WalkSimulator(tree, oracle)
        original_pe, original_res = sim.pe_stats, algorithms.estimate_res
        depth, rounds, sweeps = [], [], []

        def recorded_res(*args):
            depth.append(None)
            try:
                estimate, rec = original_res(*args)
            finally:
                depth.pop()
            sweeps.append(rec.walk_queries)
            return estimate, rec

        def recorded_pe(v, eta, s):
            if not depth:
                rounds.append(s)
            return original_pe(v, eta, s)

        monkeypatch.setattr(sim, "pe_stats", recorded_pe)
        monkeypatch.setattr(algorithms, "estimate_res", recorded_res)
        for seed in range(20):
            rounds.clear()
            sweeps.clear()
            _, rec = find_marked(tree, oracle, CFG, np.random.default_rng(seed), sim)
            assert len(rounds) >= rec.steps
            assert sum(2**s - 1 for s in rounds) == rec.walk_queries - sum(sweeps)
