"""Descent chain: transition law, hitting times, the sampler's stream, and the quantum link."""

import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from qbacktrack import (
    build_path,
    build_random_tree,
    build_star,
    build_walk_operator,
    kappa_assignment,
    pe_ancillas,
    pe_distribution,
    resistance_profile,
    shallowest_marked,
    solution_tree,
    szegedy_spectrum,
    total_variation,
)
from qbacktrack.descent import (
    BLOCK,
    absorption_fit,
    absorption_pmf,
    descent_chain,
    descent_step_counts,
    exact_hitting_times,
    hitting_time_bound,
    simulate_descent,
)
from qbacktrack.experiments import DESCENT_MC_ALPHA, default_corpus, fixture_instances
from qbacktrack.resistance import kappa_eta
from qbacktrack.trees import MarkedSet, tree_from_children


def per_vertex_hitting_bound(dc):
    """Refined per-vertex bound: a kappa-weighted log over the leaves below.

    ``E_v <= sum_m (kappa_m / kappa_v) log2(kappa_v (eta(v) + 1) / kappa_m)``
    over the marked leaves below ``v``.
    """
    kappa = dc.kappa
    eta = kappa_eta(dc.st, kappa)
    out = np.full(dc.st.tree.n_vertices, np.nan)
    for v in dc.st.order:
        total = 0.0
        for m in dc.st.below[v]:
            total += (kappa[m] / kappa[v]) * math.log2(kappa[v] * (eta[v] + 1.0) / kappa[m])
        out[v] = total
    return out


def chain_for(builder, *args, **kwargs):
    tree, oracle = builder(*args, **kwargs)
    st = solution_tree(tree, shallowest_marked(tree, oracle))
    return tree, oracle, descent_chain(st, kappa_assignment(st, resistance_profile(st)))


def brute_force_hitting_time(dc, root):
    """Independent oracle: absorbing-chain linear system over the支 support."""
    order = [v for v in dc.st.order]
    idx = {v: i for i, v in enumerate(order)}
    n = len(order)
    a = np.eye(n)
    b = np.zeros(n)
    for v in order:
        if v in dc.st.leaf_set.members:
            continue
        b[idx[v]] = 1.0
        for t, p in zip(dc.targets[v], dc.probs[v]):
            a[idx[v], idx[t]] -= p
    sol = np.linalg.solve(a, b)
    return float(sol[idx[root]])


class TestChainLaw:
    def test_rows_sum_to_one_and_absorb_at_leaves(self):
        tree, _, dc = chain_for(build_random_tree, 60, 3, 0.15, 4)
        for v in dc.st.order:
            if v in dc.st.leaf_set.members:
                assert dc.targets[v].size == 0
            else:
                assert dc.probs[v].sum() == pytest.approx(1.0, abs=1e-12)
                # strict descendants only
                assert v not in set(dc.targets[v].tolist())

    def test_star_first_step_hits_leaves_uniformly(self):
        _, _, dc = chain_for(build_star, 8, 4)
        probs = dict(zip(dc.targets[0].tolist(), dc.probs[0]))
        for leaf in (1, 2, 3, 4):
            assert probs[leaf] == pytest.approx(0.25)

    def test_path_first_step_uniform(self):
        _, _, dc = chain_for(build_path, 4, True)
        assert np.allclose(dc.probs[0], 0.25)


class TestHittingTimes:
    def test_single_edge_meets_bound_with_equality(self):
        _, _, dc = chain_for(build_star, 1, 1)
        ht = exact_hitting_times(dc)
        assert ht.root_value == pytest.approx(1.0)
        assert hitting_time_bound(dc) == pytest.approx(1.0)

    def test_star_one_step(self):
        _, _, dc = chain_for(build_star, 12, 5)
        assert exact_hitting_times(dc).root_value == pytest.approx(1.0)
        assert hitting_time_bound(dc) == pytest.approx(math.log2(6))

    def test_path_dp_value(self):
        _, _, dc = chain_for(build_path, 5, True)
        ht = exact_hitting_times(dc)
        # hand recursion: E5=0, E4=1, E3=3/2, E2=11/6, E1=25/12, Er=137/60
        assert ht.root_value == pytest.approx(137 / 60, rel=1e-12)
        assert ht.root_value <= hitting_time_bound(dc)

    def test_dp_matches_linear_system_on_random_trees(self):
        count = 0
        seed = 0
        while count < 12:
            seed += 1
            tree, oracle = build_random_tree(70, 3, 0.15, seed)
            marked = shallowest_marked(tree, oracle)
            if not marked.members:
                continue
            st = solution_tree(tree, marked)
            dc = descent_chain(st, kappa_assignment(st, resistance_profile(st)))
            dp = exact_hitting_times(dc).root_value
            assert dp == pytest.approx(brute_force_hitting_time(dc, tree.root), rel=1e-10)
            assert dp <= hitting_time_bound(dc) + 1e-12
            count += 1

    def test_per_vertex_refinement_dominates_dp(self):
        for args in [(build_path, 6, True), (build_star, 9, 3)]:
            _, _, dc = chain_for(*args)
            ht = exact_hitting_times(dc)
            bound = per_vertex_hitting_bound(dc)
            for v in dc.st.order:
                if v not in dc.st.leaf_set.members:
                    assert ht.expected[v] <= bound[v] + 1e-9


def stirling_first(n):
    """Unsigned Stirling numbers of the first kind c(n, k), k = 0..n."""
    row = [1]
    for m in range(n):  # c(m+1, k) = m c(m, k) + c(m, k-1)
        row = [m * a + b for a, b in zip(row + [0], [0] + row)]
    return row


class TestAbsorptionLaw:
    def test_single_edge_point_mass_at_one(self):
        _, _, dc = chain_for(build_star, 1, 1)
        assert absorption_pmf(dc).tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_path_follows_records_law(self, n):
        # uniform rows over the descendants: the step count is the number of
        # records of a random permutation of n
        _, _, dc = chain_for(build_path, n, True)
        assert sum(stirling_first(n)) == math.factorial(n)
        want = np.asarray(stirling_first(n), dtype=float) / math.factorial(n)
        assert np.allclose(absorption_pmf(dc), want, rtol=1e-12, atol=0)

    def test_sums_to_one_and_mean_matches_dp(self):
        instances = fixture_instances() + default_corpus(count=15, master_seed=5)
        checked = 0
        for inst in instances:
            if not inst.has_marks:
                continue
            st = solution_tree(inst.tree, inst.marked)
            dc = descent_chain(st, kappa_assignment(st, resistance_profile(st)))
            pmf = absorption_pmf(dc)
            assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
            assert pmf.min() >= 0.0
            mean = float(np.arange(pmf.size) @ pmf)
            assert mean == pytest.approx(exact_hitting_times(dc).root_value, rel=1e-12)
            checked += 1
        assert checked >= 12


class TestMonteCarlo:
    def test_single_edge_always_one_step(self):
        _, _, dc = chain_for(build_star, 1, 1)
        mean, _ = simulate_descent(dc, 200, np.random.default_rng(0))
        assert mean == 1.0

    def test_path_matches_exact_law(self):
        _, _, dc = chain_for(build_path, 5, True)
        steps = descent_step_counts(dc, 20_000, np.random.default_rng(1))
        fit = absorption_fit(absorption_pmf(dc), steps)
        assert fit.exact_mean == pytest.approx(exact_hitting_times(dc).root_value, rel=1e-12)
        assert fit.df == 4
        assert all(fit.checks(DESCENT_MC_ALPHA).values()), fit

    def test_step_counts_are_what_the_mean_summarises(self):
        _, _, dc = chain_for(build_random_tree, 40, 3, 0.1, 9)
        steps = descent_step_counts(dc, 500, np.random.default_rng(3))
        mean, err = simulate_descent(dc, 500, np.random.default_rng(3))
        assert mean == steps.mean()
        assert err == steps.std(ddof=1) / math.sqrt(500)

    def test_rejects_zero_trials(self):
        _, _, dc = chain_for(build_star, 2, 1)
        with pytest.raises(ValueError):
            simulate_descent(dc, 0, np.random.default_rng(0))


def choice_step_counts(dc, trials, rng):
    """Reference sampler: one ``rng.choice`` per trial per step."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    members = dc.st.leaf_set.members
    counts = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        v = dc.root
        steps = 0
        while v not in members:
            row_t = dc.targets[v]
            row_p = dc.probs[v]
            v = int(row_t[rng.choice(row_t.shape[0], p=row_p)])
            steps += 1
        counts[t] = steps
    return counts


def assert_same_stream(dc, trials, seed):
    """The sampler's counts and the generator's state afterwards equal the reference's."""
    want_rng = np.random.default_rng(seed)
    got_rng = np.random.default_rng(seed)
    want = choice_step_counts(dc, trials, want_rng)
    got = descent_step_counts(dc, trials, got_rng)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    return got


CRITERION_9_CHAINS = {
    "single_edge": (build_star, 1, 1),
    "star_10_4": (build_star, 10, 4),
    "path_5": (build_path, 5, True),
    "random_40": (build_random_tree, 40, 3, 0.1, 9),
}


class TestSamplerStream:
    @pytest.mark.parametrize("name", sorted(CRITERION_9_CHAINS))
    def test_criterion_9_chains(self, name):
        _, _, dc = chain_for(*CRITERION_9_CHAINS[name])
        assert_same_stream(dc, 20_000, 20240913 + 7)

    @pytest.mark.parametrize("master_seed", [1, 2])
    def test_corpus_descent_phase(self, master_seed):
        checked = 0
        for i, inst in enumerate(default_corpus(count=20, master_seed=master_seed)):
            if not inst.has_marks:
                continue
            st = solution_tree(inst.tree, inst.marked)
            dc = descent_chain(st, kappa_assignment(st, resistance_profile(st)))
            trials = math.ceil(2000 / exact_hitting_times(dc).root_value)
            assert_same_stream(dc, trials, [master_seed, i])
            checked += 1
        assert checked >= 10

    def test_absorbing_root_draws_nothing(self):
        tree = tree_from_children([()])
        dc = descent_chain(solution_tree(tree, MarkedSet(members=frozenset({0}))), np.ones(1))
        assert not assert_same_stream(dc, 50, 5).any()
        rng = RecordingRng(5)
        descent_step_counts(dc, 50, rng)
        assert rng.sizes == []

    def test_draw_on_a_cdf_step_goes_right(self):
        # root row of path_2 is (to 1, to 2); put its first CDF step exactly
        # on the first double of seed 0, which choice sends past the step
        _, _, dc = chain_for(build_path, 2, True)
        u = np.random.default_rng(0).random()
        row = np.array([u, 1.0 - u])
        assert row.cumsum().tolist() == [u, 1.0]
        counts = assert_same_stream(with_row(dc, dc.root, row), 1, 0)
        assert counts.tolist() == [1]

    def test_more_trials_than_one_block(self):
        _, _, dc = chain_for(build_path, 3, True)
        assert_same_stream(dc, BLOCK + 1_000, 11)

    @settings(max_examples=40, deadline=None)
    @given(
        size=hst.integers(2, 40),
        degree=hst.integers(2, 4),
        mark_prob=hst.floats(0.05, 0.6),
        tree_seed=hst.integers(0, 2**32 - 1),
        trials=hst.integers(1, 300),
        rng_seed=hst.integers(0, 2**63 - 1),
    )
    def test_random_trees(self, size, degree, mark_prob, tree_seed, trials, rng_seed):
        tree, oracle = build_random_tree(size, degree, mark_prob, tree_seed)
        marked = shallowest_marked(tree, oracle)
        assume(marked.members)
        st = solution_tree(tree, marked)
        dc = descent_chain(st, kappa_assignment(st, resistance_profile(st)))
        assert_same_stream(dc, trials, rng_seed)


class RecordingRng:
    """Forwards ``random(size)`` to a real generator and records each ``size``."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.sizes = []

    def random(self, size):
        self.sizes.append(size)
        return self.rng.random(size)


class TestSamplerDraws:
    @pytest.mark.parametrize("name", ["star_10_4", "path_5", "random_40"])
    def test_blocks_bounded_and_never_overdraw(self, name):
        _, _, dc = chain_for(*CRITERION_9_CHAINS[name])
        rng = RecordingRng(3)
        counts = descent_step_counts(dc, 3 * BLOCK + 17, rng)
        assert rng.sizes[0] == BLOCK
        assert max(rng.sizes) <= BLOCK
        assert sum(rng.sizes) == counts.sum()


def with_row(dc, v, row):
    return replace(dc, probs={**dc.probs, v: np.asarray(row, dtype=float)})


class TestRowChecks:
    """The checks ``Generator.choice`` made on each row it sampled, now made up front."""

    @pytest.mark.parametrize(
        "row, message",
        [
            ([np.nan, 0.25, 0.25, 0.25, 0.25], "NaN"),
            ([-0.25, 0.5, 0.25, 0.25, 0.25], "non-negative"),
            ([0.25, 0.25, 0.25, 0.25, 0.25], "sum to 1"),
            ([0.5, 0.5], "as long as its targets"),
            ([], "non-empty"),
        ],
    )
    def test_bad_root_row_rejected(self, row, message):
        _, _, dc = chain_for(build_path, 5, True)
        bad = with_row(dc, dc.root, row)
        with pytest.raises(ValueError):
            choice_step_counts(bad, 10, np.random.default_rng(0))
        with pytest.raises(ValueError, match=message):
            descent_step_counts(bad, 10, np.random.default_rng(0))

    def test_sum_within_tolerance_accepted(self):
        _, _, dc = chain_for(build_path, 5, True)
        close = with_row(dc, dc.root, [0.2, 0.2, 0.2, 0.2, 0.2 + 1e-9])
        assert_same_stream(close, 200, 0)

    def test_row_no_trial_reaches_is_checked(self):
        # at seed 4 the one trial jumps from the root of path_5 straight to
        # the marked leaf, so the reference never reads vertex 4's row
        _, _, dc = chain_for(build_path, 5, True)
        bad = with_row(dc, 4, [np.nan])
        assert choice_step_counts(bad, 1, np.random.default_rng(4)).tolist() == [1]
        with pytest.raises(ValueError, match="NaN"):
            descent_step_counts(bad, 1, np.random.default_rng(4))


# The asserted bound of quantum_vs_chain_check is this multiple of delta.
CHAIN_TV_FACTOR = 10.0


@dataclass(frozen=True)
class ChainCheckReport:
    tv_distance: float
    bound: float
    delta: float
    quantum_law: dict[int, float]
    chain_law: dict[int, float]

    @property
    def passed(self) -> bool:
        return self.tv_distance <= self.bound


def quantum_vs_chain_check(tree, oracle, eta, delta):
    """Compare the PE-conditioned non-root vertex law with the chain's first step.

    Phase estimation runs at the standard precision for ``delta`` on the walk
    at weight ``eta``, read from its Szegedy spectrum; the conditional vertex
    distribution given the zero ancilla outcome, restricted to non-root
    vertices and renormalized, is compared in total variation to the chain
    law ``kappa_u^2`` (normalized).  The asserted bound is
    ``CHAIN_TV_FACTOR * delta``.
    """
    marked = shallowest_marked(tree, oracle)
    st = solution_tree(tree, marked)
    dc = descent_chain(st, kappa_assignment(st, resistance_profile(st)))
    sd = szegedy_spectrum(build_walk_operator(tree, marked, eta))
    root_state = np.zeros(tree.n_vertices)
    root_state[tree.root] = 1.0
    _, cond = pe_distribution(sd, root_state, pe_ancillas(tree.size_bound, eta, delta))
    cond[tree.root] = 0.0
    cond /= cond.sum()
    chain = np.zeros(tree.n_vertices)
    chain[dc.targets[tree.root]] = dc.probs[tree.root]
    keep = lambda arr: {int(v): float(arr[v]) for v in range(tree.n_vertices) if arr[v] > 1e-15}
    return ChainCheckReport(
        tv_distance=total_variation(cond, chain),
        bound=CHAIN_TV_FACTOR * delta,
        delta=delta,
        quantum_law=keep(cond),
        chain_law=keep(chain),
    )


class TestQuantumLink:
    def test_star_matches_loose_bound(self):
        tree, oracle = build_star(8, 2)
        st = solution_tree(tree, shallowest_marked(tree, oracle))
        eta = resistance_profile(st).eta_root
        report = quantum_vs_chain_check(tree, oracle, eta, 0.05)
        assert report.passed
        assert report.tv_distance <= 0.5

    def test_single_edge_point_mass(self):
        tree, oracle = build_star(1, 1)
        report = quantum_vs_chain_check(tree, oracle, 1.0, 0.05)
        assert report.tv_distance <= 0.05
        assert report.chain_law == {1: 1.0}

    def test_path_uniform_law_matches(self):
        tree, oracle = build_path(4, True)
        report = quantum_vs_chain_check(tree, oracle, 4.0, 0.05)
        assert report.chain_law == pytest.approx({1: 0.25, 2: 0.25, 3: 0.25, 4: 0.25})
        assert report.tv_distance <= 0.05
