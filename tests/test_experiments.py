"""The experiment suites: statistical gates fail cleanly, reports time each suite."""

import math
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qbacktrack import experiments
from qbacktrack.descent import descent_step_counts
from qbacktrack.estimation import gate_level_pe, total_variation
from qbacktrack.experiments import suite_descent_monte_carlo, suite_search_statistics
from qbacktrack.walk import build_walk_operator, szegedy_spectrum
from conftest import whole_joint

CHAINS = {"single_edge", "star_10_4", "path_5", "random_40"}
# Fewer trials than the acceptance run keeps these fast; every fault below
# is rejected at the default family-wise alpha by a wide margin.
TRIALS = 20_000


def failed_checks(suite):
    return {(f["instance"], f["check"]) for f in suite.failures}


def test_descent_gate_passes_correct_sampler():
    suite = suite_descent_monte_carlo(trials=TRIALS)
    assert suite.passed, suite.failures
    assert suite.checked == 2 * len(CHAINS)
    assert suite.stats["alpha"] == 1e-3
    assert "1e-3" in suite_descent_monte_carlo.__doc__


def test_descent_gate_rejects_sampler_ignoring_weights(monkeypatch):
    def uniform_rows(dc, trials, rng):
        flat = {v: np.ones_like(p) / p.size for v, p in dc.probs.items()}
        return descent_step_counts(replace(dc, probs=flat), trials, rng)

    monkeypatch.setattr(experiments, "descent_step_counts", uniform_rows)
    suite = suite_descent_monte_carlo(trials=TRIALS)
    # path_5 and the stars already have uniform rows; random_40 does not
    assert failed_checks(suite) == {("random_40", "chi2_goodness_of_fit")}
    assert suite.stats["random_40"]["mc_mean"] > suite.stats["random_40"]["exact_mean"] + 0.3


def test_descent_gate_rejects_counts_shifted_by_one(monkeypatch):
    monkeypatch.setattr(
        experiments, "descent_step_counts", lambda dc, t, rng: descent_step_counts(dc, t, rng) + 1
    )
    suite = suite_descent_monte_carlo(trials=TRIALS)
    assert {name for name, _ in failed_checks(suite)} == CHAINS
    assert ("random_40", "chi2_goodness_of_fit") in failed_checks(suite)


def test_descent_gate_rejects_one_count_outside_support(monkeypatch):
    def one_zero(dc, trials, rng):
        steps = descent_step_counts(dc, trials, rng)
        steps[0] = 0  # the root is never marked here, so T = 0 has probability 0
        return steps

    monkeypatch.setattr(experiments, "descent_step_counts", one_zero)
    suite = suite_descent_monte_carlo(trials=TRIALS)
    assert failed_checks(suite) == {(name, "steps_inside_support") for name in CHAINS}


def test_search_statistics_fails_instead_of_running_out_of_seeds(monkeypatch):
    monkeypatch.setattr(experiments, "find_marked", lambda *args, **kwargs: (None, None))
    suite = suite_search_statistics(corpus=[], chi2_runs=10, find_all_trees=0)
    assert not suite.passed
    assert suite.stats["success_rate"] == 0.0
    assert ("star_64_4", "leaf_uniformity_chi2") in failed_checks(suite)
    assert ("star_64_4", "success_rate") in failed_checks(suite)



def test_star_import_binds_the_suites():
    namespace = {}
    exec("from qbacktrack.experiments import *", namespace)
    for name in (
        "suite_estimate_res_statistics",
        "suite_search_statistics",
        "suite_descent_monte_carlo",
        "DESCENT_MC_ALPHA",
    ):
        assert namespace[name] is getattr(experiments, name)


def test_verify_all_times_each_suite_apart():
    corpus = experiments.default_corpus(count=5)
    start = time.perf_counter()
    report = experiments.verify_all(corpus)
    wall = time.perf_counter() - start
    assert report.passed
    assert all(suite.elapsed > 0.0 for suite in report.suites.values())
    assert report.bundle_s > 0.0
    assert report.bundle_s + sum(suite.elapsed for suite in report.suites.values()) <= wall
    assert report.as_dict()["bundle_s"] == round(report.bundle_s, 3)


def test_bundle_suites_form_no_dense_walk():
    # the per-tree suites apply each walk from its stars; in verify_all only the circuit reads matrix
    for inst in experiments.default_corpus(count=10, master_seed=5):
        if not inst.has_marks:
            continue
        bundle = experiments._tree_bundle(inst, None)
        for name, check in experiments._PER_TREE_SUITES.items():
            suite = experiments.SuiteResult(name)
            check(suite, bundle)
            assert suite.passed, suite.failures
        for _, op in bundle.walks:
            assert "matrix" not in op.__dict__
    assert op.matrix is op.__dict__["matrix"]  # the guard sees a formed walk


def test_backend_equivalence_peak_memory():
    # the circuit's register is the one joint-sized array; the spectral law comes a block at a time
    joint_bytes = (1 << 17) * 32 * np.dtype(float).itemsize  # star_31_4_s17
    tracemalloc.start()
    try:
        suite = experiments.suite_backend_equivalence()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert suite.passed, suite.failures
    assert peak <= 1.5 * joint_bytes


def test_backend_equivalence_streamed_residual_is_whole_joint_tv():
    # tol -1 fails every instance, so each residual is recorded
    streamed = {f["instance"]: f["residual"] for f in experiments.suite_backend_equivalence(tol=-1.0).failures}
    rows = experiments.backend_equivalence_instances()
    assert sorted(streamed) == sorted(row[0] for row in rows)
    for name, tree, oracle, eta, s in rows:
        op = build_walk_operator(tree, oracle, eta)
        root = np.zeros(tree.n_vertices)
        root[tree.root] = 1.0
        whole = total_variation(
            whole_joint(szegedy_spectrum(op), root, s).ravel(), gate_level_pe(op, root, s).ravel()
        )
        assert streamed[name] == whole, name


def test_verify_all_rejects_unknown_fault_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("verify_all did work before checking the fault name")

    monkeypatch.setattr(experiments, "_per_tree_suites", no_work)
    with pytest.raises(ValueError, match="unknown fault 'typo'"):
        experiments.verify_all(experiments.fixture_instances(), inject_fault="typo")


@pytest.mark.parametrize("sizes", [[64], [64, 64], []])
def test_grover_scaling_needs_two_distinct_sizes(sizes):
    with pytest.raises(ValueError, match="two distinct sizes"):
        experiments.grover_scaling(sizes, 4, trials=2, seed=0)


@pytest.mark.parametrize("trials", [0, -1])
def test_grover_scaling_needs_a_trial(trials):
    with pytest.raises(ValueError, match="trials must be at least 1"):
        experiments.grover_scaling([8, 16], 1, trials, seed=0)


@pytest.mark.parametrize("seed", [3, 11])
def test_every_verify_all_spectrum_is_orthonormal(monkeypatch, seed):
    # the bundle spectra and the backend suite's alike are Szegedy's; none is Schur's (ROADMAP item 0)
    built = []

    def recording(op, build=experiments.szegedy_spectrum):
        built.append((op.tree.n_vertices, build(op)))
        return built[-1][1]

    monkeypatch.setattr(experiments, "szegedy_spectrum", recording)
    corpus = experiments.default_corpus(count=20, master_seed=seed)
    experiments.verify_all(corpus)
    n_bundles = sum(inst.has_marks for inst in corpus)
    assert len(built) == n_bundles + len(experiments.backend_equivalence_instances())
    for n, sd in built:
        assert np.linalg.norm(sd.vectors.conj().T @ sd.vectors - np.eye(n)) <= 1e-10


@pytest.mark.parametrize("residuals", [[1e-12, math.nan], [math.nan, 1e-12], [math.nan, 2.0, 0.0]])
def test_suite_result_keeps_a_nan_residual(residuals):
    suite = experiments.SuiteResult("nan_residual")
    for residual in residuals:
        suite.update("x", residual, 1e-10)
    assert not suite.passed
    assert math.isnan(suite.max_residual)


@pytest.mark.parametrize("chi2_runs", [0, -1])
def test_search_statistics_needs_a_run(chi2_runs):
    with pytest.raises(ValueError, match="chi2_runs must be at least 1"):
        suite_search_statistics(corpus=[], chi2_runs=chi2_runs, find_all_trees=0)
