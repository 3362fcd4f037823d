"""Acceptance criteria, one test per criterion, at their stated tolerances.

Runs over the standard corpus (500 seeded random trees up to 500 vertices,
plus fixtures).  Each test prints one PASS/FAIL line; run with ``-s`` to see
them stream.  The spectral invariant suites execute once in a session
fixture and are asserted per criterion.
"""

import math
import time

import numpy as np
import pytest

from qbacktrack import (
    build_path,
    build_star,
    kappa_assignment,
    resistance_bruteforce,
    resistance_profile,
    solution_tree,
)
from qbacktrack.algorithms import EstimateResConfig, WalkSimulator, find_marked
from qbacktrack.descent import (
    descent_chain,
    exact_hitting_times,
    hitting_time_bound,
)
from qbacktrack.experiments import (
    BACKEND_TV_TOL,
    CHI2_RUNS,
    DESCENT_MC_ALPHA,
    default_corpus,
    grover_scaling,
    suite_backend_equivalence,
    suite_descent_monte_carlo,
    suite_estimate_res_statistics,
    suite_search_statistics,
    verify_all,
)

CORPUS_COUNT = 500


def report(criterion: str, passed: bool, detail: str = "") -> None:
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] {criterion}" + (f" ({detail})" if detail else ""))
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def corpus():
    return default_corpus(count=CORPUS_COUNT)


@pytest.fixture(scope="module")
def invariant_report(corpus):
    return verify_all(corpus, include_statistical=False)


def test_criterion_01_resistance_oracle_equivalence(corpus):
    t0 = time.time()
    worst = 0.0
    checked = 0
    for inst in corpus:
        if not inst.has_marks:
            continue
        st = solution_tree(inst.tree, inst.marked)
        recursion = resistance_profile(st).eta_root
        laplacian = resistance_bruteforce(st)
        worst = max(worst, abs(recursion - laplacian) / laplacian)
        checked += 1
    elapsed = time.time() - t0
    report(
        "criterion 1: resistance recursion vs Laplacian brute force (rel 1e-9, <10 s)",
        worst <= 1e-9 and elapsed < 10.0,
        f"max rel dev {worst:.2e} over {checked} trees in {elapsed:.2f} s",
    )


def test_criterion_02_resistance_interval(invariant_report):
    suite = invariant_report.suites["resistance_interval"]
    report(
        "criterion 2: resistance inside [max(1/k, 1/d_r), n] corpus-wide",
        suite.passed and suite.checked > 0,
        f"{suite.checked} trees, {len(suite.failures)} violations",
    )


def test_criterion_03_kappa_identity_suite(invariant_report):
    suite = invariant_report.suites["kappa_identities"]
    report(
        "criterion 3: kappa identity suite at residual 1e-10",
        suite.passed,
        f"max residual {suite.max_residual:.2e} over {suite.checked} checks",
    )


def test_criterion_04_walk_fixed_points(invariant_report):
    suite = invariant_report.suites["walk_fixed_points"]
    report(
        "criterion 4: path vectors fixed (1e-10) and root overlap law (1e-12)",
        suite.passed,
        f"max residual {suite.max_residual:.2e} over {suite.checked} checks",
    )


def test_criterion_05_spectral_gap_witness(invariant_report):
    suite = invariant_report.suites["spectral_gap_witness"]
    report(
        "criterion 5: witness projector/norm conditions and small-phase bound",
        suite.passed,
        f"{suite.checked} checks, {len(suite.failures)} violations",
    )


def test_criterion_06_precision_law(invariant_report):
    suite = invariant_report.suites["estimation_precision_law"]
    report(
        "criterion 6: zero-outcome leak <= 10 delta^2 for delta in {0.2,0.1,0.05}",
        suite.passed and suite.checked > 0,
        f"{suite.checked} checks on trees up to 200 vertices",
    )


def test_criterion_07_estimate_res_statistics():
    t0 = time.time()
    suite = suite_estimate_res_statistics()
    elapsed = time.time() - t0
    report(
        "criterion 7: resistance estimates within envelope (95%) and unmarked infinity (95%), <5 min",
        suite.passed and elapsed < 300.0,
        f"hit rate {suite.stats['star_hit_rate']:.3f}, "
        f"inf rates {suite.stats['star_8_unmarked_inf_rate']:.3f}/"
        f"{suite.stats['path_5_unmarked_inf_rate']:.3f} in {elapsed:.1f} s",
    )


def test_criterion_08_find_marked_statistics(corpus):
    suite = suite_search_statistics(corpus)
    ok = (
        suite.passed
        and CHI2_RUNS == 2000
        and suite.stats["chi2"] < 11.34
        and suite.stats["find_all_trees"] >= 100
    )
    report(
        "criterion 8: returned vertices marked, leaf chi-square (p>0.01), find-all exact on 100 trees",
        ok,
        f"chi2 {suite.stats['chi2']:.2f}, recovered "
        f"{suite.stats['find_all_recovered']}/{suite.stats['find_all_trees']}",
    )


def test_criterion_09_descent_bound_and_monte_carlo(corpus, invariant_report):
    suite = invariant_report.suites["descent_hitting_bound"]
    # single-edge case meets the bound with equality, pinning the log base
    tree, oracle = build_star(1, 1)
    from qbacktrack import shallowest_marked

    st = solution_tree(tree, shallowest_marked(tree, oracle))
    dc = descent_chain(st, kappa_assignment(st, resistance_profile(st)))
    exact = exact_hitting_times(dc).root_value
    equality = exact == pytest.approx(1.0) and hitting_time_bound(dc) == pytest.approx(1.0)
    mc = suite_descent_monte_carlo()
    parts = {
        "corpus bound": suite.passed,
        "single-edge equality": equality,
        "exact-law gate": mc.passed,
    }
    failed = [part for part, ok in parts.items() if not ok]
    report(
        "criterion 9: hitting-time log2 bound corpus-wide, single-edge equality, "
        f"MC step counts fit the exact absorption law (chi-square, family-wise alpha {DESCENT_MC_ALPHA:g})",
        not failed,
        f"failed: {', '.join(failed) or 'none'}; {suite.checked} trees; "
        f"single edge E={exact:.3f}; gate failures {mc.failures}; MC stats {mc.stats}",
    )


def test_criterion_10_grover_scaling():
    t0 = time.time()
    fixed = grover_scaling([64, 128, 256, 512], 4, trials=8, seed=11)
    all_marked = grover_scaling([64, 128, 256, 512], "all", trials=8, seed=12)
    elapsed = time.time() - t0
    ok = (
        abs(fixed.slope - 0.5) <= 0.1
        and abs(all_marked.slope) <= 0.1
        and elapsed < 900.0
    )
    report(
        "criterion 10: query scaling slope 0.5 +- 0.1 (k=4), flat when all marked, <15 min",
        ok,
        f"slopes {fixed.slope:.3f} / {all_marked.slope:.3f} in {elapsed:.1f} s",
    )


def test_criterion_11_backend_equivalence():
    suite = suite_backend_equivalence()
    report(
        "criterion 11: spectral vs gate-level distributions within 1e-10 total variation",
        suite.passed and BACKEND_TV_TOL == 1e-10,
        f"max TV {suite.max_residual:.2e} over {suite.checked} instances",
    )
