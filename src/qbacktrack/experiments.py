"""Corpus generation, invariant suites, and the unstructured-search study.

Every structural claim the library relies on is re-checked here over a
seeded corpus of random trees plus hand fixtures: the two resistance
oracles, the kappa identity suite, walk fixed points, the spectral-gap
witness, the estimation precision law, backend equivalence, and the descent
hitting-time bound.  :func:`verify_all` runs everything in one pass per tree
and aggregates per-suite results; the statistical suites (estimation
accuracy, search statistics, query scaling) are heavier and gated behind
``include_statistical``.

All randomness descends from one 64-bit master seed: corpus trees draw
their seeds from ``numpy.random.SeedSequence(master_seed)``, and trial
generators are spawned per (instance, trial) index, so runs reproduce
bit for bit.  Everything runs in the calling thread.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .algorithms import (
    DELTA_AE, EstimateResConfig, WalkSimulator, estimate_res, find_all, find_marked, k_doubling_find
)
from .descent import (
    absorption_fit,
    absorption_pmf,
    descent_chain,
    descent_step_counts,
    exact_hitting_times,
    hitting_time_bound,
    simulate_descent,  # unused here; perfbench's tracer wraps it under this module
)
from .estimation import gate_level_pe, pe_ancillas, pe_distribution, pe_joint, pearson_chi2, total_variation
from .resistance import (
    ResistanceProfile,
    kappa_assignment,
    kappa_eta,
    resistance_bruteforce,
    resistance_profile,
    verify_kappa,
)
from .trees import (
    MarkedSet,
    MarkingOracle,
    SolutionTree,
    Tree,
    build_complete_tree,
    build_dpll_tree,
    build_path,
    build_random_tree,
    build_star,
    shallowest_marked,
    solution_tree,
)
from .walk import (
    SpectralDecomposition,
    WalkOperator,
    beta_angle,
    build_walk_operator,
    phi_m_state,
    phi_perp_state,
    phi_state,
    spectral_decomposition,  # unused here; perfbench's tracer wraps it under this module
    szegedy_spectrum,
    xi_vector,
)

__all__ = [
    "CorpusInstance",
    "SuiteResult",
    "VerifyReport",
    "GroverRow",
    "GroverResult",
    "default_corpus",
    "fixture_instances",
    "verify_all",
    "grover_scaling",
    "backend_equivalence_instances",
    "suite_backend_equivalence",
    "suite_estimate_res_statistics",
    "suite_search_statistics",
    "suite_descent_monte_carlo",
    "DESCENT_MC_ALPHA",
]

DEFAULT_MASTER_SEED = 20240913
# Largest tree the estimation precision suite runs on.
PRECISION_SIZE_CAP = 200
# Relative slack of the estimate_res accuracy envelope.
ENVELOPE_MARGIN = 0.5
# Family-wise false-alarm rate of the descent Monte Carlo gate.
DESCENT_MC_ALPHA = 1e-3
# Seeded runs of each estimate_res statistic.
ESTIMATE_RES_RUNS = 200


@dataclass
class CorpusInstance:
    name: str
    tree: Tree
    oracle: MarkingOracle
    marked: MarkedSet = None

    def __post_init__(self):
        if self.marked is None:
            self.marked = shallowest_marked(self.tree, self.oracle)

    @property
    def has_marks(self) -> bool:
        return bool(self.marked.members)


def fixture_instances() -> list[CorpusInstance]:
    """Hand fixtures exercising the closed-form cases."""
    out = []
    for name, built in [
        ("single_edge", build_star(1, 1)),
        ("star_64_4", build_star(64, 4)),
        ("star_8_3", build_star(8, 3)),
        ("star_8_unmarked", build_star(8, 0)),
        ("path_3_marked", build_path(3, True)),
        ("path_5_unmarked", build_path(5, False)),
        ("binary_depth3_marked", build_complete_tree(3, 2, mark_leaves=True)),
        ("dpll_single_clause", build_dpll_tree([(1,)], [1])),
        ("dpll_free_2vars", build_dpll_tree([], [1, 2])),
    ]:
        out.append(CorpusInstance(name, built[0], built[1]))
    return out


def default_corpus(count: int = 500, master_seed: int = DEFAULT_MASTER_SEED) -> list[CorpusInstance]:
    """Seeded random corpus plus fixtures.

    Sizes cycle through three bands (2..60, 61..200, 201..500) so that about
    two fifths of the corpus stays small enough for the search suites;
    degree bounds and marking densities cycle independently.
    """
    seeds = np.random.SeedSequence(master_seed).generate_state(count, dtype=np.uint64)
    degrees = (2, 3, 4, 6)
    probs = (0.02, 0.05, 0.1, 0.3)
    out = fixture_instances()
    for i in range(count):
        band = i % 5
        if band < 2:
            size = 2 + (i * 7 + band) % 59
        elif band < 4:
            size = 61 + (i * 11) % 140
        else:
            size = 201 + (i * 13) % 300
        tree, oracle = build_random_tree(
            size, degrees[i % 4], probs[(i // 4) % 4], int(seeds[i])
        )
        out.append(CorpusInstance(f"random_{i:03d}", tree, oracle))
    return out


@dataclass
class SuiteResult:
    name: str
    passed: bool = True
    checked: int = 0
    max_residual: float = 0.0
    failures: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def update(self, instance_name: str, residual: float, tol: float, what: str = "") -> None:
        """Record one residual; a NaN fails the check and holds ``max_residual`` at NaN."""
        self.checked += 1
        if residual > self.max_residual or math.isnan(residual):
            self.max_residual = residual
        if not (residual <= tol):
            self.passed = False
            self.failures.append({"instance": instance_name, "check": what, "residual": residual})

    def require(self, instance_name: str, ok: bool, what: str = "") -> None:
        self.checked += 1
        if not ok:
            self.passed = False
            self.failures.append({"instance": instance_name, "check": what})

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "checked": self.checked,
            "max_residual": self.max_residual,
            "failures": self.failures[:20],
            "stats": self.stats,
            "elapsed_s": round(self.elapsed, 3),
        }


@dataclass
class VerifyReport:
    """Suite verdicts over one corpus.

    ``bundle_s`` is the time spent building the per-tree bundles, which no
    suite's ``elapsed`` includes.
    """

    suites: dict[str, SuiteResult]
    corpus_size: int
    bundle_s: float

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites.values())

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "corpus_size": self.corpus_size,
            "suites": {k: v.as_dict() for k, v in self.suites.items()},
            "bundle_s": round(self.bundle_s, 3),
        }


@dataclass(frozen=True, eq=False)
class _TreeBundle:
    """What the per-tree suites read for one marked corpus tree.

    ``walks`` pairs each weight ``eta_bar / 4``, ``eta_bar``, ``4 eta_bar``
    with its walk operator, held as star amplitudes: the suites apply the
    walk and its reflections in O(n) and form no dense walk.  ``sd`` is the
    orthonormal Szegedy spectrum of the walk at ``eta_bar``
    (:func:`szegedy_spectrum`), which the witness and precision suites read.
    """

    name: str
    st: SolutionTree
    rp: ResistanceProfile
    kappa: np.ndarray
    walks: tuple[tuple[float, WalkOperator], ...]
    sd: SpectralDecomposition


def _tree_bundle(inst: CorpusInstance, inject_fault: str | None) -> _TreeBundle:
    st = solution_tree(inst.tree, inst.marked)
    rp = resistance_profile(st)
    kappa = kappa_assignment(st, rp)
    if inject_fault == "kappa_perturbation":
        kappa = kappa.copy()
        kappa[min(st.leaf_set.members)] += 1e-3
    eta_bar = rp.eta_root
    walks = tuple(
        (eta, build_walk_operator(inst.tree, st.leaf_set, eta))
        for eta in (eta_bar / 4, eta_bar, 4 * eta_bar)
    )
    return _TreeBundle(inst.name, st, rp, kappa, walks, szegedy_spectrum(walks[1][1]))


def _suite_resistance_oracles(suite: SuiteResult, b: _TreeBundle) -> None:
    """The series/parallel recursion agrees with the Laplacian solve."""
    brute = resistance_bruteforce(b.st)
    suite.update(b.name, abs(b.rp.eta_root - brute) / brute, 1e-9, "recursion_vs_laplacian")


def _suite_resistance_interval(suite: SuiteResult, b: _TreeBundle) -> None:
    """``max(1/|M|, 1/d_root) <= eta_bar <=`` the solution tree's depth."""
    tree, members = b.st.tree, b.st.leaf_set.members
    d_root = max(1, len(b.st.children[tree.root]))
    depth_st = max(int(tree.depth[m]) for m in members)
    suite.require(
        b.name,
        max(1.0 / len(members), 1.0 / d_root) - 1e-12 <= b.rp.eta_root <= depth_st + 1e-12,
        "eta_in_interval",
    )


def _suite_kappa(suite: SuiteResult, b: _TreeBundle) -> None:
    """The kappa identities, the kappa-implied resistance map and the root anchor."""
    for check, residual in verify_kappa(b.st, b.kappa).items():
        suite.update(b.name, residual, 1e-10, check)
    implied = kappa_eta(b.st, b.kappa)
    eta = b.rp.eta_bar
    dev = max(abs(implied[v] - eta[v]) / max(1.0, eta[v]) for v in b.st.vertices)
    suite.update(b.name, dev, 1e-9, "kappa_implied_resistance")
    # resistance equals the inverse squared root weight
    suite.update(
        b.name,
        abs(1.0 / b.kappa[b.st.root] ** 2 - b.rp.eta_root) / max(1.0, b.rp.eta_root),
        1e-9,
        "root_weight_anchor",
    )


def _suite_fixed_points(suite: SuiteResult, b: _TreeBundle) -> None:
    """phi and every path vector are fixed points; phi's root amplitude is sin(beta)."""
    tree, marked = b.st.tree, b.st.leaf_set
    for eta, op in b.walks:
        phi = phi_state(b.st, b.kappa, eta)
        suite.update(
            b.name,
            float(np.linalg.norm(op.apply(phi) - phi)),
            1e-10,
            f"phi_fixed@{eta:.3g}",
        )
        for m in marked.members:
            pm = phi_m_state(tree, marked, m, eta)
            suite.update(
                b.name,
                float(np.linalg.norm(op.apply(pm) - pm)),
                1e-10,
                f"path_vector_fixed@{eta:.3g}",
            )
        expected_overlap = math.sin(math.atan(math.sqrt(eta) * b.kappa[tree.root]))
        suite.update(
            b.name,
            abs(phi[tree.root] - expected_overlap),
            1e-12,
            f"root_overlap@{eta:.3g}",
        )


def _suite_witness(suite: SuiteResult, b: _TreeBundle) -> None:
    """The witness conditions at every weight, then the small-phase bound at eta_bar."""
    size_bound = b.st.tree.size_bound
    for eta, op in b.walks:
        xi = xi_vector(b.st, b.kappa, eta)
        perp = phi_perp_state(b.st, b.kappa, eta)
        if eta == b.rp.eta_root:
            xi_bar, perp_bar = xi, perp
        # each projector onto a reflection's +1 eigenspace is (I + R) / 2
        suite.update(
            b.name,
            float(np.linalg.norm((xi + op.reflect(xi)) / 2.0)),
            1e-10,
            f"witness_killed_by_even_projector@{eta:.3g}",
        )
        suite.update(
            b.name,
            float(np.linalg.norm((xi + op.reflect(xi, odd=True)) / 2.0 - perp)),
            1e-10,
            f"witness_maps_to_perp@{eta:.3g}",
        )
        if eta >= 1.0 / (size_bound - 1):
            beta = beta_angle(b.kappa[b.st.root], eta)
            bound = 2 * (size_bound - 1) * eta * math.cos(beta) ** 2
            xi_sq = float(np.linalg.norm(xi)) ** 2
            suite.require(b.name, xi_sq <= bound + 1e-12, f"witness_norm_bound@{eta:.3g}")
    xi_norm = float(np.linalg.norm(xi_bar))
    for eps in (1e-3, 1e-2, 1e-1):
        p_eps = b.sd.small_phase_projector_norm(perp_bar, eps)
        suite.require(b.name, p_eps <= eps * xi_norm + 1e-12, f"small_phase_bound@{eps:g}")


def _suite_precision(suite: SuiteResult, b: _TreeBundle) -> None:
    """At eta_bar, phi_perp leaks at most ``10 delta^2`` onto the zero outcome."""
    if b.st.tree.n_vertices > PRECISION_SIZE_CAP:
        return
    eta_bar = b.rp.eta_root
    perp = phi_perp_state(b.st, b.kappa, eta_bar)
    perp /= np.linalg.norm(perp)  # a unit input even when kappa is perturbed
    for delta in (0.2, 0.1, 0.05):
        leak = pe_distribution(b.sd, perp, pe_ancillas(b.st.tree.size_bound, eta_bar, delta))[0]
        suite.require(b.name, leak <= 10.0 * delta**2, f"zero_outcome_leak@{delta:g}")


def _suite_descent(suite: SuiteResult, b: _TreeBundle) -> None:
    """The exact expected descent time meets ``log2(|M| (eta_bar + 1))``."""
    dc = descent_chain(b.st, b.kappa)
    ht = exact_hitting_times(dc)
    suite.require(b.name, ht.root_value <= hitting_time_bound(dc) + 1e-12, "hitting_time_log_bound")


_PER_TREE_SUITES = {
    "resistance_oracle_equivalence": _suite_resistance_oracles,
    "resistance_interval": _suite_resistance_interval,
    "kappa_identities": _suite_kappa,
    "walk_fixed_points": _suite_fixed_points,
    "spectral_gap_witness": _suite_witness,
    "estimation_precision_law": _suite_precision,
    "descent_hitting_bound": _suite_descent,
}


def _per_tree_suites(
    corpus: list[CorpusInstance], inject_fault: str | None
) -> tuple[dict[str, SuiteResult], float]:
    """Run every per-tree suite on each marked tree; each suite times only its own checks.

    Returns the suites and the seconds spent building the shared bundles.
    """
    suites = {name: SuiteResult(name) for name in _PER_TREE_SUITES}
    bundle_s = 0.0
    for inst in corpus:
        if not inst.has_marks:
            continue
        t0 = time.perf_counter()
        bundle = _tree_bundle(inst, inject_fault)
        bundle_s += time.perf_counter() - t0
        for name, check in _PER_TREE_SUITES.items():
            t0 = time.perf_counter()
            check(suites[name], bundle)
            suites[name].elapsed += time.perf_counter() - t0
    return suites, bundle_s


def verify_all(
    corpus: list[CorpusInstance],
    master_seed: int = DEFAULT_MASTER_SEED,
    include_statistical: bool = False,
    inject_fault: str | None = None,
) -> VerifyReport:
    """Run every invariant suite over the corpus; one pass per tree.

    The per-tree suites share one bundle per marked tree (solution tree,
    resistance profile, kappa, three walk operators held as star amplitudes
    and the Szegedy spectrum of the middle one), whose construction no
    suite's ``elapsed`` includes; the report's ``bundle_s`` holds it.  No
    per-tree suite forms a dense walk.  The backend-equivalence suite builds
    its own operators, reads their Szegedy spectra and, for the circuit,
    their dense matrices; its peak is the circuit's joint and one spectral
    block, about 1.25 joints of ``star_31_4_s17``.  Only the statistical
    suites, which run the search, read a Schur spectrum.
    ``inject_fault="kappa_perturbation"`` bumps one kappa entry by 1e-3 on
    every marked tree, which must trip the child-sum identity; used to prove
    the harness can fail; any other fault name raises ``ValueError``.
    """
    if inject_fault not in (None, "kappa_perturbation"):
        raise ValueError(f"unknown fault {inject_fault!r}: the one fault is kappa_perturbation")
    if not corpus:
        raise ValueError("no trees: the corpus is empty")
    suites, bundle_s = _per_tree_suites(corpus, inject_fault)
    suites["backend_equivalence"] = suite_backend_equivalence()
    if include_statistical:
        suites["estimate_res_statistics"] = suite_estimate_res_statistics(master_seed)
        suites["search_statistics"] = suite_search_statistics(corpus, master_seed)
        suites["descent_monte_carlo"] = suite_descent_monte_carlo(master_seed)
    return VerifyReport(suites=suites, corpus_size=len(corpus), bundle_s=bundle_s)


def backend_equivalence_instances() -> list[tuple[str, Tree, MarkingOracle, float, int]]:
    """(name, tree, oracle, eta, ancillas) pairs for the two-backend check."""
    rows = []
    tree, oracle = build_star(1, 1)
    rows.append(("single_edge_s3", tree, oracle, 0.8, 3))
    tree, oracle = build_star(8, 2)
    for s in (1, 4, 7):
        rows.append((f"star_8_2_s{s}", tree, oracle, 0.5, s))
    tree, oracle = build_star(4, 2)
    rows.append(("star_4_2_s6", tree, oracle, 0.5, 6))
    tree, oracle = build_path(4, True)
    rows.append(("path_4_s5", tree, oracle, 4.0, 5))
    tree, oracle = build_random_tree(24, 3, 0.2, 5)
    rows.append(("random_24_s5", tree, oracle, 0.6, 5))
    tree, oracle = build_random_tree(40, 3, 0.1, 9)
    rows.append(("random_40_s8", tree, oracle, 1.0, 8))
    tree, oracle = build_star(31, 4)
    rows.append(("star_31_4_s17", tree, oracle, 0.25, 17))
    return rows


def suite_backend_equivalence(tol: float = 1e-10) -> SuiteResult:
    """Spectral vs gate-level joint distributions, total variation.

    The spectral law reads the walk's orthonormal Szegedy spectrum
    (:func:`~qbacktrack.walk.szegedy_spectrum`); the circuit needs none.
    The circuit's joint is the one joint-sized array held: a C-contiguous
    outcome-by-vertex law.  :func:`~qbacktrack.estimation.pe_joint` yields
    the spectral law as outcome blocks, each compared with the contiguous
    rows of the circuit's joint that it lines up with.  The blocks' total
    variations add up to the whole joints' (the factor 1/2 scales each
    block's sum exactly); on these instances the blocks fall where a raveled
    comparison's do, so the sum is the same bit for bit.
    """
    result = SuiteResult("backend_equivalence")
    t0 = time.perf_counter()
    for name, tree, oracle, eta, s in backend_equivalence_instances():
        op = build_walk_operator(tree, oracle, eta)
        sd = szegedy_spectrum(op)
        root = np.zeros(tree.n_vertices)
        root[tree.root] = 1.0
        b = gate_level_pe(op, root, s)  # outcome x vertex, C-contiguous
        # TV adds over disjoint outcome blocks, so no spectral joint is held whole
        tv = sum(total_variation(rows, b[w0 : w0 + len(rows)]) for w0, rows in pe_joint(sd, root, s))
        result.update(name, tv, tol, "joint_total_variation")
    result.elapsed = time.perf_counter() - t0
    return result


def suite_estimate_res_statistics(master_seed: int = DEFAULT_MASTER_SEED) -> SuiteResult:
    """Accuracy and existence statistics of the resistance estimator.

    On the 64-leaf star with 4 marked, at least 95% of ``ESTIMATE_RES_RUNS``
    seeded runs must land within ``16 * DELTA_AE * eta * (1 + ENVELOPE_MARGIN)``
    of the true 1/4; on unmarked fixtures at least 95% must report infinity.
    """
    result = SuiteResult("estimate_res_statistics")
    t0 = time.perf_counter()
    cfg = EstimateResConfig()
    tree, oracle = build_star(64, 4)
    sim = WalkSimulator(tree, oracle)
    seeds = np.random.SeedSequence(master_seed).spawn(ESTIMATE_RES_RUNS)
    envelope = 16.0 * DELTA_AE * 0.25 * (1.0 + ENVELOPE_MARGIN)
    hits = 0
    for sq in seeds:
        est, _ = estimate_res(tree, oracle, tree.root, cfg, np.random.default_rng(sq), sim)
        if math.isfinite(est) and abs(est - 0.25) <= envelope:
            hits += 1
    result.stats["star_hit_rate"] = hits / ESTIMATE_RES_RUNS
    result.require("star_64_4", hits >= 0.95 * ESTIMATE_RES_RUNS, "estimate_within_envelope")

    for name, (tree_u, oracle_u) in [
        ("star_8_unmarked", build_star(8, 0)),
        ("path_5_unmarked", build_path(5, False)),
    ]:
        sim_u = WalkSimulator(tree_u, oracle_u)
        inf_count = 0
        for sq in np.random.SeedSequence(master_seed + 1).spawn(ESTIMATE_RES_RUNS):
            est, _ = estimate_res(tree_u, oracle_u, tree_u.root, cfg, np.random.default_rng(sq), sim_u)
            inf_count += not math.isfinite(est)
        result.stats[f"{name}_inf_rate"] = inf_count / ESTIMATE_RES_RUNS
        result.require(name, inf_count >= 0.95 * ESTIMATE_RES_RUNS, "unmarked_reports_infinity")
    result.elapsed = time.perf_counter() - t0
    return result


def suite_search_statistics(
    corpus: list[CorpusInstance],
    master_seed: int = DEFAULT_MASTER_SEED,
    chi2_runs: int = 2000,
    find_all_trees: int = 100,
) -> SuiteResult:
    """Find-marked correctness: marked-only returns, leaf uniformity, recovery.

    ``chi2_runs`` returned vertices are drawn from at most ``3 * chi2_runs``
    seeded attempts; fewer fails the ``success_rate`` check, and
    ``chi2_runs < 1`` raises ``ValueError``.  The chi-square threshold 11.34
    is the 0.01 tail of three degrees of freedom (four equiprobable leaves),
    so under exact uniformity the gate raises a false alarm on 1% of master
    seeds.
    """
    if chi2_runs < 1:
        raise ValueError(f"chi2_runs must be at least 1, got {chi2_runs}")
    result = SuiteResult("search_statistics")
    t0 = time.perf_counter()
    cfg = EstimateResConfig()
    tree, oracle = build_star(64, 4)
    sim = WalkSimulator(tree, oracle)
    counts = {1: 0, 2: 0, 3: 0, 4: 0}
    returned = 0
    attempts = 0
    for sq in np.random.SeedSequence(master_seed + 2).spawn(3 * chi2_runs):
        if returned == chi2_runs:
            break
        attempts += 1
        v, _ = find_marked(tree, oracle, cfg, np.random.default_rng(sq), sim)
        if v is None:
            continue
        result.require("star_64_4", bool(oracle.peek(v)), "returned_vertex_marked")
        counts[v] += 1
        returned += 1
    result.stats["success_rate"] = returned / attempts
    result.require("star_64_4", returned == chi2_runs, "success_rate")
    chi2, _, _ = pearson_chi2(list(counts.values()), [0.25] * 4)
    result.stats["chi2"] = chi2
    result.require("star_64_4", chi2 < 11.34, "leaf_uniformity_chi2")

    # exact recovery of every marked vertex on the smallest corpus trees
    small = [
        inst
        for inst in corpus
        if inst.has_marks and inst.tree.n_vertices <= 60 and len(inst.oracle.marked_vertices()) <= 8
    ][:find_all_trees]
    recovered = 0
    for i, inst in enumerate(small):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=master_seed + 3, spawn_key=(i,)))
        found, _ = find_all(inst.tree, inst.oracle, cfg, rng)
        want = sorted(inst.oracle.marked_vertices())
        ok = sorted(found) == want
        recovered += ok
        result.require(inst.name, ok, "find_all_exact_recovery")
    result.stats["find_all_trees"] = len(small)
    result.stats["find_all_recovered"] = recovered
    result.elapsed = time.perf_counter() - t0
    return result


def suite_descent_monte_carlo(
    master_seed: int = DEFAULT_MASTER_SEED,
    trials: int = 100_000,
) -> SuiteResult:
    """Monte Carlo absorption times follow the exact law of the dynamic program.

    Each chain's step counts (``trials`` draws from seed ``master_seed + 7``)
    go through :func:`~qbacktrack.descent.absorption_fit` against
    :func:`~qbacktrack.descent.absorption_pmf`.  A step count outside the
    law's support fails outright, so the single-step chains must match on
    every trial; this never fires on a correct sampler.  The chains that can
    take more than one step each get a Pearson chi-square test at
    ``alpha / m``, with ``m`` their number (Bonferroni), so the family-wise
    false-alarm rate is ``alpha = DESCENT_MC_ALPHA = 1e-3``.  ``random_40`` has
    non-uniform rows: a sampler that ignored the weights would give mean
    2.580 there against the exact 2.082.
    """
    result = SuiteResult("descent_monte_carlo")
    t0 = time.perf_counter()
    chains = {}
    for name, (tree, oracle) in [
        ("single_edge", build_star(1, 1)),
        ("star_10_4", build_star(10, 4)),
        ("path_5", build_path(5, True)),
        ("random_40", build_random_tree(40, 3, 0.1, 9)),
    ]:
        st = solution_tree(tree, shallowest_marked(tree, oracle))
        chains[name] = descent_chain(st, kappa_assignment(st, resistance_profile(st)))
    laws = {name: absorption_pmf(dc) for name, dc in chains.items()}
    alpha_each = DESCENT_MC_ALPHA / sum(np.count_nonzero(pmf) > 1 for pmf in laws.values())
    result.stats["alpha"] = DESCENT_MC_ALPHA
    for name, dc in chains.items():
        steps = descent_step_counts(dc, trials, np.random.default_rng(master_seed + 7))
        fit = absorption_fit(laws[name], steps)
        result.stats[name] = asdict(fit)
        for check, ok in fit.checks(alpha_each).items():
            result.require(name, ok, check)
    result.elapsed = time.perf_counter() - t0
    return result


@dataclass
class GroverRow:
    size: int
    marked: int
    trials: int
    mean_walk_queries: float
    std_walk_queries: float


@dataclass
class GroverResult:
    rows: list[GroverRow]
    slope: float

    def as_dict(self) -> dict:
        return {
            "slope": self.slope,
            "rows": [vars(r) for r in self.rows],
        }


def grover_scaling(
    n_list: list[int],
    k: int | str,
    trials: int,
    seed: int,
) -> GroverResult:
    """Query counts of the doubling search on stars, with a log-log fit.

    ``k`` is the marked-leaf count, or ``"all"`` to mark every leaf.  Trial
    ``t`` on the ``idx``-th size draws from a generator spawned with key
    ``(idx, t)``; the fitted slope is of log mean queries against log size,
    so ``n_list`` needs at least two distinct sizes.
    """
    if isinstance(k, str):
        if k != "all":
            raise ValueError("k must be an integer or 'all'")
    if len(set(n_list)) < 2:
        raise ValueError(f"the slope fit needs at least two distinct sizes, got {n_list}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    cfg = EstimateResConfig()
    rows = []
    for idx, size in enumerate(n_list):
        k_here = size if k == "all" else int(k)
        if not (1 <= k_here <= size):
            raise ValueError(f"marked count {k_here} outside [1, {size}]")
        tree, oracle = build_star(size, k_here)
        sim = WalkSimulator(tree, oracle)
        queries = []
        for t in range(trials):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(idx, t))
            )
            v, rec = k_doubling_find(tree, oracle, cfg, rng, sim)
            if v is None:
                raise RuntimeError(f"search failed on star({size},{k_here})")
            queries.append(rec.walk_queries)
        q = np.asarray(queries, dtype=float)
        rows.append(
            GroverRow(
                size=size,
                marked=k_here,
                trials=trials,
                mean_walk_queries=float(q.mean()),
                std_walk_queries=float(q.std(ddof=1)) if trials > 1 else 0.0,
            )
        )
    slope = float(
        np.polyfit(
            np.log([r.size for r in rows]), np.log([r.mean_walk_queries for r in rows]), 1
        )[0]
    )
    return GroverResult(rows=rows, slope=slope)
