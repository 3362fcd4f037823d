"""The benchmark's three workloads: inputs from a seed, one timed job, checks.

Constructing a workload builds its inputs; that is the set-up being timed.
``run_job`` times one full job and returns its raw outputs; ``check`` and
``determinism`` judge the outputs after the clock has stopped, counting a
wrong output instead of raising.  All library calls go through module
attributes, so the tracer can wrap them where they are consumed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

import qbacktrack.algorithms as algorithms
import qbacktrack.descent as descent
import qbacktrack.experiments as experiments
import qbacktrack.resistance as resistance
import qbacktrack.trees as trees

clock = time.perf_counter


@dataclass
class Job:
    index: int
    inputs: object
    seconds: float
    op_seconds: list[float]
    items: int
    walk_queries: int
    f_queries: int = 0
    h_queries: int = 0
    outputs: list = field(default_factory=list)
    scale: float = 1.0  # reference seconds per measured second; see speed.py


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def require(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def merge(self, other: "Verdict") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.extend(other.failures[: max(0, 20 - len(self.failures))])


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(key)))


class _CallCounter:
    """Counts the calls of ``owner.attr`` while active."""

    def __init__(self, owner, attr: str):
        self.owner, self.attr = owner, attr
        self.calls = 0

    def __enter__(self):
        original = self.original = getattr(self.owner, self.attr)

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        setattr(self.owner, self.attr, counted)
        return self

    def __exit__(self, *exc):
        setattr(self.owner, self.attr, self.original)


class Workload:
    """Job ``j`` of a run gets its own inputs, drawn from ``(seed, j)``.

    Constructing the workload builds the inputs of job 0, which is the
    set-up being timed; the inputs of later jobs are built between jobs,
    off the clock.
    """

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.first_inputs = self.make_inputs(0)

    def inputs(self, j: int):
        return self.first_inputs if j == 0 else self.make_inputs(j)

    def make_inputs(self, j: int):
        raise NotImplementedError

    def run_job(self, inputs, j: int) -> Job:
        raise NotImplementedError

    def check(self, job: Job) -> Verdict:
        raise NotImplementedError

    def determinism(self, job: Job) -> Verdict:
        """Rerun the first op of ``job`` (job 0) with the same seed."""
        return Verdict()


class VerifyCorpus(Workload):
    """``verify_all`` over a seeded corpus, then a descent phase per marked tree.

    An op is one marked tree's descent phase: solution tree, resistance,
    kappa, chain, exact hitting times and ``simulate_descent``.  The trial
    count gives every tree about ``descent_steps`` expected chain steps, so
    ops cost alike whatever the chain's depth.  No run record exists here,
    so ``walk_queries`` counts walk operators assembled.
    """

    name = "verify_corpus"
    count = 20
    descent_steps = 2000

    def __init__(self, seed: int, inject_fault: str | None = None):
        self.inject_fault = inject_fault
        super().__init__(seed)

    def make_inputs(self, j: int):
        master_seed = int(np.random.SeedSequence([self.seed, j]).generate_state(1)[0])
        return experiments.default_corpus(count=self.count, master_seed=master_seed)

    def run_job(self, corpus, j: int) -> Job:
        marked = [inst for inst in corpus if inst.has_marks]
        op_seconds = []
        means = []
        with _CallCounter(experiments, "build_walk_operator") as builds:
            start = clock()
            report = experiments.verify_all(
                corpus, include_statistical=False, inject_fault=self.inject_fault
            )
            for i, inst in enumerate(marked):
                op_start = clock()
                st = trees.solution_tree(inst.tree, inst.marked)
                ka = resistance.kappa_assignment(st, resistance.resistance_profile(st))
                chain = descent.descent_chain(st, ka)
                exact = descent.exact_hitting_times(chain).root_value
                trials = math.ceil(self.descent_steps / exact)
                mc, _ = descent.simulate_descent(chain, trials, _rng(self.seed, j, i))
                op_seconds.append(clock() - op_start)
                depth = max(int(inst.tree.depth[m]) for m in st.leaf_set.members)
                means.append((inst.name, exact, mc, depth))
            seconds = clock() - start
        return Job(
            index=j,
            inputs=corpus,
            seconds=seconds,
            op_seconds=op_seconds,
            items=len(corpus),
            walk_queries=builds.calls,
            outputs=[report, means],
        )

    @staticmethod
    def reference_checks(corpus) -> dict[str, int]:
        """How many checks each suite must report, derived from the corpus."""
        ref = dict.fromkeys(
            (
                "resistance_oracle_equivalence",
                "resistance_interval",
                "kappa_identities",
                "walk_fixed_points",
                "spectral_gap_witness",
                "estimation_precision_law",
                "descent_hitting_bound",
            ),
            0,
        )
        for inst in corpus:
            if not inst.has_marks:
                continue
            tree = inst.tree
            st = trees.solution_tree(tree, inst.marked)
            eta = resistance.resistance_profile(st).eta_root
            etas = (eta / 4, eta, 4 * eta)
            ref["resistance_oracle_equivalence"] += 1
            ref["resistance_interval"] += 1
            ref["kappa_identities"] += 7 + 2  # verify_kappa's identities, implied map, anchor
            ref["walk_fixed_points"] += 3 * (len(inst.marked.members) + 2)
            ref["spectral_gap_witness"] += 3 * 2 + sum(e >= 1.0 / (tree.size_bound - 1) for e in etas) + 3
            ref["estimation_precision_law"] += 3 if tree.n_vertices <= 200 else 0
            ref["descent_hitting_bound"] += 1
        ref["backend_equivalence"] = len(experiments.backend_equivalence_instances())
        return ref

    def check(self, job: Job) -> Verdict:
        report, means = job.outputs
        verdict = Verdict()
        verdict.require(report.passed, f"job {job.index}: verify_all report failed")
        got = {name: suite.checked for name, suite in report.suites.items()}
        reference = self.reference_checks(job.inputs)
        for name, want in reference.items():
            verdict.require(got.get(name) == want, f"job {job.index} {name}: checked {got.get(name)}, want {want}")
        verdict.require(set(got) == set(reference), f"job {job.index}: suites {sorted(got)}")
        for name, exact, mc, depth in means:
            where = f"job {job.index} {name}"
            verdict.require(1.0 <= exact <= depth, f"{where}: exact hitting time {exact} outside [1, {depth}]")
            verdict.require(1.0 <= mc <= depth, f"{where}: descent mean {mc} outside [1, {depth}]")
        return verdict


class FindallRandom(Workload):
    """``find_all`` on seeded random trees; an op is one ``find_all`` call.

    Sizes are spread evenly over ``sizes`` and each tree carries exactly
    ``round(0.03 n)`` marks (at least one) at random vertices, so jobs do
    comparable work.  Every ``unmark`` clears the ``WalkSimulator`` caches.
    """

    name = "findall_random"
    n_trees = 24
    sizes = (30, 90)
    degree = 3
    mark_share = 0.03

    def __init__(self, seed: int):
        self.cfg = algorithms.EstimateResConfig()
        super().__init__(seed)

    def make_inputs(self, j: int):
        shape_seeds = np.random.SeedSequence([self.seed, j]).generate_state(self.n_trees)
        out = []
        for i, n in enumerate(np.linspace(*self.sizes, self.n_trees).round().astype(int)):
            tree, _ = trees.build_random_tree(int(n), self.degree, 0.0, int(shape_seeds[i]))
            k = max(1, round(self.mark_share * n))
            marks = np.zeros(int(n), dtype=bool)
            marks[1 + _rng(self.seed, j, i, 1).choice(int(n) - 1, size=k, replace=False)] = True
            out.append((tree, trees.MarkingOracle(marks, tree.root)))
        return out

    def _find_all(self, instances, j: int, i: int):
        tree, oracle = instances[i]
        return algorithms.find_all(tree, oracle, self.cfg, _rng(self.seed, j, i, 2))

    def run_job(self, instances, j: int) -> Job:
        op_seconds = []
        results = []
        start = clock()
        for i in range(len(instances)):
            op_start = clock()
            results.append(self._find_all(instances, j, i))
            op_seconds.append(clock() - op_start)
        seconds = clock() - start
        records = [rec for _, rec in results]
        return Job(
            index=j,
            inputs=instances,
            seconds=seconds,
            op_seconds=op_seconds,
            items=len(results),
            walk_queries=sum(r.walk_queries for r in records),
            f_queries=sum(r.f_queries for r in records),
            h_queries=sum(r.h_queries for r in records),
            outputs=results,
        )

    def check(self, job: Job) -> Verdict:
        verdict = Verdict()
        for i, ((found, _), (_, oracle)) in enumerate(zip(job.outputs, job.inputs)):
            want = oracle.marked_vertices()
            verdict.require(sorted(found) == want, f"job {job.index} tree {i}: found {sorted(found)}, want {want}")
        return verdict

    def determinism(self, job: Job) -> Verdict:
        verdict = Verdict()
        _, again = self._find_all(job.inputs, 0, 0)
        first = job.outputs[0][1].as_row()
        verdict.require(again.as_row() == first, f"first find_all rerun: {again.as_row()} != {first}")
        return verdict


class GroverStars(Workload):
    """Doubling search on stars with 4 marked leaves, one ``WalkSimulator`` per size.

    An op is one ``k_doubling_find`` trial.  The first trial at each size
    fills the caches (the walk); the rest are cache-hot.
    """

    name = "grover_stars"
    star_sizes = (64, 128, 256, 512)
    marked = 4
    trials = 250

    def __init__(self, seed: int):
        self.cfg = algorithms.EstimateResConfig()
        super().__init__(seed)

    def make_inputs(self, j: int):
        return [trees.build_star(n, self.marked) for n in self.star_sizes]

    def inputs(self, j: int):
        return self.first_inputs  # the stars are fixed; job j draws its own trials

    def _trial(self, stars, j: int, s: int, t: int, sim):
        tree, oracle = stars[s]
        return algorithms.k_doubling_find(tree, oracle, self.cfg, _rng(self.seed, j, s, t), sim)

    def run_job(self, stars, j: int) -> Job:
        op_seconds = []
        outputs = []
        start = clock()
        for s, (tree, oracle) in enumerate(stars):
            sim = algorithms.WalkSimulator(tree, oracle)
            for t in range(self.trials):
                op_start = clock()
                v, rec = self._trial(stars, j, s, t, sim)
                op_seconds.append(clock() - op_start)
                outputs.append((s, v, rec))
        seconds = clock() - start
        return Job(
            index=j,
            inputs=stars,
            seconds=seconds,
            op_seconds=op_seconds,
            items=len(outputs),
            walk_queries=sum(rec.walk_queries for _, _, rec in outputs),
            f_queries=sum(rec.f_queries for _, _, rec in outputs),
            h_queries=sum(rec.h_queries for _, _, rec in outputs),
            outputs=outputs,
        )

    def check(self, job: Job) -> Verdict:
        verdict = Verdict()
        for s, v, _ in job.outputs:
            ok = v is not None and job.inputs[s][1].peek(v)
            verdict.require(ok, f"job {job.index} star {job.inputs[s][0].n_vertices - 1}: returned {v}")
        return verdict

    def determinism(self, job: Job) -> Verdict:
        verdict = Verdict()
        tree, oracle = job.inputs[0]
        _, again = self._trial(job.inputs, 0, 0, 0, algorithms.WalkSimulator(tree, oracle))
        first = job.outputs[0][2].as_row()
        verdict.require(again.as_row() == first, f"first trial rerun: {again.as_row()} != {first}")
        return verdict


WORKLOADS = {w.name: w for w in (VerifyCorpus, FindallRandom, GroverStars)}


def _walk_bytes(args, result) -> int:
    n = args[0].n_vertices
    return 24 * n * n  # the walk matrix and both reflections, n x n float64 each


def _steps(args, result) -> int:
    return result[1].steps


def trace_sites() -> list[tuple]:
    """``(owner, attribute, span name, note)`` for every traced layer boundary."""
    sim = algorithms.WalkSimulator
    layers = [
        ("walk.build", [algorithms, experiments, descent], "build_walk_operator", _walk_bytes),
        ("walk.spectral", [algorithms, experiments, descent], "spectral_decomposition", None),
        ("estimation.pe", [algorithms, experiments, descent], "pe_distribution", None),
        ("estimation.ae_dist", [algorithms], "ae_outcome_distribution", None),
        ("estimation.gate_pe", [experiments], "gate_level_pe", None),
        ("algorithms.find_all", [algorithms], "find_all", None),
        ("algorithms.k_doubling", [algorithms], "k_doubling_find", None),
        ("algorithms.find_marked", [algorithms], "find_marked", _steps),
        ("algorithms.estimate_res", [algorithms], "estimate_res", None),
        ("algorithms.subtree", [sim], "subtree", None),
        ("algorithms.spectral_cache", [sim], "spectral", None),
        ("algorithms.pe_cache", [sim], "pe_stats", None),
        ("algorithms.invalidate", [trees.MarkingOracle], "unmark", None),
        ("resistance.profile", [experiments, resistance], "resistance_profile", None),
        ("resistance.bruteforce", [experiments], "resistance_bruteforce", None),
        ("resistance.kappa", [experiments, resistance], "kappa_assignment", None),
        ("resistance.kappa", [experiments], "verify_kappa", None),
        ("resistance.kappa", [experiments], "kappa_eta", None),
        ("descent.chain", [experiments, descent], "descent_chain", None),
        ("descent.hitting", [experiments, descent], "exact_hitting_times", None),
        ("descent.hitting", [experiments], "hitting_time_bound", None),
        ("descent.simulate", [experiments, descent], "simulate_descent", None),
        ("experiments.verify_all", [experiments], "verify_all", None),
        ("experiments.backend_equiv", [experiments], "suite_backend_equivalence", None),
    ]
    builders = ["build_random_tree", "build_star", "build_path", "build_complete_tree", "build_dpll_tree"]
    sites = [(owner, attr, name, note) for name, owners, attr, note in layers for owner in owners]
    sites += [(experiments, b, "trees.build", None) for b in builders]
    sites += [(trees, b, "trees.build", None) for b in ("build_random_tree", "build_star")]
    return sites
