"""Resistance estimation and marked-vertex search with full query accounting.

The two central procedures:

* :func:`estimate_res` sweeps the walk weight ``eta`` upward from ``1/d`` by
  the configured step factor.  At each stage it runs amplitude estimation on
  the zero-ancilla event of phase estimation, repeats it
  ``gamma1 * ln(1/delta0)`` times, and exits once more than half of the
  estimates fall within pi/16 of pi/4, returning ``eta * cot^2`` of the most
  frequent estimate.  If the sweep reaches ``eta = n`` without exiting it
  returns infinity, which doubles as the existence test.  The sweep's
  classical set-up (validation, ancilla counts, the estimate grid, the window
  and each stage's ``eta`` and walk cost) depends only on the configuration
  and the tree's bounds, so it is built once per such key and kept in a
  bounded cache.

* :func:`find_marked` walks down the tree: estimate the resistance at the
  current vertex, phase-estimate on the re-rooted subtree walk, retry while
  the ancilla misses the zero outcome, and descend to the measured vertex,
  returning as soon as the marking oracle fires.  ``find_all`` repeats it
  with an unmark overlay; ``k_doubling_find`` retries with doubling guesses
  of the marked count and falls back to :func:`classical_descent`.

Randomness is injected through an explicit numpy ``Generator``; identical
seeds reproduce runs bit for bit.  Measurement statistics are exact (no shot
noise); only algorithm-level sampling consumes randomness.  Each sample is a
search of the next doubles of the generator in a CDF that
:class:`WalkSimulator` builds once per law with
:func:`~qbacktrack.estimation.choice_cdf`: the doubles and indices a
``Generator.choice(..., p=law)`` call would take, so runs and the generator's
state afterwards equal a per-draw ``choice`` loop's.  A stage's vote needs no
search: the window is a range of cells, so a double lands in it exactly when
it lies between two values of the CDF.

Query accounting (:class:`RunRecord`): ``walk_queries`` counts controlled
applications of the walk operator (a phase-estimation circuit with ``s``
ancillas costs ``2^s - 1``; one amplitude-estimation repetition applies that
circuit once to prepare and twice per controlled-rotation step).
``f_queries``/``h_queries`` count classical control-flow oracle calls plus
one evaluation per vertex per circuit instantiation, the cost of assembling
the diffusion blocks; the oracle calls made inside walk applications ride
along with ``walk_queries`` and are not double-counted.  ``steps`` counts
vertex measurements (descent moves).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .estimation import (
    MAX_ANCILLAS, ae_outcome_distribution, ae_outcome_grid, choice_cdf, pe_ancillas, pe_distribution
)
from .trees import MarkedSet, MarkingOracle, Tree, shallowest_marked, tree_from_children
from .walk import SpectralDecomposition, build_walk_operator, spectral_decomposition

__all__ = [
    "EstimateResConfig",
    "RunRecord",
    "WalkSimulator",
    "estimate_res",
    "detect_existence",
    "find_marked",
    "find_all",
    "k_doubling_find",
    "classical_descent",
]

INFINITE = float("inf")


# Amplitude-estimation ancillas: 2^s_ae >= AE_TAIL_FACTOR / gamma2.
AE_TAIL_FACTOR = 16.0
# Amplitude-estimation error delta_ae of the estimation loop, in [gamma2, 1/8).
DELTA_AE = 0.1
# Upper end of the descent precision delta.
DESCENT_DELTA_CAP = 0.5
# Phase-estimation rounds find_marked may spend before giving up.
MAX_PE_ROUNDS = 10_000
# Amplitude-estimation repetitions per eta stage, gamma1 * ln(1/delta0), at most.
MAX_REPETITIONS = 1_000_000
# Consecutive empty find_marked runs after which find_all stops.
FIND_ALL_RETRIES = 4
# Sweep plans kept at once, one per (configuration, tree bounds).
SWEEP_PLAN_CACHE_SIZE = 64


@dataclass(frozen=True)
class EstimateResConfig:
    """Tunables of the estimation loop and the descent.

    Defaults satisfy every constraint of the failure-rate analysis with
    slack: ``gamma1 > 2``, ``0 < gamma2 <= 1/(8 sqrt(n))`` (resolved per
    tree when left as None) and at most the amplitude-estimation error
    ``DELTA_AE``, and step factor in (1, 2].  The constants of the analysis
    are all 1.  ``repetitions`` uses the natural logarithm and may not exceed
    ``MAX_REPETITIONS``.  ``k_guess``, a positive integer, scales
    the descent precision ``delta = 1 / log2(k_guess * (eta + 1))``, capped
    at ``DESCENT_DELTA_CAP``.
    """

    delta0: float = 0.05
    gamma1: float = 4.0
    gamma2: float | None = None
    step: float = 2.0
    k_guess: int = 1

    def validate(self, depth_bound: int) -> None:
        if not (0.0 < self.delta0 < 1.0):
            raise ValueError("delta0 must lie in (0, 1)")
        if not (2.0 < self.gamma1 < math.inf):
            raise ValueError(f"gamma1 must be finite and exceed 2, got {self.gamma1}")
        reps = self.gamma1 * math.log(1.0 / self.delta0)
        if not reps <= MAX_REPETITIONS:
            raise ValueError(
                f"gamma1 = {self.gamma1} asks for gamma1 * ln(1/delta0) = {reps:.3g} repetitions"
                f" per stage, above the cap of {MAX_REPETITIONS}"
            )
        if not (1.0 < self.step <= 2.0):
            raise ValueError("step factor must lie in (1, 2]")
        gamma2 = self.resolve_gamma2(depth_bound)
        if not (gamma2 > 0.0):
            raise ValueError(f"gamma2 must be positive, got {gamma2}")
        limit = 1.0 / (8.0 * math.sqrt(max(1, depth_bound)))
        if gamma2 > limit * (1.0 + 1e-12):
            raise ValueError(f"gamma2 = {gamma2} exceeds 1/(8 sqrt(n)) = {limit}")
        if gamma2 > DELTA_AE:
            raise ValueError(f"gamma2 = {gamma2} exceeds the amplitude-estimation error {DELTA_AE}")
        if not (isinstance(self.k_guess, numbers.Integral) and self.k_guess >= 1):
            raise ValueError(f"k_guess must be a positive integer, got {self.k_guess!r}")

    def resolve_gamma2(self, depth_bound: int) -> float:
        if self.gamma2 is not None:
            return self.gamma2
        return min(1.0 / 16.0, 1.0 / (8.0 * math.sqrt(max(1, depth_bound))))

    def repetitions(self) -> int:
        return max(1, math.ceil(self.gamma1 * math.log(1.0 / self.delta0)))

    def ae_ancillas(self, gamma2: float) -> int:
        return min(MAX_ANCILLAS, max(3, math.ceil(math.log2(AE_TAIL_FACTOR / gamma2))))

    def pe_ancillas(self, size_bound: int, eta: float) -> int:
        """Ancillas of the estimation loop's phase estimation.

        ``2^s >= sqrt(T eta / DELTA_AE^3)``: the precision enters as
        ``DELTA_AE^(3/2)``, not as the ``delta^3`` of
        :func:`~qbacktrack.estimation.pe_ancillas` that the descent uses.
        """
        target = math.sqrt(size_bound * eta / DELTA_AE**3)
        return min(MAX_ANCILLAS, max(1, math.ceil(math.log2(max(2.0, target)))))

    def descent_delta(self, eta: float) -> float:
        load = math.log2(self.k_guess * (eta + 1.0))
        return min(DESCENT_DELTA_CAP, 1.0 / max(1.0, load))


@dataclass(slots=True)
class RunRecord:
    """Monotone counters for one run; see the module docstring for semantics.

    Slotted: callers keep one record per trial, and a slotted record takes
    72 bytes against 112 with an instance dict (CPython 3.11).
    """

    walk_queries: int = 0
    f_queries: int = 0
    h_queries: int = 0
    steps: int = 0
    outcome: object = None

    def merge(self, other: "RunRecord") -> None:
        self.walk_queries += other.walk_queries
        self.f_queries += other.f_queries
        self.h_queries += other.h_queries
        self.steps += other.steps

    def as_row(self) -> dict:
        out = self.outcome
        if isinstance(out, float) and math.isinf(out):
            out = "inf"
        return {
            "outcome": out,
            "walk_queries": self.walk_queries,
            "f_queries": self.f_queries,
            "h_queries": self.h_queries,
            "steps": self.steps,
        }


@dataclass(frozen=True, eq=False)
class _Subtree:
    tree: Tree  # re-rooted, locally indexed
    ids: np.ndarray  # local index -> global vertex id
    marked: MarkedSet  # local ids

    @property
    def size(self) -> int:
        return int(self.ids.shape[0])


class WalkSimulator:
    """Caches re-rooted subtrees, exact PE statistics and AE stage laws.

    One instance serves one (tree, oracle) pair; caches are invalidated when
    the oracle's unmark version changes.  Cached values are deterministic
    functions of the tree, so sharing an instance across seeded runs only
    removes recomputation, never randomness.  Laws are cached as the CDFs
    the samplers search; each AE law holds ``2^(s_ae - 1) + 1`` floats.
    """

    def __init__(self, tree: Tree, oracle: MarkingOracle):
        self.tree = tree
        self.oracle = oracle
        self._version = oracle.version
        self._subtrees: dict[int, _Subtree] = {}
        self._pe: dict[tuple[int, float, int], tuple[float, np.ndarray | None]] = {}
        self._ae: dict[tuple[int, float, int, int], np.ndarray] = {}

    def _fresh(self) -> None:
        if self.oracle.version != self._version:
            self._subtrees.clear()
            self._pe.clear()
            self._ae.clear()
            self._version = self.oracle.version

    def subtree(self, v: int) -> _Subtree:
        self._fresh()
        hit = self._subtrees.get(v)
        if hit is not None:
            return hit
        tree = self.tree
        ids = tree.subtree_vertices(v)
        local = {g: i for i, g in enumerate(ids)}
        sub_tree = tree_from_children(
            [[local[c] for c in tree.children[g]] for g in ids],
            bounds=(tree.size_bound, tree.depth_bound, tree.degree_bound),
        )
        marks = np.array([self.oracle.peek(g) for g in ids], dtype=bool)
        sub_oracle = MarkingOracle(marks, root=0)
        marked = shallowest_marked(sub_tree, sub_oracle)
        sub = _Subtree(tree=sub_tree, ids=np.asarray(ids, dtype=np.int64), marked=marked)
        self._subtrees[v] = sub
        return sub

    def spectral(self, v: int, eta: float) -> SpectralDecomposition:
        """Build and decompose the walk on the subtree re-rooted at ``v``."""
        sub = self.subtree(v)
        return spectral_decomposition(build_walk_operator(sub.tree, sub.marked, eta))

    def pe_stats(self, v: int, eta: float, s: int) -> tuple[float, np.ndarray | None]:
        """Zero-outcome probability and the CDF of the vertex law given it.

        The CDF runs over local ids and is None when the probability is 0:
        the descent then never samples a vertex, so the law is never checked.
        """
        self._fresh()
        key = (v, float(eta), s)
        hit = self._pe.get(key)
        if hit is not None:
            return hit
        sd = self.spectral(v, eta)
        sub = self.subtree(v)
        root_state = np.zeros(sub.size)
        root_state[0] = 1.0
        p_zero, cond = pe_distribution(sd, root_state, s)
        p_zero = float(np.clip(p_zero, 0.0, 1.0))
        cdf = None
        if p_zero > 0.0:
            cdf = choice_cdf(cond / cond.sum())
            cdf.setflags(write=False)
        value = (p_zero, cdf)
        self._pe[key] = value
        return value

    def ae_law(self, v: int, eta: float, s_pe: int, s_ae: int) -> np.ndarray:
        """CDF of the normalized AE outcome law of one ``estimate_res`` stage at ``v``."""
        self._fresh()
        key = (v, float(eta), s_pe, s_ae)
        hit = self._ae.get(key)
        if hit is not None:
            return hit
        p_zero, _ = self.pe_stats(v, eta, s_pe)
        probs = ae_outcome_distribution(float(np.arcsin(np.sqrt(p_zero))), s_ae)
        cdf = choice_cdf(probs / probs.sum())
        cdf.setflags(write=False)
        self._ae[key] = cdf
        return cdf


def _modal_estimate(grid: np.ndarray, order: np.ndarray, counts: np.ndarray) -> float:
    """Most frequent estimate, from counts per grid cell; ties resolved toward pi/4.

    ``order`` lists the cells nearest pi/4 first, the lower of two equally
    far cells first, so the first top count along it is the mode.
    """
    return float(grid[order[np.argmax(counts[order])]])


@dataclass(frozen=True, eq=False)
class _SweepPlan:
    """The classical set-up of ``estimate_res`` for one configuration and tree bounds.

    ``stages`` holds ``(eta, s_pe, walk_queries)`` for each stage that draws,
    in sweep order, where ``walk_queries`` counts the walk applications of
    that stage and all before it.  The window is the cell range
    ``[lo, hi]`` of the read-only ``grid``; ``lo >= 1`` because the grid
    starts at 0, far outside it.  ``order`` is the tie order of
    :func:`_modal_estimate`: the cells by distance from pi/4, a stable sort.
    """

    reps: int
    s_ae: int
    grid: np.ndarray
    order: np.ndarray
    lo: int
    hi: int
    stages: tuple[tuple[float, int, int], ...]


@functools.lru_cache(maxsize=SWEEP_PLAN_CACHE_SIZE)
def _sweep_plan(
    cfg: EstimateResConfig, depth_bound: int, degree_bound: int, size_bound: int
) -> _SweepPlan:
    """Validate ``cfg`` for a tree with these bounds and lay out its eta sweep.

    The cache keeps no exception, so an invalid configuration raises on
    every call.
    """
    cfg.validate(depth_bound)
    d = max(1, degree_bound)
    n = float(depth_bound)
    s_ae = cfg.ae_ancillas(cfg.resolve_gamma2(depth_bound))
    reps = cfg.repetitions()
    grid = ae_outcome_grid(s_ae)
    grid.setflags(write=False)
    distance = np.abs(grid - np.pi / 4.0)
    order = np.argsort(distance, kind="stable")
    order.setflags(write=False)
    # the grid increases, so the window is one run of cells
    window = np.flatnonzero(distance <= np.pi / 16.0)
    stages = []
    walk_queries = 0
    i = 0
    while True:
        eta = min(cfg.step**i / d, n)
        if eta > 0.0:
            s_pe = cfg.pe_ancillas(size_bound, eta)
            walk_queries += reps * (2**s_pe - 1) * (2 ** (s_ae + 1) - 1)
            stages.append((eta, s_pe, walk_queries))
        if eta >= n:
            break
        i += 1
    return _SweepPlan(reps, s_ae, grid, order, int(window[0]), int(window[-1]), tuple(stages))


def estimate_res(
    tree: Tree,
    oracle: MarkingOracle,
    v: int,
    cfg: EstimateResConfig,
    rng: np.random.Generator,
    sim: WalkSimulator | None = None,
) -> tuple[float, RunRecord]:
    """Estimate the effective resistance of the subtree rooted at ``v``.

    Returns the estimate (``inf`` when no marked vertex is detected, which
    is a value, not an error) together with the run's query record.  The
    input vertex is treated as an unmarked root; callers check the oracle
    first.  The sweep comes from the cached plan of ``cfg`` and the tree's
    bounds.  A stage's ``side="right"`` search would put a draw ``u`` in the
    window ``[lo, hi]`` exactly when ``cdf[lo - 1] <= u < cdf[hi]``, so the
    vote reads those two CDF values; only the exit stage bins its draws for
    the mode.
    """
    plan = _sweep_plan(cfg, tree.depth_bound, tree.degree_bound, tree.size_bound)
    sim = sim if sim is not None else WalkSimulator(tree, oracle)
    size = sim.subtree(v).size
    reps, lo, hi = plan.reps, plan.lo, plan.hi
    stage = walk_queries = 0
    for stage, (eta, s_pe, walk_queries) in enumerate(plan.stages, 1):
        cdf = sim.ae_law(v, eta, s_pe, plan.s_ae)
        draws = rng.random(reps)
        if 2 * int(np.count_nonzero((cdf[lo - 1] <= draws) & (draws < cdf[hi]))) > reps:
            counts = np.bincount(cdf.searchsorted(draws, side="right"), minlength=plan.grid.size)
            tan_b = math.tan(_modal_estimate(plan.grid, plan.order, counts))
            estimate = INFINITE if tan_b == 0.0 else eta / tan_b**2
            break
    else:
        estimate = INFINITE
    queries = stage * size
    return estimate, RunRecord(walk_queries, queries, queries, outcome=estimate)


def detect_existence(
    tree: Tree,
    oracle: MarkingOracle,
    cfg: EstimateResConfig,
    rng: np.random.Generator,
    sim: WalkSimulator | None = None,
) -> tuple[bool, RunRecord]:
    """True iff the resistance estimate at the root is finite."""
    estimate, rec = estimate_res(tree, oracle, tree.root, cfg, rng, sim)
    rec.outcome = math.isfinite(estimate)
    return math.isfinite(estimate), rec


def find_marked(
    tree: Tree,
    oracle: MarkingOracle,
    cfg: EstimateResConfig,
    rng: np.random.Generator,
    sim: WalkSimulator | None = None,
) -> tuple[int | None, RunRecord]:
    """Walk down to a marked vertex; None means "no marked vertex".

    Each loop iteration phase-estimates on the walk of the subtree re-rooted
    at the current vertex (the measured vertex becomes the next input), with
    ancilla count set by the descent precision
    ``delta = O(1/log2(k_guess * (eta + 1)))``.
    """
    _sweep_plan(cfg, tree.depth_bound, tree.degree_bound, tree.size_bound)  # validates cfg
    sim = sim if sim is not None else WalkSimulator(tree, oracle)
    rec = RunRecord()
    size_bound = tree.size_bound

    v = tree.root
    rec.f_queries += 1
    if oracle(v):
        rec.outcome = v
        return v, rec
    eta_t, sub_rec = estimate_res(tree, oracle, v, cfg, rng, sim)
    rec.merge(sub_rec)

    rounds = 0
    while math.isfinite(eta_t):
        s = min(MAX_ANCILLAS, pe_ancillas(size_bound, eta_t, cfg.descent_delta(eta_t)))
        sub = sim.subtree(v)
        while True:
            if rounds >= MAX_PE_ROUNDS:
                rec.outcome = None
                return None, rec
            rounds += 1
            p_zero, cdf = sim.pe_stats(v, eta_t, s)
            rec.walk_queries += 2**s - 1
            rec.f_queries += sub.size
            rec.h_queries += sub.size
            if rng.random() >= p_zero:
                continue  # ancilla missed the zero outcome; rerun at the same vertex
            break
        local = int(cdf.searchsorted(rng.random(), side="right"))
        v = int(sub.ids[local])
        rec.steps += 1
        rec.f_queries += 1
        if oracle(v):
            rec.outcome = v
            return v, rec
        eta_t, sub_rec = estimate_res(tree, oracle, v, cfg, rng, sim)
        rec.merge(sub_rec)

    rec.outcome = None
    return None, rec


def find_all(
    tree: Tree,
    oracle: MarkingOracle,
    cfg: EstimateResConfig,
    rng: np.random.Generator,
) -> tuple[list[int], RunRecord]:
    """Repeat find_marked with an unmark overlay until no marked vertex remains.

    A single run can fail statistically, so the loop only concludes "empty"
    after ``FIND_ALL_RETRIES`` consecutive misses; every found vertex is
    unmarked in a copy of the oracle, which re-exposes deeper marked
    vertices on later rounds.
    """
    overlay = oracle.copy()
    sim = WalkSimulator(tree, overlay)
    rec = RunRecord()
    found: list[int] = []
    misses = 0
    while misses < FIND_ALL_RETRIES:
        v, sub_rec = find_marked(tree, overlay, cfg, rng, sim)
        rec.merge(sub_rec)
        if v is None:
            misses += 1
            continue
        misses = 0
        found.append(v)
        overlay.unmark(v)
    rec.outcome = tuple(found)
    return found, rec


def k_doubling_find(
    tree: Tree,
    oracle: MarkingOracle,
    cfg: EstimateResConfig,
    rng: np.random.Generator,
    sim: WalkSimulator | None = None,
) -> tuple[int | None, RunRecord]:
    """Double the marked-count guess until a vertex is found.

    The guess starts at 1 and doubles past every possible marked count
    (at most ``size_bound - 1``, the paper's "log k ~ n" threshold restated
    for trees of unbounded width); after that the classical descent takes
    over as the fallback.  ``cfg.k_guess`` is replaced by each guess, but a
    configuration that is invalid as given is still rejected.
    """
    _sweep_plan(cfg, tree.depth_bound, tree.degree_bound, tree.size_bound)  # validates cfg
    sim = sim if sim is not None else WalkSimulator(tree, oracle)
    rec = RunRecord()
    k_hat = 1
    k_cap = max(1, tree.size_bound - 1)
    while k_hat <= k_cap:
        guess_cfg = cfg if cfg.k_guess == k_hat else replace(cfg, k_guess=k_hat)
        v, sub_rec = find_marked(tree, oracle, guess_cfg, rng, sim)
        rec.merge(sub_rec)
        if v is not None:
            rec.outcome = v
            return v, rec
        k_hat *= 2
    v, sub_rec = classical_descent(tree, oracle, cfg, rng, sim)
    rec.merge(sub_rec)
    rec.outcome = v
    return v, rec


def classical_descent(
    tree: Tree,
    oracle: MarkingOracle,
    cfg: EstimateResConfig,
    rng: np.random.Generator,
    sim: WalkSimulator | None = None,
) -> tuple[int | None, RunRecord]:
    """Montanaro-style fallback: existence-test children, walk into a live one.

    Uses a per-level failure budget ``delta0 = O(1/n)`` and the configured
    amplitude-estimation error (already below 1/8).  Returns None when no
    subtree tests positive, whether because nothing is marked or the
    per-level test failed.
    """
    sim = sim if sim is not None else WalkSimulator(tree, oracle)
    level_cfg = replace(cfg, delta0=min(cfg.delta0, 1.0 / max(2, tree.depth_bound)))
    rec = RunRecord()
    v = tree.root
    eta_t, sub_rec = estimate_res(tree, oracle, v, level_cfg, rng, sim)
    rec.merge(sub_rec)
    if not math.isfinite(eta_t):
        rec.outcome = None
        return None, rec
    while True:
        rec.f_queries += 1
        if oracle(v):
            rec.outcome = v
            return v, rec
        moved = False
        for c in tree.children[v]:
            # the subtree test treats its root as unmarked, so the child's
            # own mark must be checked directly
            rec.f_queries += 1
            if oracle(c):
                rec.steps += 1
                rec.outcome = int(c)
                return int(c), rec
            eta_c, sub_rec = estimate_res(tree, oracle, c, level_cfg, rng, sim)
            rec.merge(sub_rec)
            if math.isfinite(eta_c):
                v = int(c)
                rec.steps += 1
                moved = True
                break
        if not moved:
            rec.outcome = None
            return None, rec
