"""The idealized classical descent chain and its hitting-time bounds.

One conditioned quantum measurement per step is modelled by a Markov chain
that jumps from ``v`` to any strict descendant ``u`` in the solution tree
with probability proportional to ``kappa_u^2`` and is absorbed on the marked
leaves.  The expected absorption time from the root is at most
``log2(|M| * (eta + 1))``; base 2 is the base under which the single-edge
case ``E_r = 1`` meets the bound with equality, and reports carry the
natural-log margin alongside for reference.

Beyond the mean, :func:`absorption_pmf` gives the exact law of the
absorption time, and :func:`absorption_fit` tests sampled step counts
against it.

:func:`descent_step_counts` samples the chain on the caller's stream as a
per-step ``Generator.choice(row.size, p=row)`` loop would: it takes the
same doubles, returns the same counts and leaves the generator in the same
state.  It builds each row's CDF once, then costs one ``bisect`` per step
instead of one ``choice`` call, and asks the generator for at most
``BLOCK`` doubles at a time, never more than the loop would take.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .estimation import choice_cdf, pearson_chi2
from .resistance import kappa_eta
from .trees import SolutionTree

# unused here; perfbench's tracer wraps them under this module
from .estimation import pe_distribution
from .walk import build_walk_operator, spectral_decomposition

__all__ = [
    "DescentChain",
    "HittingTimes",
    "AbsorptionFit",
    "descent_chain",
    "exact_hitting_times",
    "absorption_pmf",
    "hitting_time_bound",
    "descent_step_counts",
    "simulate_descent",
    "absorption_fit",
]

# Most doubles descent_step_counts asks of the generator in one call.
BLOCK = 1 << 16


@dataclass(frozen=True, eq=False)
class DescentChain:
    """Transition law over the solution tree.

    ``targets[v]``/``probs[v]`` give the jump distribution out of ``v``
    (strict descendants in the solution tree, weights ``kappa^2``); marked
    leaves are absorbing and carry empty rows.  ``kappa`` is the weight
    array the law was built from.
    """

    st: SolutionTree
    kappa: np.ndarray
    targets: dict[int, np.ndarray]
    probs: dict[int, np.ndarray]

    @property
    def root(self) -> int:
        return self.st.tree.root


def descent_chain(st: SolutionTree, kappa: np.ndarray) -> DescentChain:
    targets: dict[int, np.ndarray] = {}
    probs: dict[int, np.ndarray] = {}
    descendants: dict[int, list[int]] = {}
    for v in reversed(st.order):  # children before their parents
        acc: list[int] = []
        for c in st.children[v]:
            acc.append(c)
            acc.extend(descendants[c])
        descendants[v] = acc
    for v in st.order:
        if v in st.leaf_set.members:
            targets[v] = np.empty(0, dtype=np.int64)
            probs[v] = np.empty(0)
            continue
        tgt = np.asarray(descendants[v], dtype=np.int64)
        weight = kappa[tgt] ** 2
        targets[v] = tgt
        probs[v] = weight / weight.sum()
    return DescentChain(st=st, kappa=kappa, targets=targets, probs=probs)


@dataclass(frozen=True, eq=False)
class HittingTimes:
    """Expected steps to absorption, per vertex (nan off the solution tree)."""

    expected: np.ndarray
    root: int

    @property
    def root_value(self) -> float:
        return float(self.expected[self.root])


def exact_hitting_times(dc: DescentChain) -> HittingTimes:
    """Bottom-up dynamic program: ``E_v = 1 + sum P(u|v) E_u``."""
    tree = dc.st.tree
    expected = np.full(tree.n_vertices, np.nan)
    for v in reversed(dc.st.order):
        if v in dc.st.leaf_set.members:
            expected[v] = 0.0
        else:
            expected[v] = 1.0 + float(np.dot(dc.probs[v], expected[dc.targets[v]]))
    expected.setflags(write=False)
    return HittingTimes(expected=expected, root=tree.root)


def absorption_pmf(dc: DescentChain) -> np.ndarray:
    """Exact law of the absorption time from the root: ``pmf[t] = P(T = t)``.

    The bottom-up pass of :func:`exact_hitting_times` on distributions:
    ``pmf_v[t] = sum_u P(u|v) pmf_u[t-1]``, a point mass at 0 on the marked
    leaves.  Every jump goes strictly deeper, so ``T`` never exceeds the
    depth of the deepest marked leaf, which fixes the length.
    """
    tree = dc.st.tree
    members = dc.st.leaf_set.members
    horizon = max(int(tree.depth[m]) for m in members) - int(tree.depth[dc.root]) + 1
    law = np.zeros((tree.n_vertices, horizon))
    for v in reversed(dc.st.order):
        if v in members:
            law[v, 0] = 1.0
        else:
            law[v, 1:] = dc.probs[v] @ law[dc.targets[v], :-1]
    return law[dc.root]


def hitting_time_bound(dc: DescentChain) -> float:
    """The absorption-time bound ``log2(|M| * (eta_root + 1))``."""
    eta_root = kappa_eta(dc.st, dc.kappa)[dc.root]
    return math.log2(len(dc.st.leaf_set.members) * (eta_root + 1.0))


def _row_cdf(probs: np.ndarray, targets: np.ndarray) -> list[float]:
    """:func:`~qbacktrack.estimation.choice_cdf` of a chain row, as a list.

    The row must also be non-empty and as long as its targets, else
    ``ValueError``.
    """
    if probs.shape != targets.shape or probs.size == 0:
        raise ValueError("a chain row must be non-empty and as long as its targets")
    return choice_cdf(probs).tolist()


def descent_step_counts(
    dc: DescentChain, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Monte Carlo absorption times from the root, one step count per trial.

    Each step takes the next double of ``rng`` and returns the
    ``bisect_right`` of it in the row's normalised CDF: the double and the
    index ``rng.choice(row.size, p=row)`` would take, so the counts and
    ``rng``'s state afterwards equal a per-step ``choice`` loop's.  The
    doubles come from ``rng.random(min(trials - t, BLOCK))`` with ``t`` the
    trial in progress; each trial left takes at least one, so no block
    overdraws and the calls' sizes sum to ``counts.sum()``.  Every row is
    checked once, up front, including rows no trial reaches.  Cost: one
    pass over the rows, then one bisect per step; memory is one block.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    members = dc.st.leaf_set.members
    rows = {
        v: (_row_cdf(dc.probs[v], dc.targets[v]), dc.targets[v].tolist())
        for v in dc.targets
        if v not in members
    }
    root = dc.root
    counts = [0] * trials
    block: list[float] = []
    pos = 0
    for t in range(trials):
        v = root
        steps = 0
        while v in rows:
            if pos == len(block):
                block = rng.random(min(trials - t, BLOCK)).tolist()
                pos = 0
            cdf, tgt = rows[v]
            v = tgt[bisect_right(cdf, block[pos])]
            pos += 1
            steps += 1
        counts[t] = steps
    return np.asarray(counts, dtype=np.int64)


def _mean_stderr(counts: np.ndarray) -> tuple[float, float]:
    mean = float(counts.mean())
    stderr = float(counts.std(ddof=1) / math.sqrt(counts.size)) if counts.size > 1 else float("inf")
    return mean, stderr


def simulate_descent(
    dc: DescentChain, trials: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Monte Carlo absorption time from the root: (mean, standard error)."""
    return _mean_stderr(descent_step_counts(dc, trials, rng))


@dataclass(frozen=True)
class AbsorptionFit:
    """Sampled absorption times against the exact law; see :func:`absorption_fit`."""

    exact_mean: float
    mc_mean: float
    stderr: float
    outside_support: int
    chi2: float
    df: int
    p_value: float

    def checks(self, alpha: float) -> dict[str, bool]:
        """The gate at false-alarm rate ``alpha``, one verdict per check."""
        return {
            "steps_inside_support": self.outside_support == 0,
            "chi2_goodness_of_fit": self.p_value >= alpha,
        }


def absorption_fit(pmf: np.ndarray, steps: np.ndarray) -> AbsorptionFit:
    """Test per-trial step counts against the exact absorption-time law.

    Counts outside the support of ``pmf`` are tallied apart: a correct
    sampler never draws one.  The counts inside it go to
    :func:`~qbacktrack.estimation.pearson_chi2`.  A law with a single
    support point leaves nothing to test (statistic 0, df 0, p 1), so there
    a sampler must match on every trial; a law with more than one gets p
    nan, failing the gate, when too few counts land inside it to test.
    """
    support = np.flatnonzero(pmf > 0)
    hist = np.bincount(steps, minlength=pmf.size)[support]
    mean, stderr = _mean_stderr(steps)
    if support.size > 1:
        chi2, df, p = pearson_chi2(hist, pmf[support])
    else:
        chi2, df, p = 0.0, 0, 1.0
    return AbsorptionFit(
        exact_mean=float(np.arange(pmf.size) @ pmf),
        mc_mean=mean,
        stderr=stderr,
        outside_support=int(steps.size - hist.sum()),
        chi2=chi2,
        df=df,
        p_value=p,
    )
