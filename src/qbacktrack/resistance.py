"""Effective resistance and the kappa vertex weights.

Classical ground truth for everything the walk estimates.  Two independent
routes compute the resistance between the root and the merged marked sink:

* :func:`resistance_profile` runs the series/parallel recursion bottom-up,
  ``1/eta(v) = sum_c 1/(eta(c)+1)`` over children with marked descendants;
* :func:`resistance_bruteforce` solves the unit-conductance Laplacian system
  of the solution tree with all marked vertices identified as one sink.

The kappa weights are built top-down from the child/parent ratio
``kappa_c / kappa_v = eta(v) / (eta(c) + 1)`` and rescaled so the squared
weights off the root sum to one.  :func:`verify_kappa` re-checks every
identity the weights must satisfy and returns a ``dict`` of the seven
residuals keyed by identity name; the caller compares them with its own
tolerance.

Subtrees without marked vertices carry resistance ``inf``, which simply
drops out of the parallel sums.  All arithmetic is 64-bit floating point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trees import SolutionTree

__all__ = [
    "ResistanceProfile",
    "resistance_profile",
    "resistance_bruteforce",
    "kappa_assignment",
    "subtree_energy",
    "kappa_eta",
    "verify_kappa",
]


@dataclass(frozen=True, eq=False)
class ResistanceProfile:
    """Per-vertex effective resistance to the marked set below.

    ``eta_bar[v]`` is the resistance between ``v`` and the merged sink of
    marked vertices in the subtree of ``v`` (unit resistors on every edge);
    ``inf`` where that subtree contains no marked vertex.  ``eta_max`` is the
    largest finite entry over the whole tree.
    """

    eta_bar: np.ndarray
    eta_max: float
    root: int

    @property
    def eta_root(self) -> float:
        return float(self.eta_bar[self.root])


def resistance_profile(st: SolutionTree) -> ResistanceProfile:
    """Bottom-up series/parallel recursion over the full tree."""
    tree = st.tree
    members = st.leaf_set.members
    n = tree.n_vertices
    eta = np.full(n, np.inf)
    order = tree.subtree_vertices(tree.root)
    for v in reversed(order):
        if v in members:
            eta[v] = 0.0
            continue
        acc = 0.0
        for c in tree.children[v]:
            if np.isfinite(eta[c]):
                acc += 1.0 / (eta[c] + 1.0)
        if acc > 0.0:
            eta[v] = 1.0 / acc
    finite = eta[np.isfinite(eta)]
    eta_max = float(finite.max()) if finite.size else np.inf
    eta.setflags(write=False)
    return ResistanceProfile(eta_bar=eta, eta_max=eta_max, root=tree.root)


def resistance_bruteforce(st: SolutionTree) -> float:
    """Laplacian oracle: merged-sink effective resistance from the root.

    Builds the unit-conductance Laplacian of the solution tree with every
    marked vertex identified as a single sink, grounds the sink, injects a
    unit current at the root and reads off the root voltage.  Entirely
    independent of the recursion in :func:`resistance_profile`.
    """
    tree = st.tree
    members = st.leaf_set.members
    interior = [v for v in st.bfs_order() if v not in members]
    if not interior:
        raise ValueError("solution tree has no interior vertices")
    index = {v: i for i, v in enumerate(interior)}
    m = len(interior)
    lap = np.zeros((m + 1, m + 1))  # last row/col is the merged sink
    sink = m
    for v in interior:
        for c in st.children_in(v):
            a = index[v]
            b = index[c] if c not in members else sink
            lap[a, a] += 1.0
            lap[b, b] += 1.0
            lap[a, b] -= 1.0
            lap[b, a] -= 1.0
    grounded = lap[:m, :m]
    rhs = np.zeros(m)
    rhs[index[tree.root]] = 1.0
    try:
        voltage = np.linalg.solve(grounded, rhs)
    except np.linalg.LinAlgError as exc:  # connected trees cannot get here
        raise RuntimeError("singular Laplacian system on a connected tree") from exc
    return float(voltage[index[tree.root]])


def kappa_assignment(st: SolutionTree, rp: ResistanceProfile) -> np.ndarray:
    """Construct kappa from resistance ratios, then normalize.

    Top-down over the solution tree with the child/parent ratio
    ``eta(v) / (eta(c) + 1)``, starting from 1 at the root, then one global
    rescale so that the squared weights over non-root vertices sum to one.
    Returns a read-only array over all vertices: zero off the solution tree,
    positive on it.  The identities this must imply are checked separately
    by :func:`verify_kappa`.
    """
    tree = st.tree
    n = tree.n_vertices
    kappa = np.zeros(n)
    kappa[tree.root] = 1.0
    for v in st.bfs_order():
        for c in st.children_in(v):
            kappa[c] = kappa[v] * rp.eta_bar[v] / (rp.eta_bar[c] + 1.0)
    mask = np.ones(n, dtype=bool)
    mask[tree.root] = False
    scale = np.sqrt(np.sum(kappa[mask] ** 2))
    kappa /= scale
    kappa.setflags(write=False)
    return kappa


def subtree_energy(st: SolutionTree, kappa: np.ndarray) -> np.ndarray:
    """Squared weights summed over each solution-tree subtree (0 elsewhere)."""
    energy = np.zeros(st.tree.n_vertices)
    for v in reversed(st.bfs_order()):
        energy[v] = kappa[v] ** 2 + sum(energy[c] for c in st.children_in(v))
    return energy


def kappa_eta(st: SolutionTree, kappa: np.ndarray) -> np.ndarray:
    """Resistance implied by kappa: subtree energy over kappa squared, minus one.

    Finite only on solution-tree vertices (``nan`` elsewhere); used to check
    that the weights reproduce the recursion's resistances.
    """
    energy = subtree_energy(st, kappa)
    out = np.full(st.tree.n_vertices, np.nan)
    for v in st.bfs_order():
        out[v] = energy[v] / kappa[v] ** 2 - 1.0
    return out


def verify_kappa(st: SolutionTree, kappa: np.ndarray) -> dict[str, float]:
    """Residual of every identity the kappa weights must satisfy, by name.

    Each residual is 0 for exact weights; the caller picks the tolerance.

    * ``child_sum``         -- kappa_v equals the sum over children (flow rule)
    * ``normalization``     -- squared weights off the root sum to 1
    * ``path_balance``      -- root-to-leaf prefix sums agree across leaves
      (equivalent to the per-vertex path condition, since every subtree pair
      is a pair of full root paths sharing their prefix)
    * ``leaf_product``      -- (sum_m kappa_m) * sum over a root path of the
      marked weight below each vertex equals 1, for every leaf
    * ``subtree_energy``    -- kappa_v times the v-to-leaf path sum equals the
      subtree's squared-weight sum, for every vertex
    * ``root_path_product`` -- kappa_r times any root-to-leaf path sum
      (excluding the root) equals 1
    * ``sign_uniform``      -- all weights on the solution tree share one sign
    """
    tree = st.tree
    members = st.leaf_set.members
    order = st.bfs_order()

    res: dict[str, float] = {}

    child_sum = 0.0
    for v in order:
        if v in members:
            continue
        child_sum = max(child_sum, abs(kappa[v] - sum(kappa[c] for c in st.children_in(v))))
    res["child_sum"] = child_sum

    off_root = [v for v in order if v != tree.root]
    res["normalization"] = abs(sum(kappa[v] ** 2 for v in off_root) - 1.0)

    prefix = np.zeros(tree.n_vertices)
    for v in order:
        prefix[v] = kappa[v] + (prefix[tree.parent[v]] if v != tree.root else 0.0)
    leaf_prefixes = np.array([prefix[m] for m in sorted(members)])
    res["path_balance"] = float(np.ptp(leaf_prefixes)) if leaf_prefixes.size else 0.0

    below = {v: sum(kappa[m] for m in st.leaf_set.below(v)) for v in order}
    total_marked = sum(kappa[m] for m in members)
    leaf_product = 0.0
    for m in members:
        path = tree.path_from_root(m)
        inner = sum(below[v] for v in path if v != tree.root)
        leaf_product = max(leaf_product, abs(total_marked * inner - 1.0))
    res["leaf_product"] = leaf_product

    energy = subtree_energy(st, kappa)
    energy_gap = 0.0
    for v in order:
        m = next(iter(st.leaf_set.below(v)))
        path_sum = prefix[m] - prefix[v] + kappa[v]
        energy_gap = max(energy_gap, abs(kappa[v] * path_sum - energy[v]))
    res["subtree_energy"] = energy_gap

    root_path = 0.0
    for m in members:
        root_path = max(root_path, abs(kappa[tree.root] * (prefix[m] - kappa[tree.root]) - 1.0))
    res["root_path_product"] = root_path

    on_tree = np.array([kappa[v] for v in order])
    res["sign_uniform"] = 0.0 if (np.all(on_tree > 0) or np.all(on_tree < 0)) else 1.0

    return res
