"""The quantum walk operator, its spectrum, and the analytic fixed-point states.

One walk step is the product of two reflections on span(V): ``R_A`` reflects
through the local diffusion states of even-depth vertices, ``R_B`` does the
same at odd depth while holding the root fixed.  At marked vertices the local
block is the identity.  The root's diffusion state carries the tunable weight
``sqrt(eta)`` on its children; everything downstream revolves around choosing
``eta`` well.

Each vertex lies in at most one star of each parity: its own and its
parent's.  So ``R_A`` and ``R_B`` are ``I - 2 psi_i psi_j`` with the product
kept only where i and j share a star of that parity, and assembly is O(n^2)
vectorised work plus the one dense n^3 BLAS product ``R_B @ R_A``.  An even
and an odd star share at most one vertex, which makes every entry of either
reflection a single rounded product: the result does not depend on the order
in which stars are laid down.

The operator is real orthogonal, so its spectrum comes from the real Schur
form: 1x1 blocks are +/-1 eigenvalues, 2x2 rotation blocks give conjugate
eigenphase pairs.  Eigenvalues are written ``exp(2i*theta)`` with theta in
(-pi/2, pi/2].

Analytic states (all expressed over the vertex basis):

* ``phi_m``     -- the alternating-sign root-to-m path vector, an exact
  fixed point of the walk for every marked m;
* ``phi``       -- their kappa-weighted normalized superposition, with root
  amplitude ``sin(beta)`` where ``tan(beta) = sqrt(eta) * kappa_root``;
* ``phi_perp``  -- the state completing ``|root> = sin(beta) phi +
  cos(beta) phi_perp``, orthogonal to every path vector;
* ``xi``        -- the witness vector with ``P_A xi = 0`` and
  ``P_B xi = phi_perp``, whose norm controls how much of ``phi_perp`` can
  hide at small eigenphases (the effective spectral gap argument).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .trees import MarkedSet, MarkingOracle, SolutionTree, Tree, shallowest_marked

__all__ = [
    "WalkOperator",
    "SpectralDecomposition",
    "StateVector",
    "XiVector",
    "SpectralGapReport",
    "psi_v",
    "build_walk_operator",
    "spectral_decomposition",
    "beta_angle",
    "phi_m_state",
    "phi_state",
    "phi_perp_state",
    "path_superposition_coefficients",
    "xi_vector",
    "spectral_gap_check",
]


@dataclass(frozen=True)
class StateVector:
    """Amplitudes over the vertex basis; ``beta`` populated where meaningful."""

    amplitudes: np.ndarray
    beta: float | None = None

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        return StateVector(self.amplitudes / self.norm, beta=self.beta)


@dataclass(frozen=True)
class XiVector:
    """Coefficients of the spectral-gap witness vector."""

    alpha: np.ndarray

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.alpha))


@dataclass(frozen=True)
class WalkOperator:
    """One step of the walk: ``matrix = r_b @ r_a`` on span(V).

    ``even_mask`` flags vertices at even depth (the root's side).  ``marked``
    is the shallowest marked set used for the identity blocks; vertices below
    it never acquire amplitude when starting from the root, so marking
    conventions deeper down are unobservable.
    """

    tree: Tree
    eta: float
    matrix: np.ndarray
    r_a: np.ndarray
    r_b: np.ndarray
    even_mask: np.ndarray
    marked: frozenset[int]

    def projector_a(self) -> np.ndarray:
        """Projector onto the +1 eigenspace of ``r_a`` (reflections: (R+I)/2)."""
        return (self.r_a + np.eye(self.tree.n_vertices)) / 2.0

    def projector_b(self) -> np.ndarray:
        return (self.r_b + np.eye(self.tree.n_vertices)) / 2.0


@dataclass(frozen=True)
class SpectralDecomposition:
    """Orthonormal eigenbasis with eigenphases in (-pi/2, pi/2].

    ``vectors[:, j]`` has eigenvalue ``exp(2i * phases[j])``.  Real
    eigenvectors are stored as complex with zero imaginary part.
    """

    phases: np.ndarray
    vectors: np.ndarray

    def amplitudes(self, state: np.ndarray) -> np.ndarray:
        """Expansion coefficients of ``state`` in the eigenbasis."""
        return self.vectors.conj().T @ np.asarray(state, dtype=complex)

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * np.exp(2j * self.phases)) @ self.vectors.conj().T

    def small_phase_projector_norm(self, state: np.ndarray, eps: float) -> float:
        """Norm of the projection of ``state`` onto eigenphases |theta| <= eps."""
        lam = self.amplitudes(state)
        keep = np.abs(self.phases) <= eps
        return float(np.sqrt(np.sum(np.abs(lam[keep]) ** 2)))


def _star_weights(tree: Tree, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex amplitudes of each vertex's own diffusion state.

    ``centre[v]`` is ``psi_v``'s amplitude on ``v`` and ``leg[v]`` its
    amplitude on each child of ``v``: ``1/sqrt(1 + d_r eta)`` and
    ``sqrt(eta)/sqrt(1 + d_r eta)`` at the root, ``1/sqrt(d_v)`` for both
    elsewhere, with ``d_v`` the full degree.
    """
    root = tree.root
    n_kids = np.array([len(kids) for kids in tree.children], dtype=float)
    norm = np.sqrt(n_kids + 1.0)
    norm[root] = np.sqrt(1.0 + n_kids[root] * eta)
    centre = 1.0 / norm
    leg = centre.copy()
    leg[root] = np.sqrt(eta) / norm[root]
    return centre, leg


def psi_v(tree: Tree, v: int, eta: float, marked: frozenset[int] | MarkedSet | None = None) -> StateVector:
    """The local diffusion state at an unmarked vertex.

    Root: ``(|r> + sqrt(eta) * sum_children) / sqrt(1 + d_r * eta)``.
    Elsewhere: ``(|v> + sum_children) / sqrt(d_v)`` with ``d_v`` the full
    degree (parent plus children).  A childless non-root vertex therefore has
    ``psi_v = |v>`` and its block flips only that axis.
    """
    members = marked.members if isinstance(marked, MarkedSet) else marked
    if members and v in members:
        raise ValueError(f"vertex {v} is marked: its diffusion block is the identity")
    centre, leg = _star_weights(tree, eta)
    amp = np.zeros(tree.n_vertices)
    amp[v] = centre[v]
    amp[list(tree.children[v])] = leg[v]
    return StateVector(amp)


def _reflection(owner: np.ndarray, amp: np.ndarray) -> np.ndarray:
    """``I - 2 sum_v psi_v psi_v^T`` over pairwise disjoint stars.

    ``owner[i]`` names the star holding vertex ``i`` and ``amp[i]`` is its
    amplitude there (zero in identity blocks).  Every entry is formed as
    ``delta_ij - 2.0 * (amp_i * amp_j)``, exactly as a per-star rank-one
    update would form it.
    """
    r = np.outer(amp, amp)
    r *= owner[:, None] == owner
    r *= 2.0
    np.subtract(0.0, r, out=r)
    r.flat[:: r.shape[0] + 1] += 1.0
    return r


def build_walk_operator(
    tree: Tree, oracle: MarkingOracle | MarkedSet, eta: float
) -> WalkOperator:
    """Assemble ``R_B R_A(eta)`` as a dense real orthogonal matrix.

    Accepts the marking oracle (shallowest marked set computed internally,
    queries counted) or a precomputed :class:`MarkedSet`.  Each reflection
    is one masked outer product over the vertices' star amplitudes, O(n^2);
    the product ``R_B @ R_A`` is the one n^3 BLAS call.  Since an even and
    an odd star share at most one vertex, each entry is a single rounded
    product and the matrices equal a star-by-star rank-one assembly bit for
    bit.  Dense matrices are intended for |V| up to a couple thousand.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    if isinstance(oracle, MarkedSet):
        members = oracle.members
    else:
        members = shallowest_marked(tree, oracle).members
    n = tree.n_vertices
    even = (tree.depth % 2) == 0

    centre, leg = _star_weights(tree, eta)
    unmarked = np.ones(n, dtype=bool)
    unmarked[list(members)] = False
    idx = np.arange(n)
    up = np.where(tree.parent >= 0, tree.parent, idx)
    own_amp = np.where(unmarked, centre, 0.0)
    up_amp = np.where(unmarked[up], leg[up], 0.0)
    up_amp[tree.root] = 0.0  # the root sits in no odd star
    r_a = _reflection(np.where(even, idx, up), np.where(even, own_amp, up_amp))
    r_b = _reflection(np.where(even, up, idx), np.where(even, up_amp, own_amp))
    matrix = r_b @ r_a
    even.setflags(write=False)
    return WalkOperator(
        tree=tree,
        eta=eta,
        matrix=matrix,
        r_a=r_a,
        r_b=r_b,
        even_mask=even,
        marked=frozenset(members),
    )


def spectral_decomposition(op: WalkOperator) -> SpectralDecomposition:
    """Eigenphases and orthonormal eigenvectors from the real Schur form.

    For an orthogonal matrix the quasi-triangular factor is block diagonal:
    1x1 blocks are +/-1 (theta 0 or pi/2), 2x2 blocks are plane rotations
    giving a conjugate pair.  Each 2x2 block is diagonalized exactly in its
    own basis, so the assembled eigenvectors stay orthonormal.
    """
    t, q = scipy.linalg.schur(op.matrix, output="real")
    n = t.shape[0]
    phases = np.empty(n)
    vectors = np.empty((n, n), dtype=complex)
    i = 0
    while i < n:
        if i + 1 < n and t[i + 1, i] != 0.0:
            block = t[i : i + 2, i : i + 2]
            vals, vecs = np.linalg.eig(block)
            basis = q[:, i : i + 2].astype(complex)
            for j in range(2):
                angle = float(np.angle(vals[j]))
                phases[i + j] = angle / 2.0
                col = basis @ vecs[:, j]
                vectors[:, i + j] = col / np.linalg.norm(col)
            i += 2
        else:
            phases[i] = 0.0 if t[i, i] > 0.0 else np.pi / 2.0
            vectors[:, i] = q[:, i]
            i += 1
    phases.setflags(write=False)
    vectors.setflags(write=False)
    return SpectralDecomposition(phases=phases, vectors=vectors)


def beta_angle(kappa_root: float, eta: float) -> float:
    """The root-amplitude angle: ``tan(beta) = sqrt(eta) * kappa_root``."""
    return float(np.arctan(np.sqrt(eta) * kappa_root))


def _alternating_sign(depth: np.ndarray) -> np.ndarray:
    return np.where(depth % 2 == 0, 1.0, -1.0)


def phi_m_state(
    tree: Tree, marked: MarkedSet, m: int, eta: float, normalized: bool = True
) -> StateVector:
    """Alternating-sign path vector for one marked vertex.

    ``sqrt(eta)`` at the root, then ``(-1)^depth`` along the root-to-m path.
    An exact eigenvalue-1 eigenvector of the walk for every ``eta``.
    """
    if m not in marked.members:
        raise ValueError(f"vertex {m} is not in the shallowest marked set")
    amp = np.zeros(tree.n_vertices)
    amp[tree.root] = np.sqrt(eta)
    for v in tree.path_from_root(m):
        if v != tree.root:
            amp[v] = (-1.0) ** int(tree.depth[v])
    state = StateVector(amp)
    return state.normalized() if normalized else state


def phi_state(st: SolutionTree, ka, eta: float) -> StateVector:
    """The normalized kappa-weighted superposition of all path vectors."""
    tree = st.tree
    beta = beta_angle(ka.kappa[tree.root], eta)
    amp = np.cos(beta) * _alternating_sign(tree.depth) * ka.kappa
    amp[tree.root] = np.sin(beta)
    return StateVector(amp, beta=beta)


def phi_perp_state(st: SolutionTree, ka, eta: float) -> StateVector:
    """The state completing the root: orthogonal to phi and to every path vector."""
    tree = st.tree
    beta = beta_angle(ka.kappa[tree.root], eta)
    amp = -np.sin(beta) * _alternating_sign(tree.depth) * ka.kappa
    amp[tree.root] = np.cos(beta)
    return StateVector(amp, beta=beta)


def path_superposition_coefficients(st: SolutionTree, ka, eta: float) -> dict[int, float]:
    """Per-leaf coefficients of phi over the path vectors: ``kappa_m * cos(beta)``."""
    beta = beta_angle(ka.kappa[st.tree.root], eta)
    return {int(m): float(ka.kappa[m] * np.cos(beta)) for m in st.leaf_set.members}


def xi_vector(st: SolutionTree, ka, eta: float) -> XiVector:
    """The spectral-gap witness: killed by P_A, mapped to phi_perp by P_B.

    ``alpha_root = cos(beta)``; down the tree the coefficient is
    ``sin(beta) * (1/kappa_root - prefix)`` where ``prefix`` sums kappa along
    the root path (root excluded), with the vertex's own kappa added back on
    odd depths.  Norm is bounded by ``sqrt(2 (T-1) eta) * cos(beta)`` whenever
    ``eta >= 1/(T-1)``.
    """
    tree = st.tree
    if tree.n_vertices < 2:
        raise ValueError("witness vector needs a nontrivial tree")
    beta = beta_angle(ka.kappa[tree.root], eta)
    sin_b = np.sin(beta)
    inv_kr = 1.0 / ka.kappa[tree.root]
    n = tree.n_vertices
    alpha = np.zeros(n)
    alpha[tree.root] = np.cos(beta)
    prefix = np.zeros(n)  # kappa summed along the root path, root excluded
    order = tree.subtree_vertices(tree.root)
    for v in order:
        if v == tree.root:
            continue
        prefix[v] = prefix[tree.parent[v]] + ka.kappa[v]
        value = inv_kr - prefix[v]
        if tree.depth[v] % 2 == 1:
            value += ka.kappa[v]
        alpha[v] = sin_b * value
    alpha.setflags(write=False)
    return XiVector(alpha=alpha)


@dataclass(frozen=True)
class SpectralGapReport:
    eps: float
    p_eps_norm: float
    xi_norm: float

    @property
    def satisfied(self) -> bool:
        return self.p_eps_norm <= self.eps * self.xi_norm + 1e-12


def spectral_gap_check(
    sd: SpectralDecomposition, phi_perp: StateVector, xi: XiVector, eps: float
) -> SpectralGapReport:
    """Check ``||P_eps phi_perp|| <= eps * ||xi||`` at threshold ``eps``."""
    if not (0.0 < eps <= np.pi / 2):
        raise ValueError("eps must lie in (0, pi/2]")
    norm = sd.small_phase_projector_norm(phi_perp.amplitudes, eps)
    return SpectralGapReport(eps=eps, p_eps_norm=norm, xi_norm=xi.norm)
