"""The quantum walk operator, its spectrum, and the analytic fixed-point states.

One walk step is the product of two reflections on span(V): ``R_A`` reflects
through the local diffusion states of even-depth vertices, ``R_B`` does the
same at odd depth while holding the root fixed.  At marked vertices the local
block is the identity.  The root's diffusion state carries the tunable weight
``sqrt(eta)`` on its children; everything downstream revolves around choosing
``eta`` well.

Each vertex lies in at most one star of each parity: its own and its
parent's.  Assembly is O(n): the operator keeps each parity's per-vertex
star owners and amplitudes, and applies a reflection, or one walk step, in
O(n) from them.  The dense walk is formed on the first read of
``WalkOperator.matrix``, and only Schur and the gate-level circuit read it;
past ``n = 2048`` (``GATE_DIM_CAP`` entries) the read, and the Szegedy
basis, raise :class:`ResourceLimitError` instead of allocating.
There ``R_A`` and ``R_B`` are ``I - 2 psi_i psi_j`` with the product kept
only where i and j share a star of that parity, O(n^2) vectorised work, and
the one n^3 BLAS product ``R_B @ R_A`` follows.  An even and an odd star
share at most one vertex, which makes every entry of either reflection a
single rounded product: the result does not depend on the order in which
stars are laid down.

Eigenvalues are written ``exp(2i*theta)`` with theta in (-pi/2, pi/2].  Two
routines give the spectrum:

* :func:`szegedy_spectrum` takes one SVD of the small overlap between the
  even and the odd stars and returns a basis that is orthonormal by
  construction.  The invariant suites of ``experiments`` read it.
* :func:`spectral_decomposition` reads the real Schur form of the dense
  matrix: 1x1 blocks are +/-1 eigenvalues, 2x2 rotation blocks give
  conjugate eigenphase pairs.  Its basis is not orthonormal when a repeated
  +/-1 eigenvalue comes back as a near-identity 2x2 block (ROADMAP item 0).
  One reader remains: the search (``WalkSimulator.spectral``).  It is the
  only routine in the package that loads SciPy, on its first call, so
  importing the package, the invariant suites and the CLI's commands that
  do not search load NumPy alone.  The benchmark's trace sites still wrap
  ``spectral_decomposition`` as ``experiments`` and ``descent`` import it,
  so both modules keep that import unread.

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

import functools
from dataclasses import dataclass

import numpy as np

from .trees import MarkedSet, MarkingOracle, SolutionTree, Tree, shallowest_marked

__all__ = [
    "ResourceLimitError",
    "GATE_DIM_CAP",
    "WalkOperator",
    "SpectralDecomposition",
    "build_walk_operator",
    "spectral_decomposition",
    "szegedy_spectrum",
    "beta_angle",
    "phi_m_state",
    "phi_state",
    "phi_perp_state",
    "xi_vector",
]


# Entries in the largest dense walk; it also bounds the 2^s x |V| work of a joint PE law,
# which is streamed in blocks, so no array of that size is held.
GATE_DIM_CAP = 2**22
# Singular values of the star overlap at or below this are zero: their star
# directions are eigenvectors at phase pi/2 on their own, not a rotation pair.
_SIGMA_ZERO = 1e-14


class ResourceLimitError(RuntimeError):
    """Requested distribution or statevector exceeds the configured caps."""


def _check_dense(n: int) -> None:
    """The cap on an ``n x n`` dense array: ``n^2 <= GATE_DIM_CAP``, so ``n <= 2048``."""
    if n * n > GATE_DIM_CAP:
        raise ResourceLimitError(f"a dense {n} x {n} walk exceeds the cap of 2^22 entries")


@dataclass(frozen=True, eq=False)
class WalkOperator:
    """One step of the walk, ``R_B R_A`` on span(V), held as its stars.

    ``stars[0]`` describes ``R_A`` (the even stars) and ``stars[1]`` ``R_B``
    (the odd stars), each as an ``(owner, amp)`` pair of per-vertex arrays:
    ``owner[i]`` names the star of that parity holding vertex ``i`` and
    ``amp[i]`` is its amplitude there, zero where ``i`` is in no unmarked
    star.  The reflections and the walk act through :meth:`reflect` and
    :meth:`apply` in O(n); the dense ``matrix`` is formed on its first read.
    """

    tree: Tree
    eta: float
    stars: tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """The dense ``R_B @ R_A``, formed on the first read and kept: the one n^3 product.

        Raises :class:`ResourceLimitError` past ``n = 2048`` instead of allocating.
        """
        _check_dense(self.tree.n_vertices)
        return _reflection(*self.stars[1]) @ _reflection(*self.stars[0])

    def reflect(self, x: np.ndarray, odd: bool = False) -> np.ndarray:
        """``R_B x`` if ``odd`` else ``R_A x``.

        ``x - 2 sum_v psi_v <psi_v, x>`` over the stars of that parity.  On a
        real basis vector each entry is the one rounded product that the
        dense reflection holds, so the columns equal it bit for bit.  A
        complex ``x`` is reflected a part at a time.
        """
        if np.iscomplexobj(x):
            return self.reflect(x.real, odd) + 1j * self.reflect(x.imag, odd)
        owner, amp = self.stars[odd]
        return x - 2.0 * amp * np.bincount(owner, amp * x, owner.shape[0])[owner]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """One walk step ``R_B R_A x`` in O(n), without the dense matrix."""
        return self.reflect(self.reflect(x), odd=True)


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Unit eigenvectors with eigenphases in (-pi/2, pi/2].

    ``vectors[:, j]`` has eigenvalue ``exp(2i * phases[j])``.  Real
    eigenvectors are stored as complex with zero imaginary part.  The basis
    is orthonormal when :func:`szegedy_spectrum` built it, and not always
    when :func:`spectral_decomposition` did; the Schur basis is read only by
    the search, through ``WalkSimulator.spectral``.
    """

    phases: np.ndarray
    vectors: np.ndarray

    def amplitudes(self, state: np.ndarray) -> np.ndarray:
        """Expansion coefficients of ``state`` in the eigenbasis.

        Formed as ``conj(V^T conj(state))``, which allocates no conjugate
        copy of the n x n basis.
        """
        return (self.vectors.T @ np.asarray(state, dtype=complex).conj()).conj()

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
    """Assemble the walk ``R_B R_A(eta)`` from its per-parity stars, O(n).

    Accepts the marking oracle (shallowest marked set computed internally,
    queries counted) or a precomputed :class:`MarkedSet`.  No dense array
    is formed here.  The first read of ``matrix`` builds each reflection as
    one masked outer product over the vertices' star amplitudes, O(n^2),
    and then runs the product ``R_B @ R_A``, the one n^3 BLAS call.  Since
    an even and an odd star share at most one vertex, each entry is a single
    rounded product and the matrices equal a star-by-star rank-one assembly
    bit for bit.  A dense matrix past ``|V| = 2048`` raises
    :class:`ResourceLimitError` when read.  Raises ``ValueError`` naming
    ``eta`` unless it is finite and positive and the root's squared norm
    ``1 + d_r eta`` is finite.
    """
    if not 0.0 < eta < np.inf:
        raise ValueError(f"eta must be finite and positive, got {eta}")
    d_root = len(tree.children[tree.root])
    if not np.isfinite(1.0 + d_root * float(eta)):
        raise ValueError(f"eta = {eta} overflows the root's norm 1 + d_r*eta (d_r = {d_root})")
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
    stars = (
        (np.where(even, idx, up), np.where(even, own_amp, up_amp)),
        (np.where(even, up, idx), np.where(even, up_amp, own_amp)),
    )
    return WalkOperator(tree=tree, eta=eta, stars=stars)


def spectral_decomposition(op: WalkOperator) -> SpectralDecomposition:
    """Eigenphases and eigenvectors from the real Schur form.

    For an orthogonal matrix the quasi-triangular factor is block diagonal:
    1x1 blocks are +/-1 (theta 0 or pi/2), 2x2 blocks are plane rotations
    giving a conjugate pair.  LAPACK's standard form never has two adjacent
    non-zero sub-diagonal entries, so those entries mark the 2x2 blocks, and
    one batched ``eig`` over the stacked blocks diagonalizes each in its own
    basis.

    The basis is orthonormal only when every 2x2 block is a true rotation.
    A repeated +/-1 eigenvalue can come back as a 2x2 block that is the
    identity up to rounding; ``eig`` then returns two nearly parallel
    eigenvectors (ROADMAP item 0).

    The Schur form comes from the routine and workspace size that a default
    ``scipy.linalg.schur(matrix, output="real")`` call uses, so the factors
    are the same bytes; it runs in place on a private copy, and
    ``op.matrix`` is left as it was.
    """
    # SciPy is imported here, not at module level: no other routine in the
    # package needs it, and importing it costs more than the rest together.
    import scipy.linalg

    # Each n x n input is dropped once read, so the operator (a temporary in
    # WalkSimulator.spectral), its matrix and the Schur factor are freed
    # before the complex basis is allocated: a lower peak RSS.  schur's own
    # workspace query keeps a copy of the matrix and n x n Schur vectors
    # alive through the real call, so the query runs apart and is dropped,
    # and the real call overwrites a private Fortran-ordered copy in place.
    matrix = op.matrix
    del op
    lwork = int(scipy.linalg.lapack.dgees(lambda x, y: None, matrix, lwork=-1)[-2][0])
    a = np.array(matrix, order="F")
    del matrix
    t, q = scipy.linalg.schur(a, output="real", lwork=lwork, overwrite_a=True)
    del a
    pair = np.flatnonzero(np.diagonal(t, -1))[:, None] + np.arange(2)
    vals, vecs = np.linalg.eig(t[pair[:, :, None], pair[:, None, :]])
    phases = np.where(np.diagonal(t) > 0.0, 0.0, np.pi / 2.0)
    phases[pair] = np.angle(vals) / 2.0
    del t
    # block x eigenvector x vertex, each column contiguous and normalized by
    # the dot products np.linalg.norm takes, so it equals a per-block loop's
    cols = (q[:, pair].transpose(1, 0, 2) @ vecs).transpose(0, 2, 1).copy()
    real, imag = cols.real[..., None, :], cols.imag[..., None, :]
    cols /= np.sqrt(real @ real.swapaxes(-1, -2) + imag @ imag.swapaxes(-1, -2))[..., 0]
    vectors = q.astype(complex)
    vectors[:, pair] = cols.transpose(2, 0, 1)
    phases.setflags(write=False)
    vectors.setflags(write=False)
    return SpectralDecomposition(phases=phases, vectors=vectors)


def _star_columns(owner: np.ndarray, amp: np.ndarray) -> np.ndarray:
    """Each vertex's star index, stars numbered in the order of their owners; -1 outside them."""
    in_star = amp != 0.0
    col = np.full(owner.shape[0], -1)
    owners = np.unique(owner[in_star])
    col[owners] = np.arange(owners.shape[0])
    return np.where(in_star, col[owner], -1)


def _star_basis(col: np.ndarray, amp: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """``S @ coeffs`` for the n x k matrix ``S`` whose columns are the stars ``col`` numbers."""
    # a zero row for the vertices in no star, which also serves k = 0
    padded = np.concatenate([coeffs, np.zeros((1, coeffs.shape[1]))])
    return amp[:, None] * padded[col]


def szegedy_spectrum(op: WalkOperator) -> SpectralDecomposition:
    """An orthonormal eigenbasis of the walk from its two families of stars.

    Let the columns of ``A`` be the unmarked even stars and those of ``B``
    the unmarked odd stars, each family orthonormal.  ``W = R_B R_A`` is a
    product of reflections through span(A) and span(B), so its invariant
    planes come from the singular vectors of the overlap ``D = A^T B``
    (Szegedy; Jordan's lemma).  ``D`` has about n non-zero entries, as an even and an odd star
    share at most one vertex; one SVD ``D = U diag(sigma) V^T`` of its
    ``|A| x |B|`` dense form replaces the n x n Schur form:

    * for each ``sigma_j > 0``, with ``a_j = A u_j``, ``b_j = B v_j`` and
      ``c_j`` the unit part of ``b_j`` orthogonal to ``a_j``, W rotates the
      plane (a_j, c_j) by ``2 theta_j``, ``cos theta_j = sigma_j``:
      eigenvectors ``(a_j -/+ i c_j) / sqrt 2`` at phases ``+/- theta_j``;
    * the rest of span(A) and of span(B) is orthogonal to the other family,
      so W negates it: phase pi/2;
    * (A + B)^perp is fixed.  A vector orthogonal to every star has a free
      value at each marked vertex, and every other value follows from its
      own star's constraint, bottom up; so this is the span of the path
      vectors ``phi_m``, |M|-dimensional, and a QR of them gives its basis.

    Every vertex but a marked one owns one star, so the counts add up to n
    and no star direction is fixed (sigma < 1).  The basis is orthonormal
    by construction, whatever the multiplicities of the phases.  The basis
    is dense, so past ``n = 2048`` this raises :class:`ResourceLimitError`.
    """
    tree = op.tree
    n = tree.n_vertices
    _check_dense(n)
    (own_a, amp_a), (own_b, amp_b) = op.stars
    col_a, col_b = _star_columns(own_a, amp_a), _star_columns(own_b, amp_b)
    both = (col_a >= 0) & (col_b >= 0)
    d = np.zeros((col_a.max(initial=-1) + 1, col_b.max(initial=-1) + 1))
    d[col_a[both], col_b[both]] = amp_a[both] * amp_b[both]
    u, sigma, vt = np.linalg.svd(d)
    r = int(np.count_nonzero(sigma > _SIGMA_ZERO))
    a = _star_basis(col_a, amp_a, u)
    b = _star_basis(col_b, amp_b, vt.T)
    c = b[:, :r] - sigma[:r] * a[:, :r]
    sines = np.sqrt(np.einsum("ij,ij->j", c, c))
    c /= sines
    theta = np.arctan2(sines, sigma[:r])

    even = tree.depth % 2 == 0
    marked = np.flatnonzero(np.where(even, amp_a, amp_b) == 0.0)  # they own no star
    paths = np.zeros((n, marked.shape[0]))
    for k, m in enumerate(marked):
        paths[:, k] = _path_vector(tree, int(m), op.eta)

    vectors = np.empty((n, n), dtype=complex)
    half = np.sqrt(0.5)
    vectors.real[:, :r] = vectors.real[:, r : 2 * r] = half * a[:, :r]
    vectors.imag[:, :r] = -half * c
    vectors.imag[:, r : 2 * r] = half * c
    vectors.real[:, 2 * r :] = np.concatenate([a[:, r:], b[:, r:], np.linalg.qr(paths)[0]], axis=1)
    vectors.imag[:, 2 * r :] = 0.0
    n_flip = a.shape[1] + b.shape[1] - 2 * r
    phases = np.concatenate([theta, -theta, np.full(n_flip, np.pi / 2), np.zeros(marked.shape[0])])
    phases.setflags(write=False)
    vectors.setflags(write=False)
    return SpectralDecomposition(phases=phases, vectors=vectors)


def beta_angle(kappa_root: float, eta: float) -> float:
    """The root-amplitude angle: ``tan(beta) = sqrt(eta) * kappa_root``."""
    return float(np.arctan(np.sqrt(eta) * kappa_root))


def _alternating_sign(depth: np.ndarray) -> np.ndarray:
    return np.where(depth % 2 == 0, 1.0, -1.0)


def _path_vector(tree: Tree, m: int, eta: float) -> np.ndarray:
    """The unnormalised path vector of ``m``: ``sqrt(eta)`` at the root, ``(-1)^depth`` below."""
    amp = np.zeros(tree.n_vertices)
    path = tree.path_from_root(m)
    amp[path] = _alternating_sign(tree.depth[path])
    amp[tree.root] = np.sqrt(eta)
    return amp


def phi_m_state(tree: Tree, marked: MarkedSet, m: int, eta: float) -> np.ndarray:
    """Alternating-sign path vector for one marked vertex, normalised.

    Proportional to ``sqrt(eta)`` at the root, then ``(-1)^depth`` along the
    root-to-m path, with squared norm ``eta + depth(m)`` before scaling.  An
    exact eigenvalue-1 eigenvector of the walk for every ``eta``.
    """
    if m not in marked.members:
        raise ValueError(f"vertex {m} is not in the shallowest marked set")
    amp = _path_vector(tree, m, eta)
    return amp / np.linalg.norm(amp)


def phi_state(st: SolutionTree, kappa: np.ndarray, eta: float) -> np.ndarray:
    """The normalized kappa-weighted superposition of all path vectors."""
    tree = st.tree
    beta = beta_angle(kappa[tree.root], eta)
    amp = np.cos(beta) * _alternating_sign(tree.depth) * kappa
    amp[tree.root] = np.sin(beta)
    return amp


def phi_perp_state(st: SolutionTree, kappa: np.ndarray, eta: float) -> np.ndarray:
    """The state completing the root: orthogonal to phi and to every path vector."""
    tree = st.tree
    beta = beta_angle(kappa[tree.root], eta)
    amp = -np.sin(beta) * _alternating_sign(tree.depth) * kappa
    amp[tree.root] = np.cos(beta)
    return amp


def xi_vector(st: SolutionTree, kappa: np.ndarray, eta: float) -> np.ndarray:
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
    beta = beta_angle(kappa[tree.root], eta)
    sin_b = np.sin(beta)
    inv_kr = 1.0 / kappa[tree.root]
    n = tree.n_vertices
    alpha = np.zeros(n)
    alpha[tree.root] = np.cos(beta)
    prefix = np.zeros(n)  # kappa summed along the root path, root excluded
    for v in tree.order[1:]:
        prefix[v] = prefix[tree.parent[v]] + kappa[v]
        value = inv_kr - prefix[v]
        if tree.depth[v] % 2 == 1:
            value += kappa[v]
        alpha[v] = sin_b * value
    alpha.setflags(write=False)
    return alpha
