"""Exact measurement statistics of phase and amplitude estimation.

The algorithms read one event of phase estimation, the all-zeros ancilla
outcome and the vertex law given it.  :func:`pe_distribution` is the one home
of that outcome-0 law, exact from a :class:`~qbacktrack.walk.SpectralDecomposition`
of the walk at a cost independent of ``2^s``.  It is as exact as that basis:
the search passes the Schur spectrum, the invariant suites the orthonormal
Szegedy one.  Two backends give the full joint (outcome x vertex) law and
cross-check each other on small instances:

* :func:`pe_joint` yields the law a block of outcomes at a time, in outcome
  order, from the eigendecomposition: one sine per (outcome, distinct
  eigenphase) pair and one matrix product per block, over only the
  eigenphases the input has weight on, each against the input's projection
  on its eigenspace.  The backend-equivalence suite compares each block
  with the circuit's rows, so no spectral joint is held whole;
* :func:`gate_level_pe` simulates the literal circuit (ancilla register,
  ancilla ``j`` controlling ``W^(2^j)``, inverse Fourier transform) with its
  ancillas in two groups joined by controlled phases: a high group of
  ``s // 2`` ancillas whose register is transformed first, then the low
  group a block of residues at a time, each FFT of length about ``2^(s/2)``.
  Each residue ``r`` of the outcome modulo ``2^(s//2)`` fills rows ``r::2^(s//2)``
  of a fresh C-contiguous ``2^s x |V|`` joint.  A real input needs only
  half the residues; the other half, and every outcome above ``2^(s-1)``,
  are their exact mirror images.

With ``s`` ancillas and eigenvalue ``exp(2i*theta)``, the ancilla outcome
``w`` carries amplitude ``(1/M) sum_x exp(ix(2 theta - 2 pi w / M))`` with
``M = 2^s``; at ``w = 0`` the probability is the familiar
``sin^2(M theta) / (M^2 sin^2 theta)``, exactly 1 for fixed points.

Amplitude estimation draws land on the grid ``pi * y / M``.  The two
eigenphases ``+/- theta`` of the rotation operator describe the same
amplitude, so outcomes are folded to ``[0, pi/2]``; without folding, half of
all draws at the optimum would report ``pi - theta`` and break any
window test around ``pi/4``.

The caps ``GATE_DIM_CAP`` and :class:`ResourceLimitError` live in
:mod:`~qbacktrack.walk`, whose dense walk they bound too, and are exported
here as well.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from decimal import Decimal

import numpy as np

from .walk import GATE_DIM_CAP, ResourceLimitError, SpectralDecomposition, WalkOperator

__all__ = [
    "ResourceLimitError",
    "MAX_ANCILLAS",
    "GATE_DIM_CAP",
    "pe_ancillas",
    "pe_kernel",
    "pe_kernel_amplitude",
    "pe_distribution",
    "pe_joint",
    "gate_level_pe",
    "ae_outcome_grid",
    "ae_outcome_distribution",
    "choice_cdf",
    "total_variation",
    "pearson_chi2",
]

MAX_ANCILLAS = 24
# pi = _PI_SPLIT[0] + _PI_SPLIT[1] + _PI_SPLIT[2] to about 1e-30: the first two
# parts have 24 significant bits, so their products with any outcome index
# below 2^MAX_ANCILLAS are exact.
_PI = Decimal("3.14159265358979323846264338327950288")
_PI_1 = float(np.float32(_PI))
_PI_2 = float(np.float32(_PI - Decimal(_PI_1)))
_PI_SPLIT = (_PI_1, _PI_2, float(_PI - Decimal(_PI_1) - Decimal(_PI_2)))
# Entries per block of the joint-law loops and total_variation: bounds their temporaries.
_BLOCK_ENTRIES = 1 << 18
# The probability-sum tolerance of Generator.choice: sqrt of float64 eps.
PROB_SUM_ATOL = math.sqrt(np.finfo(np.float64).eps)


def pe_ancillas(size_bound: int, eta: float, delta: float) -> int:
    """Ancilla count for phase estimation at precision ``delta``.

    The smallest ``s >= 1`` with ``2^s >= sqrt(T eta) / delta^3``, where
    ``T`` is the size bound and ``eta`` the walk weight.
    """
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    return max(1, math.ceil(math.log2(max(2.0, math.sqrt(size_bound * eta) / delta**3))))


def pe_kernel(theta: np.ndarray | float, s: int) -> np.ndarray:
    """Probability of ancilla outcome 0 given eigenphase theta.

    ``sin^2(M theta) / (M sin theta)^2`` with the resonant limit 1 where
    theta is a multiple of pi.
    """
    out = _dirichlet_ratio(np.asarray(theta, dtype=float), s, None) ** 2
    return out if out.shape else float(out)


def _dirichlet_ratio(theta: np.ndarray, s: int, omega: np.ndarray | None) -> np.ndarray:
    """``sin(M half) / (M sin half)`` at ``half = theta - pi w / M``, one sine an entry.

    ``theta`` and the integer ``omega`` broadcast against each other; None
    stands for outcome 0.  The numerator needs no sine per entry, as
    ``sin(M half) = (-1)^w sin(M theta)``.  Otherwise ``half`` is reduced into
    [-pi/2, pi/2) (adding pi negates the ratio, which is negated back) and
    formed with pi split in three, so that near a resonance it is accurate
    to rounding, as the numerator is.  There the signed limit
    ``cos(M half) / cos(half)`` is taken.
    """
    m = 1 << s
    num = np.sin(m * theta)
    half = theta
    wrap = None
    if omega is not None:
        wrap = theta - np.pi * omega / m < -np.pi / 2
        w = omega - m * wrap
        for part in _PI_SPLIT:
            half = half - part * w / m
        num = num * (1 - 2 * (omega & 1))
    den = np.sin(half)
    resonant = np.abs(den) < 1e-13
    ratio = np.asarray(num / (m * np.where(resonant, 1.0, den)))
    if resonant.any():
        ratio[resonant] = np.cos(m * half[resonant]) / np.cos(half[resonant])
    if wrap is not None:
        np.negative(ratio, out=ratio, where=wrap)
    return ratio


def pe_kernel_amplitude(theta: np.ndarray, s: int, omega: np.ndarray | int = 0) -> np.ndarray:
    """Complex ancilla amplitude ``(1/M) sum_x exp(ix(2 theta - 2 pi w/M))``.

    ``theta`` and ``omega`` broadcast against each other.  With
    ``half = theta - pi w / M`` the amplitude is
    ``sin(M half) / (M sin half) * exp(i (M-1) half)``, and the phase factor
    splits as ``exp(i (M-1) theta) exp(-i pi (M-1) w / M)``, so an entry of
    the broadcast costs one sine (see :func:`_dirichlet_ratio`).
    """
    m = 1 << s
    theta = np.asarray(theta, dtype=float)
    phase = np.exp(1j * (m - 1) * theta)
    if np.ndim(omega) or omega:
        omega = np.asarray(omega, dtype=np.int64)
        phase = phase * np.exp(-1j * np.pi / m * ((m - 1) * omega % (2 * m)))
    else:
        omega = None
    return _dirichlet_ratio(theta, s, omega) * phase


def _check_ancillas(s: int) -> None:
    """The ancilla-count check every phase- and amplitude-estimation law makes."""
    if s < 1:
        raise ValueError("ancilla count s must be >= 1")
    if s > MAX_ANCILLAS:
        raise ResourceLimitError(f"s = {s} exceeds the cap of {MAX_ANCILLAS}")


def _unit_input(input_state: np.ndarray, s: int, dtype=None) -> np.ndarray:
    """The input as an array, after the ancilla and unit-norm checks every PE law makes."""
    _check_ancillas(s)
    state = np.asarray(input_state, dtype=dtype)
    if abs(np.linalg.norm(state) - 1.0) > 1e-9:
        raise ValueError("input state must be normalized")
    return state


def _check_joint_size(s: int, dim: int) -> None:
    """The ``2^s x |V|`` cap on a joint law or a gate-level register."""
    if (1 << s) * dim > GATE_DIM_CAP:
        raise ResourceLimitError(f"joint of size 2^{s} x {dim} exceeds the cap of 2^22 entries")


def pe_distribution(sd: SpectralDecomposition, input_state: np.ndarray, s: int) -> tuple[float, np.ndarray]:
    """The outcome-0 law of phase estimation: ``(p_zero, vertex_given_zero)``.

    ``p_zero`` is the probability of the all-zeros ancilla outcome and
    ``vertex_given_zero`` the vertex distribution given it (zeros when
    ``p_zero`` is 0), a fresh array.  Cost is independent of ``2^s``.
    """
    lam = sd.amplitudes(_unit_input(input_state, s, complex))
    weighted = lam * pe_kernel_amplitude(sd.phases, s)
    amp_zero = sd.vectors @ weighted
    p_zero = float(np.sum(np.abs(weighted) ** 2))
    cond = np.abs(amp_zero) ** 2
    cond = cond / p_zero if p_zero > 0 else np.zeros(lam.shape[0])
    return p_zero, cond


def pe_joint(
    sd: SpectralDecomposition, input_state: np.ndarray, s: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Joint (ancilla outcome x vertex) law of phase estimation, a block of outcomes at a time.

    Yields ``(w0, rows)`` in outcome order: ``rows`` is a fresh C-contiguous
    array of the outcomes ``w0 .. w0 + len(rows) - 1`` by vertex,
    ``_BLOCK_ENTRIES // |V|`` of them (at least one) save in the last block,
    so each block lines up with the contiguous rows of
    :func:`gate_level_pe`'s ``2^s x |V|`` joint, and the first block's row 0
    is the outcome-0 law of :func:`pe_distribution` unnormalised.  The input
    checks, and the :class:`ResourceLimitError` when ``2^s * |V|`` exceeds
    ``GATE_DIM_CAP``, run on the call; the blocks are computed as they are
    read, so a timer around the call sees only this set-up.

    The amplitude at outcome ``w`` is ``sum_j lam_j K_s(theta_j, w) v_j``.
    An eigencomponent with ``lam_j = 0`` adds exactly nothing, and the
    components that share a phase share its kernel value, so the kernel is
    evaluated once per distinct phase with ``lam_j != 0``, against the
    input's projection ``sum_j lam_j v_j`` on that eigenspace; this drops no
    term of the sum.  The root of a 31-leaf star has weight on 6 Szegedy
    eigenvectors (3 Schur ones) of 32, at 3 distinct phases.
    """
    lam = sd.amplitudes(_unit_input(input_state, s, complex))
    m = 1 << s
    dim = lam.shape[0]
    _check_joint_size(s, dim)
    support = np.flatnonzero(lam)
    phases, group = np.unique(sd.phases[support], return_inverse=True)
    projections = np.zeros((phases.size, dim), dtype=complex)  # distinct phase x vertex
    np.add.at(projections, group, (sd.vectors[:, support] * lam[support]).T)
    step = max(1, _BLOCK_ENTRIES // dim)

    def blocks() -> Iterator[tuple[int, np.ndarray]]:
        for w0 in range(0, m, step):
            omegas = np.arange(w0, min(w0 + step, m))
            kernel = pe_kernel_amplitude(phases, s, omegas[:, None])  # omega x phase
            amp = kernel @ projections  # omega x vertex
            del kernel  # each block's temporaries go before the next block's are made
            rows = np.empty(amp.shape)
            _abs2(amp, rows)
            del amp
            yield w0, rows

    return blocks()


def _abs2(z: np.ndarray, out: np.ndarray) -> None:
    """``|z|^2`` of a complex ``z`` into ``out``, without the square root of ``abs``.

    ``z.imag`` is squared in place, so nothing else is allocated.
    """
    np.square(z.real, out=out)
    out += np.square(z.imag, out=z.imag)


def gate_level_pe(op: WalkOperator, input_state: np.ndarray, s: int) -> np.ndarray:
    """Literal circuit simulation: ancillas, controlled powers, inverse QFT.

    Ancilla ``j`` controls ``W^(2^j)``, the walk matrix squared ``j`` times,
    and the inverse Fourier transform runs over the ancilla index ``x``.  The
    ancillas run in two groups joined by controlled phases, the textbook
    split of the QFT (Bailey's four-step FFT): ``x = x_lo + L x_hi`` with
    ``L = 2^(s - s//2)`` and ``H = 2^(s//2)``.

    * High group: the ``|V| x H`` register ``U^(x_hi) psi``, ``U = W^L``,
      fills by doubling, and one FFT along it gives ``Y[:, r]`` for each
      residue ``r`` of the outcome modulo ``H``.
    * Low group, a block of residues at a time: ``W^(x_lo) Y[:, r]`` fills by
      doubling, one real matrix product on the complex block's float64 view
      a step; the phase ``exp(-2 pi i r x_lo / M) / M`` and an FFT of
      length ``L`` give the outcomes ``r + H k``, whose squared moduli fill
      rows ``r::H`` of the joint.

    A real input keeps the high register real, and its real FFT gives the
    residues ``r <= H/2``.  Residue ``H - r`` is residue ``r`` with ``k``
    reversed (``|X[M - w]|^2 = |X[w]|^2``), and the rows above ``M/2`` are
    copied from their mirrors, so every mirror pair is equal exactly.

    Returns the ``2^s x |V|`` joint law, a fresh C-contiguous float64 array
    and the one joint-sized array made; the peak adds one block of residues,
    the high register and ``s - s//2`` powers of the walk.  No
    eigendecomposition is used, so this matches :func:`pe_joint` to
    floating-point accuracy as an independent check.
    """
    state = _unit_input(input_state, s)  # keeps a real input real
    m = 1 << s
    dim = state.shape[0]
    _check_joint_size(s, dim)
    high_bits = s // 2
    low, high = 1 << (s - high_bits), 1 << high_bits
    powers = [op.matrix]  # the low group's W^(2^j), j < s - s//2
    for _ in range(s - high_bits - 1):
        powers.append(powers[-1] @ powers[-1])
    power = powers[-1] @ powers[-1]  # U = W^L
    register = np.empty((dim, high), dtype=np.result_type(state, power))
    register[:, 0] = state
    for j in range(high_bits):
        width = 1 << j
        np.matmul(power, register[:, :width], out=register[:, width : 2 * width])
        if j + 1 < high_bits:
            power = power @ power
    # Hadamards and the inverse QFT, out[w] = (1/M) sum_x e^{-2 pi i w x / M} reg[x]
    real = not np.iscomplexobj(register)
    y = np.fft.rfft(register, axis=1) if real else np.fft.fft(register, axis=1)
    joint = np.empty((m, dim))
    by_residue = joint.reshape(low, high, dim)  # [k, r] is outcome r + H k
    x_lo = np.arange(low)
    step = max(1, _BLOCK_ENTRIES // (2 * dim * low))
    for r0 in range(0, y.shape[1], step):
        residues = np.arange(r0, min(r0 + step, y.shape[1]))
        block = np.empty((dim, low, residues.size), dtype=complex)
        block[:, 0] = y[:, r0 : r0 + residues.size]
        flat = block.reshape(dim, -1).view(np.float64)
        for j, power in enumerate(powers):
            width = 2 * residues.size << j
            np.matmul(power, flat[:, :width], out=flat[:, width : 2 * width])
        block *= np.exp(-2j * np.pi / m * (x_lo[:, None] * residues)) / m  # r x_lo < H L = M
        law = flat.reshape(-1)[: block.size].reshape(block.shape)  # block's first half
        _abs2(np.fft.fft(block, axis=1), law)
        by_residue[:, r0 : r0 + residues.size] = law.transpose(1, 2, 0)
    if real:
        # residue H - r below M/2 mirrors residue r above it; then every row above M/2 its mirror
        by_residue[: low // 2, high // 2 + 1 :] = by_residue[::-1, high // 2 - 1 : 0 : -1][: low // 2]
        joint[m // 2 + 1 :] = joint[m // 2 - 1 : 0 : -1]
    return joint


def ae_outcome_grid(s: int) -> np.ndarray:
    """Folded estimate grid: ``pi * y / 2^s`` for y = 0 .. 2^(s-1)."""
    m = 1 << s
    return np.pi * np.arange(m // 2 + 1) / m


def ae_outcome_distribution(theta: float, s: int) -> np.ndarray:
    """Exact folded outcome distribution of amplitude estimation.

    ``theta`` in [0, pi/2] is the good-subspace angle.  The rotation operator
    has eigenphases ``+/- theta``, each holding half the input weight, so the
    unfolded outcome y sees the kernel at ``theta - pi y / M`` and
    ``theta + pi y / M``; folding y and M - y (the same amplitude estimate)
    adds the two branches back together.
    """
    if not (0.0 <= theta <= np.pi / 2 + 1e-12):
        raise ValueError("theta must lie in [0, pi/2]")
    _check_ancillas(s)
    grid = ae_outcome_grid(s)
    probs = pe_kernel(theta - grid, s) + pe_kernel(theta + grid, s)
    probs[0] = pe_kernel(theta, s)
    probs[-1] = pe_kernel(theta - np.pi / 2, s)
    return probs


def choice_cdf(probs: np.ndarray) -> np.ndarray:
    """The normalised CDF ``Generator.choice(probs.size, p=probs)`` searches.

    ``probs`` passes the checks ``choice`` makes first: no NaN, no negative
    entry, a sum within ``PROB_SUM_ATOL`` of 1.  Each raises ``ValueError``.
    ``cdf.searchsorted(rng.random(size), side="right")`` then takes the
    doubles and returns the indices that ``rng.choice(probs.size, size, p=probs)``
    would, and leaves ``rng`` in the same state.
    """
    total = float(probs.sum())
    if math.isnan(total):
        raise ValueError("probabilities contain NaN")
    if (probs < 0).any():
        raise ValueError("probabilities are not non-negative")
    if abs(total - 1.0) > PROB_SUM_ATOL:
        raise ValueError("probabilities do not sum to 1")
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance between two distributions on the same support.

    ``p`` and ``q`` must have the same shape, else ``ValueError``.  The
    difference is formed a block of rows at a time, so comparing two joint
    laws allocates no third one.
    """
    p, q = np.asarray(p), np.asarray(q)
    if p.shape != q.shape:
        raise ValueError(f"distributions of shapes {p.shape} and {q.shape} differ in support")
    p, q = np.atleast_1d(p, q)
    rows = max(1, _BLOCK_ENTRIES // max(1, math.prod(p.shape[1:])))
    total = 0.0
    for r0 in range(0, p.shape[0], rows):
        diff = p[r0 : r0 + rows] - q[r0 : r0 + rows]
        total += float(np.abs(diff, out=diff).sum())
        del diff  # freed before the next block's is made
    return 0.5 * total


def pearson_chi2(observed: np.ndarray, probs: np.ndarray) -> tuple[float, int, float]:
    """Pearson goodness of fit of counts to a law: (statistic, df, p-value).

    Adjacent cells are pooled in order until each expected count reaches 5;
    a remainder short of it joins the last pooled cell.
    When pooling leaves a single cell there is nothing to test: df is 0 and
    the statistic and p-value are nan, which fail any threshold gate.
    """
    observed = np.asarray(observed, dtype=float)
    expected = observed.sum() * np.asarray(probs, dtype=float)
    obs_cells: list[float] = []
    exp_cells: list[float] = []
    o = e = 0.0
    for oi, ei in zip(observed, expected):
        o += oi
        e += ei
        if e >= 5.0:
            obs_cells.append(o)
            exp_cells.append(e)
            o = e = 0.0
    if len(exp_cells) < 2:
        return math.nan, 0, math.nan
    obs_cells[-1] += o
    exp_cells[-1] += e
    df = len(exp_cells) - 1
    obs_arr = np.asarray(obs_cells)
    exp_arr = np.asarray(exp_cells)
    stat = float(np.sum((obs_arr - exp_arr) ** 2 / exp_arr))
    # imported on use: nothing else in the library loads scipy.special
    from scipy.special import chdtrc

    return stat, df, float(chdtrc(df, stat))
