"""Exact measurement statistics of phase and amplitude estimation.

The algorithms read one event of phase estimation, the all-zeros ancilla
outcome and the vertex law given it.  :func:`pe_distribution` is the one home
of that outcome-0 law, exact from the walk's eigendecomposition at a cost
independent of ``2^s``.  Two backends give the full joint (outcome x vertex)
law and cross-check each other on small instances:

* :func:`pe_joint` evaluates the kernel on the eigendecomposition, one sine
  per (outcome, eigenphase) pair and one matrix product per block of
  outcomes;
* :func:`gate_level_pe` simulates the literal circuit (ancilla register,
  ancilla ``j`` controlling ``W^(2^j)``, inverse Fourier transform) on the
  full ``2^s x |V|`` statevector: ``s`` matrix products fill the register
  and an FFT per vertex row transforms it.

With ``s`` ancillas and eigenvalue ``exp(2i*theta)``, the ancilla outcome
``w`` carries amplitude ``(1/M) sum_x exp(ix(2 theta - 2 pi w / M))`` with
``M = 2^s``; at ``w = 0`` the probability is the familiar
``sin^2(M theta) / (M^2 sin^2 theta)``, exactly 1 for fixed points.

Amplitude estimation draws land on the grid ``pi * y / M``.  The two
eigenphases ``+/- theta`` of the rotation operator describe the same
amplitude, so outcomes are folded to ``[0, pi/2]``; without folding, half of
all draws at the optimum would report ``pi - theta`` and break any
window test around ``pi/4``.
"""

from __future__ import annotations

import math
from decimal import Decimal

import numpy as np

from .walk import SpectralDecomposition, WalkOperator

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
GATE_DIM_CAP = 2**22
# pi = _PI_SPLIT[0] + _PI_SPLIT[1] + _PI_SPLIT[2] to about 1e-30: the first two
# parts have 24 significant bits, so their products with any outcome index
# below 2^MAX_ANCILLAS are exact.
_PI = Decimal("3.14159265358979323846264338327950288")
_PI_1 = float(np.float32(_PI))
_PI_2 = float(np.float32(_PI - Decimal(_PI_1)))
_PI_SPLIT = (_PI_1, _PI_2, float(_PI - Decimal(_PI_1) - Decimal(_PI_2)))
# Entries per block of the joint-law loops: bounds their temporaries.
_BLOCK_ENTRIES = 1 << 18
# The probability-sum tolerance of Generator.choice: sqrt of float64 eps.
PROB_SUM_ATOL = math.sqrt(np.finfo(np.float64).eps)


class ResourceLimitError(RuntimeError):
    """Requested distribution or statevector exceeds the configured caps."""


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


def _spectral_amplitudes(sd: SpectralDecomposition, input_state: np.ndarray, s: int) -> np.ndarray:
    """Eigenbasis amplitudes of a unit input, after the checks both spectral laws make."""
    if s < 1:
        raise ValueError("ancilla count s must be >= 1")
    if s > MAX_ANCILLAS:
        raise ResourceLimitError(f"s = {s} exceeds the cap of {MAX_ANCILLAS}")
    state = np.asarray(input_state, dtype=complex)
    if abs(np.linalg.norm(state) - 1.0) > 1e-9:
        raise ValueError("input state must be normalized")
    return sd.amplitudes(state)


def pe_distribution(sd: SpectralDecomposition, input_state: np.ndarray, s: int) -> tuple[float, np.ndarray]:
    """The outcome-0 law of phase estimation: ``(p_zero, vertex_given_zero)``.

    ``p_zero`` is the probability of the all-zeros ancilla outcome and
    ``vertex_given_zero`` the vertex distribution given it (zeros when
    ``p_zero`` is 0), a fresh array.  Cost is independent of ``2^s``.
    """
    lam = _spectral_amplitudes(sd, input_state, s)
    weighted = lam * pe_kernel_amplitude(sd.phases, s)
    amp_zero = sd.vectors @ weighted
    p_zero = float(np.sum(np.abs(weighted) ** 2))
    cond = np.abs(amp_zero) ** 2
    cond = cond / p_zero if p_zero > 0 else np.zeros(lam.shape[0])
    return p_zero, cond


def pe_joint(sd: SpectralDecomposition, input_state: np.ndarray, s: int) -> np.ndarray:
    """Joint (ancilla outcome x vertex) law of phase estimation, ``2^s x |V|``.

    Raises :class:`ResourceLimitError` when ``2^s * |V|`` exceeds the
    gate-level cap.  Row 0 is the outcome-0 law of :func:`pe_distribution`
    unnormalised; the full array serves as the cross-check of
    :func:`gate_level_pe`.
    """
    lam = _spectral_amplitudes(sd, input_state, s)
    m = 1 << s
    dim = lam.shape[0]
    if m * dim > GATE_DIM_CAP:
        raise ResourceLimitError(f"joint of size 2^{s} x {dim} exceeds the cap of 2^22 entries")
    joint = np.empty((m, dim))
    rows = max(1, _BLOCK_ENTRIES // dim)
    basis_t = sd.vectors.T
    for w0 in range(0, m, rows):
        omegas = np.arange(w0, min(w0 + rows, m))
        kernel = pe_kernel_amplitude(sd.phases, s, omegas[:, None])  # omega x eig
        kernel *= lam
        joint[w0 : w0 + rows] = _abs2(kernel @ basis_t)  # omega x vertex
    return joint


def _abs2(z: np.ndarray) -> np.ndarray:
    """``|z|^2`` without the square root of ``abs``."""
    return z.real**2 + z.imag**2


def gate_level_pe(op: WalkOperator, input_state: np.ndarray, s: int) -> np.ndarray:
    """Literal circuit simulation: ancillas, controlled powers, inverse QFT.

    Ancilla ``j`` controls ``W^(2^j)``, the walk matrix squared ``j`` times,
    so the register ``|x>|W^x psi>`` fills by doubling: its columns
    ``2^j .. 2^(j+1) - 1`` are ``W^(2^j)`` times columns ``0 .. 2^j - 1``.
    The register is stored vertex x ancilla index in the dtype of the state
    and the walk (a real input stays real); the inverse Fourier transform
    over the ancilla index then runs as an FFT along its rows, a few vertex
    rows at a time.  Returns the ``2^s x |V|`` joint law.  No
    eigendecomposition is used, so this matches :func:`pe_joint` to
    floating-point accuracy as an independent check.
    """
    state = np.asarray(input_state)
    if abs(np.linalg.norm(state) - 1.0) > 1e-9:
        raise ValueError("input state must be normalized")
    m = 1 << s
    dim = state.shape[0]
    if m * dim > GATE_DIM_CAP:
        raise ResourceLimitError(
            f"statevector of size 2^{s} x {dim} exceeds the cap of 2^22 amplitudes"
        )
    register = np.empty((dim, m), dtype=np.result_type(state, op.matrix))
    register[:, 0] = state
    power = op.matrix
    for j in range(s):
        width = 1 << j
        register[:, width : 2 * width] = power @ register[:, :width]
        if j + 1 < s:
            power = power @ power
    # Hadamards and the inverse QFT, out[w] = (1/M) sum_x e^{-2 pi i w x / M} reg[x]
    joint = np.empty((m, dim))
    rows = max(1, _BLOCK_ENTRIES // m)
    for v0 in range(0, dim, rows):
        spectrum = np.fft.fft(register[v0 : v0 + rows], axis=1)
        joint[:, v0 : v0 + rows] = _abs2(spectrum).T / float(m * m)
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
    if s < 1 or s > MAX_ANCILLAS:
        raise ResourceLimitError(f"ancilla count {s} outside [1, {MAX_ANCILLAS}]")
    m = 1 << s
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
    """Total variation distance between two distributions on the same support."""
    diff = np.asarray(p) - np.asarray(q)
    return 0.5 * float(np.abs(diff, out=diff).sum())


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
