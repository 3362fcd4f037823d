"""Exact measurement statistics of phase and amplitude estimation.

Two backends compute the same distributions:

* the spectral backend evaluates the estimation kernel on the walk
  operator's eigendecomposition, giving exact outcome probabilities with no
  simulator shot noise;
* the gate-level backend simulates the literal circuit (ancilla register,
  controlled powers of the walk, inverse Fourier transform) on the full
  ``2^s x |V|`` statevector, as an independent cross-check on small
  instances.

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
from dataclasses import dataclass

import numpy as np

from .walk import SpectralDecomposition, WalkOperator

__all__ = [
    "ResourceLimitError",
    "PEOutcome",
    "MAX_ANCILLAS",
    "GATE_DIM_CAP",
    "pe_ancillas",
    "pe_kernel",
    "pe_kernel_amplitude",
    "pe_distribution",
    "gate_level_pe",
    "ae_outcome_grid",
    "ae_outcome_distribution",
    "total_variation",
    "pearson_chi2",
]

MAX_ANCILLAS = 24
GATE_DIM_CAP = 2**22


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
    m = 1 << s
    theta = np.asarray(theta, dtype=float)
    out = _dirichlet_ratio(theta, m) ** 2
    return out if out.shape else float(out)


def _dirichlet_ratio(half: np.ndarray, m: int) -> np.ndarray:
    """``sin(M x) / (M sin x)`` with the correct signed limit at multiples of pi."""
    den = np.sin(half)
    resonant = np.abs(den) < 1e-13
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(
            resonant,
            np.cos(m * half) / np.cos(half),
            np.sin(m * half) / (m * np.where(resonant, 1.0, den)),
        )


def pe_kernel_amplitude(theta: np.ndarray, s: int, omega: np.ndarray | int = 0) -> np.ndarray:
    """Complex ancilla amplitude ``(1/M) sum_x exp(ix(2 theta - 2 pi w/M))``."""
    m = 1 << s
    theta = np.asarray(theta, dtype=float)
    half = theta - np.pi * omega / m
    return _dirichlet_ratio(half, m) * np.exp(1j * (m - 1) * half)


@dataclass(frozen=True)
class PEOutcome:
    """Measurement statistics of one phase-estimation run.

    ``p_zero`` is the probability of the all-zeros ancilla outcome;
    ``vertex_given_zero`` the conditional vertex distribution after seeing
    it.  ``joint`` (outcome x vertex) is materialized only when the caller
    asked for it; ``outcome_marginal`` derives from it.
    """

    s: int
    p_zero: float
    vertex_given_zero: np.ndarray
    joint: np.ndarray | None = None

    def outcome_marginal(self) -> np.ndarray:
        if self.joint is None:
            raise ResourceLimitError(
                "joint distribution was not materialized for this instance"
            )
        return self.joint.sum(axis=1)


def pe_distribution(
    sd: SpectralDecomposition,
    input_state: np.ndarray,
    s: int,
    with_joint: bool = False,
) -> PEOutcome:
    """Exact statistics of phase estimation from the spectral decomposition.

    The zero-outcome marginal and the conditional vertex distribution are
    always computed (cost independent of ``2^s``).  The full joint is
    materialized only with ``with_joint=True``, which raises
    :class:`ResourceLimitError` when ``2^s * |V|`` exceeds the gate-level cap.
    """
    if s < 1:
        raise ValueError("ancilla count s must be >= 1")
    if s > MAX_ANCILLAS:
        raise ResourceLimitError(f"s = {s} exceeds the cap of {MAX_ANCILLAS}")
    state = np.asarray(input_state, dtype=complex)
    if abs(np.linalg.norm(state) - 1.0) > 1e-9:
        raise ValueError("input state must be normalized")
    m = 1 << s
    dim = state.shape[0]
    lam = sd.amplitudes(state)
    mu = pe_kernel_amplitude(sd.phases, s)
    weighted = lam * mu
    amp_zero = sd.vectors @ weighted
    p_zero = float(np.sum(np.abs(weighted) ** 2))
    cond = np.abs(amp_zero) ** 2
    cond = cond / p_zero if p_zero > 0 else np.zeros(dim)

    joint = None
    if with_joint:
        if m * dim > GATE_DIM_CAP:
            raise ResourceLimitError(
                f"joint of size 2^{s} x {dim} exceeds the cap of 2^22 entries"
            )
        omegas = np.arange(m)
        kernel = pe_kernel_amplitude(sd.phases[:, None], s, omegas[None, :])  # eig x omega
        amps = sd.vectors @ (lam[:, None] * kernel)  # vertex x omega
        joint = (np.abs(amps) ** 2).T.copy()  # omega x vertex
    return PEOutcome(s=s, p_zero=p_zero, vertex_given_zero=cond, joint=joint)


def gate_level_pe(op: WalkOperator, input_state: np.ndarray, s: int) -> PEOutcome:
    """Literal circuit simulation: ancillas, controlled powers, inverse QFT.

    Runs on the full ``2^s x |V|`` register, applying the walk matrix once
    per controlled power, then a fast Fourier transform over the ancilla
    index.  Matches :func:`pe_distribution` to floating-point accuracy.
    """
    state = np.asarray(input_state, dtype=complex)
    if abs(np.linalg.norm(state) - 1.0) > 1e-9:
        raise ValueError("input state must be normalized")
    m = 1 << s
    dim = state.shape[0]
    if m * dim > GATE_DIM_CAP:
        raise ResourceLimitError(
            f"statevector of size 2^{s} x {dim} exceeds the cap of 2^22 amplitudes"
        )
    register = np.empty((m, dim), dtype=complex)
    current = state.copy()
    for x in range(m):
        register[x] = current
        if x + 1 < m:
            current = op.matrix @ current
    register /= np.sqrt(m)
    # inverse QFT on the ancilla index: out[w] = (1/sqrt(M)) sum_x e^{-2pi i wx/M}
    register = np.fft.fft(register, axis=0) / np.sqrt(m)
    joint = np.abs(register) ** 2
    p_zero = float(joint[0].sum())
    cond = joint[0] / p_zero if p_zero > 0 else np.zeros(dim)
    return PEOutcome(s=s, p_zero=p_zero, vertex_given_zero=cond, joint=joint)


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


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance between two distributions on the same support."""
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


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
