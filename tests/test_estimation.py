"""Phase/amplitude estimation statistics and backend cross-validation."""

import math
import pathlib
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbacktrack import (
    MAX_ANCILLAS,
    ResourceLimitError,
    ae_outcome_distribution,
    ae_outcome_grid,
    beta_angle,
    build_random_tree,
    build_star,
    build_walk_operator,
    gate_level_pe,
    kappa_assignment,
    pe_ancillas,
    pe_distribution,
    pe_joint,
    pe_kernel,
    pearson_chi2,
    phi_perp_state,
    phi_state,
    resistance_profile,
    shallowest_marked,
    solution_tree,
    spectral_decomposition,
    szegedy_spectrum,
    total_variation,
    tree_from_json,
)
from qbacktrack.algorithms import (
    DELTA_AE, DESCENT_DELTA_CAP, LOOP_PE_DELTA, EstimateResConfig, WalkSimulator, find_all
)
from qbacktrack.estimation import _BLOCK_ENTRIES, choice_cdf, pe_kernel_amplitude
from qbacktrack.experiments import PRECISION_SIZE_CAP, backend_equivalence_instances, default_corpus
from conftest import make_instance, reconstruct, whole_joint


def root_state(n, root=0):
    e = np.zeros(n)
    e[root] = 1.0
    return e


def loop_dirichlet_ratio(half, m):
    """Reference ``sin(M half) / (M sin half)``, signed limit at multiples of pi."""
    den = np.sin(half)
    resonant = np.abs(den) < 1e-13
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(
            resonant,
            np.cos(m * half) / np.cos(half),
            np.sin(m * half) / (m * np.where(resonant, 1.0, den)),
        )


def loop_kernel_amplitude(theta, s, omega=0):
    """Reference kernel amplitude: the per-entry expression in ``half``.

    ``sin(M half) / (M sin half) * exp(i (M-1) half)`` with
    ``half = theta - pi w / M``, five transcendentals an entry.
    """
    m = 1 << s
    half = np.asarray(theta, dtype=float) - np.pi * omega / m
    return loop_dirichlet_ratio(half, m) * np.exp(1j * (m - 1) * half)


def loop_gate_level_pe(op, state, s):
    """Reference circuit: the walk applied one step at a time, ``2^s - 1`` matvecs.

    Returns the joint (outcome x vertex) and p_zero of the literal register
    ``|x>|W^x psi>`` after the inverse QFT over the ancilla index.
    """
    m = 1 << s
    register = np.empty((m, state.shape[0]), dtype=complex)
    current = np.asarray(state, dtype=complex)
    for x in range(m):
        register[x] = current
        current = op.matrix @ current
    joint = np.abs(np.fft.fft(register, axis=0)) ** 2 / m**2
    return joint, float(joint[0].sum())


def register_gate_level_pe(op, state, s):
    """Reference circuit: one vertex-major register, one FFT of length ``2^s`` a vertex.

    Columns ``2^j .. 2^(j+1) - 1`` of the ``|V| x 2^s`` register are
    ``W^(2^j)`` times columns ``0 .. 2^j - 1``.  A real register takes a real
    FFT per block of vertex rows, and the outcomes above ``M/2`` are copied
    from their mirrors.  Returns the outcome x vertex joint.
    """
    m = 1 << s
    dim = state.shape[0]
    register = np.empty((dim, m), dtype=np.result_type(state, op.matrix))
    register[:, 0] = state
    power = op.matrix
    for j in range(s):
        width = 1 << j
        register[:, width : 2 * width] = power @ register[:, :width]
        power = power @ power
    real = not np.iscomplexobj(register)
    half = m // 2
    law = np.empty((dim, m))
    rows = max(1, _BLOCK_ENTRIES // m)
    transform = np.fft.rfft if real else np.fft.fft
    for v0 in range(0, dim, rows):
        out = transform(register[v0 : v0 + rows], axis=1)
        block = law[v0 : v0 + rows]
        block[:, : out.shape[1]] = np.square(out.real) + np.square(out.imag)
        if real:
            block[:, half + 1 :] = block[:, half - 1 : 0 : -1]
    return law.T / float(m * m)


def full_basis_pe_joint(sd, state, s):
    """Reference spectral joint: the kernel on every eigenphase, zero weights included.

    The sum over eigenvectors runs in extended precision, so the reference
    is the exact sum of its float64 terms to about 1e-18.  In float64 it
    lies up to 1.1e-15 from that sum on Schur spectra of random trees, past
    the 1e-15 bound, and would pass only a ``pe_joint`` that associates the
    products as it does.
    """
    lam = sd.amplitudes(np.asarray(state, dtype=complex)).astype(np.clongdouble)
    kernel = pe_kernel_amplitude(sd.phases, s, np.arange(1 << s)[:, None]) * lam
    amp = kernel @ sd.vectors.T.astype(np.clongdouble)
    return (np.square(amp.real) + np.square(amp.imag)).astype(float)


def assert_gate_matches_loop(op, state, s):
    want, p_zero = loop_gate_level_pe(op, state, s)
    got = gate_level_pe(op, state, s)
    assert total_variation(got, want) <= 1e-12
    assert abs(got[0].sum() - p_zero) <= 1e-12


def unit_state(rng, n, complex_input):
    raw = rng.normal(size=n) + (1j * rng.normal(size=n) if complex_input else 0.0)
    return raw / np.linalg.norm(raw)


class TestKernel:
    def test_fixed_point_resonance(self):
        assert pe_kernel(0.0, 5) == pytest.approx(1.0)

    def test_quarter_phase_single_ancilla(self):
        # theta = pi/2, s = 1: sin^2(pi) / (4 sin^2(pi/2)) = 0
        assert pe_kernel(np.pi / 2, 1) == pytest.approx(0.0, abs=1e-15)

    def test_eighth_phase_single_ancilla(self):
        # theta = pi/4, s = 1: sin^2(pi/2) / (4 sin^2(pi/4)) = 1/2
        assert pe_kernel(np.pi / 4, 1) == pytest.approx(0.5)

    @pytest.mark.parametrize("s", [1, 3, 6])
    def test_outcome_probabilities_sum_to_one_per_eigencomponent(self, s):
        m = 1 << s
        rng = np.random.default_rng(0)
        for theta in rng.uniform(-np.pi / 2, np.pi / 2, size=8):
            total = sum(
                abs(pe_kernel_amplitude(np.array([theta]), s, omega=w)[0]) ** 2
                for w in range(m)
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_amplitude_at_zero_outcome_matches_kernel(self):
        thetas = np.linspace(-1.5, 1.5, 11)
        amp = pe_kernel_amplitude(thetas, 4)
        assert np.allclose(np.abs(amp) ** 2, pe_kernel(thetas, 4), atol=1e-13)

    @pytest.mark.parametrize("s", range(1, 25))
    def test_zero_outcome_is_bit_identical_to_references(self, s):
        rng = np.random.default_rng(s)
        edge = [0.0, -0.0, np.pi / 2, -np.pi / 2 + 1e-9, 1e-12, -1e-12, np.pi / 4, 1e-14]
        thetas = np.concatenate([edge, rng.uniform(-np.pi / 2, np.pi / 2, 200)])
        got, want = pe_kernel_amplitude(thetas, s), loop_kernel_amplitude(thetas, s)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        for theta in (0.0, np.pi / 2, 1e-12, -1e-12):
            got, want = pe_kernel_amplitude(theta, s), loop_kernel_amplitude(theta, s)
            assert got.shape == want.shape == ()
            assert np.array_equal(got.reshape(1).view(np.uint64), want.reshape(1).view(np.uint64))
        # the amplitude-estimation law reads the kernel at theta +/- grid, up to pi
        thetas = np.concatenate([thetas, [np.pi, np.pi - 1e-12, 3.0]])
        want = loop_dirichlet_ratio(thetas, 1 << s) ** 2
        assert np.array_equal(pe_kernel(thetas, s).view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("s", [3, 8, 12])
    def test_every_outcome_matches_reference_and_stays_unitary(self, s):
        # thetas near -pi/2 resonate with an outcome at half = -pi, where the
        # one-sine form must reduce half before taking its sine; pi/4 + 1e-11
        # sits 1e-11 off the outcome M/4, where pi w / M must carry pi's tail
        m = 1 << s
        rng = np.random.default_rng(s)
        edge = [0.0, np.pi / 2, -np.pi / 2 + 1e-9, -1.43273769, np.pi / 4, np.pi / 4 + 1e-11, -1e-12]
        thetas = np.concatenate([edge, rng.uniform(-np.pi / 2, np.pi / 2, 60)])[:, None]
        omegas = np.arange(m)[None, :]
        got = pe_kernel_amplitude(thetas, s, omegas)
        assert np.abs(got - loop_kernel_amplitude(thetas, s, omegas)).max() <= 1e-11
        assert np.abs((np.abs(got) ** 2).sum(axis=1) - 1.0).max() <= 1e-13


class TestSpectralPE:
    def test_eigenstate_input_all_mass_on_zero(self, star_8_2):
        eta = star_8_2.eta_bar
        op = build_walk_operator(star_8_2.tree, star_8_2.oracle, eta)
        sd = spectral_decomposition(op)
        phi = phi_state(star_8_2.st, star_8_2.kappa, eta)
        p_zero, _ = pe_distribution(sd, phi, s=6)
        assert p_zero == pytest.approx(1.0, abs=1e-12)

    def test_joint_normalization(self, star_8_2):
        op = build_walk_operator(star_8_2.tree, star_8_2.oracle, 0.4)
        sd = spectral_decomposition(op)
        p_zero, cond = pe_distribution(sd, root_state(9), s=5)
        joint = whole_joint(sd, root_state(9), s=5)
        assert joint.sum() == pytest.approx(1.0, abs=1e-12)
        assert joint[0].sum() == pytest.approx(p_zero, abs=1e-13)
        assert np.abs(joint[0] / p_zero - cond).max() <= 1e-13

    def test_rejects_unnormalized_input(self, star_8_2):
        op = build_walk_operator(star_8_2.tree, star_8_2.oracle, 0.4)
        sd = spectral_decomposition(op)
        with pytest.raises(ValueError):
            pe_distribution(sd, 2.0 * root_state(9), s=3)

    def test_ancilla_cap(self, star_8_2):
        op = build_walk_operator(star_8_2.tree, star_8_2.oracle, 0.4)
        sd = spectral_decomposition(op)
        with pytest.raises(ResourceLimitError):
            pe_distribution(sd, root_state(9), s=25)

    def test_precision_law_corpus(self, star_64_4):
        # phi_perp's outcome-0 probability is sum |lambda|^2 K_s(theta), and with
        # the standard scalings this leak off the zero outcome is O(delta^2)
        cases = [("star_64_4", star_64_4.st, star_64_4.kappa, star_64_4.eta_bar)]
        for inst in default_corpus(count=40):
            if inst.has_marks and inst.tree.n_vertices <= PRECISION_SIZE_CAP:
                st = solution_tree(inst.tree, inst.marked)
                rp = resistance_profile(st)
                cases.append((inst.name, st, kappa_assignment(st, rp), rp.eta_root))
        assert len(cases) > 10
        for name, st, kappa, eta in cases:
            sd = spectral_decomposition(build_walk_operator(st.tree, st.leaf_set, eta))
            perp = phi_perp_state(st, kappa, eta)
            perp /= np.linalg.norm(perp)
            lam2 = np.abs(sd.amplitudes(perp)) ** 2
            for delta in (0.2, 0.1, 0.05):
                s = pe_ancillas(st.tree.size_bound, eta, delta)
                leak = pe_distribution(sd, perp, s)[0]
                assert abs(leak - float(np.sum(lam2 * pe_kernel(sd.phases, s)))) <= 1e-14, name
                assert leak <= 10.0 * delta**2, name


class TestBackendEquivalence:
    def test_single_edge(self, single_edge):
        op = build_walk_operator(single_edge.tree, single_edge.oracle, 0.8)
        sd = spectral_decomposition(op)
        state = root_state(2)
        a = whole_joint(sd, state, s=3)
        b = gate_level_pe(op, state, s=3)
        assert total_variation(a.ravel(), b.ravel()) < 1e-12

    @pytest.mark.parametrize("s", [1, 4, 7])
    def test_star_instances(self, star_8_2, s):
        op = build_walk_operator(star_8_2.tree, star_8_2.oracle, star_8_2.eta_bar)
        sd = spectral_decomposition(op)
        state = root_state(9)
        a = whole_joint(sd, state, s=s)
        b = gate_level_pe(op, state, s=s)
        assert total_variation(a.ravel(), b.ravel()) < 1e-10

    def test_random_trees_and_superposition_inputs(self):
        rng = np.random.default_rng(7)
        for seed in (1, 5):
            tree, oracle = build_random_tree(24, 3, 0.2, seed)
            op = build_walk_operator(tree, oracle, 0.6)
            sd = spectral_decomposition(op)
            raw = rng.normal(size=tree.n_vertices)
            state = raw / np.linalg.norm(raw)
            a = whole_joint(sd, state, s=5)
            b = gate_level_pe(op, state, s=5)
            assert total_variation(a.ravel(), b.ravel()) < 1e-10

    def test_eigenvector_input_gate_level(self, single_edge):
        eta = 1.0
        op = build_walk_operator(single_edge.tree, single_edge.oracle, eta)
        # the normalized path vector is fixed: all mass on outcome zero
        phi_m = np.array([np.sqrt(eta), -1.0])
        phi_m /= np.linalg.norm(phi_m)
        joint = gate_level_pe(op, phi_m, s=4)
        assert joint[0].sum() == pytest.approx(1.0, abs=1e-12)

    def test_dimension_cap(self, star_64_4):
        op = build_walk_operator(star_64_4.tree, star_64_4.oracle, 0.25)
        with pytest.raises(ResourceLimitError):
            gate_level_pe(op, root_state(65), s=18)
        with pytest.raises(ResourceLimitError):  # on the call, before any block is read
            pe_joint(szegedy_spectrum(op), root_state(65), s=18)

    def test_both_backends_reject_zero_ancillas(self, star_8_2):
        op = build_walk_operator(star_8_2.tree, star_8_2.oracle, 0.4)
        sd = spectral_decomposition(op)
        with pytest.raises(ValueError, match="s must be >= 1"):
            gate_level_pe(op, root_state(9), 0)
        with pytest.raises(ValueError, match="s must be >= 1"):
            pe_joint(sd, root_state(9), 0)


class TestJointOnSupport:
    """``pe_joint`` skips eigencomponents with zero weight, groups repeated phases, and loses no term."""

    @pytest.mark.parametrize("row", backend_equivalence_instances(), ids=lambda row: row[0])
    def test_backend_instances_match_full_basis(self, row):
        _, tree, oracle, eta, s = row
        op = build_walk_operator(tree, oracle, eta)
        state = root_state(tree.n_vertices, tree.root)
        for sd in (spectral_decomposition(op), szegedy_spectrum(op)):
            got = whole_joint(sd, state, s)
            assert np.abs(got - full_basis_pe_joint(sd, state, s)).max() <= 1e-15

    def test_instances_cover_partial_and_full_support(self):
        # (support vectors, distinct phases among them, |V|) under the suite's spectrum
        supports = {}
        for name, tree, oracle, eta, _ in backend_equivalence_instances():
            sd = szegedy_spectrum(build_walk_operator(tree, oracle, eta))
            lam = sd.amplitudes(root_state(tree.n_vertices, tree.root).astype(complex))
            support = np.flatnonzero(lam)
            supports[name] = (support.size, np.unique(sd.phases[support]).size, lam.size)
        assert supports["star_31_4_s17"] == (6, 3, 32)
        assert supports["path_4_s5"] == (5, 5, 5)


RANDOM_TREE_INPUTS = dict(
    size=st.integers(min_value=2, max_value=40),
    degree=st.integers(min_value=2, max_value=5),
    prob=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    eta=st.floats(min_value=1e-3, max_value=1e2),
    s=st.integers(min_value=1, max_value=10),
    complex_input=st.booleans(),
)


@settings(max_examples=30, deadline=None)
@given(**RANDOM_TREE_INPUTS)
def test_pe_joint_matches_full_basis(size, degree, prob, seed, eta, s, complex_input):
    # the root input often misses eigencomponents; the random one has them all
    tree, oracle = build_random_tree(size, degree, prob, seed)
    op = build_walk_operator(tree, oracle, eta)
    random_state = unit_state(np.random.default_rng(seed), tree.n_vertices, complex_input)
    for sd in (spectral_decomposition(op), szegedy_spectrum(op)):
        for state in (root_state(tree.n_vertices, tree.root), random_state):
            got = whole_joint(sd, state, s)
            assert np.abs(got - full_basis_pe_joint(sd, state, s)).max() <= 1e-15


@settings(max_examples=30, deadline=None)
@given(**RANDOM_TREE_INPUTS)
def test_szegedy_joint_matches_gate_level(size, degree, prob, seed, eta, s, complex_input):
    # the circuit needs no eigenbasis: an independent oracle for the Szegedy law
    tree, oracle = build_random_tree(size, degree, prob, seed)
    op = build_walk_operator(tree, oracle, eta)
    sd = szegedy_spectrum(op)
    n = tree.n_vertices
    assert np.linalg.norm(sd.vectors.conj().T @ sd.vectors - np.eye(n)) <= 1e-10
    assert np.linalg.norm(reconstruct(sd) - op.matrix) <= 1e-10
    random_state = unit_state(np.random.default_rng(seed), n, complex_input)
    for state in (root_state(n, tree.root), random_state):
        assert total_variation(whole_joint(sd, state, s), gate_level_pe(op, state, s)) <= 1e-10


class TestGateLevelMatchesLoop:
    """Controlled ``W^(2^j)`` powers give the circuit of ``2^s - 1`` single steps."""

    @pytest.mark.parametrize("s", range(1, 11))
    def test_stars(self, star_8_2, star_64_4, s):
        for inst in (star_8_2, star_64_4):
            op = build_walk_operator(inst.tree, inst.oracle, inst.eta_bar)
            assert_gate_matches_loop(op, root_state(inst.tree.n_vertices), s)

    @pytest.mark.parametrize("complex_input", [False, True])
    def test_random_trees_and_superpositions(self, complex_input):
        rng = np.random.default_rng(3)
        for seed in (1, 5, 9):
            tree, oracle = build_random_tree(30, 3, 0.2, seed)
            op = build_walk_operator(tree, oracle, 0.6)
            for s in (1, 4, 10):
                assert_gate_matches_loop(op, unit_state(rng, tree.n_vertices, complex_input), s)

    def test_joint_is_a_contiguous_outcome_by_vertex_array(self, star_8_2):
        # the law is its own C-ordered array: no register, real or complex, outlives the call
        op = build_walk_operator(star_8_2.tree, star_8_2.oracle, 0.4)
        op.matrix  # the cached walk is not the call's to hold
        for dtype in (float, complex):
            tracemalloc.start()
            try:
                joint = gate_level_pe(op, root_state(9).astype(dtype), 12)
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert joint.shape == (4096, 9) and joint.dtype == np.float64 and joint.flags.c_contiguous
            assert joint.flags.owndata and joint.base is None
            assert held <= 1.05 * joint.nbytes


class TestGateLevelMatchesRegister:
    """The two-group circuit gives the one-register circuit's law."""

    @pytest.mark.parametrize("s", [13, 14])
    def test_star_64_4(self, star_64_4, s):
        # s = 13 has groups of 6 and 7 ancillas; a real input's residues take 3 blocks at s = 13, 5 at s = 14
        op = build_walk_operator(star_64_4.tree, star_64_4.oracle, star_64_4.eta_bar)
        for dtype in (float, complex):
            state = root_state(65).astype(dtype)
            assert total_variation(gate_level_pe(op, state, s), register_gate_level_pe(op, state, s)) <= 1e-14

    @pytest.mark.parametrize("s", [5, 6, 9, 10])
    @pytest.mark.parametrize("complex_input", [False, True])
    def test_random_trees_and_superpositions(self, s, complex_input):
        rng = np.random.default_rng(s)
        for seed in (1, 5, 9):
            tree, oracle = build_random_tree(30, 3, 0.2, seed)
            op = build_walk_operator(tree, oracle, 0.6)
            state = unit_state(rng, tree.n_vertices, complex_input)
            assert total_variation(gate_level_pe(op, state, s), register_gate_level_pe(op, state, s)) <= 1e-14


@settings(max_examples=30, deadline=None)
@given(**RANDOM_TREE_INPUTS)
def test_gate_level_matches_loop(size, degree, prob, seed, eta, s, complex_input):
    tree, oracle = build_random_tree(size, degree, prob, seed)
    op = build_walk_operator(tree, oracle, eta)
    state = unit_state(np.random.default_rng(seed), tree.n_vertices, complex_input)
    assert_gate_matches_loop(op, state, s)


class TestRealRegister:
    """A real register takes a real FFT; the outcomes above M/2 are mirror copies."""

    def test_real_and_complex_inputs_agree(self, star_64_4):
        rng = np.random.default_rng(7)
        cases = [(build_walk_operator(star_64_4.tree, star_64_4.oracle, 0.25), root_state(65))]
        for seed in (1, 5):
            tree, oracle = build_random_tree(30, 3, 0.2, seed)
            cases.append((build_walk_operator(tree, oracle, 0.6), unit_state(rng, tree.n_vertices, False)))
        for op, state in cases:
            for s in (1, 2, 5, 9):
                real = gate_level_pe(op, state, s)
                cast = gate_level_pe(op, state.astype(complex), s)
                assert np.max(np.abs(real - cast)) <= 1e-15

    @pytest.mark.parametrize("s", [1, 2, 3, 5, 6, 13])
    def test_joint_mirrors_exactly(self, star_8_2, star_64_4, s):
        # residues 0 and 2^(s//2 - 1) are their own mirrors; star_64_4 at s = 13 takes 3 blocks of residues
        rng = np.random.default_rng(s)
        for inst in (star_8_2, star_64_4):
            n = inst.tree.n_vertices
            op = build_walk_operator(inst.tree, inst.oracle, 0.4)
            for state in (root_state(n), unit_state(rng, n, False)):
                joint = gate_level_pe(op, state, s)
                assert np.array_equal(joint[1:], joint[:0:-1])  # joint[w] == joint[M - w]


class TestJointMemory:
    """Peak memory on the s = 17 backend-equivalence instance, in joints.

    The circuit holds the joint it returns plus one block of residues; the
    spectral law, read block by block, holds no joint: the block of
    outcomes it last yielded and the next block's temporaries.
    """

    JOINTS = {"gate_level": 1.25, "spectral": 0.3}

    S = 17

    @pytest.fixture(scope="class")
    def star(self):
        tree, oracle = build_star(31, 4)
        op = build_walk_operator(tree, oracle, 0.25)
        return op, spectral_decomposition(op), root_state(tree.n_vertices)

    @pytest.mark.parametrize("backend", ["gate_level", "spectral"])
    def test_tracemalloc_peak(self, star, backend):
        op, sd, root = star
        joint_bytes = (1 << self.S) * root.shape[0] * np.dtype(float).itemsize
        tracemalloc.start()
        try:
            if backend == "gate_level":
                gate_level_pe(op, root, self.S)
            else:
                for _ in pe_joint(sd, root, self.S):
                    pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.JOINTS[backend] * joint_bytes


class TestTotalVariation:
    def test_rejects_shapes_that_differ(self):
        with pytest.raises(ValueError, match="shapes"):
            total_variation(np.full((2, 3), 1 / 6), np.full(3, 1 / 3))

    def test_blocked_sum_matches_one_pass(self):
        rng = np.random.default_rng(5)
        p, q = (rng.dirichlet(np.ones(3 << 18)).reshape(-1, 12) for _ in range(2))
        assert total_variation(p, q) == pytest.approx(0.5 * np.abs(p - q).sum(), rel=1e-13)
        assert total_variation(p.ravel(), q.ravel()) == pytest.approx(total_variation(p, q), rel=1e-13)

    def test_no_third_joint(self):
        # two s = 17 joints of the 31-leaf star: the difference is formed in blocks
        shape = (1 << 17, 32)
        p, q = np.full(shape, 1 / (shape[0] * shape[1])), np.zeros(shape)
        q[0] = 1 / shape[1]
        tracemalloc.start()
        try:
            tv = total_variation(p, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tv == pytest.approx(1 - 1 / shape[0], rel=1e-12)
        assert peak < p.nbytes / 4


def _loop_ancillas(size_bound, eta):
    return min(MAX_ANCILLAS, pe_ancillas(size_bound, eta, LOOP_PE_DELTA))


def _descent_ancillas(size_bound, eta):
    # find_marked's descent precision at k_guess = 1
    delta = min(DESCENT_DELTA_CAP, 1.0 / max(1.0, math.log2(eta + 1.0)))
    return min(MAX_ANCILLAS, pe_ancillas(size_bound, eta, delta))


# key: (seed, job, tree) in findall_random; eta_bar: the exact root resistance;
# eta, law, s: the weight under test, the ancilla law at it and the s it gives;
# tol: how close gate-level p_zero comes to sin^2(beta) at that s
MISS_TREES = {
    "seed109": dict(
        key=(109, 8, 13), n=64, marks=[44, 56], eta_bar=6.2,
        eta=16 / 3, law=_loop_ancillas, s=10, tol=1e-5,
    ),
    "seed1011": dict(
        key=(1011, 5, 15), n=69, marks=[50, 58], eta_bar=42 / 13,
        eta=3.246232094272086, law=_descent_ancillas, s=8, tol=1e-3,
    ),
}


class TestFindAllMissTree:
    """Trees on which ``find_all`` misses every mark in ``findall_random``.

    Each file is written by ``tree_to_json`` from
    ``perfbench.workloads.FindallRandom(seed).make_inputs(job)[tree]``.  The
    root's weight on eigenphase 0 is exactly ``sin^2(beta)``, so an exact
    backend gives that p_zero up to the kernel's leak at ``s``.

    * seed 109: every root estimate is inf; the estimation loop's phase
      estimation at eta = 16/3 already reads the wrong p_zero.
    * seed 1011: the root estimate is sound (3.2462 against eta_bar 42/13),
      and ``find_marked`` descends with it; the descent's phase estimation at
      that eta reads the wrong p_zero and vertex law.
    """

    @pytest.fixture(scope="class", params=sorted(MISS_TREES))
    def case(self, request):
        case = SimpleNamespace(**MISS_TREES[request.param])
        path = pathlib.Path(__file__).parent / "data" / f"{request.param}_tree.json"
        case.tree, case.oracle = tree_from_json(path.read_text())
        st = solution_tree(case.tree, shallowest_marked(case.tree, case.oracle))
        case.rp = resistance_profile(st)
        case.beta = beta_angle(kappa_assignment(st, case.rp)[case.tree.root], case.eta)
        case.op = build_walk_operator(case.tree, case.oracle, case.eta)
        case.gate_p_zero = gate_level_pe(case.op, root_state(case.tree.n_vertices), case.s)[0].sum()
        return case

    def test_fixture_is_the_reported_tree(self, case):
        assert case.tree.n_vertices == case.n
        assert case.oracle.marked_vertices() == case.marks
        assert case.rp.eta_root == pytest.approx(case.eta_bar, abs=1e-12)
        assert case.law(case.tree.size_bound, case.eta) == case.s

    def test_gate_level_p_zero_is_sin2_beta(self, case):
        assert case.gate_p_zero == pytest.approx(np.sin(case.beta) ** 2, abs=case.tol)

    @pytest.mark.xfail(strict=True, reason="near-identity 2x2 Schur blocks (ROADMAP item 0)")
    def test_spectral_p_zero_matches_gate_level(self, case):
        # the law the search reads
        p_zero = WalkSimulator(case.tree, case.oracle).pe_stats(case.tree.root, case.eta, case.s)[0]
        assert p_zero == pytest.approx(case.gate_p_zero, abs=1e-10)

    @pytest.mark.xfail(strict=True, reason="near-identity 2x2 Schur blocks (ROADMAP item 0)")
    def test_find_all_recovers_every_mark(self, case):
        # the generator findall_random hands this find_all call
        rng = np.random.default_rng(np.random.SeedSequence([*case.key, 2]))
        found, _ = find_all(case.tree, case.oracle, EstimateResConfig(), rng)
        assert sorted(found) == case.marks


class TestAmplitudeEstimation:
    def test_entirely_good_input(self):
        # good-subspace angle pi/2: every outcome is the top of the grid
        probs = ae_outcome_distribution(np.pi / 2, s=5)
        assert probs[-1] == pytest.approx(1.0, abs=1e-12)
        assert ae_outcome_grid(5)[-1] == pytest.approx(np.pi / 2)

    def test_entirely_bad_input(self):
        # good-subspace angle 0: every outcome is 0
        probs = ae_outcome_distribution(0.0, s=5)
        assert probs[0] == pytest.approx(1.0, abs=1e-12)
        assert ae_outcome_grid(5)[0] == 0.0

    def test_distribution_normalized(self):
        for theta in (0.0, 0.3, np.pi / 4, 1.2, np.pi / 2):
            probs = ae_outcome_distribution(theta, s=7)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(probs >= -1e-15)

    def test_on_grid_angle_is_exact(self):
        # theta = pi/4 sits on the grid for s >= 2: the draw is deterministic
        probs = ae_outcome_distribution(np.pi / 4, s=6)
        grid = ae_outcome_grid(6)
        idx = int(np.argmax(probs))
        assert grid[idx] == pytest.approx(np.pi / 4)
        assert probs[idx] == pytest.approx(1.0, abs=1e-12)

    def test_draws_concentrate_on_grid_angle(self):
        # 1000 draws at theta = pi/4 (a grid angle for s = 10): every draw
        # lands within pi / 2^9, by the exact-distribution tail computed here
        s = 10
        probs = ae_outcome_distribution(np.pi / 4, s)
        grid = ae_outcome_grid(s)
        near = np.abs(grid - np.pi / 4) <= np.pi / 2 ** (s - 1)
        assert probs[near].sum() >= 0.95
        rng = np.random.default_rng(11)
        draws = grid[rng.choice(grid.size, size=1000, p=probs / probs.sum())]
        assert np.mean(np.abs(draws - np.pi / 4) <= np.pi / 2**9) >= 0.95

    def test_concentration_off_grid(self):
        # worst case (half a grid step off): ~90% of the mass sits within two
        # grid steps and ~95% within four; frozen from the exact distribution
        s = 10
        theta = np.pi / 4 + np.pi / 2 ** (s + 1)
        probs = ae_outcome_distribution(theta, s)
        grid = ae_outcome_grid(s)
        within2 = np.abs(grid - theta) <= 2 * np.pi / 2**s
        within4 = np.abs(grid - theta) <= 4 * np.pi / 2**s
        assert probs[within2].sum() >= 0.90
        assert probs[within4].sum() >= 0.949

    def test_vector_good_subspace(self):
        # weight 0.36 on the good subspace: the median outcome is arcsin(0.6)
        s = 9
        theta = np.arcsin(0.6)
        probs = ae_outcome_distribution(theta, s)
        median = ae_outcome_grid(s)[np.searchsorted(np.cumsum(probs), 0.5)]
        assert abs(median - theta) < 0.02

    def test_rejects_angle_outside_range(self):
        for theta in (-0.1, np.pi / 2 + 0.1):
            with pytest.raises(ValueError):
                ae_outcome_distribution(theta, 4)

    def test_ancilla_count_checks(self):
        # too few ancillas is bad input, as in the phase-estimation laws; too many is a cap
        for s in (0, -1):
            with pytest.raises(ValueError):
                ae_outcome_distribution(0.3, s)
        with pytest.raises(ResourceLimitError):
            ae_outcome_distribution(0.3, MAX_ANCILLAS + 1)


class TestPeAncillas:
    def test_target_scalings(self):
        s = pe_ancillas(65, 0.25, 0.1)
        assert 2**s >= np.sqrt(65 * 0.25) / 0.1**3
        assert 2**s <= 2 * np.sqrt(65 * 0.25) / 0.1**3
        # the estimation loop's delta^3 = DELTA_AE^(3/2) asks far fewer ancillas than a descent's 0.1
        assert _loop_ancillas(65, 1 / 64) == 5
        assert pe_ancillas(65, 1 / 64, 0.1) == 10

    def test_invalid_inputs(self):
        for delta in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                pe_ancillas(10, 1.0, delta)
        assert pe_ancillas(2, 1e-9, 0.99) == 1

    @settings(max_examples=500, deadline=None)
    @example(size_bound=65, eta=1 / 64)
    @given(
        size_bound=st.integers(min_value=1, max_value=10**6),
        eta=st.floats(min_value=1e-6, max_value=1e6),
    )
    def test_estimation_loop_uses_delta_three_halves(self, size_bound, eta):
        # the loop's law sqrt(T eta / DELTA_AE^3) is the descent's sqrt(T eta) / delta^3
        # at delta = sqrt(DELTA_AE); the reference is the law written out
        target = math.sqrt(size_bound * eta / DELTA_AE**3)
        want = min(MAX_ANCILLAS, max(1, math.ceil(math.log2(max(2.0, target)))))
        assert _loop_ancillas(size_bound, eta) == want


class TestPearsonChi2:
    def test_matches_scipy_without_pooling(self):
        from scipy.stats import chisquare

        observed = np.array([19667, 41578, 29415, 8453, 887])
        probs = np.array([24, 50, 35, 10, 1]) / 120
        chi2, df, p = pearson_chi2(observed, probs)
        ref = chisquare(observed, observed.sum() * probs)
        assert df == 4
        assert chi2 == pytest.approx(ref.statistic, rel=1e-12)
        assert p == pytest.approx(ref.pvalue, rel=1e-9)

    def test_pools_cells_below_five_expected(self):
        # expected 50, 45, 3, 2: the last two cells pool into one of 5
        chi2, df, _ = pearson_chi2([50, 40, 6, 4], [0.5, 0.45, 0.03, 0.02])
        assert df == 2
        assert chi2 == pytest.approx(0.0 + 25 / 45 + 25 / 5)

    def test_short_remainder_joins_last_cell(self):
        # expected 60, 37, 3: the remainder of 3 joins the 37
        chi2, df, _ = pearson_chi2([60, 36, 4], [0.6, 0.37, 0.03])
        assert df == 1
        assert chi2 == pytest.approx(0.0)

    def test_single_cell_has_nothing_to_test(self):
        chi2, df, p = pearson_chi2([3, 1], [0.5, 0.5])
        assert df == 0
        assert np.isnan(chi2) and np.isnan(p)


def choice_laws():
    """AE stage laws at random theta and s, and Dirichlet laws, normalized as the search does."""
    ae = st.builds(
        lambda theta, s: ae_outcome_distribution(theta, s),
        st.floats(min_value=0.0, max_value=np.pi / 2),
        st.integers(min_value=1, max_value=12),
    )
    dirichlet = st.builds(
        lambda size, alpha, seed: np.random.default_rng(seed).dirichlet(np.full(size, alpha)),
        st.integers(min_value=1, max_value=300),
        st.floats(min_value=0.05, max_value=5.0),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    return st.one_of(ae, dirichlet).map(lambda probs: probs / probs.sum())


@settings(max_examples=60, deadline=None)
@given(
    law=choice_laws(),
    reps=st.one_of(st.none(), st.integers(min_value=1, max_value=500)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_choice_cdf_draws_equal_choice(law, reps, seed):
    want_rng = np.random.default_rng(seed)
    got_rng = np.random.default_rng(seed)
    want = want_rng.choice(law.size, size=reps, p=law)
    got = choice_cdf(law).searchsorted(got_rng.random(reps), side="right")
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestChoiceCdf:
    @pytest.mark.parametrize(
        "law, message",
        [
            ([np.nan, 0.5, 0.5], "NaN"),
            ([-0.25, 0.75, 0.5], "non-negative"),
            ([0.25, 0.25, 0.25], "sum to 1"),
            ([], "sum to 1"),
        ],
    )
    def test_bad_law_rejected_as_choice_rejects_it(self, law, message):
        law = np.asarray(law, dtype=float)
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(max(law.size, 1), p=law)
        with pytest.raises(ValueError, match=message):
            choice_cdf(law)

    def test_last_entry_is_one(self):
        law = np.random.default_rng(3).dirichlet(np.ones(50))
        cdf = choice_cdf(law)
        assert cdf[-1] == 1.0 and np.all(np.diff(cdf) >= 0.0)
