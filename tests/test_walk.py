"""Walk operator structure, spectrum, and the analytic fixed-point states."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qbacktrack import (
    beta_angle,
    build_random_tree,
    build_star,
    build_walk_operator,
    SpectralDecomposition,
    kappa_assignment,
    path_superposition_coefficients,
    pe_distribution,
    phi_m_state,
    phi_perp_state,
    phi_state,
    psi_v,
    resistance_profile,
    shallowest_marked,
    solution_tree,
    spectral_decomposition,
    xi_vector,
)
from conftest import make_instance
from qbacktrack.experiments import default_corpus
from qbacktrack.trees import build_path, tree_from_json


def random_instances(count, size=40, mark_prob=0.15, start_seed=0):
    out = []
    seed = start_seed
    while len(out) < count:
        tree, oracle = build_random_tree(size, 3, mark_prob, seed)
        seed += 1
        marked = shallowest_marked(tree, oracle)
        if not marked.members:
            continue
        out.append(make_instance(lambda: (tree, oracle)))
    return out


class TestPsi:
    def test_root_of_two_leaf_star_at_unit_eta(self):
        tree, _ = build_star(2, 0)
        amp = psi_v(tree, 0, 1.0)
        assert np.allclose(amp, np.ones(3) / np.sqrt(3))

    def test_internal_vertex_counts_full_degree(self):
        tree, _ = build_path(3, False)
        amp = psi_v(tree, 1, 0.7)
        # degree 2 (parent + one child): weight 1/sqrt(2) on itself and child
        assert amp[1] == pytest.approx(1 / np.sqrt(2))
        assert amp[2] == pytest.approx(1 / np.sqrt(2))
        assert np.linalg.norm(amp) == pytest.approx(1.0)

    def test_root_limit_small_eta(self):
        tree, _ = build_star(4, 0)
        amp = psi_v(tree, 0, 1e-300)
        assert amp[0] == pytest.approx(1.0)

    def test_childless_nonroot_vertex_is_axis_state(self):
        tree, _ = build_path(2, False)
        amp = psi_v(tree, 2, 0.3)
        assert amp[2] == pytest.approx(1.0)
        assert np.count_nonzero(amp) == 1

    def test_marked_vertex_has_no_diffusion_state(self):
        tree, oracle = build_star(3, 1)
        marked = shallowest_marked(tree, oracle)
        with pytest.raises(ValueError):
            psi_v(tree, 1, 1.0, marked)


def rank_one_assembly(tree, oracle, eta):
    """Reference walk: one dense rank-one update ``-2 psi_v psi_v^T`` per unmarked vertex."""
    members = shallowest_marked(tree, oracle).members
    n = tree.n_vertices
    r_a, r_b = np.eye(n), np.eye(n)
    for v in range(n):
        if v in members:
            continue
        psi = psi_v(tree, v, eta)
        target = r_a if tree.depth[v] % 2 == 0 else r_b
        target -= 2.0 * np.outer(psi, psi)
    return r_b @ r_a, r_a, r_b


def assert_matches_rank_one(tree, oracle, eta):
    op = build_walk_operator(tree, oracle, eta)
    for got, want in zip((op.matrix, op.r_a, op.r_b), rank_one_assembly(tree, oracle, eta)):
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()  # signed zeros too


# marked vertex 1 (odd depth) and 5 (even depth) both have children, so each
# reflection carries an identity block over a whole star
MARKED_INTERNAL = {
    "root": 0,
    "vertices": [
        {"id": 0, "children": [1, 2]},
        {"id": 1, "children": [3, 4], "marked": True},
        {"id": 2, "children": [5]},
        {"id": 3, "children": []},
        {"id": 4, "children": []},
        {"id": 5, "children": [6, 7], "marked": True},
        {"id": 6, "children": [8]},
        {"id": 7, "children": []},
        {"id": 8, "children": []},
    ],
}


class TestAssembly:
    """The star-block assembly equals the rank-one reference bit for bit."""

    @pytest.mark.parametrize("fixture", ["single_edge", "star_8_2", "star_64_4", "path_4"])
    def test_fixtures(self, fixture, request):
        inst = request.getfixturevalue(fixture)
        for eta in (inst.eta_bar, 0.3, 1.0):
            assert_matches_rank_one(inst.tree, inst.oracle, eta)

    def test_corpus(self):
        for inst in default_corpus(count=30):
            for eta in (0.05, 1.0, 9.0):
                assert_matches_rank_one(inst.tree, inst.oracle, eta)

    def test_large_star(self):
        tree, oracle = build_star(512, 4)
        assert_matches_rank_one(tree, oracle, 1.0 / 128)

    def test_marked_vertices_with_children(self):
        tree, oracle = tree_from_json(MARKED_INTERNAL)
        assert shallowest_marked(tree, oracle).members == {1, 5}
        for eta in (0.2, 3.0):
            assert_matches_rank_one(tree, oracle, eta)

    def test_tiny_eta(self):
        tree, oracle = build_random_tree(40, 3, 0.1, 2)
        assert_matches_rank_one(tree, oracle, 1e-300)


@settings(max_examples=40, deadline=None)
@given(
    size=st.integers(min_value=2, max_value=60),
    degree=st.integers(min_value=2, max_value=5),
    prob=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    eta=st.floats(min_value=1e-6, max_value=1e3),
)
def test_assembly_matches_rank_one(size, degree, prob, seed, eta):
    tree, oracle = build_random_tree(size, degree, prob, seed)
    assert_matches_rank_one(tree, oracle, eta)


class TestOperator:
    @pytest.mark.parametrize("eta", [0.1, 1.0, 7.3])
    def test_orthogonal_and_involutive(self, star_8_2, eta):
        op = build_walk_operator(star_8_2.tree, star_8_2.oracle, eta)
        n = star_8_2.tree.n_vertices
        eye = np.eye(n)
        assert np.linalg.norm(op.matrix.T @ op.matrix - eye) < 1e-12
        assert np.linalg.norm(op.r_a @ op.r_a - eye) < 1e-12
        assert np.linalg.norm(op.r_b @ op.r_b - eye) < 1e-12

    def test_rejects_nonpositive_eta(self, star_8_2):
        with pytest.raises(ValueError):
            build_walk_operator(star_8_2.tree, star_8_2.oracle, 0.0)

    def test_single_edge_path_vector_is_fixed(self, single_edge):
        for eta in (0.25, 1.0, 4.0):
            op = build_walk_operator(single_edge.tree, single_edge.oracle, eta)
            marked = single_edge.st.leaf_set
            phi_m = phi_m_state(single_edge.tree, marked, 1, eta)
            assert np.linalg.norm(op.matrix @ phi_m - phi_m) < 1e-14

    def test_unmarked_star_root_not_fixed(self):
        tree, oracle = build_star(5, 0)
        op = build_walk_operator(tree, oracle, 0.9)
        root = np.zeros(6)
        root[0] = 1.0
        assert np.linalg.norm(op.matrix @ root - root) > 1e-3

    def test_root_fixed_by_r_b(self, path_4):
        op = build_walk_operator(path_4.tree, path_4.oracle, 2.0)
        root = np.zeros(path_4.tree.n_vertices)
        root[0] = 1.0
        assert np.allclose(op.r_b @ root, root)


class TestSpectrum:
    @pytest.mark.parametrize("fixture", ["single_edge", "star_8_2", "path_4"])
    def test_reconstruction(self, fixture, request):
        inst = request.getfixturevalue(fixture)
        op = build_walk_operator(inst.tree, inst.oracle, inst.eta_bar)
        sd = spectral_decomposition(op)
        assert np.linalg.norm(sd.reconstruct() - op.matrix) < 1e-10
        gram = sd.vectors.conj().T @ sd.vectors
        assert np.linalg.norm(gram - np.eye(inst.tree.n_vertices)) < 1e-10
        assert np.all(sd.phases > -np.pi / 2 - 1e-15)
        assert np.all(sd.phases <= np.pi / 2 + 1e-15)

    def test_single_edge_hand_enumerated(self, single_edge):
        # the only blocks are the root reflection (eigenvalue -1 along psi_r)
        # and identities: phases are exactly {0, pi/2}
        op = build_walk_operator(single_edge.tree, single_edge.oracle, 0.7)
        sd = spectral_decomposition(op)
        assert sorted(np.round(sd.phases, 12)) == pytest.approx([0.0, np.pi / 2])

    def test_unit_amplitude_decomposition(self, star_8_2):
        op = build_walk_operator(star_8_2.tree, star_8_2.oracle, 1.3)
        sd = spectral_decomposition(op)
        root = np.zeros(star_8_2.tree.n_vertices)
        root[0] = 1.0
        lam = sd.amplitudes(root)
        assert np.sum(np.abs(lam) ** 2) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.xfail(strict=True, reason="near-identity 2x2 Schur blocks (ROADMAP item 0)")
    def test_degenerate_star_basis_is_orthonormal(self):
        tree, oracle = build_star(64, 4)
        sd = spectral_decomposition(build_walk_operator(tree, oracle, 1.0))
        gram = sd.vectors.conj().T @ sd.vectors
        assert np.linalg.norm(gram - np.eye(tree.n_vertices)) <= 1e-10


class TestSchurCall:
    """The in-place Schur call keeps the default call's values and frees its transient."""

    @pytest.mark.parametrize(
        "build, args, eta",
        [(build_star, (64, 4), 1.0), (build_star, (512, 4), 1.0 / 128), (build_random_tree, (60, 3, 0.1, 5), 0.4)],
    )
    def test_factors_equal_default_schur_and_input_kept(self, monkeypatch, build, args, eta):
        tree, oracle = build(*args)
        op = build_walk_operator(tree, oracle, eta)
        matrix = op.matrix.copy()
        want_t, want_q = scipy.linalg.schur(op.matrix, output="real")
        seen, schur = [], scipy.linalg.schur

        def recording(*a, **kw):
            seen.append(schur(*a, **kw))
            return seen[-1]

        monkeypatch.setattr(scipy.linalg, "schur", recording)
        sd = spectral_decomposition(op)
        [(t, q)] = seen
        assert t.tobytes() == want_t.tobytes() and q.tobytes() == want_q.tobytes()
        assert op.matrix.tobytes() == matrix.tobytes()
        state = np.random.default_rng(0).normal(size=(tree.n_vertices, 2)) @ [1.0, 1.0j]
        assert np.array_equal(sd.amplitudes(state), sd.vectors.conj().T @ state)

    def test_star_512_transient_memory(self):
        tree, oracle = build_star(512, 4)
        marked = shallowest_marked(tree, oracle)
        root = np.zeros(tree.n_vertices)
        root[0] = 1.0
        tracemalloc.start()
        try:
            sd = spectral_decomposition(build_walk_operator(tree, marked, 1.0))
            decompose_peak = tracemalloc.get_traced_memory()[1]
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            pe_distribution(sd, root, 8)
            pe_added = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        # the three n x n walk arrays are 6.0 MiB; a conjugate copy of the
        # complex basis alone would be 4.0 MiB
        assert decompose_peak < 7 * 2**20, f"build + decompose peaked at {decompose_peak / 2**20:.2f} MiB"
        assert pe_added < 2**20, f"pe_distribution added {pe_added / 2**20:.2f} MiB"


def loop_spectral_decomposition(op):
    """Reference decomposition: one ``eig`` per 2x2 Schur block, in a Python loop.

    Also returns the block starts the loop found and the Schur factor ``t``.
    """
    t, q = scipy.linalg.schur(op.matrix, output="real")
    n = t.shape[0]
    phases = np.empty(n)
    vectors = np.empty((n, n), dtype=complex)
    starts = []
    i = 0
    while i < n:
        if i + 1 < n and t[i + 1, i] != 0.0:
            starts.append(i)
            vals, vecs = np.linalg.eig(t[i : i + 2, i : i + 2])
            basis = q[:, i : i + 2].astype(complex)
            for j in range(2):
                phases[i + j] = float(np.angle(vals[j])) / 2.0
                col = basis @ vecs[:, j]
                vectors[:, i + j] = col / np.linalg.norm(col)
            i += 2
        else:
            phases[i] = 0.0 if t[i, i] > 0.0 else np.pi / 2.0
            vectors[:, i] = q[:, i]
            i += 1
    return SpectralDecomposition(phases=phases, vectors=vectors), starts, t


def assert_matches_loop(tree, oracle, eta):
    op = build_walk_operator(tree, oracle, eta)
    got = spectral_decomposition(op)
    want, starts, t = loop_spectral_decomposition(op)
    assert np.flatnonzero(np.diagonal(t, -1)).tolist() == starts
    assert np.array_equal(got.phases, want.phases)
    assert np.abs(got.vectors - want.vectors).max(initial=0.0) <= 1e-14
    root = np.zeros(tree.n_vertices)
    root[0] = 1.0
    for s in (3, 8):
        (p_a, cond_a), (p_b, cond_b) = pe_distribution(got, root, s), pe_distribution(want, root, s)
        assert abs(p_a - p_b) <= 1e-13
        assert np.abs(cond_a - cond_b).max() <= 1e-13


class TestBatchedBlocks:
    """The batched 2x2 post-processing matches the per-block loop."""

    @pytest.mark.parametrize("fixture", ["single_edge", "star_8_2", "star_64_4", "path_4"])
    def test_fixtures(self, fixture, request):
        inst = request.getfixturevalue(fixture)
        for eta in (inst.eta_bar, 0.3, 1.0):
            assert_matches_loop(inst.tree, inst.oracle, eta)

    def test_corpus(self):
        for inst in default_corpus(count=30):
            for eta in (0.05, 1.0, 9.0):
                assert_matches_loop(inst.tree, inst.oracle, eta)

    def test_degenerate_star(self):
        assert_matches_loop(*build_star(64, 4), 1.0)

    def test_large_star(self):
        assert_matches_loop(*build_star(512, 4), 1.0 / 128)


@settings(max_examples=40, deadline=None)
@given(
    size=st.integers(min_value=2, max_value=60),
    degree=st.integers(min_value=2, max_value=5),
    prob=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    eta=st.floats(min_value=1e-6, max_value=1e3),
)
def test_batched_blocks_match_loop(size, degree, prob, seed, eta):
    tree, oracle = build_random_tree(size, degree, prob, seed)
    assert_matches_loop(tree, oracle, eta)


class TestStates:
    def test_phi_m_sign_alternation(self, path_4):
        marked = path_4.st.leaf_set
        state = phi_m_state(path_4.tree, marked, 4, 0.5, normalized=False)
        assert state[0] == pytest.approx(np.sqrt(0.5))
        assert state[1] == -1.0
        assert state[2] == 1.0
        assert state[3] == -1.0
        assert state[4] == 1.0

    def test_phi_m_requires_marked(self, star_8_2):
        with pytest.raises(ValueError):
            phi_m_state(star_8_2.tree, star_8_2.st.leaf_set, 7, 1.0)

    def test_phi_fixed_point_and_root_overlap(self):
        for inst in random_instances(6):
            eta0 = inst.eta_bar
            for eta in (eta0 / 4, eta0, 4 * eta0):
                op = build_walk_operator(inst.tree, inst.oracle, eta)
                phi = phi_state(inst.st, inst.kappa, eta)
                assert np.linalg.norm(op.matrix @ phi - phi) < 1e-10
                assert np.linalg.norm(phi) == pytest.approx(1.0, abs=1e-12)
                expected = np.sin(np.arctan(np.sqrt(eta) * inst.kappa[inst.tree.root]))
                assert phi[inst.tree.root] == pytest.approx(expected, abs=1e-12)

    def test_every_path_vector_fixed(self):
        for inst in random_instances(4):
            op = build_walk_operator(inst.tree, inst.oracle, inst.eta_bar)
            for m in inst.st.leaf_set.members:
                pm = phi_m_state(inst.tree, inst.st.leaf_set, m, inst.eta_bar)
                assert np.linalg.norm(op.matrix @ pm - pm) < 1e-10

    def test_star_half_overlap_at_optimum(self, star_64_4):
        phi = phi_state(star_64_4.st, star_64_4.kappa, star_64_4.eta_bar)
        assert phi[0] ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_phi_perp_completes_the_root(self):
        for inst in random_instances(5):
            eta = 1.7 * inst.eta_bar
            phi = phi_state(inst.st, inst.kappa, eta)
            perp = phi_perp_state(inst.st, inst.kappa, eta)
            assert abs(np.dot(phi, perp)) < 1e-14
            beta = beta_angle(inst.kappa[inst.tree.root], eta)
            recon = np.sin(beta) * phi + np.cos(beta) * perp
            root = np.zeros(inst.tree.n_vertices)
            root[inst.tree.root] = 1.0
            assert np.linalg.norm(recon - root) < 1e-14
            for m in inst.st.leaf_set.members:
                pm = phi_m_state(inst.tree, inst.st.leaf_set, m, eta)
                assert abs(np.dot(perp, pm)) < 1e-12

    def test_superposition_coefficients_rebuild_phi(self, star_8_2):
        eta = 0.9
        coeffs = path_superposition_coefficients(star_8_2.st, star_8_2.kappa, eta)
        rebuilt = np.zeros(star_8_2.tree.n_vertices)
        for m, c in coeffs.items():
            pm = phi_m_state(star_8_2.tree, star_8_2.st.leaf_set, m, eta, normalized=False)
            rebuilt += c * pm
        phi = phi_state(star_8_2.st, star_8_2.kappa, eta)
        assert np.allclose(rebuilt, phi, atol=1e-12)


class TestXi:
    def test_projector_conditions(self):
        for inst in random_instances(6):
            for eta in (inst.eta_bar, 4 * inst.eta_bar, inst.eta_bar / 4):
                op = build_walk_operator(inst.tree, inst.oracle, eta)
                xi = xi_vector(inst.st, inst.kappa, eta)
                perp = phi_perp_state(inst.st, inst.kappa, eta)
                assert np.linalg.norm(op.projector_a() @ xi) < 1e-10
                assert np.linalg.norm(op.projector_b() @ xi - perp) < 1e-10

    def test_norm_bound(self):
        for inst in random_instances(6):
            t_bound = inst.tree.size_bound
            for eta in (inst.eta_bar, 4 * inst.eta_bar, max(inst.eta_bar / 4, 1.0 / (t_bound - 1))):
                xi = xi_vector(inst.st, inst.kappa, eta)
                beta = beta_angle(inst.kappa[inst.tree.root], eta)
                bound = 2 * (t_bound - 1) * eta * np.cos(beta) ** 2
                assert np.linalg.norm(xi) ** 2 <= bound + 1e-12

    def test_marked_vertex_coefficients(self):
        for inst in random_instances(6):
            eta = inst.eta_bar
            xi = xi_vector(inst.st, inst.kappa, eta)
            beta = beta_angle(inst.kappa[inst.tree.root], eta)
            for m in inst.st.leaf_set.members:
                if inst.tree.depth[m] % 2 == 0:
                    assert abs(xi[m]) < 1e-12
                else:
                    assert xi[m] == pytest.approx(
                        inst.kappa[m] * np.sin(beta), abs=1e-12
                    )

    def test_root_coefficient(self, star_8_2):
        xi = xi_vector(star_8_2.st, star_8_2.kappa, 0.5)
        beta = beta_angle(star_8_2.kappa[0], 0.5)
        assert xi[0] == pytest.approx(np.cos(beta))


class TestSpectralGap:
    def test_inequality_across_eps_sweep(self):
        for inst in random_instances(5):
            op = build_walk_operator(inst.tree, inst.oracle, inst.eta_bar)
            sd = spectral_decomposition(op)
            perp = phi_perp_state(inst.st, inst.kappa, inst.eta_bar)
            xi_norm = np.linalg.norm(xi_vector(inst.st, inst.kappa, inst.eta_bar))
            for eps in (1e-3, 1e-2, 1e-1):
                assert sd.small_phase_projector_norm(perp, eps) <= eps * xi_norm + 1e-12

    def test_whole_space_threshold(self, star_8_2):
        op = build_walk_operator(star_8_2.tree, star_8_2.oracle, star_8_2.eta_bar)
        sd = spectral_decomposition(op)
        perp = phi_perp_state(star_8_2.st, star_8_2.kappa, star_8_2.eta_bar)
        xi_norm = np.linalg.norm(xi_vector(star_8_2.st, star_8_2.kappa, star_8_2.eta_bar))
        p_eps = sd.small_phase_projector_norm(perp, np.pi / 2)
        assert p_eps == pytest.approx(1.0, abs=1e-12)
        if xi_norm >= 2 / np.pi:
            assert p_eps <= np.pi / 2 * xi_norm + 1e-12

    def test_single_edge_perp_has_no_small_phase(self, single_edge):
        op = build_walk_operator(single_edge.tree, single_edge.oracle, 0.7)
        sd = spectral_decomposition(op)
        perp = phi_perp_state(single_edge.st, single_edge.kappa, 0.7)
        # phi_perp coincides with the root diffusion state: pure eigenvalue -1
        assert sd.small_phase_projector_norm(perp, 1e-6) < 1e-12
