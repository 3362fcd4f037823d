"""Walk operator structure, spectrum, and the analytic fixed-point states."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbacktrack import (
    beta_angle,
    build_random_tree,
    build_star,
    build_walk_operator,
    kappa_assignment,
    path_superposition_coefficients,
    phi_m_state,
    phi_perp_state,
    phi_state,
    psi_v,
    resistance_profile,
    shallowest_marked,
    solution_tree,
    spectral_decomposition,
    spectral_gap_check,
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
        amp = psi_v(tree, 0, 1.0).amplitudes
        assert np.allclose(amp, np.ones(3) / np.sqrt(3))

    def test_internal_vertex_counts_full_degree(self):
        tree, _ = build_path(3, False)
        amp = psi_v(tree, 1, 0.7).amplitudes
        # degree 2 (parent + one child): weight 1/sqrt(2) on itself and child
        assert amp[1] == pytest.approx(1 / np.sqrt(2))
        assert amp[2] == pytest.approx(1 / np.sqrt(2))
        assert np.linalg.norm(amp) == pytest.approx(1.0)

    def test_root_limit_small_eta(self):
        tree, _ = build_star(4, 0)
        amp = psi_v(tree, 0, 1e-300).amplitudes
        assert amp[0] == pytest.approx(1.0)

    def test_childless_nonroot_vertex_is_axis_state(self):
        tree, _ = build_path(2, False)
        amp = psi_v(tree, 2, 0.3).amplitudes
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
        psi = psi_v(tree, v, eta).amplitudes
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
            assert np.linalg.norm(op.matrix @ phi_m.amplitudes - phi_m.amplitudes) < 1e-14

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


class TestStates:
    def test_phi_m_sign_alternation(self, path_4):
        marked = path_4.st.leaf_set
        state = phi_m_state(path_4.tree, marked, 4, 0.5, normalized=False)
        assert state.amplitudes[0] == pytest.approx(np.sqrt(0.5))
        assert state.amplitudes[1] == -1.0
        assert state.amplitudes[2] == 1.0
        assert state.amplitudes[3] == -1.0
        assert state.amplitudes[4] == 1.0

    def test_phi_m_requires_marked(self, star_8_2):
        with pytest.raises(ValueError):
            phi_m_state(star_8_2.tree, star_8_2.st.leaf_set, 7, 1.0)

    def test_phi_fixed_point_and_root_overlap(self):
        for inst in random_instances(6):
            eta0 = inst.eta_bar
            for eta in (eta0 / 4, eta0, 4 * eta0):
                op = build_walk_operator(inst.tree, inst.oracle, eta)
                phi = phi_state(inst.st, inst.ka, eta)
                assert np.linalg.norm(op.matrix @ phi.amplitudes - phi.amplitudes) < 1e-10
                assert phi.norm == pytest.approx(1.0, abs=1e-12)
                expected = np.sin(np.arctan(np.sqrt(eta) * inst.ka.kappa[inst.tree.root]))
                assert phi.amplitudes[inst.tree.root] == pytest.approx(expected, abs=1e-12)

    def test_every_path_vector_fixed(self):
        for inst in random_instances(4):
            op = build_walk_operator(inst.tree, inst.oracle, inst.eta_bar)
            for m in inst.st.leaf_set.members:
                pm = phi_m_state(inst.tree, inst.st.leaf_set, m, inst.eta_bar)
                assert np.linalg.norm(op.matrix @ pm.amplitudes - pm.amplitudes) < 1e-10

    def test_star_half_overlap_at_optimum(self, star_64_4):
        phi = phi_state(star_64_4.st, star_64_4.ka, star_64_4.eta_bar)
        assert phi.amplitudes[0] ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_phi_perp_completes_the_root(self):
        for inst in random_instances(5):
            eta = 1.7 * inst.eta_bar
            phi = phi_state(inst.st, inst.ka, eta)
            perp = phi_perp_state(inst.st, inst.ka, eta)
            assert abs(np.dot(phi.amplitudes, perp.amplitudes)) < 1e-14
            beta = phi.beta
            recon = np.sin(beta) * phi.amplitudes + np.cos(beta) * perp.amplitudes
            root = np.zeros(inst.tree.n_vertices)
            root[inst.tree.root] = 1.0
            assert np.linalg.norm(recon - root) < 1e-14
            for m in inst.st.leaf_set.members:
                pm = phi_m_state(inst.tree, inst.st.leaf_set, m, eta)
                assert abs(np.dot(perp.amplitudes, pm.amplitudes)) < 1e-12

    def test_superposition_coefficients_rebuild_phi(self, star_8_2):
        eta = 0.9
        coeffs = path_superposition_coefficients(star_8_2.st, star_8_2.ka, eta)
        rebuilt = np.zeros(star_8_2.tree.n_vertices)
        for m, c in coeffs.items():
            pm = phi_m_state(star_8_2.tree, star_8_2.st.leaf_set, m, eta, normalized=False)
            rebuilt += c * pm.amplitudes
        phi = phi_state(star_8_2.st, star_8_2.ka, eta)
        assert np.allclose(rebuilt, phi.amplitudes, atol=1e-12)


class TestXi:
    def test_projector_conditions(self):
        for inst in random_instances(6):
            for eta in (inst.eta_bar, 4 * inst.eta_bar, inst.eta_bar / 4):
                op = build_walk_operator(inst.tree, inst.oracle, eta)
                xi = xi_vector(inst.st, inst.ka, eta)
                perp = phi_perp_state(inst.st, inst.ka, eta)
                assert np.linalg.norm(op.projector_a() @ xi.alpha) < 1e-10
                assert np.linalg.norm(op.projector_b() @ xi.alpha - perp.amplitudes) < 1e-10

    def test_norm_bound(self):
        for inst in random_instances(6):
            t_bound = inst.tree.size_bound
            for eta in (inst.eta_bar, 4 * inst.eta_bar, max(inst.eta_bar / 4, 1.0 / (t_bound - 1))):
                xi = xi_vector(inst.st, inst.ka, eta)
                beta = beta_angle(inst.ka.kappa[inst.tree.root], eta)
                bound = 2 * (t_bound - 1) * eta * np.cos(beta) ** 2
                assert xi.norm**2 <= bound + 1e-12

    def test_marked_vertex_coefficients(self):
        for inst in random_instances(6):
            eta = inst.eta_bar
            xi = xi_vector(inst.st, inst.ka, eta)
            beta = beta_angle(inst.ka.kappa[inst.tree.root], eta)
            for m in inst.st.leaf_set.members:
                if inst.tree.depth[m] % 2 == 0:
                    assert abs(xi.alpha[m]) < 1e-12
                else:
                    assert xi.alpha[m] == pytest.approx(
                        inst.ka.kappa[m] * np.sin(beta), abs=1e-12
                    )

    def test_root_coefficient(self, star_8_2):
        xi = xi_vector(star_8_2.st, star_8_2.ka, 0.5)
        beta = beta_angle(star_8_2.ka.kappa[0], 0.5)
        assert xi.alpha[0] == pytest.approx(np.cos(beta))


class TestSpectralGap:
    def test_inequality_across_eps_sweep(self):
        for inst in random_instances(5):
            op = build_walk_operator(inst.tree, inst.oracle, inst.eta_bar)
            sd = spectral_decomposition(op)
            perp = phi_perp_state(inst.st, inst.ka, inst.eta_bar)
            xi = xi_vector(inst.st, inst.ka, inst.eta_bar)
            for eps in (1e-3, 1e-2, 1e-1):
                report = spectral_gap_check(sd, perp, xi, eps)
                assert report.satisfied

    def test_whole_space_threshold(self, star_8_2):
        op = build_walk_operator(star_8_2.tree, star_8_2.oracle, star_8_2.eta_bar)
        sd = spectral_decomposition(op)
        perp = phi_perp_state(star_8_2.st, star_8_2.ka, star_8_2.eta_bar)
        xi = xi_vector(star_8_2.st, star_8_2.ka, star_8_2.eta_bar)
        report = spectral_gap_check(sd, perp, xi, np.pi / 2)
        assert report.p_eps_norm == pytest.approx(1.0, abs=1e-12)
        if xi.norm >= 2 / np.pi:
            assert report.satisfied

    def test_single_edge_perp_has_no_small_phase(self, single_edge):
        op = build_walk_operator(single_edge.tree, single_edge.oracle, 0.7)
        sd = spectral_decomposition(op)
        perp = phi_perp_state(single_edge.st, single_edge.ka, 0.7)
        # phi_perp coincides with the root diffusion state: pure eigenvalue -1
        assert sd.small_phase_projector_norm(perp.amplitudes, 1e-6) < 1e-12
