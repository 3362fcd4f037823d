"""Walk operator structure, spectrum, and the analytic fixed-point states."""

import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import qbacktrack
from qbacktrack import (
    beta_angle,
    build_random_tree,
    build_star,
    build_walk_operator,
    SpectralDecomposition,
    kappa_assignment,
    pe_distribution,
    phi_m_state,
    phi_perp_state,
    phi_state,
    resistance_profile,
    shallowest_marked,
    solution_tree,
    spectral_decomposition,
    szegedy_spectrum,
    xi_vector,
)
from conftest import make_instance, reconstruct
from qbacktrack.experiments import default_corpus
from qbacktrack import estimation
from qbacktrack.estimation import gate_level_pe
from qbacktrack.trees import MarkedSet, build_path, tree_from_json
from qbacktrack.walk import GATE_DIM_CAP, ResourceLimitError, _star_weights


def psi_v(tree, v, eta, marked=None):
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
    return amp


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


def action_reflection(op, odd=False):
    """The dense ``R_A`` (or ``R_B``), built column by column from the operator's action."""
    return np.column_stack([op.reflect(col, odd=odd) for col in np.eye(op.tree.n_vertices)])


def assert_matches_rank_one(tree, oracle, eta):
    op = build_walk_operator(tree, oracle, eta)
    got_all = (op.matrix, action_reflection(op), action_reflection(op, odd=True))
    for got, want in zip(got_all, rank_one_assembly(tree, oracle, eta)):
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()  # signed zeros too


# marked vertex 1 (odd depth) and 5 (even depth) both have children, so each
# reflection carries an identity block over a whole star; the interchange text
MARKED_INTERNAL = json.dumps({
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
})


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


def walk_trees():
    """``(tree, oracle)`` from ``build_random_tree``, ``build_star`` or the MARKED_INTERNAL tree."""
    random = st.builds(
        build_random_tree,
        st.integers(min_value=2, max_value=60),
        st.integers(min_value=2, max_value=5),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    star = st.integers(min_value=1, max_value=64).flatmap(
        lambda n: st.builds(build_star, st.just(n), st.integers(min_value=0, max_value=n))
    )
    return st.one_of(random, star, st.just(MARKED_INTERNAL).map(tree_from_json))


@settings(max_examples=60, deadline=None)
@given(
    built=walk_trees(),
    eta=st.floats(min_value=1e-6, max_value=1e3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_apply_matches_matrix(built, eta, seed):
    tree, oracle = built
    rng = np.random.default_rng(seed)
    n = tree.n_vertices
    op = build_walk_operator(tree, oracle, eta)
    real = rng.normal(size=n)
    for x in (real, real + 1j * rng.normal(size=n)):
        x = x / np.linalg.norm(x)
        got = op.apply(x)
        assert got.dtype == x.dtype
        assert np.max(np.abs(got - op.matrix @ x)) <= 1e-14


class TestOperator:
    @pytest.mark.parametrize("eta", [0.1, 1.0, 7.3])
    def test_orthogonal_and_involutive(self, star_8_2, eta):
        op = build_walk_operator(star_8_2.tree, star_8_2.oracle, eta)
        n = star_8_2.tree.n_vertices
        eye = np.eye(n)
        assert np.linalg.norm(op.matrix.T @ op.matrix - eye) < 1e-12
        for odd in (False, True):
            r = action_reflection(op, odd)
            assert np.linalg.norm(r @ r - eye) < 1e-12

    def test_rejects_nonpositive_eta(self, star_8_2):
        with pytest.raises(ValueError):
            build_walk_operator(star_8_2.tree, star_8_2.oracle, 0.0)

    @pytest.mark.parametrize("eta", [np.nan, np.inf, -np.inf, -1.0])
    def test_rejects_eta_that_is_not_finite_and_positive_by_name(self, star_8_2, eta):
        with pytest.raises(ValueError, match="^eta must be finite and positive"):
            build_walk_operator(star_8_2.tree, star_8_2.oracle, eta)

    def test_rejects_eta_that_overflows_the_root_norm_by_name(self, star_8_2):
        # d_r = 8: max/8 is the largest eta with 1 + 8 eta finite, the next float is not
        largest = np.finfo(float).max / 8
        op = build_walk_operator(star_8_2.tree, star_8_2.oracle, largest)
        owner, amp = op.stars[0]
        assert np.sum(amp[owner == star_8_2.tree.root] ** 2) == pytest.approx(1.0)
        for eta in (np.nextafter(largest, np.inf), 1e308):
            with pytest.raises(ValueError, match="^eta = .* overflows the root's norm"):
                build_walk_operator(star_8_2.tree, star_8_2.oracle, eta)

    def test_dense_forms_refuse_past_the_cap(self):
        # n = 2049: n^2 passes GATE_DIM_CAP = 2^22; the O(n) operator and its action stay uncapped
        tree, oracle = build_star(2048, 1)
        op = build_walk_operator(tree, oracle, 0.5)
        root = np.zeros(tree.n_vertices)
        root[tree.root] = 1.0
        assert np.linalg.norm(op.apply(root)) == pytest.approx(1.0)
        for dense in (lambda: op.matrix, lambda: szegedy_spectrum(op), lambda: spectral_decomposition(op)):
            with pytest.raises(ResourceLimitError, match="dense 2049 x 2049 walk"):
                dense()
        assert "matrix" not in op.__dict__
        assert qbacktrack.ResourceLimitError is estimation.ResourceLimitError is ResourceLimitError
        assert qbacktrack.GATE_DIM_CAP == estimation.GATE_DIM_CAP == GATE_DIM_CAP == 2**22

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
        assert np.allclose(op.reflect(root, odd=True), root)


class TestSpectrum:
    @pytest.mark.parametrize("fixture", ["single_edge", "star_8_2", "path_4"])
    def test_reconstruction(self, fixture, request):
        inst = request.getfixturevalue(fixture)
        op = build_walk_operator(inst.tree, inst.oracle, inst.eta_bar)
        sd = spectral_decomposition(op)
        assert np.linalg.norm(reconstruct(sd) - op.matrix) < 1e-10
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

    def test_scipy_is_loaded_only_by_the_schur_call(self, star_8_2):
        # a fresh interpreter: this process has SciPy loaded already
        script = """
import json, sys
loaded = []
import qbacktrack
loaded.append('scipy' in sys.modules)
import qbacktrack.cli
loaded.append('scipy' in sys.modules)
from qbacktrack import experiments
experiments.verify_all(experiments.default_corpus(5, 3))
loaded.append('scipy' in sys.modules)
from qbacktrack import build_star, build_walk_operator, spectral_decomposition
tree, oracle = build_star(8, 2)
sd = spectral_decomposition(build_walk_operator(tree, oracle, 0.5))
loaded.append('scipy' in sys.modules)
print(json.dumps({"loaded": loaded, "bytes": (sd.phases.tobytes() + sd.vectors.tobytes()).hex()}))
"""
        src = str(pathlib.Path(qbacktrack.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True, timeout=120
        )
        out = json.loads(run.stdout.splitlines()[-1])
        assert out["loaded"] == [False, False, False, True]
        sd = spectral_decomposition(build_walk_operator(star_8_2.tree, star_8_2.oracle, 0.5))
        assert out["bytes"] == (sd.phases.tobytes() + sd.vectors.tobytes()).hex()

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


def assert_orthonormal_eigenbasis(op, sd, tol=1e-10):
    n = op.tree.n_vertices
    assert sd.vectors.shape == (n, n)
    assert np.linalg.norm(sd.vectors.conj().T @ sd.vectors - np.eye(n)) <= tol
    assert np.linalg.norm(reconstruct(sd) - op.matrix) <= tol
    assert np.all(sd.phases > -np.pi / 2) and np.all(sd.phases <= np.pi / 2)


def star_counts(op):
    """The number of unmarked even and odd stars, and the rank of their overlap, densely."""
    proj_a, proj_b = ((np.eye(op.tree.n_vertices) - action_reflection(op, odd)) / 2 for odd in (False, True))
    rank = np.linalg.matrix_rank
    return rank(proj_a), rank(proj_b), rank(proj_a @ proj_b)


class TestSzegedySpectrum:
    """The orthonormal spectrum built from the stars' overlap."""

    def test_corpus(self):
        # the corpus holds the hand fixtures too, marked and unmarked
        for inst in default_corpus(count=30):
            for eta in (0.05, 1.0, 9.0):
                op = build_walk_operator(inst.tree, inst.oracle, eta)
                assert_orthonormal_eigenbasis(op, szegedy_spectrum(op))

    def test_fixed_space_is_spanned_by_path_vectors(self):
        # (A + B)^perp, the phase-0 columns, is exactly span{phi_m}
        for inst in random_instances(6) + [make_instance(tree_from_json, MARKED_INTERNAL)]:
            op = build_walk_operator(inst.tree, inst.oracle, 1.3)
            sd = szegedy_spectrum(op)
            n_a, n_b, _ = star_counts(op)
            fixed = sd.vectors[:, sd.phases == 0.0]
            members = inst.st.leaf_set.members
            assert fixed.shape[1] == len(members) == inst.tree.n_vertices - n_a - n_b
            assert np.abs(fixed.imag).max(initial=0.0) == 0.0
            for odd in (False, True):
                for col in fixed.real.T:
                    assert np.linalg.norm(op.reflect(col, odd=odd) - col) <= 1e-12
            for m in members:
                pm = phi_m_state(inst.tree, inst.st.leaf_set, m, 1.3)
                assert np.linalg.norm(fixed @ (fixed.conj().T @ pm) - pm) <= 1e-12

    def test_matches_schur_where_schur_is_orthonormal(self):
        checked = 0
        for inst in default_corpus(count=20, master_seed=3):
            op = build_walk_operator(inst.tree, inst.oracle, 0.7)
            schur, sz = spectral_decomposition(op), szegedy_spectrum(op)
            n = inst.tree.n_vertices
            if np.linalg.norm(schur.vectors.conj().T @ schur.vectors - np.eye(n)) > 1e-12:
                continue
            checked += 1
            assert np.abs(np.sort(schur.phases) - np.sort(sz.phases)).max() <= 1e-12
            rng = np.random.default_rng(n)
            for state in (np.eye(n)[inst.tree.root], rng.normal(size=n) / np.sqrt(n)):
                state = state / np.linalg.norm(state)
                for eps in (1e-2, 1e-1, 0.5):
                    assert abs(
                        schur.small_phase_projector_norm(state, eps) - sz.small_phase_projector_norm(state, eps)
                    ) <= 1e-12
                for s in (3, 8):
                    (p_a, cond_a), (p_b, cond_b) = pe_distribution(schur, state, s), pe_distribution(sz, state, s)
                    assert abs(p_a - p_b) <= 1e-12
                    assert np.abs(cond_a - cond_b).max() <= 1e-12
        assert checked >= 10

    def test_unmarked_tree(self):
        tree, oracle = build_random_tree(40, 3, 0.0, 4)
        op = build_walk_operator(tree, oracle, 0.8)
        sd = szegedy_spectrum(op)
        assert_orthonormal_eigenbasis(op, sd)
        assert not np.any(sd.phases == 0.0)

    def test_single_edge_has_no_odd_star(self, single_edge):
        op = build_walk_operator(single_edge.tree, single_edge.oracle, 0.7)
        assert star_counts(op)[:2] == (1, 0)
        sd = szegedy_spectrum(op)
        assert_orthonormal_eigenbasis(op, sd)
        assert sorted(sd.phases) == [0.0, np.pi / 2]

    def test_overlap_with_zero_singular_values(self):
        # the marked vertices 1 and 5 split the stars: the odd leaf star {7} and
        # the even stars {3} and {4} overlap nothing, so D (4 x 3) has rank 2
        tree, oracle = tree_from_json(MARKED_INTERNAL)
        for eta in (0.2, 3.0):
            op = build_walk_operator(tree, oracle, eta)
            n_a, n_b, rank = star_counts(op)
            assert (n_a, n_b, rank) == (4, 3, 2)
            sd = szegedy_spectrum(op)
            assert_orthonormal_eigenbasis(op, sd)
            assert np.count_nonzero(sd.phases == np.pi / 2) == n_a + n_b - 2 * rank

    def test_degenerate_star_p_zero_matches_gate_level(self, star_64_4):
        # Schur's basis reads 0.924 here (ROADMAP item 0)
        op = build_walk_operator(star_64_4.tree, star_64_4.oracle, 1.0)
        root = np.eye(star_64_4.tree.n_vertices)[0]
        p_zero = pe_distribution(szegedy_spectrum(op), root, 8)[0]
        assert p_zero == pytest.approx(gate_level_pe(op, root, 8)[0].sum(), abs=1e-12)
        assert p_zero == pytest.approx(0.8000037, abs=1e-7)


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
        # phi over the path vectors: kappa_m * cos(beta) per marked leaf
        beta = beta_angle(star_8_2.kappa[star_8_2.tree.root], eta)
        coeffs = {m: star_8_2.kappa[m] * np.cos(beta) for m in star_8_2.st.leaf_set.members}
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
                # the projector onto a reflection's +1 eigenspace is (I + R) / 2
                assert np.linalg.norm((xi + op.reflect(xi)) / 2) < 1e-10
                assert np.linalg.norm((xi + op.reflect(xi, odd=True)) / 2 - perp) < 1e-10

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
