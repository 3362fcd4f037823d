"""Resistance recursion, Laplacian oracle, and the kappa identity suite."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbacktrack import (
    build_complete_tree,
    build_path,
    build_random_tree,
    build_star,
    kappa_assignment,
    kappa_eta,
    resistance_bruteforce,
    resistance_profile,
    shallowest_marked,
    solution_tree,
    verify_kappa,
)
from qbacktrack.trees import tree_from_children


def make_solution(builder, *args, **kwargs):
    tree, oracle = builder(*args, **kwargs)
    marked = shallowest_marked(tree, oracle)
    return tree, oracle, solution_tree(tree, marked)


def halving_recursion(depth):
    # fully marked binary tree: one level lifts eta to (eta + 1) / 2
    eta = 0.0
    for _ in range(depth):
        eta = (eta + 1.0) / 2.0
    return eta


class TestResistanceProfile:
    @pytest.mark.parametrize("n, k", [(64, 4), (8, 1), (16, 16), (5, 2)])
    def test_star_is_parallel_resistors(self, n, k):
        _, _, st_ = make_solution(build_star, n, k)
        rp = resistance_profile(st_)
        assert rp.eta_root == pytest.approx(1.0 / k, rel=1e-12)

    def test_path_is_series_resistors(self):
        _, _, st_ = make_solution(build_path, 3, True)
        assert resistance_profile(st_).eta_root == pytest.approx(3.0, rel=1e-12)

    def test_marked_binary_tree_halving(self):
        _, _, st_ = make_solution(build_complete_tree, 3, 2, mark_leaves=True)
        rp = resistance_profile(st_)
        assert rp.eta_root == pytest.approx(halving_recursion(3), rel=1e-12)
        assert rp.eta_root == pytest.approx(resistance_bruteforce(st_), rel=1e-12)
        assert rp.eta_root == pytest.approx(7.0 / 8.0)

    def test_infinite_off_solution_tree(self):
        tree, oracle, st_ = make_solution(build_star, 8, 3)
        rp = resistance_profile(st_)
        assert np.isinf(rp.eta_bar[5])
        assert rp.eta_bar[1] == 0.0

    def test_eta_max_over_full_tree(self):
        _, _, st_ = make_solution(build_path, 4, True)
        rp = resistance_profile(st_)
        assert rp.eta_max == pytest.approx(4.0)


class TestBruteForce:
    @pytest.mark.parametrize("n, k", [(64, 4), (10, 3), (7, 7)])
    def test_star_closed_form(self, n, k):
        _, _, st_ = make_solution(build_star, n, k)
        assert resistance_bruteforce(st_) == pytest.approx(1.0 / k, rel=1e-12)

    def test_path_series(self):
        _, _, st_ = make_solution(build_path, 5, True)
        assert resistance_bruteforce(st_) == pytest.approx(5.0, rel=1e-12)

    def test_agrees_with_recursion_on_random_corpus(self):
        checked = 0
        for seed in range(200):
            tree, oracle = build_random_tree(3 + (seed * 7) % 90, 2 + seed % 4, 0.15, seed)
            marked = shallowest_marked(tree, oracle)
            if not marked.members:
                continue
            st_ = solution_tree(tree, marked)
            a = resistance_profile(st_).eta_root
            b = resistance_bruteforce(st_)
            assert a == pytest.approx(b, rel=1e-9)
            checked += 1
        assert checked > 100


class TestKappa:
    def test_star_closed_form(self):
        # symmetry forces equal leaf weights w; normalization gives k w^2 = 1,
        # and the child-sum rule forces kappa_r = k w = sqrt(k)
        for n, k in [(8, 4), (64, 4), (6, 1)]:
            _, _, st_ = make_solution(build_star, n, k)
            kappa = kappa_assignment(st_, resistance_profile(st_))
            assert kappa[0] == pytest.approx(np.sqrt(k), rel=1e-12)
            for m in range(1, k + 1):
                assert kappa[m] == pytest.approx(1.0 / np.sqrt(k), rel=1e-12)

    def test_path_uniform_weights(self):
        # the child-sum rule forces equality along a path; normalization
        # over the n non-root vertices fixes the value at 1/sqrt(n)
        for n in (1, 3, 6):
            _, _, st_ = make_solution(build_path, n, True)
            kappa = kappa_assignment(st_, resistance_profile(st_))
            assert np.allclose(
                [kappa[v] for v in range(n + 1)], 1.0 / np.sqrt(n), atol=1e-12
            )

    def test_single_edge_unit_weights(self):
        _, _, st_ = make_solution(build_star, 1, 1)
        kappa = kappa_assignment(st_, resistance_profile(st_))
        assert kappa[0] == pytest.approx(1.0)
        assert kappa[1] == pytest.approx(1.0)

    def test_identity_suite_on_star(self):
        _, _, st_ = make_solution(build_star, 8, 4)
        kappa = kappa_assignment(st_, resistance_profile(st_))
        residuals = verify_kappa(st_, kappa)
        assert all(r <= 1e-12 for r in residuals.values()), residuals

    def test_perturbation_breaks_child_sum(self):
        _, _, st_ = make_solution(build_star, 8, 4)
        kappa = kappa_assignment(st_, resistance_profile(st_)).copy()
        kappa[1] += 1e-3
        assert verify_kappa(st_, kappa)["child_sum"] > 1e-10

    def test_single_edge_identities_trivial(self):
        _, _, st_ = make_solution(build_star, 1, 1)
        kappa = kappa_assignment(st_, resistance_profile(st_))
        assert all(r <= 1e-14 for r in verify_kappa(st_, kappa).values())

    def test_kappa_reproduces_resistance_everywhere(self):
        for seed in (3, 17, 40):
            tree, oracle = build_random_tree(120, 3, 0.12, seed)
            marked = shallowest_marked(tree, oracle)
            if not marked.members:
                continue
            st_ = solution_tree(tree, marked)
            rp = resistance_profile(st_)
            kappa = kappa_assignment(st_, rp)
            implied = kappa_eta(st_, kappa)
            for v in st_.vertices:
                assert implied[v] == pytest.approx(rp.eta_bar[v], rel=1e-9, abs=1e-12)

    def test_root_anchor_inverse_square(self):
        _, _, st_ = make_solution(build_star, 12, 3)
        rp = resistance_profile(st_)
        kappa = kappa_assignment(st_, rp)
        assert 1.0 / kappa[0] ** 2 == pytest.approx(rp.eta_root, rel=1e-12)

    def test_children_order_is_irrelevant(self):
        tree, oracle = build_random_tree(60, 4, 0.2, seed=9)
        marked = shallowest_marked(tree, oracle)
        if not marked.members:
            pytest.skip("no marks")
        st_ = solution_tree(tree, marked)
        kappa = kappa_assignment(st_, resistance_profile(st_))

        rng = np.random.default_rng(0)
        shuffled = tuple(
            tuple(rng.permutation(list(kids)).tolist()) for kids in tree.children
        )
        tree2 = tree_from_children(shuffled, tree.root)
        marked2 = shallowest_marked(tree2, oracle.copy())
        st2 = solution_tree(tree2, marked2)
        kappa2 = kappa_assignment(st2, resistance_profile(st2))
        assert np.allclose(kappa, kappa2, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    size=st.integers(min_value=2, max_value=80),
    degree=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_resistance_interval_and_oracle_equivalence(size, degree, seed):
    tree, oracle = build_random_tree(size, degree, 0.2, seed)
    marked = shallowest_marked(tree, oracle)
    if not marked.members:
        return
    st_ = solution_tree(tree, marked)
    rp = resistance_profile(st_)
    assert rp.eta_root == pytest.approx(resistance_bruteforce(st_), rel=1e-9)
    k = len(marked.members)
    d_root = len(st_.children[tree.root])
    depth_st = max(int(tree.depth[m]) for m in marked.members)
    assert rp.eta_root >= max(1.0 / k, 1.0 / d_root) - 1e-12
    assert rp.eta_root <= depth_st + 1e-12
