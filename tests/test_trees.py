"""Tree construction, marking oracles, and the marked-set machinery."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbacktrack import (
    MarkingOracle,
    NoSolutionTree,
    TreeStructureError,
    build_complete_tree,
    build_dpll_tree,
    build_path,
    build_random_tree,
    build_star,
    shallowest_marked,
    solution_tree,
    tree_from_json,
    tree_to_json,
)
from qbacktrack.trees import _bfs, tree_from_children
from conftest import rebuild_matches


def reference_random_tree(T_target, d, mark_prob, seed):
    """Reference for ``build_random_tree``: each host is drawn from the sorted keys of a capacity dict."""
    rng = np.random.default_rng(seed)
    kids = [[]]
    capacity = {0: d}
    for new in range(1, T_target):
        options = sorted(capacity)
        host = int(options[rng.integers(len(options))])
        kids[host].append(new)
        kids.append([])
        capacity[host] -= 1
        if capacity[host] == 0:
            del capacity[host]
        capacity[new] = d - 1
    order = _bfs(kids, 0)
    new_id = {old: i for i, old in enumerate(order)}
    children = [tuple(new_id[c] for c in kids[old]) for old in order]
    marks = np.zeros(T_target, dtype=bool)
    marks[1:] = rng.random(T_target - 1) < mark_prob
    return children, marks


def brute_force_satisfying(cnf, var_order):
    """Enumerate every complete assignment and keep the satisfying ones."""
    n = len(var_order)
    good = []
    for bits in range(2**n):
        assignment = {var_order[i]: bool((bits >> i) & 1) for i in range(n)}
        ok = True
        for clause in cnf:
            if not any(assignment[abs(lit)] == (lit > 0) for lit in clause):
                ok = False
                break
        if ok:
            good.append(assignment)
    return good


class TestGenerators:
    def test_star_shape(self):
        tree, oracle = build_star(64, 4)
        assert tree.n_vertices == 65
        assert tree.depth_bound == 1
        assert len(tree.children[tree.root]) == 64
        assert sum(oracle.peek(v) for v in range(65)) == 4

    def test_star_single_edge(self):
        tree, oracle = build_star(1, 1)
        assert tree.n_vertices == 2
        assert oracle.peek(1)

    def test_star_unmarked(self):
        tree, oracle = build_star(8, 0)
        assert not any(oracle.peek(v) for v in range(9))

    def test_star_rejects_overfull_marking(self):
        with pytest.raises(ValueError):
            build_star(4, 5)

    def test_path_shapes(self):
        tree, oracle = build_path(3, True)
        assert tree.n_vertices == 4
        assert tree.depth_bound == 3
        assert oracle.peek(3)
        _, unmarked = build_path(5, False)
        assert not any(unmarked.peek(v) for v in range(6))

    def test_random_tree_deterministic(self):
        t1, o1 = build_random_tree(100, 3, 0.1, seed=42)
        t2, o2 = build_random_tree(100, 3, 0.1, seed=42)
        assert t1.children == t2.children
        assert o1.marked_vertices() == o2.marked_vertices()
        t3, _ = build_random_tree(100, 3, 0.1, seed=43)
        assert t1.children != t3.children

    def test_random_tree_two_vertices_all_marked(self):
        tree, oracle = build_random_tree(2, 2, 1.0, seed=7)
        assert tree.n_vertices == 2
        assert oracle.peek(1)

    def test_random_tree_respects_bounds(self):
        tree, _ = build_random_tree(200, 3, 0.05, seed=1)
        assert rebuild_matches(tree).degree_bound <= 3

    @pytest.mark.parametrize("size", [2, 3, 17, 60, 200, 500])
    @pytest.mark.parametrize("degree", [2, 3, 4, 6])
    def test_random_tree_matches_the_reference_builder(self, size, degree):
        for seed in range(40):
            tree, oracle = build_random_tree(size, degree, 0.1, seed)
            children, marks = reference_random_tree(size, degree, 0.1, seed)
            assert tree.children == tuple(children), seed
            assert [oracle.peek(v) for v in range(size)] == marks.tolist(), seed

    def test_bfs_labelling(self):
        tree, _ = build_random_tree(60, 4, 0.0, seed=5)
        depths = tree.depth
        assert all(depths[v] <= depths[v + 1] for v in range(tree.n_vertices - 1))


class TestDpll:
    def test_single_positive_clause(self):
        # brute force over both assignments of x1: only x1=true satisfies
        sols = brute_force_satisfying([(1,)], [1])
        assert len(sols) == 1 and sols[0][1] is True
        tree, oracle = build_dpll_tree([(1,)], [1])
        assert tree.n_vertices == 2
        assert oracle.peek(1)

    def test_contradiction_prunes_everything(self):
        tree, oracle = build_dpll_tree([(1,), (-1,)], [1])
        assert tree.n_vertices == 1
        assert not oracle.marked_vertices()

    def test_empty_cnf_full_binary(self):
        tree, oracle = build_dpll_tree([], [1, 2])
        assert tree.n_vertices == 7
        assert tree.depth_bound == 2
        assert len(oracle.marked_vertices()) == 4

    def test_matches_brute_force_enumeration(self):
        cnf = [(1, -2), (2, 3), (-1, -3)]
        order = [1, 2, 3]
        tree, oracle = build_dpll_tree(cnf, order)
        deep = [v for v in range(tree.n_vertices) if tree.depth[v] == 3]
        assert len([v for v in deep if oracle.peek(v)]) == len(
            brute_force_satisfying(cnf, order)
        )

    def test_rejects_bad_literals(self):
        with pytest.raises(ValueError):
            build_dpll_tree([(0,)], [1])
        with pytest.raises(ValueError):
            build_dpll_tree([(2,)], [1])

    @pytest.mark.parametrize(
        "cnf, var_order",
        [
            ([[True]], [1]),  # a JSON true is no literal
            ([[1.0]], [1]),
            ([1], [1]),  # a clause is a list
            ([[1], "1"], [1]),
            (1, [1]),
            ({"1": 1}, [1]),
            ([[1]], [True]),  # nor is it a variable
            ([[1]], [0]),
            ([[-1]], [-1]),
            ([[1]], [1.0]),
            ([[1]], 3),
            ([[1]], "1"),
            ([[1]], [1, 1]),
        ],
    )
    def test_rejects_malformed_input(self, cnf, var_order):
        with pytest.raises(ValueError):
            build_dpll_tree(cnf, var_order)


class TestMarkedSet:
    def test_star_members(self):
        tree, oracle = build_star(8, 3)
        marked = shallowest_marked(tree, oracle)
        assert marked.members == frozenset({1, 2, 3})

    def test_marked_ancestor_shadows_descendant(self):
        tree, oracle = build_path(4, False)
        oracle._marks[2] = True
        oracle._marks[4] = True
        marked = shallowest_marked(tree, oracle)
        assert marked.members == frozenset({2})

    def test_unmarked_tree_empty(self):
        tree, oracle = build_path(5, False)
        assert not shallowest_marked(tree, oracle).members

    def test_query_counting(self):
        tree, oracle = build_star(8, 3)
        before = oracle.query_counter
        shallowest_marked(tree, oracle)
        assert oracle.query_counter - before == tree.n_vertices

    def test_unmark_reveals_descendants(self):
        tree, oracle = build_path(4, False)
        oracle._marks[2] = True
        oracle._marks[4] = True
        first = shallowest_marked(tree, oracle)
        assert first.members == frozenset({2})
        oracle.unmark(2)
        second = shallowest_marked(tree, oracle)
        assert second.members == frozenset({4})

    def test_root_marking_normalized(self):
        marks = np.zeros(3, dtype=bool)
        marks[0] = True
        oracle = MarkingOracle(marks, root=0)
        assert oracle.root_was_marked
        assert not oracle(0)


class TestSolutionTree:
    def test_star_solution(self):
        tree, oracle = build_star(8, 3)
        st = solution_tree(tree, shallowest_marked(tree, oracle))
        assert st.vertices == frozenset({0, 1, 2, 3})

    def test_path_solution_is_whole_path(self):
        tree, oracle = build_path(3, True)
        st = solution_tree(tree, shallowest_marked(tree, oracle))
        assert st.vertices == frozenset(range(4))

    def test_sibling_subtree_excluded(self):
        tree, oracle = build_complete_tree(2, 2, mark_leaves=False)
        # mark both grandchildren of one child: expected solution tree is the
        # union of the two explicit root-to-leaf paths
        kids = tree.children[tree.root]
        gc = tree.children[kids[0]]
        for g in gc:
            oracle._marks[g] = True
        marked = shallowest_marked(tree, oracle)
        st = solution_tree(tree, marked)
        expected = set()
        for g in gc:
            expected.update(tree.path_from_root(g))
        assert st.vertices == frozenset(expected)
        assert kids[1] not in st.vertices

    def test_membership_matches_marked_below(self):
        tree, oracle = build_random_tree(80, 3, 0.15, seed=3)
        marked = shallowest_marked(tree, oracle)
        if not marked.members:
            pytest.skip("unlucky seed produced no marks")
        st = solution_tree(tree, marked)
        for v in range(tree.n_vertices):
            if v in st.vertices:
                assert st.below[v]
            else:
                assert not st.below.get(v)

    def test_empty_marked_set_signals(self):
        tree, oracle = build_path(2, False)
        with pytest.raises(NoSolutionTree):
            solution_tree(tree, shallowest_marked(tree, oracle))


class TestJson:
    def test_round_trip(self):
        tree, oracle = build_random_tree(40, 3, 0.2, seed=11)
        text = tree_to_json(tree, oracle)
        tree2, oracle2 = tree_from_json(text)
        assert tree_to_json(tree2, oracle2) == text

    def test_rejects_cycle(self):
        bad = {
            "root": 0,
            "vertices": [
                {"id": 0, "children": [1], "marked": False},
                {"id": 1, "children": [0], "marked": False},
            ],
        }
        with pytest.raises(TreeStructureError) as err:
            tree_from_json(json.dumps(bad))
        assert err.value.violation == "cycle"

    def test_rejects_forest(self):
        bad = {
            "root": 0,
            "vertices": [
                {"id": 0, "children": [], "marked": False},
                {"id": 1, "children": [], "marked": False},
            ],
        }
        with pytest.raises(TreeStructureError) as err:
            tree_from_json(json.dumps(bad))
        assert err.value.violation == "disconnected"

    def test_rejects_two_parents(self):
        bad = {
            "root": 0,
            "vertices": [
                {"id": 0, "children": [1, 2], "marked": False},
                {"id": 1, "children": [2], "marked": False},
                {"id": 2, "children": [], "marked": False},
            ],
        }
        with pytest.raises(TreeStructureError) as err:
            tree_from_json(json.dumps(bad))
        assert err.value.violation == "multiple_parents"

    def test_rejects_sparse_ids(self):
        bad = {
            "root": 0,
            "vertices": [
                {"id": 0, "children": [2], "marked": False},
                {"id": 2, "children": [], "marked": False},
            ],
        }
        with pytest.raises(TreeStructureError) as err:
            tree_from_json(json.dumps(bad))
        assert err.value.violation == "ids"

    @pytest.mark.parametrize(
        "bad",
        [
            {"root": 0, "vertices": [{"id": 0, "children": [1]}, {"id": True, "children": []}]},
            {"root": 0, "vertices": [{"id": 0, "children": [True]}, {"id": 1, "children": []}]},
            {"root": False, "vertices": [{"id": 0, "children": [1]}, {"id": 1, "children": []}]},
        ],
        ids=["id_true", "child_true", "root_false"],
    )
    def test_rejects_boolean_ids(self, bad):
        # bool is an int subclass; JSON true/false must not pass as vertex 1/0
        with pytest.raises(TreeStructureError) as err:
            tree_from_json(json.dumps(bad))
        assert err.value.violation == "ids"

    @pytest.mark.parametrize(
        "bad",
        [
            {
                "root": 0,
                "vertices": [{"id": 0, "children": [1]}, {"id": 1, "children": [], "marked": "false"}],
            },
            {
                "root": 0,
                "vertices": [{"id": 0, "children": [1]}, {"id": 1, "children": [], "marked": 1}],
            },
            {"root": 0, "vertices": [{"id": 0, "children": 1}, {"id": 1, "children": []}]},
        ],
        ids=["marked_string", "marked_number", "children_int"],
    )
    def test_rejects_malformed_rows(self, bad):
        with pytest.raises(TreeStructureError) as err:
            tree_from_json(json.dumps(bad))
        assert err.value.violation == "schema"


@pytest.mark.parametrize("bounds", [(2, 2, 2), (3, 1, 2), (3, 2, 1)], ids=["size", "depth", "degree"])
def test_bounds_below_realized_rejected(bounds):
    path = [(1,), (2,), ()]  # 3 vertices, depth 2, degree 2
    assert tree_from_children(path, bounds=(3, 2, 2)).degree_bound == 2
    with pytest.raises(TreeStructureError) as err:
        tree_from_children(path, bounds=bounds)
    assert err.value.violation == "ids"


@settings(max_examples=40, deadline=None)
@given(
    size=st.integers(min_value=2, max_value=60),
    degree=st.integers(min_value=2, max_value=5),
    prob=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_generated_trees_satisfy_invariants(size, degree, prob, seed):
    tree, oracle = build_random_tree(size, degree, prob, seed)
    rebuild_matches(tree)
    marked = shallowest_marked(tree, oracle)
    # members form an antichain: no member is an ancestor of another
    for m in marked.members:
        ancestors = set(tree.path_from_root(m)[:-1])
        assert not (ancestors & marked.members)


@settings(max_examples=40, deadline=None)
@given(
    size=st.integers(min_value=2, max_value=60),
    degree=st.integers(min_value=2, max_value=5),
    prob=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_solution_tree_fields(size, degree, prob, seed):
    tree, oracle = build_random_tree(size, degree, prob, seed)
    # the tree's order holds every vertex once, each parent before its children
    rank = {v: i for i, v in enumerate(tree.order)}
    assert sorted(rank) == list(range(tree.n_vertices))
    assert all(rank[int(tree.parent[v])] < rank[v] for v in tree.order[1:])
    marked = shallowest_marked(tree, oracle)
    if not marked.members:
        return
    sol = solution_tree(tree, marked)
    # order is the breadth-first order of the solution tree's children lists
    bfs = [tree.root]
    for v in bfs:
        bfs.extend(sol.children[v])
    assert tuple(bfs) == sol.order
    assert frozenset(sol.order) == sol.vertices
    # below[v] is M intersected with the subtree of v
    for v in sol.order:
        assert sol.below[v] == marked.members & set(tree.subtree_vertices(v))
