"""Rooted trees with marking oracles.

The tree is the search space: a bounded-degree rooted tree whose vertices may
be "marked" (solutions).  Everything downstream (resistance, walk operators,
the search algorithms) consumes the structures defined here.

Vertex ids are dense integers ``0 .. n_vertices-1``.  Generators assign them
in breadth-first order so that matrix indexing stays stable; the JSON loader
accepts any dense labelling.  Trees and oracles are immutable after
construction except for the oracle's query counter and its unmark overlay.

:func:`tree_from_children` is the one place a tree is checked: every
generator, the JSON loader and the walk simulator's re-rooting build their
trees through it, and it derives parents, depths and the breadth-first order
from the children lists instead of trusting them.  Likewise, the solution
tree's shape is built in one place, :func:`solution_tree`.

By convention the root is never marked.  If a raw marking says otherwise, the
oracle records the fact (``root_was_marked``) and reports the root unmarked
from then on, so downstream code may always assume an unmarked root.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Tree",
    "MarkingOracle",
    "MarkedSet",
    "SolutionTree",
    "TreeStructureError",
    "NoSolutionTree",
    "build_star",
    "build_path",
    "build_random_tree",
    "build_complete_tree",
    "build_dpll_tree",
    "shallowest_marked",
    "solution_tree",
    "tree_to_json",
    "tree_from_json",
    "tree_from_children",
]


class TreeStructureError(ValueError):
    """Vertex data does not describe a single rooted tree.

    ``violation`` is a short machine-readable tag (``"cycle"``,
    ``"disconnected"``, ``"multiple_parents"``, ``"ids"``, ``"schema"``).
    """

    def __init__(self, violation: str, message: str):
        super().__init__(message)
        self.violation = violation


class NoSolutionTree(ValueError):
    """Raised when a solution tree is requested for an empty marked set."""


@dataclass(frozen=True, eq=False)
class Tree:
    """A rooted tree on dense integer vertex ids.

    Build one with :func:`tree_from_children`, which checks the children
    lists and derives ``parent``, ``depth`` and ``order`` from them.

    Parameters
    ----------
    root : int
        Id of the root vertex.
    parent : np.ndarray
        ``parent[v]`` is the parent id of ``v``; ``-1`` at the root.
    children : tuple of tuples
        ``children[v]`` lists the children of ``v`` in order.
    depth : np.ndarray
        ``depth[v]`` is the number of edges from the root to ``v``.
    order : tuple of int
        Every vertex in breadth-first order from the root, children in the
        order of their lists; parents come before their children.
    size_bound : int
        Upper bound on the number of vertices (generators record the
        realized size).
    depth_bound : int
        Upper bound on the depth.
    degree_bound : int
        Upper bound on the degree of any vertex (parent plus children).
    """

    root: int
    parent: np.ndarray
    children: tuple[tuple[int, ...], ...]
    depth: np.ndarray
    order: tuple[int, ...]
    size_bound: int
    depth_bound: int
    degree_bound: int

    @property
    def n_vertices(self) -> int:
        return int(self.parent.shape[0])

    def subtree_vertices(self, v: int) -> list[int]:
        """Vertices of the subtree rooted at ``v``, in BFS order."""
        return _bfs(self.children, v)

    def path_from_root(self, v: int) -> list[int]:
        """Vertices on the root-to-``v`` path, root first."""
        back = [v]
        while back[-1] != self.root:
            back.append(int(self.parent[back[-1]]))
        back.reverse()
        return back


def _bfs(children: Sequence[Sequence[int]], start: int) -> list[int]:
    """The vertices reachable from ``start``, breadth-first, children in list order."""
    order = [start]
    head = 0
    while head < len(order):
        order.extend(children[order[head]])
        head += 1
    return order


def _is_id(x) -> bool:
    # bool is an int subclass, but a JSON true is no vertex id
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def tree_from_children(
    children: Sequence[Sequence[int]],
    root: int = 0,
    bounds: tuple[int, int, int] | None = None,
) -> Tree:
    """Assemble a Tree from children lists, computing parents and depths.

    Rejects ids that are not integers in range, a vertex listed as its own
    or the root's child, a vertex with two parents, and vertices the root
    cannot reach (tagged ``"cycle"`` when every non-root vertex has a
    parent, ``"disconnected"`` otherwise).  ``bounds`` gives the size,
    depth and degree bounds; by default they are the realized ones, and
    bounds below them are rejected (tagged ``"ids"``).
    """
    n = len(children)
    if not (_is_id(root) and 0 <= root < n):
        raise TreeStructureError("ids", f"root id {root!r} out of range")
    parent = [-1] * n
    for v, kids in enumerate(children):
        for c in kids:
            if not (_is_id(c) and 0 <= c < n):
                raise TreeStructureError("ids", f"vertex {v} has an out-of-range child {c!r}")
            if c == v or c == root:
                raise TreeStructureError("cycle", f"vertex {c} is its own or the root's child")
            if parent[c] != -1:
                raise TreeStructureError(
                    "multiple_parents", f"vertex {c} has more than one parent"
                )
            parent[c] = v
    order = _bfs(children, root)
    if len(order) != n:
        orphans = any(parent[v] == -1 for v in range(n) if v != root)
        tag = "disconnected" if orphans else "cycle"
        raise TreeStructureError(tag, f"{n - len(order)} vertices unreachable from root")
    depth = [0] * n
    for v in order[1:]:  # a parent comes before its children
        depth[v] = depth[parent[v]] + 1
    degree = max((len(kids) + (v != root) for v, kids in enumerate(children)), default=0)
    realized = (n, depth[order[-1]], degree)
    if bounds is None:
        bounds = realized
    elif not all(b >= r for b, r in zip(bounds, realized)):
        raise TreeStructureError("ids", f"bounds {tuple(bounds)} fall below the realized {realized}")
    parent = np.array(parent, dtype=np.int64)
    depth = np.array(depth, dtype=np.int64)
    parent.setflags(write=False)
    depth.setflags(write=False)
    return Tree(
        root=root,
        parent=parent,
        children=tuple(tuple(k) for k in children),
        depth=depth,
        order=tuple(order),
        size_bound=bounds[0],
        depth_bound=bounds[1],
        degree_bound=bounds[2],
    )


class MarkingOracle:
    """The marking function f with query accounting.

    Wraps a boolean mark per vertex.  Calling the oracle increments
    ``query_counter``; use :meth:`peek` for bookkeeping reads that are not
    part of an algorithm's query budget.  ``unmark`` supports the find-all
    loop and bumps ``version`` so caches can invalidate.

    ``query_counter += 1`` is a read-modify-write, not an atomic update;
    share an oracle only between calls made one after another.
    """

    def __init__(self, marks: Iterable[bool] | np.ndarray, root: int):
        marks = np.asarray(marks, dtype=bool).copy()
        self.root_was_marked = bool(marks[root])
        marks[root] = False
        self._marks = marks
        self.root = root
        self.query_counter = 0
        self.version = 0

    def __call__(self, v: int) -> bool:
        self.query_counter += 1
        return bool(self._marks[v])

    def peek(self, v: int) -> bool:
        """Read a mark without counting a query."""
        return bool(self._marks[v])

    def marked_vertices(self) -> list[int]:
        """All marked vertex ids (no queries counted)."""
        return [int(v) for v in np.flatnonzero(self._marks)]

    def unmark(self, v: int) -> None:
        if not self._marks[v]:
            raise ValueError(f"vertex {v} is not marked")
        self._marks[v] = False
        self.version += 1

    def copy(self) -> "MarkingOracle":
        dup = MarkingOracle(self._marks.copy(), self.root)
        dup.root_was_marked = self.root_was_marked
        return dup


@dataclass(frozen=True)
class MarkedSet:
    """M, the marked vertices with no marked ancestor.

    The marks below each vertex are the solution tree's ``below``.
    """

    members: frozenset[int]


@dataclass(frozen=True, eq=False)
class SolutionTree:
    """The subtree spanned by all root-to-M paths; its leaves are exactly M.

    ``order`` holds the ``vertices`` in the tree's breadth-first order;
    ``children[v]`` are the children of ``v`` in the solution tree, in tree
    order, and ``below[v]`` is M intersected with the subtree of ``v``.
    """

    tree: Tree
    vertices: frozenset[int]
    leaf_set: MarkedSet
    order: tuple[int, ...]
    children: dict[int, tuple[int, ...]]
    below: dict[int, frozenset[int]]

    @property
    def root(self) -> int:
        return self.tree.root


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def build_star(num_leaves: int, num_marked: int) -> tuple[Tree, MarkingOracle]:
    """Root of degree ``num_leaves`` with the first ``num_marked`` leaves marked."""
    if num_leaves < 1:
        raise ValueError("num_leaves must be >= 1")
    if not (0 <= num_marked <= num_leaves):
        raise ValueError("num_marked must lie in [0, num_leaves]")
    children = [tuple(range(1, num_leaves + 1))] + [()] * num_leaves
    tree = tree_from_children(children)
    marks = np.zeros(num_leaves + 1, dtype=bool)
    marks[1 : num_marked + 1] = True
    return tree, MarkingOracle(marks, tree.root)


def build_path(num_edges: int, mark_leaf: bool) -> tuple[Tree, MarkingOracle]:
    """A path of ``num_edges`` unit edges; the far leaf marked on request."""
    if num_edges < 1:
        raise ValueError("num_edges must be >= 1")
    children = [(v + 1,) for v in range(num_edges)] + [()]
    tree = tree_from_children(children)
    marks = np.zeros(num_edges + 1, dtype=bool)
    marks[num_edges] = mark_leaf
    return tree, MarkingOracle(marks, tree.root)


def build_complete_tree(
    depth: int, branching: int, mark_leaves: bool = True
) -> tuple[Tree, MarkingOracle]:
    """Complete ``branching``-ary tree of the given depth.

    With ``mark_leaves`` every deepest vertex is marked.  Handy fixture: the
    resistance of the fully marked binary tree follows the halving recursion
    eta -> (eta + 1) / 2 level by level.
    """
    if depth < 0 or branching < 1:
        raise ValueError("depth must be >= 0 and branching >= 1")
    children: list[tuple[int, ...]] = []
    level = [0]
    next_id = 1
    for _ in range(depth):
        new_level = []
        for _v in level:
            kids = tuple(range(next_id, next_id + branching))
            children.append(kids)
            next_id += branching
            new_level.extend(kids)
        level = new_level
    children.extend(() for _ in level)
    tree = tree_from_children(children)
    marks = np.zeros(tree.n_vertices, dtype=bool)
    if mark_leaves and depth > 0:
        marks[level] = True
    return tree, MarkingOracle(marks, tree.root)


def build_random_tree(
    T_target: int, d: int, mark_prob: float, seed: int
) -> tuple[Tree, MarkingOracle]:
    """Grow a random tree of ``T_target`` vertices with degree bound ``d``.

    Pure function of its arguments: the same seed yields a bit-identical
    tree.  Vertices are relabelled breadth-first after growth; each non-root
    vertex is then marked independently with probability ``mark_prob``.
    """
    if T_target < 2:
        raise ValueError("T_target must be >= 2")
    if d < 2:
        raise ValueError("degree bound d must be >= 2")
    if not (0.0 <= mark_prob <= 1.0):
        raise ValueError("mark_prob must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    kids: list[list[int]] = [[]]
    # the vertices with room for another child, in id order, and that room:
    # the root may carry d children, the others d - 1
    hosts, room = [0], [d]
    for new in range(1, T_target):
        i = int(rng.integers(len(hosts)))
        kids[hosts[i]].append(new)
        kids.append([])
        room[i] -= 1
        if room[i] == 0:
            del hosts[i], room[i]
        hosts.append(new)
        room.append(d - 1)
    order = _bfs(kids, 0)  # breadth-first relabel
    new_id = {old: i for i, old in enumerate(order)}
    children = [tuple(new_id[c] for c in kids[old]) for old in order]
    tree = tree_from_children(children)
    marks = np.zeros(T_target, dtype=bool)
    marks[1:] = rng.random(T_target - 1) < mark_prob
    return tree, MarkingOracle(marks, tree.root)


def _clause_violated(clause: Sequence[int], assignment: dict[int, bool]) -> bool:
    # violated iff every literal is assigned and false
    for lit in clause:
        var = abs(lit)
        if var not in assignment:
            return False
        if assignment[var] == (lit > 0):
            return False
    return True


def build_dpll_tree(
    cnf: Sequence[Sequence[int]], var_order: Sequence[int]
) -> tuple[Tree, MarkingOracle]:
    """Materialize the DPLL backtracking tree of a CNF formula.

    Vertices are partial assignments along ``var_order`` (DIMACS-style
    literals: ``+v`` true, ``-v`` false).  A vertex's children are the
    extensions by the next variable that violate no clause; marked vertices
    are the complete (hence satisfying) assignments.  An empty CNF yields the
    full binary tree with every leaf marked.  ``cnf`` and each clause are
    lists (or tuples), a literal is a nonzero int, not a bool, and
    ``var_order`` lists distinct positive ints; any other input raises
    ``ValueError``.

    The implicit tree is expanded fully before spectral simulation; each
    vertex expansion corresponds to one query of the children oracle.
    """
    if not isinstance(var_order, (list, tuple)) or not all(_is_id(v) and v > 0 for v in var_order):
        raise ValueError(f"bad var_order {var_order!r}: expected a list of positive ints")
    variables = list(var_order)
    if len(set(variables)) != len(variables):
        raise ValueError("var_order must not repeat variables")
    var_set = set(variables)
    if not isinstance(cnf, (list, tuple)) or not all(isinstance(c, (list, tuple)) for c in cnf):
        raise ValueError(f"bad clauses {cnf!r}: expected a list of lists of literals")
    for clause in cnf:
        for lit in clause:
            if not _is_id(lit) or lit == 0:
                raise ValueError(f"bad literal {lit!r}: literals are nonzero ints")
            if abs(lit) not in var_set:
                raise ValueError(f"literal {lit} uses a variable outside var_order")

    # BFS expansion; each vertex carries its partial assignment
    children: list[list[int]] = [[]]
    payload: list[dict[int, bool]] = [{}]
    marks: list[bool] = [False]
    head = 0
    while head < len(children):
        v = head
        head += 1
        assignment = payload[v]
        level = len(assignment)
        if level == len(variables):
            # complete assignment; reached only through non-violating
            # extensions, so it satisfies the formula (the 0-variable root
            # still needs the empty-clause check)
            marks[v] = not any(_clause_violated(c, assignment) for c in cnf)
            continue
        var = variables[level]
        for value in (True, False):
            extended = dict(assignment)
            extended[var] = value
            if any(_clause_violated(c, extended) for c in cnf):
                continue
            new = len(children)
            children[v].append(new)
            children.append([])
            payload.append(extended)
            marks.append(False)
    tree = tree_from_children(children)
    return tree, MarkingOracle(np.array(marks, dtype=bool), tree.root)


# ---------------------------------------------------------------------------
# Marked-set extraction
# ---------------------------------------------------------------------------


def shallowest_marked(tree: Tree, oracle: MarkingOracle) -> MarkedSet:
    """Extract M, the marked vertices without marked ancestors.

    Descends breadth-first and stops below every marked vertex, so each
    vertex at-or-above M costs exactly one f-query.
    """
    oracle(tree.root)  # counted; normalized root always reports unmarked
    members: list[int] = []
    queue = list(tree.children[tree.root])
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        if oracle(v):
            members.append(v)
        else:
            queue.extend(tree.children[v])
    return MarkedSet(members=frozenset(members))


def solution_tree(tree: Tree, marked: MarkedSet) -> SolutionTree:
    """Union of the root-to-m paths over m in M; leaves are exactly M.

    One pass up the members' root paths, members in tree order, fills ``below``.
    """
    if not marked.members:
        raise NoSolutionTree("marked set is empty; no solution tree exists")
    parent = tree.parent.tolist()
    below: dict[int, set[int]] = {}
    for m in tree.order:
        if m in marked.members:
            u = m
            while u != -1:
                below.setdefault(u, set()).add(m)
                u = parent[u]
    order = tuple(v for v in tree.order if v in below)
    return SolutionTree(
        tree=tree,
        vertices=frozenset(below),
        leaf_set=marked,
        order=order,
        children={v: tuple(c for c in tree.children[v] if c in below) for v in order},
        below={v: frozenset(below[v]) for v in order},
    )


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def tree_to_json(tree: Tree, oracle: MarkingOracle) -> str:
    """Serialize to the interchange format (sorted keys, full precision)."""
    vertices = [
        {
            "id": v,
            "children": [int(c) for c in tree.children[v]],
            "marked": bool(oracle.peek(v)),
        }
        for v in range(tree.n_vertices)
    ]
    return json.dumps({"root": tree.root, "vertices": vertices}, sort_keys=True)


def tree_from_json(text: str) -> tuple[Tree, MarkingOracle]:
    """Parse and validate the interchange format.

    Rejects non-dense ids, a ``"children"`` that is not a list and a
    ``"marked"`` that is neither a boolean nor absent with a
    :class:`TreeStructureError` naming the violation; cycles, forests and
    repeated parents are rejected by :func:`tree_from_children`, the one
    place a tree is checked.  Ids are kept as given (dense 0..n-1 required);
    generators always emit breadth-first ids but the loader does not insist
    on that ordering.
    """
    data = json.loads(text)
    if not isinstance(data, dict) or "root" not in data or "vertices" not in data:
        raise TreeStructureError("schema", "expected object with 'root' and 'vertices'")
    rows = data["vertices"]
    if not isinstance(rows, list) or not rows:
        raise TreeStructureError("schema", "'vertices' must be a non-empty list")
    n = len(rows)
    ids = []
    for row in rows:
        if not isinstance(row, dict) or "id" not in row or "children" not in row:
            raise TreeStructureError("schema", "vertex rows need 'id' and 'children'")
        ids.append(row["id"])
    if not all(_is_id(v) for v in ids) or sorted(ids) != list(range(n)):
        raise TreeStructureError("ids", "vertex ids must be dense integers 0..n-1")
    children: list[tuple[int, ...]] = [()] * n
    marks = np.zeros(n, dtype=bool)
    for row in rows:
        kids, mark = row["children"], row.get("marked", False)
        if not isinstance(kids, list) or not isinstance(mark, bool):
            raise TreeStructureError(
                "schema", f"vertex {row['id']}: 'children' must be a list, 'marked' a boolean"
            )
        children[row["id"]] = tuple(kids)
        marks[row["id"]] = mark
    root = data["root"]
    tree = tree_from_children(children, root)
    return tree, MarkingOracle(marks, root)
