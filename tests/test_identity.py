"""Result dataclasses holding arrays compare and hash by identity."""

import numpy as np
import pytest

from qbacktrack.algorithms import EstimateResConfig, WalkSimulator, _sweep_plan
from qbacktrack.descent import descent_chain, exact_hitting_times
from qbacktrack.experiments import CorpusInstance, _tree_bundle
from qbacktrack.resistance import kappa_assignment, resistance_profile
from qbacktrack.trees import build_star, shallowest_marked, solution_tree
from qbacktrack.walk import build_walk_operator, szegedy_spectrum


def _tree():
    return build_star(31, 4)[0]


def _solution():
    tree, oracle = build_star(31, 4)
    return solution_tree(tree, shallowest_marked(tree, oracle))


def _chain():
    st = _solution()
    return descent_chain(st, kappa_assignment(st, resistance_profile(st)))


def _walk():
    return build_walk_operator(*build_star(31, 4), 0.25)


def _bundle():
    tree, oracle = build_star(31, 4)
    return _tree_bundle(CorpusInstance("star_31_4", tree, oracle), None)


def _subtree():
    return WalkSimulator(*build_star(31, 4)).subtree(0)


def _plan():
    return _sweep_plan.__wrapped__(EstimateResConfig(), 2, 32, 32)


BUILDERS = {
    "Tree": _tree,
    "SolutionTree": _solution,
    "ResistanceProfile": lambda: resistance_profile(_solution()),
    "WalkOperator": _walk,
    "SpectralDecomposition": lambda: szegedy_spectrum(_walk()),
    "DescentChain": _chain,
    "HittingTimes": lambda: exact_hitting_times(_chain()),
    "_TreeBundle": _bundle,
    "_Subtree": _subtree,
    "_SweepPlan": _plan,
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_equality_and_hash_are_identity(name):
    a, b = BUILDERS[name](), BUILDERS[name]()
    assert type(a).__name__ == name
    assert a == a
    assert a != b
    assert hash(a) == hash(a)
    assert len({a, b}) == 2
