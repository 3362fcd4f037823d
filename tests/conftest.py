"""Shared fixtures: solution-tree bundles for the standard small instances."""

from dataclasses import dataclass

import numpy as np
import pytest

from qbacktrack import (
    MarkingOracle,
    ResistanceProfile,
    SolutionTree,
    SpectralDecomposition,
    Tree,
    build_path,
    build_star,
    kappa_assignment,
    pe_joint,
    resistance_profile,
    shallowest_marked,
    solution_tree,
)
from qbacktrack.trees import tree_from_children


@dataclass
class Instance:
    """A tree with its derived ground-truth structures."""

    tree: Tree
    oracle: MarkingOracle
    st: SolutionTree
    rp: ResistanceProfile
    kappa: np.ndarray

    @property
    def eta_bar(self) -> float:
        return self.rp.eta_root


def make_instance(builder, *args, **kwargs) -> Instance:
    tree, oracle = builder(*args, **kwargs)
    marked = shallowest_marked(tree, oracle)
    st = solution_tree(tree, marked)
    rp = resistance_profile(st)
    return Instance(tree=tree, oracle=oracle, st=st, rp=rp, kappa=kappa_assignment(st, rp))


def reconstruct(sd: SpectralDecomposition) -> np.ndarray:
    """The operator ``V diag(exp(2i phases)) V^H`` that a unitary eigenbasis spans."""
    return (sd.vectors * np.exp(2j * sd.phases)) @ sd.vectors.conj().T


def whole_joint(sd: SpectralDecomposition, state: np.ndarray, s: int) -> np.ndarray:
    """``pe_joint``'s outcome blocks laid into one ``2^s x |V|`` array."""
    return np.concatenate([rows for _, rows in pe_joint(sd, state, s)])


def rebuild_matches(tree: Tree) -> Tree:
    """Rebuild ``tree`` from its children lists and compare what that derives.

    Parents and depths must agree, and the realized bounds of the rebuilt
    tree must not exceed ``tree``'s.  Returns the rebuilt tree.
    """
    rebuilt = tree_from_children(tree.children, tree.root)
    assert np.array_equal(rebuilt.parent, tree.parent)
    assert np.array_equal(rebuilt.depth, tree.depth)
    assert rebuilt.size_bound <= tree.size_bound
    assert rebuilt.depth_bound <= tree.depth_bound
    assert rebuilt.degree_bound <= tree.degree_bound
    return rebuilt


@pytest.fixture(scope="session")
def single_edge() -> Instance:
    return make_instance(build_star, 1, 1)


@pytest.fixture(scope="session")
def star_64_4() -> Instance:
    return make_instance(build_star, 64, 4)


@pytest.fixture(scope="session")
def star_8_2() -> Instance:
    return make_instance(build_star, 8, 2)


@pytest.fixture(scope="session")
def path_4() -> Instance:
    return make_instance(build_path, 4, True)
