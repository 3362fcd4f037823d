"""Golden-run regression: seeded searches reproduce a recorded run bit for bit.

``tests/data/search_golden.json`` holds the ``RunRecord.as_row()`` of
``find_all`` on seeded random trees and of seeded ``k_doubling_find``
trials on a star.  A change meant to keep outputs (a speed-up, a refactor)
must leave every row equal.  A change meant to alter outputs regenerates
the file and says why:

    PYTHONPATH=src python tests/test_search_golden.py
"""

import json
import pathlib

import numpy as np

from qbacktrack import build_random_tree, build_star
from qbacktrack.algorithms import EstimateResConfig, WalkSimulator, find_all, k_doubling_find

GOLDEN = pathlib.Path(__file__).parent / "data" / "search_golden.json"
FIND_ALL_TREES = [(30, 1), (36, 2), (42, 3), (48, 4), (54, 5), (60, 6)]  # (size, seed)
STAR_TRIALS = 20


def golden_runs() -> dict:
    cfg = EstimateResConfig()
    find_all_rows = []
    for size, seed in FIND_ALL_TREES:
        tree, oracle = build_random_tree(size, 3, 0.1, seed)
        _, rec = find_all(tree, oracle, cfg, np.random.default_rng(seed))
        find_all_rows.append(rec.as_row())
    tree, oracle = build_star(64, 4)
    sim = WalkSimulator(tree, oracle)
    star_rows = [
        k_doubling_find(tree, oracle, cfg, np.random.default_rng(seed), sim)[1].as_row()
        for seed in range(STAR_TRIALS)
    ]
    # a JSON round trip turns find_all's outcome tuples into lists
    return json.loads(json.dumps({"find_all": find_all_rows, "k_doubling_star_64_4": star_rows}))


def test_search_matches_golden_runs():
    want = json.loads(GOLDEN.read_text())
    got = golden_runs()
    assert got["find_all"] == want["find_all"]
    assert got["k_doubling_star_64_4"] == want["k_doubling_star_64_4"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden_runs(), indent=1) + "\n")
