"""Command-line front door.

Subcommands: gen-tree, resistance, spectrum, estimate-res, find-marked,
find-all, detect, descent-sim, grover-scaling, verify-all, and run (replay a
saved experiment spec).  Output is JSON by default; the commands that print
results (all but gen-tree and run) also emit CSV rows via ``--out csv``.
All numbers are serialized at full precision with sorted keys, so identical
specs and seeds produce byte-identical files.  The JSON is strict: a
non-finite number is written as the string "inf", "-inf" or "nan".  Input the library rejects
with a ``ValueError``, a tree too large for a dense walk (``ResourceLimitError``),
and a file that cannot be read or written (a missing ``--tree``, ``--cnf`` or
``--spec``, an ``--output`` that is a directory), are usage errors: the
message goes to stderr and the exit code is 2.

Randomness: one 64-bit master seed per invocation.  Trials run one after
another in the calling thread.  The run-style commands (estimate-res,
find-marked, find-all, detect) give each trial a generator spawned from its
index, so the first k rows of a run do not depend on ``--trials``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys

import numpy as np

from . import __version__
from .algorithms import (
    EstimateResConfig, WalkSimulator, detect_existence, estimate_res, find_all, find_marked
)
from .descent import descent_chain, exact_hitting_times, hitting_time_bound, simulate_descent
from .experiments import default_corpus, grover_scaling, verify_all
from .resistance import kappa_assignment, resistance_profile
from .trees import (
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
from .walk import ResourceLimitError, build_walk_operator, szegedy_spectrum


_compact_json = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _plain(value):
    """``value`` in built-in JSON types, with every non-finite float spelled as a string."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (float, np.floating)):
        if math.isfinite(value):
            return float(value)
        return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
    return value


def _emit(payload, args) -> None:
    if args.out == "csv":
        rows = _plain(payload if isinstance(payload, list) else [payload])
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:  # a nested cell is written as compact strict JSON
            writer.writerow(
                {k: _compact_json(v) if isinstance(v, (dict, list)) else v for k, v in row.items()}
            )
        text = buffer.getvalue()
    else:
        text = json.dumps(_plain(payload), sort_keys=True, allow_nan=False) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_tree(args):
    with open(args.tree) as fh:
        return tree_from_json(fh.read())


def _config_from(args) -> EstimateResConfig:
    values = {f.name: getattr(args, f.name) for f in dataclasses.fields(EstimateResConfig)}
    return EstimateResConfig(**{k: v for k, v in values.items() if v is not None})


def _trial_rngs(seed: int, trials: int):
    return [
        np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(t,)))
        for t in range(trials)
    ]


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------


def cmd_gen_tree(args) -> int:
    kind = args.kind
    if kind == "star":
        tree, oracle = build_star(args.size, args.marked)
    elif kind == "path":
        tree, oracle = build_path(args.size, bool(args.marked))
    elif kind == "random":
        tree, oracle = build_random_tree(args.size, args.degree, args.mark_prob, args.seed)
    elif kind == "complete":
        tree, oracle = build_complete_tree(args.depth, args.branching, bool(args.marked))
    elif kind == "dpll":
        if not args.cnf:
            raise ValueError("--kind dpll needs --cnf FILE")
        with open(args.cnf) as fh:
            data = json.load(fh)
        if not isinstance(data, dict) or not {"clauses", "var_order"} <= data.keys():
            raise ValueError(f"{args.cnf}: expected a JSON object with 'clauses' and 'var_order'")
        tree, oracle = build_dpll_tree(data["clauses"], data["var_order"])
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(kind)
    text = tree_to_json(tree, oracle)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    return 0


def cmd_resistance(args) -> int:
    tree, oracle = _load_tree(args)
    marked = shallowest_marked(tree, oracle)
    if not marked.members:
        _emit({"eta_bar_root": "inf", "eta_max": "inf", "kappa": {}}, args)
        return 0
    st = solution_tree(tree, marked)
    rp = resistance_profile(st)
    kappa = kappa_assignment(st, rp)
    _emit(
        {
            "eta_bar_root": rp.eta_root,
            "eta_max": rp.eta_max,
            "kappa": {str(v): float(kappa[v]) for v in sorted(st.vertices)},
        },
        args,
    )
    return 0


def cmd_spectrum(args) -> int:
    tree, oracle = _load_tree(args)
    sd = szegedy_spectrum(build_walk_operator(tree, oracle, args.eta))
    root = np.zeros(tree.n_vertices)
    root[tree.root] = 1.0
    lam = np.abs(sd.amplitudes(root)) ** 2
    order = np.argsort(sd.phases)
    _emit(
        [
            {"theta": float(sd.phases[j]), "weight": float(lam[j])}
            for j in order
        ],
        args,
    )
    return 0


def _run_trials(args, runner) -> int:
    tree, oracle = _load_tree(args)
    cfg = _config_from(args)
    sim = WalkSimulator(tree, oracle)
    records = [runner(tree, oracle, cfg, rng, sim) for rng in _trial_rngs(args.seed, args.trials)]
    _emit([rec.as_row() for _, rec in records], args)
    return 0


def cmd_estimate_res(args) -> int:
    return _run_trials(
        args, lambda tree, oracle, cfg, rng, sim: estimate_res(tree, oracle, tree.root, cfg, rng, sim)
    )


def cmd_find_marked(args) -> int:
    return _run_trials(args, find_marked)


def cmd_detect(args) -> int:
    return _run_trials(args, detect_existence)


def cmd_find_all(args) -> int:
    tree, oracle = _load_tree(args)
    cfg = _config_from(args)
    rows = []
    for rng in _trial_rngs(args.seed, args.trials):
        found, rec = find_all(tree, oracle, cfg, rng)
        row = rec.as_row()
        row["outcome"] = ",".join(str(v) for v in found)
        rows.append(row)
    _emit(rows, args)
    return 0


def cmd_descent_sim(args) -> int:
    tree, oracle = _load_tree(args)
    marked = shallowest_marked(tree, oracle)
    if not marked.members:
        _emit({"error": "no marked vertices; descent chain undefined"}, args)
        return 1
    st = solution_tree(tree, marked)
    rp = resistance_profile(st)
    dc = descent_chain(st, kappa_assignment(st, rp))
    exact = exact_hitting_times(dc).root_value
    mean, err = simulate_descent(dc, args.trials, np.random.default_rng(args.seed))
    bound = hitting_time_bound(dc)
    bound_ln = math.log(len(st.leaf_set.members) * (rp.eta_root + 1.0))
    _emit(
        {
            "expected_steps_exact": exact,
            "expected_steps_mc": mean,
            "mc_stderr": err,
            "bound_log2": bound,
            "bound_ln_reference": bound_ln,
            "violated": bool(exact > bound + 1e-12),
        },
        args,
    )
    return 0


def cmd_grover_scaling(args) -> int:
    sizes = [int(x) for x in args.sizes.split(",")]
    k = "all" if args.marked == "all" else int(args.marked)
    result = grover_scaling(sizes, k, args.trials, args.seed)
    _emit(result.as_dict(), args)
    return 0


def cmd_verify_all(args) -> int:
    corpus = [] if args.count <= 0 else default_corpus(count=args.count, master_seed=args.seed)
    report = verify_all(
        corpus,
        master_seed=args.seed,
        include_statistical=args.full,
        inject_fault=args.fault,
    )
    _emit(report.as_dict(), args)
    return 0 if report.passed else 1


def cmd_run(args) -> int:
    with open(args.spec) as fh:
        spec = json.load(fh)
    # --save-spec never records run itself, and a spec that runs a spec could loop
    if not (
        isinstance(spec, dict)
        and isinstance(spec.get("command"), str)
        and spec["command"] != "run"
        and isinstance(spec.get("options"), dict)
    ):
        raise ValueError(
            f"{args.spec}: expected a JSON object with a string 'command' (not 'run') and an object 'options'"
        )
    argv = [spec["command"]]
    for key, value in sorted(spec["options"].items()):
        if key == "command" or value is None:
            continue
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        else:
            argv.extend([flag, str(value)])
    _, unknown = build_parser().parse_known_args(argv)
    if unknown:
        keys = [k for k in sorted(spec["options"]) if "--" + k.replace("_", "-") in unknown] or unknown
        raise ValueError(f"{args.spec}: {spec['command']} has no option {', '.join(map(repr, keys))}")
    return main(argv)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    """argparse type for ``--trials``: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tree", required=True, help="tree JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_positive_int, default=1)
    for field in dataclasses.fields(EstimateResConfig):  # the estimation loop's settings, all floats
        p.add_argument(f"--{field.name}", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbacktrack",
        description="Exact simulation and verification of quantum backtracking search",
    )
    parser.add_argument("--version", action="version", version=f"qbacktrack {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # flags shared by every command but run; --out only where _emit writes
    saved = argparse.ArgumentParser(add_help=False)
    saved.add_argument("--output", default=None, help="write to file instead of stdout")
    saved.add_argument("--save-spec", default=None, help="record this invocation as a replayable spec")
    emitted = argparse.ArgumentParser(add_help=False, parents=[saved])
    emitted.add_argument("--out", choices=["json", "csv"], default="json")

    p = sub.add_parser("gen-tree", parents=[saved], help="generate a tree JSON file")
    p.add_argument("--kind", choices=["star", "path", "random", "complete", "dpll"], required=True)
    p.add_argument("--size", type=int, default=8, help="leaves (star), edges (path), vertices (random)")
    p.add_argument("--marked", type=int, default=1)
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--mark-prob", type=float, default=0.1)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--branching", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cnf", help="JSON file with {'clauses': [...], 'var_order': [...]}")
    p.set_defaults(func=cmd_gen_tree)

    p = sub.add_parser("resistance", parents=[emitted], help="resistance profile and vertex weights")
    p.add_argument("--tree", required=True)
    p.set_defaults(func=cmd_resistance)

    p = sub.add_parser("spectrum", parents=[emitted], help="walk eigenphases and root weights")
    p.add_argument("--tree", required=True)
    p.add_argument("--eta", type=float, required=True)
    p.set_defaults(func=cmd_spectrum)

    for name, func, blurb in [
        ("estimate-res", cmd_estimate_res, "estimate effective resistance at the root"),
        ("find-marked", cmd_find_marked, "walk down to one marked vertex"),
        ("find-all", cmd_find_all, "find every marked vertex via unmark-and-restart"),
        ("detect", cmd_detect, "decide whether any marked vertex exists"),
    ]:
        p = sub.add_parser(name, parents=[emitted], help=blurb)
        _add_common_run_flags(p)
        p.set_defaults(func=func)

    p = sub.add_parser("descent-sim", parents=[emitted], help="descent chain: exact vs Monte Carlo")
    p.add_argument("--tree", required=True)
    p.add_argument("--trials", type=_positive_int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_descent_sim)

    p = sub.add_parser("grover-scaling", parents=[emitted], help="query scaling on marked stars")
    p.add_argument("--sizes", default="64,128,256,512")
    p.add_argument("--marked", default="4", help="marked leaves per star, or 'all'")
    p.add_argument("--trials", type=_positive_int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_grover_scaling)

    p = sub.add_parser("verify-all", parents=[emitted], help="run every invariant suite over a corpus")
    p.add_argument("--count", type=int, default=500)
    p.add_argument("--seed", type=int, default=20240913)
    p.add_argument("--full", action="store_true", help="include statistical suites")
    p.add_argument("--fault", default=None, help="inject a named fault (kappa_perturbation)")
    p.set_defaults(func=cmd_verify_all)

    p = sub.add_parser("run", help="replay a saved experiment spec")
    p.add_argument("--spec", required=True)
    p.set_defaults(func=cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "save_spec", None):  # every command but run has the flag
            options = {k: v for k, v in vars(args).items() if k not in {"func", "save_spec"}}
            with open(args.save_spec, "w") as fh:
                fh.write(json.dumps({"command": args.command, "options": options}, sort_keys=True) + "\n")
        return args.func(args)
    except (ValueError, OSError, ResourceLimitError) as exc:  # bad input or path, or a size past a cap
        parser.error(str(exc))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
