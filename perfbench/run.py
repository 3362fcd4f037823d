"""Benchmark of the qbacktrack simulator; see README.md in this directory.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload grover_stars --seed 1 --seconds 40 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it are a readable report, and ``perfbench/out/`` receives the
details, the environment and, for a traced run, the spans as JSONL.
``--workload all`` runs every workload in its own process and prints one
table.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("verify_corpus", "findall_random", "grover_stars")
SETUP_SAMPLES = 5  # this process's set-up plus SETUP_SAMPLES - 1 fresh processes

# One BLAS thread: on a few shared cores a second thread makes every dense
# call wait for the slower core, so timings follow the neighbours' load.
# Set before numpy loads; the set-up processes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def use_source_tree() -> None:
    """Import ``qbacktrack`` from this checkout's ``src``, or exit non-zero."""
    if not (SRC / "qbacktrack" / "__init__.py").is_file():
        sys.exit(f"perfbench: no qbacktrack sources under {SRC}")
    sys.path.insert(0, str(SRC))


def set_up(name: str, seed: int, tracer=None):
    """Import the library and build the workload's inputs; returns (workload, seconds)."""
    start = time.perf_counter()
    import workloads  # imports qbacktrack, numpy and scipy: part of the set-up

    if tracer is None:
        workload = workloads.WORKLOADS[name](seed)
    else:
        with tracer.patched(workloads.trace_sites()), tracer.span("setup"):
            workload = workloads.WORKLOADS[name](seed)
    return workload, time.perf_counter() - start


def setup_in_fresh_process(name: str, seed: int) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def _openblas_threads() -> dict:
    """Thread count and build of each OpenBLAS numpy and scipy loaded."""
    import numpy
    import scipy

    found = {}
    for pkg, suffix in ((numpy, "64_"), (scipy, "")):
        libs = glob.glob(str(Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs" / "libscipy_openblas*"))
        if not libs:
            continue
        try:
            lib = ctypes.CDLL(libs[0])
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            config = getattr(lib, f"scipy_openblas_get_config{suffix}")
        except (OSError, AttributeError):
            continue
        threads.restype, threads.argtypes = ctypes.c_int, []
        config.restype, config.argtypes = ctypes.c_char_p, []
        found[pkg.__name__] = {"threads": threads(), "config": config().decode()}
    return found


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment(args) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_jobs(workload, seconds: float, tracer=None):
    """Run jobs 0, 1, ... while another one fits in ``seconds``; at least one.

    With a tracer every round runs the job untraced and traced on the same
    inputs, alternating which goes first.  The speed kernel runs between
    rounds; each untraced job's ``scale`` comes from the kernel times on
    either side of its round.  Returns (untraced jobs, traced jobs).
    """
    import speed
    import workloads

    def run_traced(inputs, j):
        with tracer.patched(workloads.trace_sites()), tracer.span("job"):
            traced.append(workload.run_job(inputs, j))

    plain, traced = [], []
    start = time.perf_counter()
    kernel_s = speed.kernel_seconds()
    for j in itertools.count():
        round_start = time.perf_counter()
        inputs = workload.inputs(j)
        if tracer is not None and j % 2:
            run_traced(inputs, j)
        job = workload.run_job(inputs, j)
        plain.append(job)
        if tracer is not None and not j % 2:
            run_traced(inputs, j)
        kernel_after = speed.kernel_seconds()
        job.scale = speed.REFERENCE_S / ((kernel_s + kernel_after) / 2)
        kernel_s = kernel_after
        last = time.perf_counter() - round_start
        if time.perf_counter() - start + last > seconds:
            return plain, traced


def judge(workload, jobs):
    import workloads

    verdict = workloads.Verdict()
    for job in jobs:
        verdict.merge(workload.check(job))
    verdict.merge(workload.determinism(jobs[0]))
    return verdict


def run_one(args) -> int:
    use_source_tree()
    import speed

    if args.setup_only:
        _, seconds = set_up(args.workload, args.seed)
        print(repr(seconds * speed.scale()))
        return 0

    from tracing import Tracer
    import metrics

    tracer = Tracer() if args.trace else None
    workload, setup_s = set_up(args.workload, args.seed, tracer)
    setup_samples = [setup_s * speed.scale()]
    if not args.trace:
        setup_samples += [setup_in_fresh_process(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    plain, traced = run_jobs(workload, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verdict = judge(workload, plain + traced)

    details = {"environment": environment(args), "setup_samples_s": setup_samples}
    details["job_wall_s"] = [job.seconds for job in plain]
    details["job_scale"] = [job.scale for job in plain]
    details["op_wall_ms"] = [[x * 1e3 for x in job.op_seconds] for job in plain]
    tails = metrics.chunk_tails(plain)
    details["op_tail"] = [{"ms": v * 1e3, "percentile": p, "samples": n} for v, p, n in tails]
    if args.trace:
        result, details["trace"] = metrics.layer_metrics(tracer.spans, traced, plain)
        details["traced_job_s"] = [job.seconds for job in traced]
    else:
        result = metrics.end_to_end(plain, setup_samples, peak_rss_mb)
    details["fail_rate"] = verdict.failed / verdict.attempted
    details["failures"] = verdict.failures
    details["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in result.items()}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    if args.trace:
        tracer.dump_jsonl(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")

    env = details["environment"]
    print(f"# {args.workload} seed={args.seed} nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} blas={env['blas']} "
          f"blas_threads={ {k: v['threads'] for k, v in env['blas_threads'].items()} } "
          f"commit={env['git_commit']}")
    for name, (value, unit) in result.items():
        print(f"{name:40s} {value:16.6g} {unit}")
    print(f"{'fail_rate':40s} {details['fail_rate']:16.6g} ratio")
    if args.trace:
        trace = details["trace"]
        print(f"# layer self times sum to {trace['layer_self_s_sum']:.6g} s "
              f"of a {trace['traced_job_mean_s']:.6g} s traced job ({trace['spans']} spans)")
    for v, p, n in tails[:1]:
        print(f"# op tail: p{p:.4g} of each {n} consecutive ops, median over {len(tails)} chunks")
    print(f"# times at the reference speed: median job scale {statistics.median(details['job_scale']):.4g}, "
          f"median job wall time {statistics.median(details['job_wall_s']):.6g} s")
    for failure in verdict.failures:
        print(f"# FAILED: {failure}")
    print(json.dumps({
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": details["metrics"],
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then one table of every metric."""
    rows, correct, attempted, failed = [], True, 0, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        fail_rate = {"value": result["failed"] / result["attempted"], "unit": "ratio"}
        for metric, cell in {**result["metrics"], "fail_rate": fail_rate}.items():
            rows.append((name, metric, cell["value"], cell["unit"]))
    for name, metric, value, unit in rows:
        print(f"{name:16s} {metric:40s} {value:16.6g} {unit}")
    metrics_all = {f"{n}.{m}": {"value": v, "unit": u} for n, m, v, u in rows}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics_all}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        if args.setup_only:
            parser.error("--setup-only needs one workload")
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
