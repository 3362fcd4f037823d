"""Tests of the benchmark's own logic: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

import pytest

import metrics
import run
import speed
from tracing import Tracer, root_of, self_times

run.use_source_tree()
import workloads  # noqa: E402  (needs the source tree on the path)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_tail_is_the_eleventh_largest_sample():
    assert metrics.tail(range(1, 101)) == (90, 90.0, 100)
    assert metrics.tail(range(11)) == (0, 100.0 / 11, 11)


def test_tail_keeps_ten_samples_beyond_under_ties():
    value, percentile, n = metrics.tail([1] * 5 + [5] * 20)
    assert (value, percentile, n) == (1, 20.0, 25)


def test_tail_is_the_highest_such_percentile():
    rng = random.Random(3)
    for n in (11, 12, 50, 997):
        xs = [rng.choice((1.0, 2.0, 3.0)) if rng.random() < 0.3 else rng.random() for _ in range(n)]
        value, _, _ = metrics.tail(xs)
        assert sum(x > value for x in xs) >= metrics.TAIL_BEYOND
        higher = [x for x in set(xs) if x > value]
        assert all(sum(y > x for y in xs) < metrics.TAIL_BEYOND for x in higher)


def test_tail_with_too_few_samples_is_the_maximum():
    assert metrics.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_on_nested_spans():
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0]))
    with tracer.span("job"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
    names = [s[0] for s in tracer.spans]
    assert names == ["job", "a", "b", "c"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 0]
    assert self_times(tracer.spans) == [3.0, 2.0, 1.0, 4.0]
    assert root_of(tracer.spans) == [0, 0, 0, 0]
    assert sum(self_times(tracer.spans)) == 10.0  # self times partition the root


def test_self_time_counts_overlapping_children_once():
    spans = [["job", 0.0, 10.0, -1, None], ["a", 1.0, 5.0, 0, None], ["b", 3.0, 7.0, 0, None],
             ["c", 8.0, 12.0, 0, None]]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 2.0)


def test_wrap_records_notes_and_closes_on_error():
    tracer = Tracer()

    def double(x):
        if x < 0:
            raise ValueError
        return 2 * x

    traced = tracer.wrap(double, "double", note=lambda args, result: result + args[0])
    assert traced(3) == 6
    with pytest.raises(ValueError):
        traced(-1)
    assert [(s[0], s[4]) for s in tracer.spans] == [("double", 9), ("double", None)]
    assert all(s[2] >= s[1] for s in tracer.spans)
    assert tracer._stack == []


def test_patched_restores_every_site():
    class Owner:
        def f(self):
            return 1

    original = Owner.f
    tracer = Tracer()
    with tracer.patched([(Owner, "f", "owner.f", None)]):
        assert Owner().f() == 1
        assert Owner.f is not original
    assert Owner.f is original
    assert [s[0] for s in tracer.spans] == ["owner.f"]


def _job(seconds, ops):
    return workloads.Job(0, None, seconds=seconds, op_seconds=ops, items=len(ops), walk_queries=3 * len(ops))


def test_chunk_tails_fix_the_percentile():
    ops = [0.001 * i for i in range(1, 31)]
    jobs = [_job(1.0, ops) for _ in range(3)]
    run_order = ops * 3
    assert metrics.chunk_tails(jobs, 40) == [metrics.tail(run_order[:40]), metrics.tail(run_order[40:80])]
    assert metrics.chunk_tails(jobs, 200) == [metrics.tail(run_order)]


def test_end_to_end_metrics_match_the_benchmark_file():
    jobs = [_job(1.0, [0.01 * i for i in range(1, 31)]), _job(1.2, [0.01 * i for i in range(1, 31)])]
    got = metrics.end_to_end(jobs, [0.5, 0.4, 0.6], 100.0, chunk=30)
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: unit for name, (_, unit) in got.items()} == want
    assert all(value > 0 for value, _ in got.values())
    assert got["setup_s"][0] == 0.5
    assert got["job_s"][0] == pytest.approx(1.1)
    assert got["items_per_s"][0] == pytest.approx((30 / 1.0 + 30 / 1.2) / 2)
    assert got["op_p50_ms"][0] == pytest.approx(155.0)
    assert got["op_tail_ms"][0] == pytest.approx(200.0)
    assert got["walk_queries_per_op"][0] == 3.0


def test_end_to_end_times_are_at_the_reference_speed():
    fast, slow = _job(1.0, [0.1] * 20), _job(2.0, [0.2] * 20)
    slow.scale = 0.5  # the kernel ran twice as long as at the reference speed
    got = metrics.end_to_end([fast, slow], [0.5], 100.0, chunk=20)
    assert got["job_s"][0] == pytest.approx(1.0)
    assert got["items_per_s"][0] == pytest.approx(20.0)
    assert got["op_p50_ms"][0] == pytest.approx(100.0)
    assert got["op_tail_ms"][0] == pytest.approx(100.0)
    assert got["walk_queries_per_op"][0] == 3.0


def test_speed_scale_is_reference_over_kernel_time(monkeypatch):
    monkeypatch.setattr(speed, "kernel_seconds", lambda: 2 * speed.REFERENCE_S)
    assert speed.scale() == 0.5


def test_layer_metrics_match_the_benchmark_file_and_fit_in_the_job():
    tracer = Tracer()
    with tracer.span("setup"):
        tracer.wrap(lambda: None, "trees.build")()
    build = tracer.wrap(lambda tree: None, "walk.build", note=lambda args, result: 24)
    with tracer.span("job"):
        with tracer.span("algorithms.estimate_res"):
            tracer.wrap(lambda: None, "estimation.ae_dist")()
            build(None)
    job = _job(1.0, [0.1, 0.2])
    got, summary = metrics.layer_metrics(tracer.spans, [job], [job])
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: unit for name, (_, unit) in got.items()} == want
    assert got["walk.build_calls"][0] == 1
    assert got["walk.build_bytes"][0] == 24
    assert got["algorithms.eta_stages_per_estimate"][0] == 1
    assert got["trace_overhead_ratio"][0] == 1.0
    job_span = next(s for s in tracer.spans if s[0] == "job")
    assert summary["layer_self_s_sum"] <= job_span[2] - job_span[1]


class SmallCorpus(workloads.VerifyCorpus):
    count = 3
    descent_steps = 40


def _fail_rate(workload, job):
    verdict = workload.check(job)
    verdict.merge(workload.determinism(job))
    return verdict.failed / verdict.attempted


def _first_job(workload):
    return workload.run_job(workload.inputs(0), 0)


def test_verify_corpus_passes_on_sound_code():
    workload = SmallCorpus(5)
    assert _fail_rate(workload, _first_job(workload)) == 0.0


def test_injected_kappa_fault_shows_as_failures():
    workload = SmallCorpus(5, inject_fault="kappa_perturbation")
    assert _fail_rate(workload, _first_job(workload)) > 0.0


class TinyStars(workloads.GroverStars):
    star_sizes = (8, 12)
    trials = 4


def test_grover_checks_and_determinism():
    workload = TinyStars(2)
    job = _first_job(workload)
    assert len(job.op_seconds) == 8
    assert _fail_rate(workload, job) == 0.0
    job.outputs[0][2].walk_queries += 1
    assert workload.determinism(job).failed == 1


class TinyTrees(workloads.FindallRandom):
    n_trees = 2
    sizes = (8, 12)


def test_findall_counts_a_wrong_found_set():
    workload = TinyTrees(4)
    job = _first_job(workload)
    assert _fail_rate(workload, job) == 0.0
    job.outputs[1] = ([], job.outputs[1][1])
    verdict = workload.check(job)
    assert (verdict.attempted, verdict.failed) == (2, 1)
    assert verdict.failures[0].startswith("job 0 tree 1: found []")


def test_trace_sites_name_existing_attributes():
    for owner, attr, name, _ in workloads.trace_sites():
        assert callable(getattr(owner, attr)), (owner, attr)
        assert name.split(".")[0] in {"walk", "estimation", "algorithms", "resistance", "descent",
                                      "experiments", "trees"}


def test_run_fails_without_the_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in run.HERE.glob("*.py"):
        shutil.copy(path, bench)
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grover_stars", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
