"""Turn timed jobs and recorded spans into the benchmark's metrics."""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

from tracing import root_of, self_times

TAIL_BEYOND = 10
TAIL_CHUNK = 50  # ops per tail sample: the tail is p80 of each 50 consecutive ops


def tail(samples, beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, sample count)``.  The value is a sample, and
    the percentile is the share of samples at or below it.  With ``beyond``
    or fewer samples no such percentile exists, and the maximum is returned
    at percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return xs[-1], 100.0, n
    k = n - beyond  # samples at or below the candidate, 1-based rank
    while k > 1 and xs[k - 1] == xs[k]:
        k -= 1  # ties with the sample above would leave fewer than `beyond` beyond it
    if xs[k - 1] == xs[k]:
        return xs[-1], 100.0, n
    return xs[k - 1], 100.0 * k / n, n


def chunk_tails(jobs, chunk: int = TAIL_CHUNK) -> list[tuple[float, float, int]]:
    """The tail of every full run of ``chunk`` consecutive ops, in run order.

    A fixed chunk keeps the percentile fixed however many ops a run
    completes.  With fewer than ``chunk`` ops the tail is taken over them all.
    Op times are scaled to the reference speed.
    """
    ops = [x * job.scale for job in jobs for x in job.op_seconds]
    if len(ops) < chunk:
        return [tail(ops)]
    return [tail(ops[i : i + chunk]) for i in range(0, len(ops) - chunk + 1, chunk)]


def end_to_end(jobs, setup_samples, peak_rss_mb: float, chunk: int = TAIL_CHUNK) -> dict:
    """End-to-end metrics of an untraced run; each job had its own inputs.

    Times are at the reference speed: each job's times are multiplied by its
    ``scale``, and ``setup_samples`` are scaled already.
    """
    ops = [x * job.scale for job in jobs for x in job.op_seconds]
    job_s = [job.seconds * job.scale for job in jobs]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "job_s": (statistics.median(job_s), "s"),
        "items_per_s": (statistics.median(job.items / s for job, s in zip(jobs, job_s)), "1/s"),
        "op_p50_ms": (statistics.median(ops) * 1e3, "ms"),
        "op_tail_ms": (statistics.median(t[0] for t in chunk_tails(jobs, chunk)) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "walk_queries_per_op": (sum(job.walk_queries for job in jobs) / len(ops), "count"),
    }


# span name -> the per-layer metric holding its self time
SELF_TIME_METRICS = {
    "walk.build": "walk.build_s",
    "walk.spectral": "walk.spectral_s",
    "estimation.pe": "estimation.pe_s",
    "estimation.ae_dist": "estimation.ae_dist_s",
    "estimation.gate_pe": "estimation.gate_pe_s",
    "algorithms.estimate_res": "algorithms.estimate_res_self_s",
    "algorithms.find_marked": "algorithms.find_marked_self_s",
    "algorithms.subtree": "algorithms.subtree_s",
    "resistance.profile": "resistance.profile_s",
    "resistance.bruteforce": "resistance.bruteforce_s",
    "resistance.kappa": "resistance.kappa_s",
    "descent.chain": "descent.chain_s",
    "descent.hitting": "descent.hitting_s",
    "descent.simulate": "descent.simulate_s",
    "experiments.verify_all": "experiments.verify_self_s",
    "experiments.backend_equiv": "experiments.backend_equiv_s",
}

CALL_METRICS = {
    "walk.build": "walk.build_calls",
    "walk.spectral": "walk.spectral_calls",
    "estimation.pe": "estimation.pe_calls",
    "estimation.ae_dist": "estimation.ae_dist_calls",
    "algorithms.estimate_res": "algorithms.estimate_res_calls",
    "algorithms.invalidate": "algorithms.invalidations",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, traced_jobs, untraced_jobs) -> tuple[dict, dict]:
    """Per-layer metrics, per traced job, plus a summary of the span tree.

    ``traced_jobs[j]`` and ``untraced_jobs[j]`` ran on the same inputs.
    Times are self times.  Spans under ``job`` roots count toward the job
    metrics; tree building is read from the ``setup`` root.  Ratios and
    means whose layer was never called read 0.
    """
    n_jobs = len(traced_jobs)
    selfs = self_times(spans)
    roots = root_of(spans)
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    notes: defaultdict = defaultdict(float)
    child_names: defaultdict = defaultdict(set)
    parent_names: Counter = Counter()  # (name, parent name) -> calls
    setup_build_s = 0.0
    setup_roots = 0
    for i, (name, start, end, parent, note) in enumerate(spans):
        root_name = spans[roots[i]][0]
        if root_name == "setup":
            setup_roots += parent < 0
            if name == "trees.build":
                setup_build_s += selfs[i]
            continue
        if root_name != "job":
            continue
        calls[name] += 1
        self_s[name] += selfs[i]
        if note is not None:
            notes[name] += note
        if parent >= 0:
            child_names[parent].add(name)
            parent_names[(name, spans[parent][0])] += 1

    def cache_hits(cache: str, fill: str) -> float:
        misses = sum(
            1 for i, span in enumerate(spans) if span[0] == cache and fill in child_names.get(i, ())
        )
        return _ratio(calls[cache] - misses, calls[cache])

    out: dict = {}
    for span_name, metric in CALL_METRICS.items():
        out[metric] = (calls[span_name] / n_jobs, "count")
    for span_name, metric in SELF_TIME_METRICS.items():
        out[metric] = (self_s[span_name] / n_jobs, "s")
    out["walk.build_bytes"] = (notes["walk.build"] / n_jobs, "bytes")
    out["algorithms.spectral_hit_ratio"] = (cache_hits("algorithms.spectral_cache", "walk.spectral"), "ratio")
    out["algorithms.pe_hit_ratio"] = (cache_hits("algorithms.pe_cache", "estimation.pe"), "ratio")
    out["algorithms.eta_stages_per_estimate"] = (
        _ratio(parent_names[("estimation.ae_dist", "algorithms.estimate_res")], calls["algorithms.estimate_res"]),
        "count",
    )
    out["algorithms.pe_accept_ratio"] = (
        _ratio(notes["algorithms.find_marked"], parent_names[("algorithms.pe_cache", "algorithms.find_marked")]),
        "ratio",
    )
    ops = sum(len(job.op_seconds) for job in traced_jobs)
    out["algorithms.f_queries_per_op"] = (sum(j.f_queries for j in traced_jobs) / ops, "count")
    out["algorithms.h_queries_per_op"] = (sum(j.h_queries for j in traced_jobs) / ops, "count")
    out["trees.build_s"] = (_ratio(setup_build_s, setup_roots), "s")
    ratios = [t.seconds / u.seconds for t, u in zip(traced_jobs, untraced_jobs)]
    out["trace_overhead_ratio"] = (statistics.median(ratios), "ratio")
    summary = {
        "spans": len(spans),
        "traced_jobs": n_jobs,
        "traced_job_mean_s": sum(job.seconds for job in traced_jobs) / n_jobs,
        "layer_self_s_sum": sum(self_s[name] for name in self_s if name != "job") / n_jobs,
    }
    return out, summary
