"""The repository benchmark: four seeded workloads served over HTTP.

One run builds a workload's inputs from ``--seed``, starts a default
``EngineSession`` behind an in-process ``ServiceServer`` on an ephemeral
port, warms it with the workload's set-up requests, and drives it from
one closed-loop client for ``--seconds``.  Every reply is checked
against the answer its input was built to have.  The last line of
standard output is the result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of ``spec.py``;
with ``--trace 1`` the per-layer ones of a traced run over the same
inputs, which also writes its spans to ``perfbench/out/`` as JSONL and
prints a per-layer self-time table and the tracing overhead.

Usage, from the repository root::

    python3 perfbench/run.py --workload check-warm --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload member-docs --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --steadiness --runs 10 [--workload check-cold ...]

Requests go in blocks, each one pass over the workload's input mix.
Throughput, CPU per request and the latency percentiles cover the
blocks during which the host did not preempt the process
(:func:`held_blocks`), pooled: a workload with long blocks has only a
few of them in a run.  Peak RSS is read after a fixed number of blocks
(:func:`peak_rss`).

The steadiness report runs each workload once per seed in a fresh
process, prints each run's metrics as it ends, then each end-to-end
metric's median and interquartile spread against its bound, plus every
run whose median or 90th percentile sat on a step between two input
classes.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: set-ups per run, the last before the timed phase serving it; setup_s
#: is their median.  One set-up's time moves by a fifth with the host's
#: speed from one second to the next, so half of them run after the
#: timed phase.
SETUPS = 15
#: in the traced run, every k-th request also asks for its span tree
TRACED_EVERY = 4
#: share of a traced run spent untraced, for the tracing overhead
UNTRACED_SHARE = 1 / 3
#: check-cold: a request reuses a few of its own artifacts (ABSCONS
#: after CONS, about 13% of lookups) but none of an earlier request's
COLD_MAX_HIT_RATIO = 0.25
COLD_MAX_CROSS_RATIO = 0.01
#: a block whose CPU share of wall time falls under this share of the
#: run's typical block was preempted by the host (see held_blocks)
PREEMPTED_SHARE = 0.8
#: a percentile sits on a class step when the latencies 5 points below
#: and above it differ by this factor and come from different classes
STEP_WINDOW, STEP_FACTOR = 5.0, 1.25
DETAIL = "perfbench-detail "


def percentile(ordered: list[float], q: float) -> float:
    """Linear-interpolated *q*-th percentile of an ascending list."""
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def class_steps(samples, percentiles=(50, 90)) -> dict[str, str]:
    """Percentiles that sit on a step between two input classes."""
    ranked = sorted((s.seconds, s.klass) for s in samples)
    last = len(ranked) - 1
    flags = {}
    for q in percentiles:
        below = ranked[round(last * max(q - STEP_WINDOW, 0) / 100)]
        above = ranked[round(last * min(q + STEP_WINDOW, 100) / 100)]
        if below[1] != above[1] and above[0] > STEP_FACTOR * below[0]:
            flags[f"p{q}"] = (
                f"{below[1]} {below[0] * 1000:.1f} ms -> "
                f"{above[1]} {above[0] * 1000:.1f} ms"
            )
    return flags


def stats_delta(before: dict, after: dict, requests: int) -> dict:
    """Server counters over a phase bracketed by two ``/stats`` calls."""
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return {
        "hits": hits,
        "misses": misses,
        "evictions": after["evictions"] - before["evictions"],
        "hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        # the first /stats call is recorded after it answered
        "recorded_ratio": (after["recorded"] - before["recorded"] - 1) / requests,
    }


def check_shape(workload: str, server: dict, isolated_hits: int | None = None) -> None:
    """The workload shape guards; a tripped guard fails the run.

    *isolated_hits* (traced check-cold only) counts the hits the same
    requests see one by one on empty caches; the server's hits beyond
    them are reuse across requests, which check-cold must not have.
    """
    from workloads import GuardError

    if server["recorded_ratio"] != 1.0:
        raise GuardError(
            f"flight recorder kept {server['recorded_ratio']:.4f} of the requests"
        )
    if workload == "check-warm" and (
        server["hit_ratio"] < 0.99 or server["evictions"]
    ):
        raise GuardError(
            f"check-warm is not warm: hit ratio {server['hit_ratio']:.4f}, "
            f"{server['evictions']} evictions"
        )
    if workload == "check-cold" and server["hit_ratio"] > COLD_MAX_HIT_RATIO:
        raise GuardError(
            f"check-cold is not cold: hit ratio {server['hit_ratio']:.4f}"
        )
    if workload == "check-cold" and isolated_hits is not None:
        lookups = server["hits"] + server["misses"]
        cross = (server["hits"] - isolated_hits) / lookups
        print(f"check-cold: {server['hits'] - isolated_hits} of {lookups} "
              f"lookups hit an earlier request's artifact ({cross:.4f})")
        if cross > COLD_MAX_CROSS_RATIO:
            raise GuardError(f"check-cold reuses artifacts across requests: {cross:.4f}")


def set_up(workload):
    """Start a served session and send the set-up requests.

    Returns the live server and the seconds that took.  Input generation
    happened before and is not part of set-up.
    """
    from client import Served, send
    from workloads import GuardError

    gc.collect()  # no set-up pays for the garbage of what ran before
    started = time.perf_counter()
    served = Served()
    for op in workload.warmup:
        error = send(served, op)[4]
        if error:
            served.close()
            raise GuardError(f"set-up request failed: {error}")
    seconds = time.perf_counter() - started
    gc.collect()
    return served, seconds


def set_up_times(workload, count: int) -> list[float]:
    """The seconds of *count* set-ups, each server closed at once."""
    times = []
    for __ in range(count):
        served, seconds = set_up(workload)
        served.close()
        times.append(seconds)
    return times


def held_blocks(run) -> list:
    """The blocks during which the process held its CPU.

    In a closed loop one of the two threads is always running, so a
    block's process CPU time tracks its wall time.  The machine is
    shared: when the host preempts it, wall time runs on without CPU
    time.  A block whose CPU share of wall time is under
    PREEMPTED_SHARE of the run's typical (90th percentile) share was
    preempted and is left out of the timing figures; a slowdown that
    hits every block alike stays in.  If more than half the blocks
    would go, all of them count.  With no complete block, the partial
    one stands in.
    """
    blocks = run.blocks or [run.partial]
    shares = [b.cpu / b.wall for b in blocks]
    typical = percentile(sorted(shares), 90)
    held = [b for b, share in zip(blocks, shares) if share >= PREEMPTED_SHARE * typical]
    return held if 2 * len(held) >= len(blocks) else blocks


def throughput(blocks) -> float:
    """Requests per second of request time over *blocks*."""
    return sum(b.requests for b in blocks) / sum(b.wall for b in blocks)


def cpu_per_request(blocks) -> float:
    """Process CPU milliseconds per request over *blocks*."""
    return 1000.0 * sum(b.cpu for b in blocks) / sum(b.requests for b in blocks)


def pooled_percentile(blocks, q: float) -> float:
    """The *q*-th latency percentile of all requests of *blocks*.

    Every block holds the workload's whole input mix, so the pooled
    percentile lands on the same rank of the mix in every run.
    """
    return percentile(
        sorted(s.seconds * 1000.0 for b in blocks for s in b.samples), q
    )


def peak_rss(run, rss_blocks: int) -> float:
    """Peak RSS after set-up and the first *rss_blocks* blocks.

    A fixed amount of work, not the whole run: memory that grows with
    every request (check-cold's) would otherwise grow with the host's
    speed.  A run too short to finish them reads its last block.
    """
    blocks = run.blocks or [run.partial]
    return blocks[min(rss_blocks, len(blocks)) - 1].peak_rss_mb


def end_to_end(run, setup_s: float, rss_blocks: int) -> dict:
    blocks = held_blocks(run)
    return {
        "throughput_rps": throughput(blocks),
        "latency_p50_ms": pooled_percentile(blocks, 50),
        "latency_p90_ms": pooled_percentile(blocks, 90),
        "cpu_ms_per_req": cpu_per_request(blocks),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss(run, rss_blocks),
        "success_ratio": 1.0 - run.failed / len(run.samples),
    }


def detail(run) -> dict:
    """What the steadiness report needs beyond the metrics."""
    blocks = held_blocks(run)
    samples = [sample for block in blocks for sample in block.samples]
    by_class: dict[str, list[float]] = {}
    for sample in samples:
        by_class.setdefault(sample.klass, []).append(sample.seconds * 1000.0)
    return {
        "samples": len(samples),
        "p90_tail": len(samples) - int(len(samples) * 0.9),
        "blocks": len(run.blocks),
        "preempted_blocks": len(run.blocks) - len(blocks) if run.blocks else 0,
        "classes": {
            name: {"count": len(v), "median_ms": statistics.median(v)}
            for name, v in sorted(by_class.items())
        },
        "steps": class_steps(samples),
        "errors": run.errors,
    }


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name][0]}
            for name, value in metrics.items()
        },
    })


def measure(name: str, seed: int, seconds: float) -> int:
    from client import drive
    from spec import END_TO_END
    from workloads import MAKE_WORKLOAD

    workload = MAKE_WORKLOAD[name](seed)
    setup_times = set_up_times(workload, SETUPS // 2)
    served, setup_seconds = set_up(workload)
    try:
        before = served.stats()
        run = drive(served, workload.blocks, seconds)
        after = served.stats()
    finally:
        served.close()
    setup_times += [setup_seconds] + set_up_times(workload, SETUPS // 2)
    setup_s = statistics.median(setup_times)
    if not run.samples:
        print("no request finished within --seconds", file=sys.stderr)
        return 1
    server = stats_delta(before, after, len(run.samples))
    check_shape(name, server)
    metrics = end_to_end(run, setup_s, workload.rss_blocks)
    info = detail(run)
    info["server"] = server
    for metric, value in metrics.items():
        print(f"{name} {metric} = {value:.6g} {END_TO_END[metric][0]}")
    if len(run.blocks) < workload.rss_blocks:
        print(f"{name}: peak_rss_mb read after {len(run.blocks)} blocks, "
              f"not {workload.rss_blocks}: the run is too short")
    print(f"{name} samples = {info['samples']} (p90 tail {info['p90_tail']}), "
          f"blocks = {info['blocks']} ({info['preempted_blocks']} preempted, left out)")
    for step, text in info["steps"].items():
        print(f"{name} {step} sits on a class step: {text}")
    print(DETAIL + json.dumps(info))
    print(result_line(run.failed == 0, len(run.samples), run.failed, metrics, END_TO_END))
    return 0


def measure_traced(name: str, seed: int, seconds: float) -> int:
    from client import drive
    from layers import Replayer, Tracer, summarize
    from spec import NEAR_ZERO, PER_LAYER
    from workloads import MAKE_WORKLOAD

    workload = MAKE_WORKLOAD[name](seed)
    served, __ = set_up(workload)
    tracer = Tracer()
    replayer = Replayer(workload, tracer)
    try:
        replayer.prepare()
        untraced = drive(served, workload.blocks, seconds * UNTRACED_SHARE)
        before = served.stats()
        traced = drive(
            served, workload.blocks, seconds * (1 - UNTRACED_SHARE),
            on_reply=replayer.replay, traced_every=TRACED_EVERY,
        )
        after = served.stats()
    finally:
        served.close()
    if not traced.samples or not untraced.samples:
        print("no request finished within --seconds", file=sys.stderr)
        return 1
    server = stats_delta(before, after, len(traced.samples))
    check_shape(name, server, replayer.isolated_hits if replayer.isolated else None)
    requests = len(traced.samples)
    layer = summarize(replayer.samples)
    layer["obs.recorded_ratio"] = (server["recorded_ratio"], requests)
    layer["engine.cache_hit_ratio"] = (
        server["hit_ratio"], server["hits"] + server["misses"]
    )
    layer["engine.cache_misses_per_req"] = (server["misses"] / requests, requests)
    layer["engine.evictions_per_req"] = (server["evictions"] / requests, requests)
    rates = {
        "untraced": throughput(held_blocks(untraced)),
        "traced": throughput(held_blocks(traced)),
    }
    layer["bench.tracing_overhead_ratio"] = (rates["untraced"] / rates["traced"], requests)

    OUT.mkdir(exist_ok=True)
    tracer.write_jsonl(OUT / f"trace-{name}-seed{seed}.jsonl")
    (OUT / f"layers-{name}-seed{seed}.json").write_text(json.dumps({
        metric: {"value": value, "samples": count, "unit": PER_LAYER[metric][0],
                 "moves": PER_LAYER[metric][2]}
        for metric, (value, count) in layer.items()
    }, indent=1) + "\n")

    near_zero = NEAR_ZERO.get(name, ())
    print(f"{name}: traced run over {requests} requests "
          f"({len(tracer.spans)} spans -> {OUT.name}/trace-{name}-seed{seed}.jsonl)")
    print(f"{'layer metric':36} {'value':>12} {'unit':>6} {'samples':>8}  moves")
    for metric, (value, count) in layer.items():
        unit, __, (target, on) = PER_LAYER[metric]
        zero = any(
            metric == z or (z.endswith(".*") and metric.startswith(z[:-1]))
            for z in near_zero
        )
        note = "  (should be ~0 here)" if zero else ""
        print(f"{metric:36} {value:12.4f} {unit:>6} {count:8d}  {target} on {on}{note}")
    print(f"{'span (self time)':36} {'median ms':>12} {'count':>8}")
    for span, (ms, count) in sorted(tracer.self_times().items()):
        print(f"{span:36} {ms:12.4f} {count:8d}")
    print(f"tracing overhead: untraced {rates['untraced']:.2f} req/s vs traced "
          f"{rates['traced']:.2f} req/s (ratio {layer['bench.tracing_overhead_ratio'][0]:.3f})")
    for text in replayer.wrong:
        print(f"wrong answer from a direct layer call: {text}")
    failed = untraced.failed + traced.failed + len(replayer.wrong)
    attempted = len(untraced.samples) + requests
    metrics = {metric: value for metric, (value, __) in layer.items()}
    print(result_line(failed == 0, attempted, failed, metrics, PER_LAYER))
    return 0


def steadiness(names: list[str], runs: int, first_seed: int, seconds: float) -> int:
    """Run each workload once per seed and report each metric's spread."""
    from spec import END_TO_END

    unsteady = 0
    for name in names:
        values: dict[str, list[float]] = {metric: [] for metric in END_TO_END}
        steps: list[str] = []
        for seed in range(first_seed, first_seed + runs):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(lines[-1])
            for metric, entry in result["metrics"].items():
                values[metric].append(entry["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{metric}={entry['value']:.4g}"
                for metric, entry in result["metrics"].items()
            ), flush=True)
            info = next(
                json.loads(line[len(DETAIL):]) for line in lines
                if line.startswith(DETAIL)
            )
            steps += [f"seed {seed} {q}: {text}" for q, text in info["steps"].items()]
            if not result["correct"]:
                print(f"{name} seed {seed}: {result['failed']} failed: {info['errors']}")
                unsteady += 1
        print(f"\n{name}: {runs} runs of {seconds:g} s")
        print(f"{'metric':16} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
        for metric, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = END_TO_END[metric][2]
            mark = ""
            if metric != "setup_s" and spread > bound:
                mark = "  OVER BOUND"
                unsteady += 1
            elif spread > bound / 3:
                mark = "  over a third of the bound"
            print(f"{metric:16} {median:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{spread:8.4f} {bound:6.2f}{mark}")
        for step in steps:
            print(f"  class step: {step}")
    return 1 if unsteady else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true",
                        help="report spreads over --runs seeds per workload")
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(HERE), str(SRC)]
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"cannot import the repro package from {SRC}: {error}", file=sys.stderr)
        return 2
    from spec import WORKLOADS
    from workloads import GuardError

    names = args.workload or ([] if not args.steadiness else list(WORKLOADS))
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown or not names:
        parser.error(f"--workload must name one of {', '.join(WORKLOADS)}")
    if args.steadiness:
        return steadiness(names, args.runs, args.seed, args.seconds)
    if len(names) != 1:
        parser.error("a measuring run takes exactly one --workload")
    try:
        if args.trace:
            return measure_traced(names[0], args.seed, args.seconds)
        return measure(names[0], args.seed, args.seconds)
    except GuardError as error:
        print(f"workload shape guard tripped: {error}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
