"""Metric definitions of the served-workload benchmark.

``END_TO_END`` are the numbers a caller of ``repro serve`` sees, one
value per workload per run, measured with tracing off.  ``PER_LAYER``
are the numbers of the traced run; each names the end-to-end metric it
should move and the workload it should move it on (``moves``), so a
later change can say which layer a gain came from.  ``NEAR_ZERO`` lists
where a layer should read about zero: a layer metric moving there is a
red flag.  ``BENCHMARK.json`` at the repository root repeats the names,
units and bounds.
"""

from __future__ import annotations

WORKLOADS = {
    "check-warm": (
        "HTTP check over a seeded Figure-1 pool that fits the default "
        "256-entry compilation cache: every request hits, so only the "
        "per-request path costs"
    ),
    "check-cold": (
        "HTTP check whose labels carry a fresh suffix per request: every "
        "request misses, so DTD/closure compilation and product "
        "reachability dominate"
    ),
    "member-docs": (
        "HTTP member on university and flat documents on both sides of "
        "the 32768-node pattern-engine cutover: XML parsing and pattern "
        "evaluation dominate, no automata run"
    ),
    "edit-stream": (
        "single-std edits of a 12-std mapping via POST /delta, two per "
        "check of the latest revision: writes and reads share the "
        "session cache"
    ),
}

#: name -> (unit, better, bound as a share of the parent's median).
#: The timing bounds are wide because the benchmark shares its host:
#: identical work drifts by 10-20% between runs a minute apart.
END_TO_END = {
    "throughput_rps": ("req/s", "higher", 0.25),
    "latency_p50_ms": ("ms", "lower", 0.25),
    "latency_p90_ms": ("ms", "lower", 0.25),
    "cpu_ms_per_req": ("ms", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.15),
    "success_ratio": ("ratio", "higher", 0.01),
}

#: name -> (unit, better, moves: (end-to-end metric, workload))
PER_LAYER = {
    "service.http_ms": ("ms", "lower", ("latency_p50_ms", "check-warm")),
    "service.payload_kb": ("KB", "lower", ("service.http_ms", "member-docs")),
    "service.session_ms": ("ms", "lower", ("latency_p50_ms", "check-warm")),
    "obs.spans_per_req": ("count", "lower", ("cpu_ms_per_req", "check-warm")),
    "obs.recorded_ratio": ("ratio", "higher", ("success_ratio", "all")),
    "mappings.parse_ms": ("ms", "lower", ("latency_p50_ms", "check-warm")),
    "engine.solve_ms": ("ms", "lower", ("latency_p90_ms", "check-cold")),
    "engine.route_ms": ("ms", "lower", ("latency_p50_ms", "check-warm")),
    "consistency.decide_ms": ("ms", "lower", ("latency_p90_ms", "check-cold")),
    "engine.cache_hit_ratio": ("ratio", "higher", ("throughput_rps", "edit-stream")),
    "engine.cache_misses_per_req": ("count", "lower", ("cpu_ms_per_req", "check-cold")),
    "engine.evictions_per_req": ("count", "lower", ("cpu_ms_per_req", "check-cold")),
    "engine.expansions_per_req": ("count", "lower", ("cpu_ms_per_req", "check-cold")),
    "xmlmodel.from_xml_ms": ("ms", "lower", ("latency_p90_ms", "member-docs")),
    "xmlmodel.nodes_per_req": ("count", "lower", ("context", "member-docs")),
    "patterns.engine_build_ms": ("ms", "lower", ("latency_p50_ms", "member-docs")),
    "patterns.eval_ms": ("ms", "lower", ("latency_p90_ms", "member-docs")),
    "mappings.membership_ms": ("ms", "lower", ("throughput_rps", "member-docs")),
    "analysis.lint_ms": ("ms", "lower", ("latency_p50_ms", "edit-stream")),
    "analysis.hygiene_ms": ("ms", "lower", ("latency_p50_ms", "edit-stream")),
    "analysis.diagnostics_per_mapping": ("count", "lower", ("context", "edit-stream")),
    "incremental.update_ms": ("ms", "lower", ("latency_p50_ms", "edit-stream")),
    "incremental.reuse_ratio": ("ratio", "higher", ("throughput_rps", "edit-stream")),
    "incremental.invalidated_per_edit": ("count", "lower", ("cpu_ms_per_req", "edit-stream")),
    "bench.tracing_overhead_ratio": ("ratio", "lower", ("context", "all")),
}

#: workload -> layer metrics (or ``prefix.*``) that should read about zero
NEAR_ZERO = {
    "member-docs": ("consistency.decide_ms", "analysis.*"),
    "check-warm": ("patterns.*", "xmlmodel.*", "engine.cache_misses_per_req"),
    "check-cold": ("patterns.*", "xmlmodel.*"),
}
