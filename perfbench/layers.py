"""The traced run: each layer timed from outside, by calling it directly.

After every served request the benchmark replays the layers that
request went through by calling each layer's public function on the
same input, under benchmark-side spans (:class:`Tracer`), against
*replica* state that mirrors the server's: a compilation cache in the
same warm or cold state, or an incremental engine fed the same
revisions.  The server's own counters come from ``GET /stats`` and the
span tree a ``"trace": true`` request returns.  Nothing in ``src/`` is
instrumented for this.
"""

from __future__ import annotations

import itertools
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from repro.analysis import lint_mapping
from repro.consistency import (
    is_absolutely_consistent,
    is_consistent_automata,
    is_consistent_bounded,
    is_consistent_nested,
)
from repro.engine import (
    AbsoluteConsistencyProblem,
    CompilationCache,
    ConsistencyProblem,
    ExecutionContext,
    MembershipProblem,
    solve,
)
from repro.incremental import IncrementalEngine
from repro.mappings.io import parse_mapping
from repro.obs import walk
from repro.patterns.matching import engine_for, find_matches
from repro.xmlmodel.xml_io import from_xml

from spec import PER_LAYER
from workloads import ENGINE_CUTOVER, STREAM_NAME, GuardError, Op, Workload


class Tracer:
    """Benchmark-side spans: name, start, end, parent and request ID."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str, request: str) -> Iterator[None]:
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append({
                "id": span_id, "name": name, "start": start, "end": end,
                "parent": parent, "request": request,
            })

    def timed(self, name: str, request: str, fn, *args, **kwargs) -> tuple[Any, float]:
        """``fn(*args, **kwargs)`` under a span; (result, milliseconds)."""
        with self.span(name, request):
            started = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - started
        return result, elapsed * 1000.0

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as sink:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                sink.write(json.dumps(span) + "\n")

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: (median self time in ms per span, span count).

        Self time is the span's duration minus the time its children
        cover (children of one span never overlap here).
        """
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        by_name: dict[str, list[float]] = defaultdict(list)
        for span in self.spans:
            own = span["end"] - span["start"] - covered.get(span["id"], 0.0)
            by_name[span["name"]].append(own * 1000.0)
        return {
            name: (statistics.median(values), len(values))
            for name, values in by_name.items()
        }


#: the consistency layer's procedure behind each CONS algorithm name
CONSISTENCY = {
    "cons-nested": is_consistent_nested,
    "cons-automata": is_consistent_automata,
    "cons-bounded": lambda mapping, context: is_consistent_bounded(
        mapping, context=context
    ),
}

#: pattern engine class each member-docs input class must get
ENGINE_CLASS = {
    "university": "PatternEngine",
    "flat": "PatternEngine",
    "large": "CompactPatternEngine",
}


def _verdict(verdict: Any) -> str:
    if verdict.is_proved:
        return "proved"
    return "refuted" if verdict.is_refuted else "unknown"


class Replayer:
    """Replays each served request layer by layer and keeps the samples."""

    def __init__(self, workload: Workload, tracer: Tracer) -> None:
        self.workload = workload
        self.tracer = tracer
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: direct layer calls whose answer differs from the known one
        self.wrong: list[str] = []
        self._ids = itertools.count(1)
        # replica state: the server's cache state, kept apart from it
        self.solve_cache = CompilationCache()
        self.decide_cache = CompilationCache()
        self.member_cache = CompilationCache()
        self.incremental: IncrementalEngine | None = None
        #: check-cold replays each request on empty caches; the hits they
        #: still see are reuse inside one request, never across requests
        self.isolated = workload.name == "check-cold"
        self.isolated_hits = 0

    def prepare(self) -> None:
        """Bring the replicas to the state the set-up left the server in."""
        name, warmup = self.workload.name, self.workload.warmup
        if name == "check-warm":  # the set-up requests are the whole pool
            for op in warmup:
                mapping = parse_mapping(op.request["mappings"][0]["text"])
                for cache in (self.solve_cache, self.decide_cache):
                    context = ExecutionContext(cache=cache)
                    solve(ConsistencyProblem(mapping), context)
                    solve(AbsoluteConsistencyProblem(mapping), context)
        elif name == "edit-stream":  # the first set-up request opens the stream
            self.incremental = IncrementalEngine(cache=CompilationCache())
            self.incremental.update(STREAM_NAME, warmup[0].request["mapping"])
            self.solve_cache = self.decide_cache = self.incremental.cache

    # -- per request -------------------------------------------------------

    def replay(self, op: Op, latency: float, raw: bytes, reply: dict | None) -> None:
        if reply is None or not reply.get("ok"):
            return  # already counted as a failure by the client
        request = reply.get("request_id") or f"bench-{next(self._ids)}"
        add = self.samples
        with self.tracer.span("replay", request):
            if op.command == "check":
                inner = self._check(op, reply, request)
            elif op.command == "member":
                inner = self._member(op, request)
            else:
                inner = self._delta(op, reply, request)
        elapsed_ms = reply["elapsed"] * 1000.0
        add["service.session_ms"].append(elapsed_ms - inner)
        if "trace" in reply:
            # a traced reply carries its span tree: count it, but keep
            # its bigger body out of the transport numbers
            add["obs.spans_per_req"].append(sum(1 for __ in walk(reply["trace"])))
        else:
            add["service.http_ms"].append(latency * 1000.0 - elapsed_ms)
            add["service.payload_kb"].append((len(op.body) + len(raw)) / 1024.0)

    def _check(self, op: Op, reply: dict, request: str) -> float:
        timed, add = self.tracer.timed, self.samples
        text = op.request["mappings"][0]["text"]
        mapping, parse_ms = timed("mappings.parse", request, parse_mapping, text)

        def solve_both(context: ExecutionContext):
            return (
                solve(ConsistencyProblem(mapping), context),
                solve(AbsoluteConsistencyProblem(mapping), context),
            )

        if self.isolated:
            self.solve_cache = CompilationCache()
            self.decide_cache = CompilationCache()
        verdicts, solve_ms = timed(
            "engine.solve", request, solve_both,
            ExecutionContext(cache=self.solve_cache),
        )
        if self.isolated:
            self.isolated_hits += self.solve_cache.hits
        result = reply["results"][0]
        algorithm = result["consistent"]["report"]["algorithm"]
        context = ExecutionContext(cache=self.decide_cache)

        def decide():
            with context.activate():
                return (
                    CONSISTENCY[algorithm](mapping, context),
                    is_absolutely_consistent(mapping, context=context),
                )

        decided, decide_ms = timed("consistency.decide", request, decide)
        expected = [op.expect["consistent"], op.expect["absolutely_consistent"]]
        for label, pair in (("engine.solve", verdicts), ("consistency", decided)):
            answers = [_verdict(v) for v in pair]
            if answers != expected:
                self.wrong.append(f"{label} answered {answers} for {op.klass}")
        add["mappings.parse_ms"].append(parse_ms)
        add["engine.solve_ms"].append(solve_ms)
        add["consistency.decide_ms"].append(decide_ms)
        add["engine.route_ms"].append(solve_ms - decide_ms)
        add["engine.expansions_per_req"].append(
            result["consistent"]["report"]["expansions"]
            + result["absolutely_consistent"]["report"]["expansions"]
        )
        return parse_ms + solve_ms

    def _member(self, op: Op, request: str) -> float:
        timed, add = self.tracer.timed, self.samples
        mapping, parse_ms = timed(
            "mappings.parse", request, parse_mapping, op.request["mapping"]
        )
        docs = (
            (op.request["source"], mapping.source_dtd),
            (op.request["targets"][0], mapping.target_dtd),
        )
        parse_docs_ms = 0.0
        trees = []
        for text, dtd in docs:
            tree, ms = timed("xmlmodel.from_xml", request, from_xml, text, dtd)
            add["xmlmodel.from_xml_ms"].append(ms)
            parse_docs_ms += ms
            trees.append(tree)
        add["xmlmodel.nodes_per_req"].append(sum(tree.size for tree in trees))
        for tree in trees:
            engine, ms = timed("patterns.engine_build", request, engine_for, tree)
            add["patterns.engine_build_ms"].append(ms)
            want = ENGINE_CLASS[op.klass]
            if type(engine).__name__ != want:
                raise GuardError(
                    f"{op.klass} document of {tree.size} nodes got "
                    f"{type(engine).__name__}, expected {want} "
                    f"(cutover {ENGINE_CUTOVER})"
                )
        for std in mapping.stds:
            __, ms = timed("patterns.eval", request, find_matches, std.source, trees[0])
            add["patterns.eval_ms"].append(ms)
        # membership on trees parsed apart, so no engine is prebuilt
        source, target = (from_xml(text, dtd) for text, dtd in docs)
        verdict, member_ms = timed(
            "mappings.membership", request, solve,
            MembershipProblem(mapping, source, target),
            ExecutionContext(cache=self.member_cache),
        )
        answer = "YES" if verdict.is_proved else "NO"
        if answer != op.expect["answer"]:
            self.wrong.append(f"membership answered {answer} for {op.klass}")
        add["mappings.parse_ms"].append(parse_ms)
        add["mappings.membership_ms"].append(member_ms)
        return parse_ms + parse_docs_ms + member_ms

    def _delta(self, op: Op, reply: dict, request: str) -> float:
        timed, add = self.tracer.timed, self.samples
        assert self.incremental is not None
        result, update_ms = timed(
            "incremental.update", request, self.incremental.update,
            STREAM_NAME, op.request["mapping"],
        )
        wrong = [
            label for label, verdict in result.verdicts.items()
            if _verdict(verdict) != op.expect["verdicts"]
        ]
        if wrong:
            self.wrong.append(f"incremental update answered wrong on {wrong}")
        mapping = parse_mapping(op.request["mapping"])
        context = ExecutionContext(cache=self.incremental.cache)
        report, lint_ms = timed(
            "analysis.lint", request, lint_mapping, mapping, context
        )
        __, hygiene_ms = timed(
            "analysis.hygiene", request, lint_mapping, mapping, context,
            only=["hygiene"],
        )
        add["incremental.update_ms"].append(update_ms)
        add["analysis.lint_ms"].append(lint_ms)
        add["analysis.hygiene_ms"].append(hygiene_ms)
        add["analysis.diagnostics_per_mapping"].append(len(report.diagnostics))
        counts = reply["incremental"]
        touched = counts["reused"] + counts["recompiled"]
        if touched:
            add["incremental.reuse_ratio"].append(counts["reused"] / touched)
        add["incremental.invalidated_per_edit"].append(
            counts["invalidated"]["artifacts"] + counts["invalidated"]["results"]
        )
        return update_ms


def summarize(samples: dict[str, list[float]]) -> dict[str, tuple[float, int]]:
    """Median (time) or mean (count) of each layer metric, with its count.

    A layer the workload never reaches reads 0 over 0 samples.
    """
    summary = {}
    for name in PER_LAYER:
        values = samples.get(name, [])
        if not values:
            summary[name] = (0.0, 0)
        elif PER_LAYER[name][0] == "ms":
            summary[name] = (statistics.median(values), len(values))
        else:
            summary[name] = (statistics.fmean(values), len(values))
    return summary
