"""Document-scale ladder — ``BENCH_scale.json``.

Three ladders:

* **document ladder** — trees of 10^3..10^6 nodes; per size, one
  mapping-membership decision (``is_solution`` over flat documents) and
  one pattern-evaluation pass (fresh engine build + a selective
  ``find_matches`` + a sequence-existence query), each under **both**
  pattern engines, built directly: the object ``PatternEngine``
  (production below the 32768-node cutover of :mod:`repro.kernel`) and
  the array-backed ``CompactPatternEngine`` (production above it);
* **F1.1 ladder** — the EXPTIME consistency family ``n = 1..6``, decided
  by production with a fresh compilation cache per sample;
* **F1.1 reachability** — the achievable trigger-set pass of the same
  family on both automata pairs: the bitset automata production builds
  and the pure oracle automata (``oracle_achievable_sets``), journaling
  the bitset speedup at the top of the ladder (acceptance bar: >= 5x at
  ``n = 6``).

``--smoke`` runs a reduced ladder and doubles as the **equivalence
gate**, production against explicit oracles: both pattern engines must
give identical membership verdicts (the known answer: the documents are
solutions) and match relations, the production trigger-set tables must
equal the pure-automata tables, and F1.1 verdicts must equal the
family's known answer with certifying witnesses.  Exits non-zero on any
mismatch.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

if True:  # make both `pytest benchmarks` and direct execution work
    _here = Path(__file__).resolve().parent
    for entry in (_here, _here.parent / "src"):
        if str(entry) not in sys.path:
            sys.path.insert(0, str(entry))

from harness import emit_json, print_table, series_payload, sweep

from repro.consistency import is_consistent_automata
from repro.engine import CompilationCache, ExecutionContext
from repro.engine.cache import achievable_sets
from repro.mappings.membership import is_solution
from repro.patterns.compact import CompactPatternEngine
from repro.patterns.matching import PatternEngine
from repro.patterns.parser import parse_pattern
from repro.verification.oracle import oracle_achievable_sets
from repro.workloads.families import (
    cons_arbitrary_family,
    flat_document,
    membership_mapping,
    target_document,
)
from repro.xmlmodel.tree import TreeNode

#: The two pattern engines, built directly (no size cutover).
ENGINES = {"object": PatternEngine, "compact": CompactPatternEngine}

#: Document ladder (node counts, approximate: + root / group framing).
FULL_SIZES = [1_000, 10_000, 100_000, 1_000_000]
SMOKE_SIZES = [1_000, 10_000]

#: F1.1 consistency ladder (number of disjunctive choices).
FULL_CHOICES = range(1, 7)
SMOKE_CHOICES = range(1, 4)

#: Acceptance bar for the bitset automata at the top of the F1.1 ladder.
SPEEDUP_BAR = 5.0

#: Selective pattern (constant access path) and sequence-existence
#: pattern for the document ladder; see :func:`grouped_document`.
FIND_PATTERN = 'r//group(g)[item(g,"7")]'
EXISTS_PATTERN = "r//group(g)[item(g,x) -> item(g,y)]"

#: Full-enumeration pattern: one valuation per distinct (group, payload)
#: pair — the shape the vectorized ``find_matches`` materialization serves.
ENUM_PATTERN = "r//item(g, v)"


def grouped_document(n_nodes: int, fanout: int = 100) -> TreeNode:
    """A two-level document of about *n_nodes* nodes.

    ``r`` over ``n/fanout`` groups of *fanout* items; every item carries
    its group id plus a small cyclic payload, so patterns joining on the
    group id have work to do at every size.
    """
    n_groups = max(1, n_nodes // (fanout + 1))
    return TreeNode(
        "r",
        (),
        tuple(
            TreeNode(
                "group",
                (str(g),),
                tuple(
                    TreeNode("item", (str(g), str(i % 10)), ())
                    for i in range(fanout)
                ),
            )
            for g in range(n_groups)
        ),
    )


def pattern_eval_rows(sizes, engine_class):
    """Fresh engine build + selective find + sequence existence, per size."""
    find_pattern = parse_pattern(FIND_PATTERN)
    exists_pattern = parse_pattern(EXISTS_PATTERN)

    def make(n):
        root = grouped_document(n)

        def action():
            engine = engine_class(root)  # fresh build: the index is part of the cost
            matches = engine.find_matches(find_pattern)
            found = engine.exists_anywhere(exists_pattern)
            return (type(engine).__name__, len(matches), found)

        return action

    return sweep(sizes, make)


def membership_rows(sizes, engine_class):
    """One mapping-membership decision per document size.

    ``is_solution`` evaluates through each tree's cached engine, so
    installing a fresh *engine_class* engine on both roots pins it.
    """
    mapping = membership_mapping(1)

    def make(n):
        source, target = flat_document(n), target_document(n)

        def action():
            source._engine = engine_class(source)
            target._engine = engine_class(target)
            return is_solution(mapping, source, target)

        return action

    return sweep(sizes, make)


def consistency_rows(choices):
    """The F1.1 EXPTIME family, decided with a fresh compilation cache."""

    def make(n):
        mapping = cons_arbitrary_family(n)

        def action():
            context = ExecutionContext(cache=CompilationCache())
            return is_consistent_automata(mapping, context)

        return action

    return sweep(choices, make)


def trigger_set_problems(mapping) -> list[tuple]:
    """The two ``achievable_sets`` calls the automata decision makes."""
    extra = frozenset(
        label
        for std in mapping.stds
        for pattern in (std.source, std.target)
        for label in pattern.labels_used()
    )
    return [
        (mapping.source_dtd, tuple(std.source for std in mapping.stds), extra),
        (mapping.target_dtd, tuple(std.target for std in mapping.stds), extra),
    ]


def production_tables(mapping) -> list[dict]:
    """The production (bitset) trigger-set tables, compiled fresh."""
    context = ExecutionContext(cache=CompilationCache())
    return [
        achievable_sets(dtd, patterns, extra, context=context)
        for dtd, patterns, extra in trigger_set_problems(mapping)
    ]


def oracle_tables(mapping) -> list[dict]:
    """The same tables on the pure oracle automata."""
    return [
        oracle_achievable_sets(dtd, patterns, extra)
        for dtd, patterns, extra in trigger_set_problems(mapping)
    ]


#: The F1.1 reachability arms: production bitset automata vs pure oracle.
AUTOMATA = {"bitset": production_tables, "pure": oracle_tables}


def reachability_rows(choices, tables):
    """The F1.1 achievable trigger-set pass (both sides) per ladder point."""

    def make(n):
        mapping = cons_arbitrary_family(n)

        def action():
            return sum(len(table) for table in tables(mapping))

        return action

    return sweep(choices, make)


def materialization_record(sizes) -> dict:
    """Full-enumeration ``find_matches``: vectorized vs generic path.

    Both arms pay a fresh compact-engine build and the candidate scan;
    the vectorized arm materializes result dicts straight off the index
    arrays, the generic arm runs the frozenset relation algebra and
    converts per row.  The journaled delta is the per-size speedup of
    the shipped path over the pre-vectorization one.
    """
    pattern = parse_pattern(ENUM_PATTERN)
    points = []
    for n in sizes:
        root = grouped_document(n)
        arms: dict[str, float] = {}
        matches = 0
        for arm in ("vectorized", "generic"):
            best = float("inf")
            for __ in range(3):
                engine = CompactPatternEngine(root)
                started = time.perf_counter()
                if arm == "vectorized":
                    result = engine.find_matches(pattern)
                else:  # the pre-vectorization materialization
                    result = list(map(dict, engine.match_at(0, pattern)))
                best = min(best, time.perf_counter() - started)
            arms[arm] = best
            matches = len(result)
        speedup = arms["generic"] / arms["vectorized"] if arms["vectorized"] else 0.0
        points.append({
            "n": n,
            "matches": matches,
            "vectorized_seconds": arms["vectorized"],
            "generic_seconds": arms["generic"],
            "speedup": speedup,
        })
        print(
            f"[scale-materialize] n={n}: {matches} matches, "
            f"vectorized {arms['vectorized']:.4f}s vs generic "
            f"{arms['generic']:.4f}s ({speedup:.2f}x)"
        )
    return {
        "claim": "vectorized full-enumeration find_matches materialization",
        "note": "fresh compact engine per sample; generic arm = relation "
                "algebra + per-row dict conversion",
        "pattern": ENUM_PATTERN,
        "points": points,
    }


def run_ladders(sizes, choices) -> tuple[dict, float]:
    """All ladders; returns (records, F1.1 reachability speedup)."""
    records: dict[str, dict] = {}
    for name, engine_class in ENGINES.items():
        rows = membership_rows(sizes, engine_class)
        print_table(
            f"scale-membership[{name}]",
            "mapping membership at document scale (DLOGSPACE data complexity)",
            rows,
            size_label="|T|",
            note=f"engine={engine_class.__name__}; fresh engines per sample",
        )
        records[f"membership/{name}"] = series_payload(
            rows,
            claim="mapping membership at document scale",
            note="fresh pattern engines per sample",
            engine=engine_class.__name__,
            size_label="|T|",
        )

        rows = pattern_eval_rows(sizes, engine_class)
        print_table(
            f"scale-pattern[{name}]",
            "pattern evaluation at document scale (engine build + queries)",
            rows,
            size_label="nodes",
            note=f"engine={engine_class.__name__}; selective find_matches "
            "+ sequence existence",
        )
        records[f"pattern-eval/{name}"] = series_payload(
            rows,
            claim="pattern evaluation at document scale",
            note="fresh engine build + selective find_matches + sequence existence",
            engine=engine_class.__name__,
            size_label="nodes",
        )

    rows = consistency_rows(choices)
    print_table(
        "scale-F1.1",
        "CONS(⇓) arbitrary DTDs: EXPTIME-complete",
        rows,
        size_label="choices",
        note="production automata; fresh compilation cache per sample",
    )
    records["F1.1"] = series_payload(
        rows,
        claim="CONS(⇓) arbitrary DTDs, decided end to end",
        note="fresh compilation cache per sample",
        size_label="choices",
    )

    f11_top: dict[str, float] = {}
    for name, tables in AUTOMATA.items():
        rows = reachability_rows(choices, tables)
        print_table(
            f"scale-F1.1-reachability[{name}]",
            "F1.1 achievable trigger sets (source + target product pass)",
            rows,
            size_label="choices",
            note=f"automata={name}; uncached",
        )
        records[f"F1.1-reachability/{name}"] = series_payload(
            rows,
            claim="F1.1 achievable trigger-set tables",
            note="source + target product pass, built fresh per sample",
            automata=name,
            size_label="choices",
        )
        f11_top[name] = rows[-1].seconds

    records["find-matches-materialization"] = materialization_record(sizes)

    pure, bitset = f11_top["pure"], f11_top["bitset"]
    speedup = pure / bitset if bitset > 0 else float("inf")
    records["F1.1-speedup"] = {
        "claim": f"bitset automata >= {SPEEDUP_BAR}x over the pure oracle "
        "automata on the F1.1 reachability pass at the ladder top",
        "n": max(choices),
        "pure_seconds": pure,
        "bitset_seconds": bitset,
        "speedup": speedup,
    }
    print()
    print(
        f"[scale-F1.1] reachability speedup at n={max(choices)}: {speedup:.2f}x "
        f"(pure {pure:.3f}s / bitset {bitset:.3f}s)"
    )
    return records, speedup


def equivalence_gate(sizes, choices) -> list[str]:
    """Production against the explicit oracles; returns the mismatches."""
    from repro.engine.certify import CertificationError, certify
    from repro.engine.problems import ConsistencyProblem

    errors: list[str] = []

    mapping = membership_mapping(1)
    for n in sizes:
        source, target = flat_document(n), target_document(n)
        for name, engine_class in ENGINES.items():
            source._engine = engine_class(source)
            target._engine = engine_class(target)
            if not is_solution(mapping, source, target).is_proved:
                errors.append(f"membership verdict wrong at |T|={n} ({name})")

    find_pattern = parse_pattern(FIND_PATTERN)
    exists_pattern = parse_pattern(EXISTS_PATTERN)
    enum_pattern = parse_pattern(ENUM_PATTERN)
    for n in sizes:
        root = grouped_document(n)
        results = []
        for engine_class in ENGINES.values():
            engine = engine_class(root)
            results.append((
                engine.relation_at_root(find_pattern),
                engine.exists_anywhere(exists_pattern),
                sorted(
                    sorted((var.name, value) for var, value in match.items())
                    for match in engine.find_matches(enum_pattern)
                ),
            ))
        if results[0] != results[1]:
            errors.append(f"pattern evaluation mismatch at {n} nodes")

    for n in choices:
        for consistent in (True, False):
            mapping = cons_arbitrary_family(n, consistent=consistent)
            tables = production_tables(mapping)
            if [t.keys() for t in tables] != [
                t.keys() for t in oracle_tables(mapping)
            ]:
                errors.append(
                    f"F1.1 trigger sets differ from the pure automata at "
                    f"n={n} consistent={consistent}"
                )
            context = ExecutionContext(cache=CompilationCache())
            verdict = is_consistent_automata(mapping, context)
            if verdict.is_proved != consistent:
                errors.append(
                    f"F1.1 verdict wrong at n={n} consistent={consistent}"
                )
            elif verdict.is_proved:
                try:
                    certify(verdict, ConsistencyProblem(mapping))
                except CertificationError as exc:
                    errors.append(
                        f"F1.1 witness fails certification at n={n}: {exc}"
                    )
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced ladder plus the equivalence gate (CI)",
    )
    args = parser.parse_args(argv)

    sizes = SMOKE_SIZES if args.smoke else FULL_SIZES
    choices = SMOKE_CHOICES if args.smoke else FULL_CHOICES

    started = time.perf_counter()
    records, speedup = run_ladders(sizes, choices)
    if not args.smoke:  # smoke gates only — never clobber the full ladder
        for experiment, payload in records.items():
            emit_json("scale", experiment, payload, meta={"engines": list(ENGINES)})
        print(f"\n[scale] journaled {len(records)} records to BENCH_scale.json "
              f"in {time.perf_counter() - started:.1f}s")

    if args.smoke:
        errors = equivalence_gate(sizes, choices)
        if errors:
            for error in errors:
                print(f"[scale] EQUIVALENCE FAILURE: {error}", file=sys.stderr)
            return 1
        print("[scale] equivalence gate: OK")
    elif speedup < SPEEDUP_BAR:
        print(
            f"[scale] FAILURE: F1.1 reachability speedup {speedup:.2f}x "
            f"below the {SPEEDUP_BAR}x bar",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
