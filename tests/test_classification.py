"""The one per-mapping classification and the routes that read it.

``repro.analysis.fragment.classify`` is built once per mapping and every
consumer — the ``predict_*`` functions, the engine's routes, the linter
and the solvers' class preconditions — reads it.  These tests pin the
memoization, the ABSCONS routing from its prediction (with its single
dynamic fallback), and the soundness rule of the bounded ABSCONS
refutation.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.engine as engine_api
from repro.analysis import fragment, lint_mapping
from repro.engine import (
    AbsoluteConsistencyProblem,
    Budget,
    CertificationError,
    CompilationCache,
    ConsistencyProblem,
    Counterexample,
    ExecutionContext,
    Refuted,
    certify,
    solve,
)
from repro.mappings.io import parse_mapping, render_mapping
from repro.mappings.mapping import SchemaMapping
from repro.mappings.std import STD, Comparison
from repro.service import EngineSession
from repro.verification.enumeration import max_tree_size
from repro.workloads.families import (
    abscons_ptime_family,
    abscons_wildcard_family,
    cons_nested_family,
)
from repro.workloads.random_instances import (
    abstract_pattern_from_tree,
    random_arbitrary_dtd,
    random_fully_specified_mapping,
    random_tree_from_dtd,
)
from repro.xmlmodel.dtd import DTD, parse_dtd
from repro.xmlmodel.parser import parse_tree


def mk(source, target, stds):
    return SchemaMapping.parse(source, target, stds)


#: Absolutely consistent, yet no source with three distinct values has a
#: solution of at most six target nodes (it needs seven).
WIDE_SOLUTION = mk(
    "r -> a*\na(v)",
    "t -> b*, c*\nb(w)\nc(w)",
    ["r[a(x), a(y)], x != y -> t[b(x), c(x), b(y), c(y)]"],
)


# ---------------------------------------------------------------------------
# one classification, built once
# ---------------------------------------------------------------------------


class TestMemoizedClassification:
    def test_one_build_for_two_solves_and_a_lint(self, monkeypatch):
        builds = []
        real_build = fragment._build_classification

        def spy(mapping, context):
            builds.append(mapping)
            return real_build(mapping, context)

        monkeypatch.setattr(fragment, "_build_classification", spy)
        mapping = abscons_ptime_family(2)
        solve(ConsistencyProblem(mapping))
        solve(AbsoluteConsistencyProblem(mapping))
        lint_mapping(mapping)
        assert builds == [mapping]

    def test_warm_requests_walk_no_dtd(self, monkeypatch):
        texts = [
            render_mapping(family(n, consistent))
            for family in (cons_nested_family, abscons_ptime_family)
            for n in (2, 3)
            for consistent in (True, False)
        ]
        session = EngineSession()
        for text in texts:  # warm the session cache
            assert session.check({"mappings": [text]})["ok"]
        walks = []
        for name in ("is_nested_relational", "is_recursive"):
            real = getattr(DTD, name)

            def counted(self, real=real, name=name):
                walks.append(name)
                return real(self)

            monkeypatch.setattr(DTD, name, counted)
        for text in texts:
            assert session.check({"mappings": [text]})["ok"]
        assert walks == []

    def test_mapping_is_nested_relational_reads_the_classification(self):
        mapping = cons_nested_family(2)
        facts = fragment.classify(mapping)
        assert mapping.is_nested_relational() is facts.nested_relational is True

    def test_solvers_read_the_same_classification(self):
        mapping = abscons_ptime_family(2)
        facts = fragment.classify(mapping)
        verdict = solve(AbsoluteConsistencyProblem(mapping))
        assert fragment.classify(mapping) is facts
        assert verdict.report.algorithm == facts.abscons.algorithm

    def test_engine_exports_no_duplicate_predicates(self):
        for name in ("uses_constants", "nested_ptime_applicable"):
            assert not hasattr(engine_api, name)
            assert name not in engine_api.__all__


# ---------------------------------------------------------------------------
# ABSCONS routing and the bounded refutation rule
# ---------------------------------------------------------------------------


class TestAbsconsRouting:
    def test_expansion_overflow_falls_back_to_bounded(self):
        mapping = abscons_wildcard_family(3)
        assert fragment.predict_abscons(mapping).algorithm == "abscons-expansion"
        context = ExecutionContext(
            Budget.default().with_(
                expansion_limit=1, max_source_size=4, max_target_size=4
            ),
            cache=CompilationCache(),
        )
        verdict = solve(AbsoluteConsistencyProblem(mapping), context)
        assert verdict.report.algorithm == "abscons-bounded"
        assert verdict.report.reason.startswith(
            "predicted abscons-expansion exceeded its budget"
        )
        # the mapping is absolutely consistent: no unsound refutation
        assert verdict.is_unknown and verdict.bound_exhausted

    def test_small_target_bound_is_not_a_refutation(self):
        verdict = solve(AbsoluteConsistencyProblem(WIDE_SOLUTION))
        assert verdict.report.algorithm == "abscons-bounded"
        assert verdict.is_unknown and verdict.bound_exhausted
        # the candidate source is named
        assert 'r[a("#v0"), a("#v1"), a("#v2")]' in verdict.reason

    def test_certify_rejects_a_non_exhaustive_counterexample(self):
        forged = Refuted(
            Counterexample(parse_tree('r[a("#v0"), a("#v1"), a("#v2")]'))
        )
        forged.problem = AbsoluteConsistencyProblem(WIDE_SOLUTION)
        with pytest.raises(CertificationError, match="exhaustive"):
            certify(forged)

    def test_sm0_refutation_certifies_over_an_unbounded_target(self):
        mapping = mk("r -> a+", "t -> b*", ["r[a] -> t[zzz]"]).strip_values()
        verdict = solve(AbsoluteConsistencyProblem(mapping))
        assert verdict.report.algorithm == "abscons-sm0"
        assert verdict.is_refuted and certify(verdict)
        solvable = mk("r -> a*", "t -> b*", ["r[a] -> t[b]"]).strip_values()
        forged = Refuted(Counterexample(parse_tree("r[a]")))
        forged.problem = AbsoluteConsistencyProblem(solvable)
        with pytest.raises(CertificationError):
            certify(forged)

    def test_exhaustive_bounded_refutation_certifies(self):
        # the wildcard target keeps the mapping out of every exact class;
        # t -> b? has finitely many trees, all inside the target bound
        mapping = mk("r -> a*\na(v)", "t -> b?\nb(w)", ["r[a(x)] -> t[_(x)]"])
        verdict = solve(AbsoluteConsistencyProblem(mapping))
        assert verdict.report.algorithm == "abscons-bounded"
        assert verdict.is_refuted
        source = verdict.certificate.source
        assert len(source.adom()) == 2
        assert certify(verdict)


@pytest.mark.parametrize(
    "text, size",
    [
        ("r -> a?, b\na(x, y)\nb(z)", 3),
        ("r -> a | b, c\na(x)\nb -> d\nd(y)", 4),
        ("r -> a*", float("inf")),
        ("r -> a?\na -> empty", 1),
        ("r -> eps*", 1),
        ("r -> a\na -> empty", float("-inf")),
        ("r -> a\na -> b?\nb -> a", float("inf")),
    ],
)
def test_max_tree_size(text, size):
    assert max_tree_size(parse_dtd(text)) == size


# ---------------------------------------------------------------------------
# property: the prediction is the route, and it survives a round trip
# ---------------------------------------------------------------------------


def _structural_mapping(rng: random.Random) -> SchemaMapping:
    source = random_arbitrary_dtd(rng, n_labels=3, max_arity=1,
                                  root="r", label_prefix="s")
    target = random_arbitrary_dtd(rng, n_labels=3, max_arity=1,
                                  root="t", label_prefix="t")
    stds = [
        STD(
            abstract_pattern_from_tree(
                rng, random_tree_from_dtd(source, rng, max_nodes=4)
            ),
            abstract_pattern_from_tree(
                rng, random_tree_from_dtd(target, rng, max_nodes=4)
            ),
        )
        for __ in range(rng.randint(1, 2))
    ]
    return SchemaMapping(source, target, stds)


def _with_comparison(mapping: SchemaMapping) -> SchemaMapping:
    """*mapping* with ``x != x'`` on the first std with two source variables."""
    stds = list(mapping.stds)
    for index, std in enumerate(stds):
        variables = std.source_variables()
        if len(variables) >= 2:
            stds[index] = dataclasses.replace(
                std,
                source_conditions=(Comparison(variables[0], "!=", variables[1]),),
            )
            break
    return SchemaMapping(mapping.source_dtd, mapping.target_dtd, stds)


def _random_mapping(seed: int) -> SchemaMapping:
    rng = random.Random(seed)
    if rng.random() < 0.5:
        mapping = random_fully_specified_mapping(
            rng, n_stds=2, source_labels=3, target_labels=3
        )
    else:
        mapping = _structural_mapping(rng)
    roll = rng.random()
    if roll < 0.25:
        return mapping.strip_values()
    return _with_comparison(mapping) if roll < 0.5 else mapping


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_solve_selects_the_predicted_algorithm(seed):
    mapping = _random_mapping(seed)
    context = ExecutionContext(
        Budget.default().with_(
            max_source_size=3, max_target_size=3, max_expansions=2_000
        ),
        cache=CompilationCache(),
    )
    for problem, predicted in (
        (ConsistencyProblem(mapping), fragment.predict_consistency(mapping)),
        (AbsoluteConsistencyProblem(mapping), fragment.predict_abscons(mapping)),
    ):
        report = solve(problem, context).report
        fallback = (
            predicted.algorithm == "abscons-expansion"
            and report.algorithm == "abscons-bounded"
            and report.reason.startswith("predicted abscons-expansion exceeded")
        )
        assert report.algorithm == predicted.algorithm or fallback
        if report.algorithm == predicted.algorithm:
            assert report.reason == predicted.reason


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_round_trip_classifies_identically(seed):
    mapping = _random_mapping(seed)
    copy = parse_mapping(render_mapping(mapping))
    assert copy is not mapping
    assert fragment.classify(copy) == fragment.classify(mapping)
