"""Differential tests: the production kernels against explicit oracles.

Production builds only the bitset automata; the pure automata and the
brute-force enumerators are the semantic reference (DESIGN.md §7).
Each test builds its reference explicitly:

* consistency verdicts over random structural mappings are checked
  against the bounded brute-force ``oracle_is_consistent``, and every
  witness pair must be a solution of the mapping;
* satisfiability decisions and structural witnesses are checked against
  a pure ``DTDAutomaton`` x ``PatternClosureAutomaton`` product;
* ``achievable_sets`` is checked against the table the pure automata
  realize (``oracle_achievable_sets``);
* the compact (array-backed) pattern engine must produce the same
  relations as the object engine on random documents;
* the worklist ``reachable_states`` must realize the same states as the
  round-based ``reachable_states_naive`` it replaced.
"""

import random

import pytest

from repro.automata.dtd_automaton import DTDAutomaton
from repro.automata.duta import ProductAutomaton, find_accepted, run
from repro.automata.pattern_automaton import PatternClosureAutomaton
from repro.consistency import is_consistent_automata
from repro.engine import CompilationCache, ExecutionContext
from repro.errors import SignatureError
from repro.mappings.mapping import SchemaMapping
from repro.mappings.membership import is_solution
from repro.mappings.std import STD
from repro.patterns.compact import CompactPatternEngine
from repro.patterns.matching import PatternEngine
from repro.patterns.satisfiability import is_satisfiable, structural_witness
from repro.verification.oracle import oracle_achievable_sets, oracle_is_consistent
from repro.workloads.random_instances import (
    abstract_pattern_from_tree,
    random_arbitrary_dtd,
    random_tree_from_dtd,
)


def random_structural_mapping(rng: random.Random) -> SchemaMapping:
    source_dtd = random_arbitrary_dtd(
        rng, n_labels=4, max_arity=1, root="r", label_prefix="s"
    )
    target_dtd = random_arbitrary_dtd(
        rng, n_labels=4, max_arity=1, root="t", label_prefix="t"
    )
    stds = []
    for __ in range(rng.randint(1, 2)):
        source_pattern = abstract_pattern_from_tree(
            rng, random_tree_from_dtd(source_dtd, rng, max_nodes=5)
        )
        if rng.random() < 0.8:
            target_pattern = abstract_pattern_from_tree(
                rng, random_tree_from_dtd(target_dtd, rng, max_nodes=5)
            )
        else:
            from repro.patterns.parser import parse_pattern

            target_pattern = parse_pattern("t[zzz_nowhere]")
        stds.append(STD(source_pattern, target_pattern))
    return SchemaMapping(source_dtd, target_dtd, stds)


@pytest.mark.parametrize("seed", range(20))
def test_consistency_verdicts_agree_across_kernels(seed):
    rng = random.Random(1000 + seed)
    mapping = random_structural_mapping(rng)
    context = ExecutionContext(cache=CompilationCache())
    try:
        verdict = is_consistent_automata(mapping, context)
    except SignatureError:
        return  # out of the structural fragment
    # a single value suffices without comparisons; the oracle is bounded,
    # so it can confirm consistency but never refute it
    oracle = oracle_is_consistent(
        mapping, max_source_size=4, max_target_size=4, domain=(0,)
    )
    if oracle:
        assert verdict.is_proved, "oracle found a witness the automata missed"
    if verdict.is_proved:
        source, target = verdict.certificate.source, verdict.certificate.target
        assert is_solution(mapping, source, target), (
            f"witness rejected: {source!r} -> {target!r}"
        )
        if source.size <= 4 and target.size <= 4:
            assert oracle, "a witness within the oracle's bounds was missed"


def pure_automata(dtd, patterns, extra):
    """The reference automata pair: pure DTD and closure automata."""
    conformance = DTDAutomaton(dtd, extra)
    closure = PatternClosureAutomaton(
        patterns, extra_labels=dtd.labels | extra, arity_of=dtd.arity
    )
    return conformance, closure


def pure_structural_witness(dtd, pattern):
    """The reference: a pure DTD x closure product, found from scratch."""
    conformance, closure = pure_automata(
        dtd, [pattern], frozenset(pattern.labels_used())
    )
    product = ProductAutomaton(
        [conformance, closure],
        predicate=lambda state: (
            conformance.is_accepting(state[0])
            and closure.satisfies(state[1], pattern)
        ),
    )
    found = find_accepted(
        product, prune=lambda state: not conformance.state_ok(state[0])
    )
    return None if found is None else found[1]


@pytest.mark.parametrize("seed", range(20))
def test_satisfiability_agrees_across_kernels(seed):
    rng = random.Random(2000 + seed)
    dtd = random_arbitrary_dtd(rng)
    own = abstract_pattern_from_tree(
        rng, random_tree_from_dtd(dtd, rng, max_nodes=6)
    )
    # a pattern drawn from another DTD over the same labels: satisfiable
    # against *dtd* or not, depending on the draw
    foreign = abstract_pattern_from_tree(
        rng, random_tree_from_dtd(random_arbitrary_dtd(rng), rng, max_nodes=6)
    )
    for pattern in (own, foreign):
        context = ExecutionContext(cache=CompilationCache())
        reference = pure_structural_witness(dtd, pattern)
        witness = structural_witness(dtd, pattern, context=context)
        assert (witness is None) == (reference is None), pattern
        if pattern is own:  # drawn from a tree of dtd: always matches
            assert reference is not None
        # abstracted patterns carry no constants: structural = decision
        assert is_satisfiable(dtd, pattern, context=context).is_proved == (
            reference is not None
        )
        if witness is None:
            continue
        # the production witness must be accepted by the pure product
        conformance, closure = pure_automata(
            dtd, [pattern], frozenset(pattern.labels_used())
        )
        state = run(ProductAutomaton([conformance, closure]), witness)
        assert conformance.is_accepting(state[0])
        assert closure.satisfies(state[1], pattern)
        assert dtd.conforms(conformance.decorate(witness))


@pytest.mark.parametrize("seed", range(10))
def test_achievable_sets_match_the_pure_automata(seed):
    from repro.engine.cache import achievable_sets

    rng = random.Random(6000 + seed)
    mapping = random_structural_mapping(rng)
    context = ExecutionContext(cache=CompilationCache())
    for dtd, patterns in (
        (mapping.source_dtd, [std.source for std in mapping.stds]),
        (mapping.target_dtd, [std.target for std in mapping.stds]),
    ):
        extra = frozenset(
            label for pattern in patterns for label in pattern.labels_used()
        )
        production = achievable_sets(dtd, patterns, extra, context=context)
        reference = oracle_achievable_sets(dtd, patterns, extra)
        assert production.keys() == reference.keys()
        # every production witness realizes its trigger set on the pure side
        conformance, closure = pure_automata(dtd, patterns, extra)
        product = ProductAutomaton([conformance, closure])
        for triggered, witness in production.items():
            state = run(product, witness)
            assert conformance.is_accepting(state[0])
            assert closure.trigger_set(state[1]) == triggered


def random_document(rng: random.Random) -> "TreeNode":
    from repro.xmlmodel.tree import TreeNode

    labels = ["a", "b", "c", "d"]

    def build(depth: int) -> TreeNode:
        label = rng.choice(labels)
        attrs = tuple(str(rng.randint(0, 3)) for __ in range(rng.randint(0, 2)))
        children = ()
        if depth > 0:
            children = tuple(
                build(depth - 1) for __ in range(rng.randint(0, 3))
            )
        return TreeNode(label, attrs, children)

    return TreeNode(
        "r", (), tuple(build(3) for __ in range(rng.randint(1, 4)))
    )


@pytest.mark.parametrize("seed", range(15))
def test_compact_engine_matches_object_engine(seed):
    from repro.patterns.parser import parse_pattern

    rng = random.Random(3000 + seed)
    root = random_document(rng)
    object_engine = PatternEngine(root)
    compact_engine = CompactPatternEngine(root)
    sources = [
        "r//a",
        "r[a -> b]",
        "r//a(x)[b(x)]",
        "r//_(x,y)",
        "r[a ->* c]//b(x)",
        "r//a[b(x) -> c(x)]",
        "r//a[//b(x,y)]",
        'r//a("1",x)',
    ]
    patterns = [parse_pattern(s) for s in sources] + [
        abstract_pattern_from_tree(rng, root) for __ in range(3)
    ]
    for pattern in patterns:
        assert object_engine.relation_at_root(pattern) == (
            compact_engine.relation_at_root(pattern)
        ), f"relation mismatch for {pattern}"
        assert object_engine.match_anywhere(pattern) == (
            compact_engine.match_anywhere(pattern)
        ), f"anywhere mismatch for {pattern}"
        assert object_engine.exists_at_root(pattern) == (
            compact_engine.exists_at_root(pattern)
        )
        assert object_engine.exists_anywhere(pattern) == (
            compact_engine.exists_anywhere(pattern)
        )


@pytest.mark.parametrize("seed", range(10))
def test_worklist_reachability_matches_naive(seed):
    from repro.automata.dtd_automaton import DTDAutomaton
    from repro.automata.duta import reachable_states, reachable_states_naive, run

    rng = random.Random(4000 + seed)
    automaton = DTDAutomaton(random_arbitrary_dtd(rng, n_labels=5))
    fast = reachable_states(automaton)
    slow = reachable_states_naive(automaton)
    assert fast.keys() == slow.keys()
    for state, witness in fast.items():
        assert run(automaton, witness) == state


def test_engine_for_selects_compact_above_threshold():
    from repro.kernel import AUTO_THRESHOLDS
    from repro.patterns.matching import engine_for
    from repro.xmlmodel.tree import TreeNode

    small = TreeNode("r", (), (TreeNode("a", (), ()),))
    assert type(engine_for(small)) is PatternEngine

    n = AUTO_THRESHOLDS["pattern-engine"]
    just_below = TreeNode("r", (), tuple(TreeNode("a", (), ()) for __ in range(n - 2)))
    assert type(engine_for(just_below)) is PatternEngine
    big = TreeNode("r", (), tuple(TreeNode("a", (), ()) for __ in range(n)))
    assert type(engine_for(big)) is CompactPatternEngine
