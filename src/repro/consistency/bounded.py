"""Bounded consistency search for mappings with data comparisons.

For ``SM(⇓, ∼)`` over nested-relational DTDs the paper proves
NEXPTIME-completeness (Theorem 5.5): a consistent mapping has a witness of
at most exponential size, found by guess-and-check.  For the classes with
both horizontal axes and comparisons the problem is undecidable
(Theorem 5.4), so *no* terminating complete procedure exists.

This module implements the guess-and-check directly: enumerate source
trees up to a size bound over a finite value domain, and for each search
for a bounded solution.  The procedure is

* **sound**: a returned witness pair really is in ``[[M]]``;
* **complete up to its bounds**: ``None`` means no witness within the
  bounds, which refutes consistency only if the caller knows a witness
  would have to fit (the undecidable classes never get that guarantee —
  this is exactly the semi-decision procedure the theory allows).

The value domain is the mapping's constants plus ``max-variables + 1``
fresh values: a single std can distinguish at most as many values as it
has variables, so per-std this domain is exhaustive; extra distinct values
never help the source side trigger fewer stds.
"""

from __future__ import annotations

from typing import Callable

from repro.engine.budget import ExecutionContext, resolve_budget, resolve_context
from repro.engine.verdicts import Proved, Unknown, Verdict, WitnessPair
from repro.mappings.mapping import SchemaMapping
from repro.mappings.membership import SolutionChecker
from repro.mappings.skolem import SkolemSolutionChecker
from repro.values import Const
from repro.verification.enumeration import enumerate_trees, max_tree_size
from repro.xmlmodel.tree import TreeNode


def mapping_constants(mapping: SchemaMapping) -> list[object]:
    """All constants appearing in patterns or comparisons, deduplicated."""
    constants: dict[object, None] = {}
    for std in mapping.stds:
        for pattern in (std.source, std.target):
            for term in pattern.terms():
                if isinstance(term, Const):
                    constants.setdefault(term.value, None)
        for comparison in std.source_conditions + std.target_conditions:
            for term in (comparison.left, comparison.right):
                if isinstance(term, Const):
                    constants.setdefault(term.value, None)
    return list(constants)


def _max_variables(mapping: SchemaMapping) -> int:
    counts = [
        len(set(std.source_variables()) | set(std.target_variables()))
        for std in mapping.stds
    ]
    return max(counts, default=0)


def default_value_domain(mapping: SchemaMapping) -> tuple:
    """Constants plus ``max-variables + 1`` fresh values."""
    fresh = tuple(f"#v{i}" for i in range(_max_variables(mapping) + 1))
    return tuple(mapping_constants(mapping)) + fresh


def exhaustive_fresh_values(
    mapping: SchemaMapping, max_target_size: int
) -> int | None:
    """Fresh values a bounded target search needs to be exhaustive.

    If every conforming target tree fits *max_target_size*, the trees over
    the source's values, the constants and one fresh value per target
    attribute slot hold every solution up to value renaming; returns that
    slot count, or None when some conforming target tree is too big.
    """
    dtd = mapping.target_dtd
    nodes = max_tree_size(dtd)
    if nodes > max_target_size:
        return None
    widest = max((dtd.arity(label) for label in dtd.labels), default=0)
    return int(max(nodes, 0)) * widest


def find_consistency_witness_bounded(
    mapping: SchemaMapping,
    max_source_size: int | None = None,
    max_target_size: int | None = None,
    value_domain: tuple | None = None,
    skolem: bool = False,
    on_candidate: Callable[[TreeNode], None] | None = None,
    context: ExecutionContext | None = None,
) -> tuple[TreeNode, TreeNode] | None:
    """Search for ``(T, T') ∈ [[M]]`` within the size bounds.

    Bounds default to the context's :class:`~repro.engine.budget.Budget`.
    *on_candidate* is called on every source tree tried (used by the
    benchmarks to report search effort).
    """
    budget = resolve_budget(context)
    context = resolve_context(context)
    if max_source_size is None:
        max_source_size = budget.max_source_size
    if max_target_size is None:
        max_target_size = budget.max_target_size
    if value_domain is None:
        value_domain = default_value_domain(mapping)
    make_checker = SkolemSolutionChecker if skolem else SolutionChecker
    for source in enumerate_trees(mapping.source_dtd, max_source_size, value_domain):
        if context is not None:
            context.charge()
        if on_candidate is not None:
            on_candidate(source)
        # the source side is fixed across the inner loop: compute its
        # triggered obligations once, then semi-join each candidate target
        checker = make_checker(mapping, source)
        for target in enumerate_trees(
            mapping.target_dtd, max_target_size, value_domain
        ):
            if context is not None:
                context.charge()
            if checker.is_solution_for(target, check_conformance=False):
                return source, target
    return None


def is_consistent_bounded(
    mapping: SchemaMapping,
    max_source_size: int | None = None,
    max_target_size: int | None = None,
    value_domain: tuple | None = None,
    skolem: bool = False,
    context: ExecutionContext | None = None,
) -> Verdict:
    """``Proved`` with a witness pair, or ``Unknown`` when the bounds are out.

    The search is sound but complete only up to its bounds (module doc),
    so exhausting them yields ``Unknown`` — never a refutation.
    """
    witness = find_consistency_witness_bounded(
        mapping, max_source_size, max_target_size, value_domain, skolem,
        context=context,
    )
    if witness is not None:
        return Proved(WitnessPair(*witness))
    return Unknown(
        "no witness within the search bounds; the class admits no complete "
        "procedure (Theorem 5.4)",
        bound_exhausted=True,
    )
