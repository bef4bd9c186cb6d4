"""Fragment classification and Figure 1–2 complexity-cell prediction.

The paper's Figures 1–2 are a routing table: the ``SM(σ)`` fragment and
the DTD class pick each problem's algorithm.  :func:`classify` works it
out once per mapping (memoized on the mapping), and every consumer reads
that one classification: the ``predict_*`` functions, the engine's
routes, the linter's ``fragment_pass`` and the solvers' class
preconditions (:func:`require`) — so the linter cannot drift from the
solver.  The only divergence left is dynamic: ``abscons-expansion`` can
overflow its expansion limit and fall back to ``abscons-bounded``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.engine.cache import DTDClassification, dtd_classification
from repro.errors import SignatureError
from repro.patterns.features import (
    HORIZONTAL,
    INEQUALITY,
    axes_of,
    is_fully_specified,
)
from repro.values import Const

if TYPE_CHECKING:
    from repro.engine.budget import ExecutionContext
    from repro.mappings.mapping import SchemaMapping, Signature


@dataclass(frozen=True)
class CellPrediction:
    """One predicted Figure 1–2 cell.

    ``algorithm`` is the engine route name (``cons-nested``,
    ``abscons-ptime``, ...), ``complexity`` the paper's cell for it, and
    ``exact`` whether the route decides the problem (False = a sound but
    incomplete bounded search, i.e. the undecidable / unpublished
    cells).  ``reason`` is the routing rationale the solve report shows.
    """

    problem: str
    fragment: str
    algorithm: str
    complexity: str
    exact: bool
    reason: str

    @property
    def decidable(self) -> bool:
        """Does the selected route decide the problem outright?"""
        return self.exact

    def describe(self) -> str:
        mode = "exact" if self.exact else "sound but bounded"
        return (
            f"{self.problem} in {self.fragment}: {self.algorithm} — "
            f"{self.complexity} ({mode})"
        )


#: The Figure 1–2 cells, by engine route:
#: ``(problem, complexity, exact, routing reason)``.
_CELLS = {
    "cons-nested": (
        "CONS", "PTIME (Fact 5.1)", True,
        "SM(⇓) over nested-relational DTDs: PTIME via the minimal tree "
        "(Fact 5.1)"),
    "cons-automata": (
        "CONS", "EXPTIME-complete (Theorem 5.2)", True,
        "no data comparisons or constants: exact trigger-set automata "
        "(Theorem 5.2, EXPTIME)"),
    "cons-bounded": (
        "CONS", "undecidable in general (Theorems 5.4/5.5)", False,
        "data comparisons or constants: sound bounded witness search only "
        "(Theorems 5.4/5.5)"),
    "abscons-sm0": (
        "ABSCONS", "EXPTIME (Proposition 6.1)", True,
        "value-free SM° mapping: exact trigger-set coverage (Proposition 6.1)"),
    "abscons-ptime": (
        "ABSCONS", "PTIME (Theorem 6.3)", True,
        "nested-relational + fully specified: exact rigidity analysis "
        "(Theorem 6.3, PTIME)"),
    "abscons-expansion": (
        "ABSCONS", "NEXPTIME (source expansion + Theorem 6.3 analysis)", True,
        "⇓-sources over non-recursive DTDs: exact via source expansion + "
        "rigidity analysis"),
    "abscons-bounded": (
        "ABSCONS", "EXPSPACE upper bound (Theorem 6.2), construction "
        "unpublished", False,
        "outside every exact class: sound bounded refutation (Theorem 6.2 "
        "gives EXPSPACE, construction unpublished)"),
    "membership-skolem": (
        "MEMBERSHIP", "NP combined complexity (Section 8 valuations)", True,
        "Skolem stds: backtracking valuation of the shared unknowns "
        "(Section 8)"),
    "membership": (
        "MEMBERSHIP", "PTIME data complexity, NP-complete combined "
        "(Theorem 4.4)", True,
        "plain stds: conformance plus per-obligation semi-joins "
        "(Definition 3.2)"),
    "composition-exact": (
        "COMPOSITION-MEMBERSHIP", "NP combined complexity via the composed "
        "Skolem mapping (Theorem 8.2)", True,
        "Theorem 8.2 class: membership via the composed Skolem mapping"),
    "composition-bounded": (
        "COMPOSITION-MEMBERSHIP", "NEXPTIME-complete combined complexity "
        "(Theorem 7.2); approximated by a bounded search", False,
        "outside the Theorem 8.2 class: bounded intermediate-tree search "
        "with the finite value abstraction (Section 7.2)"),
    "conscomp-automata": (
        "CONSCOMP", "EXPTIME (Theorem 7.1(1))", True,
        "comparison-free chain: exact staged trigger-set chaining "
        "(Theorem 7.1(1), EXPTIME)"),
    "conscomp-bounded": (
        "CONSCOMP", "undecidable (Theorem 7.1(2))", False,
        "comparisons or constants in the chain: sound bounded witness-chain "
        "search (the problem is undecidable, Theorem 7.1(2))"),
    "pattern-sat": (
        "SAT", "NP-complete (Lemma 4.1), decided exactly", True,
        "closure-automaton reachability with tag lifting (Lemma 4.1)"),
    "separation": (
        "SEPARATION", "EXPTIME (Section 9)", True,
        "joint closure automaton over P+ ∪ P-: conforming root state "
        "containing P+ and avoiding P- (Section 9)"),
}


def require(mapping: "SchemaMapping", fact: str, message: str) -> None:
    """A solver's class precondition: the classification must have *fact*."""
    if not getattr(classify(mapping), fact):
        raise SignatureError(message)


def cell(algorithm: str, fragment: str) -> CellPrediction:
    """The Figure 1–2 cell of the engine route *algorithm*."""
    problem, complexity, exact, reason = _CELLS[algorithm]
    return CellPrediction(problem, fragment, algorithm, complexity, exact, reason)


# ---------------------------------------------------------------------------
# the per-mapping classification (Figure 1's row labels, computed once)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MappingClassification:
    """Every fact the Figure 1–2 routing reads off one mapping: the
    ``SM(σ)`` facts of the stds, the two DTDs' cached classifications,
    the class facts combining them (each defined once, in
    :func:`_build_classification`) and the four cells they predict."""

    signature: "Signature"
    comparisons: bool  # = / ≠: the ∼ features
    constants: bool
    skolem: bool
    fully_specified: bool
    targets_fully_specified: bool
    sm0: bool  # no attribute formulae and no comparisons at all
    sources_expandable: bool  # no sibling order in any source pattern
    source: DTDClassification
    target: DTDClassification
    comparison_free: bool  # no comparisons, no constants: SM(⇓,⇒)
    nested_relational: bool  # both DTDs
    cons_nested: bool  # Fact 5.1: SM(⇓) over nested-relational DTDs
    abscons_ptime: bool  # Theorem 6.3: SM(↓), fully specified, nested-rel.
    composable: bool  # Theorem 8.2: strictly nested-rel., fully spec., no ≠
    cons: CellPrediction
    abscons: CellPrediction
    membership: CellPrediction
    composition_stage: CellPrediction


def _build_classification(
    mapping: "SchemaMapping", context: "ExecutionContext | None"
) -> MappingClassification:
    signature = mapping.signature()
    fragment = str(signature)
    comparisons = mapping.uses_data_comparisons()
    constants = any(
        isinstance(term, Const)
        for std in mapping.stds
        for pattern in (std.source, std.target)
        for term in pattern.terms()
    )
    skolem = mapping.uses_skolem_functions()
    fully_specified = mapping.is_fully_specified()
    targets_fully_specified = all(
        is_fully_specified(std.target) for std in mapping.stds
    )
    sm0 = not comparisons and all(
        sub.vars is None
        for std in mapping.stds
        for pattern in (std.source, std.target)
        for sub in pattern.subpatterns()
    )
    # expansion (repro.consistency.expansion) handles wildcard and
    # descendant sources, not sibling order
    sources_expandable = not any(
        axes.next_sibling or axes.following_sibling
        for axes in (axes_of(std.source) for std in mapping.stds)
    )
    source = dtd_classification(mapping.source_dtd, context)
    target = dtd_classification(mapping.target_dtd, context)
    comparison_free = not comparisons and not constants
    horizontal = bool(signature.features & HORIZONTAL)
    nested = source.nested_relational and target.nested_relational
    cons_nested = comparison_free and not horizontal and nested
    abscons_ptime = comparison_free and fully_specified and nested
    abscons_expansion = (
        comparison_free and nested and targets_fully_specified and sources_expandable
    )
    return MappingClassification(
        signature=signature,
        comparisons=comparisons,
        constants=constants,
        skolem=skolem,
        fully_specified=fully_specified,
        targets_fully_specified=targets_fully_specified,
        sm0=sm0,
        sources_expandable=sources_expandable,
        source=source,
        target=target,
        comparison_free=comparison_free,
        nested_relational=nested,
        cons_nested=cons_nested,
        abscons_ptime=abscons_ptime,
        composable=(
            source.strictly_nested_relational
            and target.strictly_nested_relational
            and fully_specified
            and INEQUALITY not in signature.features
        ),
        cons=cell(
            "cons-nested" if cons_nested
            else "cons-automata" if comparison_free
            else "cons-bounded",
            fragment,
        ),
        abscons=cell(
            "abscons-sm0" if sm0
            else "abscons-ptime" if abscons_ptime
            else "abscons-expansion" if abscons_expansion
            else "abscons-bounded",
            fragment,
        ),
        membership=cell("membership-skolem" if skolem else "membership", fragment),
        composition_stage=cell(
            "conscomp-automata" if comparison_free else "conscomp-bounded",
            fragment,
        ),
    )


def classify(
    mapping: "SchemaMapping", context: "ExecutionContext | None" = None
) -> MappingClassification:
    """The mapping's classification, built on first use and memoized.

    Memoized on the mapping object like
    :meth:`~repro.mappings.mapping.SchemaMapping.signature` (stds and
    DTDs are fixed at construction); *context* only picks the cache the
    two DTD classifications are read through on that first build.
    """
    cached: MappingClassification | None = mapping.__dict__.get("_classification")
    if cached is None:
        cached = _build_classification(mapping, context)
        mapping.__dict__["_classification"] = cached
    return cached


# ---------------------------------------------------------------------------
# per-problem cell prediction
# ---------------------------------------------------------------------------


def predict_consistency(
    mapping: "SchemaMapping", context: "ExecutionContext | None" = None
) -> CellPrediction:
    """The Figure 1 CONS cell the engine will route to."""
    return classify(mapping, context).cons


def predict_abscons(
    mapping: "SchemaMapping", context: "ExecutionContext | None" = None
) -> CellPrediction:
    """The Figure 1 ABSCONS cell the engine will route to."""
    return classify(mapping, context).abscons


def predict_membership(mapping: "SchemaMapping") -> CellPrediction:
    """The Figure 2 membership cell the engine will route to."""
    return classify(mapping).membership


def predict_composition_membership(
    m12: "SchemaMapping", m23: "SchemaMapping"
) -> CellPrediction:
    """The Figure 2 composition-membership cell the engine will route to."""
    first, second = classify(m12), classify(m23)
    exact = first.composable and second.composable
    return cell(
        "composition-exact" if exact else "composition-bounded",
        f"{first.signature} ∘ {second.signature}",
    )


def predict_composition_consistency(
    mappings: tuple["SchemaMapping", ...],
) -> CellPrediction:
    """The CONSCOMP cell (Theorem 7.1) the engine will route to."""
    stages = [classify(mapping) for mapping in mappings]
    if len(stages) == 1:
        return stages[0].composition_stage
    exact = all(stage.comparison_free for stage in stages)
    return cell(
        "conscomp-automata" if exact else "conscomp-bounded",
        " ∘ ".join(str(stage.signature) for stage in stages),
    )


def predict_for_problem(
    problem: Any, context: "ExecutionContext | None" = None
) -> CellPrediction:
    """Dispatch :func:`predict_*` on an engine problem object."""
    from repro.engine.problems import (
        AbsoluteConsistencyProblem,
        CompositionConsistencyProblem,
        CompositionMembershipProblem,
        ConsistencyProblem,
        MembershipProblem,
        SatisfiabilityProblem,
        SeparationProblem,
    )

    if isinstance(problem, ConsistencyProblem):
        return predict_consistency(problem.mapping, context)
    if isinstance(problem, AbsoluteConsistencyProblem):
        return predict_abscons(problem.mapping, context)
    if isinstance(problem, MembershipProblem):
        return predict_membership(problem.mapping)
    if isinstance(problem, CompositionMembershipProblem):
        return predict_composition_membership(problem.m12, problem.m23)
    if isinstance(problem, CompositionConsistencyProblem):
        return predict_composition_consistency(problem.mappings)
    if isinstance(problem, SatisfiabilityProblem):
        return cell("pattern-sat", "patterns")
    if isinstance(problem, SeparationProblem):
        return cell("separation", "patterns")
    raise TypeError(f"cannot predict a cell for {type(problem).__name__}")
