"""Schema mappings and their feature-signature classification.

The paper writes ``SM(sigma)`` for the class of mappings whose stds use
only the features in ``sigma``: navigation axes (child is always present;
descendant, next-sibling, following-sibling), wildcard, and the value
comparisons ``=`` / ``!=``.  :meth:`SchemaMapping.signature` computes the
signature of a mapping; the shorthand groups of the paper are exposed as
:data:`VERTICAL` (⇓), :data:`HORIZONTAL` (⇒) and :data:`COMPARISONS` (∼).

Following [4] (and the remark after Definition 3.1), reusing a variable in
a *target* pattern does not count as the ``=`` feature — only source-side
equalities do.  Inequalities never appear inside patterns; they live in the
``alpha`` formulae.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import SignatureError
from repro.mappings.std import STD, parse_std
from repro.patterns.features import (
    CHILD,
    COMPARISONS,
    DESCENDANT,
    EQUALITY,
    FOLLOWING_SIBLING,
    HORIZONTAL,
    INEQUALITY,
    NEXT_SIBLING,
    VERTICAL,
    WILDCARD_FEATURE,
    axes_of,
    is_fully_specified,
)
from repro.xmlmodel.dtd import DTD, parse_dtd


@dataclass(frozen=True)
class Signature:
    """A set of mapping features, printable in the paper's ``SM(...)`` style."""

    features: frozenset[str]

    def __contains__(self, feature: str) -> bool:
        return feature in self.features

    def issubset(self, allowed: Iterable[str]) -> bool:
        """Is every used feature allowed?  Child and wildcard are free."""
        allowed_set = set(allowed) | {CHILD, WILDCARD_FEATURE}
        return self.features <= allowed_set

    def __str__(self) -> str:
        groups = []
        if self.features & VERTICAL:
            groups.append("⇓" if DESCENDANT in self.features else "↓")
        if self.features & HORIZONTAL:
            horizontal = self.features & HORIZONTAL
            groups.append("⇒" if horizontal == HORIZONTAL else
                          ("→" if NEXT_SIBLING in horizontal else "→*"))
        if self.features & COMPARISONS:
            comparisons = self.features & COMPARISONS
            groups.append("∼" if comparisons == COMPARISONS else
                          ("=" if EQUALITY in comparisons else "≠"))
        return f"SM({', '.join(groups)})"


class SchemaMapping:
    """An XML schema mapping ``M = (D_s, D_t, Sigma)`` (Definition 3.2)."""

    def __init__(self, source_dtd: DTD, target_dtd: DTD, stds: Iterable[STD | str]):
        self.source_dtd = source_dtd
        self.target_dtd = target_dtd
        self.stds: tuple[STD, ...] = tuple(
            parse_std(std) if isinstance(std, str) else std for std in stds
        )

    @classmethod
    def parse(
        cls, source_dtd: DTD | str, target_dtd: DTD | str, stds: Sequence[str]
    ) -> "SchemaMapping":
        """Build a mapping from textual DTDs and stds (works for subclasses)."""
        if isinstance(source_dtd, str):
            source_dtd = parse_dtd(source_dtd)
        if isinstance(target_dtd, str):
            target_dtd = parse_dtd(target_dtd)
        return cls(source_dtd, target_dtd, stds)

    def __repr__(self) -> str:
        return (
            f"SchemaMapping({self.signature()}, {len(self.stds)} stds, "
            f"source root {self.source_dtd.root!r}, target root {self.target_dtd.root!r})"
        )

    # -- classification -------------------------------------------------------

    def signature(self) -> Signature:
        """The feature set actually used by the stds (memoized — the std
        tuple is fixed at construction, and routing, prediction and the
        linter all re-ask)."""
        cached: Signature | None = self.__dict__.get("_signature")
        if cached is not None:
            return cached
        features: set[str] = {CHILD}
        for std in self.stds:
            for pattern in (std.source, std.target):
                axes = axes_of(pattern)
                if axes.descendant:
                    features.add(DESCENDANT)
                if axes.next_sibling:
                    features.add(NEXT_SIBLING)
                if axes.following_sibling:
                    features.add(FOLLOWING_SIBLING)
                if axes.wildcard:
                    features.add(WILDCARD_FEATURE)
            if std.source.has_repeated_variables():
                features.add(EQUALITY)
            for comparison in std.source_conditions + std.target_conditions:
                features.add(EQUALITY if comparison.op == "=" else INEQUALITY)
        signature = Signature(frozenset(features))
        self.__dict__["_signature"] = signature
        return signature

    def check_signature(self, allowed: Iterable[str]) -> None:
        """Raise :class:`SignatureError` if features outside *allowed* are used."""
        signature = self.signature()
        if not signature.issubset(allowed):
            extra = signature.features - (set(allowed) | {CHILD, WILDCARD_FEATURE})
            raise SignatureError(
                f"mapping uses features {sorted(extra)} outside the class "
                f"SM({sorted(allowed)})"
            )

    def uses_data_comparisons(self) -> bool:
        """True iff the signature contains ``=`` or ``!=`` (the ∼ features)."""
        return bool(self.signature().features & COMPARISONS)

    def uses_skolem_functions(self) -> bool:
        return any(std.skolem_functions() for std in self.stds)

    def is_nested_relational(self) -> bool:
        """Both DTDs nested-relational (the tractable frontier of Fig. 1)."""
        from repro.analysis.fragment import classify

        return classify(self).nested_relational

    def is_fully_specified(self) -> bool:
        """All stds built from fully-specified patterns (grammar (5))."""
        return all(
            is_fully_specified(std.source) and is_fully_specified(std.target)
            for std in self.stds
        )

    # -- transformations --------------------------------------------------------

    def strip_values(self) -> "SchemaMapping":
        """The ``SM°`` mapping: every std stripped of attribute values."""
        return SchemaMapping(
            self.source_dtd, self.target_dtd, [std.strip_values() for std in self.stds]
        )
