"""Exhaustive enumeration of the trees conforming to a DTD.

Used by the brute-force oracles and the bounded decision procedures.  The
number of conforming trees grows explosively with the size bound and the
value domain, so callers keep both tiny; that is the point of an oracle.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator

from repro.regex.ast import Concat, Empty, Optional, Plus, Regex, Star, Symbol, Union
from repro.xmlmodel.dtd import DTD
from repro.xmlmodel.tree import TreeNode


class LabelTreeEnumerator:
    """Enumerates label-only trees (no attribute values) of bounded size.

    Public so callers that need size-by-size control (the linter's
    bounded witness probe) can drive :meth:`trees_of` directly instead of
    going through :func:`enumerate_label_trees`.
    """

    def __init__(self, dtd: DTD):
        self.dtd = dtd
        self._memo: dict[tuple[str, int], tuple[TreeNode, ...]] = {}

    def trees_of(self, label: str, size: int) -> tuple[TreeNode, ...]:
        """All subtrees rooted at *label* with exactly *size* nodes."""
        if size < 1:
            return ()
        key = (label, size)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        result: list[TreeNode] = []
        nfa = self.dtd.production_nfa(label)
        for word in nfa.words(size - 1):
            if not word:
                if size == 1:
                    result.append(TreeNode(label))
                continue
            if len(word) > size - 1:
                continue
            for sizes in _compositions(size - 1, len(word)):
                child_options = [
                    self.trees_of(child_label, child_size)
                    for child_label, child_size in zip(word, sizes)
                ]
                for children in itertools.product(*child_options):
                    result.append(TreeNode(label, (), children))
        frozen = tuple(result)
        self._memo[key] = frozen
        return frozen


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ways to write *total* as an ordered sum of *parts* positive ints."""
    if parts == 1:
        yield (total,)
        return
    for head in range(1, total - parts + 2):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def enumerate_label_trees(dtd: DTD, max_size: int) -> Iterator[TreeNode]:
    """All label-trees conforming to *dtd* with at most *max_size* nodes."""
    enumerator = LabelTreeEnumerator(dtd)
    for size in range(1, max_size + 1):
        yield from enumerator.trees_of(dtd.root, size)


def _attribute_slots(dtd: DTD, node: TreeNode) -> int:
    return sum(dtd.arity(n.label) for n in node.nodes())


def _decorate(dtd: DTD, node: TreeNode, values: list) -> TreeNode:
    """Pop values off *values* in document order and attach them."""
    attrs = tuple(values.pop() for __ in range(dtd.arity(node.label)))
    children = tuple(_decorate(dtd, child, values) for child in node.children)
    return TreeNode(node.label, attrs, children)


def enumerate_trees(
    dtd: DTD, max_size: int, domain: Iterable[object] = (0, 1)
) -> Iterator[TreeNode]:
    """All conforming trees up to *max_size* with attribute values in *domain*."""
    domain = tuple(domain)
    for skeleton in enumerate_label_trees(dtd, max_size):
        slots = _attribute_slots(dtd, skeleton)
        if slots == 0:
            yield skeleton
            continue
        for assignment in itertools.product(domain, repeat=slots):
            yield _decorate(dtd, skeleton, list(reversed(assignment)))


def max_tree_size(dtd: DTD) -> float:
    """Nodes of the largest tree conforming to *dtd*: ``-inf`` when none
    conforms, ``inf`` when they grow without bound (recursion counts as
    unbounded even if its cycle has no finite tree, which only errs up)."""
    memo: dict[str, float] = {}
    active: set[str] = set()

    def word(expr: Regex) -> float:
        if isinstance(expr, Symbol):
            return size(expr.symbol)
        if isinstance(expr, Empty):
            return -math.inf
        if isinstance(expr, (Concat, Union)):
            parts = [word(part) for part in expr.parts]
            if isinstance(expr, Union):
                return max(parts)
            return -math.inf if -math.inf in parts else sum(parts)
        if isinstance(expr, (Star, Plus, Optional)):
            inner = word(expr.inner)
            if inner > 0 and not isinstance(expr, Optional):
                return math.inf  # repeats a non-empty word
            return inner if isinstance(expr, Plus) else max(0, inner)
        return 0  # epsilon

    def size(label: str) -> float:
        if label in active:
            return math.inf
        if label not in memo:
            active.add(label)
            memo[label] = 1 + word(dtd.productions[label])
            active.discard(label)
        return memo[label]

    return size(dtd.root)


def count_trees(dtd: DTD, max_size: int, domain: Iterable[object] = (0, 1)) -> int:
    """How many conforming trees exist up to *max_size* over *domain*."""
    return sum(1 for __ in enumerate_trees(dtd, max_size, domain))
