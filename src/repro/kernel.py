"""The pattern-engine size cutover.

The automata have one production implementation (the bitset automata of
:mod:`repro.automata.bitset`); the pure automata survive only as the
differential-test oracle.  The pattern engine still has two: documents
below the cutover get the object :class:`~repro.patterns.matching.PatternEngine`
(whose index the tests inspect), larger ones the array-backed
:class:`~repro.patterns.compact.CompactPatternEngine`.  Selection is by
node count alone.
"""

from __future__ import annotations

#: Size cutovers per surface; ``"pattern-engine"`` is a node count.
AUTO_THRESHOLDS = {
    "pattern-engine": 32768,
}
