"""Seeded inputs for the four served workloads, each with its known answer.

The program under test only ever receives the generated texts: mapping
files in the ``.xsm`` format and XML documents.  Every operation carries
the answer it must produce (``Op.expect``), fixed by how the input was
built, never by asking ``solve()``:

* the Figure-1 families document which problem their ``consistent`` flag
  decides.  ``cons_*`` families: the flag is the CONS answer, and ABSCONS
  equals it (the consistent variants map every source choice into a free
  target slot, so every source tree has a solution; an inconsistent
  mapping over a satisfiable source DTD is not absolutely consistent).
  ``abscons_*`` families: the flag is the ABSCONS answer and CONS holds in
  both variants (a source tree without the trigger has a solution).
  The university example is consistent and absolutely consistent (its
  target is one starred relation).  Where the instance space is finite
  (no ``*``/``+`` in either DTD) :func:`cross_check` re-derives the pair
  with the brute-force oracles of :mod:`repro.verification.oracle`;
* member targets are either the hand-built solution of the source or
  that solution with one target fact removed;
* every revision of the edit stream copies each source relation into a
  starred target relation, so it is consistent and absolutely
  consistent and every std side is satisfiable.

Workloads are served in *blocks*: each block holds a fixed mix of input
classes in a seeded order, so every seed sends the same mix and a
run's figures are comparable across seeds.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from repro.kernel import AUTO_THRESHOLDS
from repro.mappings.io import parse_mapping, render_mapping
from repro.workloads import families
from repro.xmlmodel.tree import TreeNode
from repro.xmlmodel.xml_io import to_xml

REPO_ROOT = Path(__file__).resolve().parent.parent
UNIVERSITY = REPO_ROOT / "examples" / "mappings" / "university.xsm"

#: documents with at least this many nodes get the compact pattern engine
ENGINE_CUTOVER = AUTO_THRESHOLDS["pattern-engine"]


class GuardError(RuntimeError):
    """The workload does not have the shape it claims (fails the run)."""


@dataclass
class Op:
    """One request of a workload and the answer it must get."""

    command: str
    request: dict
    klass: str
    expect: dict
    body: bytes = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.body = json.dumps(self.request).encode()

    def traced_body(self) -> bytes:
        """The request asking the server for its span tree as well."""
        return json.dumps({**self.request, "trace": True}).encode()


@dataclass
class Workload:
    """Set-up requests plus an endless, seeded stream of request blocks."""

    name: str
    warmup: list[Op]
    blocks: Iterator[list[Op]]
    #: peak_rss_mb is read after this many blocks, a fixed amount of
    #: work that a run on a host half as fast still completes
    rss_blocks: int


# ---------------------------------------------------------------------------
# known answers
# ---------------------------------------------------------------------------

FAMILIES: dict[str, Callable] = {
    "cons_arbitrary": families.cons_arbitrary_family,
    "cons_nested": families.cons_nested_family,
    "cons_next_sibling": families.cons_next_sibling_family,
    "abscons_ptime": families.abscons_ptime_family,
    "abscons_sm0": families.abscons_sm0_family,
}


def _verdict(flag: bool) -> str:
    return "proved" if flag else "refuted"


def known_check_answer(family: str, consistent: bool) -> dict:
    """The (CONS, ABSCONS) pair a family variant is built to have."""
    if family.startswith("cons_"):
        cons = absolute = consistent
    else:
        cons, absolute = True, consistent
    return {"consistent": _verdict(cons), "absolutely_consistent": _verdict(absolute)}


def _finite_tree_size(family: str, n: int, consistent: bool) -> int | None:
    """Largest tree of a star-free instance's DTDs (None: not star-free)."""
    if family == "cons_arbitrary":
        return 1 + 2 * n
    if family == "cons_next_sibling" and not consistent:
        return n + 1
    if family == "abscons_sm0":
        return n + 1
    return None


def cross_check(instances: list[tuple[str, int, bool]]) -> int:
    """Re-derive the known answers of the finite instances by brute force.

    Returns how many instances were checked; raises on a disagreement
    (that would be a bug in the benchmark's answer table).
    """
    from repro.verification.oracle import (
        oracle_is_absolutely_consistent,
        oracle_is_consistent,
    )

    checked = 0
    for family, n, consistent in sorted(set(instances)):
        size = _finite_tree_size(family, n, consistent)
        if size is None or size > 7:
            continue
        mapping = parse_mapping(render_mapping(FAMILIES[family](n, consistent)))
        found = {
            "consistent": _verdict(oracle_is_consistent(mapping, size, size + 1, (0,))),
            "absolutely_consistent": _verdict(
                oracle_is_absolutely_consistent(mapping, size, size + 1, (0,))
            ),
        }
        if found != known_check_answer(family, consistent):
            raise AssertionError(
                f"known answer of {family}(n={n}, consistent={consistent}) "
                f"disagrees with the oracle: {found}"
            )
        checked += 1
    return checked


# ---------------------------------------------------------------------------
# check-warm / check-cold
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _labels(text: str) -> frozenset[str]:
    mapping = parse_mapping(text)
    return frozenset(mapping.source_dtd.productions) | frozenset(
        mapping.target_dtd.productions
    )


def relabel(text: str, labels: frozenset[str], suffix: str) -> str:
    """*text* with every element label renamed to ``label + suffix``.

    A uniform renaming changes no answer, but it changes every DTD and
    pattern, so no compiled artifact of an earlier request matches.
    """
    return _TOKEN.sub(
        lambda m: m.group(0) + suffix if m.group(0) in labels else m.group(0),
        text,
    )


def _check_op(name: str, text: str, klass: str, expect: dict) -> Op:
    return Op(
        "check",
        {"mappings": [{"name": name, "text": text}]},
        klass,
        expect,
    )


#: check-warm: the pool's family sizes.  Both variants of these compile
#: 221 artifacts together with the university mapping, under the
#: default 256 entries.  The seed renames the labels and orders the
#: requests, which changes no cost.
WARM_SIZES = {
    "cons_arbitrary": (1, 3),
    "cons_nested": (2, 4),
    "cons_next_sibling": (2, 4),
    "abscons_ptime": (2, 4),
    "abscons_sm0": (2, 4),
}

#: check-cold: copies per block of both variants of each (family, n).
#: Sorted by cost, the cheap next-sibling and SM° instances (5-8 ms)
#: span about 5%-62% of a block and four F1.1 n=4 requests 86%-95%, so
#: neither the median nor the 90th percentile sits on a step in cost.
COLD_MIX = {
    ("abscons_sm0", 1): 1,
    ("abscons_sm0", 2): 3,
    ("cons_next_sibling", 2): 3,
    ("cons_next_sibling", 3): 3,
    ("cons_next_sibling", 4): 3,
    ("abscons_sm0", 3): 1,
    ("cons_arbitrary", 1): 1,
    ("cons_arbitrary", 2): 1,
    ("abscons_sm0", 4): 1,
    ("cons_arbitrary", 3): 1,
    ("cons_arbitrary", 4): 2,
    ("cons_arbitrary", 5): 1,
}


def _family_instances(ranges: dict[str, tuple[int, ...]]):
    for family, sizes in ranges.items():
        for n in sizes:
            for consistent in (True, False):
                yield family, n, consistent


def check_warm(seed: int) -> Workload:
    rng = random.Random(seed)
    instances = list(_family_instances(WARM_SIZES))
    cross_check(instances)
    suffix = f"_{rng.getrandbits(20):05x}"
    entries = [
        (f"{family}-{n}-{'c' if consistent else 'i'}.xsm",
         render_mapping(FAMILIES[family](n, consistent)),
         family, known_check_answer(family, consistent))
        for family, n, consistent in instances
    ]
    entries.append((
        "university.xsm", UNIVERSITY.read_text(), "university",
        {"consistent": "proved", "absolutely_consistent": "proved"},
    ))
    pool = [
        _check_op(name, relabel(text, _labels(text), suffix), klass, expect)
        for name, text, klass, expect in entries
    ]

    def blocks() -> Iterator[list[Op]]:
        while True:
            block = list(pool)
            rng.shuffle(block)
            yield block

    return Workload("check-warm", list(pool), blocks(), 100)


def check_cold(seed: int) -> Workload:
    rng = random.Random(seed)
    instances = [
        (family, n, consistent)
        for (family, n) in COLD_MIX
        for consistent in (True, False)
    ]
    cross_check(instances)
    distinct = []
    for family, n, consistent in instances:
        text = render_mapping(FAMILIES[family](n, consistent))
        distinct.append((family, n, consistent, text, _labels(text),
                         known_check_answer(family, consistent)))
    templates = [t for t in distinct for __ in range(COLD_MIX[t[0], t[1]])]
    token = f"{rng.getrandbits(20):05x}"

    def fresh(tag: str, template) -> Op:
        family, n, consistent, text, labels, expect = template
        return _check_op(
            f"{family}-{n}-{tag}.xsm",
            relabel(text, labels, f"_{token}{tag}"),
            family,
            expect,
        )

    # the smaller instances, under labels of their own, warm the code
    # paths but not the cache
    warmup = [
        fresh(f"w{index}", template)
        for index, template in enumerate(distinct)
        if template[1] <= 3
    ]

    def blocks() -> Iterator[list[Op]]:
        for number in itertools.count():
            order = list(templates)
            rng.shuffle(order)
            yield [fresh(f"q{number}x{i}", t) for i, t in enumerate(order)]

    return Workload("check-cold", warmup, blocks(), 12)


# ---------------------------------------------------------------------------
# member-docs
# ---------------------------------------------------------------------------

def _university_docs(rng: random.Random, professors: int, valid: bool):
    """Professors with their courses, and the (course, professor)
    entries as the solution; the perturbed target drops one entry."""
    mapping = parse_mapping(UNIVERSITY.read_text())
    profs, entries = [], []
    for p in range(professors):
        courses = [
            TreeNode("course", (f"c{p}x{j}",))
            for j in range(rng.randint(1, 3))
        ]
        profs.append(TreeNode("prof", (f"p{p}",), courses))
        entries += [TreeNode("entry", (c.attrs[0], f"p{p}")) for c in courses]
    rng.shuffle(entries)
    if not valid:
        del entries[rng.randrange(len(entries))]
    source = TreeNode("r", (), profs)
    target = TreeNode("r", (), entries)
    return (
        to_xml(source, mapping.source_dtd),
        to_xml(target, mapping.target_dtd),
        (source.size, target.size),
    )


def _flat_docs(items: int, values: int, valid: bool):
    """``r[a(v)...]`` with its mirror ``t[b(v)...]`` as the solution;
    the perturbed target drops every ``b`` of the middle value, so the
    checker finds the violation halfway through its obligations."""
    source = families.flat_document(items, values)
    kept = families.target_document(items, values).children
    if not valid:
        kept = [node for node in kept if node.attrs[0] != values // 2]
    target = TreeNode("t", (), kept)
    mapping = families.membership_mapping(1)
    return (
        to_xml(source, mapping.source_dtd),
        to_xml(target, mapping.target_dtd),
        (source.size, target.size),
    )


#: member-docs block: 12 university pairs (4..15 professors), 40 flat
#: pairs and 1 pair above the engine cutover, 25 of the 53 targets valid.
#: Flat pairs per block, as (k, items, values, valid) -> copies, listed by
#: cost.  A flat pair's cost is a step function of its shape: with one
#: copy of each shape the median sits on the step from 500 to 1240 items
#: (about 47 -> 65 ms) and moves by a third with the order of a few
#: requests.  Copies hold both percentiles inside a run of equal-cost
#: requests: the university pairs and the 500-item shapes fill ranks
#: 0..19, eleven copies of the cheapest 1240-item shape ranks 20..30
#: around the median (26), and five copies of the ~113 ms 1980-item
#: shape ranks 44..48 around the 90th percentile (46.8), below the
#: three heaviest shapes and the large pair.  Sizes get a small seeded
#: jitter, so every seed sends nearly the same mix.
UNIVERSITY_PER_BLOCK = 12
FLAT_SHAPES = {
    (1, 500, 2, False): 1,
    (1, 500, 4, False): 1,
    (2, 500, 2, False): 1,
    (1, 500, 2, True): 1,
    (2, 500, 4, False): 1,
    (2, 500, 2, True): 1,
    (1, 500, 4, True): 1,
    (2, 500, 4, True): 1,
    (1, 1240, 2, False): 11,
    (1, 1240, 4, False): 1,
    (2, 1240, 2, False): 1,
    (2, 1240, 4, False): 1,
    (1, 1980, 2, False): 1,
    (1, 1240, 2, True): 2,
    (1, 1980, 4, False): 1,
    (1, 1240, 4, True): 2,
    (2, 1980, 4, False): 1,
    (2, 1240, 2, True): 1,
    (2, 1980, 2, False): 1,
    (1, 1980, 2, True): 1,
    (1, 1980, 4, True): 5,
    (2, 1980, 2, True): 1,
    (2, 1240, 4, True): 1,
    (2, 1980, 4, True): 1,
}
SIZE_JITTER = 20
LARGE_ITEMS = 33_000
#: distinct blocks generated; later blocks repeat them in a new order
MEMBER_BLOCKS = 3


def member_docs(seed: int) -> Workload:
    rng = random.Random(seed)
    texts = {k: render_mapping(families.membership_mapping(k)) for k in (1, 2)}
    university = UNIVERSITY.read_text()

    def member_op(klass: str, mapping: str, docs, valid: bool) -> Op:
        source, target, nodes = docs
        return Op(
            "member",
            {"mapping": mapping, "source": source, "targets": [target]},
            klass,
            {"answer": "YES" if valid else "NO", "nodes": nodes},
        )

    def jitter() -> int:
        return rng.randint(0, SIZE_JITTER)

    def make_block() -> list[Op]:
        block = []
        for index in range(UNIVERSITY_PER_BLOCK):
            valid = index % 2 == 0
            docs = _university_docs(rng, 4 + index, valid)
            block.append(member_op("university", university, docs, valid))
        for (k, items, values, valid), copies in FLAT_SHAPES.items():
            for __ in range(copies):
                docs = _flat_docs(items + jitter(), values, valid)
                block.append(member_op("flat", texts[k], docs, valid))
        docs = _flat_docs(LARGE_ITEMS + 10 * jitter(), 4, True)
        block.append(member_op("large", texts[1], docs, True))
        return block

    generated = [make_block() for __ in range(MEMBER_BLOCKS)]
    for op in itertools.chain.from_iterable(generated):
        large = op.klass == "large"
        if any((nodes >= ENGINE_CUTOVER) != large for nodes in op.expect["nodes"]):
            raise GuardError(
                f"{op.klass} documents of {op.expect['nodes']} nodes are on the "
                f"wrong side of the {ENGINE_CUTOVER}-node engine cutover"
            )
    warmup = [
        member_op("university", university, _university_docs(rng, profs, valid), valid)
        for profs, valid in ((6, True), (10, False), (14, True))
    ] + [
        member_op("flat", texts[k], _flat_docs(items, values, valid), valid)
        for k, items, values, valid in (
            (1, 1000, 8, True), (2, 1000, 4, False), (1, 1240, 2, False), (2, 500, 2, True),
        )
    ]

    def blocks() -> Iterator[list[Op]]:
        for number in itertools.count():
            block = list(generated[number % MEMBER_BLOCKS])
            rng.shuffle(block)
            yield block

    return Workload("member-docs", warmup, blocks(), 2)


# ---------------------------------------------------------------------------
# edit-stream
# ---------------------------------------------------------------------------

STREAM_STDS = 12
STREAM_NAME = "edit-stream"
#: (delta, delta, check of the latest revision) rounds per block
ROUNDS_PER_BLOCK = 6


def stream_mapping(variants: list[int]) -> str:
    """A ``len(variants)``-std mapping with per-std disjoint labels.

    Std ``i`` copies ``a_i/c_i`` into ``b_i/d_i``; its variant picks the
    target shape: nested copy, flattened copy, or the two values swapped.
    Every target relation is starred, so every variant keeps the mapping
    consistent and absolutely consistent.
    """
    n = len(variants)
    source = ["source:", "    r -> " + ", ".join(f"a{i}*" for i in range(n))]
    target = ["target:", "    r -> " + ", ".join(f"b{i}*" for i in range(n))]
    for i in range(n):
        source += [f"    a{i}(x{i}) -> c{i}*", f"    c{i}(y{i})"]
        target += [f"    b{i}(x{i}) -> d{i}*", f"    d{i}(y{i})"]
    heads = {
        0: "r[b{i}(v)[d{i}(w)]]",
        1: "r[b{i}(v)]",
        2: "r[b{i}(w)[d{i}(v)]]",
    }
    stds = [
        f"std: r[a{i}(v)[c{i}(w)]] -> " + heads[variant].format(i=i)
        for i, variant in enumerate(variants)
    ]
    return "\n".join(source + target + stds) + "\n"


def edit_stream(seed: int) -> Workload:
    rng = random.Random(seed)
    variants = [0] * STREAM_STDS
    proved = {"consistent": "proved", "absolutely_consistent": "proved"}

    def delta_op(text: str) -> Op:
        return Op(
            "delta",
            {"name": STREAM_NAME, "mapping": text},
            "delta",
            {"verdicts": "proved", "exit_code": 0},
        )

    def check_op(text: str) -> Op:
        return _check_op(f"{STREAM_NAME}.xsm", text, "check", proved)

    initial = stream_mapping(variants)
    warmup = [delta_op(initial), check_op(initial)]

    def edit() -> str:
        index = rng.randrange(STREAM_STDS)
        variants[index] = (variants[index] + rng.randint(1, 2)) % 3
        return stream_mapping(variants)

    def blocks() -> Iterator[list[Op]]:
        while True:
            block = []
            for __ in range(ROUNDS_PER_BLOCK):
                block.append(delta_op(edit()))
                text = edit()
                block += [delta_op(text), check_op(text)]
            yield block

    return Workload("edit-stream", warmup, blocks(), 12)


MAKE_WORKLOAD: dict[str, Callable[[int], Workload]] = {
    "check-warm": check_warm,
    "check-cold": check_cold,
    "member-docs": member_docs,
    "edit-stream": edit_stream,
}


def verify(op: Op, status: int, reply: dict | None) -> str | None:
    """Why *reply* is wrong for *op* (None when it is the known answer)."""
    if reply is None:
        return f"HTTP {status} without a JSON body"
    if status >= 400:
        return f"HTTP {status}: {reply.get('error')}"
    if not reply.get("ok"):
        return f"not ok: {reply.get('error')}"
    try:
        return _wrong_answer(op, reply)
    except (KeyError, IndexError, TypeError) as error:
        return f"malformed {op.command} reply: {error!r}"


def _wrong_answer(op: Op, reply: dict) -> str | None:
    if op.command == "check":
        result = reply["results"][0]
        for key, want in op.expect.items():
            got = result[key]["verdict"]
            if got != want:
                return f"{key}: {got}, expected {want}"
        return None
    if op.command == "member":
        got = reply["results"][0]["answer"]
        if got != op.expect["answer"]:
            return f"member answer {got}, expected {op.expect['answer']}"
        return None
    wrong = sorted(
        label for label, payload in reply["verdicts"].items()
        if payload["verdict"] != op.expect["verdicts"]
    )
    if wrong:
        return f"delta verdicts not {op.expect['verdicts']}: {wrong}"
    if reply["exit_code"] != op.expect["exit_code"]:
        return f"delta exit code {reply['exit_code']}"
    return None
