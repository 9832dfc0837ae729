"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed: the same seed gives a
byte-identical stream (see :func:`stream_digest`), so the timed run, the
correctness pass and the traced run all see the same inputs, and the
program under test receives only the generated problems.

* :func:`chase_deep_problems` -- the chase-bound problem batch.
  Three families in a fixed cycle (so every seed has the same mix):
  embedded-pjd premise sets shaped like the budget-bound query
  ``{pjoin[ABC, BD] => ACD, pjoin[AC, AE, BCD] => ABE} |= BE -> D`` plus one
  fd, Lemma 10
  mvd chains of k = 5..7 blocks, and semigroup word problems encoded as
  untyped tds/egds with totality tds.  Four slots of every 21 are flagged
  ``finite``.  What drives a problem's cost -- its family, the pjd's fd and
  conclusion, the chain length, conclusion kind, block sizes, jd cut and
  word lengths -- is fixed by its index, and each cycle of 21 holds every
  combination once; the seed picks the letters (and the semigroup words),
  so every seed's n-th problem costs about the same and runs on different
  seeds can be compared.
* :func:`query_stream` -- small text queries over ``ABCD`` with Zipf-like
  popularity over a pool of distinct queries, a share restated under an
  attribute renaming; ``service_mix`` sends it.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

#: The seed a run uses when none is given, and the seed held out for
#: checking a claimed gain on inputs not seen while the change was written.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

#: The chase step budget of ``chase_deep``.  At the library default (2000
#: steps) one embedded-pjd problem runs for minutes; at 40 steps each
#: budget-bound problem costs a few hundred milliseconds and the mix still
#: interleaves td steps with egd merges.
CHASE_DEEP_MAX_STEPS = 40

#: Universe of the attribute-level chase_deep families (pjd and mvd chain).
DEEP_UNIVERSE = "ABCDEFG"

#: Universe of the query stream.
QUERY_UNIVERSE = "ABCD"

# The chase_deep cycle: family per slot, and which slots are finite-flagged.
# It holds the 6 pjd, 9 mvd-chain and 6 semigroup combinations once each.
_DEEP_CYCLE = ("pjd", "mvd", "semigroup", "mvd", "pjd", "mvd", "semigroup",
               "mvd", "pjd", "mvd", "semigroup", "pjd", "mvd", "semigroup",
               "mvd", "pjd", "mvd", "semigroup", "pjd", "mvd", "semigroup")
_DEEP_FINITE_SLOTS = (4, 6, 15, 17)  # two pjd and two semigroup slots per cycle
DEEP_CYCLE_LENGTH = len(_DEEP_CYCLE)
#: Seconds one cycle takes on the reference machine (2-CPU container,
#: 8.5-11 s measured).  A timed run solves a fixed number of whole cycles,
#: ``round(seconds / DEEP_CYCLE_NOMINAL_S)`` of them, so every run solves
#: the same problems: a long-lived solver gets slower as it solves more
#: distinct problems, and a run that stopped on a clock would solve more
#: of them on a faster program or machine and read slower per problem.
DEEP_CYCLE_NOMINAL_S = 10.0


def deep_timed_problems(seconds: float) -> int:
    """How many chase_deep problems a timed run of about ``seconds`` solves."""
    return max(1, round(seconds / DEEP_CYCLE_NOMINAL_S)) * DEEP_CYCLE_LENGTH

# The embedded-pjd shape, over the five letters ABCDE before renaming.  One
# fd joins the two pjds so that egd merges rewrite rows the pjd tds add;
# each of these fds merges within the step budget.
_PJD_PREMISES = ("pjoin[ABC, BD] => ACD", "pjoin[AC, AE, BCD] => ABE")
_PJD_FDS = ("C -> E", "B -> C", "D -> A")
_PJD_CONCLUSIONS = ("BE -> D", "BE ->> D")

# mvd-chain block sizes over the seven universe letters, per chain length.
_MVD_BLOCKS = {5: (2, 2, 1, 1, 1), 6: (2, 1, 1, 1, 1, 1), 7: (1,) * 7}
_MVD_CONCLUSIONS = ("mvd", "fd", "jd")
# Where the path-jd conclusion cuts a chain of k blocks (edges share a block).
_MVD_JD_CUTS = {5: (1, 3), 6: (2, 3), 7: (2, 4)}

# Word lengths of the one semigroup relation and of the goal equation.
_SEMIGROUP_RELATION_LENGTHS = ((2, 1), (3, 1), (3, 2))
_SEMIGROUP_GOAL_LENGTHS = ((2, 1), (3, 2))


@dataclass(frozen=True)
class DeepProblem:
    """One chase_deep problem, in a form any process can rebuild.

    ``family`` is ``pjd``, ``mvd`` or ``semigroup``.  Attribute-level
    families carry DSL text (``premises``/``conclusion``); the semigroup
    family carries its word problem (``relations``/``goal``), encoded with
    :func:`repro.semigroups.encoding.encode_instance` when built.
    """

    index: int
    family: str
    finite: bool
    premises: Tuple[str, ...] = ()
    conclusion: str = ""
    relations: Tuple[Tuple[str, str], ...] = ()
    goal: Tuple[str, str] = ("", "")

    def key(self) -> str:
        """A stable text form; distinct problems have distinct keys."""
        return json.dumps(
            [self.family, self.finite, self.premises, self.conclusion,
             self.relations, self.goal]
        )


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _rename(text: str, mapping: dict) -> str:
    return "".join(mapping.get(ch, ch) for ch in text)


def _pjd_problem(rng: random.Random, turn: int) -> Tuple[Tuple[str, ...], str]:
    letters = rng.sample(DEEP_UNIVERSE, 5)
    mapping = dict(zip("ABCDE", letters))
    fd = _PJD_FDS[turn % len(_PJD_FDS)]
    premises = tuple(_rename(p, mapping) for p in (*_PJD_PREMISES, fd))
    conclusion = _PJD_CONCLUSIONS[(turn // len(_PJD_FDS)) % len(_PJD_CONCLUSIONS)]
    return premises, _rename(conclusion, mapping)


def _mvd_problem(rng: random.Random, k: int, kind: str) -> Tuple[Tuple[str, ...], str]:
    letters = rng.sample(DEEP_UNIVERSE, len(DEEP_UNIVERSE))
    blocks, start = [], 0
    for size in _MVD_BLOCKS[k]:
        blocks.append("".join(sorted(letters[start:start + size])))
        start += size
    premises = tuple(f"{blocks[i]} ->> {blocks[i + 1]}" for i in range(k - 1))
    if kind == "mvd":
        conclusion = f"{blocks[0]} ->> {blocks[-1]}"
    elif kind == "fd":
        conclusion = f"{blocks[0]} -> {rng.choice(blocks[1])}"
    else:
        # A three-edge path over the chain, cut into near-equal edges: the
        # full k-1-edge path, or a three-edge path with one long edge,
        # starts the chase from more rows and costs 10-20 s per problem.
        cut = _MVD_JD_CUTS[k]
        edges = (blocks[:cut[0] + 1], blocks[cut[0]:cut[1] + 1], blocks[cut[1]:])
        conclusion = f"join[{', '.join(''.join(edge) for edge in edges)}]"
    return premises, conclusion


def _random_word(rng: random.Random, length: int) -> str:
    return "".join(rng.choice("ab") for _ in range(length))


def _word_pair(rng: random.Random, lengths: Tuple[int, int]) -> Tuple[str, str]:
    left = _random_word(rng, lengths[0])
    right = _random_word(rng, lengths[1])
    while right == left:
        right = _random_word(rng, lengths[1])
    return left, right


def _derivable(relation: Tuple[str, str], goal: Tuple[str, str], max_len: int) -> bool:
    """Whether ``goal`` follows from ``relation`` by rewriting through words
    of at most ``max_len`` letters."""
    rules = (relation, relation[::-1])
    seen = {goal[0]}
    frontier = [goal[0]]
    while frontier:
        current = frontier.pop()
        for old, new in rules:
            start = current.find(old)
            while start >= 0:
                nxt = current[:start] + new + current[start + len(old):]
                if nxt == goal[1]:
                    return True
                if len(nxt) <= max_len and nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
                start = current.find(old, start + 1)
    return False


def _semigroup_problem(rng: random.Random, turn: int):
    # A goal that short rewriting derives is decided without a deep chase;
    # it is redrawn, so every semigroup problem runs into its budget.
    while True:
        relation = _word_pair(rng, _SEMIGROUP_RELATION_LENGTHS[turn % 3])
        goal = _word_pair(rng, _SEMIGROUP_GOAL_LENGTHS[(turn // 3) % 2])
        if not _derivable(relation, goal, 8):
            return (relation,), goal


def _deep_draw(seed: int, index: int, attempt: int) -> DeepProblem:
    slot = index % len(_DEEP_CYCLE)
    family = _DEEP_CYCLE[slot]
    finite = slot in _DEEP_FINITE_SLOTS
    rng = _rng("deep", seed, index, attempt)
    # The turn counts the earlier problems of the same family.
    turn = (index // len(_DEEP_CYCLE) * _DEEP_CYCLE.count(family)
            + _DEEP_CYCLE[:slot].count(family))
    if family == "pjd":
        premises, conclusion = _pjd_problem(rng, turn)
        return DeepProblem(index, family, finite, premises, conclusion)
    if family == "mvd":
        # Cycle k and the conclusion kind together so each seed sees the
        # same 3 x 3 mix of chain lengths and conclusions.
        k = (5, 6, 7)[turn % 3]
        kind = _MVD_CONCLUSIONS[(turn // 3) % 3]
        premises, conclusion = _mvd_problem(rng, k, kind)
        return DeepProblem(index, family, finite, premises, conclusion)
    relations, goal = _semigroup_problem(rng, turn)
    return DeepProblem(index, family, finite, relations=relations, goal=goal)


def chase_deep_problems(seed: int) -> Iterator[DeepProblem]:
    """The endless seeded batch, all pairwise distinct.

    A draw whose key repeats an earlier problem's is redrawn, never dropped,
    so the family cycle and finite flags stay in place.
    """
    seen = set()
    for index in itertools.count():
        attempt = 0
        problem = _deep_draw(seed, index, attempt)
        while problem.key() in seen:
            attempt += 1
            problem = _deep_draw(seed, index, attempt)
        seen.add(problem.key())
        yield problem


def chase_deep_batch(seed: int, count: int) -> List[DeepProblem]:
    """The first ``count`` problems of the batch."""
    return take(chase_deep_problems(seed), count)


# -- the query stream ---------------------------------------------------------

#: Share of stream positions that state something not seen before (a fresh
#: base query, or a seen base query restated under a renaming); every other
#: position repeats a seen statement, drawn Zipf-like by first appearance.
#: The hit share therefore stays near 1 - FRESH_SHARE however far a run
#: gets, so a faster run does not also see a warmer cache.
FRESH_SHARE = 0.1
#: Of the fresh positions, the share that restates a seen base query under
#: an attribute renaming (a renamed twin).
RENAMED_SHARE = 0.25
ZIPF_EXPONENT = 1.0
#: Fresh base queries whose index falls on these residues mod 7 are
#: flagged finite (2 in 7, about a quarter; 7 is coprime to the 32-long
#: shape rotation, so every shape is sometimes finite).
_FINITE_RESIDUES = (2, 5)


@dataclass(frozen=True)
class Query:
    """One text query: premises and conclusion in the DSL, plus its flags."""

    premises: Tuple[str, ...]
    conclusion: str
    finite: bool
    renamed: bool = False

    def key(self) -> str:
        """The exact statement as text (distinct statements, distinct keys)."""
        return json.dumps([self.premises, self.conclusion, self.finite])


#: Queries a service answers once before it is measured, one per dependency
#: kind and flag, so lazy set-up inside the first solves is not timed.  None
#: can occur in a stream: each has a premise with three attributes left of
#: the arrow, and stream premises have at most two.
WARMUP_QUERIES = (
    Query(("ABC -> D",), "A -> D", False),
    Query(("ABC ->> D", "ABD -> C"), "AB ->> C", True),
    Query(("ABC -> D", "join[ABC, ABD]"), "join[ABC, BCD]", False),
    Query(("ABC -> D", "join[ABC, ACD]"), "pjoin[ABC, BCD] => ABD", True),
)


def _attr_set(rng: random.Random, low: int, high: int, exclude: str = "") -> str:
    pool = [a for a in QUERY_UNIVERSE if a not in exclude]
    size = rng.randint(low, min(high, len(pool)))
    return "".join(sorted(rng.sample(pool, size)))


def _components(rng: random.Random) -> List[str]:
    """2-3 components of size 2-3 that cover the universe."""
    while True:
        comps = [_attr_set(rng, 2, 3) for _ in range(rng.randint(2, 3))]
        if set("".join(comps)) == set(QUERY_UNIVERSE) and len(set(comps)) == len(comps):
            return comps


def _dependency(rng: random.Random, kind: str) -> str:
    if kind == "jd":
        return f"join[{', '.join(_components(rng))}]"
    if kind == "pjd":
        while True:
            comps = [_attr_set(rng, 2, 2) for _ in range(2)]
            covered = "".join(sorted(set("".join(comps))))
            if len(covered) >= 3 and comps[0] != comps[1]:
                break
        projection = "".join(sorted(rng.sample(covered, len(covered) - 1)))
        return f"pjoin[{', '.join(comps)}] => {projection}"
    lhs = _attr_set(rng, 1, 2)
    rhs = _attr_set(rng, 1, 1, exclude=lhs)
    return f"{lhs} {'->' if kind == 'fd' else '->>'} {rhs}"


# Fresh queries rotate through these shapes, so every seed states the same
# mix: premise kinds (at most one jd -- two or more jds make single queries
# take half a second, which no longer is a small query) by conclusion kind.
_PREMISE_SHAPES = (("fd",), ("mvd",), ("jd",), ("fd", "mvd"), ("fd", "jd"),
                   ("fd", "fd", "mvd"), ("fd", "mvd", "jd"), ("mvd", "mvd"))
_CONCLUSION_KINDS = ("fd", "mvd", "jd", "pjd")


def fresh_queries(seed: int) -> Iterator[Query]:
    """Endless pairwise distinct base queries, in a fixed rotation of shapes."""
    rng = _rng("fresh", seed)
    seen = set()
    shapes = itertools.cycle(itertools.product(_PREMISE_SHAPES, _CONCLUSION_KINDS))
    for index, (premise_kinds, conclusion_kind) in enumerate(shapes):
        finite = index % 7 in _FINITE_RESIDUES
        for _ in range(100):  # redraw a repeat; every shape has many forms
            query = Query(tuple(_dependency(rng, kind) for kind in premise_kinds),
                          _dependency(rng, conclusion_kind), finite)
            if query.key() not in seen:
                seen.add(query.key())
                yield query
                break


def _renamed(query: Query, rng: random.Random) -> Query:
    perm = rng.sample(QUERY_UNIVERSE, len(QUERY_UNIVERSE))
    mapping = dict(zip(QUERY_UNIVERSE, perm))
    return Query(
        tuple(_rename(p, mapping) for p in query.premises),
        _rename(query.conclusion, mapping),
        query.finite,
        renamed=True,
    )


class _Zipf:
    """Zipf-like draws over a growing list: rank r has weight 1/(r+1)^s."""

    def __init__(self) -> None:
        self.cumulative: List[float] = []

    def grow(self) -> None:
        rank = len(self.cumulative)
        weight = 1.0 / (rank + 1) ** ZIPF_EXPONENT
        self.cumulative.append(weight + (self.cumulative[-1] if rank else 0.0))

    def draw(self, rng: random.Random) -> int:
        point = rng.random() * self.cumulative[-1]
        return min(bisect.bisect_right(self.cumulative, point), len(self.cumulative) - 1)


def query_stream(seed: int) -> Iterator[Query]:
    """The endless seeded query stream."""
    rng = _rng("stream", seed)
    fresh = fresh_queries(seed)
    statements: List[Query] = []
    keys = set()
    by_statement, by_base = _Zipf(), _Zipf()
    bases: List[Query] = []
    while True:
        if statements and rng.random() >= FRESH_SHARE:
            yield statements[by_statement.draw(rng)]
            continue
        if bases and rng.random() < RENAMED_SHARE:
            query = _renamed(bases[by_base.draw(rng)], rng)
        else:
            query = next(fresh)
            bases.append(query)
            by_base.grow()
        if query.key() not in keys:
            keys.add(query.key())
            statements.append(query)
            by_statement.grow()
        yield query


def take(iterator: Iterator, count: int) -> list:
    """The next ``count`` items of an iterator."""
    return list(itertools.islice(iterator, count))


def stream_digest(items, limit: Optional[int] = None) -> str:
    """SHA-256 over the keys of ``items`` (the byte-identity check)."""
    digest = hashlib.sha256()
    for item in itertools.islice(items, limit):
        digest.update(item.key().encode("utf-8") + b"\n")
    return digest.hexdigest()
