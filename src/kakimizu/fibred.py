"""Fibredness of special alternating pieces by graph reduction.

The checkerboard graph of a reduced special alternating diagram has one
vertex per white region and one edge per crossing.  The piece is fibred
exactly when the graph reduces to a single bare vertex under two moves:

* delete a loop;
* contract a non-loop edge with an endpoint of valence 2.

Every move drops the edge count by one, so the system terminates.  It is
also locally confluent up to isomorphism:

* two loop deletions commute;
* a loop deletion and a contraction commute: the valence-2 end of a
  contractible edge carries no loop, and a loop deletion changes only the
  degree of its own vertex;
* a contraction leaves the degree of every surviving vertex unchanged, so
  two contractions whose edges share no valence-2 vertex commute;
* two contractions whose edges share a valence-2 vertex lie on a path
  through it or form a parallel pair at it, and give isomorphic graphs.

By Newman's lemma the system has one normal form, so a single greedy run
decides reducibility and records a replayable certificate.  A homogeneous
link is fibred exactly when each special alternating summand of its Murasugi
decomposition is.

A ``ReductionGraph`` is a validated, immutable input with no move methods.
Validation counts its edges once into an incidence map, the multiplicity of
each neighbour of each vertex, checks connectivity by a search over that map,
and keeps it.  Connectivity is never checked per move, because neither move
can disconnect the graph: a loop is never a bridge, and a contraction merges
the two ends of an edge, so every path through either end becomes a path
through the merged vertex.

Moves run only through :func:`reduction_certificate`, which finds them, and
:func:`replay_certificate`, which checks them.  Each call copies the kept
incidence map into a working graph that holds graph state only, the incidence
map, the degrees and the edge count, and rejects a malformed or illegal move
with ``InputError``.  The replay builds nothing else.

The search deletes the input's loops first, all c loops at a vertex as one
run, vertex by vertex in sorted order.  It then takes the least contractible
edge from a lazy heap of non-loop edges.  A contraction pushes an entry for
each edge it renames to an end of valence 2, and for each edge at the vertex
it keeps if that drops to valence 2; a stale entry is discarded once, when
it reaches the top.  A contraction makes loops only at the vertex it keeps,
when no vertex has any, so the search deletes them at once as a run, which
is the move that sorted order takes next.  A run costs O(1) plus c list slots
for its c equal moves in the certificate.  A contraction renames the edges of
the absorbed vertex to the surviving label, and costs O(log E) per entry it
pushes, for E edges.

The replay checks a run of one move object repeated, as the search emits it,
once for its form and once against the loops at its vertex, and applies it
in one step; reading the run costs one loop step per move.  It applies every
other move on its own.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush

from .errors import InputError

_GRAPH_RE = re.compile(r"^\s*v\s*=\s*(\d+)\s*;\s*edges\s*=\s*((?:\(\s*\d+\s*,\s*\d+\s*\))*)\s*$")
_PAIR_RE = re.compile(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)")


@dataclass(frozen=True)
class ReductionGraph:
    """A connected multigraph with loops, on integer-labelled vertices."""

    vertices: frozenset
    edges: tuple  # sorted (u, v) pairs with u <= v, repeats for multi-edges
    # _incidence[v][w] counts the edges from v to w, a loop at v once under v
    _incidence: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.vertices:
            raise InputError("reduction graph needs at least one vertex")
        incidence = {v: {} for v in self.vertices}
        for (u, v), count in Counter(self.edges).items():
            if u not in incidence or v not in incidence:
                raise InputError(f"edge ({u},{v}) touches an unknown vertex")
            if u > v:
                raise InputError("edges must be stored with u <= v")
            incidence[u][v] = incidence[v][u] = count
        start = next(iter(incidence))
        seen = {start}
        stack = [start]
        while stack:
            for w in incidence[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(incidence):
            raise InputError("reduction graph must be connected")
        object.__setattr__(self, "_incidence", incidence)

    @classmethod
    def from_pairs(cls, n_or_vertices, pairs) -> "ReductionGraph":
        if isinstance(n_or_vertices, int):
            n_or_vertices = range(n_or_vertices)
        return cls(frozenset(n_or_vertices),
                   tuple(sorted((a, b) if a <= b else (b, a) for a, b in pairs)))

    @classmethod
    def from_text(cls, text: str) -> "ReductionGraph":
        """Parse the literal form ``v=<n>; edges=(a,b)(c,d)...``."""
        m = _GRAPH_RE.match(text.strip())
        if not m:
            raise InputError(f"cannot parse graph literal {text!r}")
        try:
            n = int(m.group(1))
            pairs = [(int(a), int(b)) for a, b in _PAIR_RE.findall(m.group(2))]
        except ValueError as exc:   # more digits than int() converts
            raise InputError("graph literal has a number too long to read") from exc
        if n > len(pairs) + 1:
            raise InputError(f"{n} vertices cannot be connected by {len(pairs)} edges")
        return cls.from_pairs(n, pairs)


class _WorkingGraph:
    """A copy of a reduction graph's incidence map that applies moves in
    place; the keys of ``incidence`` are the live vertices."""

    def __init__(self, g: ReductionGraph) -> None:
        self.incidence = {v: dict(around) for v, around in g._incidence.items()}
        self.degree = {v: sum(around.values()) + around.get(v, 0)
                       for v, around in self.incidence.items()}
        self.edge_count = len(g.edges)

    def is_reduced(self) -> bool:
        return len(self.incidence) == 1 and not self.edge_count

    def delete_loops(self, edge, count) -> None:
        """Delete count loops at one vertex in one step: loop deletions
        commute, and each changes only the degree of its vertex."""
        u, v = edge
        around = self.incidence.get(u)
        if u != v or around is None or around.get(u, 0) < count:
            raise InputError(f"{edge} is not a loop of this graph")
        if around[u] > count:
            around[u] -= count
        else:
            around.pop(u)
        self.degree[u] -= 2 * count
        self.edge_count -= count

    def contract(self, edge) -> dict:
        """Merge gone into the smaller label keep: parallel copies of the
        edge become loops, and loops at gone move to keep.  Returns gone's
        other neighbours, whose edges now end at keep."""
        keep, gone = edge
        incidence, degree = self.incidence, self.degree
        if keep >= gone or keep not in incidence or gone not in incidence[keep]:
            raise InputError(f"{edge} is not a non-loop edge of this graph")
        if degree[keep] != 2 and degree[gone] != 2:
            raise InputError(f"contraction of {edge} needs an endpoint of valence 2")
        kept = incidence[keep]
        absorbed = incidence.pop(gone)
        absorbed.pop(keep)
        loops = kept.pop(gone) - 1 + absorbed.pop(gone, 0)
        for w, count in absorbed.items():
            around = incidence[w]
            around.pop(gone)
            around[keep] = around.get(keep, 0) + count
            kept[w] = kept.get(w, 0) + count
        if loops:
            kept[keep] = kept.get(keep, 0) + loops
        degree[keep] += degree.pop(gone) - 2
        self.edge_count -= 1
        return absorbed


def reduction_certificate(g: ReductionGraph):
    """A replayable move sequence reducing g to a bare vertex, or None.

    Moves are ('delete_loop', (v, v)) and ('contract', (u, v)), named by
    the labels current when the move fires.  The move system has one
    normal form, so taking the first available move at each step, the
    least looped vertex, else the least contractible edge, never loses a
    reduction: the answer is None only when no move applies.  The c loops
    at a vertex are deleted as one run, recorded as c copies of one move.
    """
    work = _WorkingGraph(g)
    incidence, degree = work.incidence, work.degree
    moves = []

    def clear_loops(v) -> None:
        move = ("delete_loop", (v, v))
        loops = incidence[v][v]
        work.delete_loops(move[1], loops)
        moves.extend([move] * loops)

    for v in sorted(v for v, around in incidence.items() if v in around):
        clear_loops(v)
    contractible = [(u, v) for u, around in incidence.items() for v in around
                    if u < v and 2 in (degree[u], degree[v])]
    heapify(contractible)
    while not work.is_reduced():
        while contractible:
            u, v = contractible[0]
            if u in incidence and v in incidence[u] and 2 in (degree[u], degree[v]):
                break
            heappop(contractible)
        else:
            return None
        for w in work.contract((u, v)):
            if degree[w] == 2:
                heappush(contractible, (min(u, w), max(u, w)))
        moves.append(("contract", (u, v)))
        if u in incidence[u]:
            clear_loops(u)
        if degree[u] == 2:   # queue the edges at u, which now has no loop
            for w in incidence[u]:
                heappush(contractible, (min(u, w), max(u, w)))
    return moves


def replay_certificate(g: ReductionGraph, moves) -> bool:
    """Check a certificate by applying its moves in order.

    A run of one loop deletion repeated, as the search emits it, is checked
    for its form once and applied in one step.  An equal move that is
    another object is checked on its own, so every move is held to the same
    checks, in the same order, as when the moves are applied one by one.
    """
    work = _WorkingGraph(g)
    run = loop = None   # the loop deletion repeated, and its checked edge
    count = 0           # copies of run read but not yet applied
    for move in moves:
        if move is run:
            count += 1
            continue
        if count:
            work.delete_loops(loop, count)
            count = 0
        try:
            kind, (u, v) = move
        except (TypeError, ValueError):
            raise InputError(f"certificate move {move!r} is not a kind and an edge") from None
        if not (isinstance(u, int) and isinstance(v, int)):
            raise InputError(f"certificate move {move!r} does not name two vertex labels")
        if kind == "contract":
            work.contract((u, v))
        elif kind == "delete_loop":
            run, loop, count = move, (u, v), 1
        else:
            raise InputError(f"unknown certificate move {kind!r}")
    if count:
        work.delete_loops(loop, count)
    return work.is_reduced()
