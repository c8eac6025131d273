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

A ``ReductionGraph`` is a validated, immutable input with no move methods:
moves run only through :func:`reduction_certificate`, which finds them, and
:func:`replay_certificate`, which checks them.  Both apply them to one
mutable working graph, built once per call, which rejects a malformed or
illegal move with ``InputError``.  Connectivity is checked once, when the
``ReductionGraph`` is built, and never per move, because neither move can
disconnect the graph: a loop is never a bridge, and a contraction merges the
two ends of an edge, so every path through either end becomes a path through
the merged vertex.

The search finds its next move on two lazy heaps, vertices with loops and
non-loop edges that may be contractible.  A move pushes an entry only for an
edge it renames or for an end it drops to valence 2, and a stale entry is
discarded once, when it reaches the top.  So a loop deletion never pushes
onto the loop heap, and the search deletes all c loops at its least looped
vertex as one run.  A run costs O(log E) for E edges, plus the degree of its
vertex if that drops to valence 2, plus c list slots for its c equal moves in
the certificate.  A contraction costs O(log E) plus the degree of the
absorbed vertex, whose edges are renamed to the surviving label.  The replay
checks a run of one move object repeated, as the search emits it, once for
its form and once against the loops at its vertex, and applies it in one
step; reading the run costs one loop step per move.  It applies every other
move on its own.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .errors import InputError

_GRAPH_RE = re.compile(r"^\s*v\s*=\s*(\d+)\s*;\s*edges\s*=\s*((?:\(\s*\d+\s*,\s*\d+\s*\))*)\s*$")
_PAIR_RE = re.compile(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)")


@dataclass(frozen=True)
class ReductionGraph:
    """A connected multigraph with loops, on integer-labelled vertices."""

    vertices: frozenset
    edges: tuple  # sorted (u, v) pairs with u <= v, repeats for multi-edges

    def __post_init__(self) -> None:
        if not self.vertices:
            raise InputError("reduction graph needs at least one vertex")
        for u, v in self.edges:
            if u not in self.vertices or v not in self.vertices:
                raise InputError(f"edge ({u},{v}) touches an unknown vertex")
            if u > v:
                raise InputError("edges must be stored with u <= v")
        self._check_connected()

    def _check_connected(self) -> None:
        verts = set(self.vertices)
        start = min(verts)
        seen = {start}
        stack = [start]
        adj: dict = {v: set() for v in verts}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if seen != verts:
            raise InputError("reduction graph must be connected")

    @classmethod
    def from_pairs(cls, n_or_vertices, pairs) -> "ReductionGraph":
        if isinstance(n_or_vertices, int):
            n_or_vertices = range(n_or_vertices)
        return cls(frozenset(n_or_vertices), tuple(sorted(tuple(sorted(p)) for p in pairs)))

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
        for u, v in pairs:
            if u >= n or v >= n:
                raise InputError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
        return cls.from_pairs(n, pairs)


class _WorkingGraph:
    """A reduction graph that applies moves in place.

    ``incidence[v]`` counts the edges from v to each neighbour, a loop at v
    once under v itself; the keys of ``incidence`` are the live vertices.
    """

    def __init__(self, g: ReductionGraph) -> None:
        incidence = {v: {} for v in g.vertices}
        degree = dict.fromkeys(g.vertices, 0)
        for u, v in g.edges:
            incidence[u][v] = incidence[u].get(v, 0) + 1
            if u != v:
                incidence[v][u] = incidence[v].get(u, 0) + 1
            degree[u] += 1
            degree[v] += 1
        self.incidence = incidence
        self.degree = degree
        self.edge_count = len(g.edges)
        self.looped = [v for v, around in incidence.items() if v in around]
        self.contractible = [(u, v) for u, around in incidence.items() for v in around
                             if u < v and 2 in (degree[u], degree[v])]
        heapify(self.looped)
        heapify(self.contractible)

    def is_reduced(self) -> bool:
        return len(self.incidence) == 1 and not self.edge_count

    def next_move(self):
        """The first sorted loop, else the first sorted contractible edge."""
        incidence, degree = self.incidence, self.degree
        looped, contractible = self.looped, self.contractible
        while looped:
            v = looped[0]
            if v in incidence and v in incidence[v]:
                return "delete_loop", (v, v)
            heappop(looped)
        while contractible:
            u, v = contractible[0]
            if u in incidence and v in incidence[u] and 2 in (degree[u], degree[v]):
                return "contract", (u, v)
            heappop(contractible)
        return None

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
        if self.degree[u] == 2:
            self._offer(u)

    def contract(self, edge) -> None:
        """Merge gone into the smaller label keep: parallel copies of the
        edge become loops, and loops at gone move to keep."""
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
            if degree[w] == 2:
                heappush(self.contractible, (min(keep, w), max(keep, w)))
        if loops:
            kept[keep] = kept.get(keep, 0) + loops
            heappush(self.looped, keep)
        degree[keep] += degree.pop(gone) - 2
        self.edge_count -= 1
        if degree[keep] == 2:
            self._offer(keep)

    def _offer(self, v) -> None:
        """Queue the non-loop edges at v, which has just reached valence 2."""
        for w in self.incidence[v]:
            if w != v:
                heappush(self.contractible, (min(v, w), max(v, w)))


def reduction_certificate(g: ReductionGraph):
    """A replayable move sequence reducing g to a bare vertex, or None.

    Moves are ('delete_loop', (v, v)) and ('contract', (u, v)), named by
    the labels current when the move fires.  The move system has one
    normal form, so taking the first available move at each step never
    loses a reduction: the answer is None only when no move applies.
    The c loops at a vertex are deleted as one run, recorded as c copies
    of one move.
    """
    work = _WorkingGraph(g)
    moves = []
    while not work.is_reduced():
        move = work.next_move()
        if move is None:
            return None
        kind, edge = move
        if kind == "contract":
            work.contract(edge)
            moves.append(move)
        else:
            v = edge[0]
            loops = work.incidence[v][v]
            work.delete_loops(edge, loops)
            moves += [move] * loops
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
