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
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

from .errors import InputError, StructureError

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
            verts = frozenset(range(n_or_vertices))
        else:
            verts = frozenset(n_or_vertices)
        edges = tuple(sorted(tuple(sorted(p)) for p in pairs))
        return cls(verts, edges)

    @classmethod
    def from_text(cls, text: str) -> "ReductionGraph":
        """Parse the literal form ``v=<n>; edges=(a,b)(c,d)...``."""
        m = _GRAPH_RE.match(text.strip())
        if not m:
            raise InputError(f"cannot parse graph literal {text!r}")
        n = int(m.group(1))
        pairs = [(int(a), int(b)) for a, b in _PAIR_RE.findall(m.group(2))]
        if n > len(pairs) + 1:
            raise InputError(f"{n} vertices cannot be connected by {len(pairs)} edges")
        for u, v in pairs:
            if u >= n or v >= n:
                raise InputError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
        return cls.from_pairs(n, pairs)

    def degree(self, v) -> int:
        d = 0
        for u, w in self.edges:
            if u == v:
                d += 1
            if w == v:
                d += 1
        return d

    def loops(self) -> list:
        return sorted({e for e in self.edges if e[0] == e[1]})

    def contractible(self) -> list:
        """Distinct non-loop edges with an endpoint of valence 2."""
        degree = Counter(end for edge in self.edges for end in edge)
        return sorted({(u, v) for u, v in self.edges if u != v and 2 in (degree[u], degree[v])})

    def delete_loop(self, edge) -> "ReductionGraph":
        u, v = edge
        if u != v or edge not in self.edges:
            raise InputError(f"{edge} is not a loop of this graph")
        edges = list(self.edges)
        edges.remove(edge)
        verts = self.vertices
        if not edges and len(verts) > 1:
            raise StructureError("deleting the loop disconnected the graph")
        # an isolated vertex can only be the final single vertex
        return ReductionGraph(verts, tuple(edges))

    def contract(self, edge) -> "ReductionGraph":
        """Contract a non-loop edge, merging into the smaller label.

        Parallel copies of the contracted edge become loops; loops at the
        absorbed vertex move to the surviving one.
        """
        u, v = edge
        if u == v or edge not in self.edges:
            raise InputError(f"{edge} is not a non-loop edge of this graph")
        if self.degree(u) != 2 and self.degree(v) != 2:
            raise InputError(f"contraction of {edge} needs an endpoint of valence 2")
        keep, gone = min(u, v), max(u, v)
        edges = list(self.edges)
        edges.remove(edge)
        renamed = []
        for a, b in edges:
            a = keep if a == gone else a
            b = keep if b == gone else b
            renamed.append(tuple(sorted((a, b))))
        return ReductionGraph(self.vertices - {gone}, tuple(sorted(renamed)))

    def is_reduced(self) -> bool:
        return len(self.vertices) == 1 and not self.edges


def reduction_certificate(g: ReductionGraph):
    """A replayable move sequence reducing g to a bare vertex, or None.

    Moves are ('delete_loop', (v, v)) and ('contract', (u, v)), named by
    the labels current when the move fires.  The move system has one
    normal form, so taking the first available move at each step never
    loses a reduction: the answer is None only when no move applies.
    """
    moves = []
    h = g
    while not h.is_reduced():
        loops = h.loops()
        if loops:
            moves.append(("delete_loop", loops[0]))
            h = h.delete_loop(loops[0])
            continue
        contractible = h.contractible()
        if not contractible:
            return None
        moves.append(("contract", contractible[0]))
        h = h.contract(contractible[0])
    return moves


def replay_certificate(g: ReductionGraph, moves) -> bool:
    """Check a certificate by applying its moves in order."""
    h = g
    for kind, edge in moves:
        if kind == "delete_loop":
            h = h.delete_loop(tuple(edge))
        elif kind == "contract":
            h = h.contract(tuple(edge))
        else:
            raise InputError(f"unknown certificate move {kind!r}")
    return h.is_reduced()


def is_fibred_special(g: ReductionGraph) -> bool:
    """Whether the special alternating piece with this graph is fibred."""
    return reduction_certificate(g) is not None


def is_fibred_homogeneous(pieces) -> bool:
    """Fibredness of a Murasugi sum: every summand must be fibred."""
    pieces = list(pieces)
    if not pieces:
        raise InputError("a Murasugi decomposition needs at least one piece")
    return all(is_fibred_special(p) for p in pieces)
