"""Finite simplicial complexes given by their maximal simplices.

A complex here is a set of labelled vertices together with the family of
inclusion-maximal simplices.  Every Kakimizu complex is connected and flag
(determined by its 1-skeleton), so the module provides the check of both,
recognition of the shapes that occur in knot tables (point, path, single
simplex), and deterministic DOT and JSON exports.

Both move calculi build their complexes here.  :func:`full_passes` finds
the vertex sets that the full passes from one state visit, and
:func:`pass_complex` assembles the passes from every start into a complex
and runs the connected/flag check that every build ends with.

The flag test and the connectivity test share one kernel on integer
bitmasks: vertices are indexed once, each vertex's neighbourhood is one
int, Bron-Kerbosch with Tomita's pivot enumerates the maximal cliques over
those masks, and connectivity is a breadth-first search over them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .errors import InputError, StructureError

Label = object


def label_text(label: Label) -> str:
    """Render a vertex label as deterministic text.

    Strings pass through; tuples of integers print as ``(a,b,c)`` without
    whitespace, which is the form used for surface tuples and weight vectors.
    """
    if isinstance(label, str):
        return label
    if isinstance(label, tuple):
        return "(" + ",".join(str(x) for x in label) + ")"
    return str(label)


@dataclass(frozen=True)
class SimplicialComplex:
    """Vertices plus the antichain of maximal simplices covering them."""

    vertices: frozenset
    simplices: frozenset

    def __post_init__(self) -> None:
        if not self.vertices:
            raise InputError("a simplicial complex needs at least one vertex")
        for s in self.simplices:
            if not s:
                raise InputError("empty maximal simplex")
            if not s <= self.vertices:
                raise InputError(f"simplex {sorted(map(label_text, s))} not within vertex set")
        if len(_maximal(self.simplices)) < len(self.simplices):
            raise InputError("maximal simplices must form an antichain")
        covered = frozenset().union(*self.simplices) if self.simplices else frozenset()
        if covered != self.vertices:
            raise InputError("every vertex must lie in at least one maximal simplex")

    @classmethod
    def from_maximal(cls, simplices: Iterable[Iterable[Label]]) -> "SimplicialComplex":
        """Build a complex from candidate simplices.

        Simplices contained in others are absorbed; an isolated vertex is
        passed as its own singleton.
        """
        sims = {frozenset(s) for s in simplices}
        sims.discard(frozenset())
        verts = set().union(*sims) if sims else set()
        if not verts:
            raise InputError("a simplicial complex needs at least one vertex")
        return cls(frozenset(verts), frozenset(_maximal(sims)))

    def sorted_vertices(self) -> list:
        return sorted(self.vertices, key=label_text)

    def one_skeleton(self) -> set:
        """All 1-simplices, as frozenset pairs."""
        edges = set()
        for s in self.simplices:
            edges.update(frozenset(p) for p in combinations(s, 2))
        return edges

    def degrees(self) -> dict:
        deg = {v: 0 for v in self.vertices}
        for e in self.one_skeleton():
            for v in e:
                deg[v] += 1
        return deg


def _maximal(sims) -> list:
    """The sets among the distinct `sims` that no other one strictly contains.

    One inverted index maps every vertex to the bitmask of the sets that
    hold it.  The AND of those masks over a set's vertices is the set of
    its supersets, itself included; the sets being distinct, any other bit
    is a strict superset.  A single set needs no index.
    """
    sims = list(sims)
    if len(sims) < 2:
        return sims
    holders: dict = {}
    bit = 1
    for s in sims:
        for v in s:
            holders[v] = holders.get(v, 0) | bit
        bit <<= 1
    maximal = []
    bit = 1
    for s in sims:
        supersets = -1
        for v in s:
            supersets &= holders[v]
        if supersets == bit:
            maximal.append(s)
        bit <<= 1
    return maximal


def _bits(mask: int):
    """The positions of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _maximal_cliques(adj: list):
    """Yield every maximal clique of the graph with adjacency masks `adj`.

    Bron-Kerbosch with Tomita's pivot (Tomita, Tanaka, Takahashi, TCS 363,
    2006): a branch (R, P, X) tries only the vertices of P outside the
    neighbourhood of the vertex of P | X with most neighbours in P.  Vertex i
    is bit i of the masks P and X, and a clique R is the tuple of its
    vertices.  Open branches wait on an explicit stack as [R, P, X, vertices
    left to try], one per vertex of R, and each child is made when its turn
    comes.
    """
    def branch(r, p, x):
        if not p:
            return [r, p, x, 0]
        pivot = max(_bits(p | x), key=lambda u: (p & adj[u]).bit_count())
        return [r, p, x, p & ~adj[pivot]]

    stack = [branch((), (1 << len(adj)) - 1, 0)]
    while stack:
        frame = stack[-1]
        r, p, x, todo = frame
        if not todo:
            stack.pop()
            if not p and not x:
                yield r
            continue
        bit = todo & -todo
        v = bit.bit_length() - 1
        frame[1:] = p ^ bit, x | bit, todo ^ bit
        stack.append(branch(r + (v,), p & adj[v], x & adj[v]))


def _adjacency(c: SimplicialComplex) -> tuple:
    """The index of each vertex of c in sorted order, and the adjacency masks."""
    index = {v: i for i, v in enumerate(c.sorted_vertices())}
    adj = [0] * len(index)
    for s in c.simplices:
        ids = [index[v] for v in s]
        mask = 0
        for i in ids:
            mask |= 1 << i
        for i in ids:
            adj[i] |= mask
    for i in range(len(adj)):
        adj[i] ^= 1 << i   # every vertex lies in a simplex, so bit i is set
    return index, adj


def is_flag(c: SimplicialComplex) -> bool:
    """True when the complex equals the flag closure of its own 1-skeleton.

    Every simplex is a clique of the 1-skeleton and so lies in a maximal
    clique.  If every maximal clique is a simplex, each simplex lies in a
    simplex that is a maximal clique, which is the simplex itself because
    the maximal simplices form an antichain: the maximal simplices are then
    exactly the maximal cliques, which is flagness; conversely, in a flag
    complex every maximal clique is a simplex.  So the clique search stops
    at the first maximal clique that is not a simplex.
    """
    index, adj = _adjacency(c)
    sims = {frozenset([index[v] for v in s]) for s in c.simplices}
    return all(frozenset(q) in sims for q in _maximal_cliques(adj))


def is_connected(c: SimplicialComplex) -> bool:
    """True when the 1-skeleton is connected, by a breadth-first search over masks."""
    _, adj = _adjacency(c)
    seen = frontier = 1
    while frontier:
        reach = 0
        for i in _bits(frontier):
            reach |= adj[i]
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << len(adj)) - 1


def check_complex(c: SimplicialComplex) -> None:
    """Raise StructureError unless c is connected and flag, as Kakimizu complexes are."""
    if not is_connected(c):
        raise StructureError("Kakimizu complex must be connected")
    if not is_flag(c):
        raise StructureError("Kakimizu complex must be a flag complex")


def full_passes(start, moves, step, label) -> frozenset:
    """Label sets visited by the full passes of `moves` from `start`.

    A full pass applies every move once, each applicable when its turn
    comes: ``step(state, move)`` is the next state, or None where the move
    does not apply.  The result holds, once each, the sets of labels of the
    states that passes visit; it is empty when no ordering applies.

    Band moves flip bits and region moves add signs, so the state after a
    set M of moves is ``start XOR flank(M)`` or ``w0 + signs(M)`` whatever
    the order; only applicability depends on it.  The walk therefore runs
    over the 2^n subsets of moves, not the n! orderings: layer k maps each
    mask of k moves that an applicable ordering reaches to its state and
    the visited sets of those orderings.  StructureError is raised when two
    orderings reach one mask in different states, or when the full mask
    does not return to `start`.
    """
    moves = tuple(moves)
    layer = {0: (start, {frozenset([label(start)])})}
    for _ in moves:
        nxt: dict = {}
        for mask, (state, seen) in layer.items():
            for i, move in enumerate(moves):
                after = None if mask >> i & 1 else step(state, move)
                if after is None:
                    continue
                reached, sets = nxt.setdefault(mask | 1 << i, (after, set()))
                if reached != after:
                    raise StructureError("the state after a set of moves depends on their order")
                here = frozenset([label(after)])
                sets.update(v | here for v in seen)
        layer = nxt
    end, seen = layer.get((1 << len(moves)) - 1, (start, ()))
    if end != start:
        raise StructureError("a full pass must return to its start")
    return frozenset(seen)


def pass_complex(starts, moves, step, label, names) -> SimplicialComplex:
    """The checked complex spanned by the full passes from every start.

    ``label(state)`` is the index of the state's vertex in `names`.  The
    passes from each start run on these indices (see :func:`full_passes`);
    every vertex is added as a singleton, so vertices no pass visits stay
    in the complex, and the index sets are mapped to `names` once, for the
    assembly.  The result must come out connected and flag.
    """
    moves = tuple(moves)
    visited = {frozenset([i]) for i in range(len(names))}
    for start in starts:
        visited |= full_passes(start, moves, step, label)
    simplices = [frozenset([names[i] for i in s]) for s in visited]
    del visited   # not needed for the assembly, which peaks in memory
    complex_ = SimplicialComplex.from_maximal(simplices)
    check_complex(complex_)
    return complex_


# the representative of a shape literal is built and checked like any
# computed complex: simplex(999) / simplex(1999) / simplex(3999) take
# 0.29 / 1.6 / 8.5 s, path(1000) / path(16000) / path(32000) 0.02 / 1.0 /
# 2.9 s, through a batch row (Python 3.11 on one core of a shared VM); the
# shipped tables' largest literal is path(6)
MAX_SHAPE_VERTICES = 1000


@dataclass(frozen=True)
class ComplexShape:
    """Shape of a complex: point, path(n), simplex(d), or explicit(n) for any
    other complex on n vertices.

    Constructors normalise the overlaps path(1) = point, path(2) = simplex(1)
    and simplex(0) = point, so equal shapes compare equal.  Shape literals
    parse only to named shapes, and :func:`recognize` names every point,
    path and simplex, so an explicit shape never equals an expected one.
    """

    kind: str
    size: int = 0

    @classmethod
    def point(cls) -> "ComplexShape":
        return cls("point")

    @classmethod
    def path(cls, n: int) -> "ComplexShape":
        if n < 1:
            raise InputError("path needs at least one vertex")
        if n == 1:
            return cls.point()
        if n == 2:
            return cls.simplex(1)
        return cls("path", n)

    @classmethod
    def simplex(cls, d: int) -> "ComplexShape":
        if d < 0:
            raise InputError("simplex dimension must be non-negative")
        if d == 0:
            return cls.point()
        return cls("simplex", d)

    @classmethod
    def parse(cls, text: str) -> "ComplexShape":
        """Parse a shape literal: ``point``, ``path(n)`` or ``simplex(d)``."""
        text = text.strip()
        if text == "point":
            return cls.point()
        for name, ctor in (("path", cls.path), ("simplex", cls.simplex)):
            if text.startswith(name + "(") and text.endswith(")"):
                try:
                    size = int(text[len(name) + 1:-1])
                except ValueError as exc:
                    raise InputError(f"bad shape literal {text!r}") from exc
                # path(n) has n vertices, simplex(d) has d + 1
                if size + (name == "simplex") > MAX_SHAPE_VERTICES:
                    raise InputError(f"shape literal {text!r} has more than "
                                     f"{MAX_SHAPE_VERTICES} vertices")
                return ctor(size)
        raise InputError(f"unknown shape literal {text!r}")

    def __str__(self) -> str:
        if self.kind in ("path", "simplex"):
            return f"{self.kind}({self.size})"
        if self.kind == "explicit":
            return f"explicit({self.size} vertices)"
        return self.kind

    def as_complex(self, prefix: str = "T") -> SimplicialComplex:
        """A representative complex of this named shape with labels T1, T2, ..."""
        if self.kind == "point":
            return SimplicialComplex.from_maximal([[f"{prefix}1"]])
        if self.kind == "simplex":
            verts = [f"{prefix}{i}" for i in range(1, self.size + 2)]
            return SimplicialComplex.from_maximal([verts])
        if self.kind == "path":
            verts = [f"{prefix}{i}" for i in range(1, self.size + 1)]
            return SimplicialComplex.from_maximal(
                [[verts[i], verts[i + 1]] for i in range(self.size - 1)])
        raise StructureError(f"{self} has no representative complex")


def recognize(c: SimplicialComplex) -> ComplexShape:
    """Name the shape of a complex when it is a point, path or single simplex."""
    n = len(c.vertices)
    if n == 1:
        return ComplexShape.point()
    if len(c.simplices) == 1:
        (s,) = c.simplices
        if len(s) == n:
            return ComplexShape.simplex(n - 1)
    if all(len(s) == 2 for s in c.simplices) and len(c.simplices) == n - 1:
        degs = sorted(c.degrees().values())
        if degs == [1, 1] + [2] * (n - 2) and is_connected(c):
            return ComplexShape.path(n)
    return ComplexShape("explicit", n)


def rendered(c: SimplicialComplex) -> dict:
    """The sorted vertex texts and the sorted maximal simplices, each a
    sorted list of vertex texts: the fields every report of c renders."""
    text = {v: label_text(v) for v in c.vertices}
    return {"vertices": sorted(text.values()),
            "maximal_simplices": sorted(sorted(text[v] for v in s) for s in c.simplices)}


def to_json(c: SimplicialComplex) -> str:
    """Canonical JSON with sorted vertices and sorted maximal simplices."""
    return json.dumps(rendered(c), indent=2, sort_keys=True) + "\n"


def to_dot(c: SimplicialComplex) -> str:
    """Deterministic DOT: one node per vertex, one edge per 1-simplex.

    Maximal simplices of dimension two or more are annotated as comments so
    that filled cliques survive the drop to the 1-skeleton.
    """
    text = {v: label_text(v) for v in c.vertices}
    lines = ["graph kakimizu {", "  node [shape=circle];"]
    for v in sorted(text.values()):
        lines.append(f'  "{v}";')
    for e in sorted(sorted(text[v] for v in e) for e in c.one_skeleton()):
        lines.append(f'  "{e[0]}" -- "{e[1]}";')
    for s in sorted(sorted(text[v] for v in s) for s in c.simplices):
        if len(s) >= 3:
            lines.append("  // filled simplex: " + " ".join(s))
    lines.append("}")
    return "\n".join(lines) + "\n"
