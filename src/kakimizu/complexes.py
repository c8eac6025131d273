"""Finite simplicial complexes given by their maximal simplices.

A complex here is a set of labelled vertices together with the family of
inclusion-maximal simplices.  Every Kakimizu complex is connected and flag
(determined by its 1-skeleton), so a complex is checked as it is made: one
assembler, :func:`_assemble`, takes candidate simplices as sorted tuples of
vertex indices with a table of labels, finds the maximal simplices as the
maximal cliques of the candidates' 1-skeleton and refuses a complex that is
not connected or not flag.  The module also recognises the shapes that
occur in knot tables (point, path, single simplex) and writes deterministic
DOT and JSON exports.

Two entry points end in the assembler.  :meth:`SimplicialComplex.from_maximal`
indexes labelled candidates once.  Both move calculi build their complexes
through :func:`pass_complex`: :func:`full_passes` finds the vertex sets
that the full passes from one state visit, walking each pass only from the
least state on its cycle, and :func:`pass_complex` hands the index sets of
the passes from every start to the assembler, so labels enter only the
finished complex.

The check runs on integer bitmasks: each vertex's neighbourhood is one
int, connectivity is a breadth-first search over those masks, and
Bron-Kerbosch with Tomita's pivot enumerates the maximal cliques over them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from json.encoder import encode_basestring_ascii as _quote

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


@dataclass(frozen=True, init=False)
class SimplicialComplex:
    """A connected flag complex: its vertices and its maximal simplices.

    Every complex is made by :func:`_assemble`, through :meth:`from_maximal`
    or :func:`pass_complex`, and it checks both properties, so every complex
    has them.
    """

    vertices: frozenset
    simplices: frozenset

    @classmethod
    def from_maximal(cls, candidates) -> "SimplicialComplex":
        """The complex the candidate simplices span, checked as it is made.

        Candidates may repeat or contain one another; an isolated vertex is
        passed as its own singleton.  The vertices are indexed once, in the
        order they first appear, and each candidate is keyed as the sorted
        tuple of its vertex indices for :func:`_assemble`, which raises
        StructureError unless the 1-skeleton is connected and the complex
        is flag.
        """
        index: dict = {}
        keys = set()
        for s in candidates:
            key = tuple(sorted({index.setdefault(v, len(index)) for v in s}))
            if key:
                keys.add(key)
        if not index:
            raise InputError("a simplicial complex needs at least one vertex")
        return _assemble(keys, list(index))


def _assemble(keys: set, labels) -> SimplicialComplex:
    """The checked complex with vertices `labels` whose candidate simplices
    are `keys`, each the sorted tuple of its vertex indices into `labels`.

    Every index must lie in some key; an isolated vertex is its own
    singleton.  StructureError is raised unless the 1-skeleton is connected
    and the complex is flag.  Labels are touched only to make the result.

    Every candidate is a clique, so it lies in a maximal clique, and a
    maximal clique that lies in a candidate equals it.  So a maximal clique
    that is not a candidate spans no simplex, and the complex is not flag;
    when every maximal clique is a candidate, the maximal cliques are
    exactly the maximal simplices.  The clique search (see
    :func:`_maximal_cliques`) therefore yields the simplices and stops at
    the first clique that is not a candidate.
    """
    adj = [0] * len(labels)
    for key in keys:
        mask = 0
        for i in key:
            mask |= 1 << i
        for i in key:
            adj[i] |= mask
    for i in range(len(adj)):
        adj[i] ^= 1 << i   # every vertex lies in a candidate, so bit i is set
    seen = frontier = 1
    while frontier:
        reach = 0
        for i in _bits(frontier):
            reach |= adj[i]
        frontier = reach & ~seen
        seen |= frontier
    if seen != (1 << len(adj)) - 1:
        raise StructureError("Kakimizu complex must be connected")

    def simplex(clique):
        if tuple(sorted(clique)) not in keys:
            raise StructureError("Kakimizu complex must be a flag complex")
        return frozenset([labels[i] for i in clique])
    c = object.__new__(SimplicialComplex)
    object.__setattr__(c, "simplices", frozenset(map(simplex, _maximal_cliques(adj))))
    object.__setattr__(c, "vertices", frozenset(labels))
    return c


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
    neighbourhood of the lowest vertex of P | X with most neighbours in P.
    No vertex has more than |P| neighbours in P, and none of P more than
    |P| - 1, so the scan for the pivot stops at the first vertex that
    reaches the bound, which a full scan would pick too.  Vertex i is bit i
    of the masks P and X, and a clique R is the tuple of its vertices.
    Open branches wait on an explicit stack as [R, P, X, vertices left to
    try], one per vertex of R, and each child is made when its turn comes.
    """
    def branch(r, p, x):
        if not p:
            return [r, p, x, 0]
        # the lowest of the vertices with most neighbours in p
        most = -1
        bound = p.bit_count() - (not x)
        rest = p | x
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            n = (p & adj[u]).bit_count()
            if n > most:
                most, pivot = n, u
                if n == bound:
                    break
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


def full_passes(start, moves, step, label) -> frozenset:
    """Label sets visited by the full passes of `moves` from `start` that
    visit no state below it; states need a total order ``<`` (surface
    tuples for 2-bridge, interned indices for theta).

    A full pass applies every move once, each applicable when its turn
    comes: ``step(state, move)`` is the next state, or None where the move
    does not apply.  Band moves flip bits and region moves add signs, so
    the state after a set M of moves is ``start XOR flank(M)`` or
    ``w0 + signs(M)`` whatever the order; only applicability depends on it.
    The walk therefore runs over the 2^n subsets of moves, not the n!
    orderings: layer k maps each mask of k moves that an applicable ordering
    reaches to its state and the visited sets of those orderings.
    StructureError is raised when two orderings reach one mask in different
    states, or when the full mask does not return to `start`.  A step below
    `start` is checked against its mask's state, then dropped.  A mask's
    label singleton is made once, when the mask is first reached.

    A full pass is a cycle of states.  Rotating its move order gives a full
    pass from every state on the cycle (each move meets the state it met
    before), and every rotation visits the same set.  The rotation from the
    least state visits nothing below its start, so the walk from there
    keeps it, order checks included: the union over all starts is unchanged.
    """
    moves = tuple(moves)
    # mask -> (state, visited sets, label singleton or None below start)
    layer = {0: (start, {frozenset([label(start)])}, None)}
    for _ in moves:
        nxt: dict = {}
        for mask, (state, seen, _) in layer.items():
            if not seen:
                continue   # the state of this mask is below start
            for i, move in enumerate(moves):
                after = None if mask >> i & 1 else step(state, move)
                if after is None:
                    continue
                target = mask | 1 << i
                entry = nxt.get(target)
                if entry is None:
                    here = None if after < start else frozenset([label(after)])
                    entry = nxt[target] = (after, set(), here)
                elif entry[0] != after:
                    raise StructureError("the state after a set of moves depends on their order")
                here = entry[2]
                if here is not None:
                    entry[1].update(v | here for v in seen)
        layer = nxt
    end, seen, _ = layer.get((1 << len(moves)) - 1, (start, (), None))
    if end != start:
        raise StructureError("a full pass must return to its start")
    return frozenset(seen)


def pass_complex(starts, moves, step, label, names) -> SimplicialComplex:
    """The checked complex spanned by the full passes from every start.

    ``label(state)`` is the index of the state's vertex in `names`.  Each
    pass runs on these indices once, from the least state on its cycle (see
    :func:`full_passes`), since `starts` holds every state a pass can visit.
    The candidates handed to :func:`_assemble` are the sorted index tuples
    of every vertex as a singleton, so vertices no pass visits stay in the
    complex, and of each visited set; `names` is the label table, and labels
    enter only the finished complex.
    """
    moves = tuple(moves)
    visited: set = set()
    for start in starts:
        visited |= full_passes(start, moves, step, label)
    keys = {(i,) for i in range(len(names))}
    keys.update(tuple(sorted(s)) for s in visited)
    return _assemble(keys, names)


# the representative of a shape literal is built and checked like any
# computed complex: simplex(999) / simplex(1999) / simplex(3999) take
# 0.01 / 0.04 / 0.13 s, path(1000) / path(16000) / path(32000) 0.01 / 0.27
# / 1.06 s, through a batch row with the bound lifted (best of four runs,
# Python 3.11 on one core of a shared VM); the bound stays, since the
# adjacency masks of path(n) hold about n^2 / 2 bits (path(32000) peaked
# at 106 MB); the shipped tables' largest literal is path(6)
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
        # every complex is connected, so this one is a tree: a path unless a
        # vertex lies on three edges
        if max(Counter(v for s in c.simplices for v in s).values()) == 2:
            return ComplexShape.path(n)
    return ComplexShape("explicit", n)


def rendered(c: SimplicialComplex) -> dict:
    """The sorted vertex texts and the sorted maximal simplices, each a
    sorted list of vertex texts: the fields every report of c renders."""
    text = {v: label_text(v) for v in c.vertices}
    return {"vertices": sorted(text.values()),
            "maximal_simplices": sorted(sorted(text[v] for v in s) for s in c.simplices)}


def to_json(c: SimplicialComplex) -> str:
    """Canonical JSON with sorted vertices and sorted maximal simplices.

    The text is written directly, each label quoted by the encoder
    ``json.dumps`` uses, and equals ``json.dumps(rendered(c), indent=2,
    sort_keys=True) + "\\n"``; every list is non-empty, since a complex has
    a vertex and every simplex one.
    """
    r = rendered(c)
    simplices = ",\n".join("    [\n" + ",\n".join("      " + _quote(v) for v in s) + "\n    ]"
                           for s in r["maximal_simplices"])
    vertices = ",\n".join("    " + _quote(v) for v in r["vertices"])
    return ('{\n  "maximal_simplices": [\n' + simplices + '\n  ],\n  "vertices": [\n'
            + vertices + "\n  ]\n}\n")


def to_dot(c: SimplicialComplex) -> str:
    """Deterministic DOT: one node per vertex, one edge per 1-simplex.

    Both are read off :func:`rendered`: the edges are the pairs of each
    maximal simplex's sorted texts, without repeats.  Maximal simplices of
    dimension two or more are annotated as comments so that filled cliques
    survive the drop to the 1-skeleton.
    """
    r = rendered(c)
    edges = {pair for s in r["maximal_simplices"] for pair in combinations(s, 2)}
    lines = ["graph kakimizu {", "  node [shape=circle];"]
    lines += [f'  "{v}";' for v in r["vertices"]]
    lines += [f'  "{a}" -- "{b}";' for a, b in sorted(edges)]
    lines += ["  // filled simplex: " + " ".join(s) for s in r["maximal_simplices"] if len(s) >= 3]
    lines.append("}")
    return "\n".join(lines) + "\n"
