"""Finite simplicial complexes given by their maximal simplices.

A complex here is a table of vertex labels together with the family of
inclusion-maximal simplices, each the sorted tuple of its vertices' indices
into the table.  Every Kakimizu complex is connected and flag (determined
by its 1-skeleton), so a complex is checked as it is made: one assembler,
:func:`assemble`, takes the candidate simplices as index masks, finds the
maximal simplices as the maximal cliques of the candidates' 1-skeleton and
refuses a complex that is not connected or not flag.  The module also
recognises the shapes that occur in knot tables (point, path, single
simplex) and writes deterministic DOT and JSON exports.

A set of vertex indices is an int with bit i for vertex i.  The assembler
keys each mask as the pair ``(low, mask >> low)``, where low is its least
index, so a key is as wide as its simplex's span of indices, not as the
vertex count; a singleton {i} is ``(i, 1)``.

Every builder ends in the assembler.
:meth:`SimplicialComplex.from_maximal` indexes labelled candidates once;
the 2-bridge and theta builds (:func:`kakimizu.twobridge.build_complex`,
:func:`kakimizu.thetagraph.build_complex`) walk their passes on vertex
indices and hand over the visited index masks.

The assembler runs on integer bitmasks too: each vertex's neighbourhood is
one int, connectivity is a breadth-first search over those masks, and
Bron-Kerbosch with Tomita's pivot, run from each vertex, enumerates the
maximal cliques over them.
The finished complex holds the label table and the index tuples; its
``vertices`` and ``simplices`` are read-only label views, whose length is
known without making a label set.  Labels become text only in the exports,
which rank the vertex texts once and sort tuples of ranks.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Set
from dataclasses import dataclass
from itertools import combinations
from json.encoder import encode_basestring_ascii as _quote

from .errors import InputError, StructureError
from .rational import parse_int

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


class _LabelView(Set):
    """A read-only set of labels, or of label frozensets, read off a
    complex's index tuples.

    Its length is the number of indices or tuples, so ``len`` makes no
    label set; any other use makes the frozenset of members once and keeps
    it.  It compares and hashes as that frozenset, and set operations on it
    return frozensets.
    """

    __slots__ = ("_size", "_make", "_members")
    _from_iterable = frozenset

    def __init__(self, size: int, make) -> None:
        self._size, self._make, self._members = size, make, None

    def _all(self) -> frozenset:
        if self._members is None:
            self._members = frozenset(self._make())
        return self._members

    def __len__(self) -> int:
        return self._size

    def __iter__(self):
        return iter(self._all())

    def __contains__(self, item) -> bool:
        return item in self._all()

    def __hash__(self) -> int:
        return hash(self._all())

    def __repr__(self) -> str:
        # a copy, as frozenset(view) makes it: a set's order depends on the
        # order its members were added in, so the stored set may print
        # differently
        return repr(frozenset(self))


class SimplicialComplex:
    """A connected flag complex: its label table and its maximal simplices.

    ``labels`` is the tuple of vertex labels and ``maximal`` the tuple of
    maximal simplices, each the sorted tuple of its vertices' indices into
    ``labels``.  ``vertices`` (the labels) and ``simplices`` (each maximal
    simplex as a frozenset of labels) are read-only views of them, and
    complexes compare and hash by those views.

    Every complex is made by :func:`assemble`, through :meth:`from_maximal`
    or a 2-bridge or theta build, and it checks both properties,
    so every complex has them; the class takes no constructor arguments and
    its attributes cannot be set.
    """

    __slots__ = ("labels", "maximal", "vertices", "simplices")

    def __setattr__(self, name, value):
        raise AttributeError("a SimplicialComplex cannot be changed")

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.vertices == other.vertices and self.simplices == other.simplices

    def __hash__(self) -> int:
        return hash((self.vertices, self.simplices))

    def __repr__(self) -> str:
        return f"SimplicialComplex(vertices={self.vertices!r}, simplices={self.simplices!r})"

    @classmethod
    def from_maximal(cls, candidates) -> "SimplicialComplex":
        """The complex the candidate simplices span, checked as it is made.

        Candidates may repeat or contain one another; an isolated vertex is
        passed as its own singleton.  The vertices are indexed once, in the
        order they first appear, and each non-empty candidate becomes the
        mask of its vertex indices for :func:`assemble`, which raises
        StructureError unless the 1-skeleton is connected and the complex
        is flag.
        """
        index: dict = {}
        masks = set()
        for s in candidates:
            mask = 0
            for v in s:
                mask |= 1 << index.setdefault(v, len(index))
            if mask:   # an empty candidate has no key: _key(0) shifts by -1
                masks.add(mask)
        if not index:
            raise InputError("a simplicial complex needs at least one vertex")
        return assemble(masks, list(index))


def _key(mask: int) -> tuple:
    """The key ``(low, mask >> low)`` of a non-empty index mask, where low
    is its least index."""
    low = (mask & -mask).bit_length() - 1
    return low, mask >> low


def assemble(masks, labels) -> SimplicialComplex:
    """The checked complex with vertices `labels` whose candidate simplices
    are every vertex as a singleton and the non-empty index masks `masks`,
    on indices into `labels`.

    The masks are held by their keys (see :func:`_key`), so a repeated
    mask is kept once; the singletons are not stored, since a vertex adds
    no edge and a single vertex is always a candidate.  StructureError is
    raised unless the 1-skeleton is connected and the complex is flag.  Labels are only
    stored: the complex keeps the label table and each maximal simplex as
    a sorted index tuple.

    Every candidate is a clique, so it lies in a maximal clique, and a
    maximal clique that lies in a candidate equals it.  So a maximal clique
    that is not a candidate spans no simplex, and the complex is not flag;
    when every maximal clique is a candidate, the maximal cliques are
    exactly the maximal simplices.  The clique search (see
    :func:`_maximal_cliques`) therefore yields the simplices and stops at
    the first clique whose key is not a candidate's.
    """
    keys = set(map(_key, masks))
    adj = [0] * len(labels)
    for low, rest in keys:
        mask = rest << low
        while rest:
            bit = rest & -rest
            adj[low + bit.bit_length() - 1] |= mask
            rest ^= bit
    for i in range(len(adj)):
        adj[i] &= ~(1 << i)   # no vertex is its own neighbour
    seen = frontier = 1
    while frontier:
        reach = 0
        for i in _bits(frontier):
            reach |= adj[i]
        frontier = reach & ~seen
        seen |= frontier
    if seen != (1 << len(adj)) - 1:
        raise StructureError("Kakimizu complex must be connected")

    maximal = []
    for clique, mask in _maximal_cliques(adj):
        if len(clique) > 1 and _key(mask) not in keys:   # each vertex is a candidate
            raise StructureError("Kakimizu complex must be a flag complex")
        maximal.append(tuple(sorted(clique)))
    labels, maximal = tuple(labels), tuple(maximal)
    c = object.__new__(SimplicialComplex)
    object.__setattr__(c, "labels", labels)
    object.__setattr__(c, "maximal", maximal)
    object.__setattr__(c, "vertices", _LabelView(len(labels), lambda: labels))
    object.__setattr__(c, "simplices", _LabelView(len(maximal), lambda: (
        frozenset([labels[i] for i in s]) for s in maximal)))
    return c


def _bits(mask: int):
    """The positions of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _maximal_cliques(adj: list):
    """Yield every maximal clique of the graph with adjacency masks `adj`,
    as the tuple of its vertices and their mask.

    Bron-Kerbosch with Tomita's pivot (Tomita, Tanaka, Takahashi, TCS 363,
    2006), run from each vertex v as in Eppstein, Löffler and Strash
    (ISAAC 2010) on R = {v}, P its later neighbours and X its earlier ones,
    finds the maximal cliques whose least vertex is v.  A branch (R, P, X)
    tries only the vertices of P outside the neighbourhood of the lowest
    vertex of P | X with most neighbours in P.  No vertex has more than |P|
    neighbours in P, and none of P more than |P| - 1, so the scan for the
    pivot stops at the first vertex that reaches the bound, which a full
    scan would pick too.  Vertex i is bit i of the masks P and X, and a
    clique R is kept both as the tuple of its vertices and as their mask.
    Open branches wait on an explicit stack as [R, R's mask, P, X,
    vertices left to try], and each child is made when its turn comes.
    """
    def branch(r, rmask, p, x):
        if not p:
            return [r, rmask, p, x, 0]
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
        return [r, rmask, p, x, p & ~adj[pivot]]

    for v, near in enumerate(adj):
        later = near >> v << v
        stack = [branch((v,), 1 << v, later, near ^ later)]
        while stack:
            frame = stack[-1]
            r, rmask, p, x, todo = frame
            if not todo:
                stack.pop()
                if not p and not x:
                    yield r, rmask
                continue
            bit = todo & -todo
            u = bit.bit_length() - 1
            frame[2:] = p ^ bit, x | bit, todo ^ bit
            stack.append(branch(r + (u,), rmask | bit, p & adj[u], x & adj[u]))


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
                    size = parse_int(text[len(name) + 1:-1].strip())
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

    def as_complex(self) -> SimplicialComplex:
        """A representative complex of this named shape with labels T1, T2, ..."""
        if self.kind == "point":
            return SimplicialComplex.from_maximal([["T1"]])
        if self.kind == "simplex":
            verts = [f"T{i}" for i in range(1, self.size + 2)]
            return SimplicialComplex.from_maximal([verts])
        if self.kind == "path":
            verts = [f"T{i}" for i in range(1, self.size + 1)]
            return SimplicialComplex.from_maximal(
                [[verts[i], verts[i + 1]] for i in range(self.size - 1)])
        raise StructureError(f"{self} has no representative complex")


def recognize(c: SimplicialComplex) -> ComplexShape:
    """Name the shape of a complex when it is a point, path or single simplex."""
    n = len(c.labels)
    if n == 1:
        return ComplexShape.point()
    if len(c.maximal) == 1 and len(c.maximal[0]) == n:
        return ComplexShape.simplex(n - 1)
    if all(len(s) == 2 for s in c.maximal) and len(c.maximal) == n - 1:
        # every complex is connected, so this one is a tree: a path unless a
        # vertex lies on three edges
        if max(Counter(i for s in c.maximal for i in s).values()) == 2:
            return ComplexShape.path(n)
    return ComplexShape("explicit", n)


def _ranked(c: SimplicialComplex):
    """The sorted vertex texts, and the sorted maximal simplices, each the
    sorted list of its vertices' ranks in that list.

    StructureError is raised when two vertices render as one text: the
    ranks then could not follow the order of the texts, and an export would
    repeat a vertex.
    """
    texts = [label_text(v) for v in c.labels]
    if len(set(texts)) != len(texts):
        raise StructureError("two vertices of the complex render as the same text")
    order = sorted(range(len(texts)), key=texts.__getitem__)
    rank = [0] * len(order)
    for r, i in enumerate(order):
        rank[i] = r
    rank_of = rank.__getitem__
    return ([texts[i] for i in order],
            sorted([sorted(map(rank_of, s)) for s in c.maximal]))


def rendered(c: SimplicialComplex) -> dict:
    """The sorted vertex texts and the sorted maximal simplices, each a
    sorted list of vertex texts: the fields every report of c renders."""
    texts, simplices = _ranked(c)
    return {"vertices": texts,
            "maximal_simplices": [[texts[r] for r in s] for s in simplices]}


def to_json(c: SimplicialComplex) -> str:
    """Canonical JSON with sorted vertices and sorted maximal simplices.

    The text is written directly, each label quoted by the encoder
    ``json.dumps`` uses, and equals ``json.dumps(rendered(c), indent=2,
    sort_keys=True) + "\\n"``; every list is non-empty, since a complex has
    a vertex and every simplex one.
    """
    texts, simplices = _ranked(c)
    quoted = [_quote(v) for v in texts]
    member = ["      " + q for q in quoted]
    body = ",\n".join("    [\n" + ",\n".join(map(member.__getitem__, s)) + "\n    ]"
                      for s in simplices)
    vertices = ",\n".join("    " + q for q in quoted)
    return ('{\n  "maximal_simplices": [\n' + body + '\n  ],\n  "vertices": [\n'
            + vertices + "\n  ]\n}\n")


def to_dot(c: SimplicialComplex) -> str:
    """Deterministic DOT: one node per vertex, one edge per 1-simplex.

    Both are read off the ranked simplices: the edges are the rank pairs
    of each maximal simplex, without repeats, sorted and then written as
    texts.  Maximal simplices of dimension two or more are annotated as
    comments so that filled cliques survive the drop to the 1-skeleton.
    A DOT quoted string escapes ``\\`` and ``"`` with a backslash.
    """
    texts, simplices = _ranked(c)
    texts = [v.replace("\\", "\\\\").replace('"', '\\"') for v in texts]
    edges = {pair for s in simplices for pair in combinations(s, 2)}
    lines = ["graph kakimizu {", "  node [shape=circle];"]
    lines += [f'  "{v}";' for v in texts]
    lines += [f'  "{texts[a]}" -- "{texts[b]}";' for a, b in sorted(edges)]
    lines += ["  // filled simplex: " + " ".join(map(texts.__getitem__, s))
              for s in simplices if len(s) >= 3]
    lines.append("}")
    return "\n".join(lines) + "\n"
