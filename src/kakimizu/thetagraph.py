"""Planar multigraphs with rotation systems and the theta-graph surface moves.

For a special alternating knot, every minimal genus Seifert surface comes
from a reduced alternating diagram, and the diagrams reachable by flypes are
tracked combinatorially: give every edge of the planar Seifert graph weight
1, merge parallel edges that bound bigons (summing weights), add weight-0
edges where a parallel twist site could be created without a bigon, and keep
the subgraph of edges lying in parallel families.  The result is the theta
graph of the surface; its faces are the regions.

The construction does each piece of work once per graph.  A graph is
validated once, by its constructor, which keeps the face walks of the
successor map it builds as it checks the rotation; each stage derives its
output's faces from its input's.  The kept walks serve the prime and
reduced check (:func:`build_theta`), every stage and the region signs.

Each face traversal gives every boundary edge a sign, opposite in the two
faces an edge borders.  Applying a region shifts each boundary weight by its
sign (never below zero); the reachable weight vectors are the vertices of
the Kakimizu complex, and weight vectors visited by a pass applying every
region exactly once span a maximal simplex.

Graphs are embedded in the sphere via a rotation system: a cyclic order of
incident edge ends at every vertex.  Files use one line per item::

    vertex <id>
    edge <id> <u> <v> weight=<w> dir=<+|->
    rot <vertex> <end> <end> ...

where an edge end is its edge id, and each optional edge attribute appears
at most once (dir + when left out); a weight, if given, is 1, since each
edge of a Seifert graph is one crossing.
A crossing joins two different Seifert circles, so no Seifert graph, and
no theta graph, has a loop: validation refuses one.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import itemgetter

from . import complexes
from .complexes import SimplicialComplex
from .errors import InputError, SizeLimitError, StructureError

# route graphs with R = 4 regions and W parallel edges, the slower of the
# two measured ladders, built 17 296 vertices (W = 45) in 4.4 s and 23 426
# (W = 50) in 5.7 s; R = 3 built 45 451 (W = 300) in 7.1 s, with the cap
# lifted (Python 3.11 on one core of a shared 2-core VM, one build per
# rung, peak RSS 80 / 114 / 202 MB); the cap keeps its value until it is
# sized against a measured runtime
DEFAULT_MAX_VERTICES = 20_000
MAX_REGIONS = 8
# what validation knows of an edge end: its vertex, the other end, the end
# itself and the far vertex; a foreign end has no vertex
_VERTEX, _TWIN, _ITSELF, _FAR = map(itemgetter, range(4))
_FOREIGN = (None,) * 4
_WEIGHT_NOT_1 = "Seifert graph edge {} has weight {}: weights must be 1"


@dataclass
class Edge:
    u: str
    v: str
    weight: int
    direction: int  # +1 means oriented u -> v, -1 the reverse


def _edge_key(eid: str):
    # ids in ASCII digits sort numerically, any other id (z1, ...) as text
    # after them; a numeric id is compared as its digits without leading
    # zeros, by length and then by text, since int() refuses ids over 4 300
    # digits, and equal numbers such as 0 and 00 by the id itself
    if not (eid.isascii() and eid.isdigit()):
        return (1, 0, eid)
    digits = eid.lstrip("0")
    return (0, len(digits), digits, eid)


class PlanarMultigraph:
    """A connected multigraph embedded in the sphere.

    The embedding is a rotation system: for every vertex, the cyclic order of
    incident edge ends.  The constructor validates the graph, once: it
    refuses a loop with InputError, and checks that each end appears
    exactly once at the right vertex, that the graph is connected, and that
    the face count satisfies Euler's formula V - E + F = 2; it keeps the
    face walks of that check.
    """

    def __init__(self, vertices, edges, rotation):
        self.vertices = list(vertices)
        self.edges = dict(edges)
        self.rotation = {v: list(r) for v, r in rotation.items()}
        if not self.vertices:
            raise StructureError("graph has no vertices")
        for eid, e in self.edges.items():
            if e.u == e.v:
                raise InputError(f"edge {eid} is a loop: "
                                 "a crossing joins two different Seifert circles")
            if e.u not in self.rotation or e.v not in self.rotation:
                raise StructureError(f"edge {eid} touches an unknown vertex")
            if e.direction not in (1, -1):
                raise StructureError(f"edge {eid} has direction {e.direction!r}")
            if e.weight < 0:
                raise StructureError(f"edge {eid} has negative weight")
        succ, far, spans = self._successors()
        seen, stack = {self.vertices[0]}, [self.vertices[0]]
        while stack:
            near = set(far[slice(*spans[stack.pop()])])
            stack += near - seen
            seen |= near
        if not seen.issuperset(self.vertices):
            raise StructureError("graph is not connected")
        faces = _walk_faces(succ)
        # a bare vertex has no walk: its single face has empty boundary
        if self.edges and len(self.vertices) - len(self.edges) + len(faces) != 2:
            raise StructureError(f"not a sphere embedding: V-E+F = "
                                 f"{len(self.vertices)}-{len(self.edges)}+{len(faces)}")
        self._faces = faces

    def _successors(self) -> tuple:
        # the side after each side on its face, the far vertex of each listed
        # end and each vertex's span of them; one tuple per end, met by identity
        ends = {}   # an edge end -> (its vertex, the other end, itself, the far vertex)
        for eid, e in self.edges.items():
            d0, d1 = (eid, 0), (eid, 1)
            ends[d0], ends[d1] = (e.u, d1, d0, e.v), (e.v, d0, d1, e.u)
        listed, at, after, spans = [], [], [], {}
        for v in self.vertices:
            rot = self.rotation.get(v, [])
            k = len(listed)
            spans[v] = k, k + len(rot)
            listed += rot
            at += repeat(v, len(rot))
            after += range(k + 1, k + len(rot))
            after += [k] if rot else []
        info = list(map(ends.get, listed, repeat(_FOREIGN)))
        found = list(map(_VERTEX, info))
        if found != at:
            k = next(k for k, v in enumerate(at) if found[k] != v)
            raise StructureError(f"rotation at {at[k]} lists foreign end {listed[k]}")
        own = list(map(_ITSELF, info))
        succ = dict(zip(map(_TWIN, info), map(own.__getitem__, after)))
        # every listed end is an end of its vertex, so the ends are listed
        # exactly once when as many are listed as there are, all distinct
        if len(listed) != len(succ) or len(listed) != len(ends):
            raise StructureError("rotation system must list each edge end exactly once")
        return succ, list(map(_FAR, info)), spans

    def faces(self) -> list:
        """Boundary walks of the embedding, one per face.

        A walk is a list of directed edge sides (eid, source end); the side
        (e, a) traverses e away from end a.  Arriving at the far end, the
        walk continues with the rotation successor there, so every directed
        side is used exactly once over all faces.  Walks are rotated to
        start at their smallest side and the list is sorted, making the
        face order deterministic.  No side lies on two walks, so sorting
        by first sides alone gives the order of the whole walks.

        Every graph keeps its faces, the walks of its Euler check or those
        of the stage that made it, and returns a new list of them.
        """
        return list(self._faces)

    def parallel_families(self) -> dict:
        """Edge ids by endpoint pair, each family in the graph's edge order."""
        fams: dict = {}
        for eid, e in self.edges.items():
            fams.setdefault(frozenset((e.u, e.v)), []).append(eid)
        return fams

    def edge_order(self) -> tuple:
        return tuple(sorted(self.edges, key=_edge_key))

    def weights(self) -> dict:
        return {eid: e.weight for eid, e in self.edges.items()}

    @classmethod
    def from_text(cls, text: str) -> "PlanarMultigraph":
        vertices: dict = {}   # in file order
        edges: dict = {}
        rot_lines: dict = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            parts = raw.split("#", 1)[0].split()
            if not parts:
                continue
            kind = parts[0]
            try:
                if kind == "edge":
                    eid, u, v = parts[1:4]
                    if eid in edges:
                        raise InputError(f"duplicate edge {eid}")
                    # a weight, if given, is 1, and each attribute is given
                    # at most once; the first fault met is refused
                    weight = dirtext = None
                    for attr in parts[4:]:
                        key, value = attr.split("=", 1)
                        if key == "weight" and weight is None:
                            if value != "1":
                                raise InputError(_WEIGHT_NOT_1.format(eid, value))
                            weight = value
                        elif key == "dir" and dirtext is None and value in ("+", "-"):
                            dirtext = value
                        else:
                            raise InputError(f"bad edge attributes on {eid}")
                    edges[eid] = Edge(u, v, 1, -1 if dirtext == "-" else 1)
                elif kind == "vertex":
                    (vid,) = parts[1:]
                    if vid in vertices:
                        raise InputError(f"duplicate vertex {vid}")
                    vertices[vid] = None
                elif kind == "rot":
                    vid = parts[1]
                    if vid in rot_lines:
                        raise InputError(f"duplicate rotation for {vid}")
                    rot_lines[vid] = parts[2:]
                else:
                    raise InputError(f"unknown directive {kind!r}")
            except (ValueError, IndexError) as exc:
                raise InputError(f"line {lineno}: cannot parse {raw!r}") from exc
        rotation: dict = {v: [] for v in vertices}
        for vid, tokens in rot_lines.items():
            if vid not in rotation:
                raise InputError(f"rotation for unknown vertex {vid}")
            for tok in tokens:
                e = edges.get(tok)
                if e is None:
                    raise InputError(f"unknown edge {tok!r} in rotation")
                end = 0 if vid == e.u else 1 if vid == e.v else None
                if end is None:
                    raise InputError(f"edge {tok} is not incident to {vid}")
                rotation[vid].append((tok, end))
        return cls(vertices, edges, rotation)


def _stage(g: PlanarMultigraph, edges: dict, rotation: dict, faces: list) -> PlanarMultigraph:
    # a stage's output on g's vertices, with the faces the stage derived
    out = object.__new__(PlanarMultigraph)
    out.vertices, out.edges, out.rotation, out._faces = list(g.vertices), edges, rotation, faces
    return out


def _walk_faces(succ: dict) -> list:
    # each side is taken out of succ as the walk passes it
    walks = []
    while succ:
        start, side = succ.popitem()
        after = succ.pop(side)
        if after is start:
            walks.append((start, side) if start < side else (side, start))
            continue
        walk = [start, side]
        while after is not start:
            walk.append(after)
            after = succ.pop(after)
        walks.append(_rotate_min(walk))
    walks.sort(key=itemgetter(0))
    return walks


def _rotate_min(walk: list) -> tuple:
    k = walk.index(min(walk))
    return tuple(walk[k:] + walk[:k])


def reduce_bigons(g: PlanarMultigraph) -> PlanarMultigraph:
    """Merge parallel edge pairs bounding bigons until none remain.

    Merging the two edges of a bigon deletes one of them.  The face on the
    far side of the deleted edge then runs along its partner instead, and
    no face changes length; so the bigons of every later stage are those
    of the input with merged edges substituted, and no new bigon appears.
    Merging until none remain therefore joins exactly the classes of the
    relation "bound a common bigon" on the input's edges, whatever the
    order, and deletes every bigon of two edges.  The classes grow along
    the input's kept faces, the smaller of two joining the larger; the
    least id of each survives with the class's weight sum, and the faces
    that stay, survivors substituted, are kept as the result's.  Takes
    the all weight-1 Seifert graph (:func:`build_theta` checks the weights),
    which is left as it is: the result has new Edge objects, for the
    survivors only, and new rotations.
    """
    classes: dict = {}   # an edge on a bigon -> its class, a list its members share
    faces = []   # the faces that stay
    for walk in g.faces():
        # a bigon leaves one vertex along e1 and comes back along e2, so,
        # with no loops, two distinct edges of a bigon join the same pair
        if len(walk) != 2 or walk[0][0] == walk[1][0]:
            faces.append(walk)
            continue
        (e1, _), (e2, _) = walk
        c1, c2 = classes.setdefault(e1, [e1]), classes.setdefault(e2, [e2])
        if c1 is not c2:
            if len(c1) < len(c2):
                c1, c2 = c2, c1
            c1 += c2
            for eid in c2:
                classes[eid] = c1
    survivor = {}   # an edge on a bigon -> the edge its class keeps
    for c in {id(c): c for c in classes.values()}.values():
        survivor.update(dict.fromkeys(c, min(c, key=_edge_key)))
    weights = Counter(survivor.values())
    dropped = survivor.keys() - weights.keys()
    edges = {eid: Edge(e.u, e.v, weights.get(eid, 1), e.direction)
             for eid, e in g.edges.items() if eid not in dropped}

    def moved(side):
        # the survivor's side that leaves the vertex this side leaves
        eid, a = side
        if eid not in dropped:
            return side
        e, keep = g.edges[eid], survivor[eid]
        return keep, 0 if edges[keep].u == (e.v if a else e.u) else 1

    # a graph of bigons alone is one class: one edge is left, and one face
    faces = sorted((walk if dropped.isdisjoint(map(itemgetter(0), walk))
                    else _rotate_min(list(map(moved, walk))) for walk in faces),
                   key=itemgetter(0)) or [((k, 0), (k, 1)) for k in edges]
    return _stage(g, edges, {v: _darts_on(rot, edges) for v, rot in g.rotation.items()}, faces)


def add_zero_edges(g: PlanarMultigraph) -> PlanarMultigraph:
    """Insert weight-0 edges across faces wherever no bigon results.

    A pair of distinct vertices on a face qualifies when some edge already
    joins the pair and both arcs of the face boundary between the chosen
    occurrences have at least two edges, so both faces created by the
    insertion have length at least three.  Insertion repeats, at the least
    qualifying positions i < j of the first face in the sorted order of
    :meth:`PlanarMultigraph.faces` that has any, until nothing qualifies.

    The input's faces are read once and split locally: an edge z across
    walk w at positions i < j starts before w[i] and ends before w[j], so
    w becomes ``w[:i] + [(z, 0)] + w[j:]`` and ``w[i:j] + [(z, 1)]``, each
    rotated to its least side; z joins a pair an edge already joins, so
    every other face, and whether it qualifies, stays as it was.  The
    faces wait on a heap in walk order, the least split or dropped for
    good, which inserts exactly where re-walking after every insertion
    would.  The new ends go into each rotation that gains any in one pass.
    A new edge is oriented like the least edge of its family, whose tail
    vertex later insertions leave as it is.  The result shares the input's
    Edge objects and keeps the faces the heap gives up, sorted again.
    """
    faces = g.faces()   # sorted, so already a heap
    edges = dict(g.edges)
    nbrs, tails = {}, {}
    for pair, fam in g.parallel_families().items():
        u, v = pair
        nbrs.setdefault(u, set()).add(v)
        nbrs.setdefault(v, set()).add(u)
        e = edges[min(fam, key=_edge_key)]
        tails[pair] = e.u if e.direction == 1 else e.v
    before: dict = {}   # an edge end -> the new ends placed just before it
    touched, counter, done = set(), 0, []
    while faces:
        walk = heapq.heappop(faces)
        verts = [edges[eid].v if a else edges[eid].u for eid, a in walk]
        insertion = _find_zero_insertion(verts, nbrs)
        if insertion is None:
            done.append(walk)
            continue
        i, j = insertion
        counter += 1
        while f"z{counter}" in edges:
            counter += 1
        eid = f"z{counter}"
        u, v = verts[i], verts[j]
        # orient the new twist site like the existing edges of its family,
        # so the bigons they bound get balanced region signs
        edges[eid] = Edge(u, v, 0, 1 if tails[frozenset((u, v))] == u else -1)
        # the walk leaves u along w[i]; an end placed just before w[i] in
        # u's rotation puts the new edge inside this face
        before.setdefault(walk[i], []).append((eid, 0))
        before.setdefault(walk[j], []).append((eid, 1))
        touched.update((u, v))
        heapq.heappush(faces, _rotate_min(walk[:i] + ((eid, 0),) + walk[j:]))
        heapq.heappush(faces, _rotate_min(walk[i:j] + ((eid, 1),)))
    done.sort(key=itemgetter(0))   # a new side may sort before earlier faces' sides
    return _stage(g, edges, {x: _place_ends(rot, before) if x in touched else list(rot)
                             for x, rot in g.rotation.items()}, done)


def _place_ends(rot: list, before: dict) -> list:
    # an end placed just before d goes between d and the ends placed
    # before d earlier, so d is preceded by its new ends in the order they
    # came, each of them preceded in turn by its own
    out = []
    stack = [(d, False) for d in reversed(rot)]
    while stack:
        d, expanded = stack.pop()
        if expanded or d not in before:
            out.append(d)
        else:
            stack.append((d, True))
            stack.extend((x, False) for x in reversed(before[d]))
    return out


def _find_zero_insertion(verts: list, nbrs: dict):
    # the least positions i < j of the walk with vertices verts whose
    # vertices an edge joins, with arcs j - i and len - (j - i) of at least
    # two sides: for each i, the least position of a neighbour of verts[i]
    # in [i + 2, min(len - 1, i + len - 2)], by bisection in its sorted
    # positions; a hub with more neighbours than the walk has vertices is
    # matched the other way round
    length = len(verts)
    positions: dict = {}
    for k, x in enumerate(verts):
        positions.setdefault(x, []).append(k)
    for i in range(length - 2):   # from i = length - 2 on, the range is empty
        lo, hi = i + 2, length - 1 if i else length - 2
        best = None
        near = nbrs[verts[i]]
        for x in (near if len(near) <= len(positions) else positions):
            at = positions.get(x)
            if at is None or x not in near:
                continue
            k = bisect_left(at, lo)
            if k < len(at) and at[k] <= hi and (best is None or at[k] < best):
                best = at[k]
        if best is not None:
            return i, best
    return None


def theta_subgraph(g: PlanarMultigraph) -> PlanarMultigraph:
    """Restrict to edges whose endpoint pair carries at least two edges, as
    they are; the result must be in one piece, and no bigon of it may join
    two weight-positive edges."""
    pairs = {pair for pair, fam in g.parallel_families().items() if len(fam) >= 2}
    if not pairs:
        raise StructureError("theta graph is empty: the knot has a unique surface")
    nbrs: dict = {}   # a theta vertex -> its family neighbours and itself
    for pair in pairs:
        for x in pair:
            nbrs.setdefault(x, set()).update(pair)
    verts = sorted(nbrs)
    seen, stack = {verts[0]}, [verts[0]]
    while stack:
        near = nbrs[stack.pop()] - seen
        stack += near
        seen |= near
    if len(seen) < len(verts):
        raise StructureError("theta graph falls into pieces: "
                             "its parallel families do not join every theta vertex")
    edges = {eid: e for eid, e in g.edges.items() if frozenset((e.u, e.v)) in pairs}
    tg = PlanarMultigraph(verts, edges, {v: _darts_on(g.rotation[v], edges) for v in verts})
    for walk in tg.faces():
        if len(walk) == 2 and min(edges[eid].weight for eid, _ in walk) > 0:
            raise StructureError("bigon between weight-positive edges was not reduced")
    return tg


def _darts_on(rot: list, edges: dict) -> list:
    # the ends of rot whose edges are keys of edges, in rotation order
    return list(compress(rot, map(edges.__contains__, map(itemgetter(0), rot))))


def build_theta(g: PlanarMultigraph) -> PlanarMultigraph:
    """Full pipeline from a weight-1 Seifert graph to its theta graph.

    A special diagram's Seifert graph is one of its checkerboard graphs, so
    the diagram is prime and reduced exactly when the graph has no cut
    vertex and no bridge, and then its knot is prime (Menasco, Topology
    1984).  Validation has refused a loop, and on the sphere the face walks
    the Euler check kept decide the rest: an edge is a bridge exactly when
    one face meets both of its sides, and a vertex of a loopless graph is a
    cut vertex exactly when one face passes it twice.  Each is refused with
    InputError, and so is an edge whose weight is not 1: each edge of a
    Seifert graph is one crossing.
    """
    for eid, e in g.edges.items():
        if e.weight != 1:
            raise InputError(_WEIGHT_NOT_1.format(eid, e.weight))
    _check_blocks(g)
    return theta_subgraph(add_zero_edges(reduce_bigons(g)))


def _check_blocks(g: PlanarMultigraph) -> None:
    for walk in g.faces():
        # a bigon of two edges meets neither side of an edge twice, and its
        # corners are the two ends of a loopless edge
        if len(walk) == 2 and walk[0][0] != walk[1][0]:
            continue
        sides = [eid for eid, _ in walk]
        if len(set(sides)) < len(walk):
            raise InputError(f"Seifert graph edge {Counter(sides).most_common(1)[0][0]} "
                             "is a bridge: not reduced")
        corners = [g.edges[eid].v if a else g.edges[eid].u for eid, a in walk]
        if len(set(corners)) < len(walk):
            raise InputError(f"Seifert graph vertex {Counter(corners).most_common(1)[0][0]} "
                             "is a cut vertex: not prime")


def region_signatures(tg: PlanarMultigraph) -> tuple:
    """Signed boundaries of all regions, from coherent face traversal.

    Returns one boundary per region: region i is face i of
    :meth:`PlanarMultigraph.faces`, and its boundary is the sorted tuple of
    its (edge id, sign) pairs.  Every face is walked with the face kept on
    a fixed side, so an edge is traversed forwards by exactly one face and
    backwards by the other; the sign records whether the traversal agrees
    with the edge's stored direction.  Consequently each edge receives opposite signs from its two
    regions, and applying every region once shifts no weight at all.
    """
    regions = []
    per_edge: dict = {}
    for walk in tg.faces():
        boundary = []
        for eid, a in walk:
            sign = tg.edges[eid].direction * (1 if a == 0 else -1)
            boundary.append((eid, sign))
            per_edge.setdefault(eid, []).append(sign)
        regions.append(tuple(sorted(boundary)))
    for eid, signs in per_edge.items():
        if sorted(signs) != [-1, 1]:
            raise StructureError(f"edge {eid} signs {signs} do not cancel")
    return tuple(regions)


def build_complex(tg: PlanarMultigraph, w0: dict,
                  max_vertices: int = DEFAULT_MAX_VERTICES) -> SimplicialComplex:
    """The Kakimizu complex reachable from the starting weight vector.

    Vertices are the weight tuples, in ``tg.edge_order()``, reachable by
    applicable regions.  From every vertex, each full pass (every region
    once, no weight below zero) visits a simplex.  Inclusion-maximal
    visited sets are the maximal simplices; the result must come out
    connected and flag.

    Callers pass ``tg.weights()``.  A start at any vertex of that build
    gives the same complex: :func:`~kakimizu.complexes.assemble` refuses
    a disconnected complex, and every edge lies on a full pass, a cycle of
    region moves, so each vertex reaches every other and the search
    reaches the same vectors and walks the same passes.  A start that is
    no vertex of it is no surface of this knot.

    The reachability search packs each weight vector into one int, with
    one field per edge in ``tg.edge_order()``, ``total.bit_length() + 1``
    bits wide for the start's total weight.  The top bit of a field is a
    guard, kept clear in a packed vector.  Every region's signs sum to
    zero (checked first), so applying a region keeps the total, and no
    weight of a reachable vector exceeds it: a field never overflows into
    its neighbour.  A region is the packed pair ``(add, sub)`` of its
    positive and negative shifts, each at most 1 per edge, since an edge
    has one sign of each kind over all regions.  With every guard set,
    subtracting ``sub`` borrows within a field only, and clears its guard
    exactly when that weight would drop below zero; so the region applies
    exactly when ``((w | guard) - sub) & guard == guard``, and its result
    is that difference with the guards cleared, plus ``add``.

    The search interns the packed vectors breadth first as indices.  The
    passes are walked on those indices by :func:`_kept_passes`, and the
    visited index masks go to :func:`~kakimizu.complexes.assemble`; the
    packed vectors are decoded to weight tuples once, to label its
    vertices.
    """
    regions = region_signatures(tg)
    if len(regions) > MAX_REGIONS:
        raise SizeLimitError(f"{len(regions)} regions exceed the bound {MAX_REGIONS}")
    for idx, boundary in enumerate(regions):
        if sum(sign for _, sign in boundary) != 0:
            raise StructureError(
                f"region {idx} has unbalanced signs: edge directions "
                "are not coherent with the link orientation")
    if set(w0) != set(tg.edges):
        raise InputError("weight vector must be supported on the theta edges")
    if any(not isinstance(x, int) or x < 0 for x in w0.values()):
        raise InputError("weights must be non-negative integers")

    order = tg.edge_order()
    width = sum(w0.values()).bit_length() + 1
    offset = {eid: k * width for k, eid in enumerate(order)}
    guard = sum(1 << (k + width - 1) for k in offset.values())
    moves = []
    for boundary in regions:
        shift = dict.fromkeys(order, 0)
        for eid, sign in boundary:
            shift[eid] += sign
        moves.append((sum(d << offset[eid] for eid, d in shift.items() if d > 0),
                      sum(-d << offset[eid] for eid, d in shift.items() if d < 0)))

    # intern the reachable packed vectors breadth first: states[i] is the
    # vector of index i
    states = [sum(w0[eid] << k for eid, k in offset.items())]
    index = {states[0]: 0}
    for w in states:
        w |= guard
        for add, sub in moves:
            w2 = w - sub
            if w2 & guard == guard:
                w2 = (w2 ^ guard) + add
                if w2 not in index:
                    if len(states) >= max_vertices:
                        raise SizeLimitError(f"more than {max_vertices} reachable surfaces")
                    index[w2] = len(states)
                    states.append(w2)

    field = (1 << width - 1) - 1
    labels = [tuple(w >> k & field for k in offset.values()) for w in states]
    return complexes.assemble(chain.from_iterable(
        _kept_passes(states, index, moves, guard, width)), labels)


def _kept_passes(states: list, index: dict, moves: list, guard: int, width: int):
    """Yield, for each packed vector w of `states`, the index masks
    (`index` maps a vector to its index) of the sets visited by the full
    passes from w that visit nothing below w in packed order; `moves`,
    `guard` and `width` are those of :func:`build_complex`.

    A region shifts a weight by -1, 0 or 1, and each edge has one sign of
    each kind over all regions (:func:`region_signatures`).  So a set M of
    regions takes w to ``w + D(M)`` packed, D(M) the sum of ``add - sub``
    over M, whatever w is, and only a weight of 0 can drop below zero:
    an ordering is a pass from w exactly when it is one from the zero
    pattern ``z = min(w, 1)``, and it visits nothing below w exactly when
    ``D(M) > 0`` for each proper non-empty prefix M.  So the kept prefixes
    are walked once per pattern, from z, as a tree: level k holds, per
    prefix of k regions, its parent's position in level k - 1 and its D.
    The last region always applies and returns to the start, so the
    leaves lack one region.  Each w with the pattern translates the tree:
    a node's visited set is its parent's with the bit ``index[w + D]``.
    The regions meet along edges, so ``D(M) = 0`` for no proper non-empty
    M: the states on a pass's cycle differ, and the rotation of each cycle
    from its packed-least state is the one kept.
    """
    ones = guard >> width - 1
    patterns: dict = {}   # a zero pattern -> the vectors with it
    for w in states:
        patterns.setdefault((((w | guard) - ones) & guard) >> width - 1, []).append(w)
    steps = [(1 << r, add, sub) for r, (add, sub) in enumerate(moves)]
    get = index.__getitem__
    for z, members in patterns.items():
        levels = []
        frontier = [(z, 0)]   # per node: its state and its set of regions
        for _ in range(len(moves) - 1):
            level, grown = [], []
            for at, (state, used) in enumerate(frontier):
                state |= guard
                for bit, add, sub in steps:
                    after = state - sub
                    if used & bit or after & guard != guard:
                        continue
                    after = (after ^ guard) + add
                    if after > z:
                        level.append((at, after - z))
                        grown.append((after, used | bit))
            levels.append(level)
            frontier = grown
        for w in members:
            masks = [1 << get(w)]
            for level in levels:
                masks = [masks[at] | 1 << get(w + d) for at, d in level]
            yield masks
