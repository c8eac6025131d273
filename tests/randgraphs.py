"""Random sphere-embedded multigraphs for property tests.

Graphs grow from a pair of parallel edges by three embedding-preserving
operations (parallel duplication, a chord across a face, edge subdivision),
so every generated graph is 2-edge-connected and spherical by construction;
the constructor's Euler check confirms it.  Route graphs are seeded Seifert
graphs with a known complex, and separable graphs join two random graphs at
a cut vertex or by a bridge, :func:`add_loop` draws a loop inside a face
(which the constructor refuses), and :func:`add_pendant_bridge` hangs a new
vertex on a bridge, embedded by the rotation :func:`rotation_of` reads off
the faces.  :func:`fresh` validates a deep copy of a graph, which
walks its faces again, and the text helpers write graph files.
"""

import random

from kakimizu.thetagraph import Edge, PlanarMultigraph


def fresh(g: PlanarMultigraph) -> PlanarMultigraph:
    """A validated deep copy of g: new Edges and rotations, and faces
    walked afresh rather than kept from g."""
    edges = {eid: Edge(e.u, e.v, e.weight, e.direction) for eid, e in g.edges.items()}
    return PlanarMultigraph(g.vertices, edges, g.rotation)


def walk_vertices(g: PlanarMultigraph, walk) -> list:
    """The vertex each side of a face walk leaves."""
    return [g.edges[eid].v if a else g.edges[eid].u for eid, a in walk]


def random_sphere_graph(rng: random.Random, ops: int = 8) -> PlanarMultigraph:
    vertices = ["v0", "v1"]
    edges = {"0": Edge("v0", "v1", 1, 1), "1": Edge("v0", "v1", 1, 1)}
    rotation = {"v0": [("0", 0), ("1", 0)], "v1": [("1", 1), ("0", 1)]}
    next_edge = 2
    next_vertex = 2

    def fresh_edge():
        nonlocal next_edge
        eid = str(next_edge)
        next_edge += 1
        return eid

    for _ in range(ops):
        op = rng.choice(["parallel", "chord", "subdivide"])
        if op == "parallel":
            eid = rng.choice(sorted(edges))
            e = edges[eid]
            new = fresh_edge()
            edges[new] = Edge(e.u, e.v, 1, rng.choice((1, -1)))
            ru = rotation[e.u]
            ru.insert(ru.index((eid, 0)) + 1, (new, 0))
            rv = rotation[e.v]
            rv.insert(rv.index((eid, 1)), (new, 1))
        elif op == "subdivide":
            eid = rng.choice(sorted(edges))
            e = edges[eid]
            mid = f"v{next_vertex}"
            next_vertex += 1
            vertices.append(mid)
            a, b = fresh_edge(), fresh_edge()
            edges[a] = Edge(e.u, mid, 1, rng.choice((1, -1)))
            edges[b] = Edge(mid, e.v, 1, rng.choice((1, -1)))
            ru = rotation[e.u]
            ru[ru.index((eid, 0))] = (a, 0)
            rv = rotation[e.v]
            rv[rv.index((eid, 1))] = (b, 1)
            rotation[mid] = [(a, 1), (b, 0)]
            del edges[eid]
        else:
            g = PlanarMultigraph(vertices, edges, rotation)
            walks = g.faces()
            walk = walks[rng.randrange(len(walks))]
            verts = walk_vertices(g, walk)
            spots = [(i, j) for i in range(len(walk)) for j in range(len(walk))
                     if i < j and verts[i] != verts[j]]
            if not spots:
                continue
            i, j = rng.choice(spots)
            new = fresh_edge()
            edges[new] = Edge(verts[i], verts[j], 1, rng.choice((1, -1)))
            ri = rotation[verts[i]]
            ri.insert(ri.index(walk[i]), (new, 0))
            rj = rotation[verts[j]]
            rj.insert(rj.index(walk[j]), (new, 1))

    for e in edges.values():
        e.weight = rng.randint(0, 3)
    return PlanarMultigraph(vertices, edges, rotation)


def route_graph(rng: random.Random, regions: int, width: int,
                bundle: int = 1) -> PlanarMultigraph:
    """A weight-1 Seifert graph: u and v joined by `width` parallel edges
    and by `regions` routes u-a-b-v whose three segments are bundles of
    `bundle` parallel edges, with edge ids shuffled by `rng`.

    It is bipartite with every edge oriented out of u's colour class, and
    its theta graph has one region per route.  Drawn with u above v, the
    routes run left to right and the parallel edges right of them.
    """
    ids = [str(i) for i in range(1, 3 * regions * bundle + width + 1)]
    rng.shuffle(ids)
    edges, rotation = {}, {"u": [], "v": []}
    for r in range(regions):
        a, b = f"a{r}", f"b{r}"
        ua, ab, bv = ([ids.pop() for _ in range(bundle)] for _ in range(3))
        for seg, x, y, d in ((ua, "u", a, 1), (ab, a, b, -1), (bv, b, "v", 1)):
            for eid in seg:
                edges[eid] = Edge(x, y, 1, d)
        rotation["u"] += [(eid, 0) for eid in ua]
        rotation["v"][:0] = [(eid, 1) for eid in reversed(bv)]
        rotation[a] = [(eid, 1) for eid in reversed(ua)] + [(eid, 0) for eid in ab]
        rotation[b] = [(eid, 1) for eid in reversed(ab)] + [(eid, 0) for eid in bv]
    for eid in ids:
        edges[eid] = Edge("u", "v", 1, 1)
        rotation["u"].append((eid, 0))
        rotation["v"].insert(0, (eid, 1))
    return PlanarMultigraph(list(rotation), edges, rotation)


def separable_graph(rng: random.Random, ops: int = 6) -> PlanarMultigraph:
    """Two weight-1 random sphere graphs glued at a vertex, which becomes a
    cut vertex, or joined by a bridge; both embed in the sphere."""
    first, second = random_sphere_graph(rng, ops), random_sphere_graph(rng, ops)
    offset = len(first.edges) + len(second.edges)
    edges = dict(first.edges)
    rotation = {v: list(r) for v, r in first.rotation.items()}
    glue = rng.choice(first.vertices)
    if rng.random() < 0.5:
        rename = {v: ("w" + v if v != "v0" else glue) for v in second.vertices}
    else:
        rename = {v: "w" + v for v in second.vertices}
        bridge = str(2 * offset)
        edges[bridge] = Edge(glue, "wv0", 1, 1)
        rotation[glue].append((bridge, 0))
        rotation["wv0"] = [(bridge, 1)]
    for eid, e in second.edges.items():
        edges[str(int(eid) + offset)] = Edge(rename[e.u], rename[e.v], 1, e.direction)
    for v, darts in second.rotation.items():
        rotation.setdefault(rename[v], []).extend(
            (str(int(eid) + offset), end) for eid, end in darts)
    for e in edges.values():
        e.weight = 1
    return PlanarMultigraph(list(rotation), edges, rotation)


def add_loop(rng: random.Random, g: PlanarMultigraph) -> PlanarMultigraph:
    """A copy of `g` with a weight-1 loop ``L<edge count>`` drawn inside a
    face at a vertex the face passes, which the constructor refuses with
    InputError.  Half the time, when some face passes a vertex twice, the
    loop's ends go into two corners of that face there, parting the blocks
    that meet at the vertex; otherwise both go into one corner of a random
    face."""
    faces = g.faces()
    apart = [(walk, i, j) for walk in faces for verts in [walk_vertices(g, walk)]
             for i in range(len(walk)) for j in range(i + 1, len(walk)) if verts[i] == verts[j]]
    if apart and rng.random() < 0.5:
        walk, i, j = rng.choice(apart)
    else:
        walk = rng.choice(faces)
        i = j = rng.randrange(len(walk))
    v = walk_vertices(g, walk)[i]
    loop = f"L{len(g.edges)}"
    edges = {eid: Edge(e.u, e.v, e.weight, e.direction) for eid, e in g.edges.items()}
    edges[loop] = Edge(v, v, 1, 1)
    rotation = {x: list(r) for x, r in g.rotation.items()}
    rot = rotation[v]
    # an end placed just before a side the walk leaves along lies in its face
    rot.insert(rot.index(walk[i]), (loop, 0))
    rot.insert(rot.index(walk[j]), (loop, 1))
    return PlanarMultigraph(g.vertices, edges, rotation)


def rotation_of(g: PlanarMultigraph) -> dict:
    """The rotation system that g's faces determine, also for a stage's
    output, which has none: the rotation successor of an end is the face
    successor of its twin.  Each vertex's ends start at the least."""
    after = {}   # an end -> the next end round its vertex
    for walk in g.faces():
        for (eid, a), side in zip(walk, walk[1:] + walk[:1]):
            after[eid, 1 - a] = side
    rotation = {v: [] for v in g.vertices}
    for end in sorted(after):
        eid, a = end
        rot = rotation[g.edges[eid].v if a else g.edges[eid].u]
        if not rot:
            rot.append(end)
            while after[rot[-1]] != end:
                rot.append(after[rot[-1]])
    return rotation


def add_pendant_bridge(g: PlanarMultigraph, weight: int) -> tuple:
    """A copy of `g` with a new vertex joined to its first vertex by a
    bridge of the given weight, and the bridge's id.  One face meets both
    sides of the bridge, so every region's signs on it cancel.  The copy
    is embedded by the rotation g's faces determine, so `g` may be a theta
    graph."""
    bridge, pendant = f"B{len(g.edges)}", f"P{len(g.vertices)}"
    edges = {eid: Edge(e.u, e.v, e.weight, e.direction) for eid, e in g.edges.items()}
    edges[bridge] = Edge(g.vertices[0], pendant, weight, 1)
    rotation = rotation_of(g)
    rotation[g.vertices[0]].append((bridge, 0))
    rotation[pendant] = [(bridge, 1)]
    return PlanarMultigraph(g.vertices + [pendant], edges, rotation), bridge


def necklace_text(bundles) -> str:
    """A Seifert graph file: a path x0, x1, ... whose consecutive vertices
    are joined by bundles of parallel weight-1 edges, of the given sizes.

    Every inner vertex is a cut vertex and a bundle of one edge is a
    bridge; ``necklace_text([2, 2, 2])`` is the Seifert graph of a
    connected sum of Hopf links.
    """
    lines = [f"vertex x{i}" for i in range(len(bundles) + 1)]
    rot = [[] for _ in range(len(bundles) + 1)]
    eid = 0
    for i, size in enumerate(bundles):
        ids = [str(eid + k) for k in range(1, size + 1)]
        eid += size
        lines += [f"edge {e} x{i} x{i + 1} weight=1 dir={'+-'[i % 2]}" for e in ids]
        rot[i] += ids
        rot[i + 1] = ids[::-1] + rot[i + 1]
    lines += [f"rot x{i} " + " ".join(r) for i, r in enumerate(rot)]
    return "\n".join(lines) + "\n"


def cycle_text(n: int) -> str:
    """A Seifert graph file: a cycle of `n` single weight-1 edges, whose
    faces are two walks of length `n` and whose theta graph is empty."""
    lines = [f"vertex c{i}" for i in range(n)]
    lines += [f"edge {i} c{i} c{(i + 1) % n} weight=1 dir={'+-'[i % 2]}" for i in range(n)]
    lines += [f"rot c{i} {(i - 1) % n} {i}" for i in range(n)]
    return "\n".join(lines) + "\n"


def graph_text(g: PlanarMultigraph) -> str:
    """The graph file of `g`; :meth:`PlanarMultigraph.from_text` reads it
    back as `g` when every weight is 1, and refuses any other weight."""
    lines = [f"vertex {v}" for v in g.vertices]
    lines += [f"edge {eid} {e.u} {e.v} weight={e.weight} dir={'+' if e.direction == 1 else '-'}"
              for eid, e in g.edges.items()]
    for v in g.vertices:
        lines.append(" ".join(["rot", v, *(eid for eid, _ in g.rotation[v])]))
    return "\n".join(lines) + "\n"
