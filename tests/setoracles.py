"""Reference oracles for the complex builders.

The set-based oracles for the complex a family of candidates spans compare
sets pair by pair and search neighbour sets, with none of the bitmask
machinery of :meth:`kakimizu.complexes.SimplicialComplex.from_maximal`.
:func:`all_full_passes` is the pass walk on label sets, without the
least-start pruning or the index masks of
:func:`kakimizu.complexes.full_passes`, which :func:`labelled_full_passes`
reads back as label sets.  :func:`labelled_pass_complex` is the route that
maps each visited index set to labels for
:meth:`~kakimizu.complexes.SimplicialComplex.from_maximal`, which the keyed
masks of :func:`kakimizu.complexes.pass_complex` replaced,
:func:`apply_region` the region move on weight dicts that the theta build's
packed step replaced, :func:`tuple_reachability` the breadth-first
search on weight tuples that the packed ints of
:func:`kakimizu.thetagraph.build_complex` replaced, and
:func:`rewalking_add_zero_edges` the zero-edge
insertion that walks the whole graph again after every insertion and tests
every position pair of a face, which the local face splits of
:func:`kakimizu.thetagraph.add_zero_edges` replaced.
:func:`skeleton_to_dot` is the DOT export that maps each edge of the
1-skeleton to label texts, which :func:`kakimizu.complexes.to_dot`,
sorting the ranks of the texts, replaced.  :func:`theta_walk` hands the
tests what a theta build's pass walker saw and yielded, so that
:func:`all_full_passes` and :func:`labelled_pass_complex` can walk the
same packed states.  :func:`recorded_build` does the same for a 2-bridge
build's call of :func:`kakimizu.complexes.pass_complex`, and
:func:`pass_unions` and :func:`both_routes` walk its moves from every
surface tuple, not only from the starts the build picked.
"""

from functools import cache
from itertools import combinations, product
from unittest import mock

from kakimizu import thetagraph, twobridge
from kakimizu.complexes import SimplicialComplex, full_passes, label_text
from kakimizu.errors import InputError, KakimizuError, SizeLimitError, StructureError
from kakimizu.thetagraph import Edge, _edge_key, region_signatures

from isomorphism import one_skeleton
from randgraphs import fresh, walk_vertices


class MoveError(Exception):
    """:func:`apply_region` met a region that does not apply."""


def pairwise_maximal(family):
    """The candidates no other candidate strictly contains, found by comparing
    every pair."""
    sims = {frozenset(s) for s in family}
    sims.discard(frozenset())
    return {s for s in sims if not any(s < other for other in sims)}


def set_flag_closure(edges, vertices):
    """The maximal cliques of a graph, isolated vertices as singletons, by
    set-based Bron-Kerbosch with a sorted pivot choice: the implementation
    the bitmask kernel replaced."""
    verts = sorted(set(vertices), key=label_text)
    adj = {v: set() for v in verts}
    for e in edges:
        a, b = tuple(e)
        adj[a].add(b)
        adj[b].add(a)
    cliques = set()

    def expand(r, p, x):
        if not p and not x:
            cliques.add(frozenset(r))
            return
        pivot = max(sorted(p | x, key=label_text), key=lambda v: len(adj[v] & p))
        for v in sorted(p - adj[pivot], key=label_text):
            expand(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    expand(set(), set(verts), set())
    return cliques


def set_is_flag(family):
    """The complex the family spans equals the flag closure of its 1-skeleton."""
    maximal = pairwise_maximal(family)
    edges = {frozenset(p) for s in maximal for p in combinations(s, 2)}
    return set_flag_closure(edges, set().union(*maximal)) == maximal


def set_is_connected(family):
    """The 1-skeleton of the complex the family spans is connected, by a
    depth-first search over neighbour sets."""
    adj: dict = {}
    for s in family:
        for v in s:
            adj.setdefault(v, set()).update(s)
    start = min(adj, key=label_text)
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == set(adj)


def all_full_passes(start, moves, step, label):
    """Label sets visited by every full pass of `moves` from `start`: the
    subset walk of :func:`kakimizu.complexes.full_passes`, with the same
    order and return checks, keeping the passes that visit states below
    `start`."""
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


def positions(mask):
    """The positions of the set bits of `mask`, lowest first."""
    return [i for i, bit in enumerate(reversed(bin(mask)[2:])) if bit == "1"]


def labelled_full_passes(start, moves, step, label):
    """:func:`kakimizu.complexes.full_passes` on any hashable labels: each
    label is given the next bit position when the walk first asks for it,
    and each visited mask is read back as the frozenset of its labels."""
    bit: dict = {}
    masks = full_passes(start, moves, step, lambda s: bit.setdefault(label(s), len(bit)))
    names = list(bit)
    return frozenset(frozenset(names[i] for i in positions(m)) for m in masks)


def recorded_build(chain):
    """Build the complex of `chain` with its call of
    ``twobridge.pass_complex`` recorded and the call's step memoised: the
    build's outcome, its complex or the type and text of its refusal, and
    the call's starts, moves, step, label and names."""
    calls = []
    real = twobridge.pass_complex

    def spy(starts, moves, step, label, names):
        calls.append((list(starts), tuple(moves), cache(step), label, names))
        return real(*calls[-1])
    with mock.patch.object(twobridge, "pass_complex", spy):
        try:
            outcome = twobridge.build_complex(chain)
        except KakimizuError as exc:
            outcome = (type(exc), str(exc))
    (call,) = calls
    return outcome, call


def every_tuple(chain):
    """Every surface tuple of `chain`, in lexicographic order."""
    return list(product((0, 1), repeat=chain.disks))


def pass_unions(chain):
    """The union, over every surface tuple of `chain` as a start, of the
    engine's passes and of the oracle's, with the number of passes each
    found start by start, on the moves, step and labels that
    ``twobridge.build_complex`` hands to ``pass_complex``."""
    _, (_, moves, step, label, _) = recorded_build(chain)
    found = []
    for walk in (labelled_full_passes, all_full_passes):
        passes = [walk(s, moves, step, label) for s in every_tuple(chain)]
        found.append((set().union(*passes), sum(map(len, passes))))
    return found


def labelled_pass_complex(starts, moves, step, label, names):
    """The complex spanned by the full passes from every start, assembled
    on labels: every vertex as a singleton, first and in the order of
    `names`, then each visited index mask of two or more vertices mapped
    to `names`, all handed to ``SimplicialComplex.from_maximal``."""
    moves = tuple(moves)
    visited: set = set()
    for start in starts:
        visited |= full_passes(start, moves, step, label)
    candidates = [[v] for v in names]
    while visited:
        s = positions(visited.pop())
        if len(s) > 1:
            candidates.append([names[i] for i in s])
    return SimplicialComplex.from_maximal(candidates)


def both_routes(chain):
    """The complex ``twobridge.build_complex`` makes of `chain`, and the one
    :func:`labelled_pass_complex` makes from every surface tuple as a start,
    on the moves, step, labels and names of the build's call of
    ``pass_complex``; for each, the vertices and maximal simplices of the
    complex as frozensets, or the type and text of the refusal."""
    built, (_, moves, step, label, names) = recorded_build(chain)
    try:
        walked = labelled_pass_complex(every_tuple(chain), moves, step, label, names)
    except KakimizuError as exc:
        walked = (type(exc), str(exc))
    return [c if isinstance(c, tuple) else (frozenset(c.vertices), frozenset(c.simplices))
            for c in (built, walked)]


def theta_walk(build):
    """Run `build()` of a theta complex, with its call of
    ``thetagraph._kept_passes`` recorded: the packed vectors, in index
    order, the packed region step of ``thetagraph.build_complex``, the
    number of regions, the list of visited index masks the walker yields
    for each vector, and the build's outcome, its complex or the type and
    text of its refusal.  None when the build refuses its input before the
    walk."""
    calls = []
    walk = thetagraph._kept_passes

    def spy(states, index, moves, guard, width):
        masks = list(walk(states, index, moves, guard, width))
        calls.append((states, moves, guard, masks))
        return masks
    with mock.patch.object(thetagraph, "_kept_passes", spy):
        try:
            outcome = build()
        except KakimizuError as exc:
            outcome = (type(exc), str(exc))
    if not calls:
        return None
    ((states, moves, guard, masks),) = calls

    def step(w, r):
        add, sub = moves[r]
        after = (w | guard) - sub
        return None if after & guard != guard else (after ^ guard) + add
    return states, step, len(moves), masks, outcome


def skeleton_to_dot(c: SimplicialComplex) -> str:
    """DOT with one node per vertex, one edge per 1-simplex of the
    1-skeleton and a comment per maximal simplex of dimension two or more,
    each item in sorted label-text order."""
    text = {v: label_text(v) for v in c.vertices}
    lines = ["graph kakimizu {", "  node [shape=circle];"]
    for v in sorted(text.values()):
        lines.append(f'  "{v}";')
    for e in sorted(sorted(text[v] for v in e) for e in one_skeleton(c)):
        lines.append(f'  "{e[0]}" -- "{e[1]}";')
    for s in sorted(sorted(text[v] for v in s) for s in c.simplices):
        if len(s) >= 3:
            lines.append("  // filled simplex: " + " ".join(s))
    lines.append("}")
    return "\n".join(lines) + "\n"


def apply_region(w: dict, boundary) -> dict:
    """Shift each weight of a region's signed boundary by its sign; other
    weights are untouched."""
    out = dict(w)
    for eid, sign in boundary:
        if eid not in out:
            raise InputError(f"weight vector missing edge {eid}")
        out[eid] += sign
        if out[eid] < 0:
            raise MoveError(f"region drives edge {eid} negative")
    return out


def tuple_reachability(tg, w0: dict, max_vertices: int):
    """The weight tuples, in ``tg.edge_order()``, that the regions of `tg`
    reach from `w0`, in breadth-first order, the regions as moves and the
    step on tuples: a region adds each edge's sum of its signs there, and
    does not apply where a weight would drop below zero.  SizeLimitError
    is raised when a search finds more than `max_vertices` tuples."""
    order = tg.edge_order()
    shifts = [tuple(sum(s for e, s in boundary if e == eid) for eid in order)
              for boundary in region_signatures(tg)]

    def step(w, r):
        w2 = tuple(a + b for a, b in zip(w, shifts[r]))
        return None if min(w2) < 0 else w2

    states = [tuple(w0[eid] for eid in order)]
    seen = {states[0]}
    for w in states:
        for r in range(len(shifts)):
            w2 = step(w, r)
            if w2 is not None and w2 not in seen:
                if len(states) >= max_vertices:
                    raise SizeLimitError(f"more than {max_vertices} reachable surfaces")
                seen.add(w2)
                states.append(w2)
    return states, range(len(shifts)), step


def rewalking_add_zero_edges(g):
    """Insert weight-0 edges at the first qualifying position of the sorted
    faces, walking the graph afresh each round, until none qualifies; each
    new edge is oriented like the least edge of its family at the time."""
    counter = 0
    while True:
        g = fresh(g)   # a new walk of the graph as the last round left it
        insertion = _first_zero_insertion(g)
        if insertion is None:
            return g
        walk, i, j = insertion
        counter += 1
        eid = f"z{counter}"
        while eid in g.edges:
            counter += 1
            eid = f"z{counter}"
        verts = walk_vertices(g, walk)
        u, v = verts[i], verts[j]
        partner = min(g.parallel_families()[frozenset((u, v))], key=_edge_key)
        pe = g.edges[partner]
        tail = pe.u if pe.direction == 1 else pe.v
        g.edges[eid] = Edge(u, v, 0, 1 if tail == u else -1)
        # the walk leaves u along walk[i]: an end placed just before it
        # in u's rotation puts the new edge inside this face
        for x, departing, end in ((u, walk[i], 0), (v, walk[j], 1)):
            rot = g.rotation[x]
            rot.insert(rot.index(departing), (eid, end))


def _first_zero_insertion(g):
    pairs = set(g.parallel_families())
    for walk in g.faces():
        length = len(walk)
        verts = walk_vertices(g, walk)
        for i in range(length):
            for j in range(i + 1, length):
                u, v = verts[i], verts[j]
                if u == v:
                    continue
                arc, coarc = j - i, length - (j - i)
                if arc < 2 or coarc < 2:
                    continue
                if frozenset((u, v)) in pairs:
                    return walk, i, j
    return None
