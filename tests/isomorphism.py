"""Isomorphism of small simplicial complexes, the acceptance oracle.

The package compares recognised shapes by name; the acceptance tests
compare computed complexes with representatives of the published shapes
up to relabelling, with this backtracking search.
"""

from collections import Counter
from itertools import combinations

from kakimizu.complexes import SimplicialComplex, label_text
from kakimizu.errors import SizeLimitError

ISO_VERTEX_LIMIT = 64


def one_skeleton(c: SimplicialComplex) -> set:
    """All 1-simplices of `c`, as frozenset pairs."""
    edges = set()
    for s in c.simplices:
        edges.update(frozenset(p) for p in combinations(s, 2))
    return edges


def _vertex_profile(c: SimplicialComplex) -> dict:
    deg = Counter(v for e in one_skeleton(c) for v in e)
    prof = {}
    for v in c.vertices:
        sizes = sorted(len(s) for s in c.simplices if v in s)
        prof[v] = (deg[v], tuple(sizes))
    return prof


def isomorphic(a: SimplicialComplex, b: SimplicialComplex,
               max_vertices: int = ISO_VERTEX_LIMIT) -> bool:
    """Decide complex isomorphism by backtracking over vertex bijections.

    Pruned by degree and by the multiset of maximal-simplex sizes through
    each vertex; intended for the small complexes arising from knot tables.
    """
    if len(a.vertices) > max_vertices or len(b.vertices) > max_vertices:
        raise SizeLimitError(f"isomorphism test limited to {max_vertices} vertices")
    if len(a.vertices) != len(b.vertices):
        return False
    if sorted(len(s) for s in a.simplices) != sorted(len(s) for s in b.simplices):
        return False
    prof_a = _vertex_profile(a)
    prof_b = _vertex_profile(b)
    if sorted(prof_a.values()) != sorted(prof_b.values()):
        return False

    edges_a = one_skeleton(a)
    edges_b = one_skeleton(b)
    adj_b: dict = {v: set() for v in b.vertices}
    for e in edges_b:
        x, y = tuple(e)
        adj_b[x].add(y)
        adj_b[y].add(x)
    adj_a: dict = {v: set() for v in a.vertices}
    for e in edges_a:
        x, y = tuple(e)
        adj_a[x].add(y)
        adj_a[y].add(x)

    # most-constrained-first assignment order
    order = sorted(a.vertices, key=lambda v: (-prof_a[v][0], label_text(v)))

    def extend(i: int, mapping: dict, used: set) -> bool:
        if i == len(order):
            mapped = {frozenset(mapping[v] for v in s) for s in a.simplices}
            return mapped == set(b.simplices)
        v = order[i]
        for w in sorted(b.vertices - used, key=label_text):
            if prof_a[v] != prof_b[w]:
                continue
            ok = True
            for u in mapping:
                if (u in adj_a[v]) != (mapping[u] in adj_b[w]):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used.add(w)
                if extend(i + 1, mapping, used):
                    return True
                del mapping[v]
                used.discard(w)
        return False

    return extend(0, {}, set())
