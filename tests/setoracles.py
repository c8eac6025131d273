"""Set-based reference oracles for the complex a family of candidates spans.

They compare sets pair by pair and search neighbour sets, with none of the
bitmask machinery of :meth:`kakimizu.complexes.SimplicialComplex.from_maximal`.
"""

from itertools import combinations

from kakimizu.complexes import label_text


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
