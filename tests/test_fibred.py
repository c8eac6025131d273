import itertools
import random

import pytest

from kakimizu.errors import InputError
from kakimizu.fibred import (ReductionGraph, is_fibred_homogeneous, is_fibred_special,
                             reduction_certificate, replay_certificate)


def random_connected_multigraph(rng, max_edges=8):
    """Random spanning tree plus extra edges and loops."""
    n = rng.randint(1, 5)
    pairs = []
    for v in range(1, n):
        pairs.append((rng.randrange(v), v))
    target = rng.randint(len(pairs), max_edges)
    while len(pairs) < target:
        if rng.random() < 0.25:
            v = rng.randrange(n)
            pairs.append((v, v))
        else:
            pairs.append((rng.randrange(n), rng.randrange(n)))
    return ReductionGraph.from_pairs(n, pairs)


def connected_multigraphs(max_vertices, max_edges):
    """Every connected multigraph on 0..n-1 with n <= max_vertices and at
    most max_edges edges, loops and repeats included."""
    for n in range(1, max_vertices + 1):
        slots = [(u, v) for u in range(n) for v in range(u, n)]
        for m in range(n - 1, max_edges + 1):
            for pairs in itertools.combinations_with_replacement(slots, m):
                try:
                    g = ReductionGraph.from_pairs(n, pairs)
                except InputError:   # disconnected
                    continue
                yield g


def _moves(edges):
    """The available moves, restating the rules inline: shares no code
    with the reducer under test."""
    deg = {}
    for u, v in edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return ([("loop", e) for e in edges if e[0] == e[1]]
            + [("contract", e) for e in edges
               if e[0] != e[1] and (deg[e[0]] == 2 or deg[e[1]] == 2)])


def _apply(verts, edges, move):
    kind, (u, v) = move
    edges = list(edges)
    edges.remove((u, v))
    if kind == "contract":
        keep, gone = min(u, v), max(u, v)
        edges = [tuple(sorted((keep if a == gone else a, keep if b == gone else b)))
                 for a, b in edges]
        verts = verts - {gone}
    return verts, edges


def greedy_reduces(g: ReductionGraph, rng) -> bool:
    """Independent greedy reducer: apply a random available move until stuck."""
    verts, edges = set(g.vertices), list(g.edges)
    while edges:
        moves = _moves(edges)
        if not moves:
            return False
        verts, edges = _apply(verts, edges, rng.choice(moves))
    return len(verts) == 1


def backtracking_reduces(verts, edges) -> bool:
    """Reference oracle: try every move sequence, with no memo and no
    assumption that the move system is confluent."""
    if not edges:
        return len(verts) == 1
    return any(backtracking_reduces(*_apply(verts, edges, move)) for move in _moves(edges))


class TestReductionGraph:
    def test_from_text(self):
        g = ReductionGraph.from_text("v=3; edges=(0,1)(1,2)(2,2)")
        assert g.degree(2) == 3
        assert g.loops() == [(2, 2)]

    @pytest.mark.parametrize("bad", ["", "v=2; edges=", "v=2; edges=(0,3)",
                                     "edges=(0,1)", "v=x; edges=(0,1)",
                                     "v=1000000000; edges=(0,0)"])
    def test_rejects(self, bad):
        with pytest.raises(InputError):
            ReductionGraph.from_text(bad)

    def test_disconnected_rejected(self):
        with pytest.raises(InputError):
            ReductionGraph.from_pairs(4, [(0, 1), (2, 3)])

    def test_contract_parallel_makes_loop(self):
        g = ReductionGraph.from_pairs(2, [(0, 1), (0, 1)])
        h = g.contract((0, 1))
        assert h.edges == ((0, 0),)

    def test_contract_needs_valence_two(self):
        g = ReductionGraph.from_pairs(2, [(0, 1), (0, 1), (0, 1)])
        with pytest.raises(InputError):
            g.contract((0, 1))


class TestFibredSpecial:
    def test_bare_vertex(self):
        assert is_fibred_special(ReductionGraph.from_pairs(1, []))

    def test_single_loop(self):
        assert is_fibred_special(ReductionGraph.from_pairs(1, [(0, 0)]))

    def test_theta_graph_is_not(self):
        g = ReductionGraph.from_pairs(2, [(0, 1)] * 3)
        assert not is_fibred_special(g)

    def test_doubled_edge_is(self):
        # contract one copy, the other becomes a loop
        g = ReductionGraph.from_pairs(2, [(0, 1), (0, 1)])
        assert is_fibred_special(g)

    def test_subdivided_theta_is_not(self):
        # contracting the valence-2 corners just rebuilds the triple edge
        g = ReductionGraph.from_pairs(4, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 0)])
        assert not is_fibred_special(g)

    def test_doubled_path_is(self):
        g = ReductionGraph.from_pairs(3, [(0, 1), (0, 1), (1, 2), (1, 2)])
        assert is_fibred_special(g)

    def test_certificate_replays(self):
        g = ReductionGraph.from_pairs(3, [(0, 1), (0, 1), (1, 2), (1, 2)])
        cert = reduction_certificate(g)
        assert cert is not None
        assert replay_certificate(g, cert)
        assert len(cert) == len(g.edges)

    def test_no_certificate_for_stuck_graph(self):
        g = ReductionGraph.from_pairs(2, [(0, 1)] * 3)
        assert reduction_certificate(g) is None


class TestHomogeneous:
    def test_all_pieces_fibred(self):
        pieces = [ReductionGraph.from_pairs(1, [(0, 0)]),
                  ReductionGraph.from_pairs(1, [(0, 0), (0, 0)])]
        assert is_fibred_homogeneous(pieces)

    def test_one_piece_fails(self):
        pieces = [ReductionGraph.from_pairs(1, [(0, 0)]),
                  ReductionGraph.from_pairs(2, [(0, 1)] * 3)]
        assert not is_fibred_homogeneous(pieces)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            is_fibred_homogeneous([])


class TestGreedyAgreement:
    def test_search_confirms_every_greedy_success(self):
        rng = random.Random(99)
        greedy_hits = 0
        for _ in range(120):
            g = random_connected_multigraph(rng)
            greedy_any = any(greedy_reduces(g, random.Random(seed))
                             for seed in range(50))
            if greedy_any:
                greedy_hits += 1
                assert is_fibred_special(g)
        assert greedy_hits > 10, "corpus should contain reducible graphs"

    def test_any_move_order_agrees(self):
        # the move system is confluent, so every random move order must
        # reach the answer of the reducer's fixed order
        rng = random.Random(1)
        for _ in range(300):
            g = random_connected_multigraph(rng)
            expected = is_fibred_special(g)
            for seed in range(5):
                assert greedy_reduces(g, random.Random(seed)) == expected, (g, seed)

    def test_agrees_with_backtracking_on_every_small_graph(self):
        count = 0
        for g in connected_multigraphs(4, 6):
            assert is_fibred_special(g) == backtracking_reduces(set(g.vertices), list(g.edges)), g
            count += 1
        assert count == 3181


class TestDeepReduction:
    def test_bouquet_deeper_than_recursion_limit(self):
        g = ReductionGraph.from_pairs(1, [(0, 0)] * 1500)
        cert = reduction_certificate(g)
        assert cert is not None and len(cert) == 1500
        assert replay_certificate(g, cert)
