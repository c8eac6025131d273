import itertools
import random
import time
from collections import Counter
from dataclasses import dataclass

import pytest

from kakimizu import fibred
from kakimizu.errors import InputError, StructureError
from kakimizu.fibred import (ReductionGraph, _WorkingGraph, reduction_certificate,
                             replay_certificate)


def is_fibred_special(g: ReductionGraph) -> bool:
    """Whether the special alternating piece with this graph is fibred."""
    return reduction_certificate(g) is not None


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


@dataclass(frozen=True)
class PersistentGraph:
    """The earlier persistent reducer, kept as an oracle: every move builds a
    new frozen graph and re-sorts its edges.  Its per-move connectivity
    check is left out; neither move can disconnect the graph."""

    vertices: frozenset
    edges: tuple

    def degree(self, v) -> int:
        return sum((u == v) + (w == v) for u, w in self.edges)

    def loops(self) -> list:
        return sorted({e for e in self.edges if e[0] == e[1]})

    def contractible(self) -> list:
        degree = Counter(end for edge in self.edges for end in edge)
        return sorted({(u, v) for u, v in self.edges if u != v and 2 in (degree[u], degree[v])})

    def delete_loop(self, edge) -> "PersistentGraph":
        u, v = edge
        if u != v or edge not in self.edges:
            raise InputError(f"{edge} is not a loop of this graph")
        edges = list(self.edges)
        edges.remove(edge)
        if not edges and len(self.vertices) > 1:
            raise StructureError("deleting the loop disconnected the graph")
        return PersistentGraph(self.vertices, tuple(edges))

    def contract(self, edge) -> "PersistentGraph":
        u, v = edge
        if u == v or edge not in self.edges:
            raise InputError(f"{edge} is not a non-loop edge of this graph")
        if self.degree(u) != 2 and self.degree(v) != 2:
            raise InputError(f"contraction of {edge} needs an endpoint of valence 2")
        keep, gone = min(u, v), max(u, v)
        edges = list(self.edges)
        edges.remove(edge)
        renamed = [tuple(sorted((keep if a == gone else a, keep if b == gone else b)))
                   for a, b in edges]
        return PersistentGraph(self.vertices - {gone}, tuple(sorted(renamed)))

    def is_reduced(self) -> bool:
        return len(self.vertices) == 1 and not self.edges


def oracle_certificate(g: ReductionGraph):
    moves = []
    h = PersistentGraph(g.vertices, g.edges)
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


def oracle_replay(g: ReductionGraph, moves) -> bool:
    h = PersistentGraph(g.vertices, g.edges)
    for kind, edge in moves:
        if kind == "delete_loop":
            h = h.delete_loop(tuple(edge))
        elif kind == "contract":
            h = h.contract(tuple(edge))
        else:
            raise InputError(f"unknown certificate move {kind!r}")
    return h.is_reduced()


def relabelled_multigraph(rng):
    """A random connected multigraph on at most 30 vertices with scattered
    labels: a spanning tree whose edges are mostly doubled, plus loops and
    at most two extra edges, so that both answers are common."""
    n = rng.randint(1, 30)
    labels = rng.sample(range(3 * n), n)
    pairs = []
    double = rng.choice((0.9, 1.0))
    for v in range(1, n):
        pairs += [(rng.randrange(v), v)] * (2 if rng.random() < double else 1)
    for _ in range(rng.randint(0, n)):
        v = rng.randrange(n)
        pairs.append((v, v))
    for _ in range(rng.choice((0, 0, 1, 2))):
        pairs.append((rng.randrange(n), rng.randrange(n)))
    return ReductionGraph.from_pairs(labels, [(labels[a], labels[b]) for a, b in pairs])


def benchmark_families():
    """The families the fibred benchmark runs: chorded cycles, the ladder,
    looped paths and cycles, bouquets."""
    def cycle(n):
        return [(i, (i + 1) % n) for i in range(n)]
    for n in (10, 12, 14):
        yield ReductionGraph.from_pairs(n, cycle(n) + [(0, n // 2)] * 2)
    for k in (3, 4, 5):
        yield ReductionGraph.from_pairs(2 * k, [(i, i + 1) for i in range(k - 1)]
                                        + [(k + i, k + i + 1) for i in range(k - 1)]
                                        + [(i, k + i) for i in range(k)])
    for n in (4, 6):
        pairs = [(i, i + 1) for i in range(n - 1)]
        for v in range(n):
            pairs += [(v, v)] * (1 + v % 2)
        yield ReductionGraph.from_pairs(n, pairs)
    for n in (3, 20, 40):
        yield ReductionGraph.from_pairs(n, cycle(n))
    for n in (12, 16, 20):
        yield ReductionGraph.from_pairs(n, cycle(n) + [(i, i) for i in range(n)])
    for loops in (1, 300, 900):
        yield ReductionGraph.from_pairs(1, [(0, 0)] * loops)


def outcome(replay, g, moves):
    try:
        return replay(g, moves)
    except Exception as exc:   # the class is the outcome under comparison
        return type(exc)


def loop_runs(cert):
    """The (start, end) slices of the maximal runs of equal loop deletions."""
    runs, start = [], 0
    for i in range(1, len(cert) + 1):
        if i == len(cert) or cert[i] != cert[start]:
            if cert[start][0] == "delete_loop":
                runs.append((start, i))
            start = i
    return runs


def mutations(cert, rng):
    """The certificate with one move dropped, two moves swapped, one
    contracted edge reversed, one loop deletion added to a run of them, and
    the last move of a loop run moved past the next different move."""
    i = rng.randrange(len(cert))
    yield cert[:i] + cert[i + 1:]
    if len(cert) > 1:
        i, j = sorted(rng.sample(range(len(cert)), 2))
        yield cert[:i] + [cert[j]] + cert[i + 1:j] + [cert[i]] + cert[j + 1:]
    contractions = [k for k, (kind, _) in enumerate(cert) if kind == "contract"]
    if contractions:
        k = rng.choice(contractions)
        u, v = cert[k][1]
        yield cert[:k] + [("contract", (v, u))] + cert[k + 1:]
    # drawn from a stream of their own, so that the shared rng's draws do not
    # depend on them
    local = random.Random(repr(cert))
    runs = loop_runs(cert)
    if runs:
        start, end = local.choice(runs)
        yield cert[:end] + [cert[start]] + cert[end:]
    followed = [(start, end) for start, end in runs if end < len(cert)]
    if followed:
        start, end = local.choice(followed)
        yield cert[:end - 1] + [cert[end], cert[end - 1]] + cert[end + 1:]


class TestPersistentOracle:
    def assert_same(self, graphs, rng):
        answers = Counter()
        for g in graphs:
            cert = reduction_certificate(g)
            assert cert == oracle_certificate(g), g
            answers[cert is not None] += 1
            if cert:
                assert replay_certificate(g, cert) is True
                for mutated in mutations(cert, rng):
                    assert (outcome(replay_certificate, g, mutated)
                            == outcome(oracle_replay, g, mutated)), (g, mutated)
        return answers

    def test_every_small_graph(self):
        answers = self.assert_same(connected_multigraphs(4, 6), random.Random(5))
        assert sum(answers.values()) == 3181

    def test_random_relabelled_multigraphs(self):
        rng = random.Random(2024)
        answers = self.assert_same([relabelled_multigraph(rng) for _ in range(3000)], rng)
        assert min(answers.values()) > 500, answers

    def test_benchmark_families(self):
        answers = self.assert_same(list(benchmark_families()), random.Random(3))
        assert answers[True] and answers[False]


class TestReductionGraph:
    def test_from_text(self):
        g = ReductionGraph.from_text("v=3; edges=(0,1)(1,2)(2,2)")
        assert g.vertices == {0, 1, 2}
        assert g.edges == ((0, 1), (1, 2), (2, 2))

    @pytest.mark.parametrize("bad", ["", "v=2; edges=", "v=2; edges=(0,3)",
                                     "edges=(0,1)", "v=x; edges=(0,1)",
                                     "v=1000000000; edges=(0,0)"])
    def test_rejects(self, bad):
        with pytest.raises(InputError):
            ReductionGraph.from_text(bad)

    def test_from_pairs_orders_each_pair_as_sorting_does(self):
        # the per-pair sort it replaced is the oracle, on random pairs with
        # loops, reversed pairs and repeats, given as tuples and as lists
        rng = random.Random(31)
        for _ in range(300):
            n = rng.randint(1, 8)
            pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 12))]
            pairs += [(v, v) for v in rng.sample(range(n), rng.randint(0, n))]
            pairs += [(b, a) for a, b in rng.sample(pairs, len(pairs) // 3)]
            pairs += [(u, u + 1) for u in range(n - 1)]   # a path keeps it connected
            rng.shuffle(pairs)
            given = [list(p) if rng.random() < 0.3 else p for p in pairs]
            g = ReductionGraph.from_pairs(n, given)
            assert g.edges == tuple(sorted(tuple(sorted(p)) for p in pairs))
            assert g == ReductionGraph(frozenset(range(n)), g.edges)

    def test_disconnected_rejected(self):
        with pytest.raises(InputError):
            ReductionGraph.from_pairs(4, [(0, 1), (2, 3)])

    @pytest.mark.parametrize("vertices, edges, message", [
        (frozenset(), (), "at least one vertex"),
        (frozenset({0}), ((0, 1),), "unknown vertex"),
        (frozenset({0, 1}), ((1, 0),), "u <= v"),
        (frozenset({0, 1}), ((0, 0), (1, 1)), "connected"),
        (frozenset({0, 1}), ((0, 0), (0, 0)), "connected"),
    ])
    def test_constructor_rejects(self, vertices, edges, message):
        with pytest.raises(InputError, match=message):
            ReductionGraph(vertices, edges)

    def test_contract_parallel_makes_loop(self):
        g = ReductionGraph.from_pairs(2, [(0, 1), (0, 1)])
        assert replay_certificate(g, [("contract", (0, 1))]) is False
        assert replay_certificate(g, [("contract", (0, 1)), ("delete_loop", (0, 0))]) is True
        with pytest.raises(InputError, match="not a loop"):
            replay_certificate(g, [("contract", (0, 1)), ("delete_loop", (1, 1))])

    def test_contract_needs_valence_two(self):
        g = ReductionGraph.from_pairs(2, [(0, 1), (0, 1), (0, 1)])
        with pytest.raises(InputError, match="valence 2"):
            replay_certificate(g, [("contract", (0, 1))])


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


def is_fibred_homogeneous(pieces) -> bool:
    """Fibredness of a Murasugi sum: every summand must be fibred."""
    pieces = list(pieces)
    if not pieces:
        raise InputError("a Murasugi decomposition needs at least one piece")
    return all(is_fibred_special(p) for p in pieces)


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

    def test_large_graphs_reduce_in_near_linear_time(self):
        # a quadratic reducer needs minutes for these
        n = 20_000
        graphs = [ReductionGraph.from_pairs(1, [(0, 0)] * n),
                  ReductionGraph.from_pairs(n, [(i, (i + 1) % n) for i in range(n)]
                                            + [(i, i) for i in range(n)])]
        began = time.perf_counter()
        for g in graphs:
            cert = reduction_certificate(g)
            assert cert is not None and len(cert) == len(g.edges)
            assert replay_certificate(g, cert)
        assert time.perf_counter() - began < 10


class TestLoopRuns:
    def test_bouquet_is_one_run(self, monkeypatch):
        runs = []
        delete_loops = _WorkingGraph.delete_loops

        def spy(self, edge, count):
            runs.append(count)
            delete_loops(self, edge, count)

        monkeypatch.setattr(_WorkingGraph, "delete_loops", spy)
        g = ReductionGraph.from_pairs(1, [(0, 0)] * 1500)
        cert = reduction_certificate(g)
        assert cert == [("delete_loop", (0, 0))] * 1500
        assert runs == [1500]
        assert replay_certificate(g, cert) is True
        assert runs == [1500, 1500]

    def test_replay_takes_a_one_shot_iterator(self):
        g = ReductionGraph.from_pairs(3, [(0, 0), (0, 0), (0, 1), (0, 1), (1, 1), (1, 2), (1, 2)])
        cert = reduction_certificate(g)
        assert len(loop_runs(cert)) < sum(kind == "delete_loop" for kind, _ in cert)
        assert replay_certificate(g, iter(cert)) is True
        assert replay_certificate(g, (move for move in cert[:-1])) is False
        # equal moves that are other objects replay as the same certificate
        assert replay_certificate(g, iter([(kind, edge) for kind, edge in cert])) is True

    def test_equal_moves_are_each_checked(self):
        g = ReductionGraph.from_pairs(1, [(0, 0)] * 3)
        with pytest.raises(InputError, match="two vertex labels"):
            replay_certificate(g, [("delete_loop", (0, 0)), ("delete_loop", (0.0, 0.0))])
        loop = ("delete_loop", (0, 0))
        equal = tuple(["delete_loop", (0, 0)])
        assert equal == loop and equal is not loop
        with pytest.raises(InputError, match="not a loop"):
            replay_certificate(g, [loop] * 3 + [equal])
        with pytest.raises(InputError, match="not a loop"):
            replay_certificate(g, [loop] * 4)


class TestMalformedMoves:
    @pytest.mark.parametrize("move", [("contract", (1,)), ("delete_loop", (0, 0, 0)),
                                      ("contract", 5)])
    def test_rejected_as_input(self, move):
        g = ReductionGraph.from_pairs(2, [(0, 1), (0, 1)])
        with pytest.raises(InputError):
            replay_certificate(g, [move])

    @pytest.mark.parametrize("move", [("contract", (1, 0)), ("contract", (0, "1")),
                                      ("delete_loop", (0, 1)), ("shrink", (0, 1)), 7])
    def test_illegal_move_rejected(self, move):
        g = ReductionGraph.from_pairs(2, [(0, 1), (0, 1)])
        with pytest.raises(InputError):
            replay_certificate(g, [move])

    def test_graph_moves_share_the_checks(self):
        g = ReductionGraph.from_pairs(2, [(0, 1), (0, 1), (0, 1)])
        with pytest.raises(InputError, match="valence 2"):
            replay_certificate(g, [("contract", (0, 1))])
        with pytest.raises(InputError, match="not a loop"):
            replay_certificate(g, [("delete_loop", (1, 1))])


class TestReplayState:
    def test_replay_builds_no_heap(self, monkeypatch):
        # the heaps belong to the search: the replay copies the graph only
        certified = [(g, cert) for g in benchmark_families()
                     if (cert := reduction_certificate(g)) is not None]

        def refuse(*args):
            raise AssertionError("the replay touched a heap")

        monkeypatch.setattr(fibred, "heapify", refuse)
        monkeypatch.setattr(fibred, "heappush", refuse)
        for g, cert in certified:
            assert replay_certificate(g, cert) is True
