import os
import random
import subprocess
import sys
import time
from collections import Counter
from itertools import permutations
from math import comb
from pathlib import Path

import pytest

from kakimizu.complexes import SimplicialComplex, recognize, to_json
from kakimizu.errors import InputError, KakimizuError, SizeLimitError, StructureError
from kakimizu.fibred import ReductionGraph, reduction_certificate, replay_certificate
from kakimizu.pipeline import load_theta_file
from kakimizu.thetagraph import (DEFAULT_MAX_VERTICES, MAX_REGIONS, Edge, PlanarMultigraph,
                                 _edge_key, add_zero_edges, build_complex, build_theta,
                                 reduce_bigons, region_signatures, theta_subgraph)

from euler import euler_characteristic
from randgraphs import (add_loop, add_pendant_bridge, cycle_text, fresh, graph_text,
                        necklace_text, random_sphere_graph, route_graph, separable_graph)
from setoracles import (MoveError, all_full_passes, apply_region, labelled_pass_complex,
                        rewalking_add_zero_edges, set_is_connected, set_is_flag, theta_walk,
                        tuple_reachability)

FIXTURES = ("theta_11_94.txt", "theta_11_237.txt", "theta_11_340.txt")
TESTS = Path(__file__).resolve().parent
EMPTY = "theta graph is empty: the knot has a unique surface"
UNREDUCED = "bigon between weight-positive edges was not reduced"
SPLIT = ("theta graph falls into pieces: "
         "its parallel families do not join every theta vertex")

# prints the edge order of build_theta on seeded random Seifert graphs
EDGE_ORDER_DUMP = """
import random
from kakimizu.errors import KakimizuError
from kakimizu.thetagraph import build_theta
from randgraphs import random_sphere_graph
rng = random.Random(5)
for _ in range(40):
    g = random_sphere_graph(rng, ops=rng.randint(4, 12))
    for e in g.edges.values():
        e.weight = 1
    try:
        tg = build_theta(g)
    except KakimizuError as exc:
        print("refused:", exc)
        continue
    print(list(tg.edges), {v: tg.rotation[v] for v in tg.vertices})
"""


def counted_build_theta(g, outcomes):
    """build_theta(g), or None for a refusal with a known StructureError;
    each outcome is counted by class in `outcomes`, so a graph that moves
    between classes shows, and any other error is raised."""
    try:
        tg = build_theta(g)
    except StructureError as exc:
        if str(exc) not in (EMPTY, UNREDUCED, SPLIT):
            raise
        outcomes[str(exc)] += 1
        return None
    outcomes["built"] += 1
    return tg


def parallel_edges(k, weights=None, dirs=None):
    """Two vertices joined by k parallel edges."""
    weights = weights or [1] * k
    dirs = dirs or [1] * k
    edges = {str(i): Edge("u", "v", weights[i], dirs[i]) for i in range(k)}
    rotation = {"u": [(str(i), 0) for i in range(k)],
                "v": [(str(i), 1) for i in reversed(range(k))]}
    return PlanarMultigraph(["u", "v"], edges, rotation)


def square_with_chord():
    """A 4-cycle u-x-v-y with the chord u-v drawn inside."""
    edges = {
        "1": Edge("u", "x", 1, 1), "2": Edge("x", "v", 1, 1),
        "3": Edge("v", "y", 1, 1), "4": Edge("y", "u", 1, 1),
        "5": Edge("u", "v", 1, 1),
    }
    rotation = {
        "u": [("1", 0), ("5", 0), ("4", 1)],
        "x": [("2", 0), ("1", 1)],
        "v": [("3", 0), ("5", 1), ("2", 1)],
        "y": [("4", 0), ("3", 1)],
    }
    return PlanarMultigraph(["u", "v", "x", "y"], edges, rotation)


def sequential_reduce_bigons(g, rng=None):
    """Reference oracle: merge one bigon at a time, recomputing the faces.

    Each round lists the bigons of the current graph and merges one of
    them, the first in sorted order or, with `rng`, a random one; the
    survivor keeps the smaller id and carries the weight sum.
    """
    while True:
        g = fresh(g)   # a new walk of the graph as the last round left it
        bigons = []
        for walk in g.faces():
            if len(walk) != 2:
                continue
            (e1, _), (e2, _) = walk
            if e1 == e2:
                continue
            if {g.edges[e1].u, g.edges[e1].v} == {g.edges[e2].u, g.edges[e2].v} \
                    and g.edges[e1].u != g.edges[e1].v:
                bigons.append(tuple(sorted((e1, e2), key=_edge_key)))
        if not bigons:
            return g
        bigons.sort()
        keep, drop = bigons[0] if rng is None else rng.choice(bigons)
        g.edges[keep].weight += g.edges[drop].weight
        for v in g.vertices:
            g.rotation[v] = [d for d in g.rotation[v] if d[0] != drop]
        del g.edges[drop]


def embedding(g):
    """Everything reduce_bigons decides: edges in order with their data, and rotations."""
    return ([(eid, e.u, e.v, e.weight, e.direction) for eid, e in g.edges.items()],
            g.rotation)


def permutation_complex(tg, w0):
    """Reference oracle: the complex from every ordering of the regions.

    Restates the region moves on weight dicts and walks all permutations
    of the regions from every reachable vector, with no shared code beyond
    the region signs.
    """
    regions = region_signatures(tg)
    order = tg.edge_order()

    def label(w):
        return tuple(w[eid] for eid in order)

    def try_region(w, region):
        out = dict(w)
        for eid, sign in region:
            out[eid] += sign
            if out[eid] < 0:
                return None
        return out

    seen = {label(w0): dict(w0)}
    frontier = [dict(w0)]
    while frontier:
        w = frontier.pop()
        for region in regions:
            w2 = try_region(w, region)
            if w2 is not None and label(w2) not in seen:
                seen[label(w2)] = w2
                frontier.append(w2)
    simplices = {frozenset([lab]) for lab in seen}
    for lab0, start in seen.items():
        for perm in permutations(regions):
            w = start
            visited = {lab0}
            for region in perm:
                w = try_region(w, region)
                if w is None:
                    break
                visited.add(label(w))
            else:
                assert label(w) == lab0, "a full pass must close up"
                simplices.add(frozenset(visited))
    return SimplicialComplex.from_maximal(simplices)


def orient_coherently(g):
    """Orient every edge out of one colour class of a bipartite graph, so
    that face walks alternate forward and backward edges and every region's
    signs balance.  Returns False when g is not bipartite."""
    colour = {g.vertices[0]: 0}
    stack = [g.vertices[0]]
    while stack:
        v = stack.pop()
        for eid, end in g.rotation[v]:
            w = g.edges[eid].u if end else g.edges[eid].v
            if w not in colour:
                colour[w] = 1 - colour[v]
                stack.append(w)
    for e in g.edges.values():
        if colour[e.u] == colour[e.v]:
            return False
        e.direction = 1 if colour[e.u] == 0 else -1
    return True


class TestFaces:
    def test_three_parallel_edges(self):
        g = parallel_edges(3)
        assert sorted(len(f) for f in g.faces()) == [2, 2, 2]

    def test_single_loop(self):
        # a crossing joins two different Seifert circles
        with pytest.raises(InputError, match="edge l is a loop"):
            PlanarMultigraph(["a"], {"l": Edge("a", "a", 1, 1)}, {"a": [("l", 0), ("l", 1)]})

    def test_two_edge_path(self):
        g = PlanarMultigraph(
            ["a", "b", "c"],
            {"1": Edge("a", "b", 1, 1), "2": Edge("b", "c", 1, 1)},
            {"a": [("1", 0)], "b": [("1", 1), ("2", 0)], "c": [("2", 1)]})
        faces = g.faces()
        assert len(faces) == 1 and len(faces[0]) == 4

    def test_each_side_used_once(self):
        g = square_with_chord()
        sides = [side for walk in g.faces() for side in walk]
        assert len(sides) == 2 * len(g.edges)
        assert len(set(sides)) == len(sides)

    def test_bad_rotation_fails_euler(self):
        # swapping one rotation produces a torus embedding
        edges = {str(i): Edge("u", "v", 1, 1) for i in range(3)}
        rotation = {"u": [("0", 0), ("1", 0), ("2", 0)],
                    "v": [("0", 1), ("1", 1), ("2", 1)]}
        with pytest.raises(StructureError):
            PlanarMultigraph(["u", "v"], edges, rotation)

    def test_foreign_end_and_zero_direction_refused(self):
        edges = {"1": Edge("u", "v", 1, 1), "2": Edge("u", "v", 1, 1)}
        with pytest.raises(StructureError, match=r"^rotation at u lists foreign end \('2', 1\)$"):
            PlanarMultigraph(["u", "v"], edges,
                             {"u": [("1", 0), ("2", 1)], "v": [("2", 0), ("1", 1)]})
        with pytest.raises(StructureError, match="^edge 2 has direction 0$"):
            PlanarMultigraph(["u", "v"], {**edges, "2": Edge("u", "v", 1, 0)},
                             {"u": [("1", 0), ("2", 0)], "v": [("2", 1), ("1", 1)]})

    def test_disconnected_rejected(self):
        with pytest.raises(StructureError):
            PlanarMultigraph(
                ["a", "b", "c", "d"],
                {"1": Edge("a", "b", 1, 1), "2": Edge("c", "d", 1, 1)},
                {"a": [("1", 0)], "b": [("1", 1)], "c": [("2", 0)], "d": [("2", 1)]})

    def test_kept_faces_match_a_fresh_walk(self, data_dir):
        # a validated graph returns the walks of its Euler check, as a
        # fresh copy walks them again, and a new list on every call
        rng = random.Random(6)
        graphs = [PlanarMultigraph.from_text((data_dir / name).read_text()) for name in FIXTURES]
        graphs += [random_sphere_graph(rng, ops=rng.randint(2, 12)) for _ in range(100)]
        graphs += [build_theta(route_graph(rng, r, 2, bundle=2)) for r in range(2, 6)]
        for g in graphs:
            faces = g.faces()
            assert faces == fresh(g).faces()
            faces[0] = ()
            faces.append(())
            assert g.faces() == fresh(g).faces() != faces


class TestParser:
    def test_fixture_roundtrip(self, data_dir):
        g = PlanarMultigraph.from_text((data_dir / "theta_11_94.txt").read_text())
        assert len(g.vertices) == 6 and len(g.edges) == 11
        assert all(e.weight == 1 for e in g.edges.values())

    @pytest.mark.parametrize("text", [
        "vertex a\nvertex a\n",
        "vertex a\nedge 1 a b weight=1 dir=+\n",
        "vertex a\nvertex b\nedge 1 a b weight=1 dir=*\nrot a 1\nrot b 1\n",
        "vertex a\nvertex b\nedge 1 a b weight=1 dir=+\nrot a 1 1\nrot b 1\n",
        "vertex a\nedge 1 a a weight=1 dir=+\nrot a 1 1\n",
        "vertex a\nvertex b\nedge 1 a b weight=1_0\nrot a 1\nrot b 1\n",
        "vertex a\nvertex b\nedge 1 a b weight=+1\nrot a 1\nrot b 1\n",
        "vertex a\nvertex b\nedge 1 a b weight=\u0663\nrot a 1\nrot b 1\n",
    ])
    def test_rejects(self, text):
        with pytest.raises((InputError, StructureError)):
            PlanarMultigraph.from_text(text)

    @pytest.mark.parametrize("lines, message", [
        ("edge 1 a b\nedge 1 a b\nrot a 1\nrot b 1", "duplicate edge 1"),
        ("edge 1 a b color=red\nrot a 1\nrot b 1", "bad edge attributes on 1"),
        ("edge 1 a b\nrot a 1\nrot a 1\nrot b 1", "duplicate rotation for a"),
        ("edge 1 a b\nrot a 1\nrot b 1\nrot c 1", "rotation for unknown vertex c"),
        ("edge 1 a b\nrot a 2\nrot b 1", "unknown edge '2' in rotation"),
        ("vertex c\nedge 1 a b\nrot a 1\nrot b 1\nrot c 1", "edge 1 is not incident to c"),
    ], ids=["duplicate_edge", "unknown_attribute", "duplicate_rotation", "unknown_vertex",
            "unknown_edge", "not_incident"])
    def test_refusal_messages(self, lines, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            PlanarMultigraph.from_text(f"vertex a\nvertex b\n{lines}\n")

    def test_weights_and_their_refusals(self):
        # a weight left out or written 1 reads as 1, and any other text is
        # refused as it is written; the constructor still refuses a negative
        # weight, which only a graph built in memory can have
        for attrs in ("", " weight=1", " dir=- weight=1"):
            g = PlanarMultigraph.from_text(
                f"vertex a\nvertex b\nedge 1 a b{attrs}\nrot a 1\nrot b 1\n")
            assert g.edges["1"].weight == 1
        with pytest.raises(InputError, match="^Seifert graph edge 1 has weight 007: "):
            PlanarMultigraph.from_text(
                "vertex a\nvertex b\nedge 1 a b weight=007\nrot a 1\nrot b 1\n")
        with pytest.raises(StructureError, match="^edge 1 has negative weight$"):
            PlanarMultigraph(["a", "b"], {"1": Edge("a", "b", -1, 1)},
                             {"a": [("1", 0)], "b": [("1", 1)]})

    def test_loop_refused(self):
        # an end is its edge id, so both ends of a loop read alike; the
        # loop is refused before the rotation is checked
        with pytest.raises(InputError, match="edge l is a loop"):
            PlanarMultigraph.from_text("vertex a\nedge l a a weight=1 dir=+\nrot a l l\n")


class TestReduceBigons:
    def test_three_parallel_merge_to_weight_three(self):
        g = reduce_bigons(parallel_edges(3))
        assert len(g.edges) == 1
        (eid,) = g.edges
        assert g.edges[eid].weight == 3

    def test_two_parallel(self):
        g = reduce_bigons(parallel_edges(2))
        assert [e.weight for e in g.edges.values()] == [2]

    def test_no_bigon_fixed_point(self):
        g = square_with_chord()
        reduced = reduce_bigons(g)
        assert set(reduced.edges) == set(g.edges)

    def test_order_independent(self, data_dir):
        # the one-at-a-time oracle, in sorted and in 20 random merge orders
        for name in FIXTURES:
            g = PlanarMultigraph.from_text((data_dir / name).read_text())
            reference = embedding(reduce_bigons(g))
            for rng in [None] + [random.Random(seed) for seed in range(20)]:
                assert embedding(sequential_reduce_bigons(g, rng=rng)) == reference

    def test_matches_sequential_oracle_on_random_graphs(self):
        rng = random.Random(5)
        merged = 0
        for _ in range(300):
            g = random_sphere_graph(rng, ops=rng.randint(2, 16))
            for e in g.edges.values():
                e.weight = 1
            expected = sequential_reduce_bigons(g, rng=random.Random(rng.random()))
            reduced = reduce_bigons(g)
            assert embedding(reduced) == embedding(expected)
            merged += len(g.edges) > len(reduced.edges)
        assert merged >= 100

    def test_matches_sequential_oracle_on_route_graphs(self):
        # shuffled ids, so a class's least id is rarely its first edge
        rng = random.Random(2)
        for r in range(2, 5):
            for w in range(1, 4):
                for bundle in range(2, 4):
                    g = route_graph(rng, r, w, bundle)
                    expected = sequential_reduce_bigons(g, rng=random.Random(rng.random()))
                    assert embedding(reduce_bigons(g)) == embedding(expected)

    def test_kept_faces_match_a_fresh_walk(self):
        # the result keeps the input's faces with merged edges substituted,
        # bigons of two edges gone, zero-edge insertion the faces its heap
        # gives up, and the theta graph the walks of its own validation;
        # each must equal a fresh walk.  Copies with every id prefixed zz,
        # which sorts after the generated z<k>, give up faces out of order
        rng = random.Random(15)
        graphs = [parallel_edges(k) for k in range(1, 5)]
        graphs += [separable_graph(rng, rng.randint(1, 8)) for _ in range(60)]
        graphs += [route_graph(rng, rng.randint(1, 5), rng.randint(1, 4), rng.randint(1, 4))
                   for _ in range(60)]
        graphs += [PlanarMultigraph.from_text(necklace_text(
            [rng.randint(1, 4) for _ in range(rng.randint(1, 5))])) for _ in range(30)]
        for _ in range(300):
            g = random_sphere_graph(rng, ops=rng.randint(1, 16))
            for e in g.edges.values():
                e.weight = 1
            graphs.append(g)
        for g in graphs[:]:
            edges = {"zz" + eid: e for eid, e in g.edges.items()}
            rotation = {v: [("zz" + eid, end) for eid, end in darts]
                        for v, darts in g.rotation.items()}
            graphs.append(PlanarMultigraph(g.vertices, edges, rotation))
        merged = built = 0
        for g in graphs:
            reduced = reduce_bigons(g)
            assert reduced.faces() == fresh(reduced).faces()
            merged += len(reduced.edges) < len(g.edges)
            augmented = add_zero_edges(reduced)
            assert augmented.faces() == fresh(augmented).faces()
            try:
                tg = theta_subgraph(augmented)
            except StructureError:
                continue
            assert tg.faces() == fresh(tg).faces()
            built += 1
        assert merged >= 800 and built >= 350

    def test_edge_count_strictly_decreases(self):
        g = parallel_edges(4)
        reduced = reduce_bigons(g)
        assert len(reduced.edges) < len(g.edges)


class TestAddZeroEdges:
    def test_saturated_unchanged(self):
        g = square_with_chord()
        chorded = add_zero_edges(reduce_bigons(g))
        # the square face admits exactly one zero edge between u and v
        zeros = [e for e in chorded.edges.values() if e.weight == 0]
        assert len(zeros) == 1
        assert add_zero_edges(chorded).edges.keys() == chorded.edges.keys()

    def test_no_insertion_without_existing_edge(self):
        g = PlanarMultigraph(
            ["a", "b", "c", "d"],
            {"1": Edge("a", "b", 1, 1), "2": Edge("b", "c", 1, 1),
             "3": Edge("c", "d", 1, 1), "4": Edge("d", "a", 1, 1)},
            {"a": [("1", 0), ("4", 1)], "b": [("2", 0), ("1", 1)],
             "c": [("3", 0), ("2", 1)], "d": [("4", 0), ("3", 1)]})
        assert add_zero_edges(g).edges.keys() == g.edges.keys()

    def test_fixture_gains_two_zero_edges(self, data_dir):
        g = PlanarMultigraph.from_text((data_dir / "theta_11_237.txt").read_text())
        augmented = add_zero_edges(reduce_bigons(g))
        zeros = sorted(e for e, ed in augmented.edges.items() if ed.weight == 0)
        assert zeros == ["z1", "z2"]

    def test_no_bigon_created(self, data_dir):
        g = PlanarMultigraph.from_text((data_dir / "theta_11_94.txt").read_text())
        augmented = add_zero_edges(reduce_bigons(g))
        for walk in augmented.faces():
            assert len(walk) >= 3

    def assert_matches_oracle(self, g):
        """add_zero_edges(reduce_bigons(g)) inserts what the re-walking
        oracle does: ids, weights, directions, rotations and faces.
        Returns the number of zero edges inserted."""
        reduced = reduce_bigons(g)
        fast, slow = add_zero_edges(reduced), rewalking_add_zero_edges(reduced)
        assert embedding(fast) == embedding(slow)
        assert fast.faces() == slow.faces()
        return len(fast.edges) - len(reduced.edges)

    def test_matches_rewalking_oracle_on_fixtures(self, data_dir):
        for name in FIXTURES:
            self.assert_matches_oracle(
                PlanarMultigraph.from_text((data_dir / name).read_text()))

    def test_matches_rewalking_oracle_on_random_graphs(self):
        # every third graph takes non-decimal edge ids, some of them the
        # z ids an insertion would pick and some sorting after them
        rng = random.Random(10)
        inserted = renamed = 0
        for k in range(300):
            g = random_sphere_graph(rng, ops=rng.randint(2, 16))
            if k % 3 == 0:
                names = {eid: rng.choice(("z", "~")) + str(n + 1) for n, eid in enumerate(g.edges)}
                edges = {names[eid]: e for eid, e in g.edges.items()}
                rotation = {v: [(names[eid], end) for eid, end in darts]
                            for v, darts in g.rotation.items()}
                g = PlanarMultigraph(g.vertices, edges, rotation)
            for e in g.edges.values():
                e.weight = 1
            count = self.assert_matches_oracle(g)
            inserted += count
            renamed += count > 0 and k % 3 == 0
        assert inserted >= 100 and renamed >= 10

    def test_matches_rewalking_oracle_on_route_graphs(self):
        rng = random.Random(11)
        for r in range(2, 9):
            for bundle in range(1, 4):
                for width in range(1, 4):
                    assert self.assert_matches_oracle(route_graph(rng, r, width, bundle)) == r - 1

    def test_matches_rewalking_oracle_on_separable_graphs(self):
        # build_theta refuses these before the construction runs
        rng = random.Random(13)
        graphs = [separable_graph(rng, rng.randint(1, 8)) for _ in range(100)]
        graphs += [PlanarMultigraph.from_text(necklace_text(
            [rng.randint(1, 4) for _ in range(rng.randint(1, 5))])) for _ in range(30)]
        assert sum(self.assert_matches_oracle(g) for g in graphs) >= 50

    def test_large_graphs_build_in_near_linear_time(self):
        # re-walking every face after each insertion and testing every
        # position pair of a face made these builds take 7.1 s and 4.4 s,
        # and a list-membership test on each vertex line the parse 3.1 s
        cycle = cycle_text(4000)
        began = time.perf_counter()
        with pytest.raises(StructureError, match="theta graph is empty"):
            build_theta(PlanarMultigraph.from_text(cycle))
        assert time.perf_counter() - began < 2
        routes = graph_text(route_graph(random.Random(2), 512, 2))
        began = time.perf_counter()
        assert len(build_theta(PlanarMultigraph.from_text(routes)).edges) == 512
        assert time.perf_counter() - began < 2
        cycle = cycle_text(20_000)
        began = time.perf_counter()
        assert len(PlanarMultigraph.from_text(cycle).vertices) == 20_000
        assert time.perf_counter() - began < 2

    def test_intermediate_stages_stay_spherical(self, data_dir):
        # re-run full validation on the output of every construction stage
        for name in ("theta_11_94.txt", "theta_11_237.txt", "theta_11_340.txt"):
            g = PlanarMultigraph.from_text((data_dir / name).read_text())
            reduced = reduce_bigons(g)
            PlanarMultigraph(reduced.vertices, reduced.edges, reduced.rotation)
            augmented = add_zero_edges(reduced)
            PlanarMultigraph(augmented.vertices, augmented.edges, augmented.rotation)


class TestInputLeftAlone:
    """Bigon reduction builds its result from the surviving edges instead
    of a copy of its input; the build must still leave its input as it
    was, and share no Edge with the theta graph."""

    @staticmethod
    def snapshot(g):
        return (list(g.vertices),
                [(eid, e.u, e.v, e.weight, e.direction) for eid, e in g.edges.items()],
                {v: list(r) for v, r in g.rotation.items()}, g.faces())

    def test_build_theta(self, data_dir):
        rng = random.Random(14)
        graphs = [PlanarMultigraph.from_text((data_dir / name).read_text()) for name in FIXTURES]
        graphs += [route_graph(rng, r, w, bundle) for r in range(2, 6) for w in range(1, 4)
                   for bundle in (1, 3)]
        graphs += [PlanarMultigraph.from_text((TESTS / name).read_text(encoding="utf-8"))
                   for name in ("route_r5_w5.txt", "route_bundles.txt")]
        for _ in range(200):
            g = random_sphere_graph(rng, ops=rng.randint(2, 12))
            for e in g.edges.values():
                e.weight = 1
            graphs.append(g)
        built = 0
        for g in graphs:
            before = self.snapshot(g)
            try:
                tg = build_theta(g)
            except StructureError:
                assert self.snapshot(g) == before
                continue
            built += 1
            assert self.snapshot(g) == before
            assert not {id(e) for e in g.edges.values()} & {id(e) for e in tg.edges.values()}
            for e in tg.edges.values():
                e.weight += 5
            assert self.snapshot(g) == before
        assert built >= 60


class TestThetaSubgraph:
    def test_theta_shape_is_fixed_point(self):
        g = parallel_edges(3, weights=[1, 0, 0])
        tg = theta_subgraph(g)
        assert set(tg.edges) == set(g.edges)
        assert set(theta_subgraph(tg).edges) == set(tg.edges)

    def test_tree_yields_empty(self):
        g = PlanarMultigraph(
            ["a", "b"], {"1": Edge("a", "b", 1, 1)},
            {"a": [("1", 0)], "b": [("1", 1)]})
        with pytest.raises(StructureError):
            theta_subgraph(g)

    def test_fixtures(self, data_dir):
        for name, count in (("theta_11_94.txt", 2), ("theta_11_237.txt", 3),
                            ("theta_11_340.txt", 2)):
            g = PlanarMultigraph.from_text((data_dir / name).read_text())
            tg = build_theta(g)
            assert sorted(tg.vertices) == ["u", "v"]
            assert len(tg.edges) == count
            assert sum(e.weight for e in tg.edges.values()) == 1

    def test_edge_order_independent_of_hash_seed(self):
        def dump(seed):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)]))
            proc = subprocess.run([sys.executable, "-c", EDGE_ORDER_DUMP], env=env,
                                  capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, proc.stderr
            return proc.stdout

        first = dump("0")
        assert first.count("refused:") < 30
        assert dump("1") == first

    def test_edge_key_keeps_integer_order(self):
        # the order int() gives every id in ASCII digits, ties broken by the
        # id, and every other id, digits of other scripts among them, after
        # those as text
        def int_key(eid):
            return (0, int(eid), eid) if eid.isascii() and eid.isdigit() else (1, 0, eid)

        rng = random.Random(8)
        digits = "0123456789\u0660\u0661\u0663\u0669\u0967"
        ids = ["0", "00", "7", "007", "10", "z1", "z10", "a", "\u00b2", "\u0663", "\uff11"]
        for _ in range(2000):
            ids.append("".join(rng.choice(digits) for _ in range(rng.randint(1, 6))))
            ids.append("z" + str(rng.randint(0, 50)))
        for _ in range(20):
            rng.shuffle(ids)
            assert sorted(ids, key=_edge_key) == sorted(ids, key=int_key)
        assert sorted(["\u0663", "z1", "10", "2"], key=_edge_key) == ["2", "10", "z1", "\u0663"]
        longer = "1" + "0" * 5000
        assert sorted([longer, "9" * 5000, "z1", "5"], key=_edge_key) == [
            "5", "9" * 5000, longer, "z1"]

    def test_equal_ids_ignore_line_order(self):
        # 0 and 00 are one number; swapping their lines once changed the
        # edge order and the complex
        lines = ["edge 0 u v", "edge 00 u v"]
        built = set()
        for first, second in (lines, lines[::-1]):
            g = PlanarMultigraph.from_text(
                f"vertex u\nvertex v\nvertex w\n{first}\n{second}\nedge 1 w v\n"
                "edge 2 w v\nrot u 0 00\nrot v 00 0 1 2\nrot w 2 1\n")
            for eid in ("00", "2"):
                g.edges[eid].weight = 0
            tg = theta_subgraph(g)
            built.add((tg.edge_order(), build_complex(tg, tg.weights())))
        assert len(built) == 1

    def test_unreduced_bigon_rejected(self):
        g = PlanarMultigraph(["u", "v"],
                             {"1": Edge("u", "v", 1, 1), "2": Edge("u", "v", 2, 1)},
                             {"u": [("1", 0), ("2", 0)], "v": [("2", 1), ("1", 1)]})
        with pytest.raises(StructureError, match=f"^{UNREDUCED}$"):
            theta_subgraph(g)

    def test_split_theta_subgraph_refused_by_name(self):
        # graph 48 of the seed-4 draw in TestLeastStartPruning: connected,
        # not bipartite, with no cut vertex or bridge, but its families
        # {v0, v1} and {v2, v3} share no vertex once the paths between
        # them, single edges, are dropped
        text = ("vertex v0\nvertex v1\nvertex v2\nvertex v3\nvertex v4\nvertex v5\n"
                "edge 2 v0 v1 dir=-\nedge 3 v0 v2 dir=-\nedge 5 v2 v3 dir=-\n"
                "edge 6 v3 v1 dir=-\nedge 8 v2 v4 dir=-\nedge 9 v4 v3 dir=-\n"
                "edge 10 v0 v5\nedge 11 v5 v1 dir=-\n"
                "rot v0 2 3 10\nrot v1 2 11 6\nrot v2 3 5 8\nrot v3 9 5 6\n"
                "rot v4 8 9\nrot v5 10 11\n")
        augmented = add_zero_edges(reduce_bigons(PlanarMultigraph.from_text(text)))
        assert sorted(map(sorted, (p for p, fam in augmented.parallel_families().items()
                                   if len(fam) >= 2))) == [["v0", "v1"], ["v2", "v3"]]
        with pytest.raises(StructureError) as err:
            build_theta(PlanarMultigraph.from_text(text))
        assert str(err.value) == SPLIT
        assert "bigon" not in SPLIT and "unique surface" not in SPLIT

    def test_single_twist_region_has_no_theta(self):
        # all crossings in one twist region: reduction leaves a lone edge,
        # no zero edge fits, and the empty theta graph signals uniqueness
        g = parallel_edges(11)
        reduced = reduce_bigons(g)
        assert [e.weight for e in reduced.edges.values()] == [11]
        augmented = add_zero_edges(reduced)
        assert len(augmented.edges) == 1
        with pytest.raises(StructureError):
            theta_subgraph(augmented)


class TestRegions:
    def test_parallel_pair(self):
        tg = theta_subgraph(parallel_edges(2, weights=[1, 0]))
        regions = region_signatures(tg)
        assert len(regions) == 2
        for region in regions:
            assert sorted(s for _, s in region) == [-1, 1]

    def test_three_regions_with_per_edge_cancellation(self):
        tg = theta_subgraph(parallel_edges(3, weights=[1, 0, 0]))
        regions = region_signatures(tg)
        assert len(regions) == 3
        totals = Counter()
        for region in regions:
            for eid, s in region:
                totals[eid] += s
        assert all(v == 0 for v in totals.values())

    def test_apply_region_shifts_boundary(self):
        # exactly one region applies to the middle-heavy start: the one whose
        # negative sign sits on the loaded edge; it hands the weight over
        tg = theta_subgraph(parallel_edges(3, weights=[0, 1, 0]))
        regions = region_signatures(tg)
        start = tg.weights()
        moved = [apply_region(start, r) for r in regions if _applicable(start, r)]
        assert len(moved) == 1
        (after,) = moved
        assert after != start
        assert sorted(after.values()) == [0, 0, 1]
        # the next applicable region reaches the third surface
        (third,) = [apply_region(after, r) for r in regions
                    if _applicable(after, r) and apply_region(after, r) != start]
        assert sorted(third.values()) == [0, 0, 1] and third not in (start, after)

    def test_apply_region_negative_rejected(self):
        tg = theta_subgraph(parallel_edges(2, weights=[1, 0]))
        regions = region_signatures(tg)
        zero_heavy = {eid: 1 - w for eid, w in tg.weights().items()}
        bad = [r for r in regions if not _applicable(zero_heavy, r)]
        assert bad
        with pytest.raises(MoveError):
            apply_region(zero_heavy, bad[0])

    def test_region_then_reverse_is_identity(self):
        # in a parallel pair the two regions are exact inverses
        tg = theta_subgraph(parallel_edges(2, weights=[1, 0]))
        r1, r2 = region_signatures(tg)
        assert _inverse(r1, r2)
        w = {eid: 2 for eid in tg.edges}
        assert apply_region(apply_region(w, r1), r2) == w
        # with more regions the complement of one region undoes it
        tg = theta_subgraph(parallel_edges(3, weights=[2, 0, 0]))
        first, *rest = region_signatures(tg)
        w = {eid: 3 for eid in tg.edges}
        out = apply_region(w, first)
        for region in rest:
            out = apply_region(out, region)
        assert out == w


def _applicable(w, region):
    return all(w[eid] + s >= 0 for eid, s in region)


def _inverse(a, b):
    return Counter(dict(a)) == Counter({e: -s for e, s in b})


class TestRandomSphereGraphs:
    def test_sign_invariants(self):
        rng = random.Random(2024)
        for _ in range(50):
            g = random_sphere_graph(rng, ops=rng.randint(2, 10))
            per_edge = Counter()
            face_count = Counter()
            for region in region_signatures(g):
                for eid, s in region:
                    per_edge[eid] += s
                for eid in {e for e, _ in region}:
                    face_count[eid] += 1
            assert all(v == 0 for v in per_edge.values())
            assert all(c == 2 for c in face_count.values())

    def test_all_regions_once_is_identity(self):
        rng = random.Random(7)
        for _ in range(50):
            g = random_sphere_graph(rng, ops=rng.randint(2, 10))
            regions = list(region_signatures(g))
            rng.shuffle(regions)
            w0 = {eid: len(regions) for eid in g.edges}
            w = dict(w0)
            for region in regions:
                w = apply_region(w, region)
            assert w == w0


class TestBuildComplex:
    def test_triple_from_heavy_middle(self, data_dir):
        tg = load_theta_file(data_dir / "theta_11_237.txt")
        order = tg.edge_order()
        w0 = dict(zip(order, (0, 1, 0)))
        c = build_complex(tg, w0)
        assert str(recognize(c)) == "simplex(2)"
        assert c.vertices == {(0, 1, 0), (0, 0, 1), (1, 0, 0)}

    def test_pair_fixtures_give_edges(self, data_dir):
        for name in ("theta_11_94.txt", "theta_11_340.txt"):
            tg = load_theta_file(data_dir / name)
            c = build_complex(tg, tg.weights())
            assert str(recognize(c)) == "simplex(1)"

    def test_heavier_pair_gives_path(self):
        tg = theta_subgraph(parallel_edges(2, weights=[2, 0]))
        c = build_complex(tg, tg.weights())
        assert str(recognize(c)) == "path(3)"

    def test_connected_and_flag(self):
        tg = theta_subgraph(parallel_edges(3, weights=[2, 0, 0]))
        c = build_complex(tg, tg.weights())
        assert set_is_connected(c.simplices) and set_is_flag(c.simplices)

    def test_vertex_cap(self):
        tg = theta_subgraph(parallel_edges(2, weights=[5, 0]))
        with pytest.raises(SizeLimitError):
            build_complex(tg, tg.weights(), max_vertices=3)

    def test_default_vertex_cap_refuses_at_once(self):
        # three regions over weight 200 reach C(202, 2) = 20 301 surfaces,
        # a build of several seconds; the search stops at the cap
        tg = theta_subgraph(parallel_edges(3, weights=[200, 0, 0]))
        began = time.perf_counter()
        with pytest.raises(SizeLimitError, match=f"more than {DEFAULT_MAX_VERTICES} "):
            build_complex(tg, tg.weights())
        assert time.perf_counter() - began < 5

    def test_same_complex_from_every_vertex(self, data_dir):
        # the complex is connected and every edge lies on a pass, a cycle of
        # region moves, so a build from any of its vertices is the same
        paths = [data_dir / name for name in FIXTURES]
        paths += [TESTS / name for name in ("route_r5_w5.txt", "route_bundles.txt")]
        for path in paths:
            tg = load_theta_file(path)
            c = build_complex(tg, tg.weights())
            expected = to_json(c)
            for v in c.vertices:
                w0 = dict(zip(tg.edge_order(), v))
                assert to_json(build_complex(tg, w0)) == expected, (path.name, v)

    def test_bad_weights_rejected(self):
        tg = theta_subgraph(parallel_edges(2, weights=[1, 0]))
        with pytest.raises(InputError):
            build_complex(tg, {"0": 1})
        with pytest.raises(InputError):
            build_complex(tg, {eid: -1 for eid in tg.edges})

    def test_matches_permutation_oracle_on_fixtures(self, data_dir):
        starts = []
        for name in ("theta_11_94.txt", "theta_11_237.txt", "theta_11_340.txt"):
            tg = load_theta_file(data_dir / name)
            starts.append((tg, tg.weights()))
        tg = load_theta_file(data_dir / "theta_11_237.txt")
        starts.append((tg, dict(zip(tg.edge_order(), (0, 1, 0)))))
        tg = theta_subgraph(parallel_edges(3, weights=[3, 0, 0]))
        starts.append((tg, tg.weights()))
        for tg, w0 in starts:
            c = build_complex(tg, w0)
            assert c == permutation_complex(tg, w0)
            assert euler_characteristic(c) == 1

    def test_matches_permutation_oracle_on_random_weighted_graphs(self):
        # 50 coherently oriented random sphere graphs with 0/1 weights; the
        # regions act on the embedded graph itself, without the theta
        # construction, and refused graphs (too many regions or surfaces,
        # or a complex that fails its check) are skipped
        rng = random.Random(1)
        compared = 0
        while compared < 50:
            g = random_sphere_graph(rng, ops=rng.randint(2, 10))
            if not orient_coherently(g):
                continue
            for e in g.edges.values():
                e.weight = rng.randint(0, 1)
            try:
                c = build_complex(g, g.weights(), max_vertices=100)
            except KakimizuError:
                continue
            assert c == permutation_complex(g, g.weights())
            assert euler_characteristic(c) == 1
            compared += 1

    def test_matches_permutation_oracle_on_random_seifert_graphs(self):
        # random sphere graphs as weight-1 Seifert graphs; the outcomes are
        # counted by class, so a graph that moves between classes shows,
        # and any other error fails the test
        rng = random.Random(9)
        outcomes = Counter()
        for _ in range(50):
            g = random_sphere_graph(rng, ops=rng.randint(2, 10))
            for e in g.edges.values():
                e.weight = 1
            try:
                tg = build_theta(g)
                c = build_complex(tg, tg.weights())
            except StructureError as exc:
                if str(exc) not in (EMPTY, UNREDUCED):
                    raise
                outcomes[str(exc)] += 1
                continue
            assert c == permutation_complex(tg, tg.weights())
            assert euler_characteristic(c) == 1
            outcomes["built"] += 1
        # the unreduced bigons are the refusal that
        # TestPrimeReducedInput::test_unreduced_bigon_fixture_builds marks
        assert outcomes == {"built": 12, EMPTY: 35, UNREDUCED: 3}

    def test_incoherent_directions_rejected(self):
        g = parallel_edges(2, weights=[1, 0], dirs=[1, -1])
        tg = theta_subgraph(g)
        with pytest.raises(StructureError):
            build_complex(tg, tg.weights())


def separates(g):
    """Brute-force oracle: some vertex or non-loop edge whose removal
    disconnects g."""
    def connected(vertices, edges):
        vertices = set(vertices)
        if not vertices:
            return True
        start = min(vertices)
        seen, stack = {start}, [start]
        while stack:
            v = stack.pop()
            for e in edges:
                for a, b in ((e.u, e.v), (e.v, e.u)):
                    if a == v and b in vertices and b not in seen:
                        seen.add(b)
                        stack.append(b)
        return seen == vertices
    edges = list(g.edges.values())
    if any(not connected(set(g.vertices) - {x}, [e for e in edges if x not in (e.u, e.v)])
           for x in g.vertices):
        return True
    return any(e.u != e.v and not connected(g.vertices, [f for f in edges if f is not e])
               for e in edges)


class TestPrimeReducedInput:
    def test_path_of_double_edges_refused(self):
        # the Seifert graph of a connected sum of Hopf links
        g = PlanarMultigraph.from_text(necklace_text([2, 2, 2]))
        with pytest.raises(InputError, match="cut vertex"):
            build_theta(g)

    def test_requires_unit_weights(self):
        # each edge of a Seifert graph is one crossing
        with pytest.raises(InputError, match="^Seifert graph edge 0 has weight 2: weights must be 1$"):
            build_theta(parallel_edges(2, weights=[2, 1]))

    def test_single_crossing_is_a_bridge(self):
        g = PlanarMultigraph.from_text(necklace_text([1]))
        with pytest.raises(InputError, match="bridge"):
            build_theta(g)

    def test_loop_between_blocks_refused(self):
        # a loop at v1 drawn between the blocks v0-v1 and v1-v2 would part
        # their faces, so no face would pass the cut vertex v1 without
        # running along the loop; the graph is refused as it is built
        lines = ["vertex v0", "vertex v1", "vertex v2", "edge L0 v1 v1 weight=1 dir=+"]
        lines += [f"edge {eid} v0 v1 weight=1 dir=+" for eid in "012"]
        lines += [f"edge {eid} v1 v2 weight=1 dir=-" for eid in "678"]
        lines += ["rot v0 0 2 1", "rot v1 L0 1 2 0 L0 8 6 7", "rot v2 6 8 7"]
        with pytest.raises(InputError, match="edge L0 is a loop"):
            PlanarMultigraph.from_text("\n".join(lines) + "\n")

    def test_matches_brute_force_oracle(self):
        rng = random.Random(12)
        graphs = [separable_graph(rng, rng.randint(1, 8)) for _ in range(150)]
        graphs += [route_graph(rng, rng.randint(1, 4), rng.randint(1, 3)) for _ in range(30)]
        graphs += [PlanarMultigraph.from_text(necklace_text(
            [rng.randint(1, 3) for _ in range(rng.randint(1, 4))])) for _ in range(30)]
        for _ in range(150):
            g = random_sphere_graph(rng, ops=rng.randint(2, 12))
            for e in g.edges.values():
                e.weight = 1
            graphs.append(g)
        refused = 0
        for g in graphs:
            try:
                build_theta(g)
                blocked = False
            except InputError as exc:
                blocked = "cut vertex" in str(exc) or "bridge" in str(exc)
            except KakimizuError:
                blocked = False
            assert blocked == separates(g)
            refused += blocked
        assert refused >= 150
        # a crossing joins two different Seifert circles, so every graph
        # with a loop is refused as it is built, naming the loop, whatever
        # its blocks
        for g in graphs[:150] + graphs[-150:]:
            with pytest.raises(InputError, match=f"edge L{len(g.edges)} is a loop"):
                add_loop(rng, g)


    @pytest.mark.xfail(strict=True, raises=StructureError,
                       reason="ROADMAP item 9: the theta subgraph of this prime reduced "
                              "graph keeps a bigon the Seifert graph does not have")
    def test_unreduced_bigon_fixture_builds(self):
        g = PlanarMultigraph.from_text((TESTS / "unreduced_bigon.txt").read_text(encoding="utf-8"))
        tg = build_theta(g)
        c = build_complex(tg, tg.weights())
        assert set_is_connected(c.simplices) and set_is_flag(c.simplices)
        assert euler_characteristic(c) == 1


def dual_reduction_graph(g):
    """The planar dual of g: one vertex per face, and one edge per edge of
    g, joining the faces of its two sides."""
    faces = g.faces()
    face = {side: i for i, walk in enumerate(faces) for side in walk}
    return ReductionGraph.from_pairs(len(faces),
                                     [(face[(eid, 0)], face[(eid, 1)]) for eid in g.edges])


class TestFibredDual:
    def test_reducing_dual_has_an_empty_theta_graph(self):
        # a special diagram's Seifert graph is one checkerboard graph, its
        # dual the other; if the dual reduces, the piece is fibred, its
        # fibre is its unique minimal genus surface, and so its theta graph
        # must be empty
        rng = random.Random(7)
        reduced = 0
        for _ in range(2000):
            g = random_sphere_graph(rng, ops=rng.randint(2, 12))
            if not orient_coherently(g):
                continue
            for e in g.edges.values():
                e.weight = 1
            dual = dual_reduction_graph(g)
            cert = reduction_certificate(dual)
            if cert is None:
                continue
            assert replay_certificate(dual, cert)
            with pytest.raises(StructureError, match="theta graph is empty"):
                build_theta(g)
            reduced += 1
        assert reduced >= 200


def oracle_passes(walked):
    """The index masks of the sets visited by every full pass from every
    vector the build reached (setoracles.all_full_passes under the packed
    step), and the number of passes, start by start."""
    states, step, regions, _, _ = walked
    index = {w: i for i, w in enumerate(states)}
    passes = [all_full_passes(w, range(regions), step, index.__getitem__) for w in states]
    every = {sum(1 << i for i in s) for found in passes for s in found}
    return every, sum(map(len, passes))


class TestLeastStartPruning:
    """The passes thetagraph._kept_passes keeps, each from its packed-least
    state, span what every pass from every state does under the packed
    step (see setoracles.all_full_passes)."""

    def assert_union_kept(self, build):
        """The number of passes pruning dropped, or None for a refused build."""
        walked = theta_walk(build)
        if walked is None:
            return None
        kept = [m for masks in walked[3] for m in masks]
        every, total = oracle_passes(walked)
        assert set(kept) == every and len(set(kept)) == len(kept)
        return total - len(kept)

    def test_route_graphs(self):
        rng = random.Random(8)
        dropped = 0
        for r in range(2, 7):
            for w in range(1, 4):
                tg = build_theta(route_graph(rng, r, w))
                dropped += self.assert_union_kept(lambda: build_complex(tg, tg.weights()))
        assert dropped > 0

    def test_random_sphere_graphs(self):
        # weight-1 Seifert graphs through the theta construction, and
        # coherently oriented graphs with 0/1 weights without it
        rng = random.Random(4)
        seifert = weighted = 0
        outcomes = Counter()
        for _ in range(300):
            g = random_sphere_graph(rng, ops=rng.randint(2, 10))
            for e in g.edges.values():
                e.weight = 1
            tg = counted_build_theta(g, outcomes)
            if tg is not None and self.assert_union_kept(
                    lambda: build_complex(tg, tg.weights(), max_vertices=100)) is not None:
                seifert += 1
            if not orient_coherently(g):
                continue
            for e in g.edges.values():
                e.weight = rng.randint(0, 1)
            if self.assert_union_kept(
                    lambda: build_complex(g, g.weights(), max_vertices=100)) is not None:
                weighted += 1
        assert seifert >= 30 and weighted >= 30
        # graph 48 is connected and not bipartite, and its theta subgraph
        # falls into two pieces (TestThetaSubgraph)
        assert outcomes == {"built": 102, EMPTY: 158, UNREDUCED: 39, SPLIT: 1}


class TestZeroPatternTranslation:
    """The lemma _kept_passes rests on, checked on weight tuples without
    it: the passes from a reachable w are those from its zero pattern
    z = min(w, 1), each visited set translated by w - z."""

    def assert_translates(self, tg, w0):
        """The number of reachable vectors checked, or 0 when the search
        refuses."""
        try:
            states, moves, step = tuple_reachability(tg, w0, max_vertices=200)
        except SizeLimitError:
            return 0
        for w in states:
            z = tuple(min(x, 1) for x in w)
            shifted = {frozenset(tuple(a + b - c for a, b, c in zip(v, w, z)) for v in s)
                       for s in all_full_passes(z, moves, step, tuple)}
            assert all_full_passes(w, moves, step, tuple) == shifted
        return len(states)

    def test_route_graphs(self):
        rng = random.Random(2)
        for r in range(2, 6):
            for w in range(1, 4):
                tg = build_theta(route_graph(rng, r, w))
                assert self.assert_translates(tg, tg.weights()) > 0, (r, w)

    def test_random_sphere_graphs(self):
        rng = random.Random(5)
        compared = checked = 0
        while compared < 100:
            g = random_sphere_graph(rng, ops=rng.randint(2, 8))
            if not orient_coherently(g) or len(region_signatures(g)) > MAX_REGIONS:
                continue
            for e in g.edges.values():
                e.weight = rng.randint(0, 3)
            checked += self.assert_translates(g, g.weights())
            compared += 1
        assert checked >= 2000


class TestIndexAssembly:
    """build_complex assembles on index masks; the labelled route through
    from_maximal (setoracles.labelled_pass_complex), walking every pass
    from every state by setoracles.all_full_passes under the packed step,
    is the oracle."""

    def check(self, build):
        """The build's outcome, compared with the oracle's: its maximal
        simplices as index sets, or the type and text of its refusal; None
        when the build refuses before the walk."""
        walked = theta_walk(build)
        if walked is None:
            return None
        states, step, regions, _, outcome = walked
        index = {w: i for i, w in enumerate(states)}
        try:
            c = labelled_pass_complex(states, range(regions), step, index.__getitem__,
                                      range(len(states)))
        except KakimizuError as exc:
            expected = (type(exc), str(exc))
        else:
            expected = frozenset(c.simplices)
        if isinstance(outcome, SimplicialComplex):
            outcome = frozenset(map(frozenset, outcome.maximal))
        assert outcome == expected
        return outcome

    def test_random_sphere_graphs(self):
        # weight-1 Seifert graphs through the theta construction, and
        # coherently oriented graphs with 0/1 weights without it
        rng = random.Random(6)
        built = 0
        outcomes = Counter()
        for _ in range(100):
            g = random_sphere_graph(rng, ops=rng.randint(2, 10))
            for e in g.edges.values():
                e.weight = 1
            tg = counted_build_theta(g, outcomes)
            if tg is not None:
                built += isinstance(self.check(
                    lambda: build_complex(tg, tg.weights(), max_vertices=100)), frozenset)
            if orient_coherently(g):
                for e in g.edges.values():
                    e.weight = rng.randint(0, 1)
                built += isinstance(self.check(
                    lambda: build_complex(g, g.weights(), max_vertices=100)), frozenset)
        assert built >= 30
        assert outcomes == {"built": 23, EMPTY: 61, UNREDUCED: 16}


def packed_matches_tuples(tg, w0, max_vertices=DEFAULT_MAX_VERTICES):
    """Build the complex of `tg` from `w0`, and by the tuple search of
    setoracles with labelled_pass_complex on its tuple step; both must give the
    same complex, with the vertices in the oracle's breadth-first order,
    or refuse alike.  The complex when they build, None when they refuse."""
    try:
        states, moves, step = tuple_reachability(tg, w0, max_vertices)
        index = {w: i for i, w in enumerate(states)}
        expected = labelled_pass_complex(states, moves, step, index.__getitem__, states)
    except KakimizuError as exc:
        expected = (type(exc), str(exc))
    try:
        c = build_complex(tg, w0, max_vertices)
    except KakimizuError as exc:
        assert (type(exc), str(exc)) == expected
        return None
    assert c == expected
    assert set(c.vertices) == set(states) and c.labels == tuple(states)
    return c


class TestPackedReachability:
    """build_complex searches weight vectors packed into ints; the search
    on weight tuples (setoracles.tuple_reachability) is the oracle."""

    def test_route_graphs(self):
        # with single-edge routes, the complex has C(w + r - 1, r - 1)
        # vertices and w ** (r - 1) maximal simplices
        rng = random.Random(4)
        for r in range(2, 9):
            for w in range(1, 5):
                for bundle in range(1, 4):
                    tg = build_theta(route_graph(rng, r, w, bundle))
                    c = packed_matches_tuples(tg, tg.weights())
                    assert c is not None, (r, w, bundle)
                    if bundle == 1:
                        assert len(c.vertices) == comb(w + r - 1, r - 1), (r, w)
                        assert len(c.maximal) == w ** (r - 1), (r, w)

    def test_random_sphere_graphs(self):
        # coherently oriented graphs with weights 0 to 3, so the totals,
        # and with them the field widths, vary; searches past the cap are
        # refused alike
        rng = random.Random(8)
        compared = built = 0
        while compared < 200:
            g = random_sphere_graph(rng, ops=rng.randint(2, 10))
            if not orient_coherently(g) or len(region_signatures(g)) > MAX_REGIONS:
                continue
            built += packed_matches_tuples(g, g.weights(), max_vertices=200) is not None
            compared += 1
        assert built >= 80

    def test_bridge_starts(self):
        # a bridge's signs cancel in the one region it borders, so its
        # weight never changes and the rest searches as without it, also
        # at weight 0; a weight of at least 2**70 makes every field wider
        # than a machine word
        rng = random.Random(3)
        graphs = [build_theta(route_graph(rng, r, w)) for r in range(2, 7) for w in range(1, 4)]
        while len(graphs) < 45:
            g = random_sphere_graph(rng, ops=rng.randint(2, 8))
            if orient_coherently(g) and len(region_signatures(g)) <= MAX_REGIONS:
                graphs.append(g)
        checked = 0
        for g in graphs:
            try:
                light = build_complex(g, g.weights(), max_vertices=200)
            except KakimizuError:
                continue
            checked += 1
            for weight in (0, 2**70 + rng.randrange(2**70)):
                bridged, bridge = add_pendant_bridge(g, weight)
                c = packed_matches_tuples(bridged, bridged.weights())
                k = bridged.edge_order().index(bridge)
                assert {w[k] for w in c.labels} == {weight}
                assert [w[:k] + w[k + 1:] for w in c.labels] == list(light.labels)
                assert c.maximal == light.maximal
        assert checked >= 25
