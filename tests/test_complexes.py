import hashlib
import json
import os
import random
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest

from kakimizu import complexes, thetagraph, twobridge
from kakimizu.complexes import (MAX_SHAPE_VERTICES, ComplexShape, SimplicialComplex,
                                full_passes, label_text, pass_complex, recognize, rendered,
                                to_dot, to_json)
from kakimizu.errors import InputError, SizeLimitError, StructureError

from isomorphism import isomorphic, one_skeleton
from randgraphs import graph_text, route_graph
from setoracles import (all_full_passes, labelled_full_passes, pairwise_maximal,
                        set_flag_closure, set_is_connected, set_is_flag, skeleton_to_dot)

TESTS = Path(__file__).resolve().parent


def path_complex(n, prefix="T"):
    return ComplexShape.path(n).as_complex(prefix)


def random_size(rng):
    """Mostly up to 10 vertices; one time in five 30 to 80, so that vertex
    masks span several machine words."""
    return rng.randint(1, 10) if rng.random() < 0.8 else rng.randint(30, 80)


def random_graph(rng):
    """A random graph of random density, some vertices isolated."""
    verts = list(range(random_size(rng)))
    density = rng.random() * min(1, 6 / len(verts))
    edges = [(a, b) for a, b in combinations(verts, 2) if rng.random() < density]
    return edges, verts


def random_candidates(rng):
    """Random candidates of up to 4 vertices, spanning a complex that may be
    disconnected or not flag, some vertices isolated."""
    verts = list(range(random_size(rng)))
    family = [rng.sample(verts, rng.randint(1, min(4, len(verts))))
              for _ in range(rng.randint(1, 2 * len(verts) + 2))]
    return family + [[v] for v in verts]


HOLLOW_TRIANGLE = [["a", "b"], ["b", "c"], ["a", "c"]]
SIMPLEX_BOUNDARY = [list(face) for face in combinations("abcd", 3)]
DISJOINT_EDGES = [["a", "b"], ["c", "d"]]


def random_family(rng):
    """Random subsets of a small vertex set, with duplicates, the empty set,
    a nested chain and several sets of one size mixed in."""
    verts = list(range(rng.randint(1, 9)))
    family = [rng.sample(verts, rng.randint(0, len(verts))) for _ in range(rng.randint(1, 12))]
    family += [list(s) for s in rng.sample(family, rng.randint(0, len(family)))]
    family.append([])
    # the chain stops short of the whole vertex set, which would absorb the rest
    chain = rng.sample(verts, len(verts))
    family += [chain[:k] for k in range(rng.randint(1, len(verts)), len(verts))]
    size = rng.randint(1, len(verts))
    family += [rng.sample(verts, size) for _ in range(rng.randint(2, 5))]
    rng.shuffle(family)
    return family


def verdict(family):
    """What from_maximal makes of the family, asserted against the oracles:
    it refuses a disconnected family, then a family that is not flag, and
    otherwise keeps the pairwise-maximal candidates."""
    if not set_is_connected(family):
        with pytest.raises(StructureError, match="must be connected"):
            SimplicialComplex.from_maximal(family)
        return "disconnected"
    if not set_is_flag(family):
        with pytest.raises(StructureError, match="must be a flag complex"):
            SimplicialComplex.from_maximal(family)
        return "not flag"
    c = SimplicialComplex.from_maximal(family)
    assert c.simplices == pairwise_maximal(family)
    assert c.vertices == frozenset().union(*map(frozenset, family))
    return "complex"


class TestConstruction:
    def test_absorbs_contained(self):
        c = SimplicialComplex.from_maximal([["a", "b"], ["a"], ["a", "b", "c"]])
        assert c.simplices == frozenset({frozenset({"a", "b", "c"})})

    def test_isolated_vertices(self):
        # a singleton is a vertex of its own; beside an edge it is disconnected
        assert SimplicialComplex.from_maximal([["c"]]).simplices == {frozenset({"c"})}
        with pytest.raises(StructureError, match="connected"):
            SimplicialComplex.from_maximal([["a", "b"], ["c"]])

    def test_invariants(self):
        # no complex is made outside the assembler, so none goes unchecked
        with pytest.raises(TypeError):
            SimplicialComplex(frozenset({"a"}), frozenset({frozenset({"a"})}))
        with pytest.raises(InputError):
            SimplicialComplex.from_maximal([])
        with pytest.raises(InputError):
            SimplicialComplex.from_maximal([[], []])

    def test_absorption_matches_pairwise_oracle(self):
        rng = random.Random(3)
        verdicts = set()
        for _ in range(500):
            family = random_family(rng)
            if any(family):
                verdicts.add(verdict(family))
        assert verdicts == {"disconnected", "not flag", "complex"}


class TestCliqueKernel:
    """The bitmask kernel against the set-based oracles it replaced."""

    def test_flag_closure_matches_oracle(self):
        # the flag closure of a connected graph is a complex whose maximal
        # simplices are the closure and whose 1-skeleton is the graph
        rng = random.Random(11)
        built = 0
        for _ in range(1500):
            edges, verts = random_graph(rng)
            closure = set_flag_closure(edges, verts)
            if not set_is_connected(closure):
                with pytest.raises(StructureError, match="connected"):
                    SimplicialComplex.from_maximal(list(closure))
                continue
            c = SimplicialComplex.from_maximal(list(closure))
            assert c.simplices == closure
            assert one_skeleton(c) == {frozenset(e) for e in edges}
            built += 1
        assert built >= 200

    def test_is_flag_and_is_connected_match_oracles(self):
        rng = random.Random(12)
        verdicts = [verdict(random_candidates(rng)) for _ in range(2000)]
        assert min(verdicts.count(v) for v in ("disconnected", "not flag", "complex")) >= 100

    @pytest.mark.parametrize("simplices", [HOLLOW_TRIANGLE, SIMPLEX_BOUNDARY],
                             ids=["hollow_triangle", "simplex_boundary"])
    def test_named_non_flag(self, simplices):
        assert set_is_connected(simplices)
        assert not set_is_flag(simplices)
        with pytest.raises(StructureError, match="flag"):
            SimplicialComplex.from_maximal(simplices)

    def test_check_survives_optimised_mode(self):
        # python -O strips asserts; the check must raise all the same
        code = ("from kakimizu.complexes import SimplicialComplex\n"
                "from kakimizu.errors import StructureError\n"
                f"for family in {[HOLLOW_TRIANGLE, SIMPLEX_BOUNDARY, DISJOINT_EDGES]!r}:\n"
                "    try:\n"
                "        SimplicialComplex.from_maximal(family)\n"
                "    except StructureError as exc:\n"
                "        print('raised:', exc)\n")
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "raised: Kakimizu complex must be a flag complex",
            "raised: Kakimizu complex must be a flag complex",
            "raised: Kakimizu complex must be connected"]


class TestIsFlag:
    def test_simplex_is_flag(self):
        c = ComplexShape.simplex(2).as_complex()
        assert c.simplices == {frozenset({"T1", "T2", "T3"})}
        assert set_is_flag(c.simplices)

    def test_hollow_triangle_is_not(self):
        with pytest.raises(StructureError, match="must be a flag complex"):
            SimplicialComplex.from_maximal(HOLLOW_TRIANGLE)


class TestConnectivity:
    def test_point(self):
        c = ComplexShape.point().as_complex()
        assert c.vertices == {"T1"} and set_is_connected(c.simplices)

    def test_disjoint_union(self):
        assert not set_is_connected(DISJOINT_EDGES)
        assert set_is_flag(DISJOINT_EDGES)
        with pytest.raises(StructureError, match="must be connected"):
            SimplicialComplex.from_maximal(DISJOINT_EDGES)


class TestCheckComplex:
    def test_connected_flag_passes(self):
        for c in (path_complex(4), ComplexShape.simplex(2).as_complex()):
            assert set_is_connected(c.simplices) and set_is_flag(c.simplices)

    def test_disconnected_raises(self):
        # connectivity is checked first: a hollow triangle beside a point
        with pytest.raises(StructureError, match="connected"):
            SimplicialComplex.from_maximal(HOLLOW_TRIANGLE + [["x"]])

    def test_hollow_triangle_raises(self):
        # the hollow triangle inside a larger connected complex
        with pytest.raises(StructureError, match="flag"):
            SimplicialComplex.from_maximal(HOLLOW_TRIANGLE + [["c", "d"], ["d", "e", "f"]])


class TestAssembler:
    """The assembler that from_maximal and pass_complex both end in, on
    index tuples and a label table."""

    def test_hollow_triangle_raises(self):
        with pytest.raises(StructureError, match="must be a flag complex"):
            complexes._assemble(keyed(0b011, 0b110, 0b101), ["a", "b", "c"])

    def test_isolated_vertices_raise(self):
        with pytest.raises(StructureError, match="must be connected"):
            complexes._assemble(keyed(0b01, 0b10), ["a", "b"])

    def test_labels_enter_only_the_result(self):
        c = complexes._assemble(keyed(0b001, 0b010, 0b100, 0b011, 0b110), ["x", "y", "z"])
        assert c.labels == ("x", "y", "z") and c.maximal == ((0, 1), (1, 2))
        assert c.vertices == {"x", "y", "z"}
        assert c.simplices == {frozenset("xy"), frozenset("yz")}

    def test_keys_are_as_wide_as_the_span(self):
        assert complexes._key(0b1) == (0, 1)
        assert complexes._key(1 << 70) == (70, 1)
        assert complexes._key(0b1011 << 500) == (500, 0b1011)

    def test_pass_complex_refuses_alike(self):
        # with no moves each state is a pass of its own: two isolated vertices
        with pytest.raises(StructureError, match="must be connected"):
            pass_complex(range(2), (), _add, _same, ["a", "b"])
        # moves +1, -1 on states mod 3 visit {0, 1}, {0, 2} and {1, 2}
        with pytest.raises(StructureError, match="must be a flag complex"):
            pass_complex(range(3), (1, -1), lambda s, m: (s + m) % 3, _same, ["a", "b", "c"])


def keyed(*masks):
    """The assembler's keys of the given index masks."""
    return set(map(complexes._key, masks))


def _add(state, move):
    return state + move


def _add_nonnegative(state, move):
    return state + move if state + move >= 0 else None


def _same(state):
    return state


def _sign(state):
    return (state > 0) - (state < 0)


class TestFullPasses:
    """The pass engine on a toy calculus: integer states, moves that add.

    The engine keeps the passes that visit no state below their start;
    the unpruned oracle keeps every pass.  The engine's index masks are
    read back as label sets (setoracles.labelled_full_passes)."""

    def test_visited_sets_are_index_masks(self):
        # bit label(state) for each state a pass visits; the states below
        # the start are never labelled
        assert full_passes(0, (1, -1), _add, _same) == {0b11}
        assert full_passes(0, (1, 1, 1), lambda s, m: (s + m) % 3, _same) == {0b111}
        assert full_passes(2, (1, -1), _add, lambda s: 2 * s) == {1 << 4 | 1 << 6}

    def test_every_order_applies(self):
        # +1 then -1 visits 1, -1 then +1 visits -1, which is below 0
        assert labelled_full_passes(0, (1, -1), _add, _same) == {frozenset({0, 1})}
        assert all_full_passes(0, (1, -1), _add, _same) == {
            frozenset({0, 1}), frozenset({0, -1})}
        # the dropped pass, rotated to start at its least state
        assert labelled_full_passes(-1, (1, -1), _add, _same) == {frozenset({0, -1})}

    def test_blocked_order_is_dropped(self):
        assert labelled_full_passes(0, (1, -1), _add_nonnegative, _same) == {frozenset({0, 1})}
        assert all_full_passes(0, (1, -1), _add_nonnegative, _same) == {frozenset({0, 1})}

    def test_labels_merge_passes(self):
        # 1, 1, -2 and its swap visit labels 0 and 1 only; the orders
        # through -1 or -2 go below the start
        assert labelled_full_passes(0, (1, 1, -2), _add, _sign) == {frozenset({0, 1})}
        assert all_full_passes(0, (1, 1, -2), _add, _sign) == {
            frozenset({0, 1}), frozenset({0, 1, -1}), frozenset({0, -1})}

    def test_no_moves_visit_the_start(self):
        assert labelled_full_passes(5, (), _add, _same) == {frozenset({5})}
        assert all_full_passes(5, (), _add, _same) == {frozenset({5})}

    def test_no_applicable_ordering_is_empty(self):
        for walk in (labelled_full_passes, all_full_passes):
            assert walk(0, (1, -1), lambda s, m: None, _same) == frozenset()
            assert walk(0, (-1, -2, 1), _add_nonnegative, _same) == frozenset()

    def test_order_dependent_step_raises(self):
        # the state records the order the moves came in
        for walk in (labelled_full_passes, all_full_passes):
            with pytest.raises(StructureError, match="order"):
                walk((), ("a", "b"), lambda s, m: s + (m,), len)

    def test_order_is_checked_before_a_branch_is_dropped(self):
        # 0, 1, -12 and 0, 2, -21: both orders end below the start, in
        # different states
        def step(state, move):
            return move if state == 0 else -(10 * state + move)
        for walk in (labelled_full_passes, all_full_passes):
            with pytest.raises(StructureError, match="order"):
                walk(0, (1, 2), step, _same)

    def test_pass_that_does_not_close_raises(self):
        for walk in (labelled_full_passes, all_full_passes):
            with pytest.raises(StructureError, match="return"):
                walk(0, (1, 2), _add, _same)

    def test_rotations_leave_the_union_unchanged(self):
        # three +1 moves on Z/3: each of the six orders from each start is
        # the one cycle 0, 1, 2
        def step(state, move):
            return (state + move) % 3
        for start in range(3):
            assert all_full_passes(start, (1, 1, 1), step, _same) == {frozenset({0, 1, 2})}
        assert labelled_full_passes(0, (1, 1, 1), step, _same) == {frozenset({0, 1, 2})}
        assert labelled_full_passes(1, (1, 1, 1), step, _same) == frozenset()
        assert labelled_full_passes(2, (1, 1, 1), step, _same) == frozenset()

    def test_pass_complex_walks_each_pass_from_its_least_state(self):
        # the walk from 0 takes 3 + 6 + 3 steps; from 1 it drops every mask
        # of two moves (state 0), and from 2 every mask of one (state 0):
        # 24 steps, where walking every pass from every start takes 36
        calls = []

        def step(state, move):
            calls.append(state)
            return (state + move) % 3
        c = pass_complex(range(3), (1, 1, 1), step, _same, ["a", "b", "c"])
        assert c.simplices == {frozenset("abc")}
        assert len(calls) == 24
        calls.clear()
        for start in range(3):
            all_full_passes(start, (1, 1, 1), step, _same)
        assert len(calls) == 36


class TestIsomorphism:
    def test_relabelled_path(self):
        a = path_complex(5)
        b = path_complex(5, prefix="X")
        assert isomorphic(a, b)

    def test_permuted_labels(self):
        a = SimplicialComplex.from_maximal([["p", "q"], ["q", "r"]])
        b = SimplicialComplex.from_maximal([["r", "p"], ["p", "q"]])
        assert isomorphic(a, b)

    def test_different_paths(self):
        assert not isomorphic(path_complex(4), path_complex(5))

    def test_path_vs_star(self):
        star = SimplicialComplex.from_maximal([["c", "l1"], ["c", "l2"], ["c", "l3"]])
        assert not isomorphic(path_complex(4), star)

    def test_two_triangles_sharing_edge(self):
        a = SimplicialComplex.from_maximal([["1", "2", "3"], ["2", "3", "4"]])
        b = SimplicialComplex.from_maximal([["w", "x", "y"], ["x", "y", "z"]])
        assert isomorphic(a, b)
        triangle_and_edge = SimplicialComplex.from_maximal([["1", "2", "3"], ["3", "4"]])
        assert not isomorphic(a, triangle_and_edge)

    def test_equivalence_relation(self):
        rng = random.Random(5)
        complexes = []
        for _ in range(6):
            # a random spanning tree and a few more edges, closed by the oracle
            n = rng.randint(2, 6)
            edges = {frozenset((v, rng.randrange(v))) for v in range(1, n)}
            edges |= {frozenset(rng.sample(range(n), 2)) for _ in range(n + 1)}
            complexes.append(SimplicialComplex.from_maximal(list(set_flag_closure(edges, range(n)))))
        for a in complexes:
            assert isomorphic(a, a)
            for b in complexes:
                assert isomorphic(a, b) == isomorphic(b, a)

    def test_size_bound(self):
        big = SimplicialComplex.from_maximal([[i, i + 1] for i in range(70)])
        with pytest.raises(SizeLimitError):
            isomorphic(big, big)


class TestRecognize:
    def test_point(self):
        assert str(recognize(ComplexShape.point().as_complex())) == "point"

    @pytest.mark.parametrize("n", range(1, 11))
    def test_path_roundtrip(self, n):
        shape = recognize(path_complex(n))
        assert shape == ComplexShape.path(n)

    def test_simplex(self):
        assert recognize(ComplexShape.simplex(3).as_complex()) == ComplexShape.simplex(3)

    def test_explicit(self):
        c = SimplicialComplex.from_maximal([["1", "2", "3"], ["2", "3", "4"]])
        shape = recognize(c)
        assert shape == ComplexShape("explicit", 4)
        assert str(shape) == "explicit(4 vertices)"
        # no shape literal names it, so it never matches an expected shape
        for literal in ("point", "path(4)", "simplex(3)"):
            assert shape != ComplexShape.parse(literal)
        with pytest.raises(StructureError):
            shape.as_complex()


class TestShape:
    def test_normalisation(self):
        assert ComplexShape.path(1) == ComplexShape.point()
        assert ComplexShape.path(2) == ComplexShape.simplex(1)
        assert ComplexShape.simplex(0) == ComplexShape.point()

    @pytest.mark.parametrize("text,shape", [
        ("point", ComplexShape.point()),
        ("path(5)", ComplexShape.path(5)),
        ("path(2)", ComplexShape.simplex(1)),
        ("simplex(2)", ComplexShape.simplex(2)),
        # the largest representatives parse allows
        (f"path({MAX_SHAPE_VERTICES})", ComplexShape.path(MAX_SHAPE_VERTICES)),
        (f"simplex({MAX_SHAPE_VERTICES - 1})", ComplexShape.simplex(MAX_SHAPE_VERTICES - 1)),
    ])
    def test_parse(self, text, shape):
        assert ComplexShape.parse(text) == shape

    @pytest.mark.parametrize("bad", ["", "blob", "path()", "path(x)", "simplex(-1)",
                                     f"path({MAX_SHAPE_VERTICES + 1})",
                                     f"simplex({MAX_SHAPE_VERTICES})", "simplex(100000000)"])
    def test_parse_rejects(self, bad):
        with pytest.raises(InputError):
            ComplexShape.parse(bad)

    def test_large_simplex_builds_fast(self):
        # every vertex of the one maximal clique reaches the pivot bound, so
        # each branch of the clique search scans a single vertex
        began = time.perf_counter()
        c = ComplexShape.simplex(2999).as_complex()
        assert time.perf_counter() - began < 2
        assert len(c.vertices) == 3000 and recognize(c) == ComplexShape.simplex(2999)


class TestExports:
    def test_label_text(self):
        assert label_text("T1") == "T1"
        assert label_text((0, 1, 0)) == "(0,1,0)"

    def test_json_golden(self):
        c = SimplicialComplex.from_maximal([[(0, 1), (1, 0)]])
        assert to_json(c) == (
            '{\n'
            '  "maximal_simplices": [\n'
            '    [\n'
            '      "(0,1)",\n'
            '      "(1,0)"\n'
            '    ]\n'
            '  ],\n'
            '  "vertices": [\n'
            '    "(0,1)",\n'
            '    "(1,0)"\n'
            '  ]\n'
            '}\n')

    def test_dot_golden(self):
        c = SimplicialComplex.from_maximal([["T1", "T2", "T3"]])
        assert to_dot(c) == (
            "graph kakimizu {\n"
            "  node [shape=circle];\n"
            '  "T1";\n'
            '  "T2";\n'
            '  "T3";\n'
            '  "T1" -- "T2";\n'
            '  "T1" -- "T3";\n'
            '  "T2" -- "T3";\n'
            "  // filled simplex: T1 T2 T3\n"
            "}\n")

    def test_exports_deterministic(self):
        c = SimplicialComplex.from_maximal([["b", "a"], ["c", "b"]])
        assert to_json(c) == to_json(SimplicialComplex.from_maximal([["a", "b"], ["b", "c"]]))
        assert to_dot(c) == to_dot(SimplicialComplex.from_maximal([["a", "b"], ["b", "c"]]))

    def test_json_equals_json_dumps(self):
        # the direct writer against the json module, on labels that need
        # escaping (quotes, backslashes, control, non-ASCII and astral
        # characters) and on tuple labels
        rng = random.Random(21)
        alphabet = ['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "a", "Z", "0", " ", "/",
                    "\u00e9", "\u2028", "\ufeff", "\U0001f600", "\U0010ffff"]
        built = 0
        for _ in range(300):
            edges, verts = random_graph(rng)
            closure = set_flag_closure(edges, verts)
            if not set_is_connected(closure):
                continue
            labels: dict = {}
            while len(labels) < len(verts):
                if rng.random() < 0.3:
                    label = tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 4)))
                else:
                    label = "".join(rng.choices(alphabet, k=rng.randint(0, 6)))
                labels.setdefault(label, None)
            name = dict(zip(verts, labels))
            c = SimplicialComplex.from_maximal([[name[v] for v in s] for s in closure])
            assert to_json(c) == json.dumps(rendered(c), indent=2, sort_keys=True) + "\n"
            built += 1
        assert built >= 100

    def test_dot_matches_skeleton_oracle(self):
        # edges read off the rendered simplices against edges of the
        # 1-skeleton mapped to texts, on string and tuple labels; triangles
        # sharing an edge test that every simplex's pairs count, once each
        rng = random.Random(22)
        built = shared = 0
        for _ in range(300):
            edges, verts = random_graph(rng)
            closure = set_flag_closure(edges, verts)
            if not set_is_connected(closure):
                continue
            labels: dict = {}
            while len(labels) < len(verts):
                if rng.random() < 0.4:
                    label = tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 4)))
                else:
                    label = "".join(rng.choices("abT01 _", k=rng.randint(1, 4)))
                labels.setdefault(label, None)
            name = dict(zip(verts, labels))
            c = SimplicialComplex.from_maximal([[name[v] for v in s] for s in closure])
            assert to_dot(c) == skeleton_to_dot(c)
            built += 1
            shared += any(len(a & b) >= 2 for a, b in combinations(closure, 2))
        assert built >= 100 and shared >= 20

    def test_labels_that_render_alike_are_refused(self):
        # the ranks of the texts order the exports only when the texts are
        # distinct; otherwise the JSON would list one vertex text twice
        for labels in (["(0,1)", (0, 1)], ["7", 7], [(1, 2), "x", "(1,2)"]):
            c = SimplicialComplex.from_maximal([labels])
            for export in (rendered, to_json, to_dot):
                with pytest.raises(StructureError, match="same text"):
                    export(c)
        assert to_json(SimplicialComplex.from_maximal([["(0,1)", (0, 2)]]))

    def test_isomorphic_complexes_same_json_after_relabel(self):
        a = path_complex(4)
        b = path_complex(4, prefix="X")
        relabelled = SimplicialComplex.from_maximal(
            [{v.replace("X", "T") for v in s} for s in b.simplices])
        assert to_json(a) == to_json(relabelled)


class TestLabelViews:
    """A complex holds its label table and index tuples; vertices and
    simplices are read-only label views over them."""

    def test_len_makes_no_label_set(self):
        # unhashable labels: any label set would raise, len does not
        c = pass_complex(range(3), (1, 1, 1), lambda s, m: (s + m) % 3, _same,
                         [["a"], ["b"], ["c"]])
        assert len(c.vertices) == 3 and len(c.simplices) == 1
        assert c.maximal == ((0, 1, 2),) and recognize(c) == ComplexShape.simplex(2)
        assert to_json(c).count("['a']") == 2
        with pytest.raises(TypeError):
            set(c.vertices)

    def test_views_behave_as_frozensets(self):
        c = SimplicialComplex.from_maximal([["b", "a"], ["c", "b"]])
        for view, members in ((c.vertices, frozenset("abc")),
                              (c.simplices, frozenset({frozenset("ab"), frozenset("bc")}))):
            assert view == members and members == view and view == set(members)
            assert hash(view) == hash(members) and set(view) == members
            assert all(m in view for m in members) and None not in view
            assert view - members == frozenset() and isinstance(view | members, frozenset)
        assert repr(c) == (f"SimplicialComplex(vertices={frozenset(c.vertices)!r}, "
                           f"simplices={frozenset(c.simplices)!r})")
        with pytest.raises(AttributeError):
            c.vertices = frozenset()
        with pytest.raises(AttributeError):
            c.labels = ()

    def test_equality_follows_the_labels(self):
        # other candidate orders index the vertices differently
        a = SimplicialComplex.from_maximal([["p", "q"], ["q", "r"]])
        b = SimplicialComplex.from_maximal([["r", "q"], ["q", "p"]])
        assert a.labels != b.labels
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != SimplicialComplex.from_maximal([["p", "q"], ["p", "r"]])


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestPinnedExports:
    """JSON and DOT of two large complexes, pinned by the sha256 of the
    bytes the label-sorting exports wrote before the exports sorted ranks."""

    def test_route_graph_r5_w5(self):
        text = (TESTS / "route_r5_w5.txt").read_text(encoding="utf-8")
        assert text == graph_text(route_graph(random.Random(5), 5, 5))
        g = thetagraph.PlanarMultigraph.from_text(text)
        tg = thetagraph.build_theta(g)
        c = thetagraph.build_complex(tg, tg.weights())
        assert (len(c.vertices), len(c.simplices)) == (126, 625)
        assert _digest(to_json(c)) == (
            "dfef2e294d8533880f0014cbf3a8cc58442a8cb4bd7cfa5f6281216076d7d7ed")
        assert _digest(to_dot(c)) == (
            "e4638260450827f3c48d58178ec2fb88be71f6a00a15d33407cf2c86eb5d0ac3")

    def test_chain_minus_four_to_the_sixth(self):
        c = twobridge.build_complex(twobridge.BandChain((-4,) * 6))
        assert (len(c.vertices), len(c.simplices)) == (32, 120)
        assert _digest(to_json(c)) == (
            "970bc6cc7dcf9a0a8aa8474b52ea4692dbbc92763df8e9e8fb9aa7142256f4ce")
        assert _digest(to_dot(c)) == (
            "9cdd303a39f32e7ac723022b136a7298ebe3703151cf1bbc2c7835fd39f74a0b")
