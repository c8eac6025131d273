"""Acceptance suite: one test per shipped criterion, each printing a
PASS line with its headline numbers once its assertions hold."""

import json
import math
import random
import time
from fractions import Fraction
from itertools import product

from kakimizu.cli import main as cli_main
from kakimizu.complexes import ComplexShape, recognize
from kakimizu.fibred import ReductionGraph, reduction_certificate
from kakimizu.pipeline import (KnotRecord, classify_and_compute, load_theta_file,
                               plumbing_theorem_complex, strip_fibred_summands)
from kakimizu.rational import (evaluate_cfe, even_cfe, normalize_two_bridge,
                               parse_fraction)
from kakimizu.thetagraph import build_complex as theta_complex, region_signatures
from kakimizu.twobridge import BandChain, build_complex as chain_complex, hopf_orbits

from catalog import CONFLICT_CFE, CONFLICT_NAMES, ROWS
from isomorphism import isomorphic
from randgraphs import random_sphere_graph
from setoracles import apply_region
from test_fibred import greedy_reduces, is_fibred_special, random_connected_multigraph
from test_twobridge import bfs_orbit_count


def test_criterion_1_continued_fractions():
    assert even_cfe(normalize_two_bridge(parse_fraction("28/61"))) == (2, -6, -2, 2)
    recomputed = []
    for row in ROWS:
        value = evaluate_cfe(row.cfe)
        if row.fraction_typo:
            # the catalogued fraction contradicts its own band list; the
            # corrected fraction recomputed from the list is authoritative
            assert value == normalize_two_bridge(parse_fraction(row.corrected_fraction))
            assert value != normalize_two_bridge(parse_fraction(row.fraction))
            recomputed.append(f"{row.name} ({row.fraction} -> {row.corrected_fraction})")
        else:
            assert value == normalize_two_bridge(parse_fraction(row.fraction))
    # two rows whose raw fraction is fine but whose catalogued shifted form
    # is misprinted; the recomputed values are the authoritative ones
    assert evaluate_cfe((-6, -2, -2, -4)) == Fraction(-10, 53) != Fraction(-10, 79)
    assert evaluate_cfe((-6, -4, -2, -2)) == Fraction(-10, 57) != Fraction(-10, 59)
    print(f"criterion 1 PASS: 28/61 expands to [2,-6,-2,2]; {len(ROWS)} catalogued "
          f"band lists evaluate exactly; fractions recomputed for {recomputed}")


def test_criterion_2_roundtrip_sweep():
    began = time.perf_counter()
    checked = 0
    for q in range(2, 201):
        for p in range(1, q):
            if math.gcd(p, q) != 1 or (p * q) % 2 == 1:
                continue
            f = Fraction(p, q)
            cfe = even_cfe(f)
            assert all(e % 2 == 0 and e != 0 for e in cfe)
            assert evaluate_cfe(cfe) == f
            checked += 1
    elapsed = time.perf_counter() - began
    assert elapsed < 5.0
    print(f"criterion 2 PASS: {checked} fractions with q <= 200 roundtrip "
          f"exactly in {elapsed:.2f}s")


def test_criterion_3_unique_surface_fraction():
    # the catalogued unique-surface list pins one fraction, 11_13 = 28/61
    c = classify_and_compute(KnotRecord("11_13", "two_bridge", "28/61"))
    assert str(recognize(c)) == "point"
    print("criterion 3 PASS: the unique-surface fraction 28/61 (11_13) "
          "yields a single vertex")


def test_criterion_4_table_shapes():
    began = time.perf_counter()
    for row in ROWS:
        c = chain_complex(BandChain(row.cfe))
        expected = ComplexShape.parse(row.shape).as_complex()
        assert isomorphic(c, expected), row.name
    elapsed = time.perf_counter() - began
    assert elapsed < 10.0
    conflict_shape = recognize(chain_complex(BandChain(CONFLICT_CFE)))
    print(f"criterion 4 PASS: {len(ROWS)} catalogued complexes match in "
          f"{elapsed:.2f}s; rows {'/'.join(CONFLICT_NAMES)} share one fraction yet "
          f"different catalogued complexes, excluded; computed shape for their "
          f"chain: {conflict_shape}")


def test_criterion_5_orbit_oracle():
    for row in ROWS:
        chain = BandChain(row.cfe)
        assert len(hopf_orbits(chain)) == bfs_orbit_count(row.cfe), row.name
    print(f"criterion 5 PASS: union-find orbit counts equal the independent "
          f"breadth-first closure on all {len(ROWS)} chains")


def test_criterion_6_theta_fixtures(data_dir):
    tg = load_theta_file(data_dir / "theta_11_237.txt")
    w0 = dict(zip(tg.edge_order(), (0, 1, 0)))
    c = theta_complex(tg, w0)
    assert c.vertices == {(0, 1, 0), (0, 0, 1), (1, 0, 0)}
    assert isomorphic(c, ComplexShape.simplex(2).as_complex())
    for name in ("theta_11_94.txt", "theta_11_340.txt"):
        tg = load_theta_file(data_dir / name)
        c = theta_complex(tg, tg.weights())
        assert isomorphic(c, ComplexShape.simplex(1).as_complex()), name
    print("criterion 6 PASS: 11_237 gives the 2-simplex on "
          "{(0,1,0),(0,0,1),(1,0,0)}; 11_94 and 11_340 give single edges")


def test_criterion_7_region_sign_invariants(data_dir):
    graphs = [load_theta_file(data_dir / name)
              for name in ("theta_11_94.txt", "theta_11_237.txt", "theta_11_340.txt")]
    rng = random.Random(20240211)
    graphs += [random_sphere_graph(rng, ops=rng.randint(2, 10)) for _ in range(50)]
    for g in graphs:
        regions = region_signatures(g)
        per_edge = {}
        for boundary in regions:
            for eid, s in boundary:
                per_edge.setdefault(eid, []).append(s)
        assert all(sorted(v) == [-1, 1] for v in per_edge.values())
        shuffled = list(regions)
        rng.shuffle(shuffled)
        w0 = {eid: len(regions) for eid in g.edges}
        w = dict(w0)
        for region in shuffled:
            w = apply_region(w, region)
        assert w == w0
    print(f"criterion 7 PASS: opposite signs per edge and full-pass identity "
          f"on {len(graphs)} embedded multigraphs")


def test_criterion_8_fibredness():
    assert is_fibred_special(ReductionGraph.from_pairs(1, [(0, 0), (0, 0), (0, 0)]))
    assert not is_fibred_special(ReductionGraph.from_pairs(2, [(0, 1)] * 3))
    rng = random.Random(424242)
    agreements = 0
    for _ in range(120):
        g = random_connected_multigraph(rng)
        if any(greedy_reduces(g, random.Random(seed)) for seed in range(50)):
            assert is_fibred_special(g)
            cert = reduction_certificate(g)
            assert cert is not None and len(cert) == len(g.edges)
            agreements += 1
    assert agreements > 10
    print(f"criterion 8 PASS: loop-only fibred, triple edge not; fixed-order greedy "
          f"reducer certified all {agreements} random-order greedy successes")


def test_criterion_9_rule_engine():
    edge = ComplexShape.simplex(1).as_complex()
    path3 = ComplexShape.path(3).as_complex()
    for name in ("11_45", "11_280"):
        c = plumbing_theorem_complex("A1=0;A1p=0;A2=0;A2p=0")
        assert isomorphic(c, edge), name
    c = plumbing_theorem_complex("A1=1;A1p=0;A2=0;A2p=0")
    assert isomorphic(c, path3)
    stripped = strip_fibred_summands("base_unique=1;fibred_summands=2")
    assert str(recognize(stripped)) == "point"
    c = classify_and_compute(KnotRecord("11_103", "table_expected", "path(2)"))
    assert isomorphic(c, edge)
    c = classify_and_compute(KnotRecord("11_201", "table_expected", "path(3)"))
    assert isomorphic(c, path3)
    print("criterion 9 PASS: plumbing rules give edge/edge/path(3) for "
          "11_45/11_280/11_325; stripping gives a point; 11_103 edge and "
          "11_201 path(3) from stored records")


def test_criterion_10_batch_reproducibility(data_dir, tmp_path, capsys):
    first, second = tmp_path / "r1.json", tmp_path / "r2.json"
    table = str(data_dir / "knots11.csv")
    code1 = cli_main(["batch", table, "--out", str(first)])
    code2 = cli_main(["batch", table, "--out", str(second)])
    capsys.readouterr()
    assert code1 == 0 and code2 == 0
    assert first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text())
    assert payload["totals"]["records"] == 27
    assert all(row["matched_expected"] for row in payload["results"])
    print("criterion 10 PASS: batch exits 0, 27/27 matched, reports byte-identical")
