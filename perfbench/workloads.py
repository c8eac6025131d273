"""The four benchmark workloads: seeded inputs, the program calls made for
one input, and the oracle that checks each output.

A workload is a list of `Item`s made from the seed during set-up.  The
program only ever sees the generated input (a table record, a chain text, a
graph file text or a reduction-graph literal); the oracle knows the answer
from the family the input was drawn from.  The seed varies what does not
set the cost of an input (signs, labels, orders, which segment carries which
multiplicity), so that runs with different seeds time comparable work.

Program functions are looked up on their modules at call time, never bound
here, so that the tracer in ``spans.py`` sees every call.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from math import comb, factorial
from pathlib import Path

from kakimizu import complexes, fibred, pipeline, rational, thetagraph, twobridge
from kakimizu.errors import KakimizuError

DATA = Path(pipeline.__file__).resolve().parent / "data"
TABLES = ("knots11", "knots11_mixed", "knots11_lists")

# sha256 of each table's canonical report (``kakimizu batch --out``) at the
# commit that introduced the benchmark; reports must stay byte-identical.
REPORT_SHA256 = {
    "knots11": "d2e51e67933decd0e14cf5b48ec9fec82ed993ec4df04a9d4d8d6af35644486b",
    "knots11_mixed": "f67e27683230cdc1ed58c5137c181184d53a507354ab56374ed26fe02f6dc565",
    "knots11_lists": "4100125591aad6940e95edb178d3f11095b27e18ade07c99311ae1d4032b0367",
}


@dataclass
class Item:
    """One input: `payload` goes to the program, `expect` to the oracle."""

    id: str
    family: str
    payload: object
    expect: object = None


class Workload:
    """Items plus the calls and checks that one pass over them makes."""

    name = ""
    # Latency percentile reported as latency_tail_ms: the highest that left
    # at least ten samples beyond it in a run at the commit that introduced
    # the benchmark, lowered until it falls mid-way through one input's
    # samples (not between two inputs of very different cost).  It is fixed,
    # so that a faster program, with more samples, is not judged higher up.
    tail_pct = 90.0

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.items = self.make_items()
        self.memo: dict = {}

    def make_items(self) -> list:
        raise NotImplementedError

    def order(self, pass_no: int) -> list:
        return self.items

    def run(self, item: Item, pass_no: int):
        raise NotImplementedError

    def end_pass(self, outputs: dict):
        """Pass-level program work after all items (timed with the pass)."""
        return None

    def check(self, item: Item, out) -> str | None:
        raise NotImplementedError

    def check_pass(self, extra) -> list:
        return []

    def summary(self, outputs: dict) -> dict:
        """Extra counts of one pass worth printing (and tracing)."""
        return {}

    def same_as_before(self, key, value) -> bool:
        """Whether `value` equals what `key` gave on its first appearance."""
        return self.memo.setdefault(key, value) == value


# ---------------------------------------------------------------- tables


class Tables(Workload):
    """The three shipped tables, record by record through ``run_batch``."""

    name = "tables"
    tail_pct = 99.0

    def make_items(self) -> list:
        items = []
        for table in TABLES:
            for rec in pipeline.load_table(DATA / f"{table}.csv"):
                items.append(Item(f"{table}/{rec.name}", table, rec, rec.expected))
        return items

    def order(self, pass_no: int) -> list:
        # records are independent; the seed only fixes the order they run in
        order = list(self.items)
        self.rng.shuffle(order)
        return order

    def run(self, item: Item, pass_no: int):
        (result,) = pipeline.run_batch([item.payload])
        return result

    def end_pass(self, outputs: dict):
        reports = {}
        for table in TABLES:
            results = [outputs[i.id] for i in self.items if i.family == table and i.id in outputs]
            payload = pipeline.report_payload(results)
            reports[table] = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        return reports

    def check(self, item: Item, out) -> str | None:
        if out.error is not None:
            return f"error {out.error}"
        if item.expect is not None and out.matched_expected is not True:
            return f"shape {out.shape} does not match {item.expect}"
        return None

    def check_pass(self, reports) -> list:
        problems = []
        for table, text in reports.items():
            digest = hashlib.sha256(text.encode()).hexdigest()
            if not self.same_as_before(("report", table), text):
                problems.append(f"{table}: report differs from the first pass")
            if digest != REPORT_SHA256[table]:
                problems.append(f"{table}: report sha256 {digest} != {REPORT_SHA256[table]}")
        return problems


# ---------------------------------------------------------------- chains


def _alternating(n: int) -> tuple:
    return tuple(-2 if i % 2 == 0 else -4 for i in range(n))


def orbit_count(bands) -> int:
    """Hopf orbits by breadth-first closure, independent of ``twobridge``.

    Band k (1-indexed) flanks disks k-1 and k of the n-1 plumbing disks; a
    Hopf band (|e| = 2) moves a surface when it flanks at most one disk or
    its two flanking bits agree, and the move flips the flanking bits.
    """
    n = len(bands)
    hopf = [k for k in range(1, n + 1) if abs(bands[k - 1]) == 2]
    unseen = {tuple((t >> i) & 1 for i in range(n - 1)) for t in range(2 ** (n - 1))}
    count = 0
    while unseen:
        count += 1
        stack = [unseen.pop()]
        while stack:
            t = stack.pop()
            for k in hopf:
                disks = [d - 1 for d in (k - 1, k) if 1 <= d <= n - 1]
                if len(disks) == 2 and t[disks[0]] != t[disks[1]]:
                    continue
                s = list(t)
                for d in disks:
                    s[d] ^= 1
                s = tuple(s)
                if s in unseen:
                    unseen.remove(s)
                    stack.append(s)
    return count


class Chains(Workload):
    """2-bridge chains with n = 4..7 bands, as band lists and as fractions.

    The build cost of a chain is set by n and by where its Hopf bands sit,
    not by signs or by |e| among non-Hopf bands.  At n <= 5 every Hopf
    pattern costs about the same, so the random chains are drawn freely
    there; at n = 6 two random chains add a little seed-dependent cost; at
    n = 7 only the fixed ladders run, since one random 7-band chain would
    move a pass by up to a third.  The eight 4-band chains put the median
    input in the middle of the 5-band ones rather than at their edge.
    """

    name = "chains"
    tail_pct = 93.0

    def make_items(self) -> list:
        chains = []
        for n in (4, 5, 6, 7):
            chains.append((f"(-2)^{n}", (-2,) * n, "hopf_ladder"))
            chains.append((f"(-4)^{n}", (-4,) * n, "hopf_free_ladder"))
            chains.append((f"alt{n}", _alternating(n), "alternating"))
        for n, count in ((4, 5), (5, 10), (6, 2)):
            for i in range(count):
                bands = tuple(self.rng.choice((-6, -4, -2, 2, 4, 6)) for _ in range(n))
                chains.append((f"rand{n}_{i}", bands, "random"))
        self.rng.shuffle(chains)
        items = []
        for i, (name, bands, family) in enumerate(chains):
            forms = ("[" + ",".join(map(str, bands)) + "]",
                     rational.format_fraction(rational.evaluate_cfe(bands)))
            items.append(Item(name, family, (forms, i % 2), bands))
        return items

    def run(self, item: Item, pass_no: int):
        # successive passes alternate the form each chain is given in, so
        # both forms of every chain have run after two passes
        forms, offset = item.payload
        text = forms[(pass_no + offset) % 2]
        chain = twobridge.BandChain.parse(text)
        c = twobridge.build_complex(chain)
        shape = complexes.recognize(c)
        return str(shape), len(c.vertices), len(c.simplices), complexes.to_json(c)

    def check(self, item: Item, out) -> str | None:
        shape, nv, ns, text = out
        bands = item.expect
        n = len(bands)
        if item.family == "hopf_ladder" and shape != "point":
            return f"expected a point, got {shape}"
        if item.family == "hopf_free_ladder" and (nv, ns) != (2 ** (n - 1), factorial(n - 1)):
            return f"expected {2 ** (n - 1)} vertices and {factorial(n - 1)} simplices, got {nv}, {ns}"
        orbits = orbit_count(bands)
        if nv != orbits:
            return f"{nv} vertices but {orbits} Hopf orbits"
        if not self.same_as_before(item.id, text):
            return "band-list and fraction forms give different complexes"
        return None


# ---------------------------------------------------------------- theta


def route_graph_text(rng: random.Random, width: int, lengths: list, mult: list) -> str:
    """A Seifert graph: u and v joined by `width` parallel edges and by one
    odd-length route per entry of `lengths`.

    Route segments are bundles of parallel edges, `mult` giving the bundle
    sizes in order.  The graph is bipartite with every edge oriented out of
    u's colour class, and its theta graph has one region per route.  Edge
    ids and route vertex names are shuffled by `rng`.
    """
    up: dict = {"u": [], "v": []}      # bundles arriving from above, left to right
    down: dict = {"u": [], "v": []}    # bundles leaving downwards, left to right
    edges = []
    names = list(range(sum(lengths)))
    rng.shuffle(names)
    seg = iter(mult)

    def bundle(top, bottom, size, top_colour):
        ids = list(range(len(edges), len(edges) + size))
        edges.extend((top, bottom, "+" if top_colour == 0 else "-") for _ in ids)
        down[top].extend(ids)
        up[bottom].extend(ids)

    for r, length in enumerate(lengths):
        path = ["u"] + [f"w{names.pop()}" for _ in range(length - 1)] + ["v"]
        for x in path[1:-1]:
            up[x], down[x] = [], []
        for i in range(length):
            bundle(path[i], path[i + 1], next(seg), i % 2)
    bundle("u", "v", width, 0)
    eids = [str(i + 1) for i in range(len(edges))]
    rng.shuffle(eids)
    lines = [f"vertex {x}" for x in up]
    lines += [f"edge {eids[i]} {a} {b} weight=1 dir={d}" for i, (a, b, d) in enumerate(edges)]
    for x in up:
        # a vertex sees the bundle above it right to left, then the one below
        rot = [eids[i] for i in reversed(up[x])] + [eids[i] for i in down[x]]
        lines.append(f"rot {x} " + " ".join(rot))
    return "\n".join(lines) + "\n"


def sphere_graph_text(rng: random.Random, ops: int) -> str:
    """A random coherent bipartite sphere graph with all weights 1.

    It grows from a pair of parallel edges by the operations of the test
    suite's random graphs, each kept bipartite: duplicate an edge, add a
    chord across a face between vertices of opposite colour, or subdivide
    an edge twice.  Every edge is oriented out of colour class 0.
    """
    colour = {"v0": 0, "v1": 1}
    ends = {0: ("v0", "v1"), 1: ("v0", "v1")}
    rot = {"v0": [(0, 0), (1, 0)], "v1": [(1, 1), (0, 1)]}

    def faces():
        succ = {}
        for darts in rot.values():
            for i, d in enumerate(darts):
                succ[d] = darts[(i + 1) % len(darts)]
        seen, walks = set(), []
        for v in sorted(rot):
            for d in rot[v]:
                walk = []
                while d not in seen:
                    seen.add(d)
                    walk.append(d)
                    d = succ[(d[0], 1 - d[1])]
                if walk:
                    walks.append(walk)
        return walks

    for _ in range(ops):
        op = rng.choice(("parallel", "chord", "subdivide"))
        if op == "parallel":
            e = rng.choice(sorted(ends))
            u, v = ends[e]
            new = len(ends)
            ends[new] = (u, v)
            rot[u].insert(rot[u].index((e, 0)) + 1, (new, 0))
            rot[v].insert(rot[v].index((e, 1)), (new, 1))
        elif op == "subdivide":
            e = rng.choice(sorted(ends))
            u, v = ends[e]
            m1, m2 = f"v{len(colour)}", f"v{len(colour) + 1}"
            colour[m1], colour[m2] = 1 - colour[u], colour[u]
            a, b = e, len(ends)
            c = b + 1
            ends[a], ends[b], ends[c] = (u, m1), (m1, m2), (m2, v)
            rot[v][rot[v].index((e, 1))] = (c, 1)
            rot[m1] = [(a, 1), (b, 0)]
            rot[m2] = [(b, 1), (c, 0)]
        else:
            walk = rng.choice(faces())
            verts = [ends[e][a] for e, a in walk]
            spots = [(i, j) for i in range(len(walk)) for j in range(i + 1, len(walk))
                     if colour[verts[i]] != colour[verts[j]]]
            if not spots:
                continue
            i, j = rng.choice(spots)
            new = len(ends)
            ends[new] = (verts[i], verts[j])
            rot[verts[i]].insert(rot[verts[i]].index(walk[i]), (new, 0))
            rot[verts[j]].insert(rot[verts[j]].index(walk[j]), (new, 1))
    lines = [f"vertex {v}" for v in colour]
    for e, (u, v) in sorted(ends.items()):
        lines.append(f"edge {e} {u} {v} weight=1 dir={'+' if colour[u] == 0 else '-'}")
    for v, darts in rot.items():
        lines.append(f"rot {v} " + " ".join(str(e) for e, _ in darts))
    return "\n".join(lines) + "\n"


# (regions R, parallel u-v edges W) per route graph; each sub-mix stresses
# one part of the theta build.
MANY_REGION = [(8, 1), (7, 2), (7, 1)]                 # the region pass loop
WIDE = [(5, 5), (5, 4), (4, 8), (4, 6), (4, 5)]        # from_maximal and is_flag
MULTI_EDGE = [(2, 2), (3, 2), (4, 2), (3, 3)]          # bigon reduction
MULTIPLICITY = (20, 40)    # bundle sizes on the multi-edge graphs' segments
SAMPLE_GRAPHS = 6
SAMPLE_OPS = (3, 10)
FIXTURES = {"theta_11_94": "path(2)", "theta_11_237": "simplex(2)", "theta_11_340": "path(2)"}


class Theta(Workload):
    """Route Seifert graphs, the shipped fixtures and random sphere graphs."""

    name = "theta"
    tail_pct = 90.0

    def make_items(self) -> list:
        rng = self.rng
        items = []
        for name, shape in FIXTURES.items():
            expect = str(complexes.ComplexShape.parse(shape))   # path(2) reads simplex(1)
            items.append(Item(name, "fixture", (DATA / f"{name}.txt").read_text(), expect))
        for mix, grid in (("many_region", MANY_REGION), ("wide", WIDE)):
            for r, w in grid:
                lengths = [3] * (r // 2) + [5] * (r - r // 2)
                rng.shuffle(lengths)
                text = route_graph_text(rng, w, lengths, [1] * sum(lengths))
                items.append(Item(f"{mix}_R{r}_W{w}", mix, text, (r, w)))
        low, high = MULTIPLICITY
        for r, w in MULTI_EDGE:
            # bundle sizes spread evenly over MULTIPLICITY; the seed only
            # decides which segment gets which, so the edge count is fixed
            segs = 3 * r
            mult = [low + ((high - low) * i) // (segs - 1) for i in range(segs)]
            rng.shuffle(mult)
            items.append(Item(f"multi_edge_R{r}_W{w}", "multi_edge",
                              route_graph_text(rng, w, [3] * r, mult), (r, w)))
        for i in range(SAMPLE_GRAPHS):
            text = sphere_graph_text(rng, rng.randint(*SAMPLE_OPS))
            items.append(Item(f"sample{i}", "sample", text))
        rng.shuffle(items)
        return items

    def run(self, item: Item, pass_no: int):
        g = thetagraph.PlanarMultigraph.from_text(item.payload)
        try:
            tg = thetagraph.build_theta(g)
            c = thetagraph.build_complex(tg, tg.weights())
        except KakimizuError as exc:
            # random sample graphs have no oracle: a refusal is an outcome
            if item.family != "sample":
                raise
            return "refused: " + str(exc), 0, 0, ""
        shape = complexes.recognize(c)
        return str(shape), len(c.vertices), len(c.simplices), complexes.to_json(c)

    def check(self, item: Item, out) -> str | None:
        shape, nv, ns, text = out
        if item.family == "fixture" and shape != item.expect:
            return f"expected {item.expect}, got {shape}"
        if item.family in ("many_region", "wide", "multi_edge"):
            r, w = item.expect
            want = (comb(w + r - 1, r - 1), w ** (r - 1))
            if (nv, ns) != want:
                return f"expected {want[0]} vertices and {want[1]} simplices, got {nv}, {ns}"
        if not self.same_as_before(item.id, out):
            return "output differs from the first pass"
        return None

    def summary(self, outputs: dict) -> dict:
        counts = {"built": 0, "unique_surface": 0, "unreduced_bigon": 0, "other_refusal": 0}
        for item in self.items:
            if item.family != "sample" or item.id not in outputs:
                continue
            shape = outputs[item.id][0]
            if not shape.startswith("refused: "):
                counts["built"] += 1
            elif "unique surface" in shape:
                counts["unique_surface"] += 1
            elif "bigon" in shape:
                counts["unreduced_bigon"] += 1
            else:
                counts["other_refusal"] += 1
        return {f"theta.sample.{k}": v for k, v in counts.items()}


# ---------------------------------------------------------------- fibred


def _literal(n: int, pairs, rng: random.Random, relabel: bool) -> str:
    labels = list(range(n))
    if relabel:
        rng.shuffle(labels)
    pairs = [(labels[a], labels[b]) for a, b in pairs]
    rng.shuffle(pairs)   # the program sorts edges, so their order costs nothing
    return f"v={n}; edges=" + "".join(f"({a},{b})" for a, b in pairs)


def _cycle(n: int) -> list:
    return [(i, (i + 1) % n) for i in range(n)]


class Fibred(Workload):
    """Reduction graphs with known fibredness, searched and replayed.

    The search cost of cycles, with or without chords and loops, depends on
    the vertex labels by up to a third, so those keep their natural labels;
    ladders and looped paths are relabelled by the seed, which leaves their
    cost unchanged.  Edge order is always shuffled; the program sorts it.
    """

    name = "fibred"
    tail_pct = 83.0

    def make_items(self) -> list:
        rng = self.rng
        graphs = []
        for n in (10, 12, 14):
            pairs = _cycle(n) + [(0, n // 2)] * 2
            graphs.append((f"doubled_chord{n}", n, pairs, False, False))
        for k in (5,):   # k = 6 alone would take 1.2 s
            pairs = ([(i, i + 1) for i in range(k - 1)] + [(k + i, k + i + 1) for i in range(k - 1)]
                     + [(i, k + i) for i in range(k)])
            graphs.append((f"ladder{k}", 2 * k, pairs, False, True))
        for n in (6,):
            # one and two loops in turn; random loop counts would change the cost
            pairs = [(i, i + 1) for i in range(n - 1)]
            for v in range(n):
                pairs += [(v, v)] * (1 + v % 2)
            graphs.append((f"looped_path{n}", n, pairs, False, True))
        for n in (20, 40):
            graphs.append((f"cycle{n}", n, _cycle(n), True, False))
        for n in (12, 16, 20):
            graphs.append((f"looped_cycle{n}", n, _cycle(n) + [(i, i) for i in range(n)],
                           True, False))
        graphs.append(("bouquet900", 1, [(0, 0)] * 900, True, False))
        # deeper than the interpreter's default recursion limit: the search
        # recurses once per move, so today this input raises RecursionError
        graphs.append(("bouquet1500", 1, [(0, 0)] * 1500, True, False))
        items = []
        for name, n, pairs, answer, relabel in graphs:
            text = _literal(n, pairs, rng, relabel)
            items.append(Item(name, name.rstrip("0123456789"), text, (answer, len(pairs))))
        rng.shuffle(items)
        return items

    def run(self, item: Item, pass_no: int):
        g = fibred.ReductionGraph.from_text(item.payload)
        cert = fibred.reduction_certificate(g)
        replayed = fibred.replay_certificate(g, cert) if cert is not None else None
        return cert is not None, replayed, 0 if cert is None else len(cert)

    def check(self, item: Item, out) -> str | None:
        found, replayed, length = out
        answer, edges = item.expect
        if found != answer:
            return f"expected {'fibred' if answer else 'not fibred'}"
        if found and (replayed is not True or length != edges):
            return f"certificate of {length} moves does not replay"
        return None


WORKLOADS = {w.name: w for w in (Tables, Chains, Theta, Fibred)}
