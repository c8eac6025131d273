"""Per-layer spans and counts, recorded from outside the program.

The tracer replaces functions at their binding sites: the module attribute
or class attribute through which the program itself calls them (twobridge
calls its own ``is_flag`` binding, not the one in ``complexes``).  A span
records name, parent, input id, start, end and self time, and is kept in
memory; a count wrapper only counts calls.  Uninstalling puts every original
object back, so untraced passes run the unmodified program.

A binding that a later change removes or renames is reported as absent and
its metrics read 0; nothing else depends on it.
"""

from __future__ import annotations

import itertools
import json
import statistics
import time
from collections import defaultdict

from kakimizu import complexes, fibred, pipeline, rational, thetagraph, twobridge
from kakimizu.complexes import SimplicialComplex
from kakimizu.fibred import ReductionGraph
from kakimizu.thetagraph import PlanarMultigraph

_BUILDS = ("twobridge.build_complex", "thetagraph.build_complex")


def _orbits(tracer, args, result):
    tracer.counts["twobridge.orbits"] += len(result)


def _candidates(tracer, args, result):
    # from_maximal(cls, simplices, ...): only the builds' own assembly counts
    parent = tracer.parent_name()
    if parent in _BUILDS:
        tracer.counts["complexes.candidates_in"] += len(args[1])
        tracer.counts["complexes.maximal_out"] += len(result.simplices)
        if parent == "twobridge.build_complex":
            tracer.counts["twobridge.candidates"] += len(args[1])


def _regions(tracer, args, result):
    tracer.counts["thetagraph.regions"] += len(result)


def _reachable(tracer, args, result):
    tracer.counts["thetagraph.reachable"] += len(result.vertices)


def _certificate(tracer, args, result):
    tracer.counts["fibred.certificate_moves"] += len(result) if result is not None else 0


# (owner, attribute, span or count name, kind, observer or enclosing span)
SITES = [
    (rational, "expand_index", "rational.expand_index", "span", None),
    (twobridge, "build_complex", "twobridge.build_complex", "span", None),
    (twobridge, "hopf_orbits", "twobridge.hopf_orbits", "span", _orbits),
    (twobridge, "_cycles_from", "twobridge.passes", "span", None),
    (SimplicialComplex, "from_maximal", "complexes.from_maximal", "span", _candidates),
    (complexes, "is_flag", "complexes.is_flag", "span", None),
    (twobridge, "is_flag", "complexes.is_flag", "span", None),
    (thetagraph, "is_flag", "complexes.is_flag", "span", None),
    (pipeline, "is_flag", "complexes.is_flag", "span", None),
    (complexes, "is_connected", "complexes.is_connected", "span", None),
    (twobridge, "is_connected", "complexes.is_connected", "span", None),
    (thetagraph, "is_connected", "complexes.is_connected", "span", None),
    (pipeline, "is_connected", "complexes.is_connected", "span", None),
    (complexes, "recognize", "complexes.recognize", "span", None),
    (pipeline, "recognize", "complexes.recognize", "span", None),
    (complexes, "to_json", "complexes.export", "span", None),
    (PlanarMultigraph, "from_text", "thetagraph.parse", "span", None),
    (thetagraph, "reduce_bigons", "thetagraph.reduce_bigons", "span", None),
    (thetagraph, "add_zero_edges", "thetagraph.add_zero_edges", "span", None),
    (thetagraph, "region_signatures", "thetagraph.region_signatures", "span", _regions),
    (thetagraph, "build_complex", "thetagraph.build_complex", "span", _reachable),
    (PlanarMultigraph, "faces", "thetagraph.faces", "count", None),
    (thetagraph, "_try_region", "thetagraph.try_region", "count", None),
    (fibred, "reduction_certificate", "fibred.reduction_certificate", "span", _certificate),
    (fibred, "canonical_form", "fibred.canonical_form", "span", None),
    (fibred, "replay_certificate", "fibred.replay", "span", None),
    # moves tried by the search; the moves a replay applies are not counted
    (ReductionGraph, "delete_loop", "fibred.moves", "count", "fibred.reduction_certificate"),
    (ReductionGraph, "contract", "fibred.moves", "count", "fibred.reduction_certificate"),
    (pipeline, "load_table", "pipeline.load_table", "span", None),
    (pipeline, "run_batch", "pipeline.run_batch", "span", None),
    (pipeline, "report_payload", "pipeline.report_payload", "span", None),
]

# which per-layer metrics are read from span totals, self times, call counts
# and observed counts
_SPAN_TOTALS = [
    "twobridge.passes", "twobridge.hopf_orbits", "twobridge.build_complex",
    "complexes.from_maximal", "complexes.is_flag", "complexes.is_connected",
    "complexes.recognize", "complexes.export",
    "thetagraph.parse", "thetagraph.reduce_bigons", "thetagraph.add_zero_edges",
    "fibred.reduction_certificate", "fibred.canonical_form",
    "fibred.replay", "pipeline.load_table", "pipeline.report_payload", "rational.expand_index",
]
_SELF_TIMES = ["thetagraph.build_complex", "pipeline.run_batch"]
_CALLS = ["thetagraph.faces", "thetagraph.try_region", "fibred.canonical_form", "fibred.moves"]
_COUNTS = ["twobridge.orbits", "twobridge.candidates", "thetagraph.regions", "thetagraph.reachable"]


def _name(owner) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__}.{owner.__qualname__}"
    return owner.__name__


class Tracer:
    """Spans and counts of the calls made through the traced binding sites."""

    def __init__(self):
        self.spans: list = []       # (id, parent id, name, input id, start, end, self time)
        self.stack: list = []       # open spans: [id, name, start, time of children]
        self.calls: dict = defaultdict(int)
        self.counts: dict = defaultdict(int)
        self.input = None
        self.absent: list = []
        self._saved: list = []
        self._ids = itertools.count()

    def parent_name(self):
        return self.stack[-1][1] if self.stack else None

    def begin_input(self, input_id) -> None:
        self.input = input_id
        self.stack.clear()   # an input that died mid-span (RecursionError) left it open

    def reset(self) -> None:
        # cleared in place: installed wrappers hold these objects
        self.spans.clear()
        self.calls.clear()
        self.counts.clear()

    def _span(self, name, fn, observe):
        stack, spans, calls, ids = self.stack, self.spans, self.calls, self._ids
        tracer = self

        def traced(*args, **kwargs):
            # bookkeeping uses no Python-level calls, so that it still runs
            # when the wrapped call hit the recursion limit
            entry = [next(ids), name, time.perf_counter(), 0.0]
            stack.append(entry)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if stack and stack[-1] is entry:
                    stack.pop()
                    took = end - entry[2]
                    parent = stack[-1] if stack else None
                    if parent is not None:
                        parent[3] += took
                    spans.append((entry[0], parent[0] if parent else None, name,
                                  tracer.input, entry[2], end, took - entry[3]))
                    calls[name] += 1
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    def _count(self, name, fn, within):
        stack, calls = self.stack, self.calls

        def counted(*args, **kwargs):
            if within is None or (stack and stack[-1][1] == within):
                calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        self.absent = []
        for owner, attr, name, kind, extra in SITES:
            original = vars(owner).get(attr)
            if original is None:
                self.absent.append(f"{_name(owner)}.{attr}")
                continue
            fn = original.__func__ if isinstance(original, classmethod) else original
            wrapped = self._span(name, fn, extra) if kind == "span" else self._count(name, fn, extra)
            if isinstance(original, classmethod):
                wrapped = classmethod(wrapped)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def pass_metrics(self) -> dict:
        """The per-layer metrics of what was recorded since the last reset."""
        total, own = defaultdict(float), defaultdict(float)
        for _, _, name, _, start, end, self_time in self.spans:
            total[name] += end - start
            own[name] += self_time
        m = {}
        for name in _SPAN_TOTALS:
            m[f"{name}.s"] = total[name]
        for name in _SELF_TIMES:
            m[f"{name}.self_s"] = own[name]
        for name in _CALLS:
            m[f"{name}.calls"] = self.calls[name]
        for name in _COUNTS:
            m[name] = self.counts[name]
        cin = self.counts["complexes.candidates_in"]
        m["complexes.useful_ratio"] = self.counts["complexes.maximal_out"] / cin if cin else 0.0
        moves = self.calls["fibred.moves"]
        m["fibred.useful_ratio"] = self.counts["fibred.certificate_moves"] / moves if moves else 0.0
        return m

    def write(self, path) -> None:
        """Write the spans recorded since the last reset as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span_id, parent, name, input_id, start, end, self_time in self.spans:
                out.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                      "input": input_id, "start": start, "end": end,
                                      "self": self_time}) + "\n")


def median_metrics(per_pass: list) -> dict:
    """Median of each metric over the traced passes."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


def unit_of(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"
