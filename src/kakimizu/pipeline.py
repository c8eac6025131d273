"""Knot-table ingestion and the rule-driven Kakimizu classifier.

Each knot record names its algorithm class and the parameters that class
needs:

``fibred``
    no parameters; fibred links span a unique surface, the complex is a
    point.
``two_bridge``
    a fraction ``p/q`` or a literal band list ``[e1,e2,...]``; handled by
    the continued-fraction and band-chain machinery.
``special_alternating``
    a Seifert graph file, every weight 1 (resolved next to the table);
    handled by the theta-graph machinery.
``unique_base_plus_fibred``
    flags ``base_unique=<0|1>;fibred_summands=<k>``; deplumbing the fibred
    summands one at a time gives a bijection onto the surfaces of the base,
    so a unique base forces a point.
``plumbing_unique_pair``
    product-disk flags ``A1=..;A1p=..;A2=..;A2p=..`` feeding the plumbing
    theorem: no disks gives the edge S - S^c, a disk at A1 gives the path
    S^c - S - T^c.
``table_expected``
    a shape literal; the complex is taken from the record (used where the
    published derivation is a prose proof, not an algorithm).

The two rule classes read their params text directly:
:func:`strip_fibred_summands` and :func:`plumbing_theorem_complex` each
take it whole, check its flags and return the complex.

Records run independently; one bad row never aborts a batch.  Reports are
canonical JSON, byte-identical across runs.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

from . import thetagraph, twobridge
from .complexes import ComplexShape, SimplicialComplex, recognize, rendered
from .errors import InputError, KakimizuError
from .rational import parse_int
from .twobridge import DEFAULT_MAX_BANDS

KNOT_CLASSES = ("fibred", "two_bridge", "special_alternating", "unique_base_plus_fibred",
                "plumbing_unique_pair", "table_expected")


def _rule_params(params: str, keys) -> dict:
    """The values of ``key=value;...`` by key, None for a key not given.

    An unknown key, or a key given twice, is an InputError; the caller
    checks the values.
    """
    fields = dict.fromkeys(keys)
    for item in params.split(";"):
        item = item.strip()
        if not item:
            continue
        key, _, value = item.partition("=")
        if key not in fields:
            raise InputError(f"unknown field {key!r} in {params!r}")
        if fields[key] is not None:
            raise InputError(f"field {key!r} given twice in {params!r}")
        fields[key] = value
    return fields


@dataclass(frozen=True)
class KnotRecord:
    name: str
    klass: str
    params: str
    expected: ComplexShape | None = None
    base_dir: Path | None = None

    def __post_init__(self) -> None:
        if self.klass not in KNOT_CLASSES:
            raise InputError(f"unknown knot class {self.klass!r}")


@dataclass
class ResultRecord:
    name: str
    computed: SimplicialComplex | None
    shape: ComplexShape | None
    matched_expected: bool | None
    runtime: float
    error: str | None = None


def strip_fibred_summands(params: str) -> SimplicialComplex:
    """Deplumb fibred summands from a unique-surface base.

    ``params`` is the rule text ``base_unique=<0|1>;fibred_summands=<k>``.
    Each deplumbing is a product decomposition inducing a bijection of
    surface sets, so the complex equals the base's, a point, whatever the
    number of summands.
    """
    fields = _rule_params(params, ("base_unique", "fibred_summands"))
    if fields["base_unique"] not in ("0", "1"):
        raise InputError("base_unique must be 0 or 1")
    try:
        count = parse_int(fields["fibred_summands"] or "")
    except ValueError:
        raise InputError("fibred_summands must be an integer") from None
    if fields["base_unique"] == "0":
        raise InputError("base must span a unique surface")
    if count < 0:
        raise InputError("summand count cannot be negative")
    return ComplexShape.point().as_complex()


def plumbing_theorem_complex(params: str) -> SimplicialComplex:
    """Complex of a plumbing of two unique-surface, non-fibred pieces.

    ``params`` is the rule text ``A1=..;A1p=..;A2=..;A2p=..``, each flag 0
    or 1 (left out means 0), marking a product disk at that marking.  With
    no product disk, the surface and its dual are the only classes (an
    edge).  With a product disk at A1 only, the dual of the re-plumbed
    surface joins in (a path of three).  Other flag combinations fall
    outside the theorem.
    """
    fields = _rule_params(params, ("A1", "A1p", "A2", "A2p"))
    for key, value in fields.items():
        if value not in (None, "0", "1"):
            raise InputError(f"marking flag {key} must be 0 or 1, got {value!r}")
    disks = [key for key, value in fields.items() if value == "1"]
    if not disks:
        return SimplicialComplex.from_maximal([["[S]", "[S^c]"]])
    if disks == ["A1"]:
        return SimplicialComplex.from_maximal([["[S^c]", "[S]"], ["[S]", "[T^c]"]])
    raise InputError("flag combination outside the plumbing theorem: "
                     f"product disks at {', '.join(disks)}")


def classify_and_compute(rec: KnotRecord,
                         max_bands: int = DEFAULT_MAX_BANDS,
                         max_vertices: int = thetagraph.DEFAULT_MAX_VERTICES) -> SimplicialComplex:
    """Dispatch a record to its algorithm and return its complex.

    Every complex is checked as it is made, by the one assembler,
    :func:`~kakimizu.complexes.assemble`, that
    :meth:`~kakimizu.complexes.SimplicialComplex.from_maximal`,
    :func:`~kakimizu.twobridge.build_complex` and
    :func:`~kakimizu.thetagraph.build_complex` end in.
    """
    if rec.klass == "two_bridge":
        chain = twobridge.BandChain.parse(rec.params, max_bands=max_bands)
        return twobridge.build_complex(chain, max_bands=max_bands)
    if rec.klass == "special_alternating":
        # an absolute path replaces the base directory
        tg = load_theta_file(Path(rec.base_dir or "", rec.params))
        return thetagraph.build_complex(tg, tg.weights(), max_vertices=max_vertices)
    if rec.klass == "fibred":
        return ComplexShape.point().as_complex()
    if rec.klass == "unique_base_plus_fibred":
        return strip_fibred_summands(rec.params)
    if rec.klass == "plumbing_unique_pair":
        return plumbing_theorem_complex(rec.params)
    # table_expected: KnotRecord refuses every other class
    return ComplexShape.parse(rec.params).as_complex()


def read_text(path, what: str) -> str:
    """The text of a UTF-8 file, less a byte-order mark at its start; a file
    that cannot be opened or decoded is an InputError naming `what` it was
    read as."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc


def load_theta_file(path) -> thetagraph.PlanarMultigraph:
    """The theta graph of the Seifert graph in a graph file, whose weights
    must all be 1 (:func:`thetagraph.build_theta`)."""
    return thetagraph.build_theta(
        thetagraph.PlanarMultigraph.from_text(read_text(path, "graph file")))


def load_table(path) -> list:
    """Read a CSV knot table with columns name,class,params,expected."""
    path = Path(path)
    records = []
    names = set()
    # csv splits the rows itself: a quoted field may hold a line break, and
    # str.splitlines() would also split at U+2028, U+0085 and form feeds
    reader = csv.reader(io.StringIO(read_text(path, "table"), newline=""))
    while True:
        try:
            row = next(reader, None)
        except csv.Error as exc:   # a field over csv.field_size_limit(), for one
            raise InputError(f"{path}:{reader.line_num}: {exc}") from exc
        if row is None:
            break
        lineno = reader.line_num
        if not row or (row[0].startswith("#")):
            continue
        if lineno == 1 and [c.strip() for c in row] == ["name", "class", "params", "expected"]:
            continue
        if len(row) != 4:
            raise InputError(f"{path}:{lineno}: expected 4 columns, got {len(row)}")
        name, klass, params, expected = (c.strip() for c in row)
        if name in names:
            raise InputError(f"{path}:{lineno}: duplicate knot name {name!r}")
        names.add(name)
        try:
            shape = ComplexShape.parse(expected) if expected else None
            records.append(KnotRecord(name, klass, params, shape, base_dir=path.parent))
        except InputError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
    return records


def run_batch(records, max_bands: int = DEFAULT_MAX_BANDS,
              max_vertices: int = thetagraph.DEFAULT_MAX_VERTICES) -> list:
    """Compute every record, never aborting the batch on one failure."""
    results = []
    for rec in records:
        began = time.perf_counter()
        try:
            complex_ = classify_and_compute(rec, max_bands=max_bands, max_vertices=max_vertices)
            shape = recognize(complex_)
            matched = shape == rec.expected if rec.expected is not None else None
            results.append(ResultRecord(rec.name, complex_, shape, matched,
                                        time.perf_counter() - began))
        except KakimizuError as exc:
            results.append(ResultRecord(rec.name, None, None, None,
                                        time.perf_counter() - began, error=str(exc)))
    return results


def report_payload(results) -> dict:
    """The canonical report object: stable fields only, sorted by name."""
    rows = []
    for r in sorted(results, key=lambda r: r.name):
        row = {
            "name": r.name,
            "shape": str(r.shape) if r.shape is not None else None,
            "matched_expected": r.matched_expected,
            "error": r.error,
        }
        if r.computed is not None:
            row.update(rendered(r.computed))
        rows.append(row)
    return {
        "results": rows,
        "totals": {
            "records": len(results),
            "errors": sum(1 for r in results if r.error is not None),
            "matched": sum(1 for r in results if r.matched_expected is True),
            "mismatched": sum(1 for r in results if r.matched_expected is False),
        },
    }


def write_report(results, path) -> None:
    """Write the canonical JSON report (no timestamps, no runtimes)."""
    Path(path).write_text(json.dumps(report_payload(results), indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def summary_table(results) -> str:
    """Human-readable batch summary, one line per knot."""
    width = max((len(r.name) for r in results), default=4)
    lines = [f"{'name':<{width}}  {'shape':<22} match  time"]
    for r in sorted(results, key=lambda r: r.name):
        if r.error is not None:
            status, shape = "ERR", r.error
        else:
            shape = str(r.shape)
            status = {True: "yes", False: "NO", None: "-"}[r.matched_expected]
        lines.append(f"{r.name:<{width}}  {shape:<22} {status:<5}  {r.runtime:.3f}s")
    return "\n".join(lines)
