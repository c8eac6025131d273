"""Command line interface.

Subcommands mirror the toolkit's entry points::

    kakimizu expand 28/61
    kakimizu two-bridge 28/61 --json
    kakimizu two-bridge '[-4,-2,-2,-2,-4,-2]' --dot
    kakimizu theta graph.txt --json
    kakimizu fibred --graph graph.txt
    kakimizu batch knots11.csv --out report.json

Exit codes: 0 success, 1 any mismatch against an expected complex,
2 malformed input.
"""

from __future__ import annotations

import argparse
import sys

from . import fibred, pipeline, rational, thetagraph, twobridge
from .complexes import recognize, to_dot, to_json
from .errors import KakimizuError, StructureError

# the expansion of 1/q has q - 1 entries: `kakimizu expand` printed 10^4 /
# 10^5 / 3*10^5 / 10^6 of them in 0.26 / 1.1 / 2.9 / 9.5 s (Python 3.11 on
# one core of a shared VM), so a longer expansion is refused
MAX_EXPAND_ENTRIES = 100_000


def _cap(text: str) -> int:
    # a cap below 1 is a usage error: a chain has at least one band, and a
    # theta search at least one surface
    try:
        value = rational.parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kakimizu",
        description="Kakimizu complexes of prime alternating knots from combinatorial input")
    parser.add_argument("--max-bands", type=_cap, default=twobridge.DEFAULT_MAX_BANDS,
                        help="largest band chain accepted (default %(default)s)")
    parser.add_argument("--max-vertices", type=_cap, default=thetagraph.DEFAULT_MAX_VERTICES,
                        help="cap on reachable surfaces in the theta search (default %(default)s)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="all-even continued fraction of a 2-bridge index")
    p.add_argument("fraction")

    # each builds the record a table row of its knot class would hold
    p = sub.add_parser("two-bridge", help="Kakimizu complex of a 2-bridge knot")
    p.add_argument("params", metavar="chain", help="fraction p/q or literal band list [e1,e2,...]")
    p.set_defaults(klass="two_bridge")
    _output_flags(p)

    p = sub.add_parser("theta", help="Kakimizu complex of a special alternating knot")
    p.add_argument("params", metavar="file", help="Seifert graph file")
    p.set_defaults(klass="special_alternating")
    _output_flags(p)

    p = sub.add_parser("fibred", help="fibredness of a special alternating piece")
    p.add_argument("--graph", required=True, help="file with a literal v=<n>; edges=(a,b)...")
    p.add_argument("--certificate", action="store_true", help="print the reduction moves")

    p = sub.add_parser("batch", help="run a knot table and write a report")
    p.add_argument("table", help="CSV with columns name,class,params,expected")
    p.add_argument("--out", help="write the canonical JSON report here")
    return parser


def _output_flags(p: argparse.ArgumentParser) -> None:
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--dot", action="store_true", help="emit DOT")
    fmt.add_argument("--json", action="store_true", help="emit canonical JSON")


def _emit_complex(args, complex_) -> None:
    if args.dot:
        sys.stdout.write(to_dot(complex_))
    elif args.json:
        sys.stdout.write(to_json(complex_))
    else:
        shape = recognize(complex_)
        print(f"{shape}; {len(complex_.vertices)} vertices, "
              f"{len(complex_.simplices)} maximal simplices")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "expand":
            cfe = rational.expand_index(rational.parse_fraction(args.fraction), MAX_EXPAND_ENTRIES)
            print("[" + ",".join(str(e) for e in cfe) + "]")
        elif args.command in ("two-bridge", "theta"):
            rec = pipeline.KnotRecord(args.params, args.klass, args.params)
            _emit_complex(args, pipeline.classify_and_compute(
                rec, max_bands=args.max_bands, max_vertices=args.max_vertices))
        elif args.command == "fibred":
            g = fibred.ReductionGraph.from_text(pipeline.read_text(args.graph, "graph file"))
            certificate = fibred.reduction_certificate(g)
            if certificate is not None and not fibred.replay_certificate(g, certificate):
                raise StructureError("the reduction certificate does not reduce the graph")
            print("fibred" if certificate is not None else "not fibred")
            if args.certificate and certificate is not None:
                for kind, edge in certificate:
                    print(f"  {kind} {edge}")
        elif args.command == "batch":
            records = pipeline.load_table(args.table)
            results = pipeline.run_batch(records, max_bands=args.max_bands,
                                         max_vertices=args.max_vertices)
            print(pipeline.summary_table(results))
            if args.out:
                pipeline.write_report(results, args.out)
            bad = any(r.matched_expected is False or r.error is not None for r in results)
            return 1 if bad else 0
    except (KakimizuError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
