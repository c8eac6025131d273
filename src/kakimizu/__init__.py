"""Kakimizu complexes of prime alternating knots from combinatorial input.

The toolkit computes the simplicial complex of minimal genus Seifert
surfaces for the knot classes whose complexes have combinatorial
descriptions: 2-bridge knots (band chains from all-even continued
fractions), special alternating knots (theta-graph region moves), fibred
knots, and plumbings covered by classification rules.
"""

from .complexes import (ComplexShape, SimplicialComplex, flag_closure, is_connected,
                        is_flag, isomorphic, recognize, to_dot, to_json)
from .errors import (InputError, KakimizuError, MoveError, SizeLimitError,
                     StructureError)
from .fibred import (ReductionGraph, is_fibred_homogeneous, is_fibred_special,
                     reduction_certificate, replay_certificate)
from .pipeline import (KnotRecord, MarkingFlags, ResultRecord, classify_and_compute,
                       load_table, plumbing_theorem_complex, run_batch,
                       strip_fibred_summands, write_report)
from .rational import (evaluate_cfe, even_cfe, expand_index, format_fraction,
                       normalize_two_bridge, parse_fraction)
from .thetagraph import (PlanarMultigraph, Region, ThetaGraph, add_zero_edges,
                         build_theta, reduce_bigons, region_signatures, theta_subgraph)
from .twobridge import (BandChain, IsotopyOrbit, apply_band, hopf_orbits, is_applicable,
                        maximal_cycles)

__version__ = "0.1.0"

__all__ = [
    "BandChain", "ComplexShape", "InputError", "IsotopyOrbit", "KakimizuError",
    "KnotRecord", "MarkingFlags", "MoveError", "PlanarMultigraph", "Region",
    "ReductionGraph", "ResultRecord", "SimplicialComplex", "SizeLimitError",
    "StructureError", "ThetaGraph", "add_zero_edges", "apply_band",
    "build_theta", "classify_and_compute", "evaluate_cfe",
    "even_cfe", "expand_index", "flag_closure", "format_fraction", "hopf_orbits",
    "is_applicable",
    "is_connected", "is_fibred_homogeneous", "is_fibred_special", "is_flag",
    "isomorphic", "load_table", "maximal_cycles", "normalize_two_bridge",
    "parse_fraction", "plumbing_theorem_complex", "recognize", "reduce_bigons",
    "reduction_certificate", "region_signatures", "replay_certificate", "run_batch",
    "strip_fibred_summands", "theta_subgraph", "to_dot", "to_json", "write_report",
]
