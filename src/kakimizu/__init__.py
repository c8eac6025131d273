"""Kakimizu complexes of prime alternating knots from combinatorial input.

The toolkit computes the simplicial complex of minimal genus Seifert
surfaces for the knot classes whose complexes have combinatorial
descriptions: 2-bridge knots (band chains from all-even continued
fractions), special alternating knots (theta-graph region moves), fibred
knots, and plumbings covered by classification rules.  The Python API is
the submodules: ``complexes``, ``twobridge``, ``thetagraph``, ``fibred``,
``rational``, ``pipeline`` and ``errors``.
"""

__version__ = "0.1.0"
