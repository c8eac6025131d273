"""Every 2-bridge knot with c crossings, the census oracle of the 2-bridge builder.

The 2-bridge knot S(p, q) has an odd determinant p and 0 < q < p with
gcd(p, q) = 1.  S(p, q) and S(p, q') are the same knot, or mirror images,
exactly when q' is one of q, q^-1, -q and -q^-1 mod p (Schubert, "Knoten
mit zwei Brücken", Math. Z. 1956).  The regular continued fraction
[a_0; a_1, ..., a_m] of p/q, all entries positive, gives a reduced
alternating diagram with a_0 + ... + a_m crossings, and a reduced
alternating diagram has the fewest crossings of its knot (Kauffman,
Murasugi, Thistlethwaite 1987); so that sum is the crossing number.  The
entries of p/q sum to at least the m + 1 ones of a ratio of Fibonacci
numbers, so a knot with c crossings has p <= F(c + 1).

:func:`check` lists the knots with c crossings, one fraction list per knot,
and builds the complex of every fraction of every knot.  The fractions of a
knot name the same surfaces, so their complexes must be isomorphic; each is
contractible (Przytycki-Schultens), so its Euler characteristic is 1; and
a chain with at most one non-Hopf band, which the build returns as a point
without a search, has a single Hopf orbit, counted by
:func:`~kakimizu.twobridge.hopf_orbits`.  Run it from the repository root
as::

    PYTHONPATH=src:tests python -c "import census; print(len(census.check(11, max_bands=10)))"
"""

from fractions import Fraction
from math import gcd

from kakimizu.rational import expand_index
from kakimizu.twobridge import DEFAULT_MAX_BANDS, BandChain, build_complex, hopf_orbits

from euler import euler_characteristic
from isomorphism import isomorphic


def crossings(p: int, q: int) -> int:
    """The sum of the entries of the regular continued fraction of p/q."""
    total = 0
    while q:
        a, r = divmod(p, q)
        total += a
        p, q = q, r
    return total


def knots(c: int) -> list:
    """One sorted list of the numerators q of fractions q/p per 2-bridge knot
    with c crossings, with its p: the pairs (p, [q, ...]) sorted by p and
    then by least q."""
    fib = [1, 1]
    while len(fib) <= c:
        fib.append(fib[-1] + fib[-2])
    found = []
    for p in range(3, fib[c] + 1, 2):
        seen = set()
        for q in range(1, p):
            if q in seen or gcd(p, q) != 1 or crossings(p, q) != c:
                continue
            inverse = pow(q, -1, p)
            cls = sorted({q, inverse, p - q, p - inverse})
            assert all(crossings(p, x) == c for x in cls), (p, cls)
            seen.update(cls)
            found.append((p, cls))
    return found


def check(c: int, max_bands: int = DEFAULT_MAX_BANDS) -> list:
    """The knots of :func:`knots`, each checked: the complexes of all its
    fractions are isomorphic and have Euler characteristic 1, and a chain
    with at most one non-Hopf band has one Hopf orbit.  A chain over
    `max_bands` bands raises SizeLimitError."""
    found = knots(c)
    for p, qs in found:
        first = None
        for q in qs:
            chain = BandChain(expand_index(Fraction(q, p), max_bands))
            complex_ = build_complex(chain, max_bands=max_bands)
            name = f"{q}/{p}, chain {chain.bands}"
            assert euler_characteristic(complex_) == 1, name
            if sum(abs(e) != 2 for e in chain.bands) <= 1:
                assert len(hopf_orbits(chain)) == 1, name
            if first is None:
                first = complex_
            else:
                assert isomorphic(first, complex_), name
    return found
