"""The band-chain calculus for minimal genus Seifert surfaces of 2-bridge knots.

A 2-bridge knot with all-even continued fraction [e_1, ..., e_n] spans
surfaces built from n twisted bands B_{e_1}, ..., B_{e_n} plumbed in a row
along n-1 disks.  Each plumbing disk is either inner (0) or outer (1), so a
surface is a 0/1 tuple of length n-1.  A band with |e| = 2 is a Hopf band;
moves at Hopf bands identify tuples that name isotopic surfaces, and the
identification classes, which :func:`hopf_orbits` maps from their least
tuples to their member sets, are the vertices of the Kakimizu complex.

Applying a component band B_k flips the plumbing bits of the disks next to
it; an interior band applies only when its two flanking bits agree.  The
one band move, :func:`apply_band`, returns the next surface or None where
the band does not apply, which is the step both the Hopf orbits and the
full passes take.  A full pass that applies every band exactly once
returns to the starting surface, and the set of orbits such a pass visits
spans a maximal simplex; the passes read each tuple's orbit from one dict
and hand the visited orbit sets, as index masks, to
:func:`kakimizu.complexes.assemble`.
A chain with at most one non-Hopf band has a single orbit, so its complex
is a point, which :func:`build_complex` returns without orbits or passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import complexes, rational
from .complexes import SimplicialComplex
from .errors import InputError, SizeLimitError, StructureError

SurfaceTuple = tuple  # of 0/1 ints, one per plumbing disk

# the slowest ladder at 9 bands, (-4)^9, builds in 0.8 to 1.0 s, and one
# more band multiplies a ladder's time by 3 to 8: (-4)^10 took 6.4 to 9.0 s
# and 151 MB; (-2)^10, the chain of T(2, 11), is a point built without
# passes in 30 to 60 us with max_bands=10 (``perfbench/rungs.py`` and
# single builds, three to seven runs each, Python 3.11 on one core of a
# shared VM)
DEFAULT_MAX_BANDS = 9


@dataclass(frozen=True)
class BandChain:
    """A row of evenly twisted bands, plumbed along n-1 disks."""

    bands: tuple

    def __post_init__(self) -> None:
        if not self.bands:
            raise InputError("a band chain needs at least one band")
        for e in self.bands:
            if not isinstance(e, int) or e % 2 != 0 or abs(e) < 2:
                raise InputError(f"bands must be even with at least one full twist, got {e!r}")

    @property
    def n(self) -> int:
        return len(self.bands)

    @property
    def disks(self) -> int:
        return len(self.bands) - 1

    @classmethod
    def parse(cls, text: str, max_bands: int | None = None) -> "BandChain":
        """Accept either a fraction ``p/q`` or a band list ``[e1,e2,...]``.

        A fraction is a 2-bridge index, raw (shifted first) or already
        shifted, and :func:`rational.expand_index` refuses an expansion
        longer than `max_bands` before it is finished; a band list is
        checked by the build.
        """
        text = text.strip()
        if text.startswith("["):
            return cls(rational.parse_cfe(text))
        return cls(rational.expand_index(rational.parse_fraction(text), max_bands))


def flanking_disks(chain: BandChain, k: int) -> tuple:
    """The 1-indexed plumbing disks next to band k (one or two of them).

    Band k sits between disks k-1 and k; the first and last bands touch a
    single disk, and a one-band chain touches none.
    """
    if not 1 <= k <= chain.n:
        raise InputError(f"band index {k} out of range 1..{chain.n}")
    return tuple(d for d in (k - 1, k) if 1 <= d <= chain.disks)


def _check_tuple(chain: BandChain, t) -> SurfaceTuple:
    t = tuple(t)
    if len(t) != chain.disks or any(b not in (0, 1) for b in t):
        raise InputError(f"surface tuple must be {chain.disks} bits, got {t!r}")
    return t


def apply_band(chain: BandChain, t, k: int) -> SurfaceTuple | None:
    """The surface after band k, or None where band k does not apply.

    Applying band k flips the plumbing bit of every disk flanking it.  End
    bands apply at any time; an interior band applies only when its two
    flanking disks carry equal bits.
    """
    t = _check_tuple(chain, t)
    disks = flanking_disks(chain, k)
    if len(disks) == 2 and t[disks[0] - 1] != t[disks[1] - 1]:
        return None
    bits = list(t)
    for d in disks:
        bits[d - 1] ^= 1
    return tuple(bits)


def hopf_orbits(chain: BandChain) -> dict:
    """The isotopy orbits of the surface tuples: each orbit's label, its
    least member, mapped to its member set, in label order.

    Only moves at Hopf bands (|e| = 2) identify surfaces; an interior Hopf
    move applies only where its flanking bits are equal, and
    :func:`apply_band` returns None where it does not.  A Hopf move undoes
    itself, so an orbit is the set a search of Hopf moves reaches from any
    member.  The search starts from each tuple not yet met, in lexicographic
    order, so each start is its orbit's least member.
    """
    hopf = [k for k, e in enumerate(chain.bands, 1) if abs(e) == 2]
    seen: set = set()
    orbits = {}
    for label in product((0, 1), repeat=chain.disks):
        if label in seen:
            continue
        members, stack = {label}, [label]
        while stack:
            t = stack.pop()
            for k in hopf:
                u = apply_band(chain, t, k)
                if u is not None and u not in members:
                    members.add(u)
                    stack.append(u)
        seen |= members
        orbits[label] = members
    return orbits


def build_complex(chain: BandChain, max_bands: int = DEFAULT_MAX_BANDS) -> SimplicialComplex:
    """The Kakimizu complex of the chain.

    Vertices are the Hopf orbits, labelled by their least member; maximal
    simplices are the inclusion-maximal visited-orbit sets over all starting
    surfaces and all fully applicable orderings.  The passes step on surface
    tuples with :func:`apply_band` and label each tuple by the number of its
    orbit, which one index of every tuple to orbit number holds.

    The passes start only from the tuples whose first two bits are 0, a
    quarter of them; the rest keep nothing:

    - band 1 flanks disk 1 alone and always applies, so every pass cycle
      holds two neighbouring states that differ only in bit 1, one of them
      with bit 1 equal to 0;
    - with n >= 3, band 2 applies only where bits 1 and 2 are equal, and it
      flips both, so the cycle holds a state with prefix 00, and the cycle's
      least state has prefix 00;
    - with n = 2 (one disk), the first point puts (0,) on every cycle, and
      with n = 1 (no disk), () is the only state; the same rule picks these
      single starts;
    - :func:`_full_passes` keeps a set only from its cycle's least
      state, so the skipped walks would keep no set.

    A chain with at most one non-Hopf band is a point, built without orbits
    or passes; its one vertex is the all-zero tuple, the least member of
    the one orbit.  Let band j be the non-Hopf one, or any band if there is
    none.  By induction on m, Hopf bands 1..m reach every pattern of disks
    1..m: band 1 flips disk 1 alone, and with disks 1..m-1 free, setting
    disk m-1 equal to disk m lets band m flip both.  Band n flips disk n-1
    alone, so bands j+1..n reach every pattern of disks j..n-1 from the
    right in the same way.  These two sets of moves touch disjoint disks,
    so every tuple lies in one orbit, every pass visits only that orbit,
    and the complex is a point.  The band cap is checked first, so a chain
    over it is refused all the same.
    """
    if chain.n > max_bands:
        raise SizeLimitError(f"chain has {chain.n} bands, limit is {max_bands}")
    if sum(abs(e) != 2 for e in chain.bands) <= 1:
        return SimplicialComplex.from_maximal([[(0,) * chain.disks]])
    orbits = hopf_orbits(chain)
    index = {t: i for i, members in enumerate(orbits.values()) for t in members}
    return complexes.assemble((mask for t in index if not any(t[:2])
                               for mask in _full_passes(chain, t, index)), list(orbits))


def _full_passes(chain: BandChain, start, index: dict) -> set:
    """Index masks of the sets visited by the full passes of the bands of
    `chain` from the surface tuple `start` that visit no tuple below it:
    `index` maps each tuple to its orbit's number, and a visited set is the
    int with bit ``index[t]`` for each tuple t it holds.

    A full pass applies every band once, each applicable when its turn
    comes (:func:`apply_band`).  A band flips the bits of its flanking
    disks, so the tuple after a set M of bands is ``start XOR flank(M)``
    whatever the order; only applicability depends on it.
    The walk therefore runs over the 2^n subsets of bands, not the n!
    orderings.  Layer k maps each mask of k bands that an applicable
    ordering reaches to its tuple, and each such mask whose tuple is not
    below `start` to the visited sets of those orderings.  A layer first
    steps every kept mask by each band it lacks, taken from precomputed
    ``(bit, band)`` pairs, recording each reached mask's tuple and the
    visited sets of the masks that reach it; then each reached mask at or
    above `start` gets its visited sets in one comprehension, which joins
    its tuple's bit into every set that reaches it.  StructureError is
    raised when two orderings reach one mask in different tuples, or when
    the full mask does not return to `start`.  A mask whose tuple is below
    `start` is kept for the order check only, and not stepped.

    A full pass is a cycle of tuples.  Rotating its band order gives a full
    pass from every tuple on the cycle (each band meets the tuple it met
    before), and every rotation visits the same set.  The rotation from the
    least tuple visits nothing below its start, so the walk from there
    keeps it, order checks included: the union over all starts is unchanged.
    """
    steps = [(1 << k - 1, k) for k in range(1, chain.n + 1)]
    tuple_of = {0: start}
    sets_of = {0: {1 << index[start]}}
    for _ in steps:
        reached: dict = {}
        joined: dict = {}   # a reached mask -> the visited sets reaching it
        for mask, seen in sets_of.items():
            t = tuple_of[mask]
            for bit, k in steps:
                if mask & bit:
                    continue
                after = apply_band(chain, t, k)
                if after is None:
                    continue
                target = mask | bit
                if reached.setdefault(target, after) != after:
                    raise StructureError("the surface after a set of bands depends on their order")
                joined.setdefault(target, []).append(seen)
        tuple_of, sets_of = reached, {}
        for target, parts in joined.items():
            after = reached[target]
            if not after < start:
                here = 1 << index[after]
                sets_of[target] = {v | here for seen in parts for v in seen}
    full = (1 << len(steps)) - 1
    if tuple_of.get(full, start) != start:
        raise StructureError("a full pass must return to its start")
    return sets_of.get(full, set())
