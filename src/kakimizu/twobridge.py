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
spans a maximal simplex; the passes read each tuple's orbit from one dict.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product

from . import rational
from .complexes import SimplicialComplex, pass_complex
from .errors import InputError, SizeLimitError

SurfaceTuple = tuple  # of 0/1 ints, one per plumbing disk

# the slowest ladder at 9 bands, (-4)^9, builds in 0.8 to 1.0 s, and one
# more band multiplies a ladder's time by 3 to 8: (-4)^10 took 6.4 to 9.0 s
# and 151 MB, and (-2)^10, the chain of T(2, 11), 0.6 to 0.9 s, nearly all
# of it in the passes (``perfbench/rungs.py`` and single builds, three to
# seven runs each, Python 3.11 on one core of a shared VM)
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
    - :func:`~kakimizu.complexes.full_passes` keeps a set only from its
      cycle's least state, so the skipped walks would keep no set.
    """
    if chain.n > max_bands:
        raise SizeLimitError(f"chain has {chain.n} bands, limit is {max_bands}")
    orbits = hopf_orbits(chain)
    index = {t: i for i, members in enumerate(orbits.values()) for t in members}
    starts = [t for t in index if not any(t[:2])]
    return pass_complex(starts, range(1, chain.n + 1), partial(apply_band, chain),
                        index.__getitem__, list(orbits))
