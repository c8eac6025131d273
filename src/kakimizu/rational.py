"""Exact arithmetic for 2-bridge indices and all-even continued fractions.

A 2-bridge knot is classified by a reduced fraction p/q with 0 < p < q.  When
p and q are both odd, p/q and (p-q)/q name the same knot, and the shifted
fraction has an even numerator.  Any reduced fraction in (-1, 1) with at
least one even entry expands uniquely into a continued fraction

    1 / (e_1 - 1 / (e_2 - ... - 1 / e_n))

whose entries are all even and nonzero.  The expansion drives the band-chain
calculus in :mod:`kakimizu.twobridge`.

Everything here is pure big-integer rational arithmetic; no floats.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import InputError, SizeLimitError, StructureError

_FRACTION_RE = re.compile(r"^(-?[0-9]+)/([0-9]+)$")


def parse_int(text: str) -> int:
    """The integer written `text`: ASCII digits after at most a minus sign.

    Every reader of numbers in the package calls this, or matches ``[0-9]``
    in a regex.  ValueError is raised for anything else that int() would
    read too, such as ``+1``, ``1_0``, surrounding spaces and other
    scripts' digits, and for more digits than int() converts.
    """
    if not (text.isascii() and text.removeprefix("-").isdecimal()):
        raise ValueError(f"not an integer in ASCII digits: {text!r}")
    return int(text)


def parse_fraction(text: str) -> Fraction:
    """Parse the text form ``p/q`` into an exact fraction.

    The input must be reduced: an index like 2/4 is not a valid 2-bridge
    fraction and is rejected rather than silently reduced.
    """
    m = _FRACTION_RE.match(text.strip())
    if not m:
        raise InputError(f"expected a fraction like 'p/q', got {text!r}")
    try:
        num, den = int(m.group(1)), int(m.group(2))
    except ValueError as exc:   # more digits than int() converts
        raise InputError(f"fraction {text.strip()[:40]}... is too long") from exc
    if den == 0:
        raise InputError("zero denominator")
    if math.gcd(abs(num), den) != 1:
        raise InputError(f"fraction {text.strip()} is not reduced")
    return Fraction(num, den)


def format_fraction(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def normalize_two_bridge(f: Fraction) -> Fraction:
    """Shift a raw table index p/q to its even-entry representative.

    Returns p/q unchanged when p or q is even, and (p-q)/q when both are
    odd.  Requires 0 < p < q.
    """
    p, q = f.numerator, f.denominator
    if not 0 < p < q:
        raise InputError(f"2-bridge index must satisfy 0 < p < q, got {format_fraction(f)}")
    if p % 2 == 1 and q % 2 == 1:
        return Fraction(p - q, q)
    return f


def expand_index(f: Fraction, max_entries: int | None = None) -> tuple[int, ...]:
    """Expansion of a 2-bridge index given in either printed form.

    A raw index 0 < p/q < 1 is shifted first when p and q are both odd; a
    fraction in (-1, 0) is taken as already shifted.  See :func:`even_cfe`
    for `max_entries`.
    """
    if 0 < f < 1:
        f = normalize_two_bridge(f)
    return even_cfe(f, max_entries)


def even_cfe(f: Fraction, max_entries: int | None = None) -> tuple[int, ...]:
    """Expand a fraction in (-1,1) into its all-even continued fraction.

    At each step the next entry is the even integer nearest to the
    reciprocal of the current value; the remainder then lies strictly
    inside (-1, 1) and the recursion terminates because denominators
    strictly decrease.  A remainder of magnitude exactly 1 means both
    numerator and denominator were odd, which the precondition excludes.

    With `max_entries` set, SizeLimitError is raised as soon as the
    expansion grows past it: 1/q alone has q - 1 entries when q is odd.
    """
    if not -1 < f < 1 or f == 0:
        raise InputError(f"expansion needs a fraction in (-1,1) excluding 0, got {format_fraction(f)}")
    if f.numerator % 2 == 1 and f.denominator % 2 == 1:
        raise InputError(f"{format_fraction(f)} has numerator and denominator both odd")
    entries: list[int] = []
    x = f
    while x != 0:
        inv = 1 / x
        # nearest even integer: floor(inv/2 + 1/2) * 2
        e = 2 * ((inv.numerator + inv.denominator) // (2 * inv.denominator))
        r = e - inv
        if abs(r) >= 1:
            # only reachable when inv is an odd integer, i.e. both entries odd
            raise InputError(f"{format_fraction(f)} admits no all-even expansion")
        if e % 2 != 0 or e == 0:
            raise StructureError(f"expansion of {format_fraction(f)} produced entry {e}")
        entries.append(int(e))
        if max_entries is not None and len(entries) > max_entries:
            raise SizeLimitError(
                f"expansion has more than {max_entries} bands, limit is {max_entries}")
        x = r
    return tuple(entries)


def evaluate_cfe(entries) -> Fraction:
    """Exact value of the continued-fraction tower over the given entries.

    Computed innermost-out; each suffix evaluates inside (-1,1), so the
    denominator e - acc can never vanish for all-even nonzero entries.
    This is the roundtrip oracle for :func:`even_cfe`.
    """
    entries = tuple(entries)
    if not entries:
        raise InputError("empty continued fraction")
    for e in entries:
        if not isinstance(e, int) or e % 2 != 0 or e == 0:
            raise InputError(f"entries must be even nonzero integers, got {e!r}")
    acc = Fraction(0)
    for e in reversed(entries):
        den = Fraction(e) - acc
        if den == 0:
            raise StructureError("intermediate denominator vanished")
        acc = 1 / den
    return acc


def parse_cfe(text: str) -> tuple[int, ...]:
    """Parse a literal bracket list like ``[-4,-2,-2,-2,-4,-2]``."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise InputError(f"expected a bracket list, got {text!r}")
    body = text[1:-1].strip()
    if not body:
        raise InputError("empty bracket list")
    try:
        entries = tuple(parse_int(tok.strip()) for tok in body.split(","))
    except ValueError as exc:
        raise InputError(f"bad bracket list {text!r}") from exc
    for e in entries:
        if e % 2 != 0 or e == 0:
            raise InputError(f"entries must be even and nonzero, got {e}")
    return entries
