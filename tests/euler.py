"""Euler characteristic of a simplicial complex, counted from its maximal simplices.

Kakimizu complexes are contractible (Przytycki-Schultens, Contractibility of
the Kakimizu complex, Trans. AMS 2012), so every complex the builders return
must have Euler characteristic 1.  The count lists every face once: each
non-empty subset of some maximal simplex.
"""

from itertools import combinations


def face_counts(c) -> list:
    """Number of faces of each dimension 0, 1, 2, ..."""
    faces = set()
    for s in c.simplices:
        for k in range(1, len(s) + 1):
            faces.update(frozenset(f) for f in combinations(s, k))
    counts = [0] * max(len(s) for s in c.simplices)
    for f in faces:
        counts[len(f) - 1] += 1
    return counts


def euler_characteristic(c) -> int:
    return sum((-1) ** d * n for d, n in enumerate(face_counts(c)))
