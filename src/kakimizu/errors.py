"""Exception hierarchy shared by all kakimizu modules."""


class KakimizuError(Exception):
    """Base class for every error raised by this package."""


class InputError(KakimizuError):
    """Malformed or out-of-contract input (bad fraction, bad file, bad record)."""


class StructureError(KakimizuError):
    """A structural invariant fails (non-spherical embedding, empty theta graph)."""


class SizeLimitError(KakimizuError):
    """A configurable size bound was exceeded."""
