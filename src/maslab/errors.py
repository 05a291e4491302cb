"""Exception hierarchy shared across the toolkit.

Configuration problems (bad ids, out-of-range parameters) are kept apart
from numerical failures so the CLI can map them to distinct exit codes.
"""


class MaslabError(Exception):
    """Base class for all package errors."""


class ConfigurationError(MaslabError):
    """Unknown catalog id, invalid parameter range, malformed config."""


class GeometryError(MaslabError):
    """Degenerate geometry input (rank-deficient point set, unbounded section)."""


class KernelClassError(MaslabError):
    """A kernel rule left the admissible sandwich at a sampled node."""


class BarrierError(MaslabError):
    """Barrier construction or verification failed."""


class RefinementNeededError(MaslabError):
    """The lattice is too coarse for the requested measure-based operation."""


class DataError(MaslabError):
    """Non-finite or out-of-contract numerical data."""
