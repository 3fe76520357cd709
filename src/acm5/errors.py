"""Exception hierarchy shared across the library."""


class ACM5Error(Exception):
    """Base class for all library errors."""


class ModeMismatchError(ACM5Error):
    """Exact and float scalars were mixed in one computation."""


class UnsupportedSymbolError(ACM5Error):
    """An operation restricted to the metric coframe met an auxiliary symbol."""


class MissingDerivationError(ACM5Error):
    """A trig coefficient was differentiated without derivative rules."""


class ExtensionOverflowError(ACM5Error):
    """A computation left the supported scalar tower (e.g. division by a trig scalar)."""


class SymbolicResidueError(ACM5Error):
    """Auxiliary-symbol contributions failed to cancel in a result that must be numeric."""


class IntegrabilityError(ACM5Error):
    """The requested structure constants violate the integrability constraint."""


class NotGeneralizedQuasiSasakiError(ACM5Error):
    """The compatible connection exists only on generalized quasi-Sasaki structures."""


class RankError(ACM5Error):
    """A set of forms expected to be linearly independent is degenerate."""


class DegenerateInputError(ACM5Error):
    """All structure parameters vanish."""


class SchemaError(ACM5Error):
    """A coframe document violates the file schema."""
