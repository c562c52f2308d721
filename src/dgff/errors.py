"""Exception hierarchy. Every error carries a stable machine-readable `code`."""


class DGFFError(Exception):
    """Base class; `code` is the name surfaced in CLI JSON diagnostics."""

    default_code = "Error"

    def __init__(self, message: str, code: str | None = None):
        super().__init__(message)
        self.code = code or self.default_code


class GraphError(DGFFError):
    """Invalid graph input (parse or structural validation).

    Codes: BadFormat, DuplicateVertex, UnknownVertex, SelfLoop,
    NonPositiveConductance, ConflictingConductance, Disconnected.
    """

    default_code = "GraphError"


class FoliationError(DGFFError):
    """Invalid layering.

    Codes: NoExterior, EmptyLayer, OverlappingLayers, CoverageViolation,
    LocalityViolation, RootsInExterior, ExteriorUnreachable, IndexOutOfRange.
    """

    default_code = "FoliationError"


class NotSymmetricError(DGFFError):
    default_code = "NotSymmetric"


class NotPositiveDefiniteError(DGFFError):
    default_code = "NotPD"


class ConvergenceError(DGFFError):
    default_code = "NoConvergence"


class SupportViolationError(DGFFError):
    default_code = "SupportViolation"
