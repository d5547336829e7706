"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: workspace/parse problems exit 1,
shape/ring/convention mismatches exit 2, internal invariant violations
exit 3.
"""


class FreeabcatError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(FreeabcatError):
    """Operands have incompatible shapes or refer to different objects."""


class RingMismatch(FreeabcatError):
    """Operands live over different base rings."""


class ConventionMismatch(FreeabcatError):
    """A pair operation was applied under the wrong matrix convention."""


class InvariantViolation(FreeabcatError):
    """Constructor input breaks a structural invariant (e.g. a non-integer
    matrix entry, a morphism that does not commute strictly, or a square
    with b*f != g*a)."""


class InternalInvariantError(FreeabcatError):
    """A solve that is guaranteed to succeed failed; indicates a bug."""


class WorkspaceError(FreeabcatError):
    """Workspace JSON is malformed or a reference does not resolve."""

    def __init__(self, message, location=None):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)
