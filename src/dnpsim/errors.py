"""Exception and warning types shared across the package, and the base of
its checked records."""

from collections import namedtuple


def checked_record(typename: str, fields: str) -> type:
    """A ``collections.namedtuple`` base for a record whose subclass checks
    and coerces its fields in ``__new__``. Its ``_make``, and so
    ``_replace``, calls the subclass, so a replaced field is checked too."""
    base = namedtuple(typename, fields)
    base._make = classmethod(lambda cls, values: cls(*values))
    return base


class DnpsimError(Exception):
    """Base class for all package errors."""


class NumericalError(DnpsimError):
    """A computation broke down; every other package error is bad input."""


class NotHermitian(NumericalError):
    """Matrix fails the Hermitian symmetry check."""


class NotUnitary(NumericalError):
    """Matrix fails the unitarity check."""


class NoConvergence(NumericalError):
    """An eigensolve failed to converge, a state drifted, or a limit is not unique."""


class SectorLeak(NumericalError):
    """A map of a parity-conserving pattern has weight between its sectors."""


class DimensionMismatch(NumericalError):
    """Operands have incompatible dimensions."""


class DimensionOverflow(DnpsimError):
    """Joint Hilbert space would exceed the supported size."""


class ParseError(DnpsimError):
    """Config text could not be parsed; message includes a line number."""


class ValidationError(DnpsimError):
    """A field value violates its contract; message names the field."""


class InvalidTau(DnpsimError):
    """Pulse spacing tau is non-positive or too short for the pulses."""


class DegenerateSpins(DnpsimError):
    """Two precession frequencies coincide; the shift formula diverges."""


class ZeroCoupling(UserWarning):
    """Transfer requested for a spin with no coupling and no detuning."""


class ValidityWarning(UserWarning):
    """Inputs are outside the validity regime of an approximation."""
