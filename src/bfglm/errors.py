"""Exception hierarchy shared across the package."""


class BfglmError(Exception):
    pass


class ShapeError(BfglmError):
    pass


class InvalidInput(BfglmError):
    pass


class InvariantViolation(InvalidInput):
    """Broken parametrization invariants; an internal fault on solver output."""


class DivisionByZero(BfglmError, ZeroDivisionError):
    pass


class NotInvertible(BfglmError):
    """Modular inverse failed."""


class NotCoprime(BfglmError):
    pass


class InsufficientTerms(BfglmError):
    pass


class GenericityFailure(BfglmError):
    """Unlucky random blocking data; solvers retry with fresh randomness."""


class NonSeparating(BfglmError):
    """The chosen linear form does not separate the points."""


class UnluckyRandomness(BfglmError):
    """All retries exhausted."""


class FormatError(BfglmError):
    def __init__(self, msg, line=None):
        if line is not None:
            msg = f"line {line}: {msg}"
        super().__init__(msg)
        self.line = line


class InvalidSpec(BfglmError):
    pass
