"""Exception types shared across the engine."""

from __future__ import annotations


class EngineError(Exception):
    """Base class for every error raised by this package."""


class CyclicModel(EngineError):
    """The structural equations contain a dependency cycle."""

    def __init__(self, cycle):
        self.cycle = list(cycle)
        loop = " -> ".join(self.cycle + self.cycle[:1])
        super().__init__(f"equations are not recursive, cycle: {loop}")


class UnknownVariable(EngineError):
    def __init__(self, name, detail=""):
        self.name = name
        msg = f"unknown variable {name!r}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class ValueOutOfRange(EngineError):
    """A value outside its variable's range.  `assignment` is None for a
    value given from outside; for an equation that can leave its range,
    found when the model's runtime is built, it maps the equation's parents
    to the values at which the equation gives `value`."""

    def __init__(self, variable, value, assignment=None):
        self.variable = variable
        self.value = value
        self.assignment = assignment
        msg = f"value {value!r} is not in the range of {variable!r}"
        if assignment is not None:
            where = ", ".join(f"{n}={v}" for n, v in assignment.items())
            msg += f", given by its equation at {where}" if where else ", given by its equation"
        super().__init__(msg)


class DuplicateDefinition(EngineError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"duplicate definition of {name!r}")


class SignatureMismatch(EngineError):
    """The two models being compared do not have compatible signatures."""


class MalformedPhi(EngineError):
    """The event formula of a causality query contains an intervention."""


class MissingNormalityOrder(EngineError):
    """An extended-variant check was run on a model without a normality order."""


class SearchBudgetExceeded(EngineError):
    """The witness search hit its solve-call cap before the answer was known."""

    def __init__(self, limit):
        self.limit = limit
        super().__init__(f"witness search exceeded the budget of {limit} solve calls")


class NotAWitness(EngineError):
    """The tuple handed to the model surgery is not a valid witness."""


class WitnessEqualsActual(EngineError):
    """The witness contingency values coincide with the actual values."""


class PreconditionViolated(EngineError):
    """An operation was invoked outside its stated precondition."""


class NoWitness(EngineError):
    """Witness grading was requested for a query that has no witness at all."""


class ParseError(EngineError):
    def __init__(self, line, column, message):
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"{line}:{column}: {message}")


def _check_count(value, least: int, message: str) -> None:
    """Refuse a bool, a non-int or an int below `least`: `EngineError(message.format(value))`."""
    if type(value) is not int or value < least:
        raise EngineError(message.format(value))
