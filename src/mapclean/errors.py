import numbers


class MapCleanError(Exception):
    """Base class for all mapclean errors."""


class ParseError(MapCleanError):
    """A file exists but its content is malformed or truncated."""


class ContractError(MapCleanError):
    """Inputs violate an API precondition (mismatched lengths, bad schema, ...)."""


def is_integer(value) -> bool:
    """An int (numpy ints too); bools, such as YAML's true/false, do not count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_number(value) -> bool:
    """An int or float (numpy ones too); bools and strings do not count."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)
