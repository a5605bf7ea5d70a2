"""Exception types shared across the package, and the quoting of input in their messages."""

# The longest echo of an input, quotes included, that an error message prints whole.
QUOTE_LIMIT = 100


class DomainError(ValueError):
    """An input is outside the mathematical domain of an operation."""


class ParseError(DomainError):
    """A diagram, mark-set, or tag string does not match the grammar."""


def quote(value, show=repr) -> str:
    """``show(value)`` for an error message, with its middle cut to ``...`` when longer than ``QUOTE_LIMIT``.

    An over-long input then keeps its one ``error:`` line short; any other
    is echoed exactly as ``{value!r}``, or ``show`` when given, echoes it.
    An integer past Python's int-to-str digit limit cannot be shown: ``show``
    raises ``ValueError``, and a short stand-in naming the type is echoed.
    """
    try:
        text = show(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"
    if len(text) <= QUOTE_LIMIT:
        return text
    keep = (QUOTE_LIMIT - 3) // 2
    return f"{text[:keep]}...{text[-keep:]}"
