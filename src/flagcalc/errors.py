"""Exception types shared across the package, and the quoting of input in their messages."""

# The longest echo of an input, quotes included, that an error message prints whole.
QUOTE_LIMIT = 100


class DomainError(ValueError):
    """An input is outside the mathematical domain of an operation."""


class ParseError(DomainError):
    """A diagram, mark-set, or tag string does not match the grammar."""


def quote(value) -> str:
    """``repr(value)`` for an error message, with its middle cut to ``...`` when longer than ``QUOTE_LIMIT``.

    An over-long input then keeps its one ``error:`` line short; any other
    is echoed exactly as ``{value!r}`` echoes it.
    """
    text = repr(value)
    if len(text) <= QUOTE_LIMIT:
        return text
    keep = (QUOTE_LIMIT - 3) // 2
    return f"{text[:keep]}...{text[-keep:]}"
