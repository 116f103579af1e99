"""Exception types shared across the library, the one refusal check, and
the meter that searches charge their work to."""


class GuesslabError(Exception):
    """Base class for every error raised by guesslab."""


class VertexRangeError(GuesslabError, IndexError):
    """A vertex label falls outside 0..n-1."""


class NotAcyclicError(GuesslabError, ValueError):
    """An operation required an acyclic vertex set and got a cyclic one."""


class PreconditionError(GuesslabError, ValueError):
    """An operation's documented precondition does not hold."""


class ResourceBoundError(GuesslabError):
    """Exact search would exceed its size bound: it needs `needed` against
    `cap`, which the module constant named by `knob` sets."""

    def __init__(self, message, needed=None, cap=None, knob=None):
        super().__init__(message)
        self.needed, self.cap, self.knob = needed, cap, knob


def check_bound(what, needed, bound, knob):
    """Refuse, before any work, a search of size needed over bound (None: unbounded)."""
    if bound is not None and needed > bound:
        # Python prints no int of more than 4300 digits
        shown = needed if needed < 1 << 64 else f"at least 2**{needed.bit_length() - 1}"
        raise ResourceBoundError(
            f"{what}: needs {shown}, over the cap {bound} set by {knob}", needed, bound, knob
        )


def meter(what, bound, knob):
    """charge(units) for one search, made when it is called: refuses
    through check_bound once the units charged pass bound."""
    spent = 0

    def charge(units):
        nonlocal spent
        spent += units
        if spent > bound:
            check_bound(what, spent, bound, knob)

    return charge


class ParseError(GuesslabError, ValueError):
    """Malformed serialized input, with best-effort position info."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            where = f"line {line}" + (f", column {column}" if column is not None else "")
            message = f"{message} ({where})"
        super().__init__(message)
