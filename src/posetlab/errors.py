"""Exception types shared across the package."""


class PosetlabError(Exception):
    """Base class for all errors raised by posetlab."""


class CycleError(PosetlabError):
    """The given cover pairs do not define a partial order."""


class DuplicateLabel(PosetlabError):
    """Poset element labels must be unique."""


class InvalidParam(PosetlabError):
    """A parameter is outside its documented range."""


class OddN(InvalidParam):
    """The two-pinned-points construction needs an even ground set."""


class _LineError(PosetlabError):
    """An input error that may name its 1-based line: the message then
    starts with "line N: "."""

    def __init__(self, message, lineno=None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


class ParseError(_LineError):
    """Malformed family file; carries the offending 1-based line number."""


class ElementOutOfRange(_LineError):
    """A set element (or bitmask) lies outside the ground set [n]."""


class NotGraded(PosetlabError):
    """Rank-preserving mode needs a graded poset."""


class InvalidColoring(PosetlabError):
    """Colorings must cover every element and keep each color class an antichain."""


class AlreadyMember(PosetlabError):
    """The probed set is already a member of the family."""


class EmbedFailed(PosetlabError):
    """Greedy tree embedding got stuck; carries the stuck poset element."""

    def __init__(self, stuck):
        super().__init__(f"no free neighbour for poset element {stuck!r}")
        self.stuck = stuck


class NotFree(PosetlabError):
    """Saturation check requires the input family to be free; carries a witness."""

    def __init__(self, witness):
        super().__init__("family already contains a forbidden copy")
        self.witness = witness


class TooLargeForEnumeration(PosetlabError):
    """Full-chain enumeration is capped at n = 8 (n! chains)."""
