"""Exception types shared across the package, and clip() for their messages."""


def clip(value: int | str) -> str:
    """An int's digits or a string's repr for an error message, cut after 60
    characters with the full length named, so stderr stays short."""
    text = str(value)
    show = repr if isinstance(value, str) else str
    return show(text) if len(text) <= 60 else f"{show(text[:60])}... ({len(text)} characters)"


class CapacityError(Exception):
    """An input exceeds a hard size guard (quadratic-memory or search blowup)."""


class SearchBudgetExceeded(Exception):
    """A solver ran out of its node or time budget before reaching a verdict.

    Carries whatever partial knowledge the search had accumulated so callers
    can report best-known bounds instead of silently discarding work.
    """

    def __init__(self, message: str, *, nodes: int = 0,
                 lower_bound: int | None = None, upper_bound: int | None = None):
        super().__init__(message)
        self.nodes = nodes
        self.lower_bound = lower_bound
        self.upper_bound = upper_bound
