"""The package's own exception type, and clip() for error messages."""


def clip(value: int | str) -> str:
    """An int's digits or a string's repr for an error message, cut after 60
    characters with the full length named, so stderr stays short."""
    text = str(value)
    show = repr if isinstance(value, str) else str
    return show(text) if len(text) <= 60 else f"{show(text[:60])}... ({len(text)} characters)"


class SearchBudgetExceeded(Exception):
    """A solver ran out of its time budget before reaching a verdict.

    nodes is the number of search nodes it had ticked, 0 if it stopped
    between phases rather than inside a search.
    """

    def __init__(self, message: str, *, nodes: int = 0):
        super().__init__(message)
        self.nodes = nodes
