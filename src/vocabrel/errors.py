"""Exception types shared across the package."""


class VocabrelError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(VocabrelError):
    """Malformed or inconsistent input file content."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        loc = ""
        if path is not None:
            loc += f"{path}"
        if line is not None:
            loc += f":{line}"
        super().__init__(f"{loc}: {message}" if loc else message)
        self.path = path
        self.line = line


class CycleError(VocabrelError):
    """The vocabulary parent relation contains a directed cycle."""

    def __init__(self, cycle: list[str]):
        # each term is a parent of the next, as model.leaves_first finds them
        super().__init__(f"vocabulary has a parent cycle: {' > '.join([*cycle, cycle[0]])}")


class EmptyDocumentError(VocabrelError):
    """A document (or vector) with no annotations where content is required."""


class NoMajorTermsError(VocabrelError):
    """Slim filtering removed every term of a document."""


class NonPositiveQuadraticFormError(VocabrelError):
    """x'Sx <= 0 in soft cosine, indicating a non-PSD similarity matrix."""


class MissingDataError(VocabrelError):
    """A required precomputed value (IC entry, score, document) is absent."""


class ConfigError(VocabrelError):
    """Invalid method parameters or incompatible option combination."""
