"""Exception types shared across the toolkit."""

from .algebra import key_name


class MissingMoment(KeyError):
    """A moment required by the pin policy is absent from the table."""

    def __init__(self, key):
        super().__init__(key)
        self.key = key

    def __str__(self):
        return f"no value supplied for pinned moment {key_name(self.key)}"


class RangeError(ValueError):
    """A moment value lies outside the admissible interval [-1, 1]."""


class DuplicateMoment(ValueError):
    """The same moment key appears more than once in a document."""


class SchemaError(ValueError):
    """A document does not match the expected JSON schema.

    The message carries the path of the offending field, e.g.
    ``moments[3].settings``.
    """


class UnsoundConfig(ValueError):
    """The margin is too small for a verified certificate to be a proof."""


class NoBracket(RuntimeError):
    """Robustness has no confirmed NONLOCAL/INCONCLUSIVE bracket."""


class PipelineError(RuntimeError):
    """An analysis stage failed; ``stage`` names the failing step."""

    def __init__(self, stage, message):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
