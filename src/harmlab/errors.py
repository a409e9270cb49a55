"""Exception types shared across the package."""


class HarmlabError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(HarmlabError, ValueError):
    """Operand shapes violate an operation's contract."""


class OptimizerError(HarmlabError, ValueError):
    """An optimizer update was aborted (e.g. non-finite gradient)."""


class ParseError(HarmlabError, ValueError):
    """A binary image file could not be parsed. Carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class GenerationError(HarmlabError, RuntimeError):
    """Synthetic sample generation failed after bounded retries."""


class DatasetError(HarmlabError, ValueError):
    """A dataset directory is inconsistent with its manifest."""


class CheckpointError(HarmlabError, ValueError):
    """A model checkpoint is malformed, does not match its configuration, or
    holds weights whose output overflows."""


class TrainingError(HarmlabError, RuntimeError):
    """Training aborted (e.g. non-finite loss)."""


class RankingError(HarmlabError, ValueError):
    """Pairwise-comparison data cannot be fit (disconnected comparisons, or no maximum-likelihood fit)."""


class ConfigError(HarmlabError, ValueError):
    """A run configuration file or key is invalid."""
