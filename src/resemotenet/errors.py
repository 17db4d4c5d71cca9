"""Exception types shared across the package."""


class ShapeError(ValueError):
    """An operation received tensors with incompatible shapes."""


class GraphError(RuntimeError):
    """Misuse of the recorded computation graph (non-scalar loss,
    backward without a graph, repeated backward on a finished graph)."""


class ConfigError(ValueError):
    """Invalid model or run configuration."""


class DataError(ValueError):
    """Unreadable or malformed dataset content."""


class OptimizerError(RuntimeError):
    """A diverged model (a non-finite loss, statistic or logit; the CLI exits
    2), or misuse of the optimizer (a missing gradient, a non-finite metric)."""


class CheckpointError(RuntimeError):
    """Corrupt, incompatible, or mismatched checkpoint file."""
