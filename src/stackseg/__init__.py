"""Stacked encoder-decoder segmentation networks on a numpy autodiff core."""

from .errors import ConfigError, DataError, DivergenceError, UsageError
from .tensor import Param, Tensor, backward, no_grad, toposort

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DataError",
    "DivergenceError",
    "UsageError",
    "Param",
    "Tensor",
    "backward",
    "no_grad",
    "toposort",
    "__version__",
]
