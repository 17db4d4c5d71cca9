"""Self-contained facial-emotion-recognition stack on numpy.

Layered bottom-up: tensors with reverse-mode differentiation, neural layers,
the squeeze-excitation residual classifier, training utilities, dataset
loaders, evaluation metrics, binary checkpoints, and a command-line front end.
"""

from .autodiff import Graph, Tensor, using_dtype
from .config import RunConfig, load_run_config
from .data import CLASS_NAMES, DatasetManifest, Sample, make_batches
from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    GraphError,
    OptimizerError,
    ShapeError,
)
from .metrics import ConfusionMatrix, predict_labels
from .model import ModelConfig, ResEmoteNetModel, build_model
from .optim import PlateauScheduler, SgdState, cross_entropy, sgd_step
from .synthetic import make_synthetic_manifest
from .training import TrainResult, evaluate_model, train_model
from .verification import grad_check

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "Tensor",
    "grad_check",
    "using_dtype",
    "RunConfig",
    "load_run_config",
    "CLASS_NAMES",
    "DatasetManifest",
    "Sample",
    "make_batches",
    "CheckpointError",
    "ConfigError",
    "DataError",
    "GraphError",
    "OptimizerError",
    "ShapeError",
    "ConfusionMatrix",
    "predict_labels",
    "ModelConfig",
    "ResEmoteNetModel",
    "build_model",
    "PlateauScheduler",
    "SgdState",
    "cross_entropy",
    "sgd_step",
    "make_synthetic_manifest",
    "TrainResult",
    "evaluate_model",
    "train_model",
    "__version__",
]
