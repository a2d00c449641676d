"""Multi-view classification with federated training variants.

The centralized model lives in `mvl`; `vfed`, `hfed`, and `sfed` retrain
it under vertical, horizontal, and sequential data ownership over the
round protocol in `fedcore`.  Synthetic generators and the disk formats
are in `data`, benchmark orchestration in `experiments`, and the command
line entry point in `cli`.
"""

from .data import (
    GeneratorSpec,
    SeqGeneratorSpec,
    gen_complementary,
    gen_multiview,
    gen_sequences,
    load_dataset,
    load_sequences,
    partition_horizontal,
    partition_sequences,
    save_dataset,
    save_sequences,
)
from .errors import ConfigError, InvalidSpec, MvfedError
from .experiments import (
    ExperimentResult,
    ModelBundle,
    RunConfig,
    compute_embeddings,
    evaluate_model,
    export_embeddings,
    load_embeddings,
    load_model,
    run_experiment,
    save_model,
    split_indices,
    train_once,
)
from .hfed import hfed_train
from .metrics import MetricsReport, MetricsRow, average_rows, compute_metrics
from .mvl import (
    HyperParams,
    MultiViewDataset,
    argmax_decode,
    predict_mvl,
    train_mvl,
    train_single_view,
)
from .sfed import (
    EncoderArch,
    SequenceClientData,
    SequenceDataset,
    TrainerConfig,
    extract_features,
    sfed_train,
)
from .vfed import vfed_predict, vfed_train

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "EncoderArch",
    "ExperimentResult",
    "GeneratorSpec",
    "HyperParams",
    "InvalidSpec",
    "MetricsReport",
    "MetricsRow",
    "ModelBundle",
    "MultiViewDataset",
    "MvfedError",
    "RunConfig",
    "SeqGeneratorSpec",
    "SequenceClientData",
    "SequenceDataset",
    "TrainerConfig",
    "argmax_decode",
    "average_rows",
    "compute_embeddings",
    "compute_metrics",
    "evaluate_model",
    "export_embeddings",
    "extract_features",
    "gen_complementary",
    "gen_multiview",
    "gen_sequences",
    "hfed_train",
    "load_dataset",
    "load_embeddings",
    "load_model",
    "load_sequences",
    "partition_horizontal",
    "partition_sequences",
    "predict_mvl",
    "run_experiment",
    "save_dataset",
    "save_model",
    "save_sequences",
    "sfed_train",
    "split_indices",
    "train_mvl",
    "train_once",
    "train_single_view",
    "vfed_predict",
    "vfed_train",
]
