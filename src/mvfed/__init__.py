"""Multi-view classification with federated training variants.

The centralized model lives in `mvl`; `vfed`, `hfed`, and `sfed` retrain
it under vertical, horizontal, and sequential data ownership over the
round protocol in `fedcore`.  The dataset types (`MultiViewDataset` in
`mvl`, `SequenceDataset` and `SequenceClientData` in `data`), the
encoder's SGD settings (`TrainerConfig`), the synthetic generators and
the disk formats are in `data`, benchmark orchestration in
`experiments`, and the command line entry point in `cli`.

Each public name below is imported from its submodule on first access
(PEP 562) and then cached here, so a process loads only the modules it
uses; `fedcore` loads its own submodules the same way, and
`experiments` imports a trainer only in the mode that calls it.  A
vertical run never loads `hfed`, `sfed` or `experiments`; a centralized
run, or the command line's set-up, loads no trainer and no `fedcore`
module.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "data": (
        "GeneratorSpec",
        "SeqGeneratorSpec",
        "SequenceClientData",
        "SequenceDataset",
        "TrainerConfig",
        "gen_complementary",
        "gen_multiview",
        "gen_sequences",
        "load_dataset",
        "load_sequences",
        "partition_horizontal",
        "partition_sequences",
        "save_dataset",
        "save_sequences",
    ),
    "errors": ("ConfigError", "InvalidSpec", "MvfedError"),
    "experiments": (
        "ExperimentResult",
        "ModelBundle",
        "RunConfig",
        "compute_embeddings",
        "evaluate_model",
        "export_embeddings",
        "load_embeddings",
        "load_model",
        "run_experiment",
        "save_model",
        "split_indices",
        "train_once",
    ),
    "hfed": ("hfed_train",),
    "metrics": ("MetricsReport", "MetricsRow", "average_rows", "compute_metrics"),
    "mvl": (
        "HyperParams",
        "MultiViewDataset",
        "argmax_decode",
        "predict_mvl",
        "train_mvl",
        "train_single_view",
    ),
    "sfed": ("EncoderArch", "extract_features", "sfed_train"),
    "vfed": ("vfed_predict", "vfed_train"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _HOME.keys())
