"""Two-view graph fraud detection with attention fusion and
mutual-information regularization, on a small reverse-mode autodiff core."""

from .graphdata import (
    FraudGraph, SplitIndex, BatchSubgraph, SynthConfig,
    load_graph, save_graph, stratified_split, downsample_epoch,
    make_batches, gather_batch, normalize_features, synth_generate,
    neighbor_label_distribution,
)
from .metrics import MetricsReport, auc_rank, f1_macro, gmean, compute_report
from .model import DignnConfig, DignnParams, ForwardOut
from .trainer import TrainConfig, TrainHistory, train, evaluate, gradcheck

__all__ = [
    "FraudGraph", "SplitIndex", "BatchSubgraph", "SynthConfig",
    "load_graph", "save_graph", "stratified_split", "downsample_epoch",
    "make_batches", "gather_batch", "normalize_features", "synth_generate",
    "neighbor_label_distribution",
    "MetricsReport", "auc_rank", "f1_macro", "gmean", "compute_report",
    "DignnConfig", "DignnParams", "ForwardOut",
    "TrainConfig", "TrainHistory", "train", "evaluate", "gradcheck",
]
