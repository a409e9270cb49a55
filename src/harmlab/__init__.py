"""Desk-scale image harmonization lab.

A self-contained numpy package: a tape-based reverse-mode autodiff core, exact
PPM/PGM imaging with harmonization metrics, deterministic synthetic data,
region-aware normalization blocks (including a semantic-attention variant),
a small U-Net generator with bit-exact checkpoints, a deterministic trainer,
and Bradley-Terry ranking from pairwise preferences.
"""

import ctypes
from pathlib import Path

import numpy as np

from . import tensor
from .blocks import (
    Modulation,
    SrinParams,
    SrinResult,
    rain_forward,
    srin_forward,
)
from .btrank import BtResult, PairwiseWins, bt_fit, read_pairs_csv, scores_csv
from .errors import (
    CheckpointError,
    ConfigError,
    DatasetError,
    GenerationError,
    HarmlabError,
    OptimizerError,
    ParseError,
    RankingError,
    ShapeError,
    TrainingError,
)
from .gradcheck import GradCheckResult, grad_check
from .imaging import (
    BUCKET_LABELS,
    Image,
    Mask,
    MetricsRecord,
    compose,
    metrics,
    ratio_bucket,
    read_pgm,
    read_ppm,
    write_pgm,
    write_ppm,
)
from .optim import AdamState, adam_step
from .synthdata import GenConfig, Sample, generate_dataset, generate_sample, load_dataset, write_dataset
from .tensor import EPS_DEFAULT, Graph, Tensor
from .training import EvalReport, LossEntry, TrainConfig, evaluate, train
from .unet import (
    BLOCK_KINDS,
    GeneratorModel,
    UNetConfig,
    load_checkpoint,
    save_checkpoint,
    unet_forward,
)
from .verify import reference_srin, run_suite


def _keep_heap_resident() -> None:
    # A training step allocates and frees tens of MB of numpy buffers of a few
    # MB each. glibc's mmap and trim thresholds start at 128 KiB and rise only
    # to the largest mmapped block freed so far, so with no larger block it
    # returns each step's freed buffers to the kernel and page-faults them in
    # again on the next step, which costs more than much of the step's
    # arithmetic. Pinning the thresholds keeps the freed memory in the heap
    # for reuse. Setting either one turns off the adjustment of both and
    # leaves the other at its small default, so both are set. Where there is
    # no mallopt (not glibc) this does nothing.
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: serve blocks under 32 MiB from the heap
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: keep up to 64 MiB free at the heap top


def _pin_blas_to_one_thread() -> None:
    # OpenBLAS's threaded GEMM sums some shapes in another order than its
    # one-thread path, so results would depend on the thread count the
    # environment asks for; with one thread every run gives the same bits.
    # The library is the one numpy's wheel ships in numpy.libs. Where there
    # is none, or it has no *_set_num_threads symbol, this does nothing.
    for path in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_", "openblas_set_num_threads"):
            set_threads = getattr(lib, name, None)
            if set_threads is not None:
                set_threads.argtypes = (ctypes.c_int,)
                set_threads.restype = None
                set_threads(1)
                return


_keep_heap_resident()
_pin_blas_to_one_thread()

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "BLOCK_KINDS",
    "BUCKET_LABELS",
    "BtResult",
    "CheckpointError",
    "ConfigError",
    "DatasetError",
    "EPS_DEFAULT",
    "EvalReport",
    "GenConfig",
    "GeneratorModel",
    "GenerationError",
    "GradCheckResult",
    "Graph",
    "HarmlabError",
    "Image",
    "LossEntry",
    "Mask",
    "MetricsRecord",
    "Modulation",
    "OptimizerError",
    "PairwiseWins",
    "ParseError",
    "RankingError",
    "Sample",
    "ShapeError",
    "SrinParams",
    "SrinResult",
    "Tensor",
    "TrainConfig",
    "TrainingError",
    "UNetConfig",
    "adam_step",
    "bt_fit",
    "compose",
    "evaluate",
    "generate_dataset",
    "generate_sample",
    "grad_check",
    "load_checkpoint",
    "load_dataset",
    "metrics",
    "rain_forward",
    "ratio_bucket",
    "read_pairs_csv",
    "read_pgm",
    "read_ppm",
    "reference_srin",
    "run_suite",
    "save_checkpoint",
    "scores_csv",
    "srin_forward",
    "tensor",
    "train",
    "unet_forward",
    "write_dataset",
    "write_pgm",
    "write_ppm",
]
