"""flowdistill: a desk-scale laboratory for flow-matching teachers,
synthetic denoising-trajectory stores, few-step student distillation
with adversarial refinement, and mismatch diagnostics."""

import os as _os
import sys as _sys
import warnings as _warnings

# Pin BLAS to one thread (unless the caller chose otherwise) so reruns
# produce byte-identical artifacts regardless of host core count; at
# the toy sizes used here a single thread is also the fastest option.
# Takes effect only if numpy has not been imported yet.
if "numpy" in _sys.modules and not {"OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"} & {*_os.environ}:
    _warnings.warn("numpy was imported before flowdistill with neither OPENBLAS_NUM_THREADS "
                   "nor MKL_NUM_THREADS set: BLAS is not pinned to one thread, so reruns may "
                   "not reproduce artifacts byte for byte", RuntimeWarning, stacklevel=2)
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
_os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as _np

# glibc's malloc returns freed memory at the top of the heap to the
# kernel past a threshold (128 KB, then twice the largest mmap'd block
# freed so far), and the next allocation faults it in again: thousands
# of faults per B=2048 training step (0.5 MB temporaries) or per store
# validation (256 KB blocks), more or fewer with the process layout.
# Freeing one untouched block of this size lifts the threshold above
# them by glibc's own rule; no result changes.
_HEAP_WARMUP_BYTES = 16 << 20
_np.empty(_HEAP_WARMUP_BYTES // 8)

from .adversarial import build_heads, head_of
from .analysis import KDConfig, ModelScore, endpoint_error, kd_baseline_distill, mismatch_degree, \
    mismatch_sweep, score_model, shifted_dataset, useless_frequency, w1_distance
from .distill import DistillConfig, DistillResult, distill
from .errors import ConfigError, FlowDistillError, NumericsError, StoreFormatError, \
    StoreIntegrityError
from .flow import TimeGrid, ToyDataset, denoise_batch, integrate, interpolate, \
    train_teacher
from .nn import OptimizerState, ParamSet, VelocityModel, build_velocity_model, \
    eval_velocity, init_optimizer, load_model, load_paramset, optimizer_step, \
    save_model, save_paramset, value_and_grad
from .seeds import derive_seed
from .trajstore import TrajectoryStore, generate_store, key_points, load_store, \
    path_noise, recurrence_errors, save_store, validate_store

__version__ = "0.1.0"
