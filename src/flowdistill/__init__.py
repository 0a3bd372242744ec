"""flowdistill: a desk-scale laboratory for flow-matching teachers,
synthetic denoising-trajectory stores, few-step student distillation
with queue-based adversarial refinement, and mismatch diagnostics."""

import os as _os

# Pin BLAS to one thread (unless the caller chose otherwise) so reruns
# produce byte-identical artifacts regardless of host core count; at
# the toy sizes used here a single thread is also the fastest option.
# Takes effect only if numpy has not been imported yet.
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
_os.environ.setdefault("MKL_NUM_THREADS", "1")

from .adversarial import FeatureTapConfig, ProjectionHead, build_projection_head, \
    default_taps, discriminate
from .analysis import KDConfig, MetricsRecord, MismatchReport, endpoint_error, \
    kd_baseline_distill, mismatch_degree, mismatch_report, mismatch_sweep, \
    shifted_dataset, useless_frequency, w1_distance
from .distill import DistillConfig, DistillResult, KeySchedule, LatentQueues, \
    QueueEntry, distill, make_key_schedule, sample_student_batch
from .errors import ConfigError, FlowDistillError, NumericsError, QueueEmpty, \
    StoreFormatError, StoreIntegrityError
from .flow import TimeGrid, ToyDataset, denoise_batch, integrate, interpolate, \
    sample_model, train_teacher
from .nn import OptimizerState, ParamSet, VelocityModel, build_velocity_model, \
    eval_velocity, init_optimizer, load_model, load_paramset, optimizer_step, \
    save_model, save_paramset, value_and_grad
from .seeds import derive_seed
from .trajstore import TrajectoryStore, generate_store, key_points, load_store, \
    noise_from_seed, recurrence_errors, save_store, validate_store

__version__ = "0.1.0"
