"""driftbench: evaluation harness for classifiers on temporally drifting streams."""

from .corpus import (
    DriftConfig,
    FeatureFileError,
    Sample,
    TemporalStream,
    bucketize,
    generate_drift_stream,
    load_feature_file,
    read_feature_file,
    split_iid,
)
from .learner import (
    Architecture,
    Hyperparams,
    LearnerState,
    Strategy,
    fit,
    forward_loss_grad,
    init_learner,
    predict,
    strategy_step,
    train,
)
from .metrics import AggregateReport, MetricReport, aggregate, compute_metrics
from .protocol import (
    AccuracyMatrix,
    ProtocolKind,
    RunConfig,
    evaluate,
    run_iid_protocol,
    run_streaming_protocol,
)
from .sampler import (
    AlphaPolicy,
    PolicyKind,
    ReplayBuffer,
    acceptance_probability,
    parse_policy,
    update_buffer,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyMatrix",
    "AggregateReport",
    "AlphaPolicy",
    "Architecture",
    "DriftConfig",
    "FeatureFileError",
    "Hyperparams",
    "LearnerState",
    "MetricReport",
    "PolicyKind",
    "ProtocolKind",
    "ReplayBuffer",
    "RunConfig",
    "Sample",
    "Strategy",
    "TemporalStream",
    "acceptance_probability",
    "aggregate",
    "bucketize",
    "compute_metrics",
    "evaluate",
    "fit",
    "forward_loss_grad",
    "generate_drift_stream",
    "init_learner",
    "load_feature_file",
    "parse_policy",
    "predict",
    "read_feature_file",
    "run_iid_protocol",
    "run_streaming_protocol",
    "split_iid",
    "strategy_step",
    "train",
    "update_buffer",
]
