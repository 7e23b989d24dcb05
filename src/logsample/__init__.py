"""Variant-aware event log sampling for faster next-activity prediction training."""

from .errors import (
    ConfigurationError,
    EmptyLogError,
    EmptySampleError,
    EncodingError,
    EvaluationError,
    LogSampleError,
    RowError,
    SchemaError,
    SplitError,
    TrainingError,
    UndefinedRatioError,
    XesParseError,
)
from .experiment import (
    ExperimentConfig,
    ExperimentReport,
    kfold_split,
    render_report,
    run_experiment,
)
from .features import (
    END_MARKER,
    EncodedRows,
    FeatureRow,
    default_window,
    encode,
    export_features,
    extract_features,
)
from .log_model import (
    Case,
    ColumnMapping,
    Event,
    EventLog,
    build_log,
    load_log,
    parse_csv,
    parse_xes,
    subset_log,
    write_csv,
)
from .metrics import (
    EvaluationResult,
    TestRows,
    evaluate,
    relative_accuracy,
    speedup,
)
from .predictor import PrefixTreeModel, load_model, save_model, train
from .sampling import (
    SampleReport,
    SamplingConfig,
    parse_method_token,
    rank_traces,
    sample,
    sample_count,
)
from .variants import Variant, VariantIndex, build_variant_index

__version__ = "0.1.0"
