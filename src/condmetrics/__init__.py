"""Conditional generation metrics: IS/FID and their between- and within-class
components, class alignment, a synthetic degradation harness, and a batch CLI."""

from .errors import (
    CondMetricsError,
    ConfigError,
    InvalidInputError,
    NotPSDError,
    TensorFileError,
)
from .evaluate import (
    bcfid,
    bcis,
    build_report,
    cfid_sum,
    fid,
    inception_score,
    per_class_is,
    sweep_label_noise,
    sweep_mode_collapse,
    wcfid,
    wcis,
)
from .gaussian import (
    GaussianStats,
    estimate_gaussian,
    frechet_distance,
    frechet_distance_raw,
    sqrtm_psd,
)
from .matching import (
    ClassAssignment,
    average_class_probabilities,
    hungarian_max,
)
from .metrics import (
    ClassConditionalStats,
    MetricReport,
    accuracy,
    bcfid_from_stats,
    class_conditional_from_moments,
    class_conditional_stats,
    pooled_gaussian,
    wcfid_from_stats,
)
from .synth import (
    CollapseSchedule,
    LabeledPair,
    MixtureSpec,
    dirichlet_rows,
    gen_matched_moments,
    gen_mixture,
    gen_tightness_case,
    label_noise,
    matched_moments_population,
    mode_collapse_indices,
    rng_for,
    tightness_population,
)
from .tensorfile import (
    load_features,
    load_labels,
    load_tensor,
    open_probabilities,
    save_csv,
    save_tensor,
)

__version__ = "0.1.0"

__all__ = [
    "CondMetricsError", "ConfigError", "InvalidInputError", "NotPSDError",
    "TensorFileError",
    "GaussianStats", "estimate_gaussian", "frechet_distance",
    "frechet_distance_raw", "sqrtm_psd",
    "ClassAssignment", "average_class_probabilities", "hungarian_max",
    "ClassConditionalStats", "MetricReport", "accuracy", "bcfid",
    "bcfid_from_stats", "bcis", "cfid_sum", "class_conditional_from_moments",
    "class_conditional_stats", "fid", "inception_score", "per_class_is",
    "pooled_gaussian", "wcfid", "wcfid_from_stats", "wcis",
    "CollapseSchedule", "LabeledPair", "MixtureSpec", "dirichlet_rows",
    "gen_matched_moments", "gen_mixture", "gen_tightness_case",
    "label_noise", "matched_moments_population", "mode_collapse_indices",
    "rng_for", "tightness_population",
    "load_features", "load_labels", "load_tensor", "open_probabilities",
    "save_csv", "save_tensor",
    "build_report", "sweep_label_noise", "sweep_mode_collapse",
]
