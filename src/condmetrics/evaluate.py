"""End-to-end metric computation and the sweep experiments.

These functions take in-memory arrays; the CLI layer handles files.  Every
path is deterministic given the inputs and the seed.

One core, ``_evaluation``, checks every option and input once and builds every
point (a vector of generated labels, on all or some generated rows) before any
score.  It then estimates each trial's real side once, scores every point's
generated side against it and drops it, so one trial's real side is held at a
time.  ``build_report`` and ``subsampled_fid_suite`` are one-point callers.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, InvalidInputError
from .gaussian import _as_finite
from .matching import _average_class_probabilities, hungarian_max
from .metrics import (
    WEIGHTINGS,
    MetricReport,
    _accuracy,
    _as_int,
    _check_rows,
    _checked_features,
    _column_sets,
    _fid_scores,
    _fid_side,
    _is_family,
    _resolve_mapping,
    _score_fid,
    as_label_vector,
    as_probability_matrix,
)
from .synth import CollapseSchedule, _label_noise, _mode_collapse_indices, rng_for

PAIRINGS = ("identity", "hungarian")


def _evaluation(points, *, real_features, real_labels, gen_features, gen_labels, probs, k,
                subset_size, trials, seed, weighting, pairing, mapping=None):
    """One report per point of ``points(checked gen_labels, k)``, an iterable of
    ``(labels, rows)``: checked generated labels, on the generated rows ``rows``
    (all of them if None).  ``mapping`` fixes the class pairing of every point,
    and ``pairing`` is then only the report's label; otherwise "hungarian"
    discovers each point's pairing from its probabilities."""
    k = None if k is None else _as_int(k, "class count")
    if k is not None and k < 1:
        raise InvalidInputError(f"class count must be >= 1, got {k}")
    if pairing not in PAIRINGS:
        raise ConfigError(f"unknown pairing {pairing!r}, expected one of {PAIRINGS}")
    if weighting not in WEIGHTINGS:
        raise InvalidInputError(f"unknown weighting {weighting!r}, expected one of {WEIGHTINGS}")
    if probs is None and real_features is None and gen_features is None:
        raise ConfigError("no inputs given; nothing to compute")
    if (real_features is None) != (gen_features is None):
        missing = "--gen-features" if gen_features is None else "--real-features"
        raise ConfigError(f"metric fid needs features on both sides; {missing} is missing")
    if real_features is None and (subset_size is not None or trials != 1):
        option = "--subset-size" if subset_size is not None else "--trials"
        raise ConfigError(f"option {option} needs features on both sides; "
                          "--real-features and --gen-features are missing")
    if real_features is not None and (real_labels is None) != (gen_labels is None):
        missing = "--gen-labels" if gen_labels is None else "--real-labels"
        raise ConfigError(
            f"metrics bcfid/wcfid need labels on both sides; {missing} is missing")
    discover = pairing == "hungarian" and mapping is None
    if discover and (probs is None or gen_labels is None):
        missing = "--probs" if probs is None else "--gen-labels"
        raise ConfigError(
            f"metric wcfid with pairing=hungarian needs {missing} "
            "to discover the class mapping")

    if probs is not None:
        probs = as_probability_matrix(probs)
        if k is not None and probs.shape[1] != k:
            raise ConfigError(
                f"probability matrix has {probs.shape[1]} classes, expected k={k}")
        k = probs.shape[1]
    if real_features is not None:
        rf, real_labels, gf, gen_labels = _checked_features(
            real_features, real_labels, gen_features, gen_labels, k)
    elif gen_labels is not None:
        gen_labels = as_label_vector(gen_labels, k)
    if probs is not None and gen_labels is not None:
        _check_rows(gen_labels, probs.shape[0])
    if k is None and gen_labels is not None:
        # no probabilities: the classes are those the labels reach; without
        # labels (unconditional fid) no score needs k
        k = max(int(real_labels.max()), int(gen_labels.max())) + 1
    if real_features is not None:
        column_sets, scale = _column_sets(rf.shape[1], subset_size, trials, seed)
    if gen_labels is not None:
        mapping = _resolve_mapping(mapping, k)  # identity if None
    points = list(points(gen_labels, k))

    reports = [MetricReport(pairing=pairing, seed=int(seed)) for _ in points]
    mappings = []
    for report, (labels, rows) in zip(reports, points):
        p = probs if rows is None or probs is None else probs[rows]
        if p is not None:
            report.is_, report.bcis, report.wcis, report.per_class_is = _is_family(
                p, labels, k, weighting)
            if labels is not None:
                report.accuracy, report.per_class_accuracy = _accuracy(p, labels)
        mappings.append(hungarian_max(_average_class_probabilities(p, labels)).mapping
                        if discover else mapping)
        if real_features is not None and labels is not None:
            paired = np.bincount(real_labels, minlength=k)[mappings[-1]]
            if np.any(paired != np.bincount(labels, minlength=k)):
                report.warnings.append(
                    "per-class sample counts differ between the real and generated "
                    "sides; the conditional-bound guarantees assume matched counts")
    if real_features is None:
        return reports

    scores = [[] for _ in points]
    for cols in column_sets:
        real = _fid_side(rf, real_labels, cols, k, weighting, "real")
        for (labels, rows), point_mapping, trials_of_point in zip(points, mappings, scores):
            trials_of_point.append(_fid_scores(real, _fid_side(
                gf if rows is None else gf[rows], labels, cols, k, weighting, "generated"),
                point_mapping))
        del real  # before the next trial's real side is estimated
    for report, trials_of_point in zip(reports, scores):
        report.dims_used = rf.shape[1] if subset_size is None else subset_size
        _score_fid(report, trials_of_point, scale)
    return reports


def build_report(
    *,
    real_features=None,
    real_labels=None,
    gen_features=None,
    gen_labels=None,
    probs=None,
    k: int | None = None,
    subset_size: int | None = None,
    trials: int = 1,
    seed: int = 0,
    weighting: str = "empirical",
    pairing: str = "identity",
) -> MetricReport:
    """Compute every metric its inputs allow and collect them into one report.

    The probability-based family needs ``probs`` (and ``gen_labels`` for the
    conditional members); the feature-based family needs features on both
    sides (and labels on both sides for the conditional members).  A warning
    is recorded when the per-class sample counts of the two sides differ,
    since the conditional-bound guarantees assume matched counts.
    """
    return _evaluation(
        lambda labels, _k: [(labels, None)],
        real_features=real_features, real_labels=real_labels, gen_features=gen_features,
        gen_labels=gen_labels, probs=probs, k=k, subset_size=subset_size, trials=trials,
        seed=seed, weighting=weighting, pairing=pairing)[0]


def subsampled_fid_suite(
    real_features,
    real_labels,
    gen_features,
    gen_labels,
    subset_size: int,
    trials: int,
    seed: int,
    *,
    k: int | None = None,
    pairing=None,
    weighting: str = "empirical",
    pairing_label: str = "identity",
) -> MetricReport:
    """Feature-subsampled, per-dimension-normalized FID family (no probabilities).

    Each trial draws ``subset_size`` distinct feature columns, shared by both
    sides and by fid/bcfid/wcfid, and divides the scores by ``subset_size``; the
    report holds the mean over trials; without labels it holds fid alone.
    ``pairing`` is a fixed class mapping (identity if None), reported as
    ``pairing_label``.
    """
    return _evaluation(
        lambda labels, _k: [(labels, None)],
        real_features=real_features, real_labels=real_labels, gen_features=gen_features,
        gen_labels=gen_labels, probs=None, k=k, subset_size=subset_size, trials=trials,
        seed=seed, weighting=weighting, pairing=pairing_label, mapping=pairing)[0]


def sweep_label_noise(
    *,
    gen_labels,
    grid,
    real_features=None,
    real_labels=None,
    gen_features=None,
    probs=None,
    k: int | None = None,
    subset_size: int | None = None,
    trials: int = 1,
    seed: int = 0,
    weighting: str = "empirical",
    pairing: str = "identity",
) -> list[tuple[float, MetricReport]]:
    """One report per noise fraction p; the point at index i noises the
    generated labels with the stream (seed, spawn_key=(i,))."""
    if gen_labels is None:
        raise ConfigError("label_noise sweep needs generated labels")
    grid = _as_finite(grid, "grid")[0].reshape(-1).tolist()
    reports = _evaluation(
        lambda labels, _k: [(_label_noise(labels, p, _point_seed(seed, i)), None)
                            for i, p in enumerate(grid)],
        real_features=real_features, real_labels=real_labels, gen_features=gen_features,
        gen_labels=gen_labels, probs=probs, k=k, subset_size=subset_size, trials=trials,
        seed=seed, weighting=weighting, pairing=pairing)
    return list(zip(grid, reports))


def _point_seed(seed: int, index: int) -> int:
    # collapse (seed, index) into one 64-bit stream id for label_noise
    return int(rng_for(seed, index).integers(0, 2**63 - 1))


def sweep_mode_collapse(
    *,
    gen_features,
    gen_labels,
    schedule: CollapseSchedule,
    real_features=None,
    real_labels=None,
    probs=None,
    k: int | None = None,
    subset_size: int | None = None,
    trials: int = 1,
    seed: int = 0,
    weighting: str = "empirical",
    pairing: str = "identity",
) -> list[tuple[float, MetricReport]]:
    """One report per collapse step; the generated side at step s is the
    emitted dataset of the staged pool-shrinking simulation."""
    if gen_features is None or gen_labels is None:
        raise ConfigError("mode_collapse sweep needs generated features and labels")
    reports = _evaluation(
        lambda labels, k: [(labels[idx], idx)
                           for idx in _mode_collapse_indices(labels, k, schedule, seed)],
        real_features=real_features, real_labels=real_labels, gen_features=gen_features,
        gen_labels=gen_labels, probs=probs, k=k, subset_size=subset_size, trials=trials,
        seed=seed, weighting=weighting, pairing=pairing)
    return [(float(step), report) for step, report in enumerate(reports)]
