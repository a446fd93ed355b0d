"""End-to-end metric computation and the sweep experiments.

These functions take in-memory arrays; the CLI layer handles files.  Every
path is deterministic given the inputs and the seed.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .matching import _average_class_probabilities, hungarian_max
from .metrics import (
    MetricReport,
    _accuracy,
    _fid_family,
    _is_family,
    as_feature_matrix,
    as_label_vector,
    as_probability_matrix,
    subsampled_fid_suite,
)
from .synth import CollapseSchedule, label_noise, mode_collapse_indices, rng_for

PAIRINGS = ("identity", "hungarian")


def _resolve_k(k, probs, *label_sets) -> int:
    if k is not None:
        return int(k)
    if probs is not None:
        return int(np.asarray(probs).shape[1])
    observed = [int(np.max(y)) for y in label_sets if y is not None]
    if observed:
        return max(observed) + 1
    raise ConfigError("class count k could not be inferred; pass it explicitly")


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
    if pairing not in PAIRINGS:
        raise ConfigError(f"unknown pairing {pairing!r}, expected one of {PAIRINGS}")
    if probs is None and real_features is None and gen_features is None:
        raise ConfigError("no inputs given; nothing to compute")
    if (real_features is None) != (gen_features is None):
        missing = "--gen-features" if gen_features is None else "--real-features"
        raise ConfigError(f"metric fid needs features on both sides; {missing} is missing")
    if real_features is not None and (real_labels is None) != (gen_labels is None):
        missing = "--gen-labels" if gen_labels is None else "--real-labels"
        raise ConfigError(
            f"metrics bcfid/wcfid need labels on both sides; {missing} is missing")

    k = _resolve_k(k, probs, real_labels, gen_labels)
    report = MetricReport(pairing=pairing, seed=int(seed))

    if probs is not None:
        probs = as_probability_matrix(probs)
        if probs.shape[1] != k:
            raise ConfigError(
                f"probability matrix has {probs.shape[1]} classes, expected k={k}")
        report.is_, report.bcis, report.wcis, report.per_class_is = _is_family(
            probs, gen_labels, weighting, class_count=k)
        if gen_labels is not None:
            report.accuracy, report.per_class_accuracy = _accuracy(probs, gen_labels)

    mapping = None
    if pairing == "hungarian":
        if probs is None or gen_labels is None:
            missing = "--probs" if probs is None else "--gen-labels"
            raise ConfigError(
                f"metric wcfid with pairing=hungarian needs {missing} "
                "to discover the class mapping")
        mapping = hungarian_max(_average_class_probabilities(probs, gen_labels)).mapping

    if real_features is None:
        return report

    rf = as_feature_matrix(real_features)
    gf = as_feature_matrix(gen_features)
    with_classes = real_labels is not None
    if with_classes:
        real_labels = as_label_vector(real_labels, k, n=rf.shape[0])
        gen_labels = as_label_vector(gen_labels, k, n=gf.shape[0])
        real_counts = np.bincount(real_labels, minlength=k)
        gen_counts = np.bincount(gen_labels, minlength=k)
        paired = real_counts[mapping] if mapping is not None else real_counts
        if np.any(paired != gen_counts):
            report.warnings.append(
                "per-class sample counts differ between the real and generated "
                "sides; the conditional-bound guarantees assume matched counts")

    if subset_size is not None:
        sub = subsampled_fid_suite(
            rf, real_labels, gf, gen_labels, subset_size, trials, seed,
            k=k, pairing=mapping, weighting=weighting, pairing_label=pairing)
        report.fid = sub.fid
        report.bcfid = sub.bcfid
        report.wcfid = sub.wcfid
        report.cfid_sum = sub.cfid_sum
        report.per_class_fid = sub.per_class_fid
        report.dims_used = sub.dims_used
        return report

    report.dims_used = rf.shape[1]
    report.fid, report.bcfid, report.wcfid, report.per_class_fid = _fid_family(
        rf, real_labels, gf, gen_labels, k, mapping, weighting)
    if with_classes:
        report.cfid_sum = report.bcfid + report.wcfid
    return report


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
    rows = []
    for i, p in enumerate(grid):
        noised = label_noise(gen_labels, float(p), _point_seed(seed, i))
        rep = build_report(
            real_features=real_features, real_labels=real_labels,
            gen_features=gen_features, gen_labels=noised, probs=probs,
            k=k, subset_size=subset_size, trials=trials, seed=seed,
            weighting=weighting, pairing=pairing)
        rows.append((float(p), rep))
    return rows


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
    k = _resolve_k(k, probs, real_labels, gen_labels)
    gen_labels = np.asarray(gen_labels).astype(np.int64)
    steps = mode_collapse_indices(gen_labels, k, schedule, seed)
    rows = []
    for step, idx in enumerate(steps):
        rep = build_report(
            real_features=real_features, real_labels=real_labels,
            gen_features=np.asarray(gen_features, dtype=np.float64)[idx],
            gen_labels=gen_labels[idx],
            probs=None if probs is None else np.asarray(probs, dtype=np.float64)[idx],
            k=k, subset_size=subset_size, trials=trials, seed=seed,
            weighting=weighting, pairing=pairing)
        rows.append((float(step), rep))
    return rows
