"""End-to-end metric computation and the sweep experiments.

These functions take in-memory arrays; the CLI layer handles files.  Every
path is deterministic given the inputs and the seed.

Each input array is checked and the real side's Gaussians estimated once per
set of inputs; each report then scores only what its point changes (the
generated labels, or a row subset of the generated side).  ``build_report`` is
the one-point case, and a sweep scores every grid point against one preparation.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .matching import _average_class_probabilities, hungarian_max
from .metrics import (
    MetricReport,
    _accuracy,
    _check_rows,
    _checked_features,
    _column_sets,
    _fid_side,
    _is_family,
    _score_fid,
    as_label_vector,
    as_probability_matrix,
)
from .synth import CollapseSchedule, _label_noise, _mode_collapse_indices, rng_for

PAIRINGS = ("identity", "hungarian")


def _evaluation(*, real_features, real_labels, gen_features, gen_labels, probs, k,
                subset_size, trials, seed, weighting, pairing):
    """Check the configuration and each input, and estimate the real side, once.
    Returns ``(score, checked gen_labels, k)``; ``score(labels, rows=None)`` reports
    one point of checked labels, on the generated rows ``rows`` if given."""
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
    if pairing == "hungarian" and (probs is None or gen_labels is None):
        missing = "--probs" if probs is None else "--gen-labels"
        raise ConfigError(
            f"metric wcfid with pairing=hungarian needs {missing} "
            "to discover the class mapping")

    k = None if k is None else int(k)
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
        if real_labels is not None:
            real_counts = np.bincount(real_labels, minlength=k)
        column_sets, scale = _column_sets(rf.shape[1], subset_size, trials, seed)
        dims_used = rf.shape[1] if subset_size is None else subset_size
        real_sides = [_fid_side(rf, real_labels, cols, k, weighting, "real")
                      for cols in column_sets]

    def score(gen_labels, rows=None) -> MetricReport:
        report = MetricReport(pairing=pairing, seed=int(seed))
        p = probs if rows is None or probs is None else probs[rows]
        if p is not None:
            report.is_, report.bcis, report.wcis, report.per_class_is = _is_family(
                p, gen_labels, k, weighting)
            if gen_labels is not None:
                report.accuracy, report.per_class_accuracy = _accuracy(p, gen_labels)

        mapping = None if pairing == "identity" else hungarian_max(
            _average_class_probabilities(p, gen_labels)).mapping

        if real_features is None:
            return report
        g = gf if rows is None else gf[rows]
        if gen_labels is not None:
            paired = real_counts if mapping is None else real_counts[mapping]
            if np.any(paired != np.bincount(gen_labels, minlength=k)):
                report.warnings.append(
                    "per-class sample counts differ between the real and generated "
                    "sides; the conditional-bound guarantees assume matched counts")
        report.dims_used = dims_used
        gen_sides = (_fid_side(g, gen_labels, cols, k, weighting, "generated")
                     for cols in column_sets)
        _score_fid(report, real_sides, gen_sides, mapping, scale)
        return report

    return score, gen_labels, k


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
    score, gen_labels, _ = _evaluation(
        real_features=real_features, real_labels=real_labels, gen_features=gen_features,
        gen_labels=gen_labels, probs=probs, k=k, subset_size=subset_size, trials=trials,
        seed=seed, weighting=weighting, pairing=pairing)
    return score(gen_labels)


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
    score, gen_labels, _ = _evaluation(
        real_features=real_features, real_labels=real_labels, gen_features=gen_features,
        gen_labels=gen_labels, probs=probs, k=k, subset_size=subset_size, trials=trials,
        seed=seed, weighting=weighting, pairing=pairing)
    return [(float(p), score(_label_noise(gen_labels, float(p), _point_seed(seed, i))))
            for i, p in enumerate(grid)]


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
    score, gen_labels, k = _evaluation(
        real_features=real_features, real_labels=real_labels, gen_features=gen_features,
        gen_labels=gen_labels, probs=probs, k=k, subset_size=subset_size, trials=trials,
        seed=seed, weighting=weighting, pairing=pairing)
    steps = _mode_collapse_indices(gen_labels, k, schedule, seed)
    return [(float(step), score(gen_labels[idx], idx)) for step, idx in enumerate(steps)]
