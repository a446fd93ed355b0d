"""Every score: the public IS/FID functions, the report and the sweep experiments.

These functions take in-memory arrays, and probabilities also as
``ProbabilityRows``: the CLI hands them a binary probability file as a
``tensorfile.ProbabilityFile``, which is read in checked row blocks and never
held whole.  Every path is deterministic given the inputs and the seed.

One core, ``_evaluation``, checks every option and input once, builds every
point (a vector of generated labels, on all or some generated rows) and splits
each label vector into classes once, before any score.  K is read off the
inputs, never set: the K probability columns are the classes wherever
probabilities are given, else the labels 0 to the largest on either side.  A
class fails, naming its side, with under 2 rows where wcfid reads it ("real",
"generated") and with none where only bcis/wcis or bcfid do.  Each public
score function is a one-point report on only the inputs its score reads, and
refuses to run without the labels its score needs.  Points on the same
generated rows (every label-noise point, and a report's one point) share
the work that does not depend on labels: one IS pass (one read of a
probability file) per row set, which computes each row's negative entropy and
argmax once and adds the rows into every point's class sums, held until the
pass ends; and the generated pooled Gaussian and fid once per trial.  Each
point adds only its labelled work: bcis/wcis from its class sums, accuracy
against the argmaxes, its pairing, bcfid and wcfid.  Each trial streams the
classes through ``metrics._class_scores``, drops its column gathers and adds
each point's FID family into one running sum per score in its report, so memory
is the inputs, one pooled Gaussian and O(K d) per point, whatever the trials.
Under feature subsampling each trial draws ``subset_size`` distinct columns from
``rng_for(seed)`` as it starts, shared by both sides and fid/bcfid/wcfid; each
score is its sum over the trials, divided by their count, then by ``subset_size``.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, InvalidInputError
from .gaussian import _as_finite, _estimate_gaussian, as_feature_matrix, frechet_distance
from .matching import hungarian_max
from .metrics import (
    MetricReport,
    _accuracy,
    _as_int,
    _check_rows,
    _class_count,
    _class_scores,
    _class_split,
    _is_classes,
    _is_pass,
    _probability_rows,
    _resolve_mapping,
    as_label_vector,
)
from .synth import CollapseSchedule, _as_seed, _label_noise, _mode_collapse_indices, rng_for

PAIRINGS = ("identity", "hungarian")

# the scores a public function cannot give without generated labels
_CONDITIONAL = frozenset({"bcis", "wcis", "per_class_is", "bcfid", "wcfid", "cfid_sum"})

# the report fields that hold each point's sum over the trials until they are scored
_FID_FAMILY = ("fid", "bcfid", "wcfid", "per_class_fid")

_FEATURES = "features on both sides; --real-features and --gen-features are missing"

# option -> (default, the argument that reads it, what is missing): any other
# value is refused without that argument.  seed is read by every run.
_OPTION_READERS = {
    "subset_size": (None, "real_features", _FEATURES),
    "trials": (1, "subset_size", "--subset-size"),
    "real_labels": (None, "real_features", _FEATURES),
    "pairing": ("identity", "real_features", _FEATURES),
}


def _column_sets(d: int, subset_size: int | None, trials: int, seed: int):
    """The FID family's column sets and score divisor: all columns as one trial
    at scale 1, or ``trials`` lazy draws of ``subset_size`` of the d columns."""
    if subset_size is None:
        return [slice(None)], 1.0
    if not 1 <= subset_size <= d:
        raise InvalidInputError(f"subset_size must be in [1, {d}], got {subset_size}")
    if trials < 1:
        raise InvalidInputError(f"trials must be >= 1, got {trials}")
    rng = rng_for(seed)
    cols = (np.sort(rng.choice(d, size=subset_size, replace=False)) for _ in range(trials))
    return cols, float(subset_size)


def _score_fid(report: MetricReport, trials: int, scale: float) -> None:
    """Turn the FID family of ``report``, each score's sum over the trials (None
    where not computed), into its mean over the trials divided by ``scale``."""
    for name in _FID_FAMILY:
        total = getattr(report, name)
        if total is not None:
            setattr(report, name, total / trials / scale)
    if report.wcfid is not None:
        report.cfid_sum = report.bcfid + report.wcfid


def _evaluation(row_sets, *, real_features=None, real_labels=None, gen_features=None,
                gen_labels=None, probs=None, subset_size=None, trials=1, seed=0,
                pairing="identity", mapping=None, scores=None):
    """One report per point of ``row_sets(checked gen_labels, k)``, an iterable
    of ``(rows, label vectors)``: the generated rows ``rows`` (all of them if
    None) and the checked generated labels of each point scored on them.  The
    label-independent work (the IS row quantities, the generated pooled
    Gaussian and fid) is done once per row set.  Pairing "identity" compares
    class c with real class mapping[c] (c without a mapping); "hungarian"
    discovers each point's pairing from its class averages of the cleaned
    probability rows.  ``scores`` (report fields; None for all) limits the FID
    family to the stages they read.  A probability file's rows are checked as
    the IS pass reads them: after the other inputs, before any FID work."""
    seed = _as_seed(seed)
    trials = _as_int(trials, "trials")
    subset_size = None if subset_size is None else _as_int(subset_size, "subset_size")
    if pairing not in PAIRINGS:
        raise InvalidInputError(f"unknown pairing {pairing!r}, expected one of {PAIRINGS}")
    if probs is None and real_features is None and gen_features is None:
        raise ConfigError("no inputs given; nothing to compute")
    if (real_features is None) != (gen_features is None):
        missing = "--gen-features" if gen_features is None else "--real-features"
        raise ConfigError(f"metric fid needs features on both sides; {missing} is missing")
    given = dict(subset_size=subset_size, trials=trials, real_labels=real_labels,
                 pairing=pairing, real_features=real_features)
    for name, (default, reader, missing) in _OPTION_READERS.items():
        value = given[name]
        if given[reader] is None and (value is not None if default is None else value != default):
            shown = f" {value}" if isinstance(value, str) else ""
            raise ConfigError(f"option --{name.replace('_', '-')}{shown} needs {missing}")
    if real_features is not None and (real_labels is None) != (gen_labels is None):
        missing = "--gen-labels" if gen_labels is None else "--real-labels"
        raise ConfigError(
            f"metrics bcfid/wcfid need labels on both sides; {missing} is missing")
    conditional = _CONDITIONAL.intersection(scores or ())
    if conditional and gen_labels is None:
        raise ConfigError(
            f"metric {min(conditional)} needs generated labels; --gen-labels is missing")
    discover = pairing == "hungarian"
    if discover and (probs is None or gen_labels is None):
        missing = "--probs" if probs is None else "--gen-labels"
        raise ConfigError(
            f"metric wcfid with pairing=hungarian needs {missing} "
            "to discover the class mapping")
    pooled_stage = scores is None or "fid" in scores
    class_stage = scores is None or not {"wcfid", "cfid_sum"}.isdisjoint(scores)

    k = None
    if probs is not None:
        probs = _probability_rows(probs)
        k = probs.shape[1]
    if real_features is not None:
        rf, gf = as_feature_matrix(real_features), as_feature_matrix(gen_features)
        if rf.shape[1] != gf.shape[1]:
            raise InvalidInputError(f"feature dimension mismatch: {rf.shape[1]} vs {gf.shape[1]}")
        if real_labels is not None:
            real_labels = as_label_vector(real_labels, k, n=rf.shape[0])
    if gen_labels is not None:
        gen_labels = as_label_vector(gen_labels, k, n=None if real_features is None else len(gf))
    if probs is not None and gen_labels is not None:
        _check_rows(gen_labels, probs.shape[0])
    if k is None and gen_labels is not None:
        # no probabilities: the classes are those the labels reach; without
        # labels (unconditional fid) no score needs k
        k = _class_count(real_labels, gen_labels)
    if real_features is not None:
        column_sets, scale = _column_sets(rf.shape[1], subset_size, trials, seed)
    fixed = None if k is None else _resolve_mapping(mapping, k)
    # the strictest score that reads a split sets its least class size
    least = 2 if real_features is not None and class_stage else 1
    real = None if real_labels is None else _class_split(real_labels, k, least, "real")
    rule = (k, least, "conditioned" if real is None else "generated")
    row_sets = [(rows, labelled, [y if y is None else _class_split(y, *rule) for y in labelled])
                for rows, labelled in row_sets(gen_labels, k)]

    reports, points, sets = [], [], []  # per point: (rows, split, mapping), its row set
    for r, (rows, labelled, splits) in enumerate(row_sets):
        scored = [] if probs is None or gen_labels is None else labelled
        is_, sums = None, []
        if probs is not None:
            (neg_entropy, predicted, is_), sums = _is_pass(
                probs if rows is None else probs.take(rows), scored, k)
        for i, (labels, split) in enumerate(zip(labelled, splits)):
            report = MetricReport(is_=is_, pairing=pairing, seed=seed)
            if scored:
                report.bcis, report.wcis, report.per_class_is = _is_classes(
                    neg_entropy, sums[i], *split)
                report.accuracy, report.per_class_accuracy = _accuracy(predicted, labels, k)
            sizes = None if split is None else [[c.size] for c in split[0]]  # K x 1
            mapping = hungarian_max(sums[i] / sizes).mapping if discover else fixed
            if real is not None and [[real[0][c].size] for c in mapping] != sizes:
                report.warnings.append(
                    "per-class sample counts differ between the real and generated "
                    "sides; the conditional-bound guarantees assume matched counts")
            reports.append(report)
            points.append((rows, split, mapping))
            sets.append(r)
    sums = neg_entropy = predicted = None  # hold no row set's arrays through the FID family
    if real_features is None:
        return reports

    for cols in column_sets:
        rx, gx = rf[:, cols], gf[:, cols]
        fids = [None] * len(row_sets)
        if pooled_stage:
            pooled = _estimate_gaussian(rx)
            # not gx[rows]: its layout, and so its round-off, differs from gf[rows][:, cols]'s
            fids = [frechet_distance(pooled, _estimate_gaussian(
                gx if rows is None else gf[rows][:, cols])) for rows, _, _ in row_sets]
            del pooled
        classes = [(None,) * 3] * len(points) if real is None else _class_scores(
            rx, real, gx, points, means_only=not class_stage)
        for report, r, (between, within, per) in zip(reports, sets, classes):
            for name, value in zip(_FID_FAMILY, (fids[r], between, within, per)):
                total = getattr(report, name)  # each point's sum over the trials so far
                setattr(report, name, value if total is None else total + value)
        del rx, gx  # before the next trial's columns are gathered
    for report in reports:
        report.dims_used = rf.shape[1] if subset_size is None else subset_size
        _score_fid(report, trials, scale)
    return reports


def _one_point(labels, _k):
    return [(None, [labels])]


def _report(score: str, **inputs) -> MetricReport:
    """The one report on ``inputs``, from only the stages ``score`` reads."""
    return _evaluation(_one_point, scores={score}, **inputs)[0]


def inception_score(probs) -> float:
    """exp of the mean KL from each predicted distribution to their average.

    Equals exp of the mutual information between samples and predicted
    labels at the empirical level; always in [1, K].
    """
    return _report("is_", probs=probs).is_


def bcis(probs, labels) -> float:
    """Between-class score: inception score of the per-class average distributions."""
    return _report("bcis", probs=probs, gen_labels=labels).bcis


def wcis(probs, labels) -> float:
    """Within-class score: exp of the class-weighted mean within-class KL."""
    return _report("wcis", probs=probs, gen_labels=labels).wcis


def per_class_is(probs, labels) -> np.ndarray:
    """Per-class within-class score; class weights combine these into wcis."""
    return _report("per_class_is", probs=probs, gen_labels=labels).per_class_is


def fid(real_features, gen_features) -> float:
    """Fréchet distance between the Gaussian fits of two feature populations."""
    return _report("fid", real_features=real_features, gen_features=gen_features).fid


def bcfid(real_features, real_labels, gen_features, gen_labels) -> float:
    """Fréchet distance between the real and generated class-mean distributions."""
    return _report("bcfid", real_features=real_features, real_labels=real_labels,
                   gen_features=gen_features, gen_labels=gen_labels).bcfid


def wcfid(real_features, real_labels, gen_features, gen_labels, *,
          pairing=None) -> tuple[float, np.ndarray]:
    """Class-weighted mean of per-class Fréchet distances (needs >= 2 per class),
    and the per-class vector; class c is compared with real class pairing[c]."""
    report = _report("wcfid", real_features=real_features, real_labels=real_labels,
                     gen_features=gen_features, gen_labels=gen_labels, mapping=pairing)
    return report.wcfid, report.per_class_fid


def cfid_sum(real_features, real_labels, gen_features, gen_labels, *,
             pairing=None) -> float:
    """bcfid + wcfid: a single conditional score that upper-bounds fid."""
    return _report("cfid_sum", real_features=real_features, real_labels=real_labels,
                   gen_features=gen_features, gen_labels=gen_labels, mapping=pairing).cfid_sum


def build_report(
    *,
    real_features=None,
    real_labels=None,
    gen_features=None,
    gen_labels=None,
    probs=None,
    subset_size: int | None = None,
    trials: int = 1,
    seed: int = 0,
    pairing: str = "identity",
) -> MetricReport:
    """Compute every metric its inputs allow and collect them into one report.

    The probability-based family needs ``probs``, an N x K array or
    ``ProbabilityRows`` such as ``open_probabilities(path)`` (and
    ``gen_labels`` for the conditional members); the feature-based family
    needs features on both sides (and labels on both sides for the
    conditional members).  A warning
    is recorded when the per-class sample counts of the two sides differ,
    since the conditional-bound guarantees assume matched counts.
    """
    return _evaluation(
        _one_point,
        real_features=real_features, real_labels=real_labels, gen_features=gen_features,
        gen_labels=gen_labels, probs=probs, subset_size=subset_size, trials=trials,
        seed=seed, pairing=pairing)[0]


def sweep_label_noise(
    *,
    gen_labels,
    grid=tuple(i / 10 for i in range(11)),
    real_features=None,
    real_labels=None,
    gen_features=None,
    probs=None,
    subset_size: int | None = None,
    trials: int = 1,
    seed: int = 0,
    pairing: str = "identity",
) -> list[tuple[float, MetricReport]]:
    """One report per noise fraction p of ``grid`` (by default 0, 0.1, ..., 1);
    the point at index i noises the generated labels with the stream of one
    integer drawn from ``rng_for(seed, i)``."""
    if gen_labels is None:
        raise ConfigError("label_noise sweep needs generated labels")
    grid = _as_finite(grid, "grid")[0].reshape(-1).tolist()
    if not grid:
        raise InvalidInputError("grid is empty")
    reports = _evaluation(
        lambda labels, _k: [(None, [_label_noise(labels, p, _point_seed(seed, i))
                                    for i, p in enumerate(grid)])],
        real_features=real_features, real_labels=real_labels, gen_features=gen_features,
        gen_labels=gen_labels, probs=probs, subset_size=subset_size, trials=trials,
        seed=seed, pairing=pairing)
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
    subset_size: int | None = None,
    trials: int = 1,
    seed: int = 0,
    pairing: str = "identity",
) -> list[tuple[float, MetricReport]]:
    """One report per collapse step; the generated side at step s is the
    emitted dataset of the staged pool-shrinking simulation."""
    if gen_features is None or gen_labels is None:
        raise ConfigError("mode_collapse sweep needs generated features and labels")
    reports = _evaluation(
        lambda labels, k: [(idx, [labels[idx]])
                           for idx in _mode_collapse_indices(labels, k, schedule, seed)],
        real_features=real_features, real_labels=real_labels, gen_features=gen_features,
        gen_labels=gen_labels, probs=probs, subset_size=subset_size, trials=trials,
        seed=seed, pairing=pairing)
    return [(float(step), report) for step, report in enumerate(reports)]
