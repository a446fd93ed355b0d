"""Every public entry point rejects malformed arrays with InvalidInputError.

Text, ragged, complex and non-finite input is substituted for one array
argument of an otherwise valid call.  Warnings are errors under this
directory (see conftest.py), so a check that lets numpy warn first, as a
complex-to-float cast does, fails here too.
"""

import numpy as np
import pytest

from condmetrics import (
    ClassAssignment,
    CollapseSchedule,
    GaussianStats,
    InvalidInputError,
    MixtureSpec,
    accuracy,
    average_class_probabilities,
    bcfid,
    bcfid_from_stats,
    bcis,
    build_report,
    cfid_sum,
    class_conditional_from_moments,
    class_conditional_stats,
    dirichlet_rows,
    estimate_gaussian,
    fid,
    gen_tightness_case,
    hungarian_max,
    inception_score,
    label_noise,
    mode_collapse_indices,
    per_class_is,
    sweep_label_noise,
    sweep_mode_collapse,
    tightness_population,
    wcfid,
    wcfid_from_stats,
    wcis,
)
from condmetrics.metrics import _as_int, as_label_vector
from condmetrics.synth import rng_for

LABELS = np.array([0, 1, 0, 1, 0, 1])
FEATURES = rng_for(1).normal(0.0, 1.0, (6, 2))
GEN_FEATURES = FEATURES + 0.5
PROBS = np.array([[0.9, 0.1], [0.2, 0.8], [0.7, 0.3], [0.4, 0.6], [0.6, 0.4], [0.1, 0.9]])
SCHEDULE = CollapseSchedule(steps=2, per_class_sample=2)


def feature_args(**extra):
    return dict(real_features=FEATURES, real_labels=LABELS, gen_features=GEN_FEATURES,
                gen_labels=LABELS, **extra)


# name -> (function, valid keyword arguments, the array arguments to corrupt)
CALLS = {
    "inception_score": (inception_score, dict(probs=PROBS), ["probs"]),
    "bcis": (bcis, dict(probs=PROBS, labels=LABELS), ["probs", "labels"]),
    "wcis": (wcis, dict(probs=PROBS, labels=LABELS), ["probs", "labels"]),
    "per_class_is": (per_class_is, dict(probs=PROBS, labels=LABELS), ["probs", "labels"]),
    "accuracy": (accuracy, dict(probs=PROBS, labels=LABELS), ["probs", "labels"]),
    "fid": (fid, dict(real_features=FEATURES, gen_features=GEN_FEATURES),
            ["real_features", "gen_features"]),
    "bcfid": (bcfid, feature_args(),
              ["real_features", "real_labels", "gen_features", "gen_labels"]),
    "wcfid": (wcfid, feature_args(),
              ["real_features", "real_labels", "gen_features", "gen_labels"]),
    "cfid_sum": (cfid_sum, feature_args(),
                 ["real_features", "real_labels", "gen_features", "gen_labels"]),
    "build_report": (build_report, feature_args(probs=PROBS),
                     ["real_features", "real_labels", "gen_features", "gen_labels", "probs"]),
    "build_report_subset": (
        build_report, feature_args(subset_size=1, trials=2, seed=0),
        ["real_features", "real_labels", "gen_features", "gen_labels"]),
    "sweep_label_noise": (sweep_label_noise, feature_args(probs=PROBS, grid=[0.0, 0.5]),
                          ["real_features", "real_labels", "gen_features", "gen_labels",
                           "probs", "grid"]),
    "sweep_mode_collapse": (sweep_mode_collapse, feature_args(probs=PROBS, schedule=SCHEDULE),
                            ["real_features", "real_labels", "gen_features", "gen_labels",
                             "probs"]),
    "estimate_gaussian": (estimate_gaussian, dict(features=FEATURES), ["features"]),
    "GaussianStats": (GaussianStats, dict(mean=[0.0, 1.0], cov=[[2.0, 0.5], [0.5, 1.0]]),
                      ["mean", "cov"]),
    "class_conditional_stats": (class_conditional_stats,
                                dict(features=FEATURES, labels=LABELS),
                                ["features", "labels"]),
    "class_conditional_from_moments": (
        class_conditional_from_moments,
        dict(means=[[0.0, 1.0], [1.0, 0.0]], covs=[np.eye(2), 2.0 * np.eye(2)],
             priors=[0.25, 0.75]),
        ["means", "covs", "priors"]),
    "hungarian_max": (hungarian_max, dict(value=[[0.2, 0.8], [0.6, 0.4]]), ["value"]),
    "average_class_probabilities": (average_class_probabilities,
                                    dict(probs=PROBS, conds=LABELS), ["probs", "conds"]),
    "MixtureSpec": (MixtureSpec,
                    dict(means=[[0.0, 0.0], [1.0, 2.0]], covs=[np.eye(2), 2.0 * np.eye(2)],
                         counts=[3, 4]),
                    ["means", "covs", "counts"]),
    "tightness_population": (tightness_population, dict(sigma=[1.0, 2.0]), ["sigma"]),
    "gen_tightness_case": (gen_tightness_case,
                           dict(sigma_real=[1.0, 2.0], sigma_gen=[2.0, 1.0], n_per_class=3,
                                seed=0),
                           ["sigma_real", "sigma_gen"]),
    "dirichlet_rows": (dirichlet_rows, dict(alpha=[1.0, 2.0], n=3, seed=0), ["alpha"]),
    "label_noise": (label_noise, dict(labels=LABELS, p=0.5, seed=0), ["labels"]),
    "mode_collapse_indices": (mode_collapse_indices,
                              dict(labels=LABELS, schedule=SCHEDULE, seed=0), ["labels"]),
}


def _ragged(a: np.ndarray):
    """a as nested lists whose innermost last list is one entry short."""
    x = a.tolist()
    if a.ndim < 2:
        return [x, [x]]
    inner = x
    for _ in range(a.ndim - 2):
        inner = inner[-1]
    inner[-1] = inner[-1][:-1]
    return x


def _with_first(a: np.ndarray, value):
    """A copy of a whose first entry is value; nested lists for a text value."""
    out = a.astype(object if isinstance(value, str) else np.float64)
    out.flat[0] = value
    return out.tolist() if isinstance(value, str) else out


BAD = {
    "text": lambda a: _with_first(a, "abc"),
    "ragged": _ragged,
    "complex": lambda a: a + 1j,
    "nan": lambda a: _with_first(a, np.nan),
    "inf": lambda a: _with_first(a, np.inf),
    "-inf": lambda a: _with_first(a, -np.inf),
}

CASES = [(name, arg) for name, (_, _, args) in CALLS.items() for arg in args]


@pytest.mark.parametrize("name", list(CALLS))
def test_valid_call_passes(name):
    fn, kwargs, _ = CALLS[name]
    fn(**kwargs)


@pytest.mark.parametrize("bad", list(BAD))
@pytest.mark.parametrize("name, arg", CASES, ids=[f"{n}-{a}" for n, a in CASES])
def test_malformed_array_is_invalid_input(name, arg, bad):
    fn, kwargs, _ = CALLS[name]
    corrupted = BAD[bad](np.asarray(kwargs[arg], dtype=np.float64))
    with pytest.raises(InvalidInputError):
        fn(**{**kwargs, arg: corrupted})


def _stats_pair():
    return (class_conditional_stats(FEATURES, LABELS),
            class_conditional_stats(GEN_FEATURES, LABELS))


PAIRING_CALLS = {
    "wcfid": lambda pairing: wcfid(**feature_args(), pairing=pairing),
    "wcfid_from_stats": lambda pairing: wcfid_from_stats(*_stats_pair(), pairing),
    "ClassAssignment": lambda pairing: ClassAssignment(mapping=pairing, score=0.0),
}


@pytest.mark.parametrize("pairing", [[0.5, 1.5], [1.9, 0.2], [True, False], ["1", "0"]],
                         ids=["fractional", "truncates-to-permutation", "bool", "text"])
@pytest.mark.parametrize("name", list(PAIRING_CALLS))
def test_non_integral_pairing_is_invalid_input(name, pairing):
    with pytest.raises(InvalidInputError):
        PAIRING_CALLS[name](pairing)


@pytest.mark.parametrize("name", list(PAIRING_CALLS))
def test_integral_float_pairing_equals_integer_pairing(name):
    swapped = PAIRING_CALLS[name]([1, 0])
    assert repr(PAIRING_CALLS[name]([1.0, 0.0])) == repr(swapped)


@pytest.mark.parametrize("labels", [[1e30, 0.0], [2.0**63, 0.0]], ids=["1e30", "2^63"])
def test_integral_float_beyond_int64_is_not_a_label(labels):
    with pytest.raises(InvalidInputError, match=r"label vector must be integers \(row 0 is not\)"):
        label_noise(labels, 0.0, 0)


@pytest.mark.parametrize("call, value", [
    (lambda: _as_int(np.uint64(2**64 - 1), "n"), 2**64 - 1),
    (lambda: _as_int(np.uint64(2**63), "n"), 2**63),
    (lambda: as_label_vector(np.array([2**64 - 1, 0], dtype=np.uint64), 3), 2**64 - 1),
    (lambda: label_noise(np.array([2**63, 1], dtype=np.uint64), 0.0, 0), 2**63),
], ids=["_as_int-2^64-1", "_as_int-2^63", "as_label_vector", "label_noise"])
def test_unsigned_value_beyond_int64_is_named_not_wrapped(call, value):
    # an int64 cast would read these as negative numbers
    with pytest.raises(InvalidInputError, match=rf" must be below 2\^63, got {value}$"):
        call()


def test_unsigned_values_within_int64_equal_signed_ones():
    assert _as_int(np.uint64(2**63 - 1), "n") == 2**63 - 1
    labels = np.array([2, 0, 1], dtype=np.uint64)
    assert np.array_equal(as_label_vector(labels, 3), [2, 0, 1])
    assert np.array_equal(label_noise(labels, 1.0, 4), label_noise([2, 0, 1], 1.0, 4))


SEED_RULE = r"seed must be an integer in \[0, 2\^63\), got "


@pytest.mark.parametrize("options, message", [
    (dict(seed=-1), SEED_RULE + "-1$"),
    (dict(seed=2**70), SEED_RULE + f"{2**70}$"),
    (dict(seed=np.uint64(2**63)), SEED_RULE + f"{2**63}$"),
    (dict(seed=1.5), "seed must be an integer, got 1.5"),
    (dict(seed="3"), "seed has unsupported dtype"),
    (dict(seed=True), "seed has unsupported dtype bool"),
    (dict(subset_size=2.5), "subset_size must be an integer, got 2.5"),
    (dict(subset_size="1"), "subset_size has unsupported dtype"),
    (dict(subset_size=True), "subset_size has unsupported dtype bool"),
    (dict(subset_size=1, trials=2.5), "trials must be an integer, got 2.5"),
    (dict(subset_size=1, trials="2"), "trials has unsupported dtype"),
    (dict(subset_size=1, trials=True), "trials has unsupported dtype bool"),
    (dict(subset_size=1, trials=0), "^trials must be >= 1, got 0$"),
], ids=["seed-negative", "seed-2^70", "seed-uint64-2^63", "seed-fraction", "seed-text",
        "seed-bool", "subset-fraction", "subset-text", "subset-bool", "trials-fraction",
        "trials-text", "trials-bool", "trials-zero"])
def test_seed_and_subsampling_counts_follow_the_integer_rule(options, message):
    with pytest.raises(InvalidInputError, match=message):
        build_report(**feature_args(), **options)


@pytest.mark.parametrize("call", [
    lambda: rng_for(-1),
    lambda: rng_for(2**63),
    lambda: rng_for(1.5),
    lambda: rng_for("3"),
    lambda: label_noise(LABELS, 0.5, seed=-1),
    lambda: dirichlet_rows([1.0, 2.0], 3, seed=-3),
    lambda: gen_tightness_case([1.0, 2.0], [2.0, 1.0], 3, seed=2.5),
    lambda: mode_collapse_indices(LABELS, SCHEDULE, seed=-2),
    lambda: sweep_label_noise(**feature_args(), grid=[0.5], seed=-2),
], ids=["rng_for-negative", "rng_for-2^63", "rng_for-fraction", "rng_for-text",
        "label_noise", "dirichlet_rows", "gen_tightness_case", "mode_collapse_indices",
        "sweep_label_noise"])
def test_every_seed_follows_the_integer_rule(call):
    with pytest.raises(InvalidInputError, match="^seed "):
        call()


KEY_RULE = r"^key 1 must be an integer in \[0, 2\^63\), got "


@pytest.mark.parametrize("key, message", [
    (-1, KEY_RULE + "-1$"),
    (2**63, KEY_RULE + f"{2**63}$"),
    (np.uint64(2**63), KEY_RULE + f"{2**63}$"),
    (1.5, "^key 1 must be an integer, got 1.5$"),
    ("a", "^key 1 has unsupported dtype"),
    (True, "^key 1 has unsupported dtype bool$"),
], ids=["negative", "2^63", "uint64-2^63", "fraction", "text", "bool"])
def test_every_rng_key_follows_the_integer_rule(key, message):
    with pytest.raises(InvalidInputError, match=message):
        rng_for(0, 2, key)


def test_integral_float_seed_equals_integer_seed():
    options = dict(subset_size=1.0, trials=2.0)
    assert repr(build_report(**feature_args(), seed=3.0, **options)) == \
        repr(build_report(**feature_args(), seed=3, subset_size=1, trials=2))
    assert np.array_equal(rng_for(np.int64(3)).random(4), rng_for(3.0).random(4))
    assert np.array_equal(rng_for(3, np.int64(2)).random(4), rng_for(3, 2.0).random(4))


@pytest.mark.parametrize("call, message", [
    (lambda: CollapseSchedule(shrink_factor="a"), "^shrink_factor has unsupported dtype"),
    (lambda: CollapseSchedule(shrink_factor=[0.5]), "^shrink_factor must be one number"),
    (lambda: CollapseSchedule(shrink_factor=np.nan), "^shrink_factor contains non-finite"),
    (lambda: CollapseSchedule(shrink_factor=1.0), r"^shrink_factor must be in \(0, 1\)$"),
    (lambda: label_noise(LABELS, p="0.5", seed=0), "^noise fraction has unsupported dtype"),
    (lambda: label_noise(LABELS, p=[0.5], seed=0), "^noise fraction must be one number"),
    (lambda: label_noise(LABELS, p=np.inf, seed=0), "^noise fraction contains non-finite"),
], ids=["shrink-text", "shrink-vector", "shrink-nan", "shrink-range", "noise-text",
        "noise-vector", "noise-inf"])
def test_scalar_fraction_is_one_finite_number(call, message):
    with pytest.raises(InvalidInputError, match=message):
        call()


@pytest.mark.parametrize("call", [
    lambda: gen_tightness_case([1.0, 2.0], [2.0, 1.0], n_per_class="3", seed=0),
    lambda: dirichlet_rows([1.0, 2.0], n=2.5, seed=0),
    lambda: dirichlet_rows([1.0, 2.0], n=[3], seed=0),
    lambda: CollapseSchedule(collapsed_classes=("a",)),
    lambda: CollapseSchedule(steps="2"),
    lambda: ClassAssignment(mapping=None, score=0.0),
], ids=["n_per_class-text", "n-fraction", "n-vector", "collapsed-classes-text", "steps-text",
        "mapping-none"])
def test_non_integer_count_or_index_is_invalid_input(call):
    with pytest.raises(InvalidInputError):
        call()


THREE_CLASSES = np.array([0, 1, 2, 0, 1, 2])


@pytest.mark.parametrize("call, message", [
    (lambda: inception_score([0.5, 0.5]), r"probability matrix must be 2-D, got shape \(2,\)"),
    (lambda: class_conditional_from_moments([[0.0], [1.0]], [[[1.0]], [[1.0]]], [0.5, 0.6]),
     "priors must be non-negative and sum to 1"),
    (lambda: wcfid(FEATURES, THREE_CLASSES, GEN_FEATURES, THREE_CLASSES, pairing=[0, 0, 1]),
     r"pairing must be a permutation of \[0, 3\)"),
    (lambda: bcfid_from_stats(class_conditional_stats(FEATURES, LABELS),
                              class_conditional_stats(GEN_FEATURES, THREE_CLASSES)),
     "class count mismatch: 2 vs 3"),
    (lambda: wcfid_from_stats(class_conditional_stats(FEATURES, THREE_CLASSES),
                              class_conditional_stats(GEN_FEATURES, LABELS)),
     "class count mismatch: 3 vs 2"),
    (lambda: fid(FEATURES[0], GEN_FEATURES), r"feature matrix must be 2-D, got shape \(2,\)"),
    (lambda: GaussianStats(mean=[], cov=np.zeros((0, 0))), "mean vector must be non-empty"),
    (lambda: MixtureSpec(means=[[0.0]], covs=1.0, counts=[2]),
     "covs must be a sequence of covariances, one per class, got float"),
    (lambda: MixtureSpec(means=[[0.0]], covs=None, counts=[2]),
     "covs must be a sequence of covariances, one per class, got NoneType"),
    (lambda: MixtureSpec(means=[[0.0], [1.0]], covs=[[1.0]], counts=[2, 2]),
     "expected 2 covariances, got 1"),
    (lambda: MixtureSpec(means=[[0.0, 0.0]], covs=[[1.0, 1.0, 1.0]], counts=[2]),
     "diagonal covariance 0 has wrong length"),
    (lambda: MixtureSpec(means=[[0.0, 0.0]], covs=[np.eye(3)], counts=[2]),
     r"covariance 0 has shape \(3, 3\), expected \(2, 2\)"),
    (lambda: tightness_population([1.0, 2.0, 3.0]),
     r"sigma must be 2 non-negative real\(s\), got \[1.0, 2.0, 3.0\]"),
    (lambda: gen_tightness_case([1.0, 2.0], [2.0, 1.0], n_per_class=1, seed=0),
     "n_per_class must be >= 2"),
    (lambda: CollapseSchedule(steps=0), "steps must be >= 1"),
    (lambda: CollapseSchedule(per_class_sample=0), "per_class_sample must be >= 1"),
    (lambda: dirichlet_rows([1.0, 2.0], n=0, seed=0), "n must be >= 1"),
], ids=["probs-1-d", "priors-sum", "pairing-repeated", "bcfid-class-counts",
        "wcfid-class-counts", "features-1-d", "mean-empty", "covs-scalar", "covs-none",
        "covs-count", "covs-diagonal-length", "covs-shape", "sigma-count", "pair-n-one",
        "steps-zero", "per-class-sample-zero", "dirichlet-n-zero"])
def test_argument_outside_its_domain_is_invalid_input(call, message):
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("call", [
    lambda schedule: sweep_mode_collapse(**feature_args(), schedule=schedule),
    lambda schedule: mode_collapse_indices(LABELS, schedule, 0),
], ids=["sweep_mode_collapse", "mode_collapse_indices"])
@pytest.mark.parametrize("schedule, shown", [(None, "NoneType"), ({"steps": 2}, "dict")],
                         ids=["none", "dict"])
def test_schedule_that_is_not_a_collapse_schedule_is_invalid_input(call, schedule, shown):
    with pytest.raises(InvalidInputError,
                       match=f"^schedule must be a CollapseSchedule, got {shown}$"):
        call(schedule)
