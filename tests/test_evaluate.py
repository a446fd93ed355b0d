import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condmetrics import (
    ConfigError,
    InvalidInputError,
    MixtureSpec,
    accuracy,
    average_class_probabilities,
    bcfid,
    bcis,
    build_report,
    cfid_sum,
    fid,
    gen_mixture,
    hungarian_max,
    inception_score,
    per_class_is,
    wcfid,
    wcis,
)
from condmetrics.evaluate import _point_seed, sweep_label_noise, sweep_mode_collapse
from condmetrics.metrics import PROB_FLOOR
from condmetrics.report import report_to_json
from condmetrics.synth import (
    CollapseSchedule,
    dirichlet_rows,
    label_noise,
    mode_collapse_indices,
    rng_for,
)


def make_instance(seed=0, k=3, d=4, n_per_class=60, shift=0.0):
    means = rng_for(seed, 99).normal(0.0, 3.0, (k, d)) + shift
    spec = MixtureSpec(means, [np.eye(d)] * k, [n_per_class] * k, seed=seed)
    return gen_mixture(spec)


def one_hot_dominant(labels, k, strength=0.9, seed=0):
    rng = rng_for(seed)
    rows = rng.uniform(0.0, 1.0 - strength, (labels.size, k))
    rows[np.arange(labels.size), labels] += strength
    return rows / rows.sum(axis=1, keepdims=True)


def assert_report_equals_standalone(x, y, g, gy, probs, *, pairing="identity",
                                    subset_size=None):
    """build_report's fields are == the standalone functions on the same inputs
    and, with subset_size and the identity pairing, its subsampled fields are ==
    those of the same subsampled report without probabilities."""
    inputs = dict(real_features=x, real_labels=y, gen_features=g, gen_labels=gy,
                  probs=probs, pairing=pairing)
    rep = build_report(**inputs)
    mapping = (hungarian_max(average_class_probabilities(probs, gy)).mapping
               if pairing == "hungarian" else None)
    if probs is not None:
        assert rep.is_ == inception_score(probs)
        assert rep.bcis == bcis(probs, gy)
        assert rep.wcis == wcis(probs, gy)
        assert np.array_equal(rep.per_class_is, per_class_is(probs, gy))
        overall, per_acc = accuracy(probs, gy)
        assert rep.accuracy == overall
        assert np.array_equal(rep.per_class_accuracy, per_acc)
    assert rep.fid == fid(x, g)
    assert rep.bcfid == bcfid(x, y, g, gy)
    total, per_fid = wcfid(x, y, g, gy, pairing=mapping)
    assert rep.wcfid == total
    assert np.array_equal(rep.per_class_fid, per_fid)
    assert rep.cfid_sum == cfid_sum(x, y, g, gy, pairing=mapping)
    if subset_size is not None and pairing == "identity":
        sub_rep = build_report(subset_size=subset_size, trials=3, seed=5, **inputs)
        suite = build_report(real_features=x, real_labels=y, gen_features=g, gen_labels=gy,
                             subset_size=subset_size, trials=3, seed=5)
        for key in ("fid", "bcfid", "wcfid", "cfid_sum", "dims_used", "pairing"):
            assert getattr(sub_rep, key) == getattr(suite, key)
        assert np.array_equal(sub_rep.per_class_fid, suite.per_class_fid)
    return rep, mapping


class TestBuildReport:
    def test_identical_sides_give_zero_distances(self):
        x, y = make_instance(seed=1)
        probs = one_hot_dominant(y, 3, seed=2)
        rep = build_report(
            real_features=x, real_labels=y, gen_features=x, gen_labels=y,
            probs=probs)
        assert rep.fid <= 1e-9
        assert rep.bcfid <= 1e-9
        assert rep.wcfid <= 1e-9
        assert rep.cfid_sum == rep.bcfid + rep.wcfid
        assert rep.is_ == pytest.approx(rep.bcis * rep.wcis, rel=1e-9)
        assert rep.dims_used == 4
        assert rep.warnings == []
        assert rep.accuracy == 1.0

    @pytest.mark.parametrize("pairing", ["identity", "hungarian"])
    def test_fields_equal_standalone_functions(self, pairing):
        k, d = 3, 4
        means = rng_for(20).normal(0.0, 3.0, (k, d))
        x, y = gen_mixture(MixtureSpec(means, [np.eye(d)] * k, [30, 50, 70], seed=21))
        g, gy = gen_mixture(MixtureSpec(means + 0.3, [np.eye(d)] * k, [40, 50, 60], seed=22))
        # generated condition c is predicted as class (c + 1) % k
        probs = one_hot_dominant((gy + 1) % k, k, strength=0.6, seed=23)
        _, mapping = assert_report_equals_standalone(x, y, g, gy, probs, pairing=pairing)
        if mapping is not None:
            assert mapping.tolist() == [1, 2, 0]

    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 4), d=st.integers(1, 5),
           pairing=st.sampled_from(["identity", "hungarian"]))
    @settings(max_examples=40, deadline=None)
    def test_fields_equal_standalone_functions_on_random_shapes(self, seed, k, d, pairing):
        rng = rng_for(seed)
        y = rng.permutation(np.repeat(np.arange(k), rng.integers(2, 7, k)))
        gy = rng.permutation(np.repeat(np.arange(k), rng.integers(2, 7, k)))
        x = rng.normal(0.0, 1.0, (y.size, d)) + y[:, None]
        g = rng.normal(0.2, 1.5, (gy.size, d)) + gy[:, None]
        probs = one_hot_dominant(rng.permutation(k)[gy], k, strength=0.5, seed=seed)
        assert_report_equals_standalone(
            x, y, g, gy, probs, pairing=pairing, subset_size=int(rng.integers(1, d + 1)))

    def test_probs_only_skips_fid_family(self):
        _, y = make_instance(seed=3)
        probs = one_hot_dominant(y, 3, seed=4)
        rep = build_report(probs=probs, gen_labels=y)
        assert rep.fid is None and rep.bcfid is None and rep.wcfid is None
        assert rep.per_class_fid is None
        assert rep.dims_used is None
        assert rep.is_ is not None and rep.bcis is not None

    def test_features_only_skips_is_family(self):
        x, y = make_instance(seed=5)
        g, gy = make_instance(seed=6)
        rep = build_report(
            real_features=x, real_labels=y, gen_features=g, gen_labels=gy)
        assert rep.is_ is None and rep.bcis is None and rep.accuracy is None
        assert rep.fid is not None and rep.cfid_sum is not None

    def test_unlabelled_features_need_no_k(self):
        x, _ = make_instance(seed=5)
        g, _ = make_instance(seed=6, shift=0.5)
        rep = build_report(real_features=x, gen_features=g)
        assert rep.fid == fid(x, g)
        assert rep.bcfid is None and rep.per_class_fid is None and rep.is_ is None

    def test_feature_inputs_need_no_eigendecomposition(self, monkeypatch):
        # sample covariances are PSD factors by construction: no PSD check, no root
        def forbidden(*_args, **_kwargs):
            raise AssertionError("eigendecomposition on the feature path")

        x, y = make_instance(seed=7, d=12, n_per_class=5)
        g, gy = make_instance(seed=8, d=12, n_per_class=5, shift=0.5)
        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        rep = build_report(real_features=x, real_labels=y, gen_features=g, gen_labels=gy)
        assert rep.fid > 0.0 and rep.bcfid > 0.0 and rep.wcfid > 0.0

    def test_unmatched_counts_warn(self):
        x, y = make_instance(seed=7, n_per_class=50)
        g, gy = make_instance(seed=8, n_per_class=60)
        rep = build_report(
            real_features=x, real_labels=y, gen_features=g, gen_labels=gy)
        assert any("counts differ" in w for w in rep.warnings)

    def test_one_sided_features_rejected(self):
        x, y = make_instance(seed=9)
        with pytest.raises(ConfigError, match="both sides"):
            build_report(real_features=x, real_labels=y)

    def test_one_sided_labels_rejected(self):
        x, y = make_instance(seed=10)
        g, _ = make_instance(seed=11)
        with pytest.raises(ConfigError, match="labels"):
            build_report(real_features=x, real_labels=y, gen_features=g)

    def test_hungarian_needs_probs(self):
        x, y = make_instance(seed=12)
        g, gy = make_instance(seed=13)
        with pytest.raises(ConfigError, match="hungarian"):
            build_report(
                real_features=x, real_labels=y, gen_features=g, gen_labels=gy,
                pairing="hungarian")

    def test_hungarian_recovers_shifted_classes(self):
        x, y = make_instance(seed=14, k=4)
        # generated side: same features, labels cyclically shifted
        gy = (y + 1) % 4
        probs = one_hot_dominant(y, 4, seed=15)  # predictions follow true classes
        rep = build_report(
            real_features=x, real_labels=y, gen_features=x, gen_labels=gy,
            probs=probs, pairing="hungarian")
        assert rep.wcfid <= 1e-9
        identity = build_report(
            real_features=x, real_labels=y, gen_features=x, gen_labels=gy,
            probs=probs, pairing="identity")
        assert identity.wcfid > 1.0

    def test_hungarian_validates_probs_once(self, monkeypatch):
        checked = _count_checked_probability_rows(monkeypatch)
        x, y = make_instance(seed=14, k=4)
        gy = (y + 1) % 4
        probs = one_hot_dominant(y, 4, seed=15)
        build_report(
            real_features=x, real_labels=y, gen_features=x, gen_labels=gy,
            probs=probs, pairing="hungarian")
        assert sorted(checked) == list(range(len(probs)))

    def test_swapping_sides_preserves_fid_family(self):
        x, y = make_instance(seed=16)
        g, gy = make_instance(seed=17)
        fwd = build_report(
            real_features=x, real_labels=y, gen_features=g, gen_labels=gy)
        rev = build_report(
            real_features=g, real_labels=gy, gen_features=x, gen_labels=y)
        assert abs(fwd.fid - rev.fid) <= 1e-8
        assert abs(fwd.bcfid - rev.bcfid) <= 1e-8
        assert abs(fwd.wcfid - rev.wcfid) <= 1e-8

    def test_subset_size_path_sets_dims_used(self):
        x, y = make_instance(seed=18)
        g, gy = make_instance(seed=19)
        rep = build_report(
            real_features=x, real_labels=y, gen_features=g, gen_labels=gy,
            subset_size=2, trials=3, seed=7)
        assert rep.dims_used == 2
        assert rep.fid is not None and rep.per_class_fid.shape == (3,)

    def test_no_inputs_is_config_error(self):
        with pytest.raises(ConfigError):
            build_report()

    @pytest.mark.parametrize("trials", [0, 7])
    def test_trials_without_subset_size_is_config_error(self, trials):
        x, y = make_instance(seed=18)
        with pytest.raises(ConfigError, match="^option --trials needs --subset-size$"):
            build_report(real_features=x, real_labels=y, gen_features=x, gen_labels=y,
                         trials=trials)

    @pytest.mark.parametrize("option, message", [
        (dict(subset_size=5, trials=7), "option --subset-size needs features on both sides"),
        (dict(subset_size=2), "option --subset-size needs features on both sides"),
        (dict(trials=7), "option --trials needs --subset-size"),
        # without features the class mapping would reach no score
        (dict(pairing="hungarian"), "^option --pairing hungarian needs features on both sides; "
                                    "--real-features and --gen-features are missing$"),
    ])
    def test_subsampling_without_features_is_config_error(self, option, message):
        _, gy = make_instance(seed=18)
        with pytest.raises(ConfigError, match=message):
            build_report(probs=one_hot_dominant(gy, 3), gen_labels=gy, **option)

    def test_real_labels_without_features_is_config_error(self):
        # ten real labels for no real rows: nothing would read them
        _, gy = make_instance(seed=18)
        with pytest.raises(ConfigError, match="^option --real-labels needs features on both "
                                              "sides; --real-features and --gen-features"):
            build_report(probs=one_hot_dominant(gy, 3), gen_labels=gy,
                         real_labels=np.zeros(10, dtype=np.int64))

    def test_default_trials_without_features_is_accepted(self):
        _, gy = make_instance(seed=18)
        probs = one_hot_dominant(gy, 3)
        assert report_to_json(build_report(probs=probs, gen_labels=gy, trials=1)) == \
            report_to_json(build_report(probs=probs, gen_labels=gy))

    def test_integral_float_labels_equal_integer_labels(self):
        x, y = make_instance(seed=34)
        g, gy = make_instance(seed=35)
        probs = one_hot_dominant(gy, 3, seed=36)
        inputs = dict(real_features=x, real_labels=y, gen_features=g, probs=probs)
        assert report_to_json(build_report(gen_labels=gy.astype(np.float64), **inputs)) == \
            report_to_json(build_report(gen_labels=gy, **inputs))
        rows = sweep_label_noise(gen_labels=gy.astype(np.float64), grid=[0.5], **inputs)
        assert report_to_json(rows[0][1]) == report_to_json(
            sweep_label_noise(gen_labels=gy, grid=[0.5], **inputs)[0][1])

    def test_out_of_range_generated_labels_name_the_class_range(self):
        probs = dirichlet_rows([1.0, 1.0, 1.0], 6, seed=37)
        with pytest.raises(InvalidInputError, match=r"labels must lie in \[0, 3\)"):
            build_report(probs=probs, gen_labels=np.array([0, 1, 2, 0, 1, 3]))

    def test_report_identity_holds(self):
        probs = dirichlet_rows([0.8, 1.2, 2.0, 0.5], 400, seed=20)
        labels = rng_for(21).integers(0, 4, 400).astype(np.int64)
        labels[:4] = np.arange(4)
        rep = build_report(probs=probs, gen_labels=labels)
        assert abs(math.log(rep.is_) - math.log(rep.bcis) - math.log(rep.wcis)) <= 1e-8


class TestSubsampledSuiteFollowsBuildReport:
    """build_report with subset_size follows the rules of the full-dimension report."""

    def test_one_sided_labels_are_config_errors(self):
        x, y = make_instance(seed=60, d=6)
        g, gy = make_instance(seed=61, d=6)
        for real_labels, gen_labels, missing in [(y, None, "--gen-labels"),
                                                 (None, gy, "--real-labels")]:
            with pytest.raises(ConfigError, match=missing):
                build_report(real_features=x, real_labels=real_labels, gen_features=g,
                             gen_labels=gen_labels, subset_size=4)

    def test_unequal_counts_give_the_same_warning(self):
        k, d = 3, 5
        means = rng_for(62).normal(0.0, 3.0, (k, d))
        x, y = gen_mixture(MixtureSpec(means, [np.eye(d)] * k, [30, 40, 50], seed=63))
        g, gy = gen_mixture(MixtureSpec(means, [np.eye(d)] * k, [50, 40, 30], seed=64))
        full = build_report(real_features=x, real_labels=y, gen_features=g, gen_labels=gy)
        suite = build_report(real_features=x, real_labels=y, gen_features=g, gen_labels=gy,
                             subset_size=3, trials=2, seed=4)
        assert len(suite.warnings) == 1
        assert suite.warnings == full.warnings


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("entry", ["build_report", "sweep_label_noise"])
def test_peak_memory_does_not_grow_with_trials(entry):
    # one trial's column gathers and class means are held at a time, so 20
    # trials peak like one
    rng = rng_for(67)
    k, n, d, subset = 10, 100, 64, 32
    y = np.repeat(np.arange(k), n)
    x = rng.normal(0.0, 1.0, (y.size, d)) + 0.1 * y[:, None]
    gy = rng.permutation(y)
    g = rng.normal(0.0, 1.1, (gy.size, d))

    def run(trials):
        inputs = dict(real_features=x, real_labels=y, gen_features=g, gen_labels=gy,
                      subset_size=subset, trials=trials)
        if entry == "build_report":
            return build_report(**inputs)
        return sweep_label_noise(grid=[0.0, 1.0], **inputs)

    one, twenty = _traced_peak(lambda: run(1)), _traced_peak(lambda: run(20))
    assert twenty <= 1.1 * one, (one, twenty)


def test_peak_memory_does_not_grow_with_trials_at_many_classes():
    # at K=1000 a per-class vector held per trial and point would show: the
    # trials' columns are drawn lazily and each point keeps one running sum
    rng = rng_for(68)
    k, n, d = 1000, 3, 8
    y = np.repeat(np.arange(k), n)
    x = rng.normal(0.0, 1.0, (y.size, d)) + 0.1 * y[:, None]
    g = rng.normal(0.0, 1.1, (y.size, d))

    def run(trials):
        return sweep_label_noise(real_features=x, real_labels=y, gen_features=g, gen_labels=y,
                                 grid=[0.0, 0.5, 1.0], subset_size=4, trials=trials)

    one, twelve = _traced_peak(lambda: run(1)), _traced_peak(lambda: run(12))
    assert twelve <= 1.1 * one, (one, twelve)


def test_one_class_per_class_fid_is_wcfid_at_any_trial_count():
    # with one class each trial's wcfid is its one per-class score, and both
    # means over the trials sum them the same way
    y = np.zeros(12, dtype=np.int64)
    for trials in range(8, 40):
        rng = rng_for(trials)
        x, g = rng.normal(0.0, 1.0, (12, 6)), rng.normal(0.0, 1.2, (12, 6)) ** 3
        report = build_report(real_features=x, real_labels=y, gen_features=g, gen_labels=y,
                              subset_size=3, trials=trials, seed=trials)
        assert report.per_class_fid.tolist() == [report.wcfid], trials


def test_fid_family_peaks_like_fid():
    # classes stream through one kernel: beyond one pooled Gaussian only the
    # K x d class means are held, never K class factors per side
    rng = rng_for(75)
    k, n, d = 200, 20, 256
    y = np.repeat(np.arange(k), n)
    x = rng.normal(0.0, 1.0, (y.size, d)) + 0.1 * y[:, None]
    g = rng.normal(0.0, 1.1, (y.size, d))
    pooled = _traced_peak(lambda: fid(x, g))
    labelled = _traced_peak(lambda: build_report(real_features=x, real_labels=y,
                                                 gen_features=g, gen_labels=y))
    assert labelled <= pooled + 2**20, (pooled, labelled)
    assert _traced_peak(lambda: wcfid(x, y, g, y)) <= 4 * 2**20


@pytest.mark.parametrize("trials", [1, 5])
def test_class_splits_do_not_scale_with_trials(monkeypatch, trials):
    # the real labels are split once and each point's labels once, for the IS
    # and FID families together, whatever the trial count
    import condmetrics.metrics as metrics_mod

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return split(*args, **kwargs)

    split = metrics_mod.class_index_lists
    monkeypatch.setattr(metrics_mod, "class_index_lists", counted)
    x, y = make_instance(seed=76, k=3, d=5)
    g, gy = make_instance(seed=77, k=3, d=5, shift=0.2)
    probs = one_hot_dominant(gy, 3, seed=78)
    sweep_label_noise(real_features=x, real_labels=y, gen_features=g, gen_labels=gy,
                      probs=probs, grid=[0.0, 0.3, 0.6, 1.0], subset_size=3,
                      trials=trials)
    assert len(calls) == 1 + 4

class TestChecksBeforeScores:
    """Every option and input is checked, and every point built, before any score."""

    @pytest.fixture(autouse=True)
    def no_score(self, monkeypatch):
        import condmetrics.evaluate as evaluate_mod

        def forbidden(*_args, **_kwargs):
            raise AssertionError("a score was computed before every check ran")

        for name in ("_is_pass", "_is_classes", "hungarian_max", "_class_scores",
                     "_estimate_gaussian"):
            monkeypatch.setattr(evaluate_mod, name, forbidden)

    def test_bad_last_grid_point(self):
        x, y = make_instance(seed=68)
        probs = one_hot_dominant(y, 3, seed=69)
        with pytest.raises(InvalidInputError, match="noise fraction must be in"):
            sweep_label_noise(real_features=x, real_labels=y, gen_features=x, gen_labels=y,
                              probs=probs, grid=[0.0, 0.5, 1.5])

    def test_subset_larger_than_the_dimension(self):
        x, y = make_instance(seed=70, d=4)
        probs = one_hot_dominant(y, 3, seed=71)
        with pytest.raises(InvalidInputError, match=r"subset_size must be in \[1, 4\]"):
            build_report(real_features=x, real_labels=y, gen_features=x, gen_labels=y,
                         probs=probs, subset_size=5, trials=2)

    @pytest.mark.parametrize("side", ["real", "generated"])
    def test_class_with_one_row(self, side):
        # bcfid/wcfid need a covariance per class: one row of class 2 on either
        # side fails on the class split, before the IS family reads the rows
        x, y = make_instance(seed=75, d=4)
        probs = one_hot_dominant(y, 3, seed=76)
        keep = np.sort(np.r_[np.flatnonzero(y != 2), np.flatnonzero(y == 2)[:1]])
        given = dict(real_features=x, real_labels=y, gen_features=x, gen_labels=y, probs=probs)
        if side == "real":
            given.update(real_features=x[keep], real_labels=y[keep])
        else:
            given.update(gen_features=x[keep], gen_labels=y[keep], probs=probs[keep])
        with pytest.raises(InvalidInputError,
                           match=rf"class 2 has 1 sample\(s\), needs >= 2 on the {side} side"):
            build_report(pairing="hungarian", **given)


class TestSweeps:
    def test_zero_noise_row_equals_plain_report(self):
        x, y = make_instance(seed=22)
        g, gy = make_instance(seed=23)
        probs = one_hot_dominant(gy, 3, seed=24)
        base = build_report(
            real_features=x, real_labels=y, gen_features=g, gen_labels=gy,
            probs=probs, seed=5)
        rows = sweep_label_noise(
            real_features=x, real_labels=y, gen_features=g, gen_labels=gy,
            probs=probs, seed=5, grid=[0.0])
        assert len(rows) == 1
        assert rows[0][0] == 0.0
        assert report_to_json(rows[0][1]) == report_to_json(base)

    def test_label_noise_grid_defaults_to_tenths(self):
        _, gy = make_instance(seed=22)
        inputs = dict(gen_labels=gy, probs=one_hot_dominant(gy, 3, seed=24), seed=5)
        rows = sweep_label_noise(**inputs)
        assert [p for p, _ in rows] == [i / 10 for i in range(11)]
        given = sweep_label_noise(grid=[i / 10 for i in range(11)], **inputs)
        assert [report_to_json(r) for _, r in rows] == [report_to_json(r) for _, r in given]

    @pytest.mark.parametrize("options", [
        dict(pairing="hungarian"),
        dict(pairing="hungarian", subset_size=3, trials=4),
        dict(subset_size=4, trials=2),
    ])
    def test_label_noise_rows_equal_pointwise_reports(self, options):
        # the differential gate of the shared preparation: every sweep row is
        # the report of that point's inputs scored from scratch
        x, y = make_instance(seed=25, k=4, d=5)
        g, gy = make_instance(seed=26, k=4, d=5, shift=0.3)
        probs = one_hot_dominant((gy + 1) % 4, 4, strength=0.5, seed=27)
        inputs = dict(real_features=x, real_labels=y, gen_features=g, probs=probs,
                      seed=9, **options)
        grid = [0.0, 0.25, 0.5, 1.0]
        rows = sweep_label_noise(gen_labels=gy, grid=grid, **inputs)
        assert [p for p, _ in rows] == grid
        for i, (p, rep) in enumerate(rows):
            noised = label_noise(gy, p, _point_seed(9, i))
            assert report_to_json(rep) == report_to_json(
                build_report(gen_labels=noised, **inputs))

    @pytest.mark.parametrize("options", [{}, dict(pairing="hungarian", subset_size=3, trials=2)])
    def test_mode_collapse_rows_equal_pointwise_reports(self, options):
        x, y = make_instance(seed=28, k=3, d=4, n_per_class=40)
        g, gy = make_instance(seed=29, k=3, d=4, n_per_class=40, shift=0.2)
        probs = one_hot_dominant(gy, 3, strength=0.6, seed=30)
        schedule = CollapseSchedule(steps=4, shrink_factor=0.5, per_class_sample=12,
                                    collapsed_classes=(1,))
        inputs = dict(real_features=x, real_labels=y, seed=2, **options)
        rows = sweep_mode_collapse(gen_features=g, gen_labels=gy, probs=probs,
                                   schedule=schedule, **inputs)
        steps = mode_collapse_indices(gy, schedule, 2)
        assert [p for p, _ in rows] == [0.0, 1.0, 2.0, 3.0]
        for (_, rep), idx in zip(rows, steps):
            assert report_to_json(rep) == report_to_json(build_report(
                gen_features=g[idx], gen_labels=gy[idx], probs=probs[idx], **inputs))

    def test_sweep_prepares_the_real_side_once(self, monkeypatch):
        import condmetrics.evaluate as evaluate_mod
        import condmetrics.metrics as metrics_mod

        estimates = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                estimates.append(1)
                return fn(*args, **kwargs)
            return wrapper

        checked = _count_checked_probability_rows(monkeypatch)
        for mod in (evaluate_mod, metrics_mod):  # pooled estimates, class estimates
            monkeypatch.setattr(mod, "_estimate_gaussian", counted(mod._estimate_gaussian))
        x, y = make_instance(seed=31, k=3)
        g, gy = make_instance(seed=32, k=3)
        probs = one_hot_dominant(gy, 3, seed=33)
        sweep_label_noise(real_features=x, real_labels=y, gen_features=g, gen_labels=gy,
                          probs=probs, grid=[0.0, 0.3, 0.6, 1.0], pairing="hungarian")
        # each probability row once; real side once (pooled + 3 classes), the
        # generated pooled Gaussian once, the generated classes at each of 4 points
        assert sorted(checked) == list(range(len(probs)))
        assert len(estimates) == 4 + 1 + 4 * 3

    @staticmethod
    def _record_preparation(monkeypatch):
        """The row counts of every Gaussian estimate and every IS pass."""
        import condmetrics.evaluate as evaluate_mod
        import condmetrics.metrics as metrics_mod

        estimated, row_passes = [], []

        def recorded(rows, fn):
            def wrapper(x, *args, **kwargs):
                rows.append(x.shape[0])
                return fn(x, *args, **kwargs)
            return wrapper

        for mod in (evaluate_mod, metrics_mod):  # pooled estimates, class estimates
            monkeypatch.setattr(mod, "_estimate_gaussian",
                                recorded(estimated, mod._estimate_gaussian))
        monkeypatch.setattr(evaluate_mod, "_is_pass", recorded(row_passes, evaluate_mod._is_pass))
        return estimated, row_passes

    @pytest.mark.parametrize("subset", [{}, dict(subset_size=3, trials=3)],
                             ids=["all-columns", "subset-3-trials"])
    @pytest.mark.parametrize("pairing", ["identity", "hungarian"])
    def test_label_noise_points_share_the_generated_rows(self, monkeypatch, pairing, subset):
        x, y = make_instance(seed=34, k=3, d=5, n_per_class=60)
        g, gy = make_instance(seed=35, k=3, d=5, n_per_class=40)
        probs = one_hot_dominant(gy, 3, seed=36)
        estimated, row_passes = self._record_preparation(monkeypatch)
        grid = [0.0, 0.3, 0.6, 1.0]
        sweep_label_noise(real_features=x, real_labels=y, gen_features=g, gen_labels=gy,
                          probs=probs, grid=grid, pairing=pairing, **subset)
        # per column set: the real and the generated pooled Gaussians once, then
        # for each class its real Gaussian and each point's paired class
        per_trial = [180, 120] + [60, 40, 40, 40, 40] * 3
        assert estimated == per_trial * subset.get("trials", 1)
        assert row_passes == [120]

    def test_label_noise_points_share_the_row_argmax(self, monkeypatch):
        # accuracy compares each point's labels with the row pass's one argmax
        # vector, taken on the raw rows
        shapes = []
        argmax = np.argmax

        def recorded(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return argmax(a, *args, **kwargs)

        _, gy = make_instance(seed=40, k=3)
        probs = one_hot_dominant(gy, 3, strength=0.4, seed=41)
        monkeypatch.setattr(np, "argmax", recorded)
        rows = sweep_label_noise(gen_labels=gy, probs=probs, grid=[0.0, 0.5, 1.0], seed=3)
        assert shapes == [probs.shape]
        for i, (p, rep) in enumerate(rows):
            noised = label_noise(gy, p, _point_seed(3, i))
            assert (rep.accuracy, *rep.per_class_accuracy) == (
                np.mean(argmax(probs, axis=1) == noised),
                *[np.mean(argmax(probs[noised == c], axis=1) == c) for c in range(3)])

    def test_mode_collapse_steps_keep_their_own_rows(self, monkeypatch):
        x, y = make_instance(seed=37, k=3, d=4, n_per_class=40)
        g, gy = make_instance(seed=38, k=3, d=4, n_per_class=40, shift=0.2)
        probs = one_hot_dominant(gy, 3, strength=0.6, seed=39)
        schedule = CollapseSchedule(steps=4, shrink_factor=0.5, per_class_sample=12,
                                    collapsed_classes=(1,))
        estimated, row_passes = self._record_preparation(monkeypatch)
        sweep_mode_collapse(real_features=x, real_labels=y, gen_features=g, gen_labels=gy,
                            probs=probs, schedule=schedule, seed=2)
        steps = mode_collapse_indices(gy, schedule, 2)
        # the real pooled Gaussian and each step's, on its own rows; then for
        # each class its real Gaussian once and each step's class
        counts = [np.bincount(gy[idx], minlength=3) for idx in steps]
        assert estimated == [120] + [idx.size for idx in steps] + [
            n for c in range(3) for n in [40, *(step[c] for step in counts)]]
        assert row_passes == [idx.size for idx in steps]


class TestValidationBoundary:
    """Every input array is checked once per call, where it enters the package."""

    CHECKS = ("as_feature_matrix", "as_label_vector", "_probability_rows")

    @classmethod
    def _count_checks(cls, monkeypatch) -> dict:
        # wrap each checker in every condmetrics module that binds it, so a
        # check is counted wherever the caller looks it up
        import condmetrics.cli  # noqa: F401  (imports every module)

        calls = dict.fromkeys(cls.CHECKS, 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("condmetrics."):
                for name in cls.CHECKS:
                    if hasattr(mod, name):
                        monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
        return calls

    @pytest.mark.parametrize("entry", ["build_report", "sweep_label_noise"])
    def test_report_and_sweep_check_each_array_once(self, monkeypatch, entry):
        x, y = make_instance(seed=40, k=4, d=5)
        g, gy = make_instance(seed=41, k=4, d=5, shift=0.3)
        probs = one_hot_dominant((gy + 1) % 4, 4, strength=0.5, seed=42)
        inputs = dict(real_features=x, real_labels=y, gen_features=g, gen_labels=gy,
                      probs=probs, pairing="hungarian")
        calls = self._count_checks(monkeypatch)
        if entry == "build_report":
            build_report(**inputs)
        else:
            rows = sweep_label_noise(grid=[0.0, 0.2, 0.4, 0.6, 0.8, 1.0], **inputs)
            assert len(rows) == 6
        assert calls == {"as_feature_matrix": 2, "as_label_vector": 2,
                         "_probability_rows": 1}

    @pytest.mark.parametrize("entry", ["build_report_subset", "wcfid"])
    def test_fid_functions_check_each_array_once(self, monkeypatch, entry):
        x, y = make_instance(seed=43, k=4, d=5)
        g, gy = make_instance(seed=44, k=4, d=5, shift=0.3)
        calls = self._count_checks(monkeypatch)
        if entry == "build_report_subset":
            build_report(real_features=x, real_labels=y, gen_features=g, gen_labels=gy,
                         subset_size=3, trials=5, seed=7)
        else:
            wcfid(x, y, g, gy)
        assert calls == {"as_feature_matrix": 2, "as_label_vector": 2,
                         "_probability_rows": 0}

    def test_cli_metrics_checks_each_matrix_once(self, monkeypatch, tmp_path):
        from condmetrics import save_tensor
        from condmetrics.cli import main

        x, y = make_instance(seed=47, k=4, d=5)
        g, gy = make_instance(seed=48, k=4, d=5, shift=0.3)
        argv = ["metrics", "--out", str(tmp_path / "report.json")]
        for flag, arr in [("real-features", x), ("real-labels", y), ("gen-features", g),
                          ("gen-labels", gy), ("probs", one_hot_dominant(gy, 4, seed=49))]:
            save_tensor(tmp_path / f"{flag}.cfm", arr)
            argv += [f"--{flag}", str(tmp_path / f"{flag}.cfm")]
        checked = _count_checked_probability_rows(monkeypatch)
        calls = self._count_checks(monkeypatch)
        assert main(argv) == 0
        # the loaders check the label vectors too; the feature matrices are
        # checked once, and each row of the probability file once, as it is
        # read: the file enters as rows, not as a matrix checked whole
        assert calls["_probability_rows"] == 1
        assert sorted(checked) == list(range(gy.size))
        assert calls["as_feature_matrix"] == 2

    def test_mode_collapse_sweep_checks_each_array_once(self, monkeypatch):
        x, y = make_instance(seed=45, k=3, d=4, n_per_class=30)
        g, gy = make_instance(seed=46, k=3, d=4, n_per_class=30)
        schedule = CollapseSchedule(steps=3, per_class_sample=10)
        calls = self._count_checks(monkeypatch)
        sweep_mode_collapse(real_features=x, real_labels=y, gen_features=g, gen_labels=gy,
                            schedule=schedule)
        assert calls == {"as_feature_matrix": 2, "as_label_vector": 2,
                         "_probability_rows": 0}


def _count_checked_probability_rows(monkeypatch) -> list[int]:
    """The probability rows checked, of arrays and of files, one entry per row
    and check."""
    import condmetrics.metrics as metrics_mod
    import condmetrics.tensorfile as tensorfile_mod

    checked = []
    check = tensorfile_mod._checked_probability_rows

    def counted(p, lo, hi, start, out=None):
        checked.extend(range(start, start + len(p)))
        return check(p, lo, hi, start, out)

    for mod in (metrics_mod, tensorfile_mod):
        monkeypatch.setattr(mod, "_checked_probability_rows", counted)
    return checked


def _degenerate_case(name):
    """Inputs (x, y, g, gy, probs, k) of one degenerate shape."""
    rng = rng_for(50)
    k, n = 3, 6
    y = np.repeat(np.arange(k), n)
    gy = rng.permutation(y)
    x = rng.normal(0.0, 1.0, (y.size, 4)) + y[:, None]
    g = rng.normal(0.3, 1.2, (gy.size, 4)) + gy[:, None]
    probs = one_hot_dominant(gy, k, strength=0.6, seed=51)
    if name == "d=1":
        x, g = x[:, :1], g[:, :1]
    elif name == "K=1-features-only":
        y, gy, k, probs = np.zeros_like(y), np.zeros_like(gy), 1, None
    elif name == "n_c=2":
        keep_y = np.concatenate([np.flatnonzero(y == c)[:2] for c in range(k)])
        keep_g = np.concatenate([np.flatnonzero(gy == c)[:2] for c in range(k)])
        x, y, g, gy, probs = x[keep_y], y[keep_y], g[keep_g], gy[keep_g], probs[keep_g]
    elif name == "constant-features":
        x, g = np.full_like(x, 2.5), np.full_like(g, -1.0)
    elif name == "duplicated-rows":
        x, y = np.repeat(x, 2, axis=0), np.repeat(y, 2)
        g, gy, probs = np.repeat(g, 2, axis=0), np.repeat(gy, 2), np.repeat(probs, 2, axis=0)
    elif name == "one-hot-at-PROB_FLOOR":
        probs = np.eye(k)[gy]
    return x, y, g, gy, probs, k


class TestDegenerateShapes:
    @pytest.mark.parametrize("name", [
        "d=1", "K=1-features-only", "n_c=2", "constant-features", "duplicated-rows",
        "one-hot-at-PROB_FLOOR",
    ])
    def test_report_equals_standalone_functions(self, name):
        x, y, g, gy, probs, _ = _degenerate_case(name)
        rep, _ = assert_report_equals_standalone(
            x, y, g, gy, probs, subset_size=1 if x.shape[1] == 1 else 2)
        values = [rep.fid, rep.bcfid, rep.wcfid, *rep.per_class_fid]
        assert np.all(np.isfinite(values)) and min(values) >= 0.0
        if probs is not None:
            assert rep.is_ == pytest.approx(rep.bcis * rep.wcis, rel=1e-9)

    def test_constant_features_score_the_mean_shift(self):
        x, y, g, gy, _, _ = _degenerate_case("constant-features")
        rep = build_report(real_features=x, real_labels=y, gen_features=g, gen_labels=gy)
        shift = 4 * 3.5 ** 2  # every covariance is 0; the means differ by 3.5 per dimension
        assert rep.fid == pytest.approx(shift, rel=1e-12)
        assert rep.bcfid == pytest.approx(shift, rel=1e-12)
        assert rep.wcfid == pytest.approx(shift, rel=1e-12)

    def test_one_hot_rows_keep_the_floor_perturbation_below_tolerance(self):
        x, y, g, gy, probs, k = _degenerate_case("one-hot-at-PROB_FLOOR")
        rep = build_report(probs=probs, gen_labels=gy)
        # every class is predicted with certainty: IS = BCIS = K and WCIS = 1,
        # up to the PROB_FLOOR perturbation
        assert rep.is_ == pytest.approx(k, rel=k * PROB_FLOOR * 1e3)
        assert rep.bcis == pytest.approx(k, rel=k * PROB_FLOOR * 1e3)
        assert rep.wcis == pytest.approx(1.0, abs=k * PROB_FLOOR * 1e3)
        assert rep.accuracy == 1.0
