import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condmetrics import (
    ClassAssignment,
    ConfigError,
    GaussianStats,
    InvalidInputError,
    accuracy,
    bcfid,
    bcfid_from_stats,
    bcis,
    build_report,
    cfid_sum,
    class_conditional_stats,
    estimate_gaussian,
    fid,
    inception_score,
    per_class_is,
    pooled_gaussian,
    wcfid,
    wcfid_from_stats,
    wcis,
)
from condmetrics import evaluate, metrics
from condmetrics.metrics import (
    PROB_FLOOR,
    _probability_rows,
    class_index_lists,
)
from condmetrics.synth import MixtureSpec, dirichlet_rows, gen_mixture, label_noise, rng_for


def kl_oracle(p, q):
    # independent reference: plain math.log, zero terms dropped
    return sum(pi * math.log(pi / qi) for pi, qi in zip(p, q) if pi > 0)


def random_instance(seed, k=None, n=None, balanced=False):
    rng = rng_for(seed)
    k = k or int(rng.choice([2, 5, 10]))
    n = n or int(rng.choice([50, 1000]))
    probs = dirichlet_rows(rng.uniform(0.2, 3.0, k), n, seed * 7 + 1)
    if balanced:
        labels = np.arange(n, dtype=np.int64) % k
    else:
        labels = np.concatenate(
            [np.arange(k), rng.integers(0, k, n - k)]).astype(np.int64)
    return probs, labels, k


class TestProbabilityValidation:
    def test_row_sum_violation(self):
        with pytest.raises(InvalidInputError, match="sums to"):
            _probability_rows([[0.6, 0.6], [0.5, 0.5]])

    def test_out_of_range(self):
        with pytest.raises(InvalidInputError, match="outside"):
            _probability_rows([[1.2, -0.2]])

    def test_single_class_rejected(self):
        with pytest.raises(InvalidInputError):
            _probability_rows([[1.0], [1.0]])

    def test_in_range_matrix_is_returned_without_a_copy(self):
        probs = dirichlet_rows([0.5, 1.0, 2.0], 50, seed=3)
        probs[0] = [0.0, 1.0, 0.0]
        kept = probs.copy()
        out = _probability_rows(probs).p
        assert out is probs
        assert np.array_equal(out, kept)

    def test_round_off_outside_the_range_is_still_clipped(self):
        probs = np.array([[-1e-10, 1.0 + 1e-10], [0.5, 0.5]])
        out = _probability_rows(probs).p
        assert out is not probs
        assert out[0, 0] == 0.0 and not np.signbit(out[0, 0])
        assert out[0, 1] == 1.0
        assert np.array_equal(out[1], [0.5, 0.5])
        assert probs[0, 0] == -1e-10  # the caller's matrix is left alone

    def test_rows_are_returned_as_they_are(self):
        rows = metrics.ProbabilityRows(np.array([[2.0, -1.0]]))  # taken as checked
        assert _probability_rows(rows) is rows

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_entries_rejected(self, value):
        probs = np.full((3, 4), 0.25)
        probs[1, 2] = value
        with pytest.raises(InvalidInputError, match="^probability matrix contains non-finite"):
            _probability_rows(probs)


class TestClassIndexLists:
    @given(st.integers(0, 10_000), st.integers(1, 300), st.integers(1, 8),
           st.integers(-2, 2), st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_matches_boolean_scan_oracle(self, seed, n, classes, extra, min_count):
        labels = rng_for(seed).integers(0, classes, n)
        # extra < 0 leaves the highest labels outside [0, k); they are ignored
        k = max(1, int(labels.max()) + 1 + extra)
        counts = [int(np.sum(labels == c)) for c in range(k)]
        small = [c for c in range(k) if counts[c] < min_count]
        if small:
            c = small[0]
            need = ("no samples" if min_count == 1
                    else f"{counts[c]} sample(s), needs >= {min_count}")
            with pytest.raises(InvalidInputError,
                               match=re.escape(f"class {c} has {need} on the real side") + "$"):
                class_index_lists(labels, k, min_count=min_count, side="real")
            return
        got = class_index_lists(labels, k, min_count=min_count, side="real")
        assert len(got) == k
        for c, idx in enumerate(got):
            assert np.array_equal(idx, np.flatnonzero(labels == c))


class TestInceptionScore:
    def test_uniform_rows(self):
        probs = np.full((10, 4), 0.25)
        assert inception_score(probs) == pytest.approx(1.0, abs=1e-12)

    def test_one_hot_rows_reach_class_count(self):
        k = 5
        assert inception_score(np.eye(k)) == pytest.approx(k, rel=1e-9)

    def test_against_kl_oracle(self):
        probs = np.array([[0.9, 0.1], [0.1, 0.9]])
        marginal = [0.5, 0.5]
        expected = math.exp(
            (kl_oracle([0.9, 0.1], marginal) + kl_oracle([0.1, 0.9], marginal)) / 2)
        assert inception_score(probs) == pytest.approx(expected, rel=1e-9)


class TestBCIS:
    def test_identical_rows(self):
        probs = np.tile([0.1, 0.2, 0.3, 0.4], (8, 1))
        labels = np.array([0, 0, 1, 1, 2, 2, 3, 3])
        assert bcis(probs, labels) == pytest.approx(1.0, abs=1e-12)

    def test_pure_classes_reach_class_count(self):
        k = 4
        probs = np.repeat(np.eye(k), 3, axis=0)
        labels = np.repeat(np.arange(k), 3)
        assert bcis(probs, labels) == pytest.approx(k, rel=1e-9)

    def test_fully_permuted_labels_approach_one(self):
        k, n = 5, 20_000
        probs = np.repeat(np.eye(k), n // k, axis=0)
        labels = np.repeat(np.arange(k), n // k)
        noised = label_noise(labels, 1.0, seed=42)
        assert bcis(probs, noised) < 1.02

    def test_empty_class_rejected(self):
        probs = np.full((4, 3), 1.0 / 3.0)
        with pytest.raises(InvalidInputError, match="class 1"):
            bcis(probs, np.array([0, 0, 2, 2]))

    def test_labels_short_of_the_columns_raise_as_the_report_does(self):
        # the conditioned classes are the K = 10 probability columns, not the
        # labels' own range: classes 8 and 9 are empty
        probs = dirichlet_rows(np.ones(10), 80, seed=4)
        labels = np.arange(80) % 8
        message = "^class 8 has no samples on the conditioned side$"
        with pytest.raises(InvalidInputError, match=message):
            bcis(probs, labels)
        with pytest.raises(InvalidInputError, match=message):
            build_report(probs=probs, gen_labels=labels)



@pytest.mark.parametrize("score, inputs", [
    (bcis, "probs"), (wcis, "probs"), (per_class_is, "probs"),
    (bcfid, "features"), (wcfid, "features"), (cfid_sum, "features"),
], ids=lambda v: getattr(v, "__name__", v))
def test_conditional_score_without_generated_labels_is_config_error(score, inputs):
    # without generated labels the one report has no conditional member to return
    if inputs == "probs":
        args = (dirichlet_rows(np.ones(3), 12, seed=5), None)
    else:
        x = rng_for(6).normal(size=(12, 2))
        args = (x, None, x + 1.0, None)
    with pytest.raises(ConfigError, match=f"^metric {score.__name__} needs generated labels; "
                                          "--gen-labels is missing$"):
        score(*args)


class TestWCIS:
    def test_identical_within_class(self):
        probs = np.array([[0.9, 0.1], [0.9, 0.1], [0.2, 0.8], [0.2, 0.8]])
        labels = np.array([0, 0, 1, 1])
        assert wcis(probs, labels) == pytest.approx(1.0, abs=1e-12)

    def test_single_condition_with_spread_rows(self):
        # conditioned class 0 holds every one-hot prediction equally often (its
        # score is k); each other class holds one row, its own one-hot (score 1)
        k = 4
        probs = np.concatenate([np.repeat(np.eye(k), 2, axis=0), np.eye(k)[1:]])
        labels = np.concatenate([np.zeros(2 * k, dtype=np.int64), np.arange(1, k)])
        assert np.allclose(per_class_is(probs, labels), [k, 1, 1, 1], rtol=1e-9)
        weight = 2 * k / labels.size
        assert wcis(probs, labels) == pytest.approx(k ** weight, rel=1e-9)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_product_identity(self, seed):
        probs, labels, _ = random_instance(seed)
        gap = abs(
            math.log(inception_score(probs))
            - math.log(bcis(probs, labels))
            - math.log(wcis(probs, labels)))
        assert gap <= 1e-8

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_range(self, seed):
        probs, labels, k = random_instance(seed)
        for value in (inception_score(probs), bcis(probs, labels), wcis(probs, labels)):
            assert 1.0 - 1e-9 <= value <= k + 1e-9


class TestPerClassIS:
    def test_identical_rows_give_one(self):
        probs = np.array([[0.9, 0.1], [0.9, 0.1], [0.2, 0.8], [0.3, 0.7]])
        labels = np.array([0, 0, 1, 1])
        per = per_class_is(probs, labels)
        assert per[0] == pytest.approx(1.0, abs=1e-12)
        assert per[1] > 1.0

    def test_weighted_logs_reproduce_wcis(self):
        probs, labels, _ = random_instance(321)
        per = per_class_is(probs, labels)
        counts = np.bincount(labels)
        weights = counts / counts.sum()
        assert float(weights @ np.log(per)) == pytest.approx(
            math.log(wcis(probs, labels)), abs=1e-9)

    def test_against_kl_oracle(self):
        rng = rng_for(77)
        probs = dirichlet_rows([1.0, 1.0, 1.0], 30, 5)
        labels = rng.integers(0, 3, 30).astype(np.int64)
        labels[:3] = [0, 1, 2]
        per = per_class_is(probs, labels)
        for c in range(3):
            rows = probs[labels == c]
            avg = rows.mean(axis=0)
            expected = math.exp(np.mean([kl_oracle(r, avg) for r in rows]))
            assert per[c] == pytest.approx(expected, abs=1e-9)


class TestAccuracy:
    def test_perfect(self):
        k = 3
        probs = np.repeat(np.eye(k), 2, axis=0)
        labels = np.repeat(np.arange(k), 2)
        overall, per = accuracy(probs, labels)
        assert overall == 1.0
        assert np.array_equal(per, np.ones(k))

    def test_all_wrong(self):
        probs = np.eye(3)
        labels = np.array([1, 2, 0])
        overall, per = accuracy(probs, labels)
        assert overall == 0.0

    def test_class_without_rows_is_nan(self):
        probs = np.eye(3)
        overall, per = accuracy(probs, np.array([0, 0, 2]))
        assert overall == pytest.approx(2 / 3)
        assert per[0] == 0.5 and math.isnan(per[1]) and per[2] == 1.0

    def test_tie_breaks_to_lowest_index(self):
        probs = np.array([[0.5, 0.5]])
        assert accuracy(probs, np.array([0]))[0] == 1.0
        assert accuracy(probs, np.array([1]))[0] == 0.0

    def test_label_noise_sweep_matches_counting_oracle(self):
        k, per_class = 10, 200
        probs = np.repeat(np.eye(k), per_class, axis=0)
        labels = np.repeat(np.arange(k), per_class)
        expected = {0.0: 1.0, 0.5: 0.55, 1.0: 0.1}
        for p, target in expected.items():
            noised = label_noise(labels, p, seed=9)
            overall, _ = accuracy(probs, noised)
            oracle = float(np.mean(np.argmax(probs, axis=1) == noised))
            assert overall == oracle
            assert overall == pytest.approx(target, abs=0.05)


def conditioned_probs(seed):
    # Dirichlet rows (exact argmax ties have probability zero) and labels that
    # cover every one of k <= 6 conditioned classes
    rng = rng_for(seed)
    k, n = int(rng.integers(2, 7)), int(rng.integers(12, 80))
    probs = dirichlet_rows(rng.uniform(0.2, 3.0, k), n, seed + 1)
    labels = rng.permutation(np.concatenate([np.arange(k), rng.integers(0, k, n - k)]))
    return rng, probs, labels.astype(np.int64), k


def dense_is_family(p, y=None, k=None):
    """Reference: the IS family from the whole cleaned matrix and its KL rows."""
    def kl_rows(a, b):
        return np.sum(a * (np.log(a) - np.log(b)), axis=1)

    clean = np.clip(p, PROB_FLOOR, None)
    clean = clean / clean.sum(axis=1, keepdims=True)
    is_ = float(np.exp(np.mean(kl_rows(clean, clean.mean(axis=0)))))
    if y is None:
        return is_, None, None, None
    idx = class_index_lists(y, k, min_count=1, side="conditioned")
    averages = np.stack([clean[i].mean(axis=0) for i in idx])
    counts = np.array([i.size for i in idx])
    priors = counts / counts.sum()
    within = np.array(
        [float(np.mean(kl_rows(clean[i], averages[c]))) for c, i in enumerate(idx)])
    between = priors @ kl_rows(averages, priors @ averages)
    return is_, float(np.exp(between)), float(np.exp(priors @ within)), np.exp(within)


def assert_streamed_is_family_matches_dense(probs, labels, block):
    """The public IS functions at ``_IS_BLOCK`` = block equal the dense
    reference, and the IS is bit for bit the same at other block sizes."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "_IS_BLOCK", block)
        got = (inception_score(probs), bcis(probs, labels),
               wcis(probs, labels), per_class_is(probs, labels))
        others = []
        for other in (1, 7, block + 5, 2**15):
            mp.setattr(metrics, "_IS_BLOCK", other)
            others.append(inception_score(probs))
    want = dense_is_family(probs, labels, probs.shape[1])
    assert others == [got[0]] * len(others)
    assert np.allclose(got[:3], want[:3], rtol=1e-12, atol=0.0)
    assert np.allclose(got[3], want[3], rtol=1e-12, atol=0.0)


class TestStreamedISFamily:
    """The blocked one-log pass equals the dense two-log computation."""

    @given(st.integers(0, 10_000), st.integers(2, 7), st.integers(1, 60), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_matches_dense_reference(self, seed, width, block, one_hot):
        rng = rng_for(seed)
        # unbalanced classes: each of the width conditioned classes gets 1 to 12 rows
        labels = rng.permutation(np.repeat(np.arange(width), rng.integers(1, 13, width)))
        probs = dirichlet_rows(rng.uniform(0.1, 3.0, width), labels.size, seed)
        if one_hot:  # rows at PROB_FLOOR after cleaning
            probs[::2] = np.eye(width)[rng.integers(0, width, probs[::2].shape[0])]
        assert_streamed_is_family_matches_dense(probs, labels, block)

    @pytest.mark.parametrize("case", [
        "block-splits-class", "class-larger-than-block", "one-row-blocks", "ragged-last-block"])
    def test_block_geometry(self, case):
        width = 3
        rows, labels = {
            # 4-row blocks: class 0 spans the first two blocks
            "block-splits-class": (4, np.array([1, 0, 0, 2, 0, 0, 1, 2])),
            # class 1 has 7 rows, more than a 3-row block
            "class-larger-than-block": (3, np.array([1, 0, 1, 1, 2, 1, 1, 0, 1, 1, 2, 0])),
            # width 3 exceeds a 2-entry block: each block is one row
            "one-row-blocks": (None, np.array([0, 1, 2, 0, 1, 2, 2])),
            # 10 rows in 4-row blocks: the last block has 2
            "ragged-last-block": (4, np.array([0, 0, 1, 1, 2, 2, 0, 1, 2, 2])),
        }[case]
        block = width - 1 if rows is None else rows * width
        probs = dirichlet_rows(np.linspace(0.3, 2.0, width), labels.size, seed=11)
        assert_streamed_is_family_matches_dense(probs, labels, block)

    def test_report_memory_is_bounded_by_the_input(self):
        rng = rng_for(20000)
        probs = dirichlet_rows(np.full(500, 0.5), 20000, seed=5)
        labels = rng.integers(0, 500, 20000)
        tracemalloc.start()
        try:
            report = build_report(probs=probs, gen_labels=labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.is_ == pytest.approx(report.bcis * report.wcis, rel=1e-9)
        assert peak <= 0.25 * probs.nbytes


def is_family(probs, labels):
    return np.concatenate([
        [inception_score(probs), bcis(probs, labels), wcis(probs, labels)],
        per_class_is(probs, labels)])


class TestInceptionMetamorphic:
    """The IS family and accuracy under reorderings whose effect is known:
    the scores see a set of rows, and class names carry no meaning."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_row_permutation_invariance(self, seed):
        rng, probs, labels, _ = conditioned_probs(seed)
        perm = rng.permutation(labels.size)
        base = is_family(probs, labels)
        moved = is_family(probs[perm], labels[perm])
        assert np.allclose(moved, base, rtol=1e-12, atol=0.0)
        overall, per = accuracy(probs, labels)
        moved_overall, moved_per = accuracy(probs[perm], labels[perm])
        assert moved_overall == overall
        assert np.array_equal(moved_per, per)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_class_relabelling_permutes_per_class_vectors(self, seed):
        # condition c becomes sigma[c] and probability column j moves to sigma[j]
        rng, probs, labels, k = conditioned_probs(seed)
        sigma = rng.permutation(k)
        relabelled = sigma[labels]
        moved = np.empty_like(probs)
        moved[:, sigma] = probs
        base_is = per_class_is(probs, labels)
        new_is = per_class_is(moved, relabelled)
        assert np.allclose(new_is[sigma], base_is, rtol=1e-12, atol=0.0)
        _, base_acc = accuracy(probs, labels)
        _, new_acc = accuracy(moved, relabelled)
        assert np.array_equal(new_acc[sigma], base_acc)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_class_relabelling_permutes_per_class_fid(self, seed):
        # relabelling both sides keeps every class's rows, in order: exact
        rng, (x, y, g, gy), k = labelled_pair(seed)
        sigma = rng.permutation(k)
        _, base = wcfid(x, y, g, gy)
        _, moved = wcfid(x, sigma[y], g, sigma[gy])
        assert np.array_equal(moved[sigma], base)


class TestFID:
    def test_identical(self):
        rng = rng_for(3)
        x = rng.standard_normal((100, 4))
        assert fid(x, x) <= 1e-9

    def test_pure_shift(self):
        rng = rng_for(4)
        x = rng.standard_normal((500, 2))
        shifted = x + np.array([1.0, 0.0])
        assert fid(x, shifted) == pytest.approx(1.0, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            fid(np.zeros((3, 2)), np.zeros((3, 3)))


def labelled_pair(seed):
    # two labelled sides, k <= 3 classes of 2-12 rows each, rows shuffled
    rng = rng_for(seed)
    k, d = int(rng.integers(1, 4)), int(rng.integers(1, 9))
    sides = []
    for shift in (0.0, rng.uniform(0.0, 2.0)):
        y = rng.permutation(np.repeat(np.arange(k), rng.integers(2, 13, k)))
        x = rng.standard_normal((y.size, d)) * rng.uniform(0.3, 3.0, d) + shift + y[:, None]
        sides += [x, y]
    return rng, sides, k


def fid_family(x, y, g, gy):
    total, per = wcfid(x, y, g, gy)
    return np.concatenate([[fid(x, g), bcfid(x, y, g, gy), total], per])


def second_moment(*sides):
    # magnitude of the terms the Fréchet distance cancels; sets the round-off scale
    return sum(float(np.mean(np.sum(s * s, axis=1))) for s in sides)


class TestFrechetMetamorphic:
    """fid, bcfid, wcfid and the per-class vector under transformations of the
    features whose effect on the Fréchet distance is known exactly."""

    @given(st.integers(0, 10_000), st.floats(0.01, 100.0))
    @settings(max_examples=60, deadline=None)
    def test_scaling_multiplies_by_square(self, seed, c):
        _, (x, y, g, gy), _ = labelled_pair(seed)
        base = fid_family(x, y, g, gy)
        scaled = fid_family(c * x, y, c * g, gy)
        atol = 1e-12 * c * c * second_moment(x, g)
        assert np.allclose(scaled, c * c * base, rtol=1e-10, atol=atol)

    @given(st.integers(0, 10_000), st.floats(-1e3, 1e3))
    @settings(max_examples=60, deadline=None)
    def test_translation_invariance(self, seed, offset):
        rng, (x, y, g, gy), _ = labelled_pair(seed)
        t = offset * rng.uniform(-1.0, 1.0, x.shape[1])
        base = fid_family(x, y, g, gy)
        moved = fid_family(x + t, y, g + t, gy)
        # centring at |t| leaves errors of about eps * |t| per entry
        atol = 1e-12 * (second_moment(x, g) + float(t @ t))
        assert np.allclose(moved, base, rtol=1e-10, atol=atol)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_row_permutation_within_a_side(self, seed):
        rng, (x, y, g, gy), _ = labelled_pair(seed)
        pr, pg = rng.permutation(y.size), rng.permutation(gy.size)
        base = fid_family(x, y, g, gy)
        assert np.allclose(fid_family(x[pr], y[pr], g, gy), base,
                           rtol=1e-10, atol=1e-12 * second_moment(x, g))
        assert np.allclose(fid_family(x, y, g[pg], gy[pg]), base,
                           rtol=1e-10, atol=1e-12 * second_moment(x, g))

    def test_fid_memory_is_bounded_by_the_inputs(self):
        # 50 x 2048 per side: one 2048 x 2048 covariance alone would be 33.5 MB
        rng = rng_for(2048)
        x, g = rng.standard_normal((50, 2048)), rng.standard_normal((50, 2048)) + 0.1
        tracemalloc.start()
        try:
            value = fid(x, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value > 0.0
        assert peak < 8 * 2**20


class TestConditionalFID:
    def test_identical_sides_zero(self):
        spec = MixtureSpec(
            [[0.0, 0.0], [3.0, 0.0]], [np.eye(2), np.diag([1.0, 2.0])],
            [40, 60], seed=5)
        x, y = gen_mixture(spec)
        assert bcfid(x, y, x, y) <= 1e-9
        total, per = wcfid(x, y, x, y)
        assert total <= 1e-9
        assert np.all(per <= 1e-9)
        assert cfid_sum(x, y, x, y) <= 2e-9

    def test_bcfid_label_swap_invariance(self):
        rng = rng_for(6)
        x = rng.standard_normal((80, 3))
        y = np.repeat([0, 1], 40)
        g = rng.standard_normal((80, 3)) + 0.5
        swapped = 1 - y
        assert bcfid(x, y, g, y) == pytest.approx(
            bcfid(x, swapped, g, y), abs=1e-12)

    def test_small_class_rejected_by_name(self):
        x = np.arange(10, dtype=float).reshape(5, 2)
        y = np.array([0, 0, 0, 0, 1])
        with pytest.raises(InvalidInputError, match="class 1"):
            wcfid(x, y, x, y)

    def test_wcfid_weights_classes_by_their_counts(self):
        spec_r = MixtureSpec(
            [[0.0, 0.0], [4.0, 0.0]], [np.eye(2), np.eye(2)], [30, 90], seed=8)
        spec_g = MixtureSpec(
            [[0.5, 0.0], [4.0, 1.0]], [np.eye(2), np.eye(2)], [30, 90], seed=9)
        rx, ry = gen_mixture(spec_r)
        gx, gy = gen_mixture(spec_g)
        weighted, per_w = wcfid(rx, ry, gx, gy)
        assert weighted == pytest.approx(float(np.array([0.25, 0.75]) @ per_w), abs=1e-12)

    def test_matched_moment_population_sum(self):
        from condmetrics import matched_moments_population

        a, b = matched_moments_population()
        total = bcfid_from_stats(a, b) + wcfid_from_stats(a, b)[0]
        # diagonal closed form: 2 + (4 + 2(1-sqrt2)^2 + (sqrt3-1)^2)/2
        oracle = 2.0 + 0.5 * (
            4.0 + 2.0 * (1.0 - math.sqrt(2.0)) ** 2 + (math.sqrt(3.0) - 1.0) ** 2)
        assert total == pytest.approx(oracle, abs=1e-12)
        assert total == pytest.approx(4.4395, abs=1e-3)

    def test_pairing_reorders_real_classes(self):
        rng = rng_for(10)
        base = rng.standard_normal((60, 2))
        x = np.concatenate([base[:30], base[30:] + 5.0])
        y = np.repeat([0, 1], 30)
        # generated classes are swapped relative to real ones
        g = np.concatenate([base[30:] + 5.0, base[:30]])
        identity_total, _ = wcfid(x, y, g, y)
        swapped_total, _ = wcfid(x, y, g, y, pairing=np.array([1, 0]))
        assert swapped_total <= 1e-9
        assert identity_total > 1.0

    def test_sample_scores_equal_the_stats_reference(self):
        # the streamed sample path and the stats-level path take the same
        # estimates and distances, so they agree bit for bit
        rng = rng_for(16)
        k, d = 4, 3
        y = np.repeat(np.arange(k), [5, 9, 3, 12])
        gy = np.repeat(np.arange(k), [7, 4, 10, 6])
        x = rng.standard_normal((y.size, d)) + y[:, None]
        g = 1.2 * rng.standard_normal((gy.size, d)) + 0.5
        perm = np.array([2, 0, 3, 1])
        real = class_conditional_stats(x, y)
        gen = class_conditional_stats(g, gy)
        total, per = wcfid(x, y, g, gy, pairing=perm)
        ref_total, ref_per = wcfid_from_stats(real, gen, perm)
        assert total == ref_total
        assert np.array_equal(per, ref_per)
        between = bcfid(x, y, g, gy)
        assert between == bcfid_from_stats(real, gen)
        assert cfid_sum(x, y, g, gy, pairing=perm) == between + total

    def test_bcfid_takes_single_row_classes_and_wcfid_does_not(self):
        rng = rng_for(17)
        y = np.array([0, 1, 1, 1])
        x = rng.standard_normal((4, 2))
        g = rng.standard_normal((4, 2)) + 1.0
        assert bcfid(x, y, g, y) == bcfid_from_stats(
            class_conditional_stats(x, y), class_conditional_stats(g, y))
        with pytest.raises(InvalidInputError,
                           match=r"class 0 has 1 sample\(s\), needs >= 2 on the real side"):
            wcfid(x, y, g, y)

    def test_bcfid_takes_class_means_alone(self, monkeypatch):
        # no class's Gaussian is estimated, and the value is still the stats
        # reference's bit for bit
        rng = rng_for(18)
        k, d = 5, 6
        y = np.repeat(np.arange(k), [1, 4, 9, 2, 7])
        gy = np.repeat(np.arange(k), [3, 3, 1, 8, 5])
        x = rng.standard_normal((y.size, d)) + y[:, None]
        g = 1.3 * rng.standard_normal((gy.size, d))
        want = bcfid_from_stats(class_conditional_stats(x, y), class_conditional_stats(g, gy))

        def forbidden(*_args, **_kwargs):
            raise AssertionError("a per-class estimate in bcfid")

        monkeypatch.setattr(metrics, "_estimate_gaussian", forbidden)
        monkeypatch.setattr(evaluate, "_estimate_gaussian", forbidden)
        assert bcfid(x, y, g, gy) == want

    def test_wcfid_and_cfid_sum_estimate_no_pooled_gaussian(self, monkeypatch):
        # the pooled Gaussians are fid's alone; the per-class scores equal the
        # report's, which estimated them
        rng = rng_for(19)
        k, d = 3, 4
        y = np.repeat(np.arange(k), [6, 8, 7])
        gy = np.repeat(np.arange(k), [7, 6, 9])
        x = rng.standard_normal((y.size, d)) + y[:, None]
        g = 1.2 * rng.standard_normal((gy.size, d)) + gy[:, None]
        rep = build_report(real_features=x, real_labels=y, gen_features=g, gen_labels=gy)

        def forbidden(*_args, **_kwargs):
            raise AssertionError("a pooled estimate")

        monkeypatch.setattr(evaluate, "_estimate_gaussian", forbidden)
        total, per = wcfid(x, y, g, gy)
        assert total == rep.wcfid
        assert np.array_equal(per, rep.per_class_fid)
        assert cfid_sum(x, y, g, gy) == rep.cfid_sum
        with pytest.raises(AssertionError, match="a pooled estimate"):
            fid(x, g)


class TestClassConditionalStats:
    def test_between_mean_matches_weighted_average(self):
        rng = rng_for(12)
        x = rng.standard_normal((120, 3))
        y = rng.integers(0, 3, 120).astype(np.int64)
        y[:3] = [0, 1, 2]
        stats = class_conditional_stats(x, y)
        means = np.stack([s.mean for s in stats.per_class])
        assert np.allclose(stats.between.mean, stats.priors @ means, atol=1e-9)

    def test_law_of_total_covariance(self):
        rng = rng_for(13)
        x = rng.standard_normal((200, 4)) * rng.uniform(0.5, 2.0, 4)
        y = rng.integers(0, 4, 200).astype(np.int64)
        y[:4] = np.arange(4)
        stats = class_conditional_stats(x, y)
        pooled = pooled_gaussian(stats)
        direct = estimate_gaussian(x)
        assert np.all(np.abs(pooled.cov - direct.cov) < 1e-8)
        assert np.allclose(pooled.mean, direct.mean, atol=1e-9)

    def test_bound_on_matched_count_mixtures(self):
        for seed in range(20):
            rng = rng_for(1000 + seed)
            d, k = int(rng.choice([2, 8])), int(rng.choice([2, 5]))
            counts = rng.integers(5, 40, k)
            def draw(s):
                means = rng.normal(0, 2, (k, d))
                covs = []
                for _ in range(k):
                    b = rng.normal(0, 1, (d, d))
                    covs.append(b @ b.T / d + 0.1 * np.eye(d))
                return gen_mixture(MixtureSpec(means, covs, counts, seed=s))
            rx, ry = draw(2 * seed)
            gx, gy = draw(2 * seed + 1)
            total = cfid_sum(rx, ry, gx, gy)
            assert fid(rx, gx) <= total + 1e-6

    @pytest.mark.parametrize("covs, priors, shapes", [
        ([np.eye(2)], [0.5, 0.5], ["(2, 2)", "(1, 2, 2)"]),
        ([np.eye(2)] * 3, [0.5, 0.5], ["(2, 2)", "(3, 2, 2)"]),
        ([np.eye(2)] * 2, [[0.5, 0.5]], ["(2, 2)", "(1, 2)"]),
        (1.0, [0.5, 0.5], ["(2, 2)", "()"]),
    ], ids=["fewer-covs", "more-covs", "2-d-priors", "scalar-covs"])
    def test_from_moments_rejects_mismatched_shapes(self, covs, priors, shapes):
        # each malformed input raises the typed error naming both shapes
        with pytest.raises(InvalidInputError) as err:
            metrics.class_conditional_from_moments([[0.0, 0.0], [1.0, 1.0]], covs, priors)
        assert all(shape in str(err.value) for shape in shapes), err.value


def test_unknown_pairing_fails_before_any_row_pass_or_estimate(monkeypatch):
    # an unknown value of one argument is invalid input
    probs, labels, _ = random_instance(16, k=3, n=60, balanced=True)
    x = rng_for(17).standard_normal((60, 2))

    def forbidden(*_args, **_kwargs):
        raise AssertionError("work was done before the pairing was checked")

    monkeypatch.setattr(metrics, "_neg_entropy_rows", forbidden)
    monkeypatch.setattr(evaluate, "_estimate_gaussian", forbidden)
    with pytest.raises(InvalidInputError, match=r"^unknown pairing 'bogus', expected one of "
                                                r"\('identity', 'hungarian'\)$"):
        build_report(real_features=x, real_labels=labels, gen_features=x + 1.0,
                     gen_labels=labels, probs=probs, pairing="bogus")


class TestSubsampledSuite:
    def _instance(self):
        spec_r = MixtureSpec(
            np.arange(12, dtype=float).reshape(3, 4),
            [np.eye(4)] * 3, [50, 60, 70], seed=21)
        spec_g = MixtureSpec(
            np.arange(12, dtype=float).reshape(3, 4) + 0.3,
            [np.eye(4) * 1.2] * 3, [50, 60, 70], seed=22)
        rx, ry = gen_mixture(spec_r)
        gx, gy = gen_mixture(spec_g)
        return rx, ry, gx, gy

    def test_full_subset_single_trial_equals_scaled_full(self):
        rx, ry, gx, gy = self._instance()
        rep = build_report(real_features=rx, real_labels=ry, gen_features=gx, gen_labels=gy,
                           subset_size=4, trials=1, seed=0)
        full_fid = fid(rx, gx)
        full_bcfid = bcfid(rx, ry, gx, gy)
        full_wcfid, full_per = wcfid(rx, ry, gx, gy)
        assert abs(rep.fid - full_fid / 4) <= 1e-10
        assert abs(rep.bcfid - full_bcfid / 4) <= 1e-10
        assert abs(rep.wcfid - full_wcfid / 4) <= 1e-10
        assert np.all(np.abs(rep.per_class_fid - full_per / 4) <= 1e-10)
        assert rep.dims_used == 4
        assert rep.cfid_sum == rep.bcfid + rep.wcfid

    def test_identical_inputs_zero(self):
        rx, ry, _, _ = self._instance()
        rep = build_report(real_features=rx, real_labels=ry, gen_features=rx, gen_labels=ry,
                           subset_size=2, trials=5, seed=3)
        assert rep.fid <= 1e-9
        assert rep.bcfid <= 1e-9
        assert rep.wcfid <= 1e-9

    def test_fixed_seed_bit_identical(self):
        rx, ry, gx, gy = self._instance()
        a = build_report(real_features=rx, real_labels=ry, gen_features=gx, gen_labels=gy,
                         subset_size=2, trials=7, seed=5)
        b = build_report(real_features=rx, real_labels=ry, gen_features=gx, gen_labels=gy,
                         subset_size=2, trials=7, seed=5)
        assert a.fid == b.fid
        assert a.bcfid == b.bcfid
        assert a.wcfid == b.wcfid
        assert np.array_equal(a.per_class_fid, b.per_class_fid)

    def test_oversized_subset_rejected(self):
        rx, ry, gx, gy = self._instance()
        with pytest.raises(InvalidInputError):
            build_report(real_features=rx, real_labels=ry, gen_features=gx, gen_labels=gy,
                         subset_size=5, trials=1, seed=0)


def array_holders():
    """Two equal-valued, separately built instances of each dataclass that
    holds arrays."""
    x = rng_for(31).normal(size=(12, 2))
    y = np.arange(12) % 3
    makers = [
        lambda: GaussianStats(np.zeros(2), np.eye(2)),
        lambda: class_conditional_stats(x, y),
        lambda: ClassAssignment(np.array([1, 0, 2]), 2.5),
        lambda: MixtureSpec(np.zeros((2, 2)), [np.ones(2)] * 2, [3, 3], seed=1),
        lambda: build_report(real_features=x, real_labels=y, gen_features=x + 0.1,
                             gen_labels=y),
    ]
    return [(make(), make()) for make in makers]


@pytest.mark.parametrize("a, b", array_holders(),
                         ids=lambda obj: type(obj).__name__)
def test_array_holding_dataclasses_compare_by_identity(a, b):
    # == on their arrays would be ambiguous, so these compare as objects do
    assert (a == a) is True and (a == b) is False and (a != b) is True
    assert a in [b, a] and b not in [a]
    assert len({hash(a), hash(b), hash(a)}) == 2
