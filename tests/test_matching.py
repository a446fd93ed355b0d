import itertools
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import condmetrics
import condmetrics.matching as matching
from condmetrics import (
    InvalidInputError,
    average_class_probabilities,
    hungarian_max,
    open_probabilities,
)
from condmetrics.cli import main
from condmetrics.metrics import PROB_FLOOR
from condmetrics.synth import dirichlet_rows, rng_for
from condmetrics.tensorfile import save_tensor


def brute_force_max(value):
    k = value.shape[0]
    best_score, best_perm = -np.inf, None
    for perm in itertools.permutations(range(k)):
        score = float(value[np.arange(k), list(perm)].sum())
        if score > best_score:
            best_score, best_perm = score, perm
    return best_score, best_perm


def brute_force_lex(value):
    """The tie rule by enumeration: first permutation in lexicographic order
    whose score is within 1e-9 * (1 + |best|) of the best score."""
    k = value.shape[0]
    perms = np.array(list(itertools.permutations(range(k))), dtype=np.int64)
    scores = value[np.arange(k), perms].sum(axis=1)
    best = float(scores.max())
    return perms[np.argmax(scores >= best - 1e-9 * (1.0 + abs(best)))]


def reference_lex_smallest(value):
    """The former tie-break, kept as the reference: one assignment solve per
    (row, candidate column), O(K^2) solves."""
    def solve_score(sub):
        _, cols = linear_sum_assignment(float(sub.max()) - sub)
        return float(sub[np.arange(sub.shape[0]), cols].sum())

    k = value.shape[0]
    best = solve_score(value)
    tol = 1e-9 * (1.0 + abs(best))
    available = list(range(k))
    mapping = np.empty(k, dtype=np.int64)
    prefix = 0.0
    for row in range(k):
        rest_rows = list(range(row + 1, k))
        for col in available:
            candidate = prefix + float(value[row, col])
            if rest_rows:
                rest_cols = [c for c in available if c != col]
                candidate += solve_score(value[np.ix_(rest_rows, rest_cols)])
            if candidate >= best - tol:
                mapping[row] = col
                prefix += float(value[row, col])
                available.remove(col)
                break
    return mapping


class TestAverageClassProbabilities:
    def test_one_hot_per_class_is_identity(self):
        probs = np.eye(3)
        conds = np.arange(3)
        assert np.allclose(average_class_probabilities(probs, conds), np.eye(3))

    def test_two_rows_average(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        conds = np.array([0, 0, 1])
        avg = average_class_probabilities(probs, conds)
        assert np.allclose(avg[0], [0.5, 0.5])
        assert np.allclose(avg[1], [0.0, 1.0])

    def test_rows_sum_to_one(self):
        probs = dirichlet_rows([0.7, 1.3, 2.0], 60, seed=1)
        conds = rng_for(2).integers(0, 3, 60).astype(np.int64)
        conds[:3] = [0, 1, 2]
        avg = average_class_probabilities(probs, conds)
        assert np.allclose(avg.sum(axis=1), 1.0, atol=1e-6)
        for c in range(3):
            assert np.allclose(avg[c], probs[conds == c].mean(axis=0), atol=1e-12)

    def test_empty_conditioned_class_rejected(self):
        probs = np.full((2, 3), 1.0 / 3.0)
        with pytest.raises(InvalidInputError, match="class 1"):
            average_class_probabilities(probs, np.array([0, 2]))

    def test_one_hot_rows_average_their_cleaned_form(self, tmp_path):
        # the averages are of the rows floored at PROB_FLOOR and renormalized,
        # as every score reads them: off its peak a one-hot row keeps
        # PROB_FLOOR / (1 + (K - 1) PROB_FLOOR), from an array, from a file
        # and in what the match command writes
        k = 4
        conds = np.repeat(np.arange(k), 3)
        probs = np.eye(k)[(conds + 1) % k]
        paths = {"probs": tmp_path / "probs.cfm", "gen-labels": tmp_path / "conds.cfm"}
        save_tensor(paths["probs"], probs)
        save_tensor(paths["gen-labels"], conds)
        averages = average_class_probabilities(probs, conds)
        assert np.array_equal(
            average_class_probabilities(open_probabilities(paths["probs"]), conds), averages)
        peaks = np.eye(k)[(np.arange(k) + 1) % k] == 1
        scale = 1.0 + (k - 1) * PROB_FLOOR
        assert averages[~peaks] == pytest.approx(np.full(k * (k - 1), PROB_FLOOR / scale),
                                                 rel=1e-12)
        assert averages[peaks] == pytest.approx(np.full(k, 1.0 / scale), rel=1e-12)
        out = tmp_path / "match.json"
        args = [arg for flag, path in paths.items() for arg in (f"--{flag}", str(path))]
        assert main(["match", *args, "--out", str(out)]) == 0
        written = json.loads(out.read_text())
        assert written["mapping"] == [(c + 1) % k for c in range(k)]
        assert np.array_equal(written["average_probabilities"], averages)


class TestHungarianMax:
    def test_identity_matrix(self):
        result = hungarian_max(np.eye(4))
        assert np.array_equal(result.mapping, np.arange(4))
        assert result.score == 4.0

    def test_anti_diagonal(self):
        result = hungarian_max(np.fliplr(np.eye(5)))
        assert np.array_equal(result.mapping, np.arange(5)[::-1])
        assert result.score == 5.0

    def test_matches_brute_force_on_seeded_matrices(self):
        for seed in range(100):
            value = rng_for(4000 + seed).uniform(0.0, 1.0, (4, 4))
            result = hungarian_max(value)
            best_score, _ = brute_force_max(value)
            assert result.score == best_score

    def test_constant_tie_breaks_lexicographically(self):
        result = hungarian_max(np.ones((4, 4)))
        assert np.array_equal(result.mapping, np.arange(4))

    def test_row_and_column_shifts_preserve_argmax(self):
        for seed in range(20):
            rng = rng_for(600 + seed)
            value = rng.uniform(0.0, 1.0, (5, 5))
            base = hungarian_max(value).mapping
            shifted = value + rng.uniform(-3, 3, (5, 1))  # per-row constants
            shifted = shifted + rng.uniform(-3, 3, (1, 5))  # per-column constants
            assert np.array_equal(hungarian_max(shifted).mapping, base)

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInputError):
            hungarian_max(np.zeros((2, 3)))
        with pytest.raises(InvalidInputError):
            hungarian_max(np.array([[np.inf, 0.0], [0.0, 1.0]]))
        with pytest.raises(InvalidInputError, match=r"non-empty, got shape \(0, 0\)"):
            hungarian_max(np.zeros((0, 0)))

    def test_overflowing_finite_matrix_is_typed_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="too large"):
                hungarian_max([[1e308, -1e308], [-1e308, 1e308]])
            with pytest.raises(InvalidInputError, match="too large"):
                hungarian_max(np.full((3, 3), 1e308))


class TestLexicographicTieBreak:
    @staticmethod
    def _planted(seed):
        """Tie-heavy matrices for K <= 7: {0,1,2} integers, 0.1 grid, constants,
        near-ties 0.5x / 2x the tolerance below or above a tied optimum, and
        0/1 matrices with sub-tolerance noise on every entry, where one row's
        choice spends part of the tolerance that later rows can still use."""
        rng = rng_for(seed)
        k = int(rng.integers(1, 8))
        kind = seed % 5
        if kind == 0:
            return rng.integers(0, 3, (k, k)).astype(np.float64)
        if kind == 1:
            return np.round(rng.uniform(0.0, 1.0, (k, k)), 1)
        if kind == 2:
            return np.full((k, k), float(rng.uniform(-2.0, 2.0)))
        value = rng.integers(0, 2, (k, k)).astype(np.float64)
        if kind == 4:
            return value + rng.uniform(-0.7, 0.7, (k, k)) * 1e-9 * (1.0 + k)
        best = float(brute_force_max(value)[0])
        tol = 1e-9 * (1.0 + abs(best))
        winner = brute_force_lex(value)
        row = int(rng.integers(0, k))
        value[row, winner[row]] += rng.choice([-2.0, -0.5, 0.5, 2.0]) * tol
        return value

    def test_matches_brute_force_tie_rule(self):
        for seed in range(500):
            value = self._planted(700 + seed)
            assert np.array_equal(hungarian_max(value).mapping, brute_force_lex(value)), seed

    def test_near_ties_either_side_of_tolerance(self):
        # the lexicographically first optimum [0, 1] loses f * tol against [1, 0]
        for f, expected in ((0.5, [0, 1]), (2.0, [1, 0])):
            value = np.ones((2, 2))
            value[0, 0] -= f * 1e-9 * 3.0
            assert np.array_equal(hungarian_max(value).mapping, expected)

    def test_loss_inside_the_search_margin_is_rejected_by_the_exact_sum(self, monkeypatch):
        # [0, 1] loses (1 + f / 1024) * tol against [1, 0]: the search keeps
        # tol / 1024 beyond the tolerance, so it proposes [0, 1], and the
        # row-order sum of the proposal must turn it down
        priced = []
        score = matching._assignment_score

        def recorded(value, mapping):
            priced.append(mapping.tolist())
            return score(value, mapping)

        monkeypatch.setattr(matching, "_assignment_score", recorded)
        for f in (0.25, 0.5, 0.75):
            priced.clear()
            value = np.ones((2, 2))
            value[0, 0] -= (1.0 + f / 1024) * 1e-9 * 3.0
            assert hungarian_max(value).mapping.tolist() == [1, 0]
            assert [0, 1] in priced

    @staticmethod
    def _tight_blocks(n):
        # the first n rows tie between every left column and their own right
        # column, but taking a left column displaces a row of the all-tie
        # bottom block onto the right side at a loss of 0.5: every left column
        # has zero slack, and none can be taken
        value = np.zeros((2 * n, 2 * n))
        value[:n, :n] = 2.0
        value[np.arange(n), n + np.arange(n)] = 2.0
        value[n:, :n] = 1.0
        value[n:, n:] = 0.5
        return value

    @pytest.mark.parametrize("k", [8, 13, 21, 34, 60])
    def test_matches_former_tie_break(self, k):
        rng = rng_for(900 + k)
        for value in (rng.uniform(0.0, 1.0, (k, k)),
                      rng.integers(0, 3, (k, k)).astype(np.float64),
                      np.round(rng.uniform(0.0, 1.0, (k, k)), 1),
                      self._tight_blocks(k // 2)):
            assert np.array_equal(hungarian_max(value).mapping, reference_lex_smallest(value))

    def test_one_search_per_row_on_tight_blocks(self, monkeypatch):
        # zero-slack columns that cannot be taken are priced by one search per
        # row, not one per column, which keeps the pass O(K^3)
        searches = []
        search = matching._cheapest_forcing

        def counted(*args):
            searches.append(1)
            return search(*args)

        monkeypatch.setattr(matching, "_cheapest_forcing", counted)
        result = hungarian_max(self._tight_blocks(100))
        assert len(searches) <= 200
        assert np.array_equal(result.mapping[:100], 100 + np.arange(100))

    @pytest.mark.parametrize("value", [
        rng_for(11).uniform(0.0, 1.0, (200, 200)),  # unique optimum
        np.ones((50, 50)),  # every permutation ties
    ], ids=["unique-k200", "all-ties-k50"])
    def test_one_assignment_solve_per_call(self, monkeypatch, value):
        _, optimum = linear_sum_assignment(value.max() - value)  # scipy as the oracle
        solves = []
        solve = matching.linear_sum_assignment

        def counted(matrix):
            solves.append(matrix.shape)
            return solve(matrix)

        monkeypatch.setattr(matching, "linear_sum_assignment", counted)
        result = hungarian_max(value)
        assert solves == [value.shape]
        assert result.score == float(value[np.arange(value.shape[0]), optimum].sum())


def _certificate_cases():
    rng = rng_for(77)
    cases = {f"uniform-k{k}": rng.uniform(0.0, 1.0, (k, k)) for k in (1, 2, 8, 60, 200)}
    cases["integers-012"] = rng.integers(0, 3, (40, 40)).astype(np.float64)
    cases["all-ties"] = np.ones((50, 50))
    cases["tight-blocks"] = TestLexicographicTieBreak._tight_blocks(30)
    cases["negative"] = rng.uniform(-5.0, 5.0, (30, 30))
    cases["signs-1e150"] = 1e150 * rng.choice([-1.0, 1.0], (20, 20))
    cases["uniform-1e150"] = 1e150 * rng.uniform(-1.0, 1.0, (20, 20))
    return cases


_CERTIFICATE_CASES = _certificate_cases()


@pytest.mark.parametrize("name", list(_CERTIFICATE_CASES))
def test_solver_returns_an_optimum_with_its_dual_certificate(name):
    # u_i + v_j >= value_ij everywhere, with equality on the mapping, proves
    # the mapping optimal; scipy serves only as an independent oracle here
    value = _CERTIFICATE_CASES[name]
    k = value.shape[0]
    rows = np.arange(k)
    mapping, u, v = matching.linear_sum_assignment(value)
    assert np.array_equal(np.sort(mapping), rows)
    _, optimum = linear_sum_assignment(value, maximize=True)
    best = float(value[rows, optimum].sum())
    assert abs(float(value[rows, mapping].sum()) - best) <= 1e-12 * abs(best)
    slack = u[:, None] + v[None, :] - value
    tol = 1e-12 * (1.0 + float(np.abs(value).max()))
    assert slack.min() >= -tol
    assert np.abs(slack[rows, mapping]).max() <= tol


class TestAlignDiscovered:
    @staticmethod
    def _clustered(k, shift, noise, seed, n_per_class=40):
        # cluster c predicts class (c + shift) % k with 1-noise of the mass
        rng = rng_for(seed)
        rows, conds = [], []
        for c in range(k):
            target = (c + shift) % k
            for _ in range(n_per_class):
                row = rng.uniform(0.0, noise, k)
                row[target] += 1.0
                rows.append(row / row.sum())
                conds.append(c)
        return np.asarray(rows), np.asarray(conds, dtype=np.int64)

    def test_identity_clusters(self):
        probs, conds = self._clustered(4, shift=0, noise=0.0, seed=1)
        assert np.array_equal(
            hungarian_max(average_class_probabilities(probs, conds)).mapping, np.arange(4))

    def test_shifted_clusters_recover_cycle(self):
        k = 5
        probs, conds = self._clustered(k, shift=1, noise=0.0, seed=2)
        mapping = hungarian_max(average_class_probabilities(probs, conds)).mapping
        assert np.array_equal(mapping, (np.arange(k) + 1) % k)

    def test_noisy_clusters_match_brute_force(self):
        for k in range(2, 7):
            probs, conds = self._clustered(k, shift=k // 2, noise=0.25, seed=30 + k)
            result = hungarian_max(average_class_probabilities(probs, conds))
            value = average_class_probabilities(probs, conds)
            best_score, best_perm = brute_force_max(value)
            assert result.score == best_score
            assert np.array_equal(result.mapping, (np.arange(k) + k // 2) % k)
            assert np.array_equal(result.mapping, np.asarray(best_perm))


_NO_SCIPY_CHILD = """
import json, sys
import condmetrics
from condmetrics import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

mapping = condmetrics.hungarian_max(json.loads(sys.argv[1])).mapping.tolist()
after_solve = scipy_modules()
code = cli.main(sys.argv[2:])
print(json.dumps({"mapping": mapping, "after_solve": after_solve,
                  "code": code, "after_sweep": scipy_modules()}))
"""


def test_alignment_never_imports_scipy(tmp_path):
    # a fresh interpreter, so modules loaded by other tests do not count
    value = rng_for(5).uniform(0.0, 1.0, (4, 4))
    k, n = 4, 40
    labels = np.repeat(np.arange(k), n // k)
    features = rng_for(6).normal(0.0, 1.0, (n, 3)) + labels[:, None]
    probs = np.full((n, k), 0.1 / (k - 1))
    probs[np.arange(n), (labels + 1) % k] = 0.9
    paths = {}
    for name, arr in [("features", features), ("labels", labels), ("probs", probs)]:
        paths[name] = str(tmp_path / f"{name}.cfm")
        save_tensor(paths[name], arr)
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--experiment", "label_noise", "--grid", "0,0.5", "--pairing", "hungarian",
            "--real-features", paths["features"], "--real-labels", paths["labels"],
            "--gen-features", paths["features"], "--gen-labels", paths["labels"],
            "--probs", paths["probs"], "--out", str(out)]
    src = str(Path(condmetrics.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _NO_SCIPY_CHILD, json.dumps(value.tolist()), *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout)
    assert child["mapping"] == hungarian_max(value).mapping.tolist()
    assert child["after_solve"] == []
    assert child["code"] == 0 and out.is_file()
    assert child["after_sweep"] == []
