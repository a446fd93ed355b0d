"""Independent oracle for the condmetrics reports.

Plain numpy only; no condmetrics function is called.  The Fréchet distance is
computed by a different route than the program's: with centred, scaled sample
matrices A and B (covariances A^T A and B^T B), the cross term
Tr((S_a^1/2 S_b S_a^1/2)^1/2) equals the nuclear norm of R_a R_b^T, where R_a
and R_b are the triangular factors of QR decompositions of A and B.  That
needs no matrix square root and no d x d matrix when there are fewer samples
than dimensions.

Tolerances: score values must match to a relative 1e-8, far above the ~1e-14
at which two exact algorithms differ and far below the change any wrong class
pairing makes.  The bound ``fid <= bcfid + wcfid`` may be violated by at most
1e-6, the acceptance gate's own slack.  Accuracies are exact.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

REL_TOL = 1e-8
BOUND_SLACK = -1e-6
IDENTITY_TOL = 1e-8
PROB_FLOOR = 1e-12  # the metric definition floors probabilities before any log


# ---------------------------------------------------------------------------
# feature scores


def _factor(centred_scaled: np.ndarray) -> np.ndarray:
    return np.linalg.qr(centred_scaled, mode="r")


def _frechet(mean_a, fac_a, tr_a, mean_b, fac_b, tr_b) -> float:
    delta = mean_a - mean_b
    cross = float(np.linalg.svd(fac_a @ fac_b.T, compute_uv=False).sum())
    return max(float(delta @ delta) + tr_a + tr_b - 2.0 * cross, 0.0)


def _gaussian(x: np.ndarray):
    """Mean, QR factor and trace of the population covariance (divisor N)."""
    mean = x.mean(axis=0)
    a = (x - mean) / math.sqrt(x.shape[0])
    return mean, _factor(a), float(np.sum(a * a))


def _between(x: np.ndarray, y: np.ndarray, k: int):
    """Gaussian fitted to the class means, weighted by empirical class priors."""
    counts = np.bincount(y, minlength=k).astype(np.float64)
    priors = counts / counts.sum()
    means = np.stack([x[y == c].mean(axis=0) for c in range(k)])
    mu = priors @ means
    a = np.sqrt(priors)[:, None] * (means - mu)
    return mu, _factor(a), float(np.sum(a * a)), priors


def feature_scores(real_x, real_y, gen_x, gen_y, k, mapping) -> dict:
    """fid, bcfid, wcfid and per-class fid; gen condition c is compared with
    real class mapping[c] and weighted by that real class's prior."""
    mapping = np.asarray(mapping)
    fid = _frechet(*_gaussian(real_x), *_gaussian(gen_x))
    rb, gb = _between(real_x, real_y, k), _between(gen_x, gen_y, k)
    bcfid = _frechet(*rb[:3], *gb[:3])
    real_classes = [_gaussian(real_x[real_y == c]) for c in range(k)]
    per = np.array([
        _frechet(*real_classes[mapping[c]], *_gaussian(gen_x[gen_y == c]))
        for c in range(k)
    ])
    wcfid = float(rb[3][mapping] @ per)
    return {"fid": fid, "bcfid": bcfid, "wcfid": wcfid, "cfid_sum": bcfid + wcfid,
            "per_class_fid": per.tolist()}


# ---------------------------------------------------------------------------
# probability scores


class ProbAccumulator:
    """Streams row blocks of a probability matrix with their condition labels
    and yields IS, BCIS, WCIS, per-class IS and accuracy."""

    def __init__(self, k: int):
        self.k = k
        self.n = 0
        self.col_sum = np.zeros(k)
        self.neg_entropy = 0.0
        self.class_sum = np.zeros((k, k))
        self.class_neg_entropy = np.zeros(k)
        self.class_count = np.zeros(k, dtype=np.int64)
        self.class_hits = np.zeros(k, dtype=np.int64)

    def add(self, p: np.ndarray, labels: np.ndarray) -> None:
        q = np.clip(p, PROB_FLOOR, None)
        q /= q.sum(axis=1, keepdims=True)
        row_ne = np.sum(q * np.log(q), axis=1)
        order = np.argsort(labels, kind="stable")
        ys, q, row_ne = labels[order], q[order], row_ne[order]
        present, starts = np.unique(ys, return_index=True)
        self.class_sum[present] += np.add.reduceat(q, starts, axis=0)
        self.class_neg_entropy[present] += np.add.reduceat(row_ne, starts)
        self.class_count += np.bincount(ys, minlength=self.k)
        hits = np.argmax(p[order], axis=1) == ys
        self.class_hits += np.bincount(ys[hits], minlength=self.k)
        self.col_sum += q.sum(axis=0)
        self.neg_entropy += float(row_ne.sum())
        self.n += labels.size

    def finish(self) -> dict:
        n, counts = self.n, self.class_count
        marginal = self.col_sum / n
        log_is = self.neg_entropy / n - float(marginal @ np.log(marginal))
        priors = counts / n
        avg = self.class_sum / counts[:, None]
        log_avg = np.log(avg)
        log_bcis = float(priors @ np.sum(avg * (log_avg - np.log(marginal)), axis=1))
        per_log = self.class_neg_entropy / counts - np.sum(avg * log_avg, axis=1)
        return {
            "is": math.exp(log_is),
            "bcis": math.exp(log_bcis),
            "wcis": math.exp(float(priors @ per_log)),
            "per_class_is": np.exp(per_log).tolist(),
            "accuracy": int(self.class_hits.sum()) / n,
            "per_class_accuracy": [int(h) / int(c) for h, c in zip(self.class_hits, counts)],
        }


# ---------------------------------------------------------------------------
# report checks


def _close(got, want, tol=REL_TOL) -> bool:
    if got is None:
        return False
    return abs(float(got) - want) <= tol * max(abs(want), 1e-300)


def _compare(where: str, row: dict, expected: dict, failures: list) -> None:
    for key, want in expected.items():
        got = row.get(key)
        if isinstance(want, list):
            if got is None or len(got) != len(want):
                failures.append(f"{where}: {key} has the wrong length")
            elif key.endswith("accuracy"):
                if [float(g) for g in got] != want:
                    failures.append(f"{where}: {key} differs from the argmax count")
            else:
                bad = [i for i, (g, w) in enumerate(zip(got, want)) if not _close(g, w)]
                if bad:
                    failures.append(f"{where}: {key}[{bad[0]}] = {got[bad[0]]} != {want[bad[0]]}")
        elif key == "accuracy":
            if got is None or float(got) != want:
                failures.append(f"{where}: accuracy {got} != argmax count {want}")
        elif not _close(got, want):
            failures.append(f"{where}: {key} = {got} != oracle {want}")


def _identities(where: str, row: dict, failures: list) -> None:
    if row.get("is") is not None:
        gap = math.log(row["is"]) - math.log(row["bcis"]) - math.log(row["wcis"])
        if not abs(gap) <= IDENTITY_TOL:
            failures.append(f"{where}: log IS - log BCIS - log WCIS = {gap:.3e}")
    slack = row["bcfid"] + row["wcfid"] - row["fid"]
    if not slack >= BOUND_SLACK:
        failures.append(f"{where}: fid exceeds bcfid + wcfid by {-slack:.3e}")


def check_report(case, text: str) -> list[str]:
    """Every way the report text disagrees with the oracle; empty when correct."""
    failures: list[str] = []
    try:
        if case.out_name.endswith(".json"):
            report = json.loads(text)
            _compare("report", report, case.expected, failures)
            _identities("report", report, failures)
        else:
            _check_sweep(text, case.grid, case.expected, failures)
    except (ValueError, KeyError, TypeError) as exc:
        failures.append(f"unreadable report: {exc!r}")
    return failures


def _check_sweep(text: str, grid: list, expected: dict, failures: list) -> None:
    rows = [
        {key: (float(val) if val != "" else None) for key, val in row.items()}
        for row in csv.DictReader(io.StringIO(text))
    ]
    if [row["param"] for row in rows] != grid or grid[0] != 0.0:
        failures.append(f"sweep: rows {[row['param'] for row in rows]} != grid {grid}")
        return
    for row in rows:
        _identities(f"sweep p={row['param']}", row, failures)
    for key in ("is", "fid"):
        if len({row[key] for row in rows}) != 1:
            failures.append(f"sweep: {key} changes across rows")
    scalars = {key: val for key, val in expected.items() if not isinstance(val, list)}
    _compare("sweep p=0", rows[0], scalars, failures)
