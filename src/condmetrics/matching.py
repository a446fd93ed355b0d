"""Alignment of discovered (unlabelled-condition) classes to real classes.

The assignment maximizes the total average prediction probability.  The
in-package solver adds one row at a time by a shortest augmenting path
(Jonker & Volgenant, Computing 38, 1987; Crouse, IEEE TAES 52, 2016) on the
complemented matrix max(value) - value, and returns an optimal mapping M
with dual potentials u, v (u_i + v_j >= value_ij, equality on M).  Ties
between permutations whose scores lie within the tolerance of the optimum are
broken toward the lexicographically smallest mapping so repeated runs agree,
without solving again: the potentials make the optimal completions exactly
the perfect matchings of zero-slack edges (Burkard, Dell'Amico & Martello,
Assignment Problems, SIAM 2009, ch. 4), so a row's smaller columns are
pruned by their slack and the survivors priced together by one shortest-path
search over the unfixed rows.  Worst case O(K^3): one O(K^2) search per row,
both in the solver and in the tie-break.  Only numpy is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .gaussian import _as_finite
from .metrics import (
    _is_pass,
    _probability_rows,
    _resolve_mapping,
    as_label_vector,
    class_index_lists,
)


@dataclass(frozen=True, eq=False)
class ClassAssignment:
    """mapping[c] = real class paired with conditioned class c; score = total value."""

    mapping: np.ndarray
    score: float

    def __post_init__(self):
        object.__setattr__(self, "mapping", _resolve_mapping(self.mapping))


def average_class_probabilities(probs, conds) -> np.ndarray:
    """K x K matrix: row c = mean prediction distribution of conditioned class c.

    The rows are averaged cleaned (floored at ``PROB_FLOOR`` and renormalized),
    as the IS family and ``pairing="hungarian"`` read them.  ``probs`` is an
    N x K array or ``ProbabilityRows``, such as a ``tensorfile.ProbabilityFile``,
    which one pass reads in row blocks.
    """
    probs = _probability_rows(probs)
    n, k = probs.shape
    y = as_label_vector(conds, k, n=n)
    idx = class_index_lists(y, k, min_count=1, side="conditioned")
    (sums,) = _is_pass(probs, [y], k)[1]
    return sums / np.array([i.size for i in idx])[:, None]


def _assignment_score(value: np.ndarray, mapping: np.ndarray) -> float:
    return float(value[np.arange(value.shape[0]), mapping].sum())


def linear_sum_assignment(value: np.ndarray):
    """Optimal mapping of a square value matrix with its dual certificate.

    Solves min-cost on cost = max(value) - value.  Row r enters by a Dijkstra
    search over the columns, with the reduced costs cost_ij - u_i - v_j >= 0
    as lengths, from r to the nearest free column; at equal distance a free
    column is taken first.  The distances then shift the potentials, so they
    stay feasible and tight on the matched edges, and the path is flipped.
    Returns (mapping, u, v) in value form: u_i + v_j >= value_ij, with
    equality on the mapping.
    """
    k = value.shape[0]
    top = float(value.max())
    cost = top - value
    u, v = np.zeros(k), np.zeros(k)
    col4row = np.full(k, -1, dtype=np.int64)
    row4col = np.full(k, -1, dtype=np.int64)  # -1: the column is free
    pred = np.empty(k, dtype=np.int64)
    front = np.empty(k)  # tentative distances; a scanned column is held at inf
    unscanned = np.empty(k, dtype=bool)
    for start in range(k):
        front.fill(np.inf)
        unscanned.fill(True)
        free_cols = np.flatnonzero(row4col < 0)
        scanned, dist = [], []
        row, base = start, 0.0
        while True:
            reach = cost[row] - v
            reach += base - u[row]
            better = reach < front
            better &= unscanned
            np.putmask(front, better, reach)
            np.putmask(pred, better, row)
            col = int(front.argmin())
            base = float(front[col])
            if row4col[col] >= 0:
                at_free = front[free_cols]
                i = int(at_free.argmin())
                col = int(free_cols[i]) if at_free[i] == base else col
            scanned.append(col)
            dist.append(base)
            front[col] = np.inf
            unscanned[col] = False
            row = row4col[col]
            if row < 0:
                break
        cols, gain = np.array(scanned), base - np.array(dist)
        u[row4col[cols[:-1]]] += gain[:-1]
        u[start] += base
        v[cols] -= gain
        while True:  # flip the path from the free column back to `start`
            row = row4col[col] = pred[col]
            col4row[row], col = col, col4row[row]
            if row == start:
                break
    return col4row, top - u, -v


def _cheapest_forcing(value, u, v, owner, live, target, slack, allowance, candidate):
    """Smallest candidate column c with slack[c] + reseat[c] <= allowance.

    reseat[c] is the least loss of re-seating the row that holds column c,
    once c is taken, along a chain of live columns that ends in `target`.
    It is a Dijkstra backward from `target` with the slacks
    u_r + v_j - value_rj as edge lengths; a matched edge costs nothing.  The
    search stops once no unsettled candidate below the best fit can still
    fit.  Returns (c or None, nxt, reseat, settled): the row holding column
    j moves to column nxt[j]; `settled` lists the columns whose reseat is final.
    """
    reseat = np.full(owner.size, np.inf)
    nxt = np.empty(owner.size, dtype=np.int64)
    unsettled = live.copy()
    unsettled[target] = False
    reseat[target] = 0.0
    settled = [target]
    u_owner = u[owner]
    col, base, best = target, 0.0, None
    while True:
        reach = base + np.maximum(u_owner + v[col] - value[owner, col], 0.0)
        better = unsettled & (reach < reseat)
        reseat[better] = reach[better]
        nxt[better] = col
        waiting = candidate & unsettled
        if best is not None:
            waiting[best:] = False
        if not waiting.any():
            break
        front = np.where(unsettled, reseat, np.inf)
        col = int(np.argmin(front))
        base = float(front[col])
        if base + slack[waiting].min() > allowance:
            break
        unsettled[col] = False
        settled.append(col)
        if waiting[col] and slack[col] + base <= allowance:
            best = col
    return best, nxt, reseat, settled


def _lex_smallest_optimal(value, match, best: float, u, v) -> np.ndarray:
    """Lexicographically smallest mapping whose score is within tol of `best`.

    `match` is an optimal mapping and u, v its potentials.  Rows are fixed in
    order to their smallest column that keeps the optimum of the rest within
    the tolerance.  Column match[row] always does; a smaller live column c
    costs its slack plus the cheapest re-seating of the row holding c.  Slacks
    are exact to within `margin`, so the search keeps that much extra and the
    row-order sum of the re-seated mapping decides.  Accepting c shifts the
    potentials by the search distances, so `match` stays optimal for the
    unfixed rows and tight.
    """
    k = value.shape[0]
    tol = 1e-9 * (1.0 + abs(best))
    floor = best - tol
    margin = tol / 1024
    owner = np.empty(k, dtype=np.int64)
    owner[match] = np.arange(k)
    total = best
    for row in range(k):
        target = match[row]
        live = owner >= row
        slack = np.maximum(u[row] + v - value[row], 0.0)
        allowance = total - floor + margin
        candidate = live & (slack <= allowance)
        candidate[target:] = False
        while candidate.any():
            col, nxt, reseat, settled = _cheapest_forcing(
                value, u, v, owner, live, target, slack, allowance, candidate)
            if col is None:
                break
            rotated = match.copy()
            seat = col
            while seat != target:
                r, seat = owner[seat], nxt[seat]
                rotated[r] = seat
            rotated[row] = col
            score = _assignment_score(value, rotated)
            if score < floor:
                candidate[col] = False
                continue
            shift = reseat[settled] - reseat[settled[-1]]
            v[settled] += shift
            u[owner[settled]] -= shift
            match, total = rotated, score
            owner[match] = np.arange(k)
            break
    return match


def hungarian_max(value) -> ClassAssignment:
    """Optimal (not greedy) assignment maximizing the total selected value."""
    v, lo, hi = _as_finite(value, "value matrix")
    if v.ndim != 2 or v.shape[0] != v.shape[1] or not v.size:
        raise InvalidInputError(f"value matrix must be square and non-empty, got shape {v.shape}")
    k = v.shape[0]
    if not np.isfinite(k * (hi - lo)) or not np.isfinite(k * max(abs(lo), abs(hi))):
        raise InvalidInputError(
            "value matrix entries are too large: a sum of K entries or of K "
            "differences overflows float64")
    match, u, w = linear_sum_assignment(v)
    mapping = _lex_smallest_optimal(v, match, _assignment_score(v, match), u, w)
    return ClassAssignment(mapping=mapping, score=_assignment_score(v, mapping))

