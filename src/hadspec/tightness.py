"""Exceptional-line planning and entrywise truncation of weight profiles.

A profile is "tight at level epsilon" when removing at most floor(eps * n)
rows plus columns leaves all remaining entries below some bound M.  The
planner peels lines greedily: at each step it removes the single row or
column whose removal most reduces the maximum surviving entry.  Only a line
holding every entry equal to the surviving maximum can lower it: at most
one line when the maximum is attained more than once, exactly two (the
entry's row and column) when it is attained once.  So a step is one pass
over the surviving block, and a plan costs O(budget * n * N) instead of
the O(budget * (n + N) * n * N) of rescanning for every line.  Peeling
stops once the budget left cannot clear every maximum-attaining entry, so
a flat or block profile costs one step, not a budget of peels that would
all be rolled back.  Downstream consumers only need a feasible plan, not
an optimal one; minimizing M under a line budget is a combinatorial
problem this module deliberately does not solve, and a brute-force oracle
bounds the greedy gap in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import WeightProfile, validate_profile


class ZeroColumnAfterTruncationError(ValueError):
    """Entrywise truncation zeroed out whole columns; caller decides."""

    def __init__(self, columns):
        self.columns = tuple(int(k) for k in columns)
        self.k = self.columns[0]
        super().__init__(
            f"columns {self.columns} (0-based) became all-zero after truncation")


@dataclass(frozen=True)
class TruncationPlan:
    """Lines to remove and the resulting entry bound M."""

    epsilon: float
    M: float
    rows_removed: tuple
    cols_removed: tuple
    budget: int

    def __post_init__(self):
        if len(self.rows_removed) + len(self.cols_removed) > self.budget:
            raise ValueError("plan exceeds its line budget")

    @property
    def lines_used(self) -> int:
        return len(self.rows_removed) + len(self.cols_removed)

    def to_record(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "M": self.M,
            "rows": list(self.rows_removed),
            "cols": list(self.cols_removed),
            "budget": self.budget,
        }


def plan_truncation(profile: WeightProfile, epsilon: float) -> TruncationPlan:
    """Greedy line peeling under the budget floor(eps * n).

    Each step removes the single row or column whose removal most reduces
    the maximum surviving entry; when the current maximum is spread over
    several lines so that no single removal lowers it, the line covering
    the most maximum-attaining entries is peeled instead (rows before
    columns, lower index first on ties).  Removals past the last strict
    drop of the maximum are rolled back, so an already-flat profile removes
    nothing.

    A peel clears at most L maximum-attaining entries, L the most any
    surviving line holds, and peeling never raises a line's count while
    the maximum stands.  So once ceil(total / L) exceeds the peels left,
    total the entries attaining the maximum, no strict drop can follow and
    the loop stops: the plan is the one the full budget of peels would
    roll back to.

    Only lines holding every maximum-attaining entry lower the maximum, so
    a step scores no other line.  A maximum attained more than once has at
    most one such line, and it is also the best cover; a maximum attained
    once has two, its row and its column, each scored by the largest
    maximum among the other lines.  One pass over the surviving block
    gives the row maxima, and the rows attaining the maximum give the hit
    counts, so a step costs O(n * N) and a plan O(budget * n * N).
    """
    if not (0 < epsilon < 1):
        raise ValueError("epsilon must lie in (0, 1)")
    budget = int(np.floor(epsilon * profile.n))
    entries = profile.entries
    work = entries.copy()                  # peeled lines hold -inf
    removals: list[tuple[str, int]] = []   # trajectory in removal order
    last_drop = 0                          # removals needed for the best M seen

    while len(removals) < budget:
        row_max = work.max(axis=1)
        current = row_max.max()
        if not current > 0:                # nothing left, or only zeros
            break
        hit_rows = np.flatnonzero(row_max == current)
        at_max = work[hit_rows] == current
        row_hits = at_max.sum(axis=1)
        col_hits = at_max.sum(axis=0)
        total = int(row_hits.sum())
        j = int(np.argmax(row_hits))
        i, k = int(hit_rows[j]), int(np.argmax(col_hits))
        # too few peels left to clear every maximum: no strict drop can follow
        if -(-total // max(row_hits[j], col_hits[k])) > budget - len(removals):
            break
        if row_hits[j] >= col_hits[k]:
            kind, idx, hits = "row", i, row_hits[j]
        else:
            kind, idx, hits = "col", k, col_hits[k]
        # a unique maximum: its column replaces its row only if strictly better;
        # each is scored by the other lines' maxima (0 when none survive)
        if total == 1 and (np.delete(work.max(axis=0), k).max(initial=0.0)
                           < np.delete(row_max, i).max(initial=0.0)):
            kind, idx = "col", k
        if kind == "row":
            work[idx, :] = -np.inf
        else:
            work[:, idx] = -np.inf
        removals.append((kind, idx))
        if hits == total:   # the peeled line held every maximum: a strict drop
            last_drop = len(removals)

    removals = removals[:last_drop]        # roll back peels past the last drop
    rows = tuple(idx for kind, idx in removals if kind == "row")
    cols = tuple(idx for kind, idx in removals if kind == "col")
    kept = np.delete(np.delete(entries, rows, axis=0), cols, axis=1)
    return TruncationPlan(epsilon=epsilon, M=float(kept.max(initial=0.0)),
                          rows_removed=rows, cols_removed=cols, budget=budget)


def truncate_profile(profile: WeightProfile, d_eps: float) -> WeightProfile:
    """Zero every weight above d_eps (keep entries <= d_eps).

    Choose d_eps at least the plan's M so the surviving entries are exactly
    those outside the removed lines.  Columns that become all-zero violate
    the nonzero-column assumption and are surfaced as an error.
    """
    if not d_eps >= 0:   # also rejects NaN
        raise ValueError("d_eps must be a nonnegative number")
    out = np.where(profile.entries <= d_eps, profile.entries, 0.0)
    dead = np.nonzero(~(out > 0).any(axis=0))[0]
    if dead.size:
        raise ZeroColumnAfterTruncationError(dead)
    return validate_profile(out)
