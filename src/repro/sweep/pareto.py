"""Incremental exact Pareto frontier over (minimize x, maximize y).

The design-space objectives are the paper's "which chips are worth
building" axes: chip footprint (smaller is better) and workload EDP
benefit (larger is better).  A point dominates another when it is no
worse on both axes and strictly better on at least one
(:func:`dominates`).

:class:`ParetoFrontier` maintains the non-dominated set *incrementally*
in O(log n) per operation: because the frontier of a 2-objective space is
a monotone staircase (footprint ascending implies EDP benefit ascending —
a larger chip must buy more benefit to stay non-dominated), both
membership and dominance queries reduce to one ``bisect`` probe against
the staircase.  Ties — points with exactly equal objectives — all stay on
the frontier, matching the brute-force reference
:func:`exhaustive_frontier`.  This is the repository's one frontier: the
sweep executor maintains it and the ``dse`` experiment marks its rows
with it.

:meth:`ParetoFrontier.certified_dominator` is the pruning primitive: it
answers dominance for a point known only through *admissible bounds*
(an exact-or-lower footprint, an exact-or-upper EDP benefit).  When it
returns a witness, the true point — wherever it lies inside its bounds —
is certifiably dominated by that witness, so a sweep may skip evaluating
it without ever changing the final frontier (the soundness argument is
spelled out in DESIGN.md Sec. 10; ``tests/test_pareto_properties.py``
checks the invariants on randomized objective sets).
"""

from __future__ import annotations

from bisect import bisect_right
from math import isfinite
from typing import Any, Iterable, Iterator

from repro.errors import ConfigurationError

__all__ = ["ParetoFrontier", "dominates", "exhaustive_frontier"]


def dominates(x_a: float, y_a: float, x_b: float, y_b: float) -> bool:
    """True when point A dominates point B (minimize x, maximize y)."""
    no_worse = x_a <= x_b and y_a >= y_b
    better = x_a < x_b or y_a > y_b
    return no_worse and better


def exhaustive_frontier(
    points: Iterable[tuple[float, float, Any]],
) -> tuple[tuple[float, float, Any], ...]:
    """Brute-force O(n^2) non-dominated subset, sorted by x then y.

    The reference implementation the property suite checks
    :class:`ParetoFrontier` against; also handy for small point sets.
    """
    pool = list(points)
    frontier = [
        (x, y, item) for x, y, item in pool
        if not any(dominates(ox, oy, x, y) for ox, oy, _ in pool)
    ]
    return tuple(sorted(frontier, key=lambda entry: (entry[0], entry[1])))


class ParetoFrontier:
    """Incremental non-dominated set over (minimize x, maximize y).

    Internally a staircase: ``_xs`` strictly ascending, ``_ys`` strictly
    ascending in lockstep, ``_items[i]`` holding every payload whose
    objectives equal ``(_xs[i], _ys[i])`` (exact ties share one step).
    """

    def __init__(self) -> None:
        self._xs: list[float] = []
        self._ys: list[float] = []
        self._items: list[list[Any]] = []
        self._infeasible = 0

    # --- updates ----------------------------------------------------------

    @property
    def infeasible(self) -> int:
        """Points offered with ``feasible=False`` (never admitted)."""
        return self._infeasible

    def add(self, x: float, y: float, item: Any = None,
            feasible: bool = True) -> bool:
        """Offer a point; returns True when it joins the frontier.

        A dominated point is rejected; an accepted point evicts every
        staircase step it dominates.  Exact ties join the existing step.
        ``feasible=False`` marks a point that violates a hard constraint
        (e.g. a physical-flow feasibility check): it is counted in
        :attr:`infeasible` and rejected without touching the staircase,
        so infeasible design points can never dominate feasible ones.
        """
        if not feasible:
            self._infeasible += 1
            return False
        if not (isfinite(x) and isfinite(y)):
            raise ConfigurationError(
                f"frontier objectives must be finite, got ({x!r}, {y!r})")
        pos = bisect_right(self._xs, x)
        if pos > 0:
            left_x, left_y = self._xs[pos - 1], self._ys[pos - 1]
            if left_y > y or (left_y >= y and left_x < x):
                return False  # dominated by the step at or left of x
            if left_x == x and left_y == y:
                self._items[pos - 1].append(item)
                return True
        # Evict steps the new point dominates: the contiguous run at and
        # after the insertion position whose y does not exceed the new y
        # (a same-x step with smaller y sits just left of ``pos``).
        start = pos
        if pos > 0 and self._xs[pos - 1] == x and self._ys[pos - 1] < y:
            start = pos - 1
        end = start
        while end < len(self._xs) and self._ys[end] <= y:
            end += 1
        self._xs[start:end] = [x]
        self._ys[start:end] = [y]
        self._items[start:end] = [[item]]
        return True

    def update(self, points: Iterable[tuple[float, float, Any]]) -> int:
        """Offer many points; returns how many joined the frontier."""
        return sum(1 for x, y, item in points if self.add(x, y, item))

    # --- queries ----------------------------------------------------------

    def dominator(self, x: float, y: float) -> Any | None:
        """A frontier payload strictly dominating ``(x, y)``, or None."""
        pos = bisect_right(self._xs, x)
        if pos == 0:
            return None
        left_x, left_y = self._xs[pos - 1], self._ys[pos - 1]
        if left_y > y or (left_y >= y and left_x < x):
            return self._items[pos - 1][0]
        return None

    def certified_dominator(self, x_lb: float, y_ub: float) -> Any | None:
        """A witness certifiably dominating any point inside the bounds.

        ``x_lb`` must not exceed the point's true x and ``y_ub`` must not
        undercut its true y (admissible bounds; exact values qualify).
        A non-None witness ``w`` satisfies either ``w.x <= x_lb`` with
        ``w.y > y_ub`` or ``w.x < x_lb`` with ``w.y >= y_ub`` — in both
        cases ``w`` dominates the true point outright, so pruning on this
        answer can never discard a frontier member.
        """
        pos = bisect_right(self._xs, x_lb)
        if pos == 0:
            return None
        left_x, left_y = self._xs[pos - 1], self._ys[pos - 1]
        if left_y > y_ub or (left_x < x_lb and left_y >= y_ub):
            return self._items[pos - 1][0]
        return None

    # --- views ------------------------------------------------------------

    def __len__(self) -> int:
        """Number of frontier points (ties counted individually)."""
        return sum(len(items) for items in self._items)

    def __iter__(self) -> Iterator[tuple[float, float, Any]]:
        """Frontier points in ascending-x order, ties in arrival order."""
        for x, y, items in zip(self._xs, self._ys, self._items):
            for item in items:
                yield (x, y, item)

    def items(self) -> tuple[Any, ...]:
        """Frontier payloads in ascending-x order."""
        return tuple(item for _, _, item in self)

    def steps(self) -> tuple[tuple[float, float], ...]:
        """The staircase's distinct (x, y) pairs, ascending."""
        return tuple(zip(self._xs, self._ys))
