"""Output checks applied to every op; a failed check raises CheckFailed."""

from __future__ import annotations

import hashlib
import math


class CheckFailed(Exception):
    pass


def dominance_frontier(bias, loss) -> tuple[int, ...]:
    """Nondominated indices under (minimize bias, minimize loss) by direct
    pairwise comparison; the O(n^2) oracle for ``pareto_extract``."""
    n = len(bias)
    return tuple(
        i for i in range(n)
        if not any(bias[j] <= bias[i] and loss[j] <= loss[i]
                   and (bias[j] < bias[i] or loss[j] < loss[i])
                   for j in range(n)))


def check_frontier(bias, loss, frontier_indices, expected_points: int) -> None:
    """Point count, sign and finiteness of every point, and exact agreement
    of the reported frontier with the dominance oracle."""
    if len(bias) != expected_points or len(loss) != expected_points:
        raise CheckFailed(f"{len(bias)} points, expected {expected_points}")
    if not all(b >= 0.0 for b in bias):
        raise CheckFailed("negative bias")
    if not all(math.isfinite(v) for v in loss):
        raise CheckFailed("non-finite loss")
    if tuple(frontier_indices) != dominance_frontier(bias, loss):
        raise CheckFailed("frontier differs from the dominance recomputation")


def check_close(name: str, got: float, want: float, rel: float = 1e-9,
                abs_tol: float = 1e-12) -> None:
    if not math.isclose(got, want, rel_tol=rel, abs_tol=abs_tol):
        raise CheckFailed(f"{name}: {got!r} != {want!r}")


def file_digest(*paths) -> str:
    """sha256 over the bytes of the given files, in order."""
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()
