"""Shared statistics: attribute binning for diagnostic curves, Pearson
correlation with permutation p-values, and bootstrap percentile intervals.

Randomized procedures draw from numpy Generators seeded per (seed, index),
so each draw depends only on the seed and its index, never on how many
draws come before it or on the order they are evaluated in.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class BinnedCurve:
    x_center: np.ndarray
    y_mean: np.ndarray
    y_std: np.ndarray
    n: np.ndarray


@dataclass
class CorrelationResult:
    rho: float
    p_value: float
    n: int


def equal_population_bins(x, k):
    """Indices of x split into k bins of equal population by x-rank, ties
    broken by input order; bins are in ascending x and sizes differ by at
    most one, larger first."""
    n = len(x)
    order = np.lexsort((np.arange(n), x))   # stable in input order on ties
    sizes = np.full(k, n // k)
    sizes[: n % k] += 1
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    return [order[bounds[b]:bounds[b + 1]] for b in range(k)]


def bin_by_attribute(pairs, k=6):
    """Bin (x, y) pairs by x into k equal_population_bins and summarize y
    per bin."""
    pairs = [(float(x), float(y)) for x, y in pairs]
    x = np.array([p[0] for p in pairs])
    y = np.array([p[1] for p in pairs])
    n = len(x)
    if k < 1 or k > n:
        raise ValueError(f"bin count {k} out of range for {n} pairs")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite x attribute")
    bins = equal_population_bins(x, k)
    return BinnedCurve(np.array([x[idx].mean() for idx in bins]),
                       np.array([y[idx].mean() for idx in bins]),
                       np.array([y[idx].std() for idx in bins]),
                       np.array([len(idx) for idx in bins]))


def pearson(x, y, permutations=10000, seed=0):
    """Pearson's rho with a two-sided permutation p-value.

    p = (1 + #{|rho_perm| >= |rho|}) / (1 + permutations).
    """
    if len(x) != len(y) or len(x) < 3:
        raise ValueError("need equal-length vectors with n >= 3")
    (res,) = pearson_many([(x, y)], permutations, seed)
    if res is None:
        raise ValueError("zero variance: correlation undefined")
    return res


PERMUTATION_BLOCK = 128   # permutations per block; larger blocks raise peak RSS


def pearson_many(pairs, permutations=10000, seed=0):
    """pearson for each (x, y) pair, or None where pearson would raise.

    Permutation i of length n is default_rng((seed, i)).permutation(n)
    whichever pair it serves, so pairs of one length share each draw. The
    draws fill a (PERMUTATION_BLOCK, n) buffer in place: each row is set to
    arange(n) and shuffled by that Generator, which is what permutation(n)
    does. Each row's r is a row-wise sum, in the same pairwise order as a
    1-D sum, so every r and p equals that of one pair tested alone.
    """
    out = [None] * len(pairs)
    groups = {}   # n -> [(pair index, xc, yc, rho, denom)]
    for k, (x, y) in enumerate(pairs):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if len(x) != len(y) or len(x) < 3:
            continue
        xc = x - x.mean()
        yc = y - y.mean()
        sxx, syy = (xc * xc).sum(), (yc * yc).sum()
        if sxx == 0 or syy == 0:   # zero variance: correlation undefined
            continue
        rho = float((xc * yc).sum() / (np.sqrt(sxx) * np.sqrt(syy)))
        denom = np.sqrt(sxx * syy)
        groups.setdefault(len(x), []).append((k, xc, yc, rho, denom))
    for n, group in groups.items():
        hits = [0] * len(group)
        buf = np.empty((PERMUTATION_BLOCK, n), dtype=np.intp)
        for start in range(0, permutations, PERMUTATION_BLOCK):
            block = buf[:min(PERMUTATION_BLOCK, permutations - start)]
            block[:] = np.arange(n)
            for j, row in enumerate(block):
                np.random.default_rng((seed, start + j)).shuffle(row)
            for g, (_, xc, yc, rho, denom) in enumerate(group):
                r = (xc * yc[block]).sum(axis=1) / denom
                hits[g] += int(np.count_nonzero(np.abs(r) >= abs(rho) - 1e-12))
        for (k, _, _, rho, _), h in zip(group, hits):
            out[k] = CorrelationResult(rho, (1 + h) / (1 + permutations), n)
    return out


MAX_RETRIES = 5   # redraws of a bootstrap resample before its ValueError stands


def resample(n, seed, i, statistic):
    """statistic of resample i of n units: the index array
    default_rng((seed, i)).integers(0, n, n), redrawn from the same
    Generator up to MAX_RETRIES times while statistic raises ValueError;
    the last ValueError stands."""
    rng = np.random.default_rng((seed, i))
    for attempt in range(MAX_RETRIES + 1):
        try:
            return statistic(rng.integers(0, n, n))
        except ValueError:
            if attempt == MAX_RETRIES:
                raise


def bootstrap_ci(units, statistic, b=1000, level=0.95, seed=0):
    """Percentile bootstrap interval for a statistic over exchangeable units.

    units: sequence (indexed arbitrarily); statistic receives a resampled
    list of units. A resample on which it raises ValueError is redrawn up
    to MAX_RETRIES times. Returns (low, high, point).
    """
    units = list(units)
    n = len(units)
    if n < 2:
        raise ValueError("need >= 2 units to bootstrap")
    if b < 100:
        raise ValueError("need >= 100 resamples")
    point = statistic(units)
    stats = np.array([resample(n, seed, i,
                               lambda idx: statistic([units[j] for j in idx]))
                      for i in range(b)], dtype=float)
    alpha = (1 - level) / 2
    low, high = np.quantile(stats, [alpha, 1 - alpha])
    return float(low), float(high), float(point)
