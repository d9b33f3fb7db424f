import numpy as np
import pytest

from actdiag.stats import (MAX_RETRIES, bin_by_attribute, bootstrap_ci,
                           pearson, pearson_many, resample)


def test_pearson_rho_perfect():
    x = [1.0, 2.0, 3.0, 4.0]
    assert pearson(x, x, permutations=1).rho == pytest.approx(1.0)
    assert pearson(x, [-v for v in x], permutations=1).rho == pytest.approx(-1.0)


def test_pearson_rho_matches_numpy():
    rng = np.random.default_rng(0)
    x = rng.random(30)
    y = rng.random(30)
    assert pearson(x, y, permutations=1).rho == pytest.approx(np.corrcoef(x, y)[0, 1],
                                                             abs=1e-12)


def test_pearson_rho_zero_variance():
    with pytest.raises(ValueError, match="zero variance"):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0], permutations=1)


def test_pearson_deterministic():
    rng = np.random.default_rng(1)
    x = rng.random(15)
    y = rng.random(15)
    a = pearson(x, y, permutations=500, seed=7)
    b = pearson(x, y, permutations=500, seed=7)
    assert a.rho == b.rho
    assert a.p_value == b.p_value
    assert a.n == 15


def test_pearson_p_bounds():
    # p = (1 + hits) / (1 + permutations), so never 0 and never above 1
    x = np.arange(10.0)
    res = pearson(x, x, permutations=200, seed=0)
    assert 1 / 201 <= res.p_value <= 1.0
    assert res.p_value == pytest.approx(1 / 201)


def test_pearson_independent_high_p():
    rng = np.random.default_rng(3)
    x = rng.random(50)
    y = rng.random(50)
    res = pearson(x, y, permutations=500, seed=0)
    assert res.p_value > 0.05


def test_pearson_requires_three():
    with pytest.raises(ValueError):
        pearson([1.0, 2.0], [3.0, 4.0])


def test_pearson_rejects_unequal_lengths_and_zero_variance():
    with pytest.raises(ValueError, match="equal-length"):
        pearson([1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError, match="zero variance"):
        pearson([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])


def _pearson_reference(x, y, permutations, seed):
    """One pair, one Generator and one 1-D sum per permutation."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    xc, yc = x - x.mean(), y - y.mean()
    sx, sy = np.sqrt((xc * xc).sum()), np.sqrt((yc * yc).sum())
    rho = float((xc * yc).sum() / (sx * sy))
    denom = np.sqrt((xc * xc).sum() * (yc * yc).sum())
    hits = 0
    for i in range(permutations):
        perm = np.random.default_rng((seed, i)).permutation(len(y))
        if abs(float((xc * yc[perm]).sum() / denom)) >= abs(rho) - 1e-12:
            hits += 1
    return rho, (1 + hits) / (1 + permutations)


def test_pearson_many_matches_one_pair_reference():
    rng = np.random.default_rng(4)
    x12 = rng.random(12)
    x40 = rng.random(40)
    pairs = [
        (np.arange(5.0), [1.0, 3.0, 2.0, 5.0, 4.0]),   # n = 5: many tied |r|
        (x12, x12 + rng.random(12)),
        (x12, rng.random(12)),                          # same length as the last
        (x12, np.full(12, 2.0)),                        # zero variance
        ([1.0, 2.0], [2.0, 1.0]),                       # n < 3
        (x40, 0.3 * x40 + rng.random(40)),
    ]
    got = pearson_many(pairs, permutations=1001, seed=3)   # not a whole block
    assert got[3] is None and got[4] is None
    for k in (0, 1, 2, 5):
        rho, p = _pearson_reference(*pairs[k], permutations=1001, seed=3)
        assert (got[k].rho, got[k].p_value, got[k].n) == (rho, p, len(pairs[k][0]))
        one = pearson(*pairs[k], permutations=1001, seed=3)
        assert (one.rho, one.p_value) == (rho, p)
    assert len({got[k].p_value for k in (0, 1, 2, 5)}) > 1


def test_quantile_bins_equal_population():
    pairs = [(float(i), float(i % 3)) for i in range(24)]
    curve = bin_by_attribute(pairs, k=6)
    assert list(curve.n) == [4] * 6
    assert all(a < b for a, b in zip(curve.x_center, curve.x_center[1:]))


def test_quantile_bins_y_means():
    pairs = [(0, 1.0), (1, 3.0), (10, 5.0), (11, 7.0)]
    curve = bin_by_attribute(pairs, k=2)
    assert curve.y_mean[0] == pytest.approx(2.0)
    assert curve.y_mean[1] == pytest.approx(6.0)


def test_bootstrap_ci_deterministic():
    rng = np.random.default_rng(2)
    data = rng.normal(size=60)
    stat = lambda xs: float(np.mean(xs))
    a = bootstrap_ci(data, stat, b=300, seed=11)
    b = bootstrap_ci(data, stat, b=300, seed=11)
    assert a == b
    lo, hi, pt = a
    assert lo <= pt <= hi
    assert pt == pytest.approx(data.mean())


def test_bootstrap_ci_narrows_with_n():
    rng = np.random.default_rng(4)
    small = rng.normal(size=20)
    big = rng.normal(size=2000)
    stat = lambda xs: float(np.mean(xs))
    lo_s, hi_s, _ = bootstrap_ci(small, stat, b=200, seed=0)
    lo_b, hi_b, _ = bootstrap_ci(big, stat, b=200, seed=0)
    assert (hi_b - lo_b) < (hi_s - lo_s)


def test_bootstrap_ci_retries_failing_resamples():
    data = [0.0] * 5 + [1.0] * 5

    def stat(xs):
        if sum(xs) == 0:
            raise ValueError("degenerate resample")
        return float(np.mean(xs))

    lo, hi, pt = bootstrap_ci(data, stat, b=200, seed=0)
    assert 0.0 < pt < 1.0
    assert lo > 0.0


def test_bootstrap_ci_retries_only_value_errors():
    calls = []

    def stat(xs):
        calls.append(len(xs))
        if len(calls) > 1:
            raise TypeError("a bug, not a degenerate resample")
        return float(np.mean(xs))

    with pytest.raises(TypeError):
        bootstrap_ci([0.0, 1.0, 2.0], stat, b=200, seed=0)
    assert len(calls) == 2          # the point estimate and one resample


def test_resample_redraws_from_one_generator_until_the_statistic_holds():
    seen = []

    def stat(idx):
        seen.append(idx.copy())
        if len(seen) < 3:
            raise ValueError("degenerate resample")
        return len(seen)

    assert resample(7, 4, 2, stat) == 3
    rng = np.random.default_rng((4, 2))
    for idx in seen:
        assert np.array_equal(idx, rng.integers(0, 7, 7))


def test_resample_lets_the_last_value_error_stand():
    calls = []

    def stat(idx):
        calls.append(idx)
        raise ValueError(f"draw {len(calls)}")

    with pytest.raises(ValueError, match=f"draw {MAX_RETRIES + 1}"):
        resample(5, 0, 0, stat)


def test_bootstrap_ci_input_checks():
    with pytest.raises(ValueError):
        bootstrap_ci([1.0], float, b=200)
    with pytest.raises(ValueError):
        bootstrap_ci([1.0, 2.0], float, b=50)
