"""Paired statistics: seed-by-seed comparisons of two arms.

The paired t-test, the Student t interval of a mean and the Wilcoxon
signed-rank test, computed from three ``scipy.special`` distribution
functions (``stdtr``, ``stdtrit``, ``ndtr``) rather than scipy's ``stats``
module, which takes about a second to import.  Only ``transfer`` and
``compare`` runs compute these statistics, at their end, so ``_special``
imports ``scipy.special`` at the first statistic that needs it: importing
greenrl loads numpy and no scipy, and a ``rach`` or ``compression`` run
never loads scipy at all.

Each function reproduces scipy 1.17's ``stats`` bit for bit on 1-D float64
input without NaN, the only input greenrl passes:

* ``ttest_p(d, alternative)`` is ``ttest_rel(a, b, alternative=...).pvalue``
  with ``d = a - b``;
* ``ci95(x)`` is ``t.interval(0.95, n - 1, loc=x.mean(), scale=sem(x))``;
* ``wilcoxon_p(d)`` is ``wilcoxon(a, b).pvalue`` with scipy's defaults
  (``zero_method="wilcox"``, ``correction=False``, ``method="auto"``).

``tests/test_paired.py`` holds them to scipy's as the reference, and checks
which runs load scipy.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ttest_p", "wilcoxon_p", "ci95"]

# Samples larger than this use the normal approximation of the signed-rank
# statistic even without ties or zeros.
_EXACT_MAX_N = 50
# Samples with ties or zeros up to this size enumerate all 2**n sign flips
# (scipy: 2**13 is under the 9,999 resamples of its permutation test).
_FLIP_MAX_N = 13
# scipy's permutation test counts null statistics within this relative
# distance of the observed one as equal to it.
_FLIP_RTOL = np.finfo(np.float64).eps * 100


def _special():
    """``scipy.special``, imported at the first statistic that needs it."""
    import scipy.special

    return scipy.special


def _t_statistic(d: np.ndarray) -> np.float64:
    """One-sample t statistic of ``d`` against 0, in scipy's operation order.

    A constant non-zero ``d`` has zero variance and gives an infinite ``t``.
    """
    n = len(d)
    mean = d.mean()
    v = np.mean((d - mean) ** 2) * (np.float64(n) / np.float64(n - 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        return mean / np.sqrt(v / n)


def ttest_p(d: np.ndarray, alternative: str = "two-sided") -> float:
    """p-value of the paired t-test on the differences ``d`` (n >= 2)."""
    t = _t_statistic(d)
    df = np.float64(len(d) - 1)
    stdtr = _special().stdtr
    if alternative == "less":
        return float(stdtr(df, t))
    if alternative == "greater":
        return float(stdtr(df, -t))
    if alternative == "two-sided":
        return float(2 * stdtr(df, -np.abs(t)))
    raise ValueError(f"alternative must be 'less', 'greater' or 'two-sided', not {alternative!r}")


def ci95(x: np.ndarray) -> tuple[float, float]:
    """95% Student t interval of the mean of ``x`` (n >= 2)."""
    n = len(x)
    sem = x.std(ddof=1) / n**0.5
    mean = x.mean()
    stdtrit = _special().stdtrit
    lo = stdtrit(n - 1, (1.0 - 0.95) / 2) * sem + mean
    hi = stdtrit(n - 1, (1.0 + 0.95) / 2) * sem + mean
    return float(lo), float(hi)


def _signed_rank_pmf(n: int) -> np.ndarray:
    """Null distribution of the signed-rank sum of ranks 1..n, by halving.

    Entry k is P(R+ = k).  Every entry is a multiple of 2**-n, so for
    n <= 50 the entries and all their partial sums are exact in float64.
    """
    c = np.ones(1)
    for k in range(1, n + 1):
        prev = c * 0.5
        c = np.zeros(k * (k + 1) // 2 + 1)
        c[: len(prev)] = prev
        c[-len(prev) :] += prev
    return c


def wilcoxon_p(d: np.ndarray) -> float:
    """Two-sided p-value of the Wilcoxon signed-rank test on ``d`` (n >= 2).

    Zero differences are dropped from the ranking (``zero_method="wilcox"``).
    The null distribution is exact without ties or zeros for n <= 50,
    enumerated over sign flips with ties or zeros for n <= 13, and the
    normal approximation otherwise.
    """
    n = len(d)
    nonzero = d[d != 0]
    _, inverse, counts = np.unique(np.abs(nonzero), return_inverse=True, return_counts=True)
    # average ranks of |d|; flipping signs leaves them unchanged
    ranks = (np.cumsum(counts) - (counts - 1) / 2)[inverse]
    r_plus = ranks[nonzero > 0].sum()
    tied_or_zero = len(counts) < len(nonzero) or len(nonzero) < n
    if n > _EXACT_MAX_N or (tied_or_zero and n > _FLIP_MAX_N):
        m = float(len(nonzero))
        mn = m * (m + 1.0) * 0.25
        se = m * (m + 1.0) * (2.0 * m + 1.0)
        tie_correct = (counts.astype(float) ** 3 - counts).sum()
        z = (r_plus - mn) / np.sqrt((se - tie_correct / 2) / 24)
        p = 2 * _special().ndtr(-np.abs(z))
    elif tied_or_zero:
        m = len(nonzero)
        flips = (np.arange(2**m)[:, None] >> np.arange(m)) & 1
        null = flips @ ranks
        gamma = abs(_FLIP_RTOL * r_plus)
        p_less = np.count_nonzero(null <= r_plus + gamma) / 2**m
        p_greater = np.count_nonzero(null >= r_plus - gamma) / 2**m
        p = min(p_less, p_greater) * 2
    else:
        pmf = _signed_rank_pmf(n)
        k = int(r_plus)
        p = 2 * min(pmf[k:].sum(), pmf[: k + 1].sum())
    return float(min(p, 1.0))


def _paired_p(a, b, test, **kwargs) -> float | None:
    """p-value of ``test`` (``ttest_p`` or ``wilcoxon_p``) on the pairs ``a - b``.

    Keyword arguments go on to ``test``.  Pairs that all tie give 1.0, and a
    single pair gives None: it carries no significance.
    """
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    if np.allclose(d, 0):
        return 1.0
    if len(d) < 2:
        return None
    return test(d, **kwargs)


def _effect_size_d(diff: np.ndarray) -> float:
    """Mean over sample standard deviation; 0.0 when there is no spread, as for one pair."""
    if len(diff) < 2:
        return 0.0
    sd = diff.std(ddof=1)
    return float(diff.mean() / sd) if sd > 0 else 0.0


def _paired_stats(transfer_vals, baseline_vals) -> dict:
    """Paired comparison of one transfer-arm quantity against the baseline arm."""
    t = np.asarray(transfer_vals, dtype=float)
    b = np.asarray(baseline_vals, dtype=float)
    diff = t - b
    return {
        "transfer_median": float(np.median(t)),
        "baseline_median": float(np.median(b)),
        "transfer_mean": float(t.mean()),
        "baseline_mean": float(b.mean()),
        "mean_diff": float(diff.mean()),
        "effect_size_d": _effect_size_d(diff),
        "p_wilcoxon_two_sided": _paired_p(t, b, wilcoxon_p),
        "p_transfer_worse": _paired_p(t, b, ttest_p, alternative="greater"),
    }
