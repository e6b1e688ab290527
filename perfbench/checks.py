"""Oracles for the benchmark's correctness checks, written apart from hdfrontier.

Nothing here imports the package under test.  Every value is computed with
plain NumPy from the definitions:

- the population frontier ``(R, V, s)`` of a diagonal covariance;
- all six estimator kinds through dense explicit inverses;
- the exact means of the sample frontier under Gaussian returns;
- a winsorizer built from per-column order statistics.

The check helpers return a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import math

import numpy as np

#: estimator kinds in the order the package reports them
KINDS = ("sample", "consistent", "unbiased", "sse", "ebe", "rte")

#: Monte Carlo means must lie within this many standard errors of their target
MC_SE_MULTIPLE = 5.0


def _frontier(precision: np.ndarray, mean: np.ndarray) -> tuple[float, float, float]:
    """(R, V, s) from a precision matrix: R = b/c, V = 1/c, s = a - b^2/c."""
    ones = np.ones(mean.size)
    a = float(mean @ precision @ mean)
    b = float(ones @ precision @ mean)
    c = float(ones @ precision @ ones)
    return b / c, 1.0 / c, a - b * b / c


def population_params(mu: np.ndarray, sigma_diag: np.ndarray) -> tuple[float, float, float]:
    """Population frontier of a diagonal covariance, by elementwise sums."""
    w = 1.0 / np.asarray(sigma_diag, dtype=float)
    mu = np.asarray(mu, dtype=float)
    a = float(np.sum(mu * mu * w))
    b = float(np.sum(mu * w))
    c = float(np.sum(w))
    return b / c, 1.0 / c, a - b * b / c


def dense_estimates(data: np.ndarray) -> dict[str, tuple[float, float, float]]:
    """All six kinds for a ``(p, n)`` panel via ``np.linalg.inv``.

    ``S`` is the divisor-``n`` sample covariance.  With ``c = p/n`` and the
    sample plug-in ``(R, V, s)``: consistent is ``(R, V/(1-c), (1-c) s)``;
    unbiased is ``(R, V n/(n-p), s (n-p-1)/n - (p-1)/n)``; sse plugs in
    ``(n-p-2)/(n-1) inv(S)``; ebe adds ``(p^2+p-2)/((n-1) tr S) I`` to it;
    rte plugs in ``p inv((n-1) S + tr(S) I)``.
    """
    p, n = data.shape
    mean = data.mean(axis=1)
    centered = data - mean[:, None]
    cov = centered @ centered.T / n
    inv = np.linalg.inv(cov)
    trace = float(np.trace(cov))
    ratio = p / n
    r, v, s = _frontier(inv, mean)
    scale = (n - p - 2) / (n - 1)
    ridge = (p * p + p - 2) / ((n - 1) * trace)
    return {
        "sample": (r, v, s),
        "consistent": (r, v / (1.0 - ratio), (1.0 - ratio) * s),
        "unbiased": (r, v * n / (n - p), s * (n - p - 1) / n - (p - 1) / n),
        "sse": _frontier(scale * inv, mean),
        "ebe": _frontier(scale * inv + ridge * np.eye(p), mean),
        "rte": _frontier(p * np.linalg.inv((n - 1) * cov + trace * np.eye(p)), mean),
    }


def exact_gaussian_means(r: float, v: float, s: float, p: int, n: int) -> dict[str, float]:
    """Exact means of the sample frontier for i.i.d. Gaussian data.

    With ``W = n S ~ W_p(n-1, Sigma)`` independent of the sample mean
    (Kan & Smith, Management Science 2008):

    - ``n V_hat / V ~ chi2(n-p)``, so ``E[V_hat / V] = (n-p)/n``;
    - ``s_hat ~ chi2(p-1; n s) / chi2(n-p+1)`` with independent numerator
      and denominator, so ``E[s_hat] = (n s + p - 1)/(n - p - 1)``;
    - the sample GMV weights are unbiased, so ``E[R_hat] = R``.

    The unbiased kind rescales these, so its targets are ``V`` and ``s``.
    """
    return {
        "sample V/V_true": (n - p) / n,
        "sample s": (n * s + p - 1) / (n - p - 1),
        "sample R": r,
        "unbiased V": v,
        "unbiased s": s,
    }


def winsorize_oracle(values: np.ndarray, low: float, high: float) -> np.ndarray:
    """Clip each column of a ``(T, p)`` array to its order statistics.

    The bounds are the ``floor(low (T-1))``-th and ``ceil(high (T-1))``-th
    smallest values of the column (0-based).
    """
    t = values.shape[0]
    ordered = np.sort(values, axis=0)
    lower = ordered[int(math.floor(low * (t - 1)))]
    upper = ordered[int(math.ceil(high * (t - 1)))]
    return np.clip(values, lower, upper)


def rolling_window_oracle(
    window: np.ndarray, quantiles: tuple[float, float], factor: float
) -> dict[str, tuple[float, float, float]]:
    """Sample and consistent ``(R, V, s)`` of one ``(n, p)`` window.

    R and V are scaled by the horizon factor; the slope is left at the
    native frequency, the convention ``scale_to_horizon`` documents.
    """
    clipped = winsorize_oracle(window, *quantiles)
    dense = dense_estimates(clipped.T)
    return {
        kind: (r * factor, v * factor, s)
        for kind, (r, v, s) in dense.items()
        if kind in ("sample", "consistent")
    }


def close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def check_close(label: str, got, want, rtol: float, atol: float = 0.0) -> list[str]:
    """Compare two equal-length float sequences elementwise."""
    failures = []
    for name, g, w in zip(("R", "V", "s"), got, want):
        if not close(float(g), float(w), rtol, atol):
            failures.append(f"{label} {name}: got {g!r}, want {w!r} (rtol {rtol})")
    return failures


def check_mc_means(
    estimates: dict[str, np.ndarray], truth: tuple[float, float, float], p: int, n: int
) -> list[str]:
    """Replication means against the exact Gaussian means.

    ``estimates[kind]`` is a ``(reps, 3)`` array of ``(R, V, s)`` rows.  Each
    mean must lie within :data:`MC_SE_MULTIPLE` standard errors of its target.
    """
    r, v, s = truth
    targets = exact_gaussian_means(r, v, s, p, n)
    sample = estimates["sample"]
    unbiased = estimates["unbiased"]
    series = {
        "sample V/V_true": sample[:, 1] / v,
        "sample s": sample[:, 2],
        "sample R": sample[:, 0],
        "unbiased V": unbiased[:, 1],
        "unbiased s": unbiased[:, 2],
    }
    failures = []
    for label, values in series.items():
        mean = float(np.mean(values))
        se = float(np.std(values, ddof=1)) / math.sqrt(values.size)
        target = targets[label]
        if not abs(mean - target) <= MC_SE_MULTIPLE * se:
            failures.append(
                f"{label}: mean {mean!r} is {abs(mean - target) / se:.2f} SE from {target!r}"
            )
    return failures


def check_mc_identities(estimates: dict[str, np.ndarray], p: int, n: int) -> list[str]:
    """Per-replication identities between kinds that share one factorization.

    consistent vs sample: equal R, ``(1-p/n) V_consistent = V_sample`` and
    ``s_consistent = (1-p/n) s_sample``.  sse vs sample: the same with the
    scale ``(n-p-2)/(n-1)`` in place of ``1-p/n``.
    """
    sample = estimates["sample"]
    scales = {"consistent": 1.0 - p / n, "sse": (n - p - 2) / (n - 1)}
    failures = []
    for kind, scale in scales.items():
        if kind not in estimates:
            continue
        other = estimates[kind]
        pairs = {
            "R": (other[:, 0], sample[:, 0]),
            "V": (scale * other[:, 1], sample[:, 1]),
            "s": (other[:, 2], scale * sample[:, 2]),
        }
        for name, (lhs, rhs) in pairs.items():
            bad = ~np.isclose(lhs, rhs, rtol=1e-12, atol=0.0)
            if bad.any():
                index = int(np.argmax(bad))
                failures.append(
                    f"{kind} vs sample {name}: {int(bad.sum())} replications differ, "
                    f"first at {index}: {lhs[index]!r} vs {rhs[index]!r}"
                )
    return failures
