"""Power-decay model of mean rebalancing distance versus portfolio size.

Mean distances are bucketed by portfolio size and fitted with the
saturating curve d(n) = delta_inf * (1 - psi * n**-gamma), a weighted least
squares in which each size bin counts by the square root of its observation
count, under delta_inf <= 100 and psi >= 0. For a fixed gamma the curve is
linear in (A, B) = (delta_inf, delta_inf * psi * n0**-gamma) against 1 and
-(n/n0)**-gamma, n0 being the smallest size, so the fit is a search over
gamma alone (variable projection; Golub & Pereyra 1973). A fit has at most
a few dozen bins, so it works on plain Python floats and loads no NumPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Callable, Iterable, Sequence

from .errors import UnidentifiableFitError

__all__ = ["DecayFit", "SizeBin", "bin_by_size", "fit_power_decay"]

# log-spaced exponents the search scores; on 3 000 random bin sets a grid of
# 32 or 48 missed the best basin once, 64 never
_GRID = 64
# the largest n0**gamma searched, so that psi = (B / A) * n0**gamma stays
# finite with room for any B / A below 2**63
_MAX_SCALE_LOG2 = 960
# an asymptote this close to 100 percent sits on the cap: the data asked for
# more, so the fit is not a stationary point of the model
_PINNED_TOL = 1e-6


@dataclass(frozen=True)
class SizeBin:
    """Aggregated distances for one portfolio size.

    ``mean_d`` is in percent (a raw distance of 0.2 becomes 20.0).
    """

    n: int
    mean_d: float
    count: int


@dataclass(frozen=True)
class DecayFit:
    """Fitted decay curve for one strategy with goodness-of-fit numbers.

    ``mae`` is the unweighted mean absolute error against bin means, in
    percent points. ``converged`` is False, with the best parameters found,
    when the best exponent is an end of the searched range, when psi is 0,
    or when the asymptote is pinned at the 100 percent cap (it then reads
    100 exactly).
    """

    strategy: str
    delta_inf: float
    psi: float
    gamma: float
    r_squared: float
    mae: float
    converged: bool
    n_bins: int



def bin_by_size(
    records: Iterable[tuple[int, float]],
    n_range: tuple[int, int] = (2, 50),
    min_count: int = 30,
) -> tuple[SizeBin, ...]:
    """Group (portfolio size, distance) pairs into qualifying size bins.

    Distances are raw fractions in [0, 1] and come out as percent means.
    Sizes outside ``n_range`` are dropped, and bins with fewer than
    ``min_count`` observations are omitted entirely.
    """
    lo, hi = n_range
    if lo < 2:
        raise ValueError("portfolio size bins start at 2")
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for n, d in records:
        if not lo <= n <= hi:
            continue
        if not 0.0 <= d <= 1.0 + 1e-9:
            raise ValueError(f"distance {d} outside [0, 1]")
        sums[n] = sums.get(n, 0.0) + d
        counts[n] = counts.get(n, 0) + 1
    bins = tuple(
        SizeBin(n=n, mean_d=100.0 * sums[n] / counts[n], count=counts[n])
        for n in sorted(counts)
        if counts[n] >= min_count
    )
    if not bins:
        raise ValueError("no size bin reaches the minimum observation count")
    return bins


def _curve(
    n: Sequence[float], delta_inf: float, psi: float, gamma: float
) -> list[float]:
    return [delta_inf * (1.0 - psi * v ** (-gamma)) for v in n]


def _illinois(f: Callable[[float], float], a: float, b: float, fa: float, fb: float) -> float:
    """A root of ``f`` between ``a`` and ``b``, where ``fa`` and ``fb``
    differ in sign, by false position with the Illinois modification: an end
    kept twice running has its value halved, so both ends close in."""
    kept = 0
    while True:
        c = (a * fb - b * fa) / (fb - fa)
        if not min(a, b) < c < max(a, b) or abs(b - a) <= 1e-15 * max(1.0, abs(a)):
            return c
        fc = f(c)  # a zero lands on an end, and the next c equals it
        if (fc < 0.0) == (fa < 0.0):
            a, fa, fb = c, fc, fb / 2.0 if kept == 1 else fb
            kept = 1
        else:
            b, fb, fa = c, fc, fa / 2.0 if kept == -1 else fa
            kept = -1


def fit_power_decay(bins: Sequence[SizeBin], strategy: str = "") -> DecayFit:
    """Fit the three-parameter decay curve to size-bin means.

    Needs at least four bins of distinct sizes, all at least 2. gamma is
    searched on a log scale from where the decay term moves the largest bin
    by sqrt(eps) up to where the second-smallest bin's term is 2**-52 of the
    smallest bin's, or n0**gamma reaches its cap: past either end the curve
    no longer changes in double precision.
    """
    if len(bins) < 4:
        raise ValueError(f"need at least 4 bins to fit 3 parameters, got {len(bins)}")
    bins = sorted(bins, key=lambda b: b.n)
    n = [float(b.n) for b in bins]
    if n[0] < 2.0 or any(lo == hi for lo, hi in zip(n, n[1:])):
        raise ValueError("size bins must have distinct sizes of at least 2")
    means = [b.mean_d for b in bins]
    if max(means) - min(means) < 1e-12:
        raise UnidentifiableFitError(
            "bin means are constant; the decay exponent is unidentifiable"
        )

    weights = [math.sqrt(b.count) for b in bins]
    total = sum(weights)
    mean = sum(map(mul, weights, means)) / total
    centred = [m - mean for m in means]
    # sizes relative to the smallest bin, so that z = (n/n0)**-gamma <= 1
    logs = [math.log(v / n[0]) for v in n]
    weighted_logs = list(map(mul, weights, logs))

    def profile(t: float) -> tuple[float, float, float, float]:
        """(weighted SSE, A, B, dSSE/dgamma) of the best A - B*z at gamma =
        e**t under A <= 100 and B >= 0."""
        exponents = [-math.exp(t) * x for x in logs]
        z = list(map(math.exp, exponents))
        e = list(map(math.expm1, exponents))  # z - 1, exact as gamma -> 0
        we = list(map(mul, weights, e))
        e_sum = sum(we)
        b = sum(map(mul, we, centred)) / (e_sum * e_sum / total - sum(map(mul, we, e)))
        a = mean + b * (1.0 + e_sum / total)
        if a <= 100.0 and b >= 0.0:
            candidates = [(a, b)]
        else:  # the constrained optimum lies on an edge: A = 100 or B = 0
            wz = list(map(mul, weights, z))
            cap_b = sum(w * (100.0 - m) for w, m in zip(wz, means)) / sum(map(mul, wz, z))
            candidates = [(100.0, max(cap_b, 0.0)), (min(mean, 100.0), 0.0)]
        residuals = [[m - a + b * v for m, v in zip(means, z)] for a, b in candidates]
        sse, a, b, r = min(
            (sum(map(mul, weights, map(mul, r, r))), a, b, r)
            for (a, b), r in zip(candidates, residuals)
        )
        # envelope theorem: (A, B) are optimal, so only z moves with gamma
        return sse, a, b, -2.0 * b * sum(map(mul, weighted_logs, map(mul, r, z)))

    top = min(math.log(2.0**52) / logs[1], math.log(2.0**_MAX_SCALE_LOG2) / math.log(n[0]))
    bottom = -math.log1p(-math.sqrt(2.0**-52)) / logs[-1]
    lo, hi = math.log(bottom), math.log(top)
    grid = [lo + (hi - lo) * k / (_GRID - 1) for k in range(_GRID)]
    scored = [profile(t) for t in grid]
    # min keeps the first of equal points: a tie goes to an end of the range
    k = min((0, _GRID - 1, *range(1, _GRID - 1)), key=lambda i: scored[i][0])
    t, best = grid[k], scored[k]
    # a slope turning from falling to rising brackets a local minimum
    for i in range(_GRID - 1):
        if scored[i][3] < 0.0 < scored[i + 1][3]:
            root = _illinois(
                lambda x: profile(x)[3], grid[i], grid[i + 1], scored[i][3], scored[i + 1][3]
            )
            refined = profile(root)
            if refined[0] < best[0]:
                t, best = root, refined

    _, delta_inf, b, _ = best
    gamma = math.exp(t)
    psi = b * n[0] ** gamma / delta_inf
    errors = [m - f for m, f in zip(means, _curve(n, delta_inf, psi, gamma))]
    mean_of_means = sum(means) / len(means)
    ss_res = sum(err * err for err in errors)
    ss_tot = sum((m - mean_of_means) ** 2 for m in means)
    return DecayFit(
        strategy=strategy,
        delta_inf=delta_inf,
        psi=psi,
        gamma=gamma,
        r_squared=1.0 - ss_res / ss_tot,
        mae=sum(abs(err) for err in errors) / len(errors),
        converged=grid[0] < t < grid[-1] and b > 0.0 and delta_inf < 100.0 - _PINNED_TOL,
        n_bins=len(bins),
    )
