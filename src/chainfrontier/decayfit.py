"""Power-decay model of mean rebalancing distance versus portfolio size.

Mean distances are bucketed by portfolio size and fitted with the
saturating curve d(n) = delta_inf * (1 - psi * n**-gamma), which rises
toward the asymptote ``delta_inf`` as books get larger. The fit is a
weighted nonlinear least squares where each size bin counts by the square
root of its observation count. It is solved by a small Levenberg–Marquardt
routine (Moré 1978) with an analytic Jacobian, Jacobian-norm variable
scaling and Nielsen's damping update. A fit has three parameters and at
most a few dozen bins, so the routine works on plain Python floats and
lists, and this module does not load NumPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Callable, Iterable, Sequence

from .errors import UnidentifiableFitError

__all__ = ["DecayFit", "SizeBin", "bin_by_size", "fit_power_decay", "weighted_sse"]

# parameters move through unconstrained space; cap the exponentials so a
# wild trust-region step cannot overflow to inf mid-iteration
_EXP_CAP = 60.0
# an asymptote this close to 100 percent sits on the logistic cap: the data
# asked for more, so the fit is not a stationary point of the model
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
    percent points. A fit that hit the iteration cap, or whose asymptote is
    pinned at the 100 percent cap, is returned with ``converged`` False and
    the best parameters found.
    """

    strategy: str
    delta_inf: float
    psi: float
    gamma: float
    r_squared: float
    mae: float
    converged: bool
    n_bins: int

    def predict(self, n):
        """Model value d(n) in percent for a scalar size or a NumPy array of
        sizes."""
        return self.delta_inf * (1.0 - self.psi * n ** (-self.gamma))


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


def _from_theta(theta: Sequence[float]) -> tuple[float, float, float]:
    a, b, c = theta
    delta_inf = 100.0 / (1.0 + math.exp(-min(max(a, -_EXP_CAP), _EXP_CAP)))
    psi = math.exp(min(b, _EXP_CAP))
    gamma = math.exp(min(c, _EXP_CAP))
    return delta_inf, psi, gamma


def _dot(u: Sequence[float], v: Sequence[float]) -> float:
    return sum(map(mul, u, v))


def _least_squares(
    columns: Sequence[Sequence[float]], rhs: Sequence[float]
) -> list[float]:
    """The h that minimises ||A h - rhs|| for the tall matrix A with these
    columns, by Householder QR: A = QR, then R h = Qᵀ·rhs by back
    substitution. A zero pivot, which only a rank-deficient A gives, leaves
    its variable at 0."""
    cols = [list(col) for col in columns]
    b = list(rhs)
    size = len(cols)
    for k in range(size):
        v = cols[k][k:]
        norm = math.hypot(*v)
        if norm == 0.0:
            continue
        # reflect onto -sign(v0)·norm·e0, which cancels no digits in v0
        v0 = v[0]
        alpha = -norm if v0 >= 0.0 else norm
        v[0] = v0 - alpha
        vv = norm * (norm + abs(v0))  # ||v||² / 2
        for target in cols[k + 1 :] + [b]:
            tail = target[k:]
            s = _dot(v, tail) / vv
            target[k:] = [t - s * vi for t, vi in zip(tail, v)]
        cols[k][k] = alpha
    h = [0.0] * size
    for i in reversed(range(size)):
        pivot = cols[i][i]
        if pivot != 0.0:
            tail = sum(cols[j][i] * h[j] for j in range(i + 1, size))
            h[i] = (b[i] - tail) / pivot
    return h


def _levenberg_marquardt(
    fun: Callable[[list[float]], list[float]],
    jac: Callable[[list[float]], list[list[float]]],
    x0: Sequence[float],
    ftol: float,
    xtol: float,
    gtol: float,
    max_nfev: int,
) -> tuple[list[float], int]:
    """Minimise ||fun(x)||^2 from ``x0`` by scaled Levenberg–Marquardt steps.

    ``jac`` returns the Jacobian as a list of columns. As in Moré (1978),
    each variable is measured by the largest norm its Jacobian column has
    reached, D, and a trial step h minimises ||J h + r||^2 + mu ||D h||^2.
    It is solved as the stacked least-squares system [J; sqrt(mu) D] h =
    [-r; 0] by Householder QR, which does not square J's condition number
    as the normal equations would. A step is taken when it achieves more
    than 1e-4 of its predicted reduction, and the damping mu follows
    Nielsen's update: it shrinks by at most a factor of three after a taken
    step and grows geometrically over consecutive refusals.

    The exits follow MINPACK's tests. Returns the last taken point and a
    status: 0 when ``max_nfev`` residual evaluations are spent; 1 when every
    Jacobian column is within ``gtol`` of orthogonal to the residual; 2 when
    the actual and the predicted relative reduction of the sum of squares
    are both at most ``ftol``; 3 when the scaled step is at most ``xtol``
    relative to the scaled point; 4 when 2 and 3 hold together.
    """
    x = [float(v) for v in x0]
    size = len(x)
    r = fun(x)
    nfev = 1
    cost = _dot(r, r)
    J = jac(x)
    scale = [math.hypot(*col) or 1.0 for col in J]
    mu, nu = 1e-3, 2.0
    while True:
        col_norms = [math.hypot(*col) for col in J]
        scale = [max(s, c) for s, c in zip(scale, col_norms)]
        live = [j for j in range(size) if col_norms[j] > 0.0]
        if cost == 0.0 or not live:
            return x, 1
        root_cost = math.sqrt(cost)
        cosines = [abs(_dot(J[j], r)) / (col_norms[j] * root_cost) for j in live]
        if max(cosines) <= gtol:
            return x, 1
        minus_r = [-v for v in r] + [0.0] * size
        while True:
            if nfev >= max_nfev:
                return x, 0
            root_mu = math.sqrt(mu)
            damped = [
                col + [root_mu * scale[j] if i == j else 0.0 for i in range(size)]
                for j, col in enumerate(J)
            ]
            h = _least_squares(damped, minus_r)
            x_new = [xi + hi for xi, hi in zip(x, h)]
            r_new = fun(x_new)
            nfev += 1
            cost_new = _dot(r_new, r_new)
            Jh = [_dot(row, h) for row in zip(*J)]
            Dh = [s * hi for s, hi in zip(scale, h)]
            predicted = (_dot(Jh, Jh) + 2.0 * mu * _dot(Dh, Dh)) / cost
            # MINPACK scores a step that grows the residual tenfold as -1
            actual = 1.0 - cost_new / cost if cost_new < 100.0 * cost else -1.0
            ratio = actual / predicted if predicted > 0.0 else 0.0
            small_f = abs(actual) <= ftol and predicted <= ftol and ratio <= 2.0
            small_x = math.sqrt(_dot(Dh, Dh)) <= xtol * (
                math.hypot(*(s * xi for s, xi in zip(scale, x))) + xtol
            )
            taken = ratio > 1e-4
            if taken:
                x, r, cost = x_new, r_new, cost_new
                J = jac(x)
                mu *= max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3)
                nu = 2.0
            else:
                mu *= nu
                nu *= 2.0
            if small_f or small_x:
                return x, 4 if small_f and small_x else (2 if small_f else 3)
            if taken:
                break


def weighted_sse(
    bins: Sequence[SizeBin], delta_inf: float, psi: float, gamma: float
) -> float:
    """Objective the fit minimises: sum of sqrt(count)-weighted squares."""
    fitted = _curve([float(b.n) for b in bins], delta_inf, psi, gamma)
    return sum(
        math.sqrt(b.count) * (b.mean_d - f) * (b.mean_d - f)
        for b, f in zip(bins, fitted)
    )


def fit_power_decay(
    bins: Sequence[SizeBin],
    strategy: str = "",
    start: tuple[float, float, float] | None = None,
) -> DecayFit:
    """Fit the three-parameter decay curve to size-bin means.

    Needs at least four bins. The asymptote is capped at 100 percent and
    psi and gamma stay positive via parameter transforms, so the inner
    least-squares loop runs unconstrained. ``start`` overrides the
    deterministic default initialisation with explicit
    (delta_inf, psi, gamma) values, e.g. to refit from a previous answer.
    """
    if len(bins) < 4:
        raise ValueError(f"need at least 4 bins to fit 3 parameters, got {len(bins)}")
    bins = sorted(bins, key=lambda b: b.n)
    n = [float(b.n) for b in bins]
    means = [b.mean_d for b in bins]
    if max(means) - min(means) < 1e-12:
        raise UnidentifiableFitError(
            "bin means are constant; the decay exponent is unidentifiable"
        )

    if start is None:
        delta0 = min(max(max(means), 1e-3), 100.0 - 1e-9)
        gamma0 = 1.0
        # solve the smallest bin for psi under the starting asymptote
        psi0 = max((1.0 - means[0] / delta0) * n[0] ** gamma0, 1e-6)
    else:
        delta0, psi0, gamma0 = start
        if not (0.0 < delta0 <= 100.0 and psi0 > 0.0 and gamma0 > 0.0):
            raise ValueError("start parameters outside the feasible region")
        delta0 = min(delta0, 100.0 - 1e-12)
    p0 = min(max(delta0 / 100.0, 1e-12), 1.0 - 1e-12)
    theta0 = [math.log(p0 / (1.0 - p0)), math.log(psi0), math.log(gamma0)]

    quarter_weights = [b.count**0.25 for b in bins]
    log_n = [math.log(v) for v in n]

    def residuals(theta: list[float]) -> list[float]:
        fitted = _curve(n, *_from_theta(theta))
        return [w * (m - f) for w, m, f in zip(quarter_weights, means, fitted)]

    def jacobian(theta: list[float]) -> list[list[float]]:
        a, b, c = theta
        delta_inf, psi, gamma = _from_theta(theta)
        decay = [psi * v ** (-gamma) for v in n]
        # derivatives of the three transforms, zero where _from_theta clamps;
        # 100 * sigmoid(a) * sigmoid(-a) keeps its digits as delta_inf -> 100
        e = math.exp(-abs(a))
        d_delta = 100.0 * e / (1.0 + e) ** 2 if abs(a) < _EXP_CAP else 0.0
        d_b = 1.0 if b < _EXP_CAP else 0.0
        d_c = gamma if c < _EXP_CAP else 0.0
        return [
            [-w * (1.0 - d) * d_delta for w, d in zip(quarter_weights, decay)],
            [w * delta_inf * d * d_b for w, d in zip(quarter_weights, decay)],
            [
                -w * delta_inf * d * ln * d_c
                for w, d, ln in zip(quarter_weights, decay, log_n)
            ],
        ]

    theta, status = _levenberg_marquardt(
        residuals, jacobian, theta0, ftol=1e-14, xtol=1e-14, gtol=1e-14, max_nfev=5000
    )
    delta_inf, psi, gamma = _from_theta(theta)
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
        converged=status > 0 and delta_inf < 100.0 - _PINNED_TOL,
        n_bins=len(bins),
    )
