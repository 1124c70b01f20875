"""Constrained frontier projections of observed portfolios.

Three projections are solved per account: the minimum-variance book at the
account's expected return, the maximum-return book at the account's risk,
and the maximum-Sharpe book. All share the same constraint set: fully
invested, long-only, a per-asset cap, and support restricted to the assets
the account already holds.

All three lie on one piecewise-linear path, the minimiser w(λ) of
½wᵀΣw − λμᵀw over that set, which ``Frontier`` traces once per book by
Markowitz's critical-line algorithm. One active-set QP, ``minimize``, gives
the global minimum-variance (GMV) book at λ = 0; the walk goes up from
there along the efficient branch, or down when a min-variance anchor lies
below the GMV's return. Each segment costs one KKT solve, and on it
μ(λ) = m0 + m1·λ and V(λ) = K + m1·λ², so each projection is closed-form:

* min-variance: λ = (μ_a − m0)/m1, or the GMV when every book meets μ_a;
* max-return: λ² = (V0 − K)/m1, or the GMV when it spends the budget;
* max-Sharpe: λ = K/(m0 − r_f), or a scan of the capped simplex's
  vertices when no book beats the risk-free rate.

A solution's ``iterations`` is the GMV's active-set iterations plus the
segments walked to reach the projection (0 for the vertex scan). A
brute-force simplex-grid oracle provides an independent check on the solver.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .marketdata import MomentEstimates
from .metrics import l1_distance_from

DAYS_PER_YEAR = 365.0

# feasibility and anchor tolerance of a converged row
SOLVER_TOL = 1e-8
# cap on active-set iterations per QP, and on segments per walk
MAX_ITER = 200

# kernel tolerances, relative to normalised rows and the iterate's scale
_EPS = 1e-12  # blocking, ratio and event ties, null steps, flat means
# a row counts as active at the start only when it holds to rounding; a
# looser test would freeze a small slack into the answer
_ACTIVE_TOL = 1e-15
_MULT_TOL = 1e-10  # negative multiplier, relative to the gradient
_BUDGET_TOL = 1e-11  # |V - V0| / V0 at which the risk budget binds


class Strategy(Enum):
    MIN_VAR = "min_var"
    MAX_RET = "max_ret"
    MAX_SR = "max_sr"


class NaiveStrategy(Enum):
    EQUAL = "equal_weight"
    MCAP = "mcap_weight"


@dataclass(frozen=True, eq=False)
class FrontierSolution:
    """Solver output: weights over the full asset ordering plus moments.

    ``distance`` is the ℓ₁ weight distance back to the observed book.
    Non-converged solutions keep their best-effort weights and say why in
    ``reason``.
    """

    strategy: Strategy
    weights: np.ndarray
    mu: float
    sigma: float
    distance: float
    converged: bool
    iterations: int
    reason: str = ""


def sharpe(mu: float, sigma: float, rf_daily: float = 0.0) -> float:
    """Sharpe ratio, with the zero-volatility convention ±inf.

    A riskless book earning more than the risk-free rate has unbounded
    Sharpe; one earning less, unboundedly bad; exactly the rate, zero.
    """
    excess = mu - rf_daily
    if sigma > 0.0:
        return excess / sigma
    if excess > 0.0:
        return math.inf
    if excess < 0.0:
        return -math.inf
    return 0.0


def _moments_of(w: np.ndarray, mu: np.ndarray, cov: np.ndarray) -> tuple[float, float]:
    m = float(w @ mu)
    var = float(w @ cov @ w)
    return m, math.sqrt(max(var, 0.0))


def _finish(
    strategy: Strategy,
    fr: Frontier,
    w_sub: np.ndarray,
    ok: bool,
    iterations: int,
    reason: str,
    anchor_check=None,
) -> FrontierSolution:
    """Clean up solver output, verify constraints, embed into full space.

    Weights that fail the feasibility check come back as a non-converged
    row carrying the observed book, like every other non-converged branch.
    """
    w = np.array(w_sub, dtype=float)
    w[(w < 0.0) & (w > -1e-10)] = 0.0
    w = w + 0.0  # normalize -0.0
    total = float(w.sum())
    if abs(total - 1.0) <= 1e-6 and total > 0:
        w = w / total

    feasible = (
        abs(float(w.sum()) - 1.0) <= SOLVER_TOL
        and float(w.min()) >= -SOLVER_TOL
        and float(w.max()) <= fr.cap + SOLVER_TOL
    )
    if not feasible:
        w, ok, anchor_check = fr.w0, False, None
        reason = reason or "constraint violation above tolerance"
    mu_p, sigma_p = _moments_of(w, fr.mu, fr.cov)
    anchored = anchor_check(mu_p, sigma_p) if anchor_check is not None else True
    converged = bool(ok and anchored)
    if not converged and not reason:
        reason = "anchor violation above tolerance" if not anchored else "solver did not converge"
    full = fr.embed(w)
    return FrontierSolution(
        strategy=strategy,
        weights=full,
        mu=mu_p,
        sigma=sigma_p,
        distance=fr.distance(full),
        converged=converged,
        iterations=iterations,
        reason=reason,
    )


# ---------------------------------------------------------------------------
# the GMV kernel


@dataclass(frozen=True)
class QPResult:
    """Outcome of one active-set QP. ``working`` lists the bound rows
    held active at ``x``: row i is -x_i <= 0 and row n + i is x_i <= cap."""

    x: np.ndarray
    working: tuple[int, ...]
    iterations: int
    converged: bool


def _kkt(H: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve [[H, 1], [1ᵀ, 0]] x = rhs: a quadratic on the free weights
    under the budget row, for one or more right-hand sides."""
    f = H.shape[0]
    kkt = np.ones((f + 1, f + 1))
    kkt[:f, :f] = H
    kkt[f, f] = 0.0
    try:
        return np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        # a singular H on the budget's null space: the minimum-norm solution
        return np.linalg.lstsq(kkt, rhs, rcond=None)[0]


def minimize(H, cap: float, x0) -> QPResult:
    """Minimise ½xᵀHx subject to Σx = Σx0 and 0 <= x <= cap, from a feasible x0.

    A primal active-set method (Nocedal & Wright, *Numerical Optimization*,
    Algorithm 16.3) for a positive semidefinite H on the capped simplex.
    Each step minimises over the weights that the working rows leave free
    under the budget row, then moves as far as their bounds allow. A working
    row fixes one weight, and at most n - 1 are held, so a vertex never makes
    the system singular. Bland's smallest-index rule picks the row to add or
    drop, which keeps degenerate vertices from cycling; H is normalised, so
    the tolerances are relative. Iterations count factorisations, at most
    ``MAX_ITER``.
    """
    x = np.array(x0, dtype=float)
    n = x.size
    H = np.asarray(H, dtype=float)
    H = H / max(float(np.abs(H).max()), 1e-300)
    slack = np.concatenate((x, cap - x))
    active = np.flatnonzero(slack <= _ACTIVE_TOL * max(1.0, float(np.abs(x).max())))
    working = [int(i) for i in active[: n - 1]]
    free = np.ones(n, dtype=bool)
    free[[i % n for i in working]] = False

    for it in range(1, MAX_ITER + 1):
        g = H @ x
        if len(working) < n - 1:
            F = np.flatnonzero(free)
            rhs = np.zeros(F.size + 1)
            rhs[:-1] = -g[F]
            p = np.zeros(n)
            p[F] = _kkt(H[F][:, F], rhs)[:-1]
            step = float(np.abs(p).max())
            if step > _EPS * max(1.0, float(np.abs(x).max())):
                # ratio test over the free weights' bounds, lower rows first
                moving = free & (np.abs(p) > _EPS * step)
                rows = np.flatnonzero(np.concatenate((moving & (p < 0.0), moving & (p > 0.0))))
                if rows.size:
                    room = np.concatenate((x, cap - x))[rows]
                    ratios = np.maximum(room, 0.0) / np.concatenate((-p, p))[rows]
                    least = float(ratios.min())
                    if least < 1.0:
                        block = int(rows[np.flatnonzero(ratios <= least + _EPS)[0]])
                        x = x + least * p
                        working.append(block)
                        free[block % n] = False
                        continue
                x = x + p
                g = H @ x
        # x minimises over the free weights: g + ν·1 = 0 on them, and each
        # working row's multiplier is what is left of its weight's gradient
        nu = -float(g[free].mean())
        rows = np.array(working, dtype=int)
        mult = np.where(rows < n, g[rows % n] + nu, -(g[rows % n] + nu))
        grad = max(float(np.abs(g).max()), 1e-300)
        negative = rows[mult < -_MULT_TOL * grad]
        if not negative.size:
            return QPResult(x, tuple(sorted(working)), it, True)
        drop = int(negative.min())
        working.remove(drop)
        free[drop % n] = True
    return QPResult(x, tuple(sorted(working)), MAX_ITER, False)


# ---------------------------------------------------------------------------
# the critical line


def _greedy_vertex(mu: np.ndarray, cap: float, maximize: bool) -> np.ndarray:
    """The capped-simplex vertex with extreme w·mu, by greedy filling."""
    order = np.argsort(-mu, kind="stable") if maximize else np.argsort(mu, kind="stable")
    w = np.zeros(mu.size)
    left = 1.0
    for i in order:
        w[i] = min(cap, left)
        left -= w[i]
        if left <= 1e-15:
            break
    return w


@dataclass(frozen=True)
class _Segment:
    """One linear piece w(λ) = wa + λ·wb of the critical line, λ in [start, end].

    Along the walk's mean vector, μ(λ) = m0 + m1·λ and V(λ) = K + m1·λ²,
    because V′(λ) = 2λ·μ′(λ). The last segment has end = inf and wb = 0.
    """

    start: float
    end: float
    wa: np.ndarray
    wb: np.ndarray
    m0: float
    m1: float
    K: float

    def at(self, lam: float) -> np.ndarray:
        lam = min(max(lam, self.start), self.end)
        return self.wa if lam == math.inf else self.wa + lam * self.wb


class _Walk:
    """The critical line of ½wᵀΣw − λ·sign·μᵀw for λ >= 0, from the GMV.

    Each weight is free, or fixed at 0 or at the cap. On each segment one
    KKT solve on the free weights gives the book and the budget multiplier
    as linear functions of λ, and with them the fixed weights' multipliers.
    The segment ends at the first event: a free weight reaches 0 or the cap,
    or a fixed weight's multiplier changes sign. Ties go to the smallest
    index; the weight that just changed cannot change back at the same λ.
    """

    def __init__(self, fr: Frontier, sign: float, gmv: QPResult) -> None:
        n = fr.mu.size
        self.fr = fr
        self.mu = sign * fr.mu
        # free weights with flat means stop moving, and multipliers with a
        # slope below the same tolerance never change sign
        self.tol = _EPS * float(np.abs(fr.mu).max())
        self.state = np.zeros(n, dtype=int)  # 0 free, -1 at zero, 1 at the cap
        for row in gmv.working:
            self.state[row % n] = -1 if row < n else 1
        self.lam = 0.0
        self.last = -1
        self.segments: list[_Segment] = []

    def find(self, reached) -> tuple[_Segment, int, bool]:
        """The first segment where ``reached`` holds or the walk ends, and
        its 1-based index; False when ``MAX_ITER`` segments fall short."""
        k = 0
        while True:
            if k == len(self.segments):
                if k == MAX_ITER:
                    return self.segments[-1], k, False
                self._extend()
            seg = self.segments[k]
            k += 1
            if seg.end == math.inf or reached(seg):
                return seg, k, True

    def _extend(self) -> None:
        fr, mu, state = self.fr, self.mu, self.state
        free = state == 0
        F = np.flatnonzero(free)
        wa = np.where(state > 0, fr.cap, 0.0)
        rhs = np.zeros((F.size + 1, 2))
        rhs[:-1, 0] = -(fr.cov[F] @ wa)
        rhs[-1, 0] = 1.0 - wa.sum()
        rhs[:-1, 1] = mu[F]
        sol = _kkt(fr.cov[F][:, F], rhs)
        wa[F] = sol[:-1, 0]
        wb = np.zeros(mu.size)
        gamma0, gamma1 = sol[-1]
        if float(np.ptp(mu[F])) > self.tol:
            wb[F] = sol[:-1, 1]
        else:
            gamma1 = float(mu[F].mean())
        cov_wa = fr.cov @ wa
        # a fixed weight's multiplier is -state·(c + λ·d), its gradient's
        # sign flipped at the cap
        c = cov_wa + gamma0
        d = fr.cov @ wb - mu + gamma1
        num = np.where(free, np.where(wb < 0.0, 0.0, fr.cap) - wa, -c)
        den = np.where(free, wb, d)
        falls = np.where(free, wb != 0.0, state * d > self.tol)
        hit = np.divide(num, den, out=np.full(mu.size, math.inf), where=falls)
        np.maximum(hit, self.lam, out=hit)
        if self.last >= 0 and hit[self.last] <= self.lam:
            hit[self.last] = math.inf
        end = float(hit.min())
        self.segments.append(
            _Segment(self.lam, end, wa, wb, float(mu @ wa), float(mu @ wb), float(wa @ cov_wa))
        )
        if end < math.inf:
            j = int(np.flatnonzero(hit <= end + _EPS * end)[0])
            state[j] = 0 if state[j] else (-1 if wb[j] < 0.0 else 1)
            self.lam, self.last = end, j


class Frontier:
    """One observed book and its constrained frontier.

    ``w0`` aligns with ``m.eligible_ids``, and the support is the assets
    it holds. The book is validated and cut down to the support once;
    ``reason`` says why it has no feasible point ('' when it has one). The
    GMV book and the walks are computed on first use and kept, so the
    book's projections cost one QP and one walk between them, in any order.
    Malformed inputs raise ValueError.
    """

    def __init__(self, w0, m: MomentEstimates, w_max: float = 0.9):
        w0 = np.asarray(w0, dtype=float)
        mu_all = np.asarray(m.shrunk_means, dtype=float)
        if w0.shape != mu_all.shape:
            raise ValueError(
                f"w0 has {w0.size} entries for {mu_all.size} eligible assets"
            )
        if np.any(w0 < -1e-9):
            raise ValueError("observed weights must be long-only")
        if abs(float(w0.sum()) - 1.0) > 1e-6:
            raise ValueError(f"observed weights sum to {float(w0.sum())}, not 1")
        if not 0.0 < w_max <= 1.0:
            raise ValueError(f"w_max must be in (0, 1], got {w_max}")
        self.support = np.flatnonzero(w0 > 0.0)
        if self.support.size < 2:
            raise ValueError("need at least 2 assets in the support")

        self.n_full = w0.size
        self.cap = w_max
        self.mu = mu_all[self.support]
        self.cov = np.asarray(m.cov, dtype=float)[np.ix_(self.support, self.support)]
        self.w0 = w0[self.support]
        self.anchor_mu, self.anchor_sigma = _moments_of(self.w0, self.mu, self.cov)
        # the observed book is embedded and checked once, not once per solution
        self.distance = l1_distance_from(self.embed(self.w0))
        self.reason = ""
        if self.support.size * w_max < 1.0 - 1e-12:
            self.reason = "cap excludes every fully-invested portfolio on this support"
        self.mu_lo = float(_greedy_vertex(self.mu, w_max, maximize=False) @ self.mu)
        self.mu_hi = float(_greedy_vertex(self.mu, w_max, maximize=True) @ self.mu)
        self._gmv: QPResult | None = None
        self._walks: dict[float, _Walk] = {}

    def embed(self, w_sub: np.ndarray) -> np.ndarray:
        """Weights on the support as a vector over all eligible assets."""
        w = np.zeros(self.n_full)
        w[self.support] = w_sub
        return w

    def gmv(self) -> QPResult:
        """The global minimum-variance book, started from equal weights."""
        if self._gmv is None:
            n = self.mu.size
            self._gmv = minimize(self.cov, self.cap, np.full(n, 1.0 / n))
        return self._gmv

    def walk(self, sign: float) -> _Walk:
        """The walk up (sign 1) or down (sign -1) the return from the GMV."""
        if sign not in self._walks:
            self._walks[sign] = _Walk(self, sign, self.gmv())
        return self._walks[sign]


def solve(
    strategy: Strategy, frontier: Frontier, rf_annual: float = 0.0
) -> FrontierSolution:
    """Project an observed book onto one frontier strategy.

    Anchored strategies hold the account's own expected return
    (min-variance) or risk (max-return) fixed: the return anchor binds as
    an equality whenever the observed return is reachable under the cap and
    relaxes to at-least-as-much when the observed book itself violates the
    cap; the risk anchor is an at-most budget, which the optimum exhausts
    whenever doing so pays. The max-Sharpe projection ignores the anchors
    entirely and never looks at the observed weights, so identical moments
    give identical tangency books no matter the observed book.

    Infeasible anchors come back as non-converged solutions with a reason
    rather than exceptions.
    """
    if frontier.reason:
        return _finish(strategy, frontier, frontier.w0, False, 0, frontier.reason)
    if strategy is Strategy.MIN_VAR:
        return _solve_min_var(frontier)
    if strategy is Strategy.MAX_RET:
        return _solve_max_ret(frontier)
    if strategy is Strategy.MAX_SR:
        return _solve_max_sr(frontier, rf_annual / DAYS_PER_YEAR)
    raise ValueError(f"unknown strategy {strategy!r}")


def _solve_min_var(fr: Frontier) -> FrontierSolution:
    """Min variance at the anchor return, λ = (μ_a − m0)/m1 on its segment.

    An anchor below the reachable range (cap-violating observed book) is
    met by every feasible book, so the at-least anchor leaves the GMV; one
    below the GMV's return is met on the inefficient branch, walking down.
    """
    if fr.anchor_mu > fr.mu_hi + SOLVER_TOL:
        return _finish(
            Strategy.MIN_VAR, fr, fr.w0, False, 0,
            "anchor return unreachable under the cap",
        )
    gmv = fr.gmv()
    check = lambda mu_p, sigma_p: mu_p >= fr.anchor_mu - SOLVER_TOL
    if not gmv.converged or fr.anchor_mu < fr.mu_lo - SOLVER_TOL:
        return _finish(Strategy.MIN_VAR, fr, gmv.x, gmv.converged, gmv.iterations, "", check)
    sign = 1.0 if fr.anchor_mu >= float(gmv.x @ fr.mu) else -1.0
    target = sign * fr.anchor_mu
    seg, walked, ok = fr.walk(sign).find(lambda s: s.m0 + s.m1 * s.end >= target)
    w = seg.at((target - seg.m0) / seg.m1 if seg.m1 > 0.0 else seg.start)
    return _finish(Strategy.MIN_VAR, fr, w, ok, gmv.iterations + walked, "", check)


def _solve_max_ret(fr: Frontier) -> FrontierSolution:
    """Max return at variance <= V0: the efficient book whose variance
    meets the budget, at λ² = (V0 − K)/m1, or the frontier's top inside it."""
    budget = fr.anchor_sigma**2
    check = lambda mu_p, sigma_p: sigma_p <= fr.anchor_sigma + SOLVER_TOL
    gmv = fr.gmv()
    var_gmv = float(gmv.x @ fr.cov @ gmv.x)
    if gmv.converged and math.sqrt(max(var_gmv, 0.0)) > fr.anchor_sigma + SOLVER_TOL:
        return _finish(
            Strategy.MAX_RET, fr, fr.w0, False, gmv.iterations,
            "risk budget below the feasible minimum",
        )
    if not gmv.converged or var_gmv >= budget:
        return _finish(Strategy.MAX_RET, fr, gmv.x, gmv.converged, gmv.iterations, "", check)
    seg, walked, ok = fr.walk(1.0).find(lambda s: s.K + s.m1 * s.end**2 >= budget)
    w = seg.at(math.sqrt(max(budget - seg.K, 0.0) / seg.m1) if seg.m1 > 0.0 else seg.start)
    # converge only where the budget binds; an interior stop loses return
    var = float(w @ fr.cov @ w)
    ok = ok and (seg.end == math.inf or abs(var - budget) <= _BUDGET_TOL * budget)
    return _finish(Strategy.MAX_RET, fr, w, ok, gmv.iterations + walked, "", check)


def _solve_max_sr(fr: Frontier, rf_daily: float) -> FrontierSolution:
    """Max Sharpe over the capped simplex, independent of the observed book.

    With some book above r_f this is the tangency point. The tangent at λ
    meets σ = 0 at m0 − K/λ, which rises along the walk, so the tangency
    is at λ = K/(m0 − r_f) on the first segment that reaches r_f there.
    Otherwise every excess return is <= 0, the Sharpe ratio is a convex
    function on the perspective image of the capped simplex, and its
    maximum sits at a vertex, so the vertices are scanned exactly.
    """
    if fr.mu_hi - rf_daily <= 0.0:
        return _finish(Strategy.MAX_SR, fr, _best_vertex(fr, rf_daily), True, 0, "")
    gmv = fr.gmv()
    if not gmv.converged:
        return _finish(Strategy.MAX_SR, fr, gmv.x, False, gmv.iterations, "")
    seg, walked, ok = fr.walk(1.0).find(lambda s: (s.m0 - rf_daily) * s.end >= s.K)
    w = seg.at(seg.K / (seg.m0 - rf_daily) if seg.m0 > rf_daily else seg.start)
    return _finish(Strategy.MAX_SR, fr, w, ok, gmv.iterations + walked, "")


def _best_vertex(fr: Frontier, rf_daily: float) -> np.ndarray:
    """The capped-simplex vertex with the highest Sharpe ratio.

    A vertex holds k = floor(1/cap) assets at the cap, at most one asset at
    the remainder and the rest at zero. Ties go to the first vertex in
    enumeration order.
    """
    n, cap = fr.mu.size, fr.cap
    full = min(int(math.floor(1.0 / cap + 1e-12)), n)
    rest = 1.0 - full * cap
    vertices = []
    for capped in itertools.combinations(range(n), full):
        partial = [i for i in range(n) if i not in capped] if rest > 1e-12 else [None]
        for j in partial:
            w = np.zeros(n)
            w[list(capped)] = cap
            if j is not None:
                w[j] = rest
            vertices.append(w)
    return max(vertices, key=lambda w: sharpe(*_moments_of(w, fr.mu, fr.cov), rf_daily))


def naive_weights(
    kind: NaiveStrategy,
    token_ids: Sequence[str],
    mcaps: Mapping[str, float] | None = None,
) -> np.ndarray:
    """Benchmark weights over a support: equal or market-cap proportional.

    No per-asset cap applies here; a single-asset support is legal and
    yields the degenerate weight 1.
    """
    n = len(token_ids)
    if n == 0:
        raise ValueError("empty support")
    if kind is NaiveStrategy.EQUAL:
        return np.full(n, 1.0 / n)
    if kind is NaiveStrategy.MCAP:
        if mcaps is None:
            raise ValueError("market-cap weighting needs market caps")
        values = np.empty(n)
        for i, tid in enumerate(token_ids):
            cap = mcaps.get(tid)
            if cap is None:
                raise ValueError(f"missing market cap for {tid!r}")
            if not (np.isfinite(cap) and cap > 0):
                raise ValueError(f"market cap for {tid!r} must be positive")
            values[i] = cap
        return values / values.sum()
    raise ValueError(f"unknown naive strategy {kind!r}")


def _compositions(total: int, parts: int, cap_units: int) -> np.ndarray:
    """All integer compositions of ``total`` into ``parts`` entries <= cap."""
    if parts == 1:
        if total <= cap_units:
            return np.array([[total]], dtype=np.int64)
        return np.empty((0, 1), dtype=np.int64)
    blocks = []
    for first in range(min(total, cap_units) + 1):
        tail = _compositions(total - first, parts - 1, cap_units)
        if len(tail):
            blocks.append(
                np.column_stack([np.full(len(tail), first, dtype=np.int64), tail])
            )
    if not blocks:
        return np.empty((0, parts), dtype=np.int64)
    return np.concatenate(blocks)


def grid_oracle(
    strategy: Strategy,
    w0,
    m: MomentEstimates,
    w_max: float = 0.9,
    step: float = 0.01,
    rf_annual: float = 0.0,
) -> FrontierSolution:
    """Brute-force reference solver on the simplex grid with spacing ``step``.

    Enumerates every grid weight vector inside the constraint set and picks
    the best objective directly, so it shares no code path with the smooth
    solver. The return anchor admits only the grid points that match the
    anchor as closely as the grid can at all (a grid rarely hits an anchor
    exactly); the risk anchor is a budget, so only grid points at or under
    the anchor volatility count, falling back to the nearest-risk shell
    when nothing fits under it. Ties break toward the smallest ℓ₁ distance
    from the observed book, then lexicographically.

    Supports up to 4 assets; the candidate count explodes beyond that.
    """
    fr = Frontier(w0, m, w_max)
    if fr.reason:
        raise ValueError(fr.reason)
    n = fr.support.size
    if n > 4:
        raise ValueError("grid oracle supports at most 4 assets")
    M = round(1.0 / step)
    if M < 1 or abs(M * step - 1.0) > 1e-9:
        raise ValueError("step must divide 1 evenly")
    cap_units = int(math.floor(fr.cap * M + 1e-9))
    comps = _compositions(M, n, cap_units)
    if not len(comps):
        raise ValueError("no grid point satisfies the constraints")
    W = comps.astype(float) / M
    mus = W @ fr.mu
    variances = np.einsum("ij,jk,ik->i", W, fr.cov, W)
    sigmas = np.sqrt(np.clip(variances, 0.0, None))

    rf_daily = rf_annual / DAYS_PER_YEAR
    if strategy is Strategy.MIN_VAR:
        # admit only points that meet the return anchor as closely as the
        # grid can at all; a wider band would let the oracle trade anchor
        # error for variance and overstate the attainable minimum
        dev = np.abs(mus - fr.anchor_mu)
        mask = dev <= dev.min() + 1e-12
        objective = -sigmas
    elif strategy is Strategy.MAX_RET:
        # mirror the solver's risk-budget semantics: at most the anchor
        # volatility, falling back to the nearest-risk shell off grid
        over = sigmas - fr.anchor_sigma
        mask = over <= 1e-12
        if not mask.any():
            dev = np.abs(over)
            mask = dev <= dev.min() + 1e-12
        objective = mus
    elif strategy is Strategy.MAX_SR:
        mask = np.ones(len(W), dtype=bool)
        excess = mus - rf_daily
        with np.errstate(divide="ignore", invalid="ignore"):
            objective = np.where(
                sigmas > 0.0,
                excess / np.where(sigmas > 0.0, sigmas, 1.0),
                np.where(excess > 0.0, math.inf, np.where(excess < 0.0, -math.inf, 0.0)),
            )
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    candidates = np.flatnonzero(mask)
    best_val = float(np.max(objective[candidates]))
    tie_tol = 1e-12 if math.isfinite(best_val) else 0.0
    ties = [i for i in candidates if objective[i] >= best_val - tie_tol]
    dists = {i: float(0.5 * np.abs(W[i] - fr.w0).sum()) for i in ties}
    pick = min(ties, key=lambda i: (dists[i], tuple(W[i])))

    w = W[pick]
    full = fr.embed(w)
    mu_p, sigma_p = float(mus[pick]), float(sigmas[pick])
    return FrontierSolution(
        strategy=strategy,
        weights=full,
        mu=mu_p,
        sigma=sigma_p,
        distance=fr.distance(full),
        converged=True,
        iterations=len(W),
        reason="",
    )
