"""Constrained frontier projections of observed portfolios.

Three projections are solved per account: the minimum-variance book at the
account's expected return, the maximum-return book at the account's risk,
and the maximum-Sharpe book. All share the same constraint set: fully
invested, long-only, a per-asset cap, and support restricted to the assets
the account already holds.

Books hold a handful of assets, so every projection is a small dense QP
solved exactly by one primal active-set routine, ``minimize``, started from
a feasible book (a vertex of the capped simplex, a mix of two, or equal
weights):

* min-variance solves the QP at the return anchor, or the global
  minimum-variance (GMV) QP when every feasible book meets the anchor;
* max-return solves the GMV QP, then the min-variance QP at the highest
  reachable return, and when that breaks the risk budget finds the return
  at which the frontier variance equals the budget, stepping along the
  variance's quadratic pieces inside a bisection bracket;
* max-Sharpe solves the homogenised QP when some book beats the risk-free
  rate, and otherwise scans the vertices of the capped simplex.

A solution's ``iterations`` is the number of active-set iterations summed
over the QPs of its projection (0 for the vertex scan). A brute-force
simplex-grid oracle provides an independent check on the solver.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .marketdata import MomentEstimates
from .metrics import l1_distance

DAYS_PER_YEAR = 365.0

# feasibility and anchor tolerance of a converged row
SOLVER_TOL = 1e-8
# cap on active-set iterations per QP, and on root-search steps per max_ret
MAX_ITER = 200

# kernel tolerances, relative to normalised rows and the iterate's scale
_EPS = 1e-12  # blocking, ratio ties and null steps
# a row counts as active at the start only when it holds to rounding; a
# looser test would freeze a small slack into the answer
_ACTIVE_TOL = 1e-15
_INDEPENDENT_TOL = 1e-9  # residual norm of a row against the working rows
_MULT_TOL = 1e-10  # negative multiplier, relative to the gradient
_BUDGET_TOL = 1e-11  # |V - V0| / V0 at which the risk budget binds


class Strategy(Enum):
    MIN_VAR = "min_var"
    MAX_RET = "max_ret"
    MAX_SR = "max_sr"


class NaiveStrategy(Enum):
    EQUAL = "equal_weight"
    MCAP = "mcap_weight"


@dataclass(frozen=True)
class ConstraintSet:
    """Shared feasible set for every strategy.

    ``support`` holds indices into the weight vector; None derives it from
    the strictly positive entries of the observed weights.
    """

    w_max: float = 0.9
    support: tuple[int, ...] | None = None


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


@dataclass(frozen=True)
class _Instance:
    """Unpacked sub-problem on the support."""

    support: np.ndarray
    mu: np.ndarray
    cov: np.ndarray
    w0: np.ndarray
    cap: float
    anchor_mu: float
    anchor_sigma: float
    n_full: int


def _unpack(
    w0, m: MomentEstimates, constraints: ConstraintSet | None
) -> tuple[_Instance, str]:
    """Validate inputs and cut the problem down to the support.

    Returns the instance and an error reason ('' when solvable).
    """
    w0 = np.asarray(w0, dtype=float)
    mu_all = np.asarray(m.shrunk_means, dtype=float)
    cov_all = np.asarray(m.cov, dtype=float)
    if w0.shape != mu_all.shape:
        raise ValueError(
            f"w0 has {w0.size} entries for {mu_all.size} eligible assets"
        )
    if np.any(w0 < -1e-9):
        raise ValueError("observed weights must be long-only")
    if abs(float(w0.sum()) - 1.0) > 1e-6:
        raise ValueError(f"observed weights sum to {float(w0.sum())}, not 1")

    c = constraints if constraints is not None else ConstraintSet()
    if not 0.0 < c.w_max <= 1.0:
        raise ValueError(f"w_max must be in (0, 1], got {c.w_max}")
    if c.support is not None:
        support = np.asarray(sorted(set(c.support)), dtype=int)
        if support.size and (support[0] < 0 or support[-1] >= w0.size):
            raise ValueError("support indices out of range")
    else:
        support = np.flatnonzero(w0 > 0.0)
    if support.size < 2:
        raise ValueError("need at least 2 assets in the support")
    off = np.delete(np.arange(w0.size), support)
    if off.size and float(np.abs(w0[off]).sum()) > 1e-9:
        raise ValueError("observed weights carry mass outside the support")

    mu = mu_all[support]
    cov = cov_all[np.ix_(support, support)]
    w0s = w0[support]
    anchor_mu, anchor_sigma = _moments_of(w0s, mu, cov)
    inst = _Instance(support, mu, cov, w0s, c.w_max, anchor_mu, anchor_sigma, w0.size)
    reason = ""
    if support.size * c.w_max < 1.0 - 1e-12:
        reason = "cap excludes every fully-invested portfolio on this support"
    return inst, reason


def _embed(inst: _Instance, w_sub: np.ndarray) -> np.ndarray:
    w = np.zeros(inst.n_full)
    w[inst.support] = w_sub
    return w


def _finish(
    strategy: Strategy,
    inst: _Instance,
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
        and float(w.max()) <= inst.cap + SOLVER_TOL
    )
    if not feasible:
        w, ok, anchor_check = inst.w0, False, None
        reason = reason or "constraint violation above tolerance"
    mu_p, sigma_p = _moments_of(w, inst.mu, inst.cov)
    anchored = anchor_check(mu_p, sigma_p) if anchor_check is not None else True
    converged = bool(ok and anchored)
    if not converged and not reason:
        reason = "anchor violation above tolerance" if not anchored else "solver did not converge"
    full = _embed(inst, w)
    full_w0 = _embed(inst, inst.w0)
    return FrontierSolution(
        strategy=strategy,
        weights=full,
        mu=mu_p,
        sigma=sigma_p,
        distance=l1_distance(full_w0, full),
        converged=converged,
        iterations=iterations,
        reason=reason,
    )


# ---------------------------------------------------------------------------
# the QP kernel


@dataclass(frozen=True)
class QPResult:
    """Outcome of one active-set QP.

    ``working`` lists the inequality rows held active at ``x``.
    """

    x: np.ndarray
    working: tuple[int, ...]
    iterations: int
    converged: bool


def minimize(H, A, C, d, x0, hint: Sequence[int] = ()) -> QPResult:
    """Minimise ½xᵀHx subject to Ax = A·x0 and Cx <= d, from a feasible x0.

    A primal active-set method (Nocedal & Wright, *Numerical Optimization*,
    Algorithm 16.3) for a positive semidefinite H. Every iterate stays
    feasible: each step minimises over the null space of the equality rows
    and a linearly independent working set of active inequality rows, then
    moves as far toward that minimiser as the other rows allow.
    Rows are normalised, so the blocking and multiplier tolerances are
    relative, and Bland's smallest-index rule picks the row to add or drop,
    which keeps degenerate vertices from cycling. Where more rows are active
    than there are free variables, the working set holds only an independent
    subset of them, so the KKT system never goes singular on that account.

    ``hint`` names inequality rows to try first when the working set is
    seeded from the rows active at x0, e.g. the previous solve's working
    set. Iterations count factorisations of the working rows, at most
    ``MAX_ITER``.
    """
    H = np.asarray(H, dtype=float)
    A = np.asarray(A, dtype=float)
    C = np.asarray(C, dtype=float)
    x = np.array(x0, dtype=float)
    n, k = x.size, A.shape[0]
    A = A / np.linalg.norm(A, axis=1)[:, None]
    c_norm = np.linalg.norm(C, axis=1)
    C = C / c_norm[:, None]
    d = np.asarray(d, dtype=float) / c_norm
    H = H / max(float(np.abs(H).max()), 1e-300)

    # seed the working set with active rows that are independent of the
    # equality rows and of each other (Gram-Schmidt on the fly)
    basis = np.linalg.qr(A.T)[0]
    active = np.flatnonzero(d - C @ x <= _ACTIVE_TOL * max(1.0, float(np.abs(x).max())))
    working: list[int] = []
    for i in dict.fromkeys([*(h for h in hint if h in active), *active]):
        if basis.shape[1] == n:
            break
        r = C[i] - basis @ (basis.T @ C[i])
        norm = math.sqrt(float(r @ r))
        if norm > _INDEPENDENT_TOL:
            basis = np.column_stack([basis, r / norm])
            working.append(int(i))
    outside = np.ones(C.shape[0], dtype=bool)
    outside[working] = False

    # null-space steps: p = Z u with Z spanning the rows' null space, so a
    # row that depends on the working rows never reads as blocking
    for it in range(1, MAX_ITER + 1):
        M = np.concatenate((A, C[working]))
        m = M.shape[0]
        Q, R = np.linalg.qr(M.T, mode="complete")
        g = H @ x
        if m < n:
            Z = Q[:, m:]
            reduced = Z.T @ H @ Z
            try:
                u = np.linalg.solve(reduced, -(Z.T @ g))
            except np.linalg.LinAlgError:
                u = np.linalg.lstsq(reduced, -(Z.T @ g), rcond=None)[0]
            p = Z @ u
            step = float(np.abs(p).max())
            if step > _EPS * max(1.0, float(np.abs(x).max())):
                # ratio test over the rows outside the working set
                cp = C @ p
                blocking = np.flatnonzero(outside & (cp > _EPS * step))
                if blocking.size:
                    slack = np.maximum(d[blocking] - C[blocking] @ x, 0.0)
                    ratios = slack / cp[blocking]
                    least = float(ratios.min())
                    if least < 1.0:
                        block = int(blocking[np.flatnonzero(ratios <= least + _EPS)[0]])
                        x = x + least * p
                        working.append(block)
                        outside[block] = False
                        continue
                x = x + p
                g = H @ x
        # x minimises over the working rows' null space: test the multipliers
        lam = np.linalg.solve(R[:m], -(Q[:, :m].T @ g))
        grad = max(float(np.abs(g).max()), 1e-300)
        negative = [working[j] for j in np.flatnonzero(lam[k:] < -_MULT_TOL * grad)]
        if not negative:
            return QPResult(x, tuple(sorted(working)), it, True)
        drop = min(negative)
        working.remove(drop)
        outside[drop] = True
    return QPResult(x, tuple(sorted(working)), MAX_ITER, False)


# ---------------------------------------------------------------------------
# the capped simplex and its three projections


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
class _Simplex:
    """The capped simplex on the support, with its return extremes.

    Inequality rows are -w <= 0 then w <= cap, so Bland's rule prefers
    lower bounds. ``ret`` is the return row rescaled to
    (mu - mu_lo) / (mu_hi - mu_lo), so the anchor t runs over [0, 1];
    it is None when the return is the same for every feasible book.
    """

    cov: np.ndarray
    C: np.ndarray
    d: np.ndarray
    w_lo: np.ndarray
    w_hi: np.ndarray
    mu_lo: float
    mu_hi: float
    ret: np.ndarray | None

    @classmethod
    def of(cls, inst: _Instance) -> "_Simplex":
        n = inst.mu.size
        w_lo = _greedy_vertex(inst.mu, inst.cap, maximize=False)
        w_hi = _greedy_vertex(inst.mu, inst.cap, maximize=True)
        mu_lo, mu_hi = float(w_lo @ inst.mu), float(w_hi @ inst.mu)
        span = mu_hi - mu_lo
        # a flat mean vector makes the return row redundant with full
        # investment and would degenerate the constraint system
        ret = (inst.mu - mu_lo) / span if span > 1e-12 else None
        C = np.vstack([-np.eye(n), np.eye(n)])
        d = np.concatenate([np.zeros(n), np.full(n, inst.cap)])
        return cls(inst.cov, C, d, w_lo, w_hi, mu_lo, mu_hi, ret)

    def gmv(self) -> QPResult:
        """The global minimum-variance book, started from equal weights."""
        n = self.w_lo.size
        return minimize(self.cov, np.ones((1, n)), self.C, self.d, np.full(n, 1.0 / n))

    def min_var(self, t: float, start=None, hint: Sequence[int] = ()) -> QPResult:
        """The minimum-variance book at scaled return t.

        Needs a return row. The default start is the convex combination of
        w_lo and w_hi at t.
        """
        if start is None:
            start = (1.0 - t) * self.w_lo + t * self.w_hi
        A = np.vstack([np.ones(self.w_lo.size), self.ret])
        return minimize(self.cov, A, self.C, self.d, start, hint)

    def tangent(self, x: np.ndarray, working: Sequence[int]) -> np.ndarray | None:
        """d x / d t of the min-variance book while ``working`` stays active.

        None when fewer than two weights are free, so the working set
        admits no move along t.
        """
        n = x.size
        free = np.ones(n, dtype=bool)
        free[[i % n for i in working]] = False
        f = int(free.sum())
        if f < 2:
            return None
        kkt = np.zeros((f + 2, f + 2))
        kkt[:f, :f] = self.cov[np.ix_(free, free)]
        kkt[f, :f] = kkt[:f, f] = 1.0
        kkt[f + 1, :f] = kkt[:f, f + 1] = self.ret[free]
        rhs = np.zeros(f + 2)
        rhs[-1] = 1.0
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            return None
        dx = np.zeros(n)
        dx[free] = sol[:f]
        return dx


def solve(
    strategy: Strategy,
    w0,
    m: MomentEstimates,
    constraints: ConstraintSet | None = None,
    rf_annual: float = 0.0,
) -> FrontierSolution:
    """Project an observed weight vector onto one frontier strategy.

    ``w0`` aligns with ``m.eligible_ids``. Anchored strategies hold the
    account's own expected return (min-variance) or risk (max-return)
    fixed: the return anchor binds as an equality whenever the observed
    return is reachable under the cap and relaxes to at-least-as-much when
    the observed book itself violates the cap; the risk anchor is an
    at-most budget, which the optimum exhausts whenever doing so pays. The
    max-Sharpe projection ignores the anchors entirely and never looks at
    ``w0``, so identical moments give identical tangency books no matter
    the observed weights.

    Infeasible anchors come back as non-converged solutions with a reason
    rather than exceptions; malformed inputs raise ValueError.
    """
    inst, reason = _unpack(w0, m, constraints)
    if reason:
        return _finish(strategy, inst, inst.w0, False, 0, reason)
    if strategy is Strategy.MIN_VAR:
        return _solve_min_var(inst)
    if strategy is Strategy.MAX_RET:
        return _solve_max_ret(inst)
    if strategy is Strategy.MAX_SR:
        return _solve_max_sr(inst, rf_annual / DAYS_PER_YEAR)
    raise ValueError(f"unknown strategy {strategy!r}")


def _solve_min_var(inst: _Instance) -> FrontierSolution:
    box = _Simplex.of(inst)
    if inst.anchor_mu > box.mu_hi + SOLVER_TOL:
        return _finish(
            Strategy.MIN_VAR, inst, inst.w0, False, 0,
            "anchor return unreachable under the cap",
        )
    # an anchor below the reachable range (cap-violating observed book) is
    # met by every feasible book, so the at-least anchor leaves the GMV;
    # so does a flat return
    if box.ret is None or inst.anchor_mu < box.mu_lo - SOLVER_TOL:
        res = box.gmv()
    else:
        t = (inst.anchor_mu - box.mu_lo) / (box.mu_hi - box.mu_lo)
        res = box.min_var(min(max(t, 0.0), 1.0))
    check = lambda mu_p, sigma_p: mu_p >= inst.anchor_mu - SOLVER_TOL
    return _finish(
        Strategy.MIN_VAR, inst, res.x, res.converged, res.iterations, "", check
    )


def _solve_max_ret(inst: _Instance) -> FrontierSolution:
    """Max return at variance <= V0, as the frontier point at the budget.

    The frontier variance V(t) of the min-variance book at scaled return t
    is convex in t and increasing on [t_gmv, 1]. While the working set
    holds, the book moves linearly in t and V is quadratic, so each step
    goes to the root of that quadratic and starts the next QP at the book
    it predicts; a bisection guard keeps the steps inside the bracket.
    """
    box = _Simplex.of(inst)
    budget = inst.anchor_sigma**2
    check = lambda mu_p, sigma_p: sigma_p <= inst.anchor_sigma + SOLVER_TOL
    gmv = box.gmv()
    iterations = gmv.iterations
    var_gmv = float(gmv.x @ inst.cov @ gmv.x)
    if gmv.converged and math.sqrt(var_gmv) > inst.anchor_sigma + SOLVER_TOL:
        return _finish(
            Strategy.MAX_RET, inst, inst.w0, False, iterations,
            "risk budget below the feasible minimum",
        )
    if not gmv.converged or box.ret is None or var_gmv >= budget:
        return _finish(Strategy.MAX_RET, inst, gmv.x, gmv.converged, iterations, "", check)

    res = box.min_var(1.0)
    iterations += res.iterations
    var = float(res.x @ inst.cov @ res.x)
    if not res.converged or var <= budget:
        return _finish(Strategy.MAX_RET, inst, res.x, res.converged, iterations, "", check)

    # bracket V(lo_t) <= V0 < V(hi_t), with a feasible book at each end
    lo_t, lo_x = float(gmv.x @ box.ret), gmv.x
    hi_t, hi_x = 1.0, res.x
    t = 1.0
    for _ in range(MAX_ITER):
        gap = budget - var
        if abs(gap) <= _BUDGET_TOL * budget or hi_t - lo_t <= 4e-16:
            break
        dx = box.tangent(res.x, res.working)
        step, start = math.nan, None
        if dx is not None:
            slope = 2.0 * float(res.x @ inst.cov @ dx)
            curvature = 2.0 * float(dx @ inst.cov @ dx)
            denom = slope + math.sqrt(max(slope * slope + 2.0 * curvature * gap, 0.0))
            if denom > 0.0:
                step = t + 2.0 * gap / denom
        if lo_t < step < hi_t:
            start = res.x + (step - t) * dx
            t = step
        else:
            t = 0.5 * (lo_t + hi_t)
        if start is None or start.min() < 0.0 or start.max() > inst.cap:
            start = lo_x + (t - lo_t) / (hi_t - lo_t) * (hi_x - lo_x)
        res = box.min_var(t, start, res.working)
        iterations += res.iterations
        if not res.converged:
            break
        var = float(res.x @ inst.cov @ res.x)
        if var > budget:
            hi_t, hi_x = t, res.x
        else:
            lo_t, lo_x = t, res.x
    # converge only where the budget binds; an interior stop loses return
    binds = res.converged and abs(var - budget) <= _BUDGET_TOL * budget
    return _finish(Strategy.MAX_RET, inst, res.x, binds, iterations, "", check)


def _solve_max_sr(inst: _Instance, rf_daily: float) -> FrontierSolution:
    """Max Sharpe over the capped simplex, independent of the observed book.

    With some book above r_f this is the homogenised QP (Cornuéjols &
    Tütüncü, *Optimization Methods in Finance*, §8.2): min yᵀΣy subject to
    (mu - r_f)ᵀy = 1, y >= 0 and y_i <= cap·Σy, then w = y / Σy. Otherwise
    every excess return is <= 0, the Sharpe ratio is a convex function on
    the perspective image of the capped simplex, and its maximum sits at a
    vertex, so the vertices are scanned exactly.
    """
    n = inst.mu.size
    w_hi = _greedy_vertex(inst.mu, inst.cap, maximize=True)
    excess_hi = float(w_hi @ inst.mu) - rf_daily
    if excess_hi <= 0.0:
        return _finish(Strategy.MAX_SR, inst, _best_vertex(inst, rf_daily), True, 0, "")
    C = np.vstack([-np.eye(n), np.eye(n) - inst.cap])
    res = minimize(
        inst.cov, ((inst.mu - rf_daily) / excess_hi)[None, :], C, np.zeros(2 * n), w_hi
    )
    return _finish(
        Strategy.MAX_SR, inst, res.x / res.x.sum(), res.converged, res.iterations, ""
    )


def _best_vertex(inst: _Instance, rf_daily: float) -> np.ndarray:
    """The capped-simplex vertex with the highest Sharpe ratio.

    A vertex holds k = floor(1/cap) assets at the cap, at most one asset at
    the remainder and the rest at zero. Ties go to the first vertex in
    enumeration order.
    """
    n, cap = inst.mu.size, inst.cap
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
    return max(vertices, key=lambda w: sharpe(*_moments_of(w, inst.mu, inst.cov), rf_daily))


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
    constraints: ConstraintSet | None = None,
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
    inst, reason = _unpack(w0, m, constraints)
    if reason:
        raise ValueError(reason)
    n = inst.support.size
    if n > 4:
        raise ValueError("grid oracle supports at most 4 assets")
    M = round(1.0 / step)
    if M < 1 or abs(M * step - 1.0) > 1e-9:
        raise ValueError("step must divide 1 evenly")
    cap_units = int(math.floor(inst.cap * M + 1e-9))
    comps = _compositions(M, n, cap_units)
    if not len(comps):
        raise ValueError("no grid point satisfies the constraints")
    W = comps.astype(float) / M
    mus = W @ inst.mu
    variances = np.einsum("ij,jk,ik->i", W, inst.cov, W)
    sigmas = np.sqrt(np.clip(variances, 0.0, None))

    rf_daily = rf_annual / DAYS_PER_YEAR
    if strategy is Strategy.MIN_VAR:
        # admit only points that meet the return anchor as closely as the
        # grid can at all; a wider band would let the oracle trade anchor
        # error for variance and overstate the attainable minimum
        dev = np.abs(mus - inst.anchor_mu)
        mask = dev <= dev.min() + 1e-12
        objective = -sigmas
    elif strategy is Strategy.MAX_RET:
        # mirror the solver's risk-budget semantics: at most the anchor
        # volatility, falling back to the nearest-risk shell off grid
        over = sigmas - inst.anchor_sigma
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
    dists = {i: float(0.5 * np.abs(W[i] - inst.w0).sum()) for i in ties}
    pick = min(ties, key=lambda i: (dists[i], tuple(W[i])))

    w = W[pick]
    full = _embed(inst, w)
    full_w0 = _embed(inst, inst.w0)
    mu_p, sigma_p = float(mus[pick]), float(sigmas[pick])
    return FrontierSolution(
        strategy=strategy,
        weights=full,
        mu=mu_p,
        sigma=sigma_p,
        distance=l1_distance(full_w0, full),
        converged=True,
        iterations=len(W),
        reason="",
    )
