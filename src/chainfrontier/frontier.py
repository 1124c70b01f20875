"""Constrained frontier projections of observed portfolios.

Three projections are solved per account: the minimum-variance book at the
account's expected return, the maximum-return book at the account's risk,
and the maximum-Sharpe book. All share the same constraint set: fully
invested, long-only, a per-asset cap, and support restricted to the assets
the account already holds.

All three lie on one piecewise-linear path, the minimiser w(λ) of
½wᵀΣw − λμᵀw over that set, which Markowitz's critical-line algorithm
traces. The same kernel first finds the path's start, the global
minimum-variance (GMV) book at λ = 0, by following a critical line from
equal weights to the GMV (a homotopy). The walk goes up from the GMV along
the efficient branch, or down when a min-variance anchor lies below the
GMV's return. ``walk_books`` walks a month's books in lockstep: each step
adds one segment to every walk, with one stacked KKT solve per free-set
size. On a segment μ(λ) = m0 + m1·λ and V(λ) = K + m1·λ², so each
projection is closed-form:

* min-variance: λ = (μ_a − m0)/m1, or the GMV when every book meets μ_a;
* max-return: λ² = (V0 − K)/m1, or the GMV when it spends the budget;
* max-Sharpe: λ = K/(m0 − r_f), or a scan of the capped simplex's
  vertices when no book beats the risk-free rate.

A solution's ``iterations`` is the GMV's homotopy segments plus the
segments walked to reach the projection (0 for the vertex scan).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .marketdata import MomentEstimates
from .metrics import l1_distance_from

DAYS_PER_YEAR = 365.0

# feasibility and anchor tolerance of a converged row
SOLVER_TOL = 1e-8
# cap on segments per walk
MAX_ITER = 200

# kernel tolerances, relative to the walk's scale
_EPS = 1e-12  # event ties, flat slopes
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
        # the weights passed the feasibility check above; the observed book
        # was checked once, in ``Frontier``
        distance=float(0.5 * np.sum(np.abs(fr.w0_full - full))),
        converged=converged,
        iterations=iterations,
        reason=reason,
    )


# ---------------------------------------------------------------------------
# the critical line


def _kkt(kkt: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve a stack of [[H, 1], [1ᵀ, 0]] x = rhs systems, quadratics on the
    free weights under the budget row, and say which fell back to ``lstsq``."""
    fell_back = np.zeros(len(kkt), dtype=bool)
    try:
        return np.linalg.solve(kkt, rhs[..., None])[..., 0], fell_back
    except np.linalg.LinAlgError:
        # one singular matrix fails the whole stack: solve one at a time
        sol = np.empty_like(rhs)
    for i, (A, r) in enumerate(zip(kkt, rhs)):
        try:
            sol[i] = np.linalg.solve(A, r)
        except np.linalg.LinAlgError:
            # a singular H on the budget's null space: the minimum-norm solution
            sol[i], fell_back[i] = np.linalg.lstsq(A, r, rcond=None)[0], True
    return sol, fell_back


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


class _Segment(NamedTuple):
    """One linear piece w(λ) = wa + λ·wb of the critical line, λ in [start, end].

    On a walk with a = 0, μ(λ) = m0 + m1·λ along b and V(λ) = K + m1·λ²,
    because V′(λ) = 2λ·μ′(λ). The last segment has end = inf and wb = 0.
    ``lstsq`` is set when the segment's KKT system was singular and its
    slope is ``lstsq``'s minimum-norm one.
    """

    start: float
    end: float
    wa: np.ndarray
    wb: np.ndarray
    m0: float
    m1: float
    K: float
    lstsq: bool

    def at(self, lam: float) -> np.ndarray:
        lam = min(max(lam, self.start), self.end)
        return self.wa if lam == math.inf else self.wa + lam * self.wb


class _Walk:
    """The critical line of ½wᵀHw − (a + λb)ᵀw for λ >= 0 over the capped
    simplex, from a book ``x`` that is optimal at λ = 0 in a given ``state``.

    Each weight is free (state 0), or fixed at 0 (-1) or at the cap (1).
    ``_run`` walks it, and leaves its ``segments`` and the ``state`` of the
    last one.
    """

    def __init__(self, H, cap: float, a, b, x, state) -> None:
        self.H, self.cap, self.a, self.b, self.x = H, cap, a, b, x
        self.state = np.array(state, dtype=int)
        self.segments: list[_Segment] = []

    def find(self, reached) -> tuple[_Segment, int, bool]:
        """The first segment where ``reached`` holds or the walk ends, and
        its 1-based index; False when ``MAX_ITER`` segments fall short."""
        for k, seg in enumerate(self.segments, 1):
            if seg.end == math.inf or reached(seg):
                return seg, k, True
        return self.segments[-1], len(self.segments), False


def _run(walks: Sequence[_Walk], stop: float) -> None:
    """Walk every walk in lockstep until a segment reaches λ >= ``stop``,
    the line ends, or ``MAX_ITER`` segments are walked. A walk's arrays are
    padded to the next multiple of 8, a width that depends on its book
    alone, so a book walks the same bits alone as in any batch."""
    groups: dict[int, list[_Walk]] = {}
    for walk in sorted(walks, key=lambda w: w.b.size):
        groups.setdefault(-(-walk.b.size // 8) * 8, []).append(walk)
    for width, group in groups.items():
        _run_group(group, width, stop)


def _run_group(walks: list[_Walk], P: int, stop: float) -> None:
    """Step walks of padded width P together, sorted by size.

    Each step gives each walk's segment its slope wb from one KKT solve on
    its free weights, stacked per free-set size. The segment is anchored at
    the book where it starts: wa = x − λ·wb. Two products with H give each
    fixed weight's multiplier, c + λ·d. The segment ends at the first
    event: a free weight reaches 0 or the cap, or a fixed weight's
    multiplier changes sign. Ties go to the smallest index; the weight that
    just changed cannot change back at the same λ. A walk's ``state`` is
    the last segment's, taken before its event is applied. Padded weights
    are fixed at 0 and raise no event.
    """
    B, ns = len(walks), np.array([w.b.size for w in walks])
    H, (a, b, x), state = np.zeros((B, P, P)), np.zeros((3, B, P)), np.full((B, P), -1)
    for i, w in enumerate(walks):
        n = w.b.size
        H[i, :n, :n], a[i, :n], b[i, :n], x[i, :n], state[i, :n] = w.H, w.a, w.b, w.x, w.state
    cap, real = np.array([[w.cap] for w in walks]), np.arange(P) < ns[:, None]
    # each free set's KKT system is these rows and columns, the budget row last
    kkt, rhs = np.ones((B, P + 1, P + 1)), np.zeros((B, P + 1))
    kkt[:, :P, :P], kkt[:, P, P], rhs[:, :P] = H, 0.0, b
    hmax = np.abs(H).max(axis=(1, 2))
    # b is known to the rounding of |H|·|x| (the homotopy's b is -Hx0), and
    # free weights with a flatter b stop moving
    tol = _EPS * np.maximum(np.abs(b).max(axis=1), hmax * np.abs(x).sum(axis=1))
    lam, last, live, steps = np.zeros(B), np.full(B, -1), list(walks), 0

    def dot(u, v):  # one BLAS dot per row
        return (u[:, None, :] @ v[:, :, None])[:, 0, 0]

    while live:
        k = len(live)
        rows = np.arange(k)
        free = state == 0
        nf = free.sum(axis=1)
        wb, fell_back = np.zeros((k, P)), np.zeros(k, dtype=bool)
        gamma1 = np.where(free, b, 0.0).sum(axis=1) / nf
        top = np.where(free, b, -math.inf).max(axis=1)
        moving = top - np.where(free, b, math.inf).min(axis=1) > tol
        # the free weights in index order, then the budget row
        budget = np.zeros((k, 1), dtype=bool)
        order = np.argsort(np.concatenate((~free, budget), axis=1), axis=1, kind="stable")
        for f in sorted(set(nf[moving].tolist())):
            sel = np.flatnonzero(moving & (nf == f))
            F, at = order[sel, : f + 1], sel[:, None]
            sol, fell_back[sel] = _kkt(kkt[at[:, :, None], F[:, :, None], F[:, None, :]], rhs[at, F])
            wb[at, F[:, :f]], gamma1[sel] = sol[:, :f], sol[:, f]
        # b·wb = wbᵀHwb >= 0, but a numerically singular system returns its
        # null direction with either sign: take the one raising b·w
        m1 = dot(b, wb)
        flip = m1 < 0.0
        wb[flip], m1[flip] = -wb[flip], -m1[flip]
        wa = x - lam[:, None] * wb
        Hwa = (H @ wa[:, :, None])[:, :, 0]
        # a fixed weight's multiplier is -state·(c + λ·d), its gradient's
        # sign flipped at the cap; the budget multiplier zeroes c on F
        c = Hwa - a
        c -= (np.where(free, c, 0.0).sum(axis=1) / nf)[:, None]
        d = (H @ wb[:, :, None])[:, :, 0] - b + gamma1[:, None]
        num = np.where(free, np.where(wb < 0.0, 0.0, cap) - wa, -c)
        den = np.where(free, wb, d)
        # a slope within the rounding of its terms never changes a sign
        tol_d = np.maximum(tol, _EPS * hmax * np.abs(wb).sum(axis=1))
        falls = real & np.where(free, wb != 0.0, state * d > tol_d[:, None])
        hit = np.divide(num, den, out=np.full((k, P), math.inf), where=falls)
        np.maximum(hit, lam[:, None], out=hit)
        guarded = np.flatnonzero(last >= 0)
        again = guarded[hit[guarded, last[guarded]] <= lam[guarded]]
        hit[again, last[again]] = math.inf
        end = hit.min(axis=1)
        # the segments, one row view of wa and wb per walk
        cut = np.flatnonzero(ns[1:] != ns[:-1]) + 1
        was, wbs = [], []
        for lo, hi in zip([0, *cut.tolist()], [*cut.tolist(), k]):
            was.extend(wa[lo:hi, : ns[lo]])
            wbs.extend(wb[lo:hi, : ns[lo]])
        m0, K = dot(b, wa).tolist(), dot(wa, Hwa).tolist()
        columns = zip(lam.tolist(), end.tolist(), was, wbs, m0, m1.tolist(), K, fell_back.tolist())
        for walk, seg in zip(live, map(_Segment._make, columns)):
            walk.segments.append(seg)

        steps += 1
        done = (end >= stop) | (steps == MAX_ITER)
        for i in np.flatnonzero(done).tolist():
            live[i].state = state[i, : ns[i]].copy()
        # the event; a walk whose line ends is done
        last = np.argmax(hit <= (end + _EPS * end)[:, None], axis=1)
        fixed = state[rows, last] != 0
        state[rows, last] = np.where(fixed, 0, np.where(wb[rows, last] < 0.0, -1, 1))
        lam = np.where(end < math.inf, end, lam)
        x = wa + lam[:, None] * wb
        if done.any():
            keep = ~done
            live = list(itertools.compress(live, keep.tolist()))
            H, kkt, rhs, a, b, x, state, cap, real, ns, hmax, tol, lam, last = (
                v[keep] for v in (H, kkt, rhs, a, b, x, state, cap, real, ns, hmax, tol, lam, last)
            )


# ---------------------------------------------------------------------------
# the GMV


@dataclass(frozen=True)
class QPResult:
    """A GMV homotopy's outcome: the book ``x``, and each weight's ``state``
    on the last segment, as ``_Walk`` numbers it."""

    x: np.ndarray
    state: np.ndarray
    iterations: int
    converged: bool


def _homotopy(H, cap: float) -> _Walk:
    """The homotopy from equal weights x0 to the GMV of H: x0 minimises
    ½xᵀHx − (Hx0)ᵀx with every weight free, and the minimiser of
    ½xᵀHx − (1 − λ)(Hx0)ᵀx reaches the GMV at λ = 1 along a critical line.
    H is normalised to the scale of the KKT system's budget row."""
    H = np.asarray(H, dtype=float)
    H = H / max(float(np.abs(H).max()), 1e-300)
    x = np.full(H.shape[0], 1.0 / H.shape[0])
    g = H @ x
    return _Walk(H, cap, g, -g, x, np.zeros(x.size, dtype=int))


def _gmv_of(homotopy: _Walk) -> QPResult:
    seg = homotopy.segments[-1]
    return QPResult(seg.at(1.0), homotopy.state, len(homotopy.segments), seg.end >= 1.0)


def minimize(H, cap: float) -> QPResult:
    """Minimise ½xᵀHx subject to Σx = 1 and 0 <= x <= cap by the homotopy;
    iterations count its segments, at most ``MAX_ITER``."""
    homotopy = _homotopy(H, cap)
    _run([homotopy], 1.0)
    return _gmv_of(homotopy)


class Frontier:
    """One observed book and its constrained frontier.

    ``w0`` aligns with ``m.eligible_ids``, and the support is the assets
    it holds. The book is validated and cut down to the support once;
    ``reason`` says why it has no feasible point ('' when it has one). The
    GMV book and the walks are computed on first use, or for a month of
    books at once by ``walk_books``, and kept, so the book's projections
    cost one homotopy and one walk between them, in any order.
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
        self.w0_full = self.embed(self.w0)
        self.distance = l1_distance_from(self.w0_full)
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
        """The global minimum-variance book."""
        if self._gmv is None:
            self._gmv = minimize(self.cov, self.cap)
        return self._gmv

    def _walk_from_gmv(self, sign: float) -> _Walk:
        gmv = self.gmv()
        self._walks[sign] = walk = _Walk(self.cov, self.cap, 0.0, sign * self.mu, gmv.x, gmv.state)
        return walk

    def walk(self, sign: float) -> _Walk:
        """The walk up (sign 1) or down (sign -1) the return from the GMV."""
        if sign not in self._walks:
            _run([self._walk_from_gmv(sign)], math.inf)
        return self._walks[sign]


def walk_books(books: Sequence[Frontier]) -> None:
    """Walk a month's books in lockstep: every GMV homotopy, then every
    up-walk and the down-walks of the books whose anchor return lies below
    their GMV's, each to its end. Each book keeps its GMV and walks, so
    ``solve`` only looks its segments up, and its answers are the same
    bits as for the book alone."""
    live = [fr for fr in books if not fr.reason]
    homotopies = [_homotopy(fr.cov, fr.cap) for fr in live]
    _run(homotopies, 1.0)
    walks = []
    for fr, homotopy in zip(live, homotopies):
        fr._gmv = gmv = _gmv_of(homotopy)
        if gmv.converged:
            walks.append(fr._walk_from_gmv(1.0))
            if fr.anchor_mu < float(gmv.x @ fr.mu):
                walks.append(fr._walk_from_gmv(-1.0))
    _run(walks, math.inf)


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
    is at λ = K/(m0 − r_f) on the first segment that reaches r_f there,
    which needs m0 >= r_f: a riskless GMV below r_f, whose K rounds to
    <= 0, would pass the test at λ = 0 with the worst Sharpe ratio.
    Otherwise every excess return is <= 0, the Sharpe ratio is a convex
    function on the perspective image of the capped simplex, and its
    maximum sits at a vertex, so the vertices are scanned exactly.
    """
    if fr.mu_hi - rf_daily <= 0.0:
        return _finish(Strategy.MAX_SR, fr, _best_vertex(fr, rf_daily), True, 0, "")
    gmv = fr.gmv()
    if not gmv.converged:
        return _finish(Strategy.MAX_SR, fr, gmv.x, False, gmv.iterations, "")
    seg, walked, ok = fr.walk(1.0).find(
        lambda s: s.m0 >= rf_daily and (s.m0 - rf_daily) * s.end >= s.K
    )
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
