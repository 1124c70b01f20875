"""Independent reference implementations that the tests check the pipeline
against. No pipeline run reaches any of them.

The grid oracle and the naive replay are the acceptance oracles: a
brute-force search of the simplex grid for the frontier projections, and a
linear scan of the raw events for a balance. ``forward_return`` prices one
weight vector's buy-and-hold return from its start and end closes, the
reference for every perf row. ``ReferenceFrontier`` walks one book's
critical lines one segment at a time, each with its own KKT solve, the
reference for the month's lockstep walk. ``reference_book_moments``
estimates one book's moments on its own, the reference for the month's
batch. ``rank_one_books`` is a fixed set of books with rank-1 covariances,
where the walk's KKT systems can be exactly singular. The rest are small
readings of pipeline values that only the tests need.
"""

from __future__ import annotations

import datetime as dt
import math
from typing import Iterable, Sequence

import numpy as np

from chainfrontier.decayfit import DecayFit, SizeBin, _curve
from chainfrontier.frontier import (
    _EPS,
    DAYS_PER_YEAR,
    MAX_ITER,
    Frontier,
    FrontierSolution,
    QPResult,
    Strategy,
    _Segment,
)
from chainfrontier.ingest import TransferEvent
from chainfrontier.marketdata import (
    MomentEstimates,
    ReturnWindow,
    _aligned,
    estimate_moments,
)
from chainfrontier.metrics import l1_distance_from
from chainfrontier.synth import SynthMarket


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


def replay_balance(
    events: Iterable[TransferEvent], account: str, block: int
) -> int:
    """Naive linear-scan balance over the raw events, kept as an
    independent cross-check for the ledger and ``balance_at``."""
    total = 0
    for e in events:
        if e.block <= block:
            if e.sender == account:
                total -= e.amount
            if e.recipient == account:
                total += e.amount
    return total


def l1_distance(w_actual, w_target) -> float:
    """Half the ℓ₁ difference between two weight vectors, in [0, 1].

    Both vectors must be fully invested and long-only over the same asset
    ordering (zeros are fine). 0 means identical books, 1 means disjoint.
    """
    return l1_distance_from(w_actual)(w_target)


def weighted_sse(
    bins: Sequence[SizeBin], delta_inf: float, psi: float, gamma: float
) -> float:
    """Objective the fit minimises: sum of sqrt(count)-weighted squares."""
    fitted = _curve([float(b.n) for b in bins], delta_inf, psi, gamma)
    return sum(
        math.sqrt(b.count) * (b.mean_d - f) * (b.mean_d - f)
        for b, f in zip(bins, fitted)
    )


def predict(fit: DecayFit, n):
    """Model value d(n) in percent for a scalar size or a NumPy array of
    sizes."""
    return fit.delta_inf * (1.0 - fit.psi * n ** (-fit.gamma))


def events_for(market: SynthMarket, token_id: str) -> tuple[TransferEvent, ...]:
    """The market's events of one token, in block order."""
    return tuple(e for e in market.events if e.token_id == token_id)


def forward_return(weights, start_prices, end_prices) -> float:
    """Buy-and-hold simple return of a weight vector over one window.

    Each held asset contributes its weight times the simple price relative
    minus one. Prices must be positive and finite wherever the weight is
    nonzero.
    """
    w = np.asarray(weights, dtype=float)
    p0 = np.asarray(start_prices, dtype=float)
    p1 = np.asarray(end_prices, dtype=float)
    if not (w.shape == p0.shape == p1.shape):
        raise ValueError("weights and price vectors must align")
    held = w > 0
    if np.any(~np.isfinite(p0[held])) or np.any(p0[held] <= 0):
        raise ValueError("missing or nonpositive start price for a held asset")
    if np.any(~np.isfinite(p1[held])) or np.any(p1[held] <= 0):
        raise ValueError("missing or nonpositive end price for a held asset")
    rel = np.zeros_like(w)
    rel[held] = p1[held] / p0[held] - 1.0
    return float(np.sum(w * rel))


# ---------------------------------------------------------------------------
# the per-book critical-line walk


def _kkt(kkt: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, bool]:
    """Solve [[H, 1], [1ᵀ, 0]] x = rhs: a quadratic on the free weights
    under the budget row; True when it fell back to ``lstsq``."""
    try:
        return np.linalg.solve(kkt, rhs), False
    except np.linalg.LinAlgError:
        # a singular H on the budget's null space: the minimum-norm solution
        return np.linalg.lstsq(kkt, rhs, rcond=None)[0], True


class ReferenceWalk:
    """One critical line of ½wᵀHw − (a + λb)ᵀw over the capped simplex,
    extended one segment at a time as ``find`` needs it; the walk the
    lockstep kernel replaced, with the same tolerances and tie rules."""

    def __init__(self, H, cap: float, a, b, x, state) -> None:
        n = b.size
        self.H, self.cap, self.a, self.b = H, cap, a, b
        # each free set's KKT system is these rows and columns, the budget
        # row last
        self.kkt = np.ones((n + 1, n + 1))
        self.kkt[:n, :n] = H
        self.kkt[n, n] = 0.0
        self.rhs = np.append(b, 0.0)
        self.rows = np.ones(n + 1, dtype=bool)
        self.hmax = float(np.abs(H).max())
        self.tol = _EPS * max(float(np.abs(b).max()), self.hmax * float(np.abs(x).sum()))
        self.x = x
        self.state = np.array(state, dtype=int)
        self.lam = 0.0
        self.last = -1
        self.event: tuple[int, int] | None = None
        self.segments: list[_Segment] = []

    def find(self, reached) -> tuple[_Segment, int, bool]:
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
        H, b, state, lam = self.H, self.b, self.state, self.lam
        if self.event is not None:
            j, to = self.event
            state[j] = to
        free = state == 0
        self.rows[:-1] = free
        rows = np.flatnonzero(self.rows)
        F = rows[:-1]
        bF = b[F]
        wb = np.zeros(b.size)
        fell_back = False
        if float(bF.max() - bF.min()) > self.tol:
            sol, fell_back = _kkt(self.kkt[rows][:, rows], self.rhs[rows])
            wb[F], gamma1 = sol[:-1], sol[-1]
        else:
            gamma1 = float(bF.sum()) / F.size
        m1 = float(b @ wb)
        if m1 < 0.0:
            wb, m1 = -wb, -m1
        wa = self.x - lam * wb
        Hwa = H @ wa
        c = Hwa - self.a
        c -= c[F].sum() / F.size
        d = H @ wb - b + gamma1
        num = np.where(free, np.where(wb < 0.0, 0.0, self.cap) - wa, -c)
        den = np.where(free, wb, d)
        tol = max(self.tol, _EPS * self.hmax * float(np.abs(wb).sum()))
        falls = np.where(free, wb != 0.0, state * d > tol)
        hit = np.divide(num, den, out=np.full(b.size, math.inf), where=falls)
        np.maximum(hit, lam, out=hit)
        if self.last >= 0 and hit[self.last] <= lam:
            hit[self.last] = math.inf
        end = float(hit.min())
        self.segments.append(
            _Segment(lam, end, wa, wb, float(b @ wa), m1, float(wa @ Hwa), fell_back)
        )
        if end < math.inf:
            j = int(np.flatnonzero(hit <= end + _EPS * end)[0])
            self.event = (j, 0 if state[j] else (-1 if wb[j] < 0.0 else 1))
            self.x = wa + end * wb
            self.lam, self.last = end, j


class ReferenceFrontier(Frontier):
    """A ``Frontier`` whose GMV homotopy and walks are ``ReferenceWalk``s."""

    def gmv(self) -> QPResult:
        if self._gmv is None:
            H = self.cov / max(float(np.abs(self.cov).max()), 1e-300)
            x = np.full(self.mu.size, 1.0 / self.mu.size)
            g = H @ x
            walk = ReferenceWalk(H, self.cap, g, -g, x, np.zeros(x.size, dtype=int))
            seg, segments, converged = walk.find(lambda s: s.end >= 1.0)
            self._gmv = QPResult(seg.at(1.0), walk.state, segments, converged)
        return self._gmv

    def walk(self, sign: float) -> ReferenceWalk:
        if sign not in self._walks:
            gmv = self.gmv()
            self._walks[sign] = ReferenceWalk(
                self.cov, self.cap, 0.0, sign * self.mu, gmv.x, gmv.state
            )
        return self._walks[sign]


# ---------------------------------------------------------------------------
# one book's moments


def reference_book_moments(
    windows: Sequence[ReturnWindow],
    shrink_lambda: float = 0.5,
    min_obs: int = 45,
) -> MomentEstimates:
    """``estimate_moments`` for one book on its own, with the per-book
    shrinkage that the month's stacked kernel replaced; it raises the same
    ValueErrors."""
    if not 0.0 <= shrink_lambda <= 1.0:
        raise ValueError("shrink_lambda must be in [0, 1]")
    ids = tuple(w.token_id for w in windows)
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate asset ids in moment estimation")

    eligible = np.array([len(w) >= min_obs for w in windows], dtype=bool)
    kept = [w for w, ok in zip(windows, eligible) if ok]
    if not kept:
        raise ValueError(f"no eligible assets (need >= {min_obs} observations)")

    raw = np.array([float(np.mean(w.returns)) for w in kept])
    cross = float(np.mean(raw))
    shrunk = shrink_lambda * cross + (1.0 - shrink_lambda) * raw

    cols = _aligned(*kept)
    if len(cols[0]) < 2:
        raise ValueError("fewer than 2 shared return dates across eligible assets")
    X = np.column_stack(cols)

    cov, intensity = _reference_shrinkage(X)
    return MomentEstimates(
        asset_ids=ids,
        eligible=eligible,
        eligible_ids=tuple(w.token_id for w in kept),
        raw_means=raw,
        shrunk_means=shrunk,
        cross_mean=cross,
        cov=cov,
        lw_intensity=intensity,
        n_obs=len(X),
    )


def _reference_shrinkage(X: np.ndarray) -> tuple[np.ndarray, float]:
    """Constant-correlation shrinkage of one (t, n) sample."""
    t, n = X.shape
    Xc = X - X.mean(axis=0)
    sample = (Xc.T @ Xc) / t
    sample = (sample + sample.T) / 2.0
    if n == 1:
        return sample, 0.0

    var = np.diag(sample).copy()
    if np.any(var <= 0):
        return _reference_psd_floor(sample), 0.0
    sqrtvar = np.sqrt(var)
    denom = np.outer(sqrtvar, sqrtvar)
    rbar = float((np.sum(sample / denom) - n) / (n * (n - 1)))
    prior = rbar * denom
    np.fill_diagonal(prior, var)

    gamma = float(np.linalg.norm(sample - prior, "fro") ** 2)
    if gamma <= 1e-30:
        return _reference_psd_floor(sample), 0.0

    # pi-hat: Var[x_i x_j] summed over all pairs
    Y = Xc**2
    phi_mat = (Y.T @ Y) / t - sample**2
    phi = float(np.sum(phi_mat))

    # rho-hat: diagonal part plus the constant-correlation cross terms
    theta = (Xc**3).T @ Xc / t - var[:, None] * sample
    np.fill_diagonal(theta, 0.0)
    rho = float(np.sum(np.diag(phi_mat))) + rbar * float(
        np.sum(np.outer(1.0 / sqrtvar, sqrtvar) * theta)
    )

    kappa = (phi - rho) / gamma
    intensity = float(min(1.0, max(0.0, kappa / t)))
    cov = intensity * prior + (1.0 - intensity) * sample
    return _reference_psd_floor((cov + cov.T) / 2.0), intensity


def _reference_psd_floor(cov: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    eigvals = np.linalg.eigvalsh(cov)
    if eigvals[0] >= -tol:
        return cov
    vals, vecs = np.linalg.eigh(cov)
    vals = np.clip(vals, 0.0, None)
    fixed = vecs @ np.diag(vals) @ vecs.T
    return (fixed + fixed.T) / 2.0


# ---------------------------------------------------------------------------
# books with rank-1 covariances

RANK_ONE_CAP = 0.9
RANK_ONE_RF = 0.05


def rank_one_books() -> list[tuple[np.ndarray, MomentEstimates]]:
    """300 books of 3 or 4 assets, each with two daily returns per asset,
    so its covariance has rank 1 and no shrinkage. Solve them at cap
    ``RANK_ONE_CAP`` and ``rf_annual = RANK_ONE_RF``."""
    rng = np.random.default_rng(3)
    day = dt.date(2021, 1, 2)
    books = []
    for _ in range(300):
        n = int(rng.integers(3, 5))
        windows = [ReturnWindow(f"A{j}", day, rng.normal(0.001, 0.03, 2)) for j in range(n)]
        w0 = rng.dirichlet(np.ones(n))
        books.append((w0, estimate_moments(windows, min_obs=2)))
    return books
