"""Degradation-window mathematics and the minimal-architecture solver.

The paper's "fast degradation criteria" (Section 4.3.3) require each
parallel structure to satisfy, for some integer access count ``t``:

    R_struct(t)     >= r_min   (works reliably for t accesses)
    R_struct(t + 1) <= p_fail  (almost surely dead at access t + 1)

where ``R_struct`` is the k-of-n reliability built on the device Weibull.
Given a device (alpha, beta) and a redundancy fraction k/n, this module
finds the cheapest (n, t) meeting the criteria and sizes the full
architecture (N serial copies covering a legitimate access bound).

Two solver regimes:

- **unencoded (k = 1)**: ``n`` can reach billions, so both constraints are
  inverted in closed form per candidate ``t`` (log-domain, exact).
- **encoded (k = ceil(k_frac * n))**: ``n`` stays small; for each ``t`` the
  minimal ``n`` is found by vectorized binomial-tail evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.weibull import WeibullDistribution
from repro.errors import ConfigurationError, InfeasibleDesignError

__all__ = [
    "DegradationCriteria",
    "DEFAULT_CRITERIA",
    "PAPER_CRITERIA",
    "DesignPoint",
    "max_reliable_accesses",
    "solve_unencoded",
    "solve_encoded",
    "solve_unencoded_fractional",
    "solve_encoded_fractional",
    "solve_with_upper_bound",
    "solve_structure",
]


@dataclass(frozen=True)
class DegradationCriteria:
    """Reliability floor and failure ceiling for one parallel structure.

    ``r_min`` is the probability each copy must still work at its last
    legitimate access; ``p_fail`` is the maximum probability it survives
    one access past that (the paper's ``p``, 1% by default, relaxed up to
    10% in Fig. 4c).
    """

    r_min: float = 0.99
    p_fail: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 < self.p_fail < self.r_min < 1.0:
            raise ConfigurationError(
                f"need 0 < p_fail < r_min < 1, got r_min={self.r_min}, "
                f"p_fail={self.p_fail}")


#: The paper's stated default (99% floor, 1% ceiling, Section 4.3.3).
DEFAULT_CRITERIA = DegradationCriteria()

#: Criteria calibrated to the paper's *worked* design points.  Figure 3b's
#: reference design (n = 40, alpha = 9.3, beta = 12) is quoted as "98%
#: reliability ... for the 10th access, 2.2% probability ... for the 11th";
#: the strict 99%/1% criteria make several of the paper's own designs
#: infeasible, while these reproduce the quoted device counts (e.g.
#: 675,250 switches for beta = 8, k = 10% * n).
PAPER_CRITERIA = DegradationCriteria(r_min=0.98, p_fail=0.022)


@dataclass(frozen=True)
class DesignPoint:
    """A fully-sized limited-use architecture.

    Attributes
    ----------
    device:
        The per-switch Weibull wearout model.
    n, k:
        Parallel-bank size and recovery threshold (k = 1 means unencoded).
    t:
        Guaranteed reliable accesses served by each copy.
    copies:
        Number of serially-consumed copies ``N = ceil(bound / t)``.
    access_bound:
        The legitimate access bound (LAB) the design covers.
    criteria:
        The degradation criteria the bank satisfies at ``t`` / ``t + 1``.
    window_start:
        None for strict integer-window designs (criteria met exactly at
        ``t`` and ``t + 1``).  For fractional-window designs, the real
        access count ``s`` with ``R(s) >= r_min`` and ``R(s + 1) <=
        p_fail``; then ``t = floor(s)`` and the copy is almost surely dead
        by access ``t + 2`` (window widened by at most one access).
    """

    device: WeibullDistribution
    n: int
    k: int
    t: int
    copies: int
    access_bound: int
    criteria: DegradationCriteria
    window_start: float | None = None

    @property
    def total_devices(self) -> int:
        """Total NEMS switches in the architecture (the paper's cost axis)."""
        return self.n * self.copies

    @property
    def guaranteed_accesses(self) -> int:
        """Accesses served with per-copy reliability >= r_min."""
        return self.t * self.copies

    def structure_reliability(self, x) -> float:
        """Reliability of one copy at access ``x``."""
        from repro.core.structures import k_of_n_reliability

        return k_of_n_reliability(self.device.reliability(x), self.n, self.k)

    def expected_access_bound(self, horizon_factor: float = 4.0) -> float:
        """Expected total accesses before the whole architecture dies.

        Sum of per-copy expected lifetimes: ``copies * sum_x R_struct(x)``.
        This is the paper's "empirical access upper bound" (e.g. 91,326 at
        p = 1% rising to 92,028 at p = 10% for the smartphone design).
        """
        horizon = max(self.t + 10, int(math.ceil(self.t * horizon_factor)))
        xs = np.arange(1, horizon + 1)
        per_copy = float(np.sum(self.structure_reliability(xs)))
        return self.copies * per_copy

    def coverage_probability(self, target: int | None = None,
                             horizon_factor: float = 4.0) -> float:
        """P[the architecture serves at least ``target`` total accesses].

        The paper sizes ``copies = ceil(bound / t)`` with a per-copy floor
        (r_min at access t) but never aggregates: the total served is a
        sum of per-copy lifetimes, so the system-level guarantee is
        statistical.  This evaluates it with a normal approximation of
        that sum (exact enough for tens of copies); deployments wanting a
        harder floor should add copies until this reaches their target
        confidence.
        """
        target = self.access_bound if target is None else int(target)
        horizon = max(self.t + 10, int(math.ceil(self.t * horizon_factor)))
        xs = np.arange(1, horizon + 1)
        rel = np.asarray(self.structure_reliability(xs), dtype=float)
        mean = float(rel.sum())
        second_moment = float(((2 * xs - 1) * rel).sum())
        var = max(second_moment - mean ** 2, 1e-12)
        total_mean = self.copies * mean
        total_std = math.sqrt(self.copies * var)
        z = (total_mean - target + 0.5) / total_std
        return float(0.5 * (1.0 + math.erf(z / math.sqrt(2.0))))


def max_reliable_accesses(device: WeibullDistribution, n: int, k: int,
                          criteria: DegradationCriteria = DEFAULT_CRITERIA,
                          ) -> int | None:
    """Largest integer ``t`` meeting both criteria for a fixed k-of-n bank.

    Returns None when no ``t >= 1`` satisfies them.  Because structure
    reliability decreases with access count, only the largest ``t`` with
    ``R(t) >= r_min`` can work: smaller ``t`` only makes the ``t + 1``
    ceiling harder to meet.
    """
    from repro.core.structures import k_of_n_reliability

    def rel(x: int) -> float:
        return float(k_of_n_reliability(device.reliability(float(x)), n, k))

    if rel(1) < criteria.r_min:
        return None
    # Exponential bracket then binary search for the last t with R >= r_min.
    lo, hi = 1, 2
    while rel(hi) >= criteria.r_min:
        lo, hi = hi, hi * 2
        if hi > 10 ** 12:  # pragma: no cover - defensive
            raise InfeasibleDesignError(
                "reliability never drops below r_min within 1e12 accesses",
                alpha=device.alpha, beta=device.beta)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if rel(mid) >= criteria.r_min:
            lo = mid
        else:
            hi = mid
    t = lo
    if rel(t + 1) <= criteria.p_fail:
        return t
    return None


def _candidate_access_counts(device: WeibullDistribution) -> range:
    """Integer access counts worth testing as the per-copy lifetime ``t``.

    Beyond ``alpha * (-ln eps)**(1/beta)`` the per-device reliability is
    numerically zero, so no structure can stay reliable there.
    """
    t_max = int(math.ceil(device.alpha * (-math.log(1e-18)) ** (1.0 / device.beta)))
    return range(1, max(t_max, 2) + 1)


def solve_unencoded(device: WeibullDistribution, access_bound: int,
                    criteria: DegradationCriteria = DEFAULT_CRITERIA,
                    ) -> DesignPoint:
    """Cheapest 1-out-of-n design (no redundant encoding, Fig. 4a).

    For each candidate ``t`` the two criteria invert in closed form:

        n >= ln(1 - r_min) / ln(1 - r_t)        (floor at t)
        n <= ln(1 - p_fail) / ln(1 - r_{t+1})   (ceiling at t + 1)

    and the total cost is ``n * ceil(access_bound / t)``.
    """
    if access_bound < 1:
        raise ConfigurationError("access_bound must be >= 1")
    log_target_lo = math.log1p(-criteria.r_min)   # ln(1 - r_min) < 0
    log_target_hi = math.log1p(-criteria.p_fail)  # ln(1 - p_fail) < 0

    best: tuple[int, int, int] | None = None  # (total, n, t)
    for t in _candidate_access_counts(device):
        log_q_t = _log_one_minus_reliability(device, t)
        log_q_t1 = _log_one_minus_reliability(device, t + 1)
        if log_q_t == 0.0:  # r_t == 0: device already dead at t
            break
        n_lo = math.ceil(log_target_lo / log_q_t)
        n_hi = math.floor(log_target_hi / log_q_t1) if log_q_t1 < 0 else 0
        if n_hi < 1 or n_lo > n_hi:
            continue
        n = max(n_lo, 1)
        total = n * math.ceil(access_bound / t)
        if best is None or total < best[0]:
            best = (total, n, t)
    if best is None:
        raise InfeasibleDesignError(
            f"no unencoded design meets criteria {criteria} for "
            f"alpha={device.alpha}, beta={device.beta}",
            alpha=device.alpha, beta=device.beta)
    _, n, t = best
    return DesignPoint(device=device, n=n, k=1, t=t,
                       copies=math.ceil(access_bound / t),
                       access_bound=access_bound, criteria=criteria)


def _log_one_minus_reliability(device: WeibullDistribution, t: float) -> float:
    """ln(1 - R(t)) computed without cancellation."""
    log_r = device.log_reliability(t)
    # 1 - exp(log_r); for log_r near 0 use log(-expm1(log_r)).
    q = -math.expm1(log_r)
    if q <= 0.0:
        return -math.inf  # reliability exactly 1 at t = 0
    if q >= 1.0:
        return 0.0
    return math.log(q)


def solve_encoded(device: WeibullDistribution, access_bound: int,
                  k_fraction: float,
                  criteria: DegradationCriteria = DEFAULT_CRITERIA,
                  max_bank_size: int = 200_000) -> DesignPoint:
    """Cheapest k-of-n design with ``k = ceil(k_fraction * n)`` (Fig. 4b).

    For each candidate ``t``, vectorized binomial tails find the smallest
    bank size ``n`` satisfying both criteria; the total-device minimum over
    ``t`` wins.
    """
    if access_bound < 1:
        raise ConfigurationError("access_bound must be >= 1")
    if not 0.0 < k_fraction <= 1.0:
        raise ConfigurationError("k_fraction must lie in (0, 1]")

    best: tuple[int, int, int, int] | None = None  # (total, n, k, t)
    for t in _candidate_access_counts(device):
        r_t = device.reliability(float(t))
        r_t1 = device.reliability(float(t + 1))
        # A k-of-n bank with k/n ~ k_fraction concentrates (by the LLN)
        # around success iff r > k_fraction, so feasibility needs the
        # per-device reliability to straddle the fraction across t -> t+1.
        if not (r_t > k_fraction > r_t1):
            continue
        n = _min_bank_size(r_t, r_t1, k_fraction, criteria, max_bank_size)
        if n is None:
            continue
        k = max(1, math.ceil(k_fraction * n))
        total = n * math.ceil(access_bound / t)
        if best is None or total < best[0]:
            best = (total, n, k, t)
    if best is None:
        raise InfeasibleDesignError(
            f"no encoded design (k_fraction={k_fraction}) meets criteria "
            f"{criteria} for alpha={device.alpha}, beta={device.beta} "
            f"within bank size {max_bank_size}",
            alpha=device.alpha, beta=device.beta)
    _, n, k, t = best
    return DesignPoint(device=device, n=n, k=k, t=t,
                       copies=math.ceil(access_bound / t),
                       access_bound=access_bound, criteria=criteria)


def _min_bank_size(r_t: float, r_t1: float, k_fraction: float,
                   criteria: DegradationCriteria,
                   max_bank_size: int) -> int | None:
    """Smallest n with P[Bin(n, r_t) >= k] >= r_min and
    P[Bin(n, r_t1) >= k] <= p_fail, where k = ceil(k_fraction * n)."""
    from scipy import stats

    # Evaluate in geometric chunks so cheap designs stay cheap to find.
    start = 1
    while start <= max_bank_size:
        stop = min(max_bank_size, max(start * 4, start + 64))
        ns = np.arange(start, stop + 1)
        ks = np.maximum(1, np.ceil(k_fraction * ns)).astype(int)
        ok_lo = stats.binom.sf(ks - 1, ns, r_t) >= criteria.r_min
        ok_hi = stats.binom.sf(ks - 1, ns, r_t1) <= criteria.p_fail
        feasible = np.flatnonzero(ok_lo & ok_hi)
        if feasible.size:
            return int(ns[feasible[0]])
        start = stop + 1
    return None


def solve_structure(device: WeibullDistribution, access_bound: int,
                    k_fraction: float | None = None,
                    criteria: DegradationCriteria = DEFAULT_CRITERIA,
                    window: str = "integer") -> DesignPoint:
    """Dispatch on encoding (``k_fraction`` None = unencoded) and window mode.

    ``window`` selects the constraint style: ``"integer"`` enforces the
    criteria exactly at accesses ``t`` and ``t + 1``; ``"fractional"``
    allows the window to start at a real access count (see the fractional
    solvers for semantics), which removes the resonances the integer grid
    creates at unlucky (alpha, k_fraction) combinations.
    """
    if window not in ("integer", "fractional"):
        raise ConfigurationError(f"unknown window mode {window!r}")
    if window == "integer":
        if k_fraction is None:
            return solve_unencoded(device, access_bound, criteria)
        return solve_encoded(device, access_bound, k_fraction, criteria)
    if k_fraction is None:
        return solve_unencoded_fractional(device, access_bound, criteria)
    return solve_encoded_fractional(device, access_bound, k_fraction, criteria)


# ----------------------------------------------------------------------
# Fractional-window solvers
# ----------------------------------------------------------------------
#
# The strict solvers require the degradation window to align with the
# integer access grid: R(t) >= r_min and R(t+1) <= p_fail for an integer t.
# At resonant parameters - when the per-device reliability crosses the
# redundancy fraction just past an integer - no affordable bank satisfies
# both, and the required device count spikes by orders of magnitude.  The
# paper's smooth "linear scaling" curves show no such spikes, so for design
# space *sweeps* we also provide a relaxed formulation: find a real-valued
# window start ``s`` with R(s) >= r_min and R(s + 1) <= p_fail.  Each copy
# then reliably serves t = floor(s) accesses and is almost surely dead by
# access t + 2: the guaranteed window widens by at most one access in
# exchange for feasibility at every (alpha, beta, k_fraction).

def _largest_reliable_time(rel, r_min: float) -> float:
    """Largest real ``s`` with ``rel(s) >= r_min`` for decreasing ``rel``."""
    lo, hi = 0.0, 1.0
    while rel(hi) >= r_min:
        lo, hi = hi, hi * 2.0
        if hi > 1e15:  # pragma: no cover - defensive
            raise InfeasibleDesignError("reliability never drops below r_min")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if rel(mid) >= r_min:
            lo = mid
        else:
            hi = mid
    return lo


def _fractional_window(rel, criteria: DegradationCriteria,
                       ceiling_at=None) -> float | None:
    """Window start ``s`` if the relaxed criteria are satisfiable, else None.

    ``ceiling_at(s)`` maps the window start to the access count where the
    failure ceiling applies; the default ``s + 1`` is the paper's strict
    one-extra-access window.  Relaxed system-level upper bounds (Fig. 4d)
    pass a wider mapping.
    """
    if ceiling_at is None:
        def ceiling_at(s: float) -> float:
            return s + 1.0
    if rel(1e-9) < criteria.r_min:
        return None
    s = _largest_reliable_time(rel, criteria.r_min)
    if s < 1.0:
        return None  # cannot even guarantee one access
    if rel(ceiling_at(s)) <= criteria.p_fail:
        return s
    return None


def _best_fractional_design(device: WeibullDistribution, access_bound: int,
                            criteria: DegradationCriteria,
                            rel_for_n, k_for_n, n_cap: float,
                            ceiling_at=None) -> DesignPoint | None:
    """Shared search: minimal feasible n by bisection, then a local scan.

    ``rel_for_n(n)`` returns the structure reliability function for a bank
    of size n; ``k_for_n(n)`` its recovery threshold.  Feasibility is
    monotone in n to numerical accuracy (bigger banks only widen the
    window), so doubling + bisection finds the frontier; a geometric scan
    above it catches cases where a slightly larger bank earns enough extra
    accesses per copy to reduce the total.
    """
    def window(n: int) -> float | None:
        return _fractional_window(rel_for_n(n), criteria, ceiling_at)

    # Find any feasible n by doubling.
    n = 1
    while n <= n_cap and window(n) is None:
        n *= 2
    if n > n_cap:
        return None
    # Bisect down to the smallest feasible n.
    lo, hi = n // 2, n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid == 0 or window(mid) is None:
            lo = mid
        else:
            hi = mid
    n_min = hi

    best: tuple[int, int, float] | None = None  # (total, n, s)
    scan = {n_min}
    scan.update(int(round(n_min * f)) for f in (1.1, 1.25, 1.5, 2.0, 3.0, 4.0))
    for n in sorted(x for x in scan if x <= n_cap):
        s = window(n)
        if s is None:
            continue
        t = int(math.floor(s))
        total = n * math.ceil(access_bound / t)
        if best is None or total < best[0]:
            best = (total, n, s)
    if best is None:
        return None
    _, n, s = best
    t = int(math.floor(s))
    return DesignPoint(device=device, n=n, k=k_for_n(n), t=t,
                       copies=math.ceil(access_bound / t),
                       access_bound=access_bound, criteria=criteria,
                       window_start=s)


def solve_unencoded_fractional(device: WeibullDistribution, access_bound: int,
                               criteria: DegradationCriteria = DEFAULT_CRITERIA,
                               max_bank_size: float = 1e13) -> DesignPoint:
    """Fractional-window 1-out-of-n design (smooth variant of Fig. 4a)."""
    if access_bound < 1:
        raise ConfigurationError("access_bound must be >= 1")
    from repro.core.structures import parallel_reliability

    def rel_for_n(n: int):
        return lambda x: float(parallel_reliability(
            device.reliability(float(x)), n))

    point = _best_fractional_design(device, access_bound, criteria,
                                    rel_for_n, lambda n: 1, max_bank_size)
    if point is None:
        raise InfeasibleDesignError(
            f"no fractional unencoded design for alpha={device.alpha}, "
            f"beta={device.beta} within bank size {max_bank_size:g}",
            alpha=device.alpha, beta=device.beta)
    return point


def solve_encoded_fractional(device: WeibullDistribution, access_bound: int,
                             k_fraction: float,
                             criteria: DegradationCriteria = DEFAULT_CRITERIA,
                             max_bank_size: int = 500_000) -> DesignPoint:
    """Fractional-window k-of-n design (smooth variant of Fig. 4b)."""
    if access_bound < 1:
        raise ConfigurationError("access_bound must be >= 1")
    if not 0.0 < k_fraction <= 1.0:
        raise ConfigurationError("k_fraction must lie in (0, 1]")
    from repro.core.structures import k_of_n_reliability

    def k_for_n(n: int) -> int:
        return max(1, math.ceil(k_fraction * n))

    def rel_for_n(n: int):
        k = k_for_n(n)
        return lambda x: float(k_of_n_reliability(
            device.reliability(float(x)), n, k))

    point = _best_fractional_design(device, access_bound, criteria,
                                    rel_for_n, k_for_n, max_bank_size)
    if point is None:
        raise InfeasibleDesignError(
            f"no fractional encoded design (k_fraction={k_fraction}) for "
            f"alpha={device.alpha}, beta={device.beta} within bank size "
            f"{max_bank_size}",
            alpha=device.alpha, beta=device.beta)
    return point


def solve_with_upper_bound(device: WeibullDistribution, access_bound: int,
                           upper_bound: int, k_fraction: float,
                           criteria: DegradationCriteria = DEFAULT_CRITERIA,
                           max_bank_size: int = 500_000) -> DesignPoint:
    """Encoded design whose *system-level* ceiling is ``upper_bound``.

    Section 4.3.3 / Fig. 4d: when the passcode policy guarantees more than
    ``access_bound`` guesses are needed (e.g. 100,000 once the top 1% of
    passwords are rejected), the architecture only has to be dead by
    ``upper_bound`` total accesses, not by ``access_bound + 1``.  With
    ``N ~ access_bound / s`` copies, the per-copy failure ceiling moves
    from ``s + 1`` out to ``s * upper_bound / access_bound``; the wider
    window needs far fewer devices per bank.
    """
    if upper_bound <= access_bound:
        raise ConfigurationError(
            "upper_bound must exceed access_bound; use solve_encoded for "
            "the tight window")
    if not 0.0 < k_fraction <= 1.0:
        raise ConfigurationError("k_fraction must lie in (0, 1]")
    from repro.core.structures import k_of_n_reliability

    ratio = upper_bound / access_bound

    def ceiling_at(s: float) -> float:
        # Copies serve floor(s) guaranteed accesses, so the system ceiling
        # UB translates to a per-copy ceiling of floor(s) * UB / LAB.
        return max(s + 1.0, math.floor(s) * ratio)

    def k_for_n(n: int) -> int:
        return max(1, math.ceil(k_fraction * n))

    def rel_for_n(n: int):
        k = k_for_n(n)
        return lambda x: float(k_of_n_reliability(
            device.reliability(float(x)), n, k))

    point = _best_fractional_design(device, access_bound, criteria,
                                    rel_for_n, k_for_n, max_bank_size,
                                    ceiling_at)
    if point is None:
        raise InfeasibleDesignError(
            f"no relaxed-upper-bound design for alpha={device.alpha}, "
            f"beta={device.beta}, upper_bound={upper_bound}",
            alpha=device.alpha, beta=device.beta)
    return point
