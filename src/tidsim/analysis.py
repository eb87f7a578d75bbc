"""Closed-form security and cost evaluators, with Monte Carlo cross-checks.

Availability: with onion depth l and per-courier availability a, a share
survives a reveal round only if all l of its layer holders show up, so the
per-share loss probability is p = 1 - a**l and the service succeeds when at
most n - t shares are lost:

    A_s = 1 - sum_{i=n-t+1..n} C(n,i) p**i (1-p)**(n-i)

Attack economics: buying one share via bribery costs l bribes, each just
above the deposit d a seller forfeits, so t shares cost t*l*d. A sybil
registrant controlling fraction p of the pool captures a share with
probability p**l; the expected deposit outlay to cover t captures,

    (v d t / n) * p**(1-l) / (1 - p),

is minimized at p* = (l-1)/l. The quoted minimum (l-1) v d is the raw
deposit x*d at that optimum: substituting x = (l-1) v sets the expected
captures n p***l to exactly cover t, which cancels the t/n factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, inf
from typing import TYPE_CHECKING, Optional

from .ledger import (
    FN_DEPLOY_SUPPLEMENTARY,
    FN_DEPLOY_SWITCH,
    FN_NEW_SERVICE,
    FN_RECIPIENT_RECEIPT,
    FN_REVEAL_IDENTITY,
    FN_REVEAL_PRIVKEY,
    FN_STRAWMAN_NEW_SERVICE,
    FN_STRAWMAN_REVEAL_RECEIPT,
    FN_STRAWMAN_REVEAL_SHARE,
    GasSchedule,
    SERVICE_FUNCTIONS,
    fmt_usd,
)

if TYPE_CHECKING:  # numpy is imported where used, so importing tidsim does not load it
    import numpy as np

MODE_LIGHTWEIGHT = "lightweight"
MODE_HEAVYWEIGHT = "heavyweight"
MODE_STRAWMAN = "strawman"


class AnalysisError(ValueError):
    pass


def _check_depth(l: int):
    if l < 1:
        raise AnalysisError("onion depth must be at least 1")


def _check_group(l: int, t: int, n: int):
    _check_depth(l)
    if not 1 <= t <= n:
        raise AnalysisError(f"invalid threshold t={t} for n={n}")


def _check_availability(a_t: float):
    if not 0.0 <= a_t <= 1.0:  # false for NaN too
        raise AnalysisError("availability must lie in [0, 1]")


def _check_deposit(d: float):
    if not 0 < d < inf:  # false for NaN too
        raise AnalysisError(f"deposit must be a finite positive number, got {d}")


def _share_survival(l: int, a_t: float) -> tuple[int, int]:
    """(A, D) with A / D == a_t**l exactly, the probability that all l
    layers of a share are revealed: a float is m / d for integers m and d."""
    _check_availability(a_t)
    m, d = Fraction(a_t).as_integer_ratio()
    return m**l, d**l


def share_loss_probability(l: int, a_t: float) -> float:
    _check_depth(l)
    survive, whole = _share_survival(l, a_t)
    return (whole - survive) / whole  # int true division is correctly rounded


def availability(l: int, t: int, n: int, a_t: float) -> float:
    """Probability that at least t shares survive one reveal round.

    The formula assumes one independent coin per layer reveal. The
    simulator draws one coin per courier per round, and each courier holds
    a layer of l shares over cyclic windows, so share losses are
    correlated: at t=4, n=10, a=0.95 the simulated layout gives 0.99116 at
    l=3 (formula 0.99990) and 0.94791 at l=4 (formula 0.99947).

    It is evaluated exactly over the common denominator D**n of the terms
    and rounded once, so it equals the float of the exact rational value.
    """
    _check_group(l, t, n)
    survive, whole = _share_survival(l, a_t)
    lost = whole - survive
    tail = sum(comb(n, i) * lost**i * survive ** (n - i) for i in range(n - t + 1, n + 1))
    denominator = whole**n
    return (denominator - tail) / denominator


def availability_mc(l: int, t: int, n: int, a_t: float, trials: int, seed: int = 0) -> float:
    """Empirical check of the availability formula under its own loss model:
    every layer reveal is an independent coin, not the simulator's one coin
    per courier (see `availability`).

    A trial succeeds when its t-th smallest per-share worst draw lies below
    a_t. That per-trial array depends on (l, t, n, trials, seed) only, so the
    last one is cached, which keeps one array of `trials` floats alive and
    lets the points of an a_t sweep share one draw. The n*l draws of each
    trial are made a chunk of trials at a time into one reused buffer, so
    beyond that array a call holds one chunk, whatever `trials` is.
    """
    _check_group(l, t, n)
    _check_availability(a_t)
    if trials < 1:
        raise AnalysisError("need a positive trial count")
    return float((_tth_worst_draw(l, t, n, trials, seed) < a_t).mean())


# The most elements (trials times row width) one chunk of Monte Carlo
# trials may put in one array: 256 KiB of float64 or int64. 1 << 13 ran
# about 15% slower, and 1 << 16 or more no faster with more memory resident.
# Each kernel holds one chunk's arrays at a time, freeing or reusing them
# before it draws the next, and consumes its generator in the same order
# whatever the chunk size, so its output does not depend on it.
_CHUNK_ELEMENTS = 1 << 15


def _chunks(trials: int, per_trial: int):
    """Yield (start, size) pairs covering range(trials) in order, each with
    size * per_trial within _CHUNK_ELEMENTS and at least one trial."""
    step = max(1, _CHUNK_ELEMENTS // per_trial)
    for start in range(0, trials, step):
        yield start, min(step, trials - start)


@lru_cache(maxsize=1)
def _tth_worst_draw(l: int, t: int, n: int, trials: int, seed: int) -> np.ndarray:
    """Per trial, the t-th smallest over the n shares of the share's largest
    layer draw: at least t shares have every draw below a_t exactly when it
    lies below a_t. Read-only, since every caller shares it.

    Trials are drawn a chunk at a time from one generator into one buffer,
    the only chunk alive; `random()` fills row-major, so the result does not
    depend on where the chunks split."""
    import numpy as np

    rng = np.random.default_rng(seed)
    kth = np.empty(trials)
    # the first chunk is the largest
    buf = np.empty((next(_chunks(trials, n * l))[1], n, l))
    for start, size in _chunks(trials, n * l):
        draws = rng.random(out=buf[:size])
        # l in-place maxima beat a reduction over the short last axis
        worst = draws[..., 0]
        for j in range(1, l):
            np.maximum(worst, draws[..., j], out=worst)
        kth[start : start + size] = np.partition(worst, t - 1, axis=1)[:, t - 1]
    kth.setflags(write=False)
    return kth


def bribery_cost(t: int, l: int, d: float) -> float:
    """Deposit-denominated cost of buying t shares, l keys each."""
    if t < 1 or l < 1:
        raise AnalysisError("bribery cost needs positive parameters")
    _check_deposit(d)
    return t * l * d


def sybil_expected_deposit(l: int, v: int, d: float, t: int, n: int, p_m: float) -> float:
    """Expected deposit to capture t shares with a malicious fraction p_m."""
    if not 0 < p_m < 1:
        raise AnalysisError("malicious fraction must lie strictly inside (0, 1)")
    if l < 1 or v < 1:
        raise AnalysisError("invalid sybil parameters")
    _check_deposit(d)
    _check_group(l, t, n)
    return (v * d * t / n) * p_m ** (1 - l) / (1 - p_m)


def optimal_sybil_fraction(l: int) -> Fraction:
    """The malicious fraction minimizing the expected deposit: (l-1)/l."""
    if l < 2:
        # with a single layer the objective decreases toward p -> 0: no
        # interior optimum exists
        raise AnalysisError("optimal fraction is degenerate for l=1")
    return Fraction(l - 1, l)


def sybil_min_deposit(l: int, v: int, d: float) -> float:
    """Deposit outlay x*d at the optimal fraction: x = (l-1) v accounts."""
    if l < 2 or v < 1:
        raise AnalysisError("invalid sybil parameters")
    _check_deposit(d)
    return (l - 1) * v * d


@dataclass
class CostBreakdown:
    """Per-function and total cost of a run or of an analytic mode.

    `usd_quoted` columns use the published per-function USD prices, which is
    what the headline figures (2.21 lightweight, 9.31 + 0.48n heavyweight)
    are quoted in; `usd_exact` is the exact gas*rate product.
    """

    mode: str
    n: Optional[int]
    rows: dict  # fn -> {calls, units, gas, usd_exact, usd_quoted}
    total_gas: int
    total_usd_exact: Fraction
    service_gas: int
    service_usd_quoted: Fraction
    fixed_usd_quoted: Optional[Fraction] = None
    per_mailman_usd_quoted: Optional[Fraction] = None

    def table(self) -> list[dict]:
        out = []
        for fn in sorted(self.rows):
            row = self.rows[fn]
            out.append(
                {
                    "function": fn,
                    "calls": row["calls"],
                    "units": row["units"],
                    "gas": row["gas"],
                    "usd_exact": str(row["usd_exact"]),
                    "usd_quoted": fmt_usd(row["usd_quoted"]),
                }
            )
        return out


def cost_report(
    trace=None,
    mode: Optional[str] = None,
    n: Optional[int] = None,
    schedule: Optional[GasSchedule] = None,
) -> CostBreakdown:
    """Cost breakdown of a recorded trace, or the analytic cost of a mode.

    Pass either a ScenarioTrace (or its receipt record list) or a
    (mode, n) pair with mode in {lightweight, heavyweight, strawman}.
    Without a schedule the published one prices the calls.
    """
    schedule = schedule or _PUBLISHED
    if (trace is None) == (mode is None):
        raise AnalysisError("pass exactly one of trace / mode")
    if trace is not None:
        return _cost_from_trace(trace, schedule)
    if mode not in (MODE_LIGHTWEIGHT, MODE_HEAVYWEIGHT, MODE_STRAWMAN):
        raise AnalysisError(f"unknown mode {mode!r}")
    if n is None or n < 1:
        raise AnalysisError("analytic cost needs the group size n")
    return _cost_from_mode(mode, n, schedule)


# The published schedule every report without a schedule of its own reads;
# no caller may edit its tables.
_PUBLISHED = GasSchedule.default()


def _breakdown(
    mode: str, n: Optional[int], entries, schedule: GasSchedule, fixed=None, per_mailman=()
) -> CostBreakdown:
    """Fold (fn, units, gas, calls) entries into per-function rows and their
    totals; `calls` identical calls cost exactly `calls` times one.

    Gas is summed in integers, and quoted prices as integer numerators over
    one denominator, so each USD figure becomes a Fraction once: a row's
    exact price from its gas (the exact price is linear in gas), its quoted
    price from its numerator. An analytic report names its `fixed` functions
    and the functions called once `per_mailman`, whose quoted sums it also
    carries."""
    den = schedule.quoted_denominator()
    rows = {}
    quoted = {}  # fn -> the row's quoted USD times den
    for fn, units, gas, calls in entries:
        row = rows.get(fn)
        if row is None:
            # both USD figures are priced after the fold; the keys keep their place in the row
            row = rows[fn] = {"calls": 0, "units": 0, "gas": 0, "usd_exact": None, "usd_quoted": None}
            quoted[fn] = 0
        row["calls"] += calls
        row["units"] += units * calls
        row["gas"] += gas * calls
        quoted[fn] += schedule.quoted_numerator(den, fn, units) * calls
    for fn, row in rows.items():
        row["usd_exact"] = schedule.usd_exact(row["gas"])
        row["usd_quoted"] = Fraction(quoted[fn], den)
    service = [fn for fn in rows if fn in SERVICE_FUNCTIONS]
    total_gas = sum(row["gas"] for row in rows.values())
    report = CostBreakdown(
        mode=mode,
        n=n,
        rows=rows,
        total_gas=total_gas,
        total_usd_exact=schedule.usd_exact(total_gas),
        service_gas=sum(rows[fn]["gas"] for fn in service),
        service_usd_quoted=Fraction(sum(quoted[fn] for fn in service), den),
    )
    if fixed is not None:
        report.fixed_usd_quoted = Fraction(sum(quoted[fn] for fn in fixed), den)
        report.per_mailman_usd_quoted = Fraction(
            sum(schedule.quoted_numerator(den, fn) for fn in per_mailman), den
        )
    return report


def _cost_from_trace(trace, schedule: GasSchedule) -> CostBreakdown:
    receipts = trace.receipts if hasattr(trace, "receipts") else trace
    for receipt in receipts:
        if receipt["function"] not in schedule.gas:
            raise AnalysisError(f"unknown function in trace: {receipt['function']}")
    entries = ((r["function"], r.get("units", 1), r["gas_used"], 1) for r in receipts)
    return _breakdown(getattr(trace, "mode", "trace"), None, entries, schedule)


def _cost_from_mode(mode: str, n: int, schedule: GasSchedule) -> CostBreakdown:
    """The analytic cost of one delivery: its fixed calls, then the calls
    that grow with n, as (fn, units, calls)."""
    if mode == MODE_STRAWMAN:
        fixed = None
        per_n = [(FN_STRAWMAN_NEW_SERVICE, n, 1), (FN_STRAWMAN_REVEAL_SHARE, 1, n), (FN_STRAWMAN_REVEAL_RECEIPT, 1, 1)]
    elif mode == MODE_LIGHTWEIGHT:
        fixed = [FN_DEPLOY_SWITCH, FN_NEW_SERVICE, FN_RECIPIENT_RECEIPT]
        per_n = []
    else:
        fixed = [FN_DEPLOY_SWITCH, FN_NEW_SERVICE, FN_DEPLOY_SUPPLEMENTARY, FN_RECIPIENT_RECEIPT]
        per_n = [(FN_REVEAL_IDENTITY, n, 1), (FN_REVEAL_PRIVKEY, 1, n)]
    calls = [(fn, 1, 1) for fn in fixed or ()] + per_n
    entries = ((fn, u, schedule.gas_for(fn, u), c) for fn, u, c in calls)
    return _breakdown(mode, n, entries, schedule, fixed, [fn for fn, _, _ in per_n])
