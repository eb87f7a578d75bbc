"""Analysis module tests.

The sybil optimum is cross-checked with an independent grid + golden-section
minimizer written here; availability is cross-checked by Monte Carlo.
"""

import json
import math
import re
import tracemalloc
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tidsim import analysis
from tidsim.adversary import blind_bribery_trials, sybil_capture_trials
from tidsim.analysis import (
    AnalysisError,
    _tth_worst_draw,
    availability,
    availability_mc,
    bribery_cost,
    cost_report,
    optimal_sybil_fraction,
    share_loss_probability,
    sybil_expected_deposit,
    sybil_min_deposit,
)
from tidsim.ledger import (
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
    fmt_usd,
    round_usd_cents,
)
from tidsim.scenario import ScenarioConfig, run_scenario


def golden_section_min(f, lo, hi, tol=1e-12):
    """Independent unimodal minimizer (oracle for the closed forms)."""
    inv_phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    while abs(b - a) > tol:
        if f(c) < f(d):
            b = d
        else:
            a = c
        c = b - inv_phi * (b - a)
        d = a + inv_phi * (b - a)
    x = (a + b) / 2
    return x, f(x)


def availability_mc_reference(l, t, n, a_t, trials, seed=0):
    """The reduction availability_mc replaced: .all() over the layer axis."""
    rng = np.random.default_rng(seed)
    surviving = np.zeros(trials, dtype=np.int64)
    chunk = 200_000
    done = 0
    while done < trials:
        size = min(chunk, trials - done)
        draws = rng.random((size, n, l)) < a_t
        surviving[done : done + size] = draws.all(axis=2).sum(axis=1)
        done += size
    return float((surviving >= t).mean())


def mode_calls(mode, n):
    """(function, units) of every call an analytic report counts, fixed
    calls first."""
    if mode == "lightweight":
        return [(FN_DEPLOY_SWITCH, 1), (FN_NEW_SERVICE, 1), (FN_RECIPIENT_RECEIPT, 1)], []
    if mode == "heavyweight":
        fixed = [(FN_DEPLOY_SWITCH, 1), (FN_NEW_SERVICE, 1), (FN_DEPLOY_SUPPLEMENTARY, 1), (FN_RECIPIENT_RECEIPT, 1)]
        return fixed, [(FN_REVEAL_IDENTITY, n)] + [(FN_REVEAL_PRIVKEY, 1)] * n
    per_n = [(FN_STRAWMAN_NEW_SERVICE, n)] + [(FN_STRAWMAN_REVEAL_SHARE, 1)] * n
    return [], per_n + [(FN_STRAWMAN_REVEAL_RECEIPT, 1)]


def availability_reference(l, t, n, a_t):
    """The exact Fraction formula availability replaced."""
    p = 1 - Fraction(a_t) ** l
    tail = sum(math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(n - t + 1, n + 1))
    return float(1 - tail)


# the key order of a CostBreakdown row, as library callers see it
ROW_KEYS = ["calls", "units", "gas", "usd_exact", "usd_quoted"]


def cost_rows_reference(calls, schedule):
    """Fold (function, units, gas) calls into rows one at a time, pricing
    each call, as the reports once did."""
    rows = {}
    for fn, units, gas in calls:
        row = rows.setdefault(
            fn, {"calls": 0, "units": 0, "gas": 0, "usd_exact": Fraction(0), "usd_quoted": Fraction(0)}
        )
        row["calls"] += 1
        row["units"] += units
        row["gas"] += gas
        row["usd_exact"] += schedule.usd_exact(gas)
        row["usd_quoted"] += schedule.usd_quoted(fn, units)
    return rows


class TestAvailability:
    def test_paper_operating_points(self):
        # l=3 gives four-nine availability, l=4 three-nine, at 95% couriers
        assert 0.99985 <= availability(3, 4, 10, 0.95) <= 0.99995
        assert 0.9985 <= availability(4, 4, 10, 0.95) <= 0.9995

    def test_perfect_couriers(self):
        for l, t, n in [(1, 1, 1), (3, 4, 10), (5, 5, 8)]:
            assert availability(l, t, n, 1.0) == 1.0

    def test_share_loss(self):
        assert share_loss_probability(1, 0.95) == pytest.approx(0.05)
        assert share_loss_probability(3, 0.95) == pytest.approx(1 - 0.95**3)

    def test_monte_carlo_matches_closed_form(self):
        for l, t, n, a in [(3, 4, 10, 0.95), (4, 4, 10, 0.95)]:
            closed = availability(l, t, n, a)
            trials = 100_000
            mc = availability_mc(l, t, n, a, trials, seed=7)
            sigma = math.sqrt(closed * (1 - closed) / trials)
            assert abs(mc - closed) <= 3 * sigma + 1e-12

    def test_mc_degenerate_cases(self):
        assert availability_mc(3, 4, 10, 0.0, 1000, seed=1) == 0.0
        assert availability_mc(3, 4, 10, 0.95, 5000, seed=2) == availability_mc(
            3, 4, 10, 0.95, 5000, seed=2
        )

    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    @pytest.mark.parametrize("a_t", [0.0, 0.5, 0.95, 1.0])
    def test_mc_matches_reduction(self, l, a_t):
        for t, n, trials, seed in [(1, 1, 500, 3), (4, 10, 3_000, 8), (7, 9, 2_000, 2**31)]:
            assert availability_mc(l, t, n, a_t, trials, seed=seed) == availability_mc_reference(
                l, t, n, a_t, trials, seed=seed
            )

    def test_mc_matches_reduction_across_chunks(self):
        assert availability_mc(2, 2, 3, 0.9, 200_003, seed=4) == availability_mc_reference(
            2, 2, 3, 0.9, 200_003, seed=4
        )

    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    @pytest.mark.parametrize("t", [1, 6])
    def test_mc_matches_reduction_across_keys(self, l, t):
        # several a_t in a row on one key, then another key, then the first
        # key again: every value matches however the draw is reused
        for seed in (11, 12, 11):
            for a_t in (0.2, 0.9, 0.5, 0.99):
                assert availability_mc(l, t, 6, a_t, 2_000, seed=seed) == availability_mc_reference(
                    l, t, 6, a_t, 2_000, seed=seed
                )

    def test_mc_draw_is_shared_read_only(self):
        first = _tth_worst_draw(3, 4, 10, 1_000, 5)
        assert _tth_worst_draw(3, 4, 10, 1_000, 5) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 0.0

    @pytest.mark.parametrize("a_t", [-0.1, 1.5, math.nan, math.inf])
    def test_mc_availability_domain(self, a_t):
        with pytest.raises(AnalysisError, match=r"availability must lie in \[0, 1\]"):
            availability_mc(3, 4, 10, a_t, 1_000)

    def test_monotonicity_grid(self):
        a_grid = [0.5, 0.7, 0.9, 0.95, 0.99]
        for t, n in [(2, 5), (4, 10)]:
            for l in (1, 2, 3, 4):
                values = [availability(l, t, n, a) for a in a_grid]
                assert values == sorted(values)
        for a in (0.8, 0.95):
            by_l = [availability(l, 4, 10, a) for l in (1, 2, 3, 4, 5)]
            assert by_l == sorted(by_l, reverse=True)
            by_t = [availability(3, t, 10, a) for t in (1, 2, 4, 6, 8)]
            assert by_t == sorted(by_t, reverse=True)
            by_n = [availability(3, 4, n, a) for n in (4, 6, 8, 10, 14)]
            assert by_n == sorted(by_n)

    @given(
        l=st.integers(1, 5),
        t=st.integers(1, 8),
        extra=st.integers(0, 6),
        a=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_probability_bounds(self, l, t, extra, a):
        n = t + extra
        value = availability(l, t, n, a)
        assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("a_t", [0.0, 1.0, 0.95, 1e-5, Random(20).random()])
    @pytest.mark.parametrize("l", range(1, 7))
    def test_matches_fraction_formula(self, l, a_t):
        assert share_loss_probability(l, a_t) == float(1 - Fraction(a_t) ** l)
        for n in range(1, 21):
            for t in range(1, n + 1):
                assert availability(l, t, n, a_t) == availability_reference(l, t, n, a_t), (t, n)

    def test_domain_errors(self):
        with pytest.raises(AnalysisError):
            availability(0, 4, 10, 0.95)
        for l in (0, -1):
            with pytest.raises(AnalysisError, match="onion depth must be at least 1"):
                share_loss_probability(l, 0.95)
        with pytest.raises(AnalysisError):
            availability(3, 11, 10, 0.95)
        with pytest.raises(AnalysisError):
            availability(3, 4, 10, 1.5)


class TestBriberyCost:
    def test_paper_value(self):
        assert bribery_cost(4, 3, 1.0) == 12.0

    def test_single_layer(self):
        assert bribery_cost(5, 1, 2.0) == 10.0

    def test_invalid(self):
        with pytest.raises(AnalysisError):
            bribery_cost(0, 3, 1.0)


class TestSybilFormulas:
    def test_optimal_fraction_exact(self):
        for l in range(2, 7):
            assert optimal_sybil_fraction(l) == Fraction(l - 1, l)

    def test_min_deposit(self):
        assert sybil_min_deposit(3, 100, 1.0) == 200.0
        assert sybil_min_deposit(5, 40, 2.0) == 320.0

    def test_degenerate_single_layer(self):
        with pytest.raises(AnalysisError):
            optimal_sybil_fraction(1)

    @pytest.mark.parametrize("l", [2, 3, 4, 5, 6])
    def test_numeric_minimization_matches_closed_forms(self, l):
        v, d, n = 100, 1.0, 12
        p_star = float(optimal_sybil_fraction(l))
        # coverage substitution: size t so expected captures at p* equal t,
        # which is the step that cancels t/n in the quoted minimum
        t_cover = n * p_star**l

        def objective(p):
            return sybil_expected_deposit(l, v, d, t_cover, n, p)

        argmin, minimum = golden_section_min(objective, 1e-6, 1 - 1e-6)
        assert abs(argmin - p_star) < 1e-6
        closed = sybil_min_deposit(l, v, d)
        assert abs(minimum - closed) / closed < 1e-9
        # grid scan confirms unimodality around the optimum
        grid = [objective(p / 1000) for p in range(1, 1000)]
        assert min(grid) >= minimum - 1e-9

    def test_expected_deposit_domain(self):
        with pytest.raises(AnalysisError):
            sybil_expected_deposit(3, 100, 1.0, 4, 10, 0.0)
        with pytest.raises(AnalysisError):
            sybil_expected_deposit(3, 100, 1.0, 4, 10, 1.0)


@pytest.mark.parametrize("d", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda d: bribery_cost(4, 3, d),
        lambda d: sybil_min_deposit(3, 100, d),
        lambda d: sybil_expected_deposit(3, 100, d, 4, 10, 0.5),
    ],
    ids=["bribery_cost", "sybil_min_deposit", "sybil_expected_deposit"],
)
def test_deposit_must_be_finite_and_positive(call, d):
    with pytest.raises(AnalysisError, match="deposit must be a finite positive number"):
        call(d)


@pytest.mark.parametrize(
    "kernel",
    [
        lambda trials, seed: sybil_capture_trials(3, 12, 36, 4, 10, trials, seed=seed),
        lambda trials, seed: blind_bribery_trials(3, 4, 10, 40, trials, seed=seed),
        lambda trials, seed: availability_mc(3, 4, 10, 0.9, trials, seed=seed),
    ],
    ids=["sybil_capture_trials", "blind_bribery_trials", "availability_mc"],
)
def test_monte_carlo_memory_flat_in_trials(kernel):
    # 40,000 trials are dozens of chunks of each kernel; drawn whole, they
    # would take 12-40 MiB of temporaries. Each kernel holds one chunk at a
    # time beside its 0.31 MiB result: peaks of 0.68, 1.13 and 0.64 MiB
    # measured; two 1 MiB chunks alive at once peak at 2.3-4.1 MiB. The
    # warm-up call keeps numpy's one-time allocations out of the measured peak.
    kernel(100, 0)
    tracemalloc.start()
    try:
        kernel(40_000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"


# Every kernel consumes its generator in the same order whatever the chunk
# size, so its output does not depend on it. 13,108 trials are 3-4 chunks
# of 1 << 17 elements and hundreds of 1 << 10, with a partial last chunk
# at each size and at the default. availability_mc's draw is called past
# its cache, which does not key on the chunk size.
@pytest.mark.parametrize(
    "kernel, per_trial",
    [
        (lambda trials: sybil_capture_trials(3, 12, 36, 4, 10, trials, seed=12), 48),
        (lambda trials: blind_bribery_trials(3, 4, 10, 40, trials, seed=13), 40),
        (lambda trials: _tth_worst_draw.__wrapped__(3, 4, 10, trials, 14), 30),
    ],
    ids=["sybil_capture_trials", "blind_bribery_trials", "availability_mc"],
)
def test_monte_carlo_output_independent_of_chunk_size(kernel, per_trial, monkeypatch):
    trials = 13_108
    outputs = []
    for elements in (analysis._CHUNK_ELEMENTS, 1 << 17, 1 << 10):
        step = elements // per_trial
        assert trials // step >= 3 and trials % step, elements
        monkeypatch.setattr(analysis, "_CHUNK_ELEMENTS", elements)
        outputs.append(kernel(trials))
    assert len({out.dtype for out in outputs}) == 1
    assert outputs[1].tolist() == outputs[0].tolist() == outputs[2].tolist()


class TestCostReport:
    def test_lightweight_analytic(self):
        report = cost_report(mode="lightweight", n=10)
        assert report.total_gas == 754_078
        assert report.service_usd_quoted == Fraction("2.21")
        assert report.fixed_usd_quoted == Fraction("2.21")
        assert report.per_mailman_usd_quoted == 0
        # exact-rate arithmetic lands a cent lower than the quoted list
        assert abs(float(report.total_usd_exact) - 2.2037) < 1e-3

    @pytest.mark.parametrize("n", [5, 10, 20])
    def test_heavyweight_analytic_formula(self, n):
        report = cost_report(mode="heavyweight", n=n)
        expected = Fraction("9.31") + Fraction("0.48") * n
        assert report.service_usd_quoted == expected
        assert report.fixed_usd_quoted == Fraction("9.31")
        assert report.per_mailman_usd_quoted == Fraction("0.48")

    @pytest.mark.parametrize("mode", ["lightweight", "heavyweight", "strawman"])
    def test_analytic_matches_per_call_fold(self, mode):
        schedule = GasSchedule.default()
        for n in range(1, 101):
            report = cost_report(mode=mode, n=n)
            fixed_calls, per_n_calls = mode_calls(mode, n)
            priced = [(fn, units, schedule.gas_for(fn, units)) for fn, units in fixed_calls + per_n_calls]
            rows = cost_rows_reference(priced, schedule)
            assert list(report.rows.items()) == list(rows.items())
            for row in report.rows.values():
                assert list(row) == ROW_KEYS
                assert row["usd_exact"] == schedule.usd_exact(row["gas"])
            assert report.total_gas == report.service_gas == sum(r["gas"] for r in rows.values())
            assert report.total_usd_exact == sum(r["usd_exact"] for r in rows.values())
            assert report.service_usd_quoted == sum(r["usd_quoted"] for r in rows.values())
            if mode == "strawman":
                assert report.fixed_usd_quoted is None
            else:
                fixed = cost_rows_reference(priced[: len(fixed_calls)], schedule)
                assert report.fixed_usd_quoted == sum(r["usd_quoted"] for r in fixed.values())

    @pytest.mark.parametrize(
        "cfg, status",
        [
            (ScenarioConfig(seed=21, pool_size=6, l=2, t=2, n=4), "delivered_light"),
            (
                ScenarioConfig(
                    seed=22, pool_size=5, l=2, t=2, n=3, fault_policies={i: "withhold_light" for i in range(5)}
                ),
                "delivered_heavy",
            ),
            (ScenarioConfig(seed=41, pool_size=8, l=1, t=2, n=4, mode="strawman"), "delivered_heavy"),
        ],
        ids=["lightweight", "heavyweight", "strawman"],
    )
    def test_trace_report_matches_per_receipt_fold(self, cfg, status):
        trace = run_scenario(cfg)
        assert trace.status == status
        schedule = GasSchedule.default()
        report = cost_report(trace=trace)
        calls = [(r["function"], r.get("units", 1), r["gas_used"]) for r in trace.receipts]
        rows = cost_rows_reference(calls, schedule)
        assert list(report.rows.items()) == list(rows.items())
        for row in report.rows.values():
            assert list(row) == ROW_KEYS
            assert row["usd_exact"] == schedule.usd_exact(row["gas"])
        assert report.total_gas == sum(r["gas"] for r in rows.values())
        assert report.total_usd_exact == sum(r["usd_exact"] for r in rows.values())

    def test_strawman_analytic_linear(self):
        gas = {n: cost_report(mode="strawman", n=n).total_gas for n in (5, 10, 20)}
        assert (gas[10] - gas[5]) * 2 == gas[20] - gas[10]
        assert gas[10] > gas[5]

    def test_heavyweight_traces_fit_exact_line(self):
        # gas(n) = a + b*n with b = per-identity + per-key-reveal gas
        gas = {}
        for n in (3, 5):
            cfg = ScenarioConfig(
                seed=22,
                pool_size=n + 2,
                l=2,
                t=2,
                n=n,
                fault_policies={i: "withhold_light" for i in range(n + 2)},
                withdraw_at_end=False,
            )
            trace = run_scenario(cfg)
            assert trace.status == "delivered_heavy"
            gas[n] = trace.service_gas
        assert gas[5] - gas[3] == 2 * (72_678 + 90_689)

    def test_trace_report_matches_gas_sink(self):
        cfg = ScenarioConfig(seed=21, pool_size=6, l=2, t=2, n=4)
        trace = run_scenario(cfg)
        report = cost_report(trace=trace)
        assert report.total_gas == trace.total_gas
        assert report.service_gas == trace.service_gas
        schedule = GasSchedule.default()
        sink_wei = trace.total_gas * schedule.wei_per_gas
        assert report.total_usd_exact == schedule.usd_exact(trace.total_gas)
        assert sink_wei == sum(r["gas_used"] for r in trace.receipts) * schedule.wei_per_gas

    def test_unknown_function_rejected(self):
        with pytest.raises(AnalysisError):
            cost_report(trace=[{"function": "mysteryCall", "gas_used": 5, "units": 1}])

    def test_exactly_one_input(self):
        with pytest.raises(AnalysisError):
            cost_report()
        with pytest.raises(AnalysisError):
            cost_report(trace=[], mode="lightweight", n=3)

    @pytest.mark.parametrize("mode", ["lightweight", "heavyweight", "strawman"])
    def test_table_lists_rows_by_function(self, mode):
        report = cost_report(mode=mode, n=7)
        assert report.table() == [
            {
                "function": fn,
                "calls": report.rows[fn]["calls"],
                "units": report.rows[fn]["units"],
                "gas": report.rows[fn]["gas"],
                "usd_exact": str(report.rows[fn]["usd_exact"]),
                "usd_quoted": fmt_usd(report.rows[fn]["usd_quoted"]),
            }
            for fn in sorted(report.rows)
        ]
        assert len(report.table()) == len(report.rows) > 0


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: sybil_expected_deposit(0, 10, 1.0, 4, 10, 0.5), "invalid sybil parameters", id="expected_layers"),
        pytest.param(lambda: sybil_expected_deposit(3, 0, 1.0, 4, 10, 0.5), "invalid sybil parameters", id="expected_pool"),
        pytest.param(lambda: sybil_min_deposit(3, 0, 1.0), "invalid sybil parameters", id="min_deposit_pool"),
        pytest.param(lambda: cost_report(mode="express", n=3), "unknown mode 'express'", id="cost_mode"),
        pytest.param(lambda: cost_report(mode="lightweight"), "analytic cost needs the group size n", id="cost_n_missing"),
        pytest.param(lambda: cost_report(mode="lightweight", n=0), "analytic cost needs the group size n", id="cost_n_zero"),
    ],
)
def test_guard_raises(call, message):
    with pytest.raises(AnalysisError, match=re.escape(message)) as info:
        call()
    assert type(info.value) is AnalysisError


class ReferencePrices:
    """A schedule's prices by plain Fraction arithmetic on its public fields,
    with nothing derived at construction."""

    def __init__(self, schedule):
        self.schedule = schedule

    def usd_exact(self, gas):
        return gas * self.schedule.gas_to_ether * self.schedule.ether_to_usd

    def usd_quoted(self, fn, units=1):
        schedule = self.schedule
        if fn in schedule.usd_display:
            per_call = schedule.usd_display[fn]
            return per_call * units if fn in schedule.gas_per_unit else per_call
        return round_usd_cents(self.usd_exact(schedule.gas_for(fn, units)))


class TestNonDefaultSchedule:
    """The money path under a schedule file with a sub-cent published price,
    a per-unit published price and non-default rates."""

    SCHEDULE = {
        "usd_display": {FN_NEW_SERVICE: 0.125, FN_REVEAL_IDENTITY: "0.0625", FN_STRAWMAN_NEW_SERVICE: "0.333"},
        "gas_to_ether": "2.1e-8",
        "ether_to_usd": "3123.45",
    }

    @pytest.fixture
    def schedule(self, tmp_path):
        path = tmp_path / "gas.json"
        path.write_text(json.dumps(self.SCHEDULE))
        schedule = GasSchedule.from_file(str(path))
        assert schedule.wei_per_gas == 21_000_000_000
        assert schedule.usd_display[FN_NEW_SERVICE] == Fraction(1, 8)
        return schedule

    @pytest.mark.parametrize("mode", ["lightweight", "heavyweight", "strawman"])
    def test_analytic_matches_reference_fold(self, schedule, mode):
        prices = ReferencePrices(schedule)
        for n in range(1, 41):
            report = cost_report(mode=mode, n=n, schedule=schedule)
            fixed_calls, per_n_calls = mode_calls(mode, n)
            priced = [(fn, units, schedule.gas_for(fn, units)) for fn, units in fixed_calls + per_n_calls]
            rows = cost_rows_reference(priced, prices)
            assert list(report.rows.items()) == list(rows.items())
            assert all(list(row) == ROW_KEYS for row in report.rows.values())
            assert report.total_usd_exact == prices.usd_exact(report.total_gas)
            assert report.service_usd_quoted == sum(r["usd_quoted"] for r in rows.values())
            if mode == "strawman":
                assert report.fixed_usd_quoted is report.per_mailman_usd_quoted is None
            else:
                fixed = cost_rows_reference(priced[: len(fixed_calls)], prices)
                assert report.fixed_usd_quoted == sum(r["usd_quoted"] for r in fixed.values())
                per_mailman = {fn for fn, _ in per_n_calls}
                assert report.per_mailman_usd_quoted == sum(prices.usd_quoted(fn) for fn in per_mailman)
        assert cost_report(mode="heavyweight", n=3, schedule=schedule).rows[FN_REVEAL_IDENTITY]["usd_quoted"] == Fraction(
            "0.1875"
        )

    @pytest.mark.parametrize(
        "cfg",
        [ScenarioConfig(seed=1), ScenarioConfig(seed=41, pool_size=8, l=1, t=2, n=4, mode="strawman")],
        ids=["lightweight", "strawman"],
    )
    def test_receipts_and_trace_report(self, schedule, cfg):
        prices = ReferencePrices(schedule)
        trace = run_scenario(cfg, schedule=schedule)
        assert trace.receipts
        for record in trace.receipts:
            assert Fraction(record["usd_cost"]) == record["gas_used"] * Fraction("2.1e-8") * Fraction("3123.45")
        report = cost_report(trace=trace, schedule=schedule)
        calls = [(r["function"], r.get("units", 1), r["gas_used"]) for r in trace.receipts]
        assert list(report.rows.items()) == list(cost_rows_reference(calls, prices).items())

    def test_edited_tables_change_the_next_report(self, schedule):
        before = cost_report(mode="lightweight", n=10, schedule=schedule)
        schedule.usd_display[FN_NEW_SERVICE] = Fraction("1.005")
        schedule.gas[FN_RECIPIENT_RECEIPT] += 1_000
        after = cost_report(mode="lightweight", n=10, schedule=schedule)
        assert after.service_usd_quoted - before.service_usd_quoted == Fraction("0.88")
        assert after.total_gas - before.total_gas == 1_000
        del schedule.usd_display[FN_RECIPIENT_RECEIPT]  # now priced from its gas, in whole cents
        rounded = cost_report(mode="lightweight", n=10, schedule=schedule).rows[FN_RECIPIENT_RECEIPT]["usd_quoted"]
        assert rounded == round_usd_cents(55_291 * Fraction("2.1e-8") * Fraction("3123.45"))
