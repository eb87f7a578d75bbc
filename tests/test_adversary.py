"""Attack harness tests: bribery economics, sybil capture statistics,
fault injection, and the observation API."""

import contextlib
import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tidsim import adversary, crypto
from tidsim.adversary import (
    adversary_view,
    blind_bribery_trials,
    disjoint_targets,
    inject_fault,
    run_bribery,
    sybil_capture_trials,
)
from tidsim.actors import peel_with_keys
from tidsim.analysis import _CHUNK_ELEMENTS, AnalysisError, bribery_cost
from tidsim.ledger import WEI_PER_ETHER
from tidsim.scenario import ConfigError, ScenarioConfig, ScenarioRunner, run_scenario

from conftest import numpy_pin_note

ETHER = WEI_PER_ETHER


def blind_bribery_reference(l, t, n, pool_size, trials, seed=0):
    """The purchase-by-purchase loop that blind_bribery_trials replaced:
    after every purchase, recount the shares whose l holders have all sold."""
    rng = np.random.default_rng(seed)
    counts = np.zeros(trials, dtype=np.int64)
    for trial in range(trials):
        recruited = rng.choice(pool_size, size=n, replace=False)
        holder_of = {int(m): pos for pos, m in enumerate(recruited)}
        bought_positions: set[int] = set()
        purchases = 0
        for target in rng.permutation(pool_size):
            purchases += 1
            pos = holder_of.get(int(target))
            if pos is not None:
                bought_positions.add(pos)
            unlocked = sum(
                1
                for i in range(n)
                if all((i + j) % n in bought_positions for j in range(l))
            )
            if unlocked >= t:
                break
        counts[trial] = purchases
    return counts


def sybil_capture_reference(l, v, x, t, n, trials, seed=0):
    """The argsort kernel sybil_capture_trials replaced, drawing every trial
    at once: `random()` fills row-major, so the chunks do not change the draw."""
    rng = np.random.default_rng(seed)
    keys = rng.random((trials, v + x))
    selected = np.argsort(keys, axis=1)[:, :n]
    adversarial = selected >= v
    captured = np.ones((trials, n), dtype=bool)
    for j in range(l):
        captured &= np.roll(adversarial, -j, axis=1)
    return captured.sum(axis=1)


def briberable_config(t, l, n, pool_size=None, seed=31):
    pool = pool_size if pool_size is not None else n + 2
    return ScenarioConfig(
        seed=seed,
        pool_size=pool,
        l=l,
        t=t,
        n=n,
        fault_policies={i: "briberable" for i in range(pool)},
    )


class TestBribery:
    def test_minimal_spend_matches_bound(self):
        # disjoint windows need n >= t*l
        for t, l in [(2, 2), (4, 3)]:
            n = t * l
            cfg = briberable_config(t, l, n)
            bribe = int(1.01 * ETHER)
            outcome = run_bribery(cfg, bribe)
            assert outcome.key_recovered
            bound = bribery_cost(t, l, 1.0)
            spent_ether = outcome.total_spent / ETHER
            assert spent_ether == pytest.approx(bound * 1.01, rel=1e-12)
            assert outcome.deposits_forfeited == t * l * ETHER

    def test_bribe_at_or_below_deposit_fails(self):
        cfg = briberable_config(2, 2, 4)
        outcome = run_bribery(cfg, ETHER)  # not strictly above d
        assert outcome.total_spent == 0
        assert not outcome.key_recovered

    def test_honest_couriers_never_sell(self):
        cfg = ScenarioConfig(seed=32, pool_size=6, l=2, t=2, n=4)
        outcome = run_bribery(cfg, 10 * ETHER)
        assert outcome.total_spent == 0
        assert not outcome.key_recovered

    def test_no_cheaper_strategy_within_the_market(self):
        # sweeping bribe levels: anything at or below d buys nothing, the
        # cheapest success converges to t*l*d from above
        t, l = 2, 2
        cfg = briberable_config(t, l, t * l)
        successes = []
        for premium_bp in (0, 50, 100, 200):
            bribe = ETHER + ETHER * premium_bp // 10_000
            outcome = run_bribery(cfg, bribe)
            if outcome.key_recovered:
                successes.append(outcome.total_spent)
        floor = bribery_cost(t, l, 1.0) * ETHER
        assert successes
        assert all(s > floor for s in successes)
        assert min(successes) <= floor * 1.0051

    @pytest.mark.parametrize("know_identities", [True, False])
    def test_strawman_config_is_a_config_error(self, monkeypatch, know_identities):
        # the strawman has no onion layers, so there is no key to buy and no run is built
        def no_run(config):
            raise AssertionError("built a run")

        monkeypatch.setattr("tidsim.adversary.ScenarioRunner", no_run)
        cfg = replace(briberable_config(2, 2, 4), mode="strawman")
        with pytest.raises(ConfigError, match="strawman"):
            run_bribery(cfg, 2 * ETHER, know_identities=know_identities)

    # Listed in the CI step that runs the golden traces under two hash seeds.
    @pytest.mark.parametrize("know_identities", [True, False], ids=["informed", "blind"])
    def test_same_outcome_without_the_memo(self, monkeypatch, know_identities):
        cfg = briberable_config(2, 2, 4)
        bribe = int(1.05 * ETHER)
        multiplied = []
        real = crypto._jmul
        monkeypatch.setattr(crypto, "_jmul", lambda k, p: multiplied.append(p) or real(k, p))
        with_memo = run_bribery(cfg, bribe, know_identities=know_identities)
        assert with_memo.key_recovered and multiplied == []
        # outside a scope crypto's memo records nothing, so every ECDH of
        # the wrap and the peels is a variable-base multiplication
        monkeypatch.setattr(adversary, "scope", contextlib.nullcontext)
        assert run_bribery(cfg, bribe, know_identities=know_identities) == with_memo
        assert multiplied

    def test_blind_targeting_wastes_bribes(self):
        t, l, n, pool = 2, 2, 4, 40
        counts = blind_bribery_trials(l, t, n, pool_size=pool, trials=400, seed=5)
        assert counts.mean() > 3 * t * l

    def test_blind_full_crypto_run(self):
        t, l = 2, 2
        cfg = briberable_config(t, l, 4, pool_size=8, seed=33)
        bribe = int(1.05 * ETHER)
        outcome = run_bribery(cfg, bribe, know_identities=False)
        assert outcome.key_recovered
        purchases = outcome.trace["purchases"]
        assert outcome.total_spent == len(purchases) * bribe
        # t shares need t windows of l consecutive holders, which span at least l + t - 1 couriers
        assert len(purchases) >= l + t - 1
        assert outcome.trace["know_identities"] is False

        # the blind adversary stops at the purchase that completed t shares
        runner = ScenarioRunner(cfg)
        runner.build_marketplace()
        runner.sender.setup()
        runner.sender.recruit(runner.pool, None)
        by_address = {m.address.hex(): m for m in runner.pool}
        keys = [by_address[seller].timeframe_keys[cfg.timeframe_tick].privkey for _, seller in purchases[:-1]]
        assert len(peel_with_keys(runner.sender.onions, keys)) < t

    def test_blind_adversary_peels_only_after_a_purchase(self, monkeypatch):
        # a courier that will not sell adds no key, so the peel after it
        # could open no new layer
        t, l, n, pool = 2, 2, 4, 8
        cfg = replace(
            briberable_config(t, l, n, pool_size=pool, seed=33),
            fault_policies={i: "briberable" for i in range(0, pool, 2)},
        )
        peels = []

        def counted(*args):
            peels.append(len(args[1]))  # the keys on hand
            return peel_with_keys(*args)

        monkeypatch.setattr(adversary, "peel_with_keys", counted)
        outcome = run_bribery(cfg, int(1.05 * ETHER), know_identities=False)
        purchases = outcome.trace["purchases"]
        assert 0 < len(purchases) < pool
        assert len(peels) <= len(purchases) + 1


class TestBlindBriberyTrials:
    @given(
        l=st.integers(1, 5),
        t=st.integers(1, 40),
        extra_n=st.integers(0, 39),
        extra_pool=st.integers(0, 39),
        trials=st.integers(1, 50),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(l=5, t=1, extra_n=0, extra_pool=0, trials=3, seed=0)  # l > n = 1
    @example(l=1, t=2, extra_n=3, extra_pool=2, trials=20, seed=1)
    @example(l=3, t=4, extra_n=6, extra_pool=30, trials=50, seed=5)  # the benchmark's point
    @settings(max_examples=60, deadline=None)
    def test_matches_purchase_loop(self, l, t, extra_n, extra_pool, trials, seed):
        n = min(t + extra_n, 40)
        pool = min(n + extra_pool, 40)
        counts = blind_bribery_trials(l, t, n, pool_size=pool, trials=trials, seed=seed)
        expected = blind_bribery_reference(l, t, n, pool, trials, seed=seed)
        assert counts.dtype == expected.dtype
        assert counts.tolist() == expected.tolist()

    @pytest.mark.parametrize(
        "l, t, n, pool, trials",
        [(0, 2, 4, 8, 5), (2, 0, 4, 8, 5), (2, 5, 4, 8, 5), (2, 2, 9, 8, 5), (2, 2, 4, 8, 0)],
        ids=["l=0", "t=0", "t>n", "n>pool", "no trials"],
    )
    def test_invalid_parameters(self, l, t, n, pool, trials):
        with pytest.raises(AnalysisError):
            blind_bribery_trials(l, t, n, pool_size=pool, trials=trials)

    def test_pinned(self):
        counts = blind_bribery_trials(3, 4, 10, pool_size=40, trials=2000, seed=7)
        digest = hashlib.sha256(json.dumps(counts.tolist()).encode()).hexdigest()
        assert digest == "d8cf8d5b60a13507bec6dcf1b4c778d4977db9b1258a8ab03e67b892ceea2369", numpy_pin_note()

    def test_pinned_across_chunks(self):
        # 20,001 trials over a pool of 40 are 25 chunks of 819 trials, the
        # last one partial
        counts = blind_bribery_trials(3, 4, 10, pool_size=40, trials=20_001, seed=8)
        digest = hashlib.sha256(json.dumps(counts.tolist()).encode()).hexdigest()
        assert digest == "73e10c6622452b945e35c5b92859b0e8db3e7a6e1b48e5d63df9231cbef9564b", numpy_pin_note()


class TestDisjointTargets:
    def test_disjoint_when_room(self):
        targets = disjoint_targets(4, 3, 12)
        windows = [{(i - 1 + j) % 12 for j in range(3)} for i in targets]
        assert len(targets) == 4
        seen = set()
        for w in windows:
            assert not (w & seen)
            seen |= w

    def test_fills_when_tight(self):
        assert len(disjoint_targets(4, 3, 10)) == 4


class TestSybil:
    def test_total_control_captures_everything(self):
        # v=0: every registered courier is adversarial
        counts = sybil_capture_trials(3, 0, 7, 4, 5, 200, seed=34)
        assert (counts == 5).all()

    def test_pinned_across_chunks(self):
        # 70,001 trials over a pool of 48 are 103 chunks of 682 trials, the
        # last one partial
        counts = sybil_capture_trials(3, 12, 36, 4, 10, 70_001, seed=9)
        digest = hashlib.sha256(json.dumps(counts.tolist()).encode()).hexdigest()
        assert digest == "8f01c3053add63ed94868d0606c70ad92106a54970c0f55401d9589a072afbe5", numpy_pin_note()

    def test_pinned_deeper_than_group(self):
        # l=6 > n=4: each window wraps the selected couriers more than once;
        # 20,001 trials over a pool of 10 are 7 chunks of 3,276 trials, the
        # last one partial
        counts = sybil_capture_trials(6, 2, 8, 2, 4, 20_001, seed=4)
        digest = hashlib.sha256(json.dumps(counts.tolist()).encode()).hexdigest()
        assert digest == "1ee16b9b7c28376f5d3649ad904770e0bea83e6496fc07b9f724efc0e980fd0d", numpy_pin_note()

    @given(
        l=st.integers(1, 7),
        v=st.integers(0, 25),
        x=st.integers(0, 25),
        n=st.integers(1, 50),
        t=st.integers(1, 50),
        boundary=st.integers(0, 2),
        extra=st.integers(-3, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(l=6, v=2, x=8, n=4, t=2, boundary=1, extra=1, seed=4)  # l > n
    @example(l=7, v=3, x=3, n=2, t=1, boundary=0, extra=30, seed=1)  # l > pool
    @example(l=3, v=0, x=7, n=5, t=4, boundary=1, extra=0, seed=2)  # v = 0
    @example(l=2, v=9, x=0, n=9, t=3, boundary=1, extra=-1, seed=3)  # x = 0, n = pool
    @example(l=3, v=4, x=6, n=10, t=4, boundary=2, extra=1, seed=5)  # n = pool
    @settings(max_examples=60, deadline=None)
    def test_matches_argsort_kernel(self, l, v, x, n, t, boundary, extra, seed):
        # trial counts on both sides of one and of two chunk boundaries
        pool = v + x
        assume(pool >= 1)
        n = min(n, pool)
        t = min(t, n)
        trials = max(1, boundary * (_CHUNK_ELEMENTS // pool) + extra)
        counts = sybil_capture_trials(l, v, x, t, n, trials, seed=seed)
        expected = sybil_capture_reference(l, v, x, t, n, trials, seed=seed)
        assert counts.dtype == np.int64
        assert counts.tolist() == expected.tolist()

    def test_capture_rate_matches_analytic_mean(self):
        l, v, x, t, n = 3, 100, 200, 4, 10
        trials = 10_000
        counts = sybil_capture_trials(l, v, x, t, n, trials, seed=11)
        p = x / (x + v)
        analytic_mean = n * p**l
        sigma = counts.std(ddof=1) / math.sqrt(trials)
        assert abs(counts.mean() - analytic_mean) <= 3 * sigma + 0.05

    @pytest.mark.parametrize("l", [2, 3, 4])
    def test_per_share_probability(self, l):
        v, x, n = 100, 150, 8
        trials = 10_000
        counts = sybil_capture_trials(l, v, x, 1, n, trials, seed=13)
        rate = counts.mean() / n
        p = (x / (x + v)) ** l
        sigma = math.sqrt(p * (1 - p) / (trials * n))
        # shares inside one trial share holders, inflating the variance a bit
        assert abs(rate - p) <= 4 * sigma + 0.01

    def test_empirical_cost_minimum_near_optimum(self):
        l, v, d, t, n = 3, 100, 1.0, 4, 10
        trials = 10_000
        best_x, best_cost = None, None
        for x in range(100, 321, 20):
            counts = sybil_capture_trials(l, v, x, t, n, trials, seed=x)
            rate = counts.mean() / n
            if rate == 0:
                continue
            cost = x * d * t / (n * rate)
            if best_cost is None or cost < best_cost:
                best_x, best_cost = x, cost
        assert best_x is not None
        assert abs(best_x - 200) <= 0.15 * 200


    @pytest.mark.parametrize(
        "l, v, x, t, n, trials",
        [
            (0, 5, 5, 2, 4, 10),
            (2, 5, 5, 0, 4, 10),
            (2, 5, 5, 5, 4, 10),
            (2, 2, 1, 2, 4, 10),
            (2, 5, 5, 2, 4, 0),
            (2, 5, -1, 2, 4, 10),
        ],
        ids=["l=0", "t=0", "t>n", "n>pool", "no trials", "negative x"],
    )
    def test_invalid_parameters(self, l, v, x, t, n, trials):
        with pytest.raises(AnalysisError):
            sybil_capture_trials(l, v, x, t, n, trials)


class TestFaultInjection:
    def test_policy_override(self):
        cfg = ScenarioConfig(seed=36, pool_size=6, l=2, t=2, n=4, selection_override=(0, 1, 2, 3))
        injected = inject_fault(cfg, 0, "fake")
        assert injected.fault_policies[0] == "fake"
        trace = run_scenario(injected)
        assert any(s["kind"] == "fake" for s in trace.slashes) or trace.status in (
            "delivered_light",
        )

    def test_unknown_mailman(self):
        cfg = ScenarioConfig(seed=36, pool_size=6, l=2, t=2, n=4)
        with pytest.raises(ConfigError):
            inject_fault(cfg, 99, "absent")
        with pytest.raises(ConfigError):
            inject_fault(cfg, 0, "gremlin")

    def test_absent_below_redundancy_still_delivers(self):
        cfg = ScenarioConfig(
            seed=37, pool_size=12, l=3, t=4, n=10, selection_override=tuple(range(10))
        )
        injected = inject_fault(cfg, 3, "absent")
        trace = run_scenario(injected)
        assert trace.status == "delivered_light"

    def test_premature_injection_switches_mode(self):
        cfg = ScenarioConfig(
            seed=38, pool_size=8, l=2, t=2, n=4, selection_override=(0, 1, 2, 3)
        )
        trace = run_scenario(inject_fault(cfg, 1, "premature"))
        assert 2 in trace.epoch_sequence and 1 not in trace.epoch_sequence
        assert any(s["kind"] == "premature" for s in trace.slashes)


class TestObservation:
    def test_lightweight_hides_bindings(self):
        cfg = ScenarioConfig(seed=39, pool_size=8, l=2, t=2, n=4, withdraw_at_end=False)
        trace = run_scenario(cfg)
        view = adversary_view(trace)
        assert view.recruitment_bindings() == set()
        assert view.private_meta is not None

    def test_heavyweight_reveals_bindings(self):
        cfg = ScenarioConfig(
            seed=40,
            pool_size=8,
            l=2,
            t=2,
            n=4,
            fault_policies={i: "withhold_light" for i in range(8)},
        )
        trace = run_scenario(cfg)
        view = adversary_view(trace)
        assert view.recruitment_bindings() == set(trace.selected_addresses)

    def test_strawman_leaks_from_setup(self):
        cfg = ScenarioConfig(seed=41, pool_size=8, l=1, t=2, n=4, mode="strawman")
        trace = run_scenario(cfg)
        view = adversary_view(trace)
        assert view.recruitment_bindings() == set(trace.selected_addresses)

    def test_metadata_visibility_flag(self):
        cfg = ScenarioConfig(
            seed=42, pool_size=8, l=2, t=2, n=4, metadata_visible=False
        )
        trace = run_scenario(cfg)
        assert adversary_view(trace).private_meta is None
        assert adversary_view(trace, metadata_visible=True).private_meta

    def test_broadcast_payloads_visible_private_hidden(self):
        cfg = ScenarioConfig(seed=43, pool_size=8, l=2, t=2, n=4)
        view = adversary_view(run_scenario(cfg))
        assert all("payload" in b for b in view.broadcasts)
        assert all("payload" not in p for p in view.private_meta)
