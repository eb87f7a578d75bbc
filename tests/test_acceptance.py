"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated elsewhere.
"""

import itertools
import math
import time
from fractions import Fraction
from random import Random

from tidsim.adversary import run_bribery, sybil_capture_trials
from tidsim.analysis import (
    availability,
    availability_mc,
    bribery_cost,
    cost_report,
    optimal_sybil_fraction,
    sybil_expected_deposit,
    sybil_min_deposit,
)
from tidsim.crypto import (
    AuthenticationError,
    Share,
    keypair_gen,
    onion_peel,
    onion_wrap,
    _recover_address,
    recover_signer,
    sign,
    ss_restore,
    ss_split,
    SMALL_TEST_PRIME,
)
from tidsim.ledger import EPOCH_GRAPH, WEI_PER_ETHER
from tidsim.scenario import ScenarioConfig, ScenarioRunner, run_scenario

ETHER = WEI_PER_ETHER


def report(number: int, name: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} [{name}]: {verdict}{suffix}")
    assert ok, f"criterion {number} [{name}] failed{suffix}"


def test_criterion_1_availability():
    started = time.perf_counter()
    a3 = availability(3, 4, 10, 0.95)
    a4 = availability(4, 4, 10, 0.95)
    ok = 0.9985 <= a4 <= 0.9995 and 0.99985 <= a3 <= 0.99995
    trials = 100_000
    for l, closed in ((3, a3), (4, a4)):
        mc = availability_mc(l, 4, 10, 0.95, trials, seed=2024 + l)
        sigma = math.sqrt(closed * (1 - closed) / trials)
        ok = ok and abs(mc - closed) <= 3 * sigma + 1e-12
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 5.0
    report(1, "availability", ok, f"l3={a3:.5f} l4={a4:.5f} {elapsed:.2f}s")


def golden_section_min(f, lo, hi, tol=1e-12):
    inv_phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    while abs(b - a) > tol:
        c = b - inv_phi * (b - a)
        d = a + inv_phi * (b - a)
        if f(c) < f(d):
            b = d
        else:
            a = c
    x = (a + b) / 2
    return x, f(x)


def test_criterion_2_sybil_optimum():
    started = time.perf_counter()
    ok = all(optimal_sybil_fraction(l) == Fraction(l - 1, l) for l in range(2, 7))

    v, d, n = 100, 1.0, 12
    for l in range(2, 7):
        p_star = float(optimal_sybil_fraction(l))
        t_cover = n * p_star**l  # expected captures at the optimum cover t

        def objective(p, l=l, t_cover=t_cover):
            return sybil_expected_deposit(l, v, d, t_cover, n, p)

        argmin, minimum = golden_section_min(objective, 1e-6, 1 - 1e-6)
        closed = sybil_min_deposit(l, v, d)
        ok = ok and abs(argmin - p_star) < 1e-6
        ok = ok and abs(minimum - closed) / closed < 1e-9

    # empirical sweep: cost minimum within +-15% of x = (l-1) v = 200
    l, t, n_shares, trials = 3, 4, 10, 10_000
    best_x, best_cost = None, None
    for x in range(140, 261, 20):
        counts = sybil_capture_trials(l, v, x, t, n_shares, trials, seed=500 + x)
        rate = counts.mean() / n_shares
        if rate == 0:
            continue
        cost = x * d * t / (n_shares * rate)
        if best_cost is None or cost < best_cost:
            best_x, best_cost = x, cost
    ok = ok and best_x is not None and abs(best_x - 200) <= 0.15 * 200
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60.0
    report(2, "sybil optimum", ok, f"best_x={best_x} {elapsed:.1f}s")


def test_criterion_3_bribery_bound():
    ok = True
    details = []
    for t, l in ((2, 2), (4, 3)):
        n = t * l  # enough room for disjoint holder windows
        cfg = ScenarioConfig(
            seed=300 + t,
            pool_size=n + 2,
            l=l,
            t=t,
            n=n,
            fault_policies={i: "briberable" for i in range(n + 2)},
        )
        bribe = int(1.01 * ETHER)  # 1% premium over the deposit d = 1.0
        outcome = run_bribery(cfg, bribe)
        bound = bribery_cost(t, l, 1.0)
        spent = outcome.total_spent / ETHER
        ok = ok and outcome.key_recovered and bound < spent <= bound * 1.02
        details.append(f"(t={t},l={l}): {spent:.2f} vs {bound}")
    report(3, "bribery bound", ok, "; ".join(details))


def test_criterion_4_cost_model():
    # lightweight exact figures
    light = run_scenario(
        ScenarioConfig(seed=400, pool_size=12, l=3, t=4, n=10, withdraw_at_end=False)
    )
    breakdown = cost_report(trace=light)
    ok = light.status == "delivered_light"
    ok = ok and light.service_gas == 754_078
    ok = ok and breakdown.service_usd_quoted == Fraction("2.21")

    # lightweight gas identical across group sizes
    gas_by_n = {}
    for n in (5, 10, 20, 50):
        trace = run_scenario(
            ScenarioConfig(
                seed=401, pool_size=n + 2, l=3, t=4, n=n, withdraw_at_end=False
            )
        )
        gas_by_n[n] = trace.service_gas
        ok = ok and trace.status == "delivered_light"
    ok = ok and len(set(gas_by_n.values())) == 1

    # heavyweight quoted cost matches 9.31 + 0.48 n within a cent
    for n in (5, 10, 20):
        cfg = ScenarioConfig(
            seed=402,
            pool_size=n + 2,
            l=3,
            t=min(4, n),
            n=n,
            fault_policies={i: "withhold_light" for i in range(n + 2)},
            withdraw_at_end=False,
        )
        trace = run_scenario(cfg)
        quoted = cost_report(trace=trace).service_usd_quoted
        formula = Fraction("9.31") + Fraction("0.48") * n
        ok = ok and trace.status == "delivered_heavy"
        ok = ok and abs(quoted - formula) <= Fraction("0.01")

    # strawman gas strictly linear with positive slope
    straw = {}
    for n in (5, 10, 20):
        trace = run_scenario(
            ScenarioConfig(
                seed=403,
                pool_size=n + 2,
                l=1,
                t=min(4, n),
                n=n,
                mode="strawman",
                withdraw_at_end=False,
            )
        )
        straw[n] = trace.service_gas
    slope1 = (straw[10] - straw[5]) / 5
    slope2 = (straw[20] - straw[10]) / 10
    ok = ok and slope1 == slope2 and slope1 > 0
    report(
        4,
        "cost model",
        ok,
        f"light={light.service_gas} gas constant={sorted(set(gas_by_n.values()))} straw slope={slope1:.0f}",
    )


def _valid_epoch_path(seq):
    return (
        seq
        and seq[0] == 0
        and seq[-1] == 6
        and all(b in EPOCH_GRAPH[a] for a, b in zip(seq, seq[1:]))
    )


def test_criterion_5_epoch_and_fairness_fuzz():
    started = time.perf_counter()
    policies = ["honest", "absent", "fake", "withhold_light", "premature"]
    rng = Random(50_000)
    ok = True
    outcome_mix = {}
    for case in range(1000):
        n = rng.choice([3, 4, 5])
        pool = n + rng.choice([1, 2])
        faults = {
            i: rng.choice(policies) for i in range(pool) if rng.random() < 0.55
        }
        cfg = ScenarioConfig(
            seed=60_000 + case,
            pool_size=pool,
            l=rng.choice([1, 2]),
            t=rng.randrange(1, n + 1),
            n=n,
            fault_policies=faults,
            withdraw_at_end=True,
        )
        runner = ScenarioRunner(cfg)
        trace = runner.run()
        outcome_mix[trace.status] = outcome_mix.get(trace.status, 0) + 1

        # (a) epoch sequence is a path of the allowed graph
        if not _valid_epoch_path(trace.epoch_sequence):
            ok = False
            break
        # (b) honest couriers are never slashed; (d) every slash maps to a
        # deviating policy
        policy_of = {
            trace.roles[f"mailman_{i}"]: cfg.fault_policies.get(i, "honest")
            for i in range(pool)
        }
        for slash in trace.slashes:
            accused_policy = policy_of[slash["accused"]]
            if accused_policy == "honest":
                ok = False
                break
        # (c) remuneration moves to couriers iff the delivery succeeded
        svc = runner.agent.state["services"][runner.sender.service_id]
        paid = bool(svc["shares_paid"])
        delivered = trace.status in ("delivered_light", "delivered_heavy")
        if paid != delivered:
            ok = False
        # (e) conservation: the runner audits every tick; re-audit the end state
        runner.ledger.audit()
        if not ok:
            break
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 600.0
    report(
        5,
        "epoch graph and fairness",
        ok,
        f"{outcome_mix} {elapsed:.0f}s",
    )


def test_criterion_6_crypto_kernel():
    ok = True
    rng = Random(606)
    # exhaustive split/restore identity on the small field
    for n in range(1, 7):
        for t in range(1, n + 1):
            secret = rng.randrange(SMALL_TEST_PRIME)
            shares = ss_split(secret, t, n, rng, prime=SMALL_TEST_PRIME)
            for subset in itertools.combinations(shares, t):
                if ss_restore(subset, t, prime=SMALL_TEST_PRIME, as_bytes=False) != secret:
                    ok = False
    # onion permutation exhaustiveness at l <= 3
    for layers in (1, 2, 3):
        kps = [keypair_gen(rng) for _ in range(layers)]
        onion = onion_wrap(Share(1, 77), [kp.pubkey for kp in kps], rng)
        correct = tuple(reversed(range(layers)))
        for order in itertools.permutations(range(layers)):
            peeled = onion
            try:
                for i in order:
                    peeled = onion_peel(peeled, kps[i].privkey)
                succeeded = True
            except AuthenticationError:
                succeeded = False
            if succeeded != (order == correct) or (
                succeeded and peeled.share() != Share(1, 77)
            ):
                ok = False
    # signature round-trip fuzz
    for _ in range(1000):
        kp = keypair_gen(rng)
        digest = rng.randbytes(32)
        sig = sign(kp.privkey, digest)
        # sign memoizes its signer, so check the curve arithmetic itself too
        if recover_signer(digest, sig) != kp.address or _recover_address(digest, sig) != kp.address:
            ok = False
    report(6, "crypto kernel oracles", ok)


def test_criterion_7_relationship_secrecy():
    base = dict(seed=700, pool_size=14, l=3, t=4, n=10, withdraw_at_end=False)
    a = run_scenario(ScenarioConfig(**base, selection_override=tuple(range(10))))
    b = run_scenario(ScenarioConfig(**base, selection_override=tuple(range(4, 14))))
    ok = a.status == b.status == "delivered_light"
    ok = ok and a.selected != b.selected
    ok = ok and a.pre_settlement_digest == b.pre_settlement_digest

    straw = dict(base, mode="strawman", l=1)
    sa = run_scenario(ScenarioConfig(**straw, selection_override=tuple(range(10))))
    sb = run_scenario(ScenarioConfig(**straw, selection_override=tuple(range(4, 14))))
    leak_detected = sa.pre_settlement_digest != sb.pre_settlement_digest
    ok = ok and leak_detected
    report(7, "relationship secrecy", ok, f"strawman leak detected={leak_detected}")
