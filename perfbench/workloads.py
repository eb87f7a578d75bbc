"""Workload items, how to run one, and the checks on its output.

Every workload is a stream of fixed-size batches. Batch `b` of a run with
seed `s` is a pure function of (workload, s, b), so the same seed gives the
same inputs, and every item in a run is distinct: a cache that outlives one
scenario sees only the sharing real traffic has. The cost-setting knobs
(n, l, mode, pool size) are balanced inside each batch, so batches drawn
from different seeds cost about the same.

Workloads, and the layer each one isolates:

- fuzz_mix: small configs spanning every knob, the criterion-5 traffic. Per
  scenario fixed costs dominate (marketplace build, handshake signatures
  and recoveries, contract transactions, heavyweight epochs). The only
  workload that reaches the strawman, heavyweight and lossy paths.
- light_large: all-honest lightweight deliveries at n=16, l=3, t=4. About
  90% of the time is trial ECIES decryption inside peel_with_keys.
- pool_large: 400 registered couriers, n 3-5, one light and one
  heavyweight run per batch. Registration writes and the per-transaction
  contract-state snapshot dominate; trial peeling is negligible, so this is
  the bypass for crypto-kernel changes.
- analysis_sweep: in-process `tidsim sweep` over A_T, x and l, blind
  bribery trials and analytic cost reports. No crypto and no ledger, so a
  simulator-core change should leave it unchanged.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random
from time import perf_counter
from typing import Optional

from tidsim import adversary, analysis, cli, crypto
from tidsim.actors import FAULT_POLICIES, POLICY_HONEST, POLICY_PREMATURE
from tidsim.contracts import SLASH_ABSENT
from tidsim.ledger import EPOCH_GRAPH, LedgerError
from tidsim.scenario import MODE_SILENT, MODE_STRAWMAN, ScenarioConfig, ScenarioRunner

WORKLOADS = ("fuzz_mix", "light_large", "pool_large", "analysis_sweep")

# Flat gas of a lightweight service: deploySwitch + newService + recipientReceipt.
LIGHT_SERVICE_GAS = 754_078
# Heavyweight service cost in USD: fixed part plus a per-courier part.
HEAVY_FIXED_USD = Fraction("9.31")
HEAVY_PER_MAILMAN_USD = Fraction("0.48")
DELIVERED = ("delivered_light", "delivered_heavy")

FUZZ_BATCH_N = (3, 4, 5, 6, 7, 8)  # each n on two items of a batch
FUZZ_BATCH_L = (1, 2, 3) * 2  # l of an n's first item; its second gets 4 - l
FUZZ_POOL_EXTRA = (1, 2, 3, 4) * 3  # pool = n + this
# How many of a batch's 12 items get each non-default knob. Fixed counts
# keep every batch's mix alike, so its cost and failure rate vary little
# with the seed; the seed picks which items get which knobs, and the values.
FUZZ_QUOTAS = {
    "strawman": 1,  # about 10% of items
    "faults": 8,  # 1-3 couriers with a deviating policy
    "offline": 6,  # availability below 1
    "lossy": 5,  # drop_prob above 0
    "refusals": 4,
    "tamper": 2,
    "slow_epochs": 6,  # epoch_ticks 2
}
FAULTS = tuple(p for p in FAULT_POLICIES if p != POLICY_HONEST)
LIGHT_N = 16
# Time of one batch at the reference speed (see hostspeed.py), measured at
# the commit that added the benchmark. A run of S seconds is round(S / this)
# batches, at least one, so how many items a run holds never depends on the
# host's speed at the time.
BATCH_REF_S = {"fuzz_mix": 4.6, "light_large": 3.1, "pool_large": 3.5, "analysis_sweep": 1.0}
POOL_SIZE = 400

AT_RANGE = "0.80:0.99:0.01"
AT_TRIALS = 25_000
X_RANGE = "0:36:4"
X_TRIALS = 25_000
L_RANGE = "1:8:1"
COST_N = range(1, 101)
BRIBERY = dict(l=3, t=4, n=10, pool_size=40, trials=1_200)
# Family-wise false-alarm rate of the availability_mc check over one run:
# the two-sided 3-sigma rate, split across every point a run can check.
AT_FAMILY_ALPHA = 0.0027
AT_POINTS_PER_RUN = 20 * 100


@dataclass
class Item:
    id: str  # "<batch>.<index>"
    kind: str  # "scenario" or an analysis item name
    spec: dict


@dataclass
class Outcome:
    item: str
    started: float  # perf_counter() around the program's own work
    ended: float
    digest: Optional[str] = None
    error: Optional[str] = None  # the exception the program raised
    problems: list = field(default_factory=list)  # failed correctness checks
    counts: dict = field(default_factory=dict)  # derived from the outputs

    @property
    def seconds(self) -> float:
        return self.ended - self.started

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


def _rng(workload: str, seed: int, batch: int) -> Random:
    # str seeds hash with SHA-512, so this is stable across interpreters
    return Random(f"{workload}/{seed}/{batch}")


def batch(workload: str, seed: int, index: int) -> list[Item]:
    rng = _rng(workload, seed, index)
    specs = _BUILDERS[workload](rng)
    return [Item(f"{index}.{i}", kind, spec) for i, (kind, spec) in enumerate(specs)]


def _fuzz_mix(rng: Random) -> list:
    # Trial peeling costs about n*l, so each n gets l and 4 - l: every
    # batch has the same sum of n*l, and l is still 1, 2 or 3 on four items.
    ls = list(FUZZ_BATCH_L)
    rng.shuffle(ls)
    pairs = [(n, l) for n, l in zip(FUZZ_BATCH_N, ls)] + [(n, 4 - l) for n, l in zip(FUZZ_BATCH_N, ls)]
    rng.shuffle(pairs)
    extras = list(FUZZ_POOL_EXTRA)
    rng.shuffle(extras)
    flags = {}
    for knob, count in FUZZ_QUOTAS.items():
        flags[knob] = [True] * count + [False] * (len(pairs) - count)
        rng.shuffle(flags[knob])
    specs = []
    for i, ((n, l), extra) in enumerate(zip(pairs, extras)):
        on = {knob: values[i] for knob, values in flags.items()}
        pool = n + extra
        faults, refusals = {}, ()
        if on["faults"]:
            faults = {j: rng.choice(FAULTS) for j in rng.sample(range(pool), rng.randint(1, 3))}
        if on["refusals"]:
            refusals = tuple(sorted(rng.sample(range(pool), rng.randint(1, 2))))
        specs.append(
            (
                "scenario",
                dict(
                    seed=rng.getrandbits(31),
                    pool_size=pool,
                    n=n,
                    l=l,
                    t=rng.randint(1, n),
                    mode=MODE_STRAWMAN if on["strawman"] else MODE_SILENT,
                    fault_policies=faults,
                    refusals=refusals,
                    availability=round(rng.uniform(0.7, 0.99), 3) if on["offline"] else 1.0,
                    epoch_ticks=2 if on["slow_epochs"] else 1,
                    drop_prob=round(rng.uniform(0.05, 0.3), 3) if on["lossy"] else 0.0,
                    tamper_package=on["tamper"],
                ),
            )
        )
    return specs


def _light_large(rng: Random) -> list:
    return [("scenario", dict(seed=rng.getrandbits(31), n=LIGHT_N, l=3, t=4, pool_size=LIGHT_N + 4))]


def _pool_large(rng: Random) -> list:
    specs = []
    for heavy in (False, True):
        # small groups keep trial peeling negligible next to registration
        n = rng.randint(3, 5)
        faults = {rng.randrange(POOL_SIZE): POLICY_PREMATURE} if heavy else {}
        specs.append(
            (
                "scenario",
                dict(
                    seed=rng.getrandbits(31),
                    pool_size=POOL_SIZE,
                    n=n,
                    l=rng.choice((1, 2)),
                    t=rng.randint(1, n),
                    fault_policies=faults,
                ),
            )
        )
    return specs


def _analysis_sweep(rng: Random) -> list:
    return [
        ("sweep_A_T", dict(seed=rng.getrandbits(31))),
        ("sweep_x", dict(seed=rng.getrandbits(31))),
        ("sweep_l_and_cost", dict(seed=rng.getrandbits(31))),
        ("blind_bribery", dict(seed=rng.getrandbits(31))),
    ]


_BUILDERS = {
    "fuzz_mix": _fuzz_mix,
    "light_large": _light_large,
    "pool_large": _pool_large,
    "analysis_sweep": _analysis_sweep,
}


# Spans each workload exists to measure. A traced run in which one of them
# never fires fails, so a refactor that routes work around a wrapped entry
# point cannot silently zero its layer.
LAYERS = {
    "fuzz_mix": (
        "crypto.ecies_decrypt", "crypto.recover_signer", "crypto.sign", "crypto.keypair_gen",
        "actors.peel_with_keys", "ledger.submit_tx", "contracts.handle", "ledger.audit",
        "ledger.state_digest", "scenario.recruit", "scenario.epoch1", "scenario.strawman",
    ),
    "light_large": (
        "crypto.ecies_decrypt", "crypto.ecies_encrypt", "actors.peel_with_keys",
        "scenario.build_marketplace", "scenario.recruit", "scenario.epoch1", "scenario.settle",
    ),
    "pool_large": (
        "crypto.keypair_gen", "ledger.submit_tx", "contracts.handle", "channels.deliver_pending",
        "scenario.build_marketplace", "scenario.pend",
    ),
    "analysis_sweep": (
        "analysis.availability_mc", "analysis.cost_report", "adversary.sybil_capture_trials",
        "adversary.blind_bribery_trials", "cli.sweep",
    ),
}


def warm_up(workload: str):
    """One small call into the layer the workload times first."""
    if workload == "analysis_sweep":
        analysis.availability_mc(3, 4, 10, 0.9, 1_000)
    else:
        crypto.keypair_gen(Random(0))


# -- running one item ---------------------------------------------------------


def run_item(item: Item) -> Outcome:
    """Run one item, timing only the program's own work, then check it."""
    started = perf_counter()
    try:
        if item.kind == "scenario":
            runner = ScenarioRunner(ScenarioConfig(**item.spec))
            trace = runner.run()
            digest = trace.trace_hash()
        else:
            output = _ANALYSIS[item.kind](item.spec["seed"])
            digest = hashlib.sha256(json.dumps(output, sort_keys=True).encode()).hexdigest()
    except Exception as exc:  # an item that raises is a failed operation, not a crash
        return Outcome(item.id, started, perf_counter(), error=_describe(exc))
    outcome = Outcome(item.id, started, perf_counter(), digest=digest)
    if item.kind == "scenario":
        outcome.problems = _check_scenario(runner, trace)
        outcome.counts = _scenario_counts(trace)
    else:
        outcome.problems = _ANALYSIS_CHECKS[item.kind](output)
    return outcome


def _describe(exc: Exception) -> str:
    frames = [f for f in traceback.extract_tb(exc.__traceback__) if "tidsim" in f.filename]
    where = ""
    if frames:
        last = frames[-1]
        where = f" at {last.filename.rsplit('/', 1)[-1]}:{last.lineno}"
    return f"{type(exc).__name__}({exc}){where}"


def _check_scenario(runner: ScenarioRunner, trace) -> list[str]:
    cfg = runner.config
    problems = []
    seq = trace.epoch_sequence
    if not all(b in EPOCH_GRAPH[a] for a, b in zip(seq, seq[1:])):
        problems.append(f"epoch path {seq} leaves EPOCH_GRAPH")
    try:
        runner.ledger.audit()
    except LedgerError as exc:
        problems.append(f"audit: {exc}")
    policy_of = {
        trace.roles[f"mailman_{i}"]: cfg.fault_policies.get(i, POLICY_HONEST)
        for i in range(cfg.pool_size)
    }
    for slash in trace.slashes:
        # an honest courier that the availability coin kept offline is
        # rightly slashed for absence; any other verdict against it is wrong
        offline = slash["kind"] == SLASH_ABSENT and cfg.availability < 1.0
        if policy_of.get(slash["accused"]) == POLICY_HONEST and not offline:
            problems.append(f"honest courier {slash['accused'][:8]} slashed ({slash['kind']})")
    if cfg.mode == MODE_SILENT:
        svc = runner.agent.state["services"][runner.sender.service_id]
    else:
        svc = next(iter(runner.strawman.state["services"].values()))
    if bool(svc["shares_paid"]) != (trace.status in DELIVERED):
        problems.append(f"remuneration paid={bool(svc['shares_paid'])} but status {trace.status}")
    all_honest_light = (
        cfg.mode == MODE_SILENT
        and all(p == POLICY_HONEST for p in cfg.fault_policies.values())
        and cfg.availability == 1.0
        and cfg.drop_prob == 0.0
        and not cfg.tamper_package
    )
    if all_honest_light and (
        trace.status != "delivered_light" or trace.service_gas != LIGHT_SERVICE_GAS
    ):
        problems.append(
            f"all-honest light run: status {trace.status}, service_gas {trace.service_gas}"
        )
    return problems


def _scenario_counts(trace) -> dict:
    """Message and transaction counts, read from the trace rather than timers."""
    msgs = trace.messages
    receipts = trace.receipts
    return {
        "msgs": len(msgs),
        "bytes": sum(m["size"] for m in msgs),
        "dropped": sum(1 for m in msgs if not m["delivered"]),
        "receipts": len(receipts),
        "reverts": sum(1 for r in receipts if not r["success"]),
    }


# -- analysis items -------------------------------------------------------------


def _sweep(axis: str, spec: str, trials: int, seed: int) -> list[dict]:
    out = io.StringIO()
    argv = ["sweep", "--sweep-axis", axis, "--sweep-range", spec]
    argv += ["--trials", str(trials), "--seed", str(seed), "--format", "jsonl"]
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    if status != 0:
        raise RuntimeError(f"tidsim {' '.join(argv)} exited {status}")
    return [json.loads(line) for line in out.getvalue().splitlines()]


def _cost_row(mode: str, n: int) -> dict:
    report = analysis.cost_report(mode=mode, n=n)
    return {
        "mode": mode,
        "n": n,
        "total_gas": report.total_gas,
        "service_usd": str(report.service_usd_quoted),
    }


_ANALYSIS = {
    "sweep_A_T": lambda seed: _sweep("A_T", AT_RANGE, AT_TRIALS, seed),
    "sweep_x": lambda seed: _sweep("x", X_RANGE, X_TRIALS, seed),
    "sweep_l_and_cost": lambda seed: {
        "l": _sweep("l", L_RANGE, 1, seed),
        "cost": [
            _cost_row(mode, n)
            for mode in (analysis.MODE_LIGHTWEIGHT, analysis.MODE_HEAVYWEIGHT, analysis.MODE_STRAWMAN)
            for n in COST_N
        ],
    },
    "blind_bribery": lambda seed: adversary.blind_bribery_trials(**BRIBERY, seed=seed).tolist(),
}


def _kl(a: float, p: float) -> float:
    """Kullback-Leibler divergence between Bernoulli(a) and Bernoulli(p)."""
    total = 0.0
    for x, y in ((a, p), (1 - a, 1 - p)):
        if x > 0:
            total += x * math.log(x / y) if y > 0 else math.inf
    return total


def _check_at(rows: list[dict]) -> list[str]:
    """Each Monte Carlo point must be a plausible draw around the closed form.

    The Chernoff bound exp(-trials * KL(mc || closed)) caps the chance of a
    deviation at least this large, in the tails too, where a normal sigma
    understates it (at a_t=0.98 one failure in 25k trials is a 2% event).
    """
    problems = []
    if len(rows) != 20:
        problems.append(f"A_T sweep returned {len(rows)} rows, expected 20")
    limit = math.log(AT_POINTS_PER_RUN / AT_FAMILY_ALPHA)
    for row in rows:
        p = row["availability_closed"]
        if AT_TRIALS * _kl(row["availability_mc"], p) > limit:
            problems.append(
                f"availability_mc {row['availability_mc']} vs closed form {p:.9f} at a_t={row['a_t']}"
            )
    return problems


def _check_x(rows: list[dict]) -> list[str]:
    problems = []
    for row in rows:
        if not 0.0 <= row["empirical_capture_p"] <= 1.0 or not 0.0 <= row["success_rate"] <= 1.0:
            problems.append(f"x={row['x']}: probability out of range")
        if row["x"] == 0 and row["empirical_capture_p"] != 0.0:
            problems.append("x=0 captured shares")
    return problems


def _check_l_and_cost(output: dict) -> list[str]:
    problems = []
    closed = [row["availability_closed"] for row in output["l"]]
    if any(b > a for a, b in zip(closed, closed[1:])):
        problems.append(f"availability rises with l: {closed}")
    for row in output["cost"]:
        if row["mode"] == analysis.MODE_LIGHTWEIGHT and row["total_gas"] != LIGHT_SERVICE_GAS:
            problems.append(f"lightweight gas {row['total_gas']} at n={row['n']}")
        if row["mode"] == analysis.MODE_HEAVYWEIGHT:
            expected = HEAVY_FIXED_USD + row["n"] * HEAVY_PER_MAILMAN_USD
            if Fraction(row["service_usd"]) != expected:
                problems.append(f"heavyweight cost {row['service_usd']} != 9.31 + 0.48*{row['n']}")
    return problems


def _check_bribery(counts: list) -> list[str]:
    if len(counts) != BRIBERY["trials"] or not all(1 <= c <= BRIBERY["pool_size"] for c in counts):
        return ["blind bribery purchase counts out of range"]
    return []


_ANALYSIS_CHECKS = {
    "sweep_A_T": _check_at,
    "sweep_x": _check_x,
    "sweep_l_and_cost": _check_l_and_cost,
    "blind_bribery": _check_bribery,
}
