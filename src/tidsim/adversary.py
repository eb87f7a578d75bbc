"""Attack strategies, fault injection, and the adversary's observation API.

Bribery is modeled the way its cost bound counts it: the adversary escrows
one bait contract per (share, layer) purchase, and a rational courier sells
a key only for strictly more than the deposit it forfeits when the sale is
reported. Where the group size permits, targets are chosen with disjoint
holder windows, so a successful run buys exactly t*l keys.

Sybil trials model the sender's uniform selection and cyclic layer windows:
a share is captured only when all l of its holders are adversary accounts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional

from .actors import POLICY_BRIBERABLE, peel_with_keys
from .analysis import AnalysisError, _check_group, _chunks
from .crypto import scope, ss_restore
from .scenario import MODE_STRAWMAN, ConfigError, FAULT_POLICIES, ScenarioConfig, ScenarioRunner, ScenarioTrace

if TYPE_CHECKING:  # numpy is imported where used, so importing tidsim does not load it
    import numpy as np


@dataclass
class AttackOutcome:
    shares_obtained: int
    key_recovered: bool
    total_spent: float
    deposits_forfeited: float
    trace: dict = field(default_factory=dict)


def disjoint_targets(t: int, l: int, n: int) -> list[int]:
    """Pick t share indices whose holder windows overlap as little as
    possible; fully disjoint picks exist whenever n >= t*l."""
    targets: list[int] = []
    covered: set[int] = set()
    for index in range(1, n + 1):
        window = {(index - 1 + j) % n for j in range(l)}
        if not window & covered:
            targets.append(index)
            covered |= window
        if len(targets) == t:
            return targets
    for index in range(1, n + 1):
        if index not in targets:
            targets.append(index)
        if len(targets) == t:
            break
    return targets


def run_bribery(
    config: ScenarioConfig,
    bribe_per_key: int,
    know_identities: bool = True,
) -> AttackOutcome:
    """Buy timeframe keys during the pending phase and try to restore the key.

    `bribe_per_key` is in wei. With identity knowledge (the side-channel
    flag) the adversary targets t shares with disjoint layer windows and
    pays per (share, layer) bait contract; blind, it bribes registrants in
    a uniformly random order until it can restore or has tried them all.
    """
    if config.mode == MODE_STRAWMAN:
        raise ConfigError("bribery buys onion-layer keys, and the strawman mode has none")
    with scope():  # one run's keys, signatures and layers, see crypto.scope
        runner = ScenarioRunner(config)
        runner.build_marketplace()
        runner.sender.setup()
        runner.sender.recruit(runner.pool, config.selection_override)
        cfg = runner.config
        d = cfg.deposit_wei

        purchases: list[tuple[int, str]] = []  # (share index or 0, seller)
        keys: dict[bytes, bool] = {}
        sellers: set[bytes] = set()

        def try_buy(mailman, share_index: int) -> bool:
            if mailman.policy != POLICY_BRIBERABLE or bribe_per_key <= d:
                return False
            purchases.append((share_index, mailman.address.hex()))
            sellers.add(mailman.address)
            keys[mailman.timeframe_keys[cfg.timeframe_tick].privkey] = True
            return True

        if know_identities:
            for share_index in disjoint_targets(cfg.t, cfg.l, cfg.n):
                for holder in runner.sender.layer_holders(share_index):
                    try_buy(holder, share_index)
        else:
            order = list(runner.pool)
            runner.rng.shuffle(order)
            for mailman in order:
                if not try_buy(mailman, 0):
                    continue  # no key was added, so no new layer opens
                if len(peel_with_keys(runner.sender.onions, list(keys))) >= cfg.t:
                    break

        shares = peel_with_keys(runner.sender.onions, list(keys))
        recovered = False
        if len(shares) >= cfg.t:
            recovered = ss_restore(list(shares.values()), cfg.t) == runner.sender.key
        return AttackOutcome(
            shares_obtained=len(shares),
            key_recovered=recovered,
            total_spent=len(purchases) * bribe_per_key,
            deposits_forfeited=len(sellers) * d,
            trace={
                "purchases": purchases,
                "selected": [m.address.hex() for m in runner.sender.selected],
                "know_identities": know_identities,
            },
        )


def blind_bribery_trials(
    l: int, t: int, n: int, pool_size: int, trials: int, seed: int = 0
) -> np.ndarray:
    """Purchases needed per trial when bribing uniformly without identity
    knowledge (combinatorial model: a share unlocks when its l consecutive
    holders have all sold).

    Each trial recruits n of the pool and buys the whole pool in a random
    order. If the holder at position i sells with purchase number T_i,
    share i unlocks at U_i = max(T_i, ..., T_{i+l-1}) (positions mod n), so
    the count of unlocked shares first reaches t at the t-th smallest U_i,
    which is the number of purchases the trial needs.
    """
    import numpy as np

    _check_trials(l, t, n, pool_size, trials)
    rng = np.random.default_rng(seed)
    needed = np.empty(trials, dtype=np.int64)
    for start, size in _chunks(trials, pool_size):
        recruited = np.empty((size, n), dtype=np.int64)
        order = np.empty((size, pool_size), dtype=np.int64)
        for trial in range(size):
            recruited[trial] = rng.choice(pool_size, size=n, replace=False)
            order[trial] = rng.permutation(pool_size)
        # purchase time (1-based) of every pool member: the inverse permutation
        bought_at = np.empty_like(order)
        np.put_along_axis(bought_at, order, np.arange(1, pool_size + 1), axis=1)
        held = np.take_along_axis(bought_at, recruited, axis=1)
        unlocked_at = held
        for j in range(1, l):
            unlocked_at = np.maximum(unlocked_at, np.roll(held, -j, axis=1))
        needed[start : start + size] = np.partition(unlocked_at, t - 1, axis=1)[:, t - 1]
        # free this chunk before the next is drawn: one chunk alive at a time
        del recruited, order, bought_at, held, unlocked_at
    return needed


def sybil_capture_trials(
    l: int, v: int, x: int, t: int, n: int, trials: int, seed: int = 0
) -> np.ndarray:
    """Captured-share counts across trials (vectorized selection model).

    Each trial draws one key per registrant, the v honest ones first, and
    selects the n registrants with the smallest keys, in key order; share i
    is captured when its holders at positions i..i+l-1 (mod n) are all
    sybils. A key is one raw 64-bit word of the generator, which orders as
    the float `random()` makes of it, `(word >> 11) * 2**-53`. That float
    drops bit 0, so bit 0 is overwritten with the sybil flag, and one value
    sort of a trial's words yields its selected couriers' flags in selection
    order. The counts differ from an argsort of the floats only when two of
    a trial's words share their top 53 bits, a chance of about 1e-8 per
    25,000-trial `x` sweep over 0:36:4 with v=12, and argsort's order on
    such a tie was unspecified too.
    """
    import numpy as np

    if v < 0 or x < 0:
        raise AnalysisError("courier counts must be non-negative")
    pool = v + x
    _check_trials(l, t, n, pool, trials)
    rng = np.random.default_rng(seed)
    counts = np.empty(trials, dtype=np.int64)
    # the n positions, then the first l-1 again: row i+j is position (i+j) mod n
    windows = np.arange(n + l - 1) % n
    for start, size in _chunks(trials, pool):
        keys = rng.bit_generator.random_raw((size, pool))
        keys &= np.uint64(2**64 - 2)
        keys[:, v:] |= np.uint64(1)
        keys.sort(axis=1)
        # position-major flags of the selected couriers: bit 0 of the low byte
        sybil = keys[:, :n].astype(np.uint8).T[windows] & 1
        captured = sybil[:n].copy()
        for j in range(1, l):
            captured &= sybil[j : j + n]
        counts[start : start + size] = captured.sum(axis=0)
        # free this chunk before the next is drawn: one chunk alive at a time
        del keys, sybil, captured
    return counts


def _check_trials(l: int, t: int, n: int, pool_size: int, trials: int):
    _check_group(l, t, n)
    if n > pool_size:
        raise AnalysisError(f"cannot recruit n={n} from a pool of {pool_size}")
    if trials < 1:
        raise AnalysisError("need a positive trial count")


def inject_fault(config: ScenarioConfig, mailman: int, kind: str) -> ScenarioConfig:
    """Override one courier's honesty policy for a run (returns a new config)."""
    if not 0 <= mailman < config.pool_size:
        raise ConfigError(f"unknown mailman index {mailman}")
    if kind not in FAULT_POLICIES:
        raise ConfigError(f"unknown fault kind {kind!r}")
    faults = dict(config.fault_policies)
    faults[mailman] = kind
    return replace(config, fault_policies=faults).validate()


@dataclass
class ObservationSet:
    """Everything the adversary can see of one run, per the visibility flags."""

    receipts: list[dict]
    contracts: dict
    broadcasts: list[dict]
    private_meta: Optional[list[dict]]

    def recruitment_bindings(self) -> set[str]:
        """Courier addresses provably bound to a service by visible state."""
        bound: set[str] = set()
        for dump in self.contracts.values():
            for svc in dump.get("services", {}).values():
                bound.update(svc.get("identities", {}).values())
                for entry in svc.get("entries", {}).values():
                    bound.add(entry["mailman"])
            for identity in dump.get("identities", {}).values():
                bound.add(identity["mailman"])
        return bound


def adversary_view(trace: ScenarioTrace, metadata_visible: Optional[bool] = None) -> ObservationSet:
    """Assemble the observation set from a finished run's trace.

    On-chain bytes (receipts and pre-settlement contract state) and
    broadcast payloads are always visible; private-channel metadata only
    when the scenario ran with metadata visibility on.
    """
    visible = trace.config.get("metadata_visible", True) if metadata_visible is None else metadata_visible
    broadcasts = [m for m in trace.messages if m["to"] == "broadcast" and m["delivered"]]
    private = None
    if visible:
        private = [
            {k: m[k] for k in ("from", "to", "size", "tick")}
            for m in trace.messages
            if m["to"] != "broadcast"
        ]
    return ObservationSet(
        receipts=trace.receipts,
        contracts=trace.pre_settlement_state.get("contracts", {}),
        broadcasts=broadcasts,
        private_meta=private,
    )
