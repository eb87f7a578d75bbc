"""Deterministic single-chain ledger.

Accounts and balances are integer wei; every contract call charges a flat
per-function gas amount (variable-size calls charge per unit, e.g. per
identity revealed). Gas leaves the economy into a sink and burns into a
second sink, so the audit invariant is

    sum(balances) + gas_sink + burn_sink == total minted

after every transaction. USD figures are exact rationals; the published
per-function USD price list is carried alongside because the cost model's
headline numbers are quoted from that list rather than recomputed.

A schedule fixes its two rates when it is built and derives from them, once,
the integer wei per gas that every fee is charged in and the exact USD per
gas, so the exact USD cost of a call is one Fraction(gas * a, b). Its gas and
price tables stay editable, so nothing derived from them is kept: a quoted
price is read from the tables on every call.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import groupby, islice
from typing import Any, Callable, Iterator, Optional

from .crypto import hash256

WEI_PER_ETHER = 10**18

# Allowed epoch transitions of the delivery state machine. Epoch 0 is the
# pending phase; 1 lightweight reveal; 2 mode switch; 3 on-chain reveal;
# 4 absent/fake reporting; 5 second receipt chance; 6 settlement.
EPOCH_GRAPH: dict[int, frozenset[int]] = {
    0: frozenset({1, 2}),
    1: frozenset({2, 6}),
    2: frozenset({3, 6}),
    3: frozenset({4}),
    4: frozenset({5}),
    5: frozenset({6}),
    6: frozenset(),
}

# Stable string-keyed contract ABI. Traces refer to functions by these ids.
FN_DEPLOY_AGENT = "deployAgent"
FN_DEPLOY_SWITCH = "deploySwitch"
FN_DEPLOY_STRAWMAN = "deployStrawman"
FN_NEW_MAILMAN = "newMailman"
FN_NEW_SERVICE = "newService"
FN_DEPLOY_SUPPLEMENTARY = "deploySupplementary"
FN_REPORT_PREMATURE = "reportPremature"
FN_RECIPIENT_RECEIPT = "recipientReceipt"
FN_REVEAL_IDENTITY = "revealIdentity"
FN_REVEAL_PRIVKEY = "revealPrivkey"
FN_REPORT_ABSENT = "reportAbsent"
FN_REPORT_FAKE = "reportFake"
FN_INFORM_AGENT = "informAgent"
FN_PROVE_AGREEMENT = "proveAgreement"
FN_WITHDRAW = "withdraw"
FN_STRAWMAN_NEW_SERVICE = "strawmanNewService"
FN_STRAWMAN_REPORT_PREMATURE = "strawmanReportPremature"
FN_STRAWMAN_REVEAL_SHARE = "strawmanRevealShare"
FN_STRAWMAN_REVEAL_RECEIPT = "strawmanRevealReceipt"

# Functions whose gas counts toward the published per-service cost figures,
# the silent protocol's and the strawman's alike: a run calls one registry's
# functions only. Registration (newMailman) and marketplace bootstrap
# (deployAgent / deployStrawman) are mailman- and operator-side; settlement
# withdrawals are optional and excluded from the per-service totals the price
# table covers.
SERVICE_FUNCTIONS = frozenset(
    {
        FN_DEPLOY_SWITCH,
        FN_NEW_SERVICE,
        FN_DEPLOY_SUPPLEMENTARY,
        FN_REPORT_PREMATURE,
        FN_RECIPIENT_RECEIPT,
        FN_REVEAL_IDENTITY,
        FN_REVEAL_PRIVKEY,
        FN_REPORT_ABSENT,
        FN_REPORT_FAKE,
        FN_INFORM_AGENT,
        FN_STRAWMAN_NEW_SERVICE,
        FN_STRAWMAN_REPORT_PREMATURE,
        FN_STRAWMAN_REVEAL_SHARE,
        FN_STRAWMAN_REVEAL_RECEIPT,
    }
)

# The published gas and USD price tables; GasSchedule.default() copies them.
_DEFAULT_GAS = {
    FN_DEPLOY_AGENT: 1_500_000,
    FN_DEPLOY_STRAWMAN: 1_500_000,
    FN_DEPLOY_SWITCH: 616_666,
    FN_NEW_MAILMAN: 128_000,
    FN_NEW_SERVICE: 83_121,
    FN_DEPLOY_SUPPLEMENTARY: 2_425_356,
    FN_REPORT_PREMATURE: 65_317,
    FN_RECIPIENT_RECEIPT: 54_291,
    FN_REVEAL_IDENTITY: 0,
    FN_REVEAL_PRIVKEY: 90_689,
    FN_REPORT_ABSENT: 65_343,
    FN_REPORT_FAKE: 1_280_723,
    FN_INFORM_AGENT: 57_042,
    FN_PROVE_AGREEMENT: 72_678,
    FN_WITHDRAW: 45_000,
    FN_STRAWMAN_NEW_SERVICE: 83_121,
    FN_STRAWMAN_REPORT_PREMATURE: 65_317,
    FN_STRAWMAN_REVEAL_SHARE: 90_689,
    FN_STRAWMAN_REVEAL_RECEIPT: 54_291,
}
_DEFAULT_GAS_PER_UNIT = {
    FN_REVEAL_IDENTITY: 72_678,
    FN_STRAWMAN_NEW_SERVICE: 42_000,
}
_PUBLISHED_USD = {
    FN_DEPLOY_SWITCH: Fraction("1.81"),
    FN_NEW_SERVICE: Fraction("0.24"),
    FN_DEPLOY_SUPPLEMENTARY: Fraction("7.10"),
    FN_REPORT_PREMATURE: Fraction("0.19"),
    FN_RECIPIENT_RECEIPT: Fraction("0.16"),
    FN_REVEAL_IDENTITY: Fraction("0.21"),
    FN_REVEAL_PRIVKEY: Fraction("0.27"),
    FN_REPORT_ABSENT: Fraction("0.19"),
    FN_REPORT_FAKE: Fraction("3.75"),
    FN_INFORM_AGENT: Fraction("0.17"),
}


class LedgerError(Exception):
    """Transaction rejected before execution (no receipt, no state change)."""


class ContractRevert(Exception):
    """Raised inside a contract handler; charges gas, rolls back state."""


def _cents(num: int, den: int) -> int:
    """floor(100 * num / den + 1/2) for den > 0: whole cents rounded half-up, in integers."""
    return (200 * num + den) // (2 * den)


def round_usd_cents(amount: Fraction) -> Fraction:
    """Round half-up to whole cents (display only; books stay exact)."""
    return Fraction(_cents(amount.numerator, amount.denominator), 100)


def fmt_usd(amount: Fraction) -> str:
    cents = _cents(amount.numerator, amount.denominator)
    return f"{cents // 100}.{cents % 100:02d}"


def _gas_entry(fn: str, value) -> int:
    """A gas figure read from a schedule file: a bool or a number with a
    fraction is an error rather than 1 or its floor."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise LedgerError(f"gas entry for {fn} must be a whole number, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class GasSchedule:
    """Per-function gas prices plus the published USD price list.

    `usd_display` carries the per-function USD figures exactly as published
    (they are not bit-reproducible from the gas*rate product, which lands a
    cent lower for three functions), so cost summaries can quote them.

    The two rates are read-only: `wei_per_gas` and the exact USD per gas are
    derived from them once, here, and `usd_exact(gas)` is one Fraction built
    from integers. Both rates must be positive and every published price
    non-negative. The three tables may still be edited after construction,
    so `usd_quoted` reads them afresh on every call.
    """

    gas: dict[str, int]
    gas_per_unit: dict[str, int] = field(default_factory=dict)
    usd_display: dict[str, Fraction] = field(default_factory=dict)
    gas_to_ether: Fraction = Fraction(167, 10**10)
    ether_to_usd: Fraction = Fraction(175)
    wei_per_gas: int = field(init=False, repr=False, compare=False)
    _usd_per_gas: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for fn in set(self.gas) | set(self.gas_per_unit):
            base = self.gas.get(fn, 0)
            per_unit = self.gas_per_unit.get(fn, 0)
            if base < 0 or per_unit < 0 or base + per_unit <= 0:
                raise LedgerError(f"non-positive gas entry for {fn}")
        for fn, price in self.usd_display.items():
            if price < 0:
                raise LedgerError(f"negative published price for {fn}: {price}")
        if self.gas_to_ether <= 0 or self.ether_to_usd <= 0:
            raise LedgerError("gas_to_ether and ether_to_usd must be positive")
        wei = self.gas_to_ether * WEI_PER_ETHER
        if wei.denominator != 1:
            raise LedgerError("gas price must be a whole number of wei")
        object.__setattr__(self, "wei_per_gas", int(wei))
        object.__setattr__(self, "_usd_per_gas", self.gas_to_ether * self.ether_to_usd)

    def gas_for(self, fn: str, units: int = 1) -> int:
        if fn not in self.gas:
            raise LedgerError(f"unknown function in gas schedule: {fn}")
        return self.gas[fn] + self.gas_per_unit.get(fn, 0) * units

    def usd_exact(self, gas: int) -> Fraction:
        rate = self._usd_per_gas
        return Fraction(gas * rate.numerator, rate.denominator)

    def quoted_denominator(self) -> int:
        """A denominator over which every quoted price is an integer: the
        lcm of 100 (whole cents) and the published prices' denominators."""
        return math.lcm(100, *(price.denominator for price in self.usd_display.values()))

    def quoted_numerator(self, den: int, fn: str, units: int = 1) -> int:
        """usd_quoted(fn, units) * den, for den a multiple of quoted_denominator()."""
        price = self.usd_display.get(fn)
        if price is None:
            rate = self._usd_per_gas
            cents = _cents(self.gas_for(fn, units) * rate.numerator, rate.denominator)
            return cents * (den // 100)
        if fn in self.gas_per_unit:
            return price.numerator * units * (den // price.denominator)
        return price.numerator * (den // price.denominator)

    def usd_quoted(self, fn: str, units: int = 1) -> Fraction:
        """Published USD price of one call; falls back to rounded exact cost."""
        den = self.quoted_denominator()
        return Fraction(self.quoted_numerator(den, fn, units), den)

    @classmethod
    def default(cls) -> "GasSchedule":
        """The published schedule, in tables of its own that the caller may
        change without touching any other schedule."""
        return cls(
            gas=dict(_DEFAULT_GAS),
            gas_per_unit=dict(_DEFAULT_GAS_PER_UNIT),
            usd_display=dict(_PUBLISHED_USD),
        )

    @classmethod
    def from_file(cls, path: str) -> "GasSchedule":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        gas = dict(_DEFAULT_GAS)
        gas.update({k: _gas_entry(k, v) for k, v in raw.get("gas", {}).items()})
        per_unit = dict(_DEFAULT_GAS_PER_UNIT)
        per_unit.update({k: _gas_entry(k, v) for k, v in raw.get("gas_per_unit", {}).items()})
        display = dict(_PUBLISHED_USD)
        display.update({k: Fraction(str(v)) for k, v in raw.get("usd_display", {}).items()})
        return cls(
            gas=gas,
            gas_per_unit=per_unit,
            usd_display=display,
            gas_to_ether=Fraction(str(raw.get("gas_to_ether", "1.67e-8"))),
            ether_to_usd=Fraction(str(raw.get("ether_to_usd", "175"))),
        )


@dataclass
class Account:
    """A balance: a contract's if the address is in `Ledger.contracts`, else an EOA's."""

    address: bytes
    balance: int = 0


@dataclass
class TxReceipt:
    seq: int
    tick: int
    caller: bytes
    target: bytes
    function: str
    units: int
    gas_used: int
    usd_cost: Fraction
    success: bool
    error: Optional[str] = None
    events: list = field(default_factory=list)

    @cached_property
    def record(self) -> dict:
        """This receipt's trace record, built on first read and then kept:
        a run's pre-settlement snapshot and its final trace read the same one."""
        return {
            "type": "receipt",
            "seq": self.seq,
            "tick": self.tick,
            "target": self.target.hex(),
            "function": self.function,
            "units": self.units,
            "gas_used": self.gas_used,
            "usd_cost": str(self.usd_cost),
            "usd_display": fmt_usd(self.usd_cost),
            "success": self.success,
            "error": self.error,
            "events": self.events,
            "caller": self.caller.hex(),
        }

    def to_record(self, include_caller: bool = True) -> dict:
        """`record` itself, which every caller shares and none may modify;
        without `caller`, a new dict of its other entries."""
        record = self.record
        return record if include_caller else {k: v for k, v in record.items() if k != "caller"}


class TxContext:
    """Execution context handed to a contract function.

    Outgoing value moves are queued and applied only if the call succeeds.
    """

    def __init__(self, ledger: "Ledger", caller: bytes, value: int):
        self.ledger = ledger
        self.caller = caller
        self.value = value
        self.tick = ledger.tick
        self.events: list[dict] = []
        self._payouts: list[tuple[bytes, int]] = []

    def emit(self, name: str, **fields):
        self.events.append({"event": name, **{k: _jsonable(v) for k, v in fields.items()}})

    def pay_out(self, to: bytes, amount: int):
        if amount < 0:
            raise ContractRevert("negative payout")
        self._payouts.append((to, amount))

    def contract_at(self, address: bytes):
        contract = self.ledger.contracts.get(address)
        if contract is None:
            raise ContractRevert("no contract at target address")
        return contract


def _jsonable(value):
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    return value


# The write journal of the transaction in progress, None outside one: for each
# container the transaction wrote to, keyed by its id, the container and a
# shallow copy of its contents before the first write. It is module state
# because a container holds no reference to its ledger; transactions do not
# nest and the simulator runs one at a time, and `submit_tx` clears it.
_journal: Optional[dict] = None


def _save(container):
    """Journal `container` before its first write in a transaction."""
    if _journal is not None and id(container) not in _journal:
        _journal[id(container)] = (container, container.copy())


def _journaled(value):
    """`value` with every plain dict and list in it rebuilt as a journaled
    one; journaled containers and other values are returned as they are.
    Every mutator stores what this returns, in a transaction or not."""
    kind = type(value)
    if kind is dict:
        return JournaledDict({k: _journaled(v) for k, v in value.items()})
    if kind is list:
        return JournaledList([_journaled(v) for v in value])
    return value


def _saving(method):
    """`method`, saving its container to the write journal first."""

    def mutator(self, *args, **kwargs):
        _save(self)
        return method(self, *args, **kwargs)

    return mutator


class JournaledDict(dict):
    """A dict of contract state that saves itself to the write journal
    before its first write in a transaction."""

    __slots__ = ()

    def _restore(self, saved: dict):
        dict.clear(self)
        dict.update(self, saved)

    def __setitem__(self, key, value):
        _save(self)
        dict.__setitem__(self, key, _journaled(value))

    def setdefault(self, key, default=None):
        if key not in self:
            self[key] = default
        return self[key]

    def update(self, *args, **kwargs):
        _save(self)
        dict.update(self, {k: _journaled(v) for k, v in dict(*args, **kwargs).items()})

    def __ior__(self, other):
        self.update(other)
        return self

    __delitem__ = _saving(dict.__delitem__)
    pop = _saving(dict.pop)
    popitem = _saving(dict.popitem)
    clear = _saving(dict.clear)


class JournaledList(list):
    """A list of contract state that saves itself to the write journal
    before its first write in a transaction."""

    __slots__ = ()

    def _restore(self, saved: list):
        list.__setitem__(self, slice(None), saved)

    def __setitem__(self, index, value):
        _save(self)
        if isinstance(index, slice):
            list.__setitem__(self, index, [_journaled(v) for v in value])
        else:
            list.__setitem__(self, index, _journaled(value))

    def append(self, value):
        _save(self)
        list.append(self, _journaled(value))

    def extend(self, values):
        _save(self)
        list.extend(self, [_journaled(v) for v in values])

    def __iadd__(self, values):
        self.extend(values)
        return self

    def insert(self, index, value):
        _save(self)
        list.insert(self, index, _journaled(value))

    __delitem__ = _saving(list.__delitem__)
    __imul__ = _saving(list.__imul__)
    pop = _saving(list.pop)
    remove = _saving(list.remove)
    clear = _saving(list.clear)
    sort = _saving(list.sort)
    reverse = _saving(list.reverse)


class Contract:
    """Base class: state lives in `self.state`.

    State holds only dict, list, str, int, bool and None, and no dict or
    list is reachable from two places. Each dict and list in it is
    journaled: before its first write in a transaction it saves a shallow
    copy of itself, a revert restores the saved containers in place, and a
    commit drops the copies. One storage rule holds in a transaction and
    out of one (`on_tick`, set-up, whose writes are not journaled): a dict
    or list stored into the state is rebuilt as a journaled one at once,
    so the state never holds the object the caller passed, and later writes
    to it go through the state. A class an EOA deploys names its deploy-gas
    function in `deploy_fn`.
    """

    def __init__(self, ledger: "Ledger", address: bytes, **ctor):
        # a proxy, so that the ledger does not wait for the cycle collector
        self.ledger = weakref.proxy(ledger)
        self.address = address
        self.state: dict[str, Any] = {}
        self.init_state(**ctor)
        self.state = _journaled(self.state)

    def __deepcopy__(self, memo):
        """A deep copy that holds a proxy of the copied ledger, whether the
        copy reached the ledger or this contract first."""
        twin = memo[id(self)] = object.__new__(type(self))
        twin.__dict__.update(copy.deepcopy(self.__dict__, memo))
        twin.ledger = weakref.proxy(twin.ledger)
        return twin

    def init_state(self, **ctor):
        pass

    def gas_units(self, fn: str, args: dict) -> int:
        return 1

    def handle(self, fn: str, ctx: TxContext, args: dict):
        handler: Optional[Callable] = getattr(self, "fn_" + fn, None)
        if handler is None:
            raise ContractRevert(f"unknown function {fn}")
        return handler(ctx, **args)

    def on_tick(self, tick: int):
        pass

    def state_dump(self) -> dict:
        return _jsonable(self.state)


class Ledger:
    def __init__(self, schedule: Optional[GasSchedule] = None):
        self.schedule = schedule or GasSchedule.default()
        self.accounts: dict[bytes, Account] = {}
        self.contracts: dict[bytes, Contract] = {}
        self.receipts: list[TxReceipt] = []
        self.tick = 0
        self.gas_sink = 0
        self.burn_sink = 0
        self.minted = 0
        self._nonces: dict[bytes, int] = {}

    def __deepcopy__(self, memo):
        """A deep copy that a contract's proxy copies to as well.

        A contract's weakref.proxy forwards this method to its ledger, so
        the proxy copies to the ledger's copy, not to a new, empty Ledger;
        Contract.__deepcopy__ then wraps the copy in a proxy of its own.
        """
        twin = memo.get(id(self))
        if twin is None:
            twin = memo[id(self)] = object.__new__(type(self))
            twin.__dict__.update(copy.deepcopy(self.__dict__, memo))
        return twin

    # -- accounts ----------------------------------------------------------

    def register_eoa(self, address: bytes) -> Account:
        if address in self.accounts:
            raise LedgerError("address already registered")
        account = Account(address)
        self.accounts[address] = account
        return account

    def fund(self, address: bytes, amount: int):
        account = self.accounts.get(address)
        if account is None:
            raise LedgerError("cannot fund unknown address")
        if amount < 0:
            raise LedgerError("cannot fund a negative amount")
        account.balance += amount
        self.minted += amount

    def balance(self, address: bytes) -> int:
        account = self.accounts.get(address)
        if account is None:
            raise LedgerError("unknown address")
        return account.balance

    # -- deployment --------------------------------------------------------

    def predict_address(self, creator: bytes, nonce: int) -> bytes:
        return hash256(creator + nonce.to_bytes(8, "big"))[-20:]

    def deploy_contract(self, creator: bytes, contract_cls: type[Contract], **ctor) -> Contract:
        """Deploy from an EOA, charging the contract kind's deploy gas."""
        caller = self.accounts.get(creator)
        if caller is None or creator in self.contracts:
            raise LedgerError("creator must be an existing EOA")
        fn = contract_cls.deploy_fn
        gas = self.schedule.gas_for(fn)
        fee = gas * self.schedule.wei_per_gas
        if caller.balance < fee:
            raise LedgerError("insufficient balance for deployment gas")
        contract = self.deploy_contract_internal(creator, contract_cls, **ctor)
        caller.balance -= fee
        self.gas_sink += fee
        self._record(caller.address, contract.address, fn, 1, gas, True, None, [])
        return contract

    def deploy_contract_internal(self, creator: bytes, contract_cls: type[Contract], **ctor) -> Contract:
        """Place a contract at the creator's next predicted address, charging
        nothing: `deploy_contract` charges an EOA's deploy gas, and a
        deployment initiated by another contract is paid by the outer call."""
        nonce = self._nonces.get(creator, 0)
        address = self.predict_address(creator, nonce)
        if address in self.accounts:
            raise LedgerError("contract address collision")
        self._nonces[creator] = nonce + 1
        self.accounts[address] = Account(address)
        contract = contract_cls(self, address, **ctor)
        self.contracts[address] = contract
        return contract

    # -- transactions ------------------------------------------------------

    def submit_tx(self, caller: bytes, target: bytes, function: str, args: Optional[dict] = None, value: int = 0) -> TxReceipt:
        global _journal
        args = args or {}
        account = self.accounts.get(caller)
        if account is None or caller in self.contracts:
            raise LedgerError("caller must be an existing EOA")
        contract = self.contracts.get(target)
        if contract is None:
            raise LedgerError("unknown target contract")
        units = contract.gas_units(function, args)
        gas = self.schedule.gas_for(function, units)
        fee = gas * self.schedule.wei_per_gas
        if account.balance < fee + value:
            raise LedgerError("insufficient balance for gas and value")

        account.balance -= fee
        self.gas_sink += fee
        account.balance -= value
        self.accounts[target].balance += value

        _journal = journal = {}
        ctx = TxContext(self, caller, value)
        contract_account = self.accounts[target]
        try:
            contract.handle(function, ctx, args)
            if sum(amount for _, amount in ctx._payouts) > contract_account.balance:
                # treat as a programming error in the contract, not user input
                raise ContractRevert("contract overdraw")
        except ContractRevert as exc:
            for container, saved in reversed(journal.values()):
                container._restore(saved)
            contract_account.balance -= value
            account.balance += value
            return self._record(caller, target, function, units, gas, False, str(exc), [])
        finally:
            _journal = None

        for to, amount in ctx._payouts:
            contract_account.balance -= amount
            dest = self.accounts.get(to)
            if dest is None:
                dest = Account(to)
                self.accounts[to] = dest
            dest.balance += amount
        return self._record(caller, target, function, units, gas, True, None, ctx.events)

    def _record(self, caller, target, function, units, gas, success, error, events) -> TxReceipt:
        receipt = TxReceipt(
            seq=len(self.receipts),
            tick=self.tick,
            caller=caller,
            target=target,
            function=function,
            units=units,
            gas_used=gas,
            usd_cost=self.schedule.usd_exact(gas),
            success=success,
            error=error,
            events=events,
        )
        self.receipts.append(receipt)
        return receipt

    # -- clock -------------------------------------------------------------

    def advance_time(self, tick: int):
        if tick < self.tick:
            raise LedgerError("clock cannot move backwards")
        while self.tick < tick:
            self.tick += 1
            for contract in list(self.contracts.values()):
                contract.on_tick(self.tick)

    # -- bookkeeping hooks for settlement ------------------------------------

    def hook_burn(self, contract_address: bytes, amount: int):
        """Burn escrow during an epoch-boundary hook (no transaction)."""
        account = self.accounts[contract_address]
        if amount < 0 or amount > account.balance:
            raise LedgerError("invalid hook burn")
        account.balance -= amount
        self.burn_sink += amount

    # -- audit and export ----------------------------------------------------

    def audit(self):
        total = sum(acc.balance for acc in self.accounts.values())
        if total + self.gas_sink + self.burn_sink != self.minted:
            raise LedgerError(
                f"conservation violated: balances={total} gas={self.gas_sink} "
                f"burn={self.burn_sink} minted={self.minted}"
            )

    def gas_total(self) -> int:
        return sum(r.gas_used for r in self.receipts)

    def onchain_state(self, include_callers: bool = True) -> dict:
        """A snapshot of the chain: each contract's state as a `state_dump`
        copy, which later transactions leave as it is, and each receipt's
        record as `TxReceipt.to_record` gives it."""
        return {
            "contracts": {addr.hex(): c.state_dump() for addr, c in sorted(self.contracts.items())},
            "receipts": [r.to_record(include_caller=include_callers) for r in self.receipts],
        }

    def state_digest(self, state: dict) -> bytes:
        """json_digest of `state`, a document shaped as onchain_state's: that
        snapshot, or one that holds each contract's live `state`, which
        holds no bytes and so hashes as its state_dump copy would."""
        return json_digest(state)


# json_pieces encodes a list or str-keyed dict of more entries than this one
# block of entries at a time, so no piece holds more than a block's JSON.
_BLOCK = 64
# How many dict levels down json_pieces looks for such a container: a run's
# state document holds the registry's mailmen at the third (contracts, the
# registry's state, mailmen). A level looked through costs every document a
# little time but makes no more pieces.
_DEPTH = 3
_encode = json.JSONEncoder(sort_keys=True).encode


def _splits(value, depth: int) -> bool:
    """Whether json_pieces splits `value`: a list or str-keyed dict of more
    than _BLOCK entries, or a str-keyed dict that holds one it splits within
    `depth` levels. A dict with another key is encoded whole, since json
    sorts its keys before it stringifies them."""
    if isinstance(value, list):
        return len(value) > _BLOCK
    if isinstance(value, dict):
        return (
            len(value) > _BLOCK or depth > 0 and any(_splits(v, depth - 1) for v in value.values())
        ) and all(isinstance(key, str) for key in value)
    return False


def _split_pieces(value, depth: int) -> Iterator[bytes]:
    """json_pieces of a value that _splits. A container of more than _BLOCK
    entries is encoded a block of entries per call, brackets stripped; a
    smaller dict yields each entry that splits by itself and encodes its
    other entries together."""
    is_dict = isinstance(value, dict)
    yield b"{" if is_dict else b"["
    entries = iter(sorted(value.items()) if is_dict else value)
    if len(value) > _BLOCK:
        runs = [(False, entries)]
    else:
        runs = groupby(entries, lambda entry: _splits(entry[1], depth - 1))
    sep = b""
    for split, run in runs:
        if split:
            for key, inner in run:
                yield sep + _encode(key).encode() + b": "
                yield from _split_pieces(inner, depth - 1)
                sep = b", "
        else:
            while block := list(islice(run, _BLOCK)):
                yield sep + _encode(dict(block) if is_dict else block)[1:-1].encode()
                sep = b", "
    yield b"}" if is_dict else b"]"


def json_pieces(value) -> Iterator[bytes]:
    """The bytes of json.dumps(value, sort_keys=True).encode(), one bounded
    piece at a time. The number of pieces grows with the document's size,
    not with its nesting: a document with no container over one block is
    one piece, from one encode call."""
    if _splits(value, _DEPTH):
        yield from _split_pieces(value, _DEPTH)
    else:
        yield _encode(value).encode()


def json_digest(value) -> bytes:
    """hash256 of json.dumps(value, sort_keys=True).encode(), without ever
    holding more than one of json_pieces' pieces."""
    digest = hashlib.sha3_256()
    for piece in json_pieces(value):
        digest.update(piece)
    return digest.digest()
