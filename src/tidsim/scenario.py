"""Scenario configuration, the simulation driver, and run traces.

A scenario builds one marketplace (ledger + agent + registered pool), sets
up one delivery service, and drives it through the pending phase and the
delivery epochs until settlement. Everything is a deterministic function of
(config, seed): actor steps run in fixed order, availability coin flips come
from the single injected random stream, and the trace hash is reproducible
byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from functools import cached_property
from itertools import chain
from random import Random
from typing import Iterator, Optional

from .actors import (
    FAULT_POLICIES,
    MailmanActor,
    POLICY_FAKE,
    POLICY_HONEST,
    POLICY_PREMATURE,
    POLICY_WITHHOLD_LIGHT,
    ProtocolError,
    RecipientActor,
    SenderActor,
    TAG_BUNDLE,
    TAG_KEY,
    TAG_PACKAGE,
    TAG_SHARE,
    body_of,
    peel_with_keys,
    tag_of,
)
from .channels import MessageBus
from .contracts import (
    AgentContract,
    MAILMAN_ACTIVE,
    RegistryContract,
    STATUS_DELIVERED_LIGHT,
    StrawmanContract,
)
from .crypto import (
    Share,
    encode_parts,
    hash256,
    keypairs_gen,
    new_secret_key,
    scope,
    ss_restore,
    ss_split,
    sym_encrypt,
)
from .ledger import (
    FN_DEPLOY_SUPPLEMENTARY,
    FN_INFORM_AGENT,
    FN_PROVE_AGREEMENT,
    FN_RECIPIENT_RECEIPT,
    FN_REPORT_ABSENT,
    FN_REPORT_FAKE,
    FN_REPORT_PREMATURE,
    FN_REVEAL_IDENTITY,
    FN_REVEAL_PRIVKEY,
    FN_STRAWMAN_NEW_SERVICE,
    FN_STRAWMAN_REPORT_PREMATURE,
    FN_STRAWMAN_REVEAL_RECEIPT,
    FN_STRAWMAN_REVEAL_SHARE,
    FN_WITHDRAW,
    GasSchedule,
    Ledger,
    SERVICE_FUNCTIONS,
    WEI_PER_ETHER,
    json_digest,
    public_record,
)

MODE_SILENT = "silent"
MODE_STRAWMAN = "strawman"


class ConfigError(ValueError):
    pass


# The latest tick a run may reach, timeframe_tick + 6 * epoch_ticks. The
# ledger steps every contract once per tick, so a run's time grows with its
# last tick: a light run that ends at this bound took 1.1 s on a 2-core
# x86-64 host.
MAX_LAST_TICK = 10**6


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# what a JSON value must be for each field annotation of ScenarioConfig
_JSON_TYPES = {
    "int": ("an integer", _is_int),
    "float": ("a number", lambda v: _is_int(v) or isinstance(v, float)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "dict": ("an object", lambda v: isinstance(v, dict)),
    "tuple": ("a list of integers", lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v))),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated knobs for one simulation run (see README for the schema)."""

    seed: int = 0
    pool_size: int = 12
    l: int = 3
    t: int = 4
    n: int = 10
    deposit_wei: int = WEI_PER_ETHER
    remuneration_wei: int = WEI_PER_ETHER // 2
    min_deposit_wei: Optional[int] = None
    availability: float = 1.0
    epoch_ticks: int = 1
    day: int = 0
    slot: int = 8
    fault_policies: dict = field(default_factory=dict)  # pool index -> policy
    refusals: tuple = ()  # pool indices that refuse recruitment
    selection_override: Optional[tuple] = None  # pool indices, length n
    withdraw_at_end: bool = True
    mode: str = MODE_SILENT
    metadata_visible: bool = True
    drop_prob: float = 0.0
    tamper_package: bool = False

    @property
    def timeframe_tick(self) -> int:
        return self.day * 24 + self.slot

    def validate(self) -> "ScenarioConfig":
        if self.pool_size < self.n:
            raise ConfigError(f"pool_size {self.pool_size} below group size n={self.n}")
        if not 1 <= self.t <= self.n:
            raise ConfigError(f"invalid threshold t={self.t} for n={self.n}")
        if not 1 <= self.l <= self.n:
            raise ConfigError(f"onion depth l={self.l} must be within 1..n")
        if not 0.0 <= self.availability <= 1.0:
            raise ConfigError("availability must lie in [0, 1]")
        if not 0.0 <= self.drop_prob < 1.0:
            raise ConfigError("drop_prob must lie in [0, 1)")
        if self.epoch_ticks < 1:
            raise ConfigError("epoch_ticks must be at least 1")
        if self.day < 0 or not 0 <= self.slot < 24:
            raise ConfigError(f"time frame day={self.day} slot={self.slot}: need day >= 0 and 0 <= slot < 24")
        if self.timeframe_tick < 3:
            raise ConfigError("time frame too early: setup and pending need ticks 0..2")
        if self.timeframe_tick + 6 * self.epoch_ticks > MAX_LAST_TICK:
            raise ConfigError(
                f"clock too long: time frame tick {self.timeframe_tick} + 6 * epoch_ticks "
                f"{self.epoch_ticks} exceeds the last tick {MAX_LAST_TICK}"
            )
        if self.mode not in (MODE_SILENT, MODE_STRAWMAN):
            raise ConfigError(f"unknown mode {self.mode!r}")
        for index, policy in self.fault_policies.items():
            if not self._is_pool_index(index):
                raise ConfigError(f"fault policy names unknown mailman {index!r}")
            if policy not in FAULT_POLICIES:
                raise ConfigError(f"unknown fault policy {policy!r}")
        for index in self.refusals:
            if not self._is_pool_index(index):
                raise ConfigError(f"refusal names unknown mailman {index!r}")
        if self.selection_override is not None:
            chosen = list(self.selection_override)
            if len(chosen) != self.n or len(set(chosen)) != self.n:
                raise ConfigError("selection_override must list n distinct pool indices")
            if not all(map(self._is_pool_index, chosen)):
                raise ConfigError("selection_override names unknown mailmen")
        if self.deposit_wei <= 0 or self.remuneration_wei <= 0:
            raise ConfigError("deposit and remuneration must be positive")
        if self.min_deposit_wei is not None and self.min_deposit_wei > self.deposit_wei:
            raise ConfigError(
                f"min_deposit_wei {self.min_deposit_wei} exceeds deposit_wei {self.deposit_wei}: "
                "no mailman could register"
            )
        return self

    def _is_pool_index(self, index) -> bool:
        """Whether `index` is an int naming a pool member: the run looks
        mailmen up by int, so a string such as "1" would name none."""
        return _is_int(index) and 0 <= index < self.pool_size

    def to_dict(self) -> dict:
        raw = asdict(self)
        raw["fault_policies"] = {str(k): v for k, v in self.fault_policies.items()}
        raw["refusals"] = list(self.refusals)
        raw["selection_override"] = (
            list(self.selection_override) if self.selection_override is not None else None
        )
        return raw

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        """A validated config from parsed JSON: a value of the wrong type is
        a ConfigError, as an out-of-range one is."""
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, not {type(raw).__name__}")
        fields = cls.__dataclass_fields__
        unknown = set(raw) - set(fields)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in raw.items():
            annotation = fields[key].type
            if value is None and annotation.startswith("Optional["):
                continue
            expected, accepts = _JSON_TYPES[annotation.removeprefix("Optional[").removesuffix("]")]
            if not accepts(value):
                raise ConfigError(f"{key} must be {expected}, got {json.dumps(value)}")
        data = dict(raw)
        if "fault_policies" in data:
            try:
                data["fault_policies"] = {int(k): v for k, v in data["fault_policies"].items()}
            except ValueError as exc:
                raise ConfigError("fault_policies keys must be pool indices") from exc
        if "refusals" in data:
            data["refusals"] = tuple(data["refusals"])
        if data.get("selection_override") is not None:
            data["selection_override"] = tuple(data["selection_override"])
        return cls(**data).validate()

    @classmethod
    def from_json_file(cls, path: str) -> "ScenarioConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc
        return cls.from_dict(raw)


@dataclass
class ScenarioTrace:
    config: dict
    mode: str
    status: str
    epoch_sequence: list[int]
    receipts: list[dict]
    messages: list[dict]
    slashes: list[dict]
    selected: list[int]
    selected_addresses: list[str]
    balances: dict[str, int]
    roles: dict[str, str]
    total_gas: int
    service_gas: int
    shares_recovered_light: int
    info_delivered: bool
    # the chain when settlement began: each contract's state_dump then, and
    # how many of `receipts` it held
    pre_settlement_contracts: dict
    pre_settlement_receipts: int
    final_digest: str

    @cached_property
    def pre_settlement_state(self) -> dict:
        """The chain when settlement began, as the snapshot that
        pre_settlement_digest hashes: the contract dumps and each receipt
        record then without its caller (ledger.public_record), built on
        first read."""
        receipts = self.receipts[: self.pre_settlement_receipts]
        return {"contracts": self.pre_settlement_contracts, "receipts": [public_record(r) for r in receipts]}

    @cached_property
    def pre_settlement_digest(self) -> str:
        """Hex hash of pre_settlement_state, computed on first read."""
        return json_digest(self.pre_settlement_state).hex()

    def trace_hash(self) -> str:
        return json_digest(
            {
                "config": self.config,
                "status": self.status,
                "epochs": self.epoch_sequence,
                "receipts": self.receipts,
                "messages": self.messages,
                "balances": self.balances,
                "digest": self.final_digest,
            }
        ).hex()

    def summary(self) -> dict:
        return {
            "type": "summary",
            "mode": self.mode,
            "status": self.status,
            "epochs": self.epoch_sequence,
            "total_gas": self.total_gas,
            "service_gas": self.service_gas,
            "info_delivered": self.info_delivered,
            "slashes": len(self.slashes),
            "trace_hash": self.trace_hash(),
        }

    def jsonl_lines(self, summary: Optional[dict] = None) -> Iterator[str]:
        """The lines of to_jsonl(), each with its newline, one at a time.

        A caller that already holds summary() passes it, so the trace is hashed once.
        """
        yield json.dumps(self.summary() if summary is None else summary, sort_keys=True) + "\n"
        for record in chain(self.receipts, self.messages):
            yield json.dumps(record, sort_keys=True) + "\n"

    def to_jsonl(self) -> str:
        return "".join(self.jsonl_lines())


class ScenarioRunner:
    """Builds one marketplace and drives one service run to settlement."""

    def __init__(self, config: ScenarioConfig, schedule: Optional[GasSchedule] = None):
        self.config = config.validate()
        self.rng = Random(config.seed)
        self.ledger = Ledger(schedule)
        self.bus = MessageBus(drop_prob=config.drop_prob, rng=self.rng)
        self.agent: Optional[AgentContract] = None
        self.strawman: Optional[StrawmanContract] = None
        self.registry: Optional[RegistryContract] = None  # whichever of the two is deployed
        self.sender: Optional[SenderActor] = None
        self.recipient: Optional[RecipientActor] = None
        self.pool: list[MailmanActor] = []
        self.shares_light = 0

    # -- marketplace -----------------------------------------------------------

    def build_marketplace(self):
        cfg = self.config
        fund = 10_000 * WEI_PER_ETHER

        # every key is drawn here, in order: operator, sender and its channel,
        # recipient and its channel, then each courier's account, channel and timeframe key
        operator_kp, sender_kp, sender_channel, recipient_kp, recipient_channel, *courier_keys = keypairs_gen(
            self.rng, 5 + 3 * cfg.pool_size
        )
        self.ledger.register_eoa(operator_kp.address)
        self.ledger.fund(operator_kp.address, fund)

        min_deposit = cfg.min_deposit_wei if cfg.min_deposit_wei is not None else cfg.deposit_wei
        if cfg.mode == MODE_SILENT:
            self.agent = self.ledger.deploy_contract(
                operator_kp.address, AgentContract, min_deposit=min_deposit, epoch_ticks=cfg.epoch_ticks
            )
        else:
            self.strawman = self.ledger.deploy_contract(
                operator_kp.address, StrawmanContract, min_deposit=min_deposit, settle_ticks=2 * cfg.epoch_ticks
            )

        for kp in (sender_kp, recipient_kp):
            self.ledger.register_eoa(kp.address)
            self.ledger.fund(kp.address, fund)
        self.bus.register_channel_key(sender_kp.address, sender_channel.pubkey)

        self.registry = registry = self.agent if self.agent is not None else self.strawman
        for i in range(cfg.pool_size):
            account, channel, timeframe = courier_keys[3 * i : 3 * i + 3]
            mailman = MailmanActor(
                keypair=account,
                channel_keys=channel,
                timeframe_keys={cfg.timeframe_tick: timeframe},
                ledger=self.ledger,
                bus=self.bus,
                agent=registry,
                deposit=cfg.deposit_wei,
                policy=cfg.fault_policies.get(i, POLICY_HONEST),
                refuse_service=i in cfg.refusals,
            )
            self.ledger.register_eoa(mailman.address)
            self.ledger.fund(mailman.address, fund)
            mailman.register()
            self.pool.append(mailman)

        self.recipient = RecipientActor(keypair=recipient_kp, channel_keys=recipient_channel, bus=self.bus)
        self.recipient.join()

        self.sender = SenderActor(
            keypair=sender_kp,
            rng=self.rng,
            ledger=self.ledger,
            bus=self.bus,
            agent=registry,
            recipient_addr=recipient_kp.address,
            info=b"pending-information-%d" % cfg.seed,
            l=cfg.l,
            t=cfg.t,
            n=cfg.n,
            timeframe_tick=cfg.timeframe_tick,
            remuneration=cfg.remuneration_wei,
            tamper_package=cfg.tamper_package,
        )
        self.ledger.audit()

    # -- helpers ---------------------------------------------------------------

    def _available(self) -> bool:
        return self.rng.random() < self.config.availability

    def _revealers(self, lightweight: bool, coin: bool = True):
        """The recruited couriers that reveal their key in a round, in
        recruitment order. With `coin`, each one whose policy reveals draws
        the availability coin as the round reaches it."""
        for mailman in self.sender.selected:
            if mailman.reveals(lightweight) and (not coin or self._available()):
                yield mailman

    def _service(self) -> dict:
        return self.registry.state["services"][self.sender.service_id]

    def _drain_broadcast_keys(self) -> list[int]:
        """Deliver pending messages and read every key published so far from
        the public broadcast log. The recipient notes each one; the distinct
        scalars are returned in ascending order."""
        self.bus.deliver_pending(self.ledger.tick)
        scalars = [
            int.from_bytes(body_of(msg.payload)[0], "big")
            for msg in self.bus.broadcast_log()
            if tag_of(msg.payload) == TAG_KEY
        ]
        for scalar in scalars:
            self.recipient.note_key(scalar)
        return sorted(set(scalars))

    def _broadcast_key(self, mailman: MailmanActor):
        scalar = mailman.reveal_scalar(self.config.timeframe_tick)
        self.bus.broadcast(mailman.address, TAG_KEY + encode_parts(scalar))

    def _deploy_supplementary(self, mailman: MailmanActor):
        self.ledger.submit_tx(
            mailman.address,
            self.sender.switch.address,
            FN_DEPLOY_SUPPLEMENTARY,
            {"sup_code": mailman.sup_code, "vrs_sup": mailman.vrs_sup},
        )

    def _sup_contract(self):
        sup_addr = bytes.fromhex(self._service()["sup_addr"])
        return self.ledger.contracts.get(sup_addr)

    def _restore_from_broadcast(self, courier: MailmanActor) -> Optional[bytes]:
        """The delivery key a courier restores by peeling its onions with every
        scalar published so far; None below t shares."""
        keys = [s.to_bytes(32, "big") for s in self._drain_broadcast_keys()]
        shares = peel_with_keys(courier.onions, keys)
        if len(shares) < self.config.t:
            return None
        return ss_restore(list(shares.values()), self.config.t)

    def _first_honest(self, available_ok: set) -> Optional[MailmanActor]:
        for m in self.sender.selected:
            if m.policy in (POLICY_HONEST, POLICY_WITHHOLD_LIGHT) and m.address in available_ok:
                return m
        return None

    # -- the run -----------------------------------------------------------------

    def run(self) -> ScenarioTrace:
        with scope():  # the run's keys, signatures and layers, see crypto.scope
            self.build_marketplace()
            if self.config.mode == MODE_STRAWMAN:
                self._run_strawman()
            else:
                self._run_silent()
            pre_contracts, pre_receipts = self.ledger.contract_dumps(), len(self.ledger.receipts)
            if self.config.withdraw_at_end:
                self._settlement_phase()
            self.ledger.audit()
            return self._build_trace(pre_contracts, pre_receipts)

    def _run_silent(self):
        cfg = self.config
        self.sender.setup()
        self.sender.recruit(self.pool, cfg.selection_override)
        self._deliver_recruitment_messages()

        # pending phase: deliberate disclosures, observation, mode switch
        self.ledger.advance_time(cfg.timeframe_tick - 2)
        self._pend_phase()
        self.ledger.audit()

        svc = self._service()
        self.ledger.advance_time(cfg.timeframe_tick)
        guard = 0
        while svc["epoch"] != 6:
            guard += 1
            if guard > 20:
                raise ProtocolError("epoch state machine failed to terminate")
            epoch = svc["epoch"]
            if epoch == 1:
                self._epoch1_lightweight()
            elif epoch == 2:
                self._epoch2_switch()
            elif epoch == 3:
                self._epoch3_reveal_onchain()
            elif epoch == 4:
                self._epoch4_reporting()
            elif epoch == 5:
                self._epoch5_second_receipt()
            if svc["epoch"] == epoch:
                self.ledger.advance_time(self.ledger.tick + cfg.epoch_ticks)
            self.ledger.audit()

    def _deliver_recruitment_messages(self):
        """Bundle/onion/package fan-out, including the resend path."""
        self.bus.deliver_pending(self.ledger.tick)
        for mailman in self.sender.selected:
            for msg in self.bus.recv(mailman.address):
                if tag_of(msg.payload) == TAG_BUNDLE:
                    accepted = mailman.accept_bundle(self.sender.address, body_of(msg.payload))
                    if not accepted:
                        raise ProtocolError("mailman rejected a signed bundle")
        package_ok = False
        for attempt in range(4):  # the first delivery and up to three resends
            if attempt:
                # drain any resend request; a lost package produces none and the
                # sender retries after a timeout either way
                self.bus.deliver_pending(self.ledger.tick)
                self.bus.recv(self.sender.address)
                self.sender.resend_package()
                self.bus.deliver_pending(self.ledger.tick)
            for msg in self.bus.recv(self.recipient.address):
                if tag_of(msg.payload) == TAG_PACKAGE:
                    package_ok = self.recipient.accept_package(self.sender.address, msg.payload)
            if package_ok:
                break
        # a recipient that never received the package simply cannot restore;
        # the run then terminates as a failed delivery rather than an error

    def _pend_phase(self):
        disclosers = [m for m in self.sender.selected if m.policy == POLICY_PREMATURE]
        disclosers += [
            m
            for m in self.pool
            if m.policy == POLICY_PREMATURE and not m.is_recruited()
        ]
        if not disclosers:
            return
        for mailman in disclosers:
            self._broadcast_key(mailman)  # a premature courier reveals its true key
        disclosed = self._drain_broadcast_keys()
        self.ledger.advance_time(self.config.timeframe_tick - 1)

        observer = self._first_honest({m.address for m in self.sender.selected})
        if observer is None:
            return
        self._deploy_supplementary(observer)  # the first switch: the service is not heavyweight yet
        sup = self._sup_contract()
        for scalar in disclosed:
            self.ledger.submit_tx(
                observer.address,
                sup.address,
                FN_REPORT_PREMATURE,
                {"index": 0, "privkey": scalar},
            )

    def _epoch1_lightweight(self):
        cfg = self.config
        for mailman in self._revealers(lightweight=True):
            scalar = mailman.reveal_scalar(cfg.timeframe_tick)
            self.bus.send_private(
                mailman.address, self.recipient.address, TAG_KEY + encode_parts(scalar)
            )
        self.bus.deliver_pending(self.ledger.tick)
        for msg in self.bus.recv(self.recipient.address):
            if tag_of(msg.payload) == TAG_KEY:
                self.recipient.note_key(int.from_bytes(body_of(msg.payload)[0], "big"))
        if self.recipient.try_restore(cfg.t):
            self._submit_receipt()
        self.shares_light = self.recipient.shares_recovered

    def _submit_receipt(self):
        self.ledger.submit_tx(
            self.recipient.address,
            self.agent.address,
            FN_RECIPIENT_RECEIPT,
            {
                "receipt": self.recipient.receipt_secret,
                "sender_addr": self.sender.address,
                "switch_addr": self.sender.switch.address,
            },
        )

    def _epoch2_switch(self):
        available = {m.address for m in self.sender.selected if self._available()}
        deployer = self._first_honest(available)
        if not self._service()["heavyweight"]:
            if deployer is None:
                return  # nobody switches; the window will expire into failure
            self._deploy_supplementary(deployer)
        for mailman in self.sender.selected:
            if mailman.reveals(lightweight=False) and mailman.address in available:
                self._broadcast_key(mailman)
        if deployer is None:
            self._drain_broadcast_keys()  # the recipient still reads the public keys
            return
        key = self._restore_from_broadcast(deployer)
        if key is None:
            return
        agreements = [
            {"index": index, "vrs_s": vrs_s, "vrs_m": vrs_m}
            for index, (vrs_s, vrs_m) in sorted(deployer.agreements(key).items())
        ]
        self.ledger.submit_tx(
            deployer.address,
            self._sup_contract().address,
            FN_REVEAL_IDENTITY,
            {"agreements": agreements},
        )

    def _epoch3_reveal_onchain(self):
        cfg = self.config
        sup = self._sup_contract()
        for mailman in self._revealers(lightweight=False):
            self.ledger.submit_tx(
                mailman.address,
                sup.address,
                FN_REVEAL_PRIVKEY,
                {"index": mailman.index, "privkey": mailman.reveal_scalar(cfg.timeframe_tick)},
            )

    def _epoch4_reporting(self):
        sup = self._sup_contract()
        reporter = self._first_honest({m.address for m in self.sender.selected})
        reported = False
        for index in sorted(sup.state["identities"], key=int):
            if index not in sup.state["revealed_privkeys"]:
                fn = FN_REPORT_ABSENT
            elif sup.state["fake_marks"].get(index):
                fn = FN_REPORT_FAKE
            else:
                continue
            receipt = self.ledger.submit_tx(reporter.address, sup.address, fn, {"index": int(index)})
            reported = reported or receipt.success
        if reported or sup.state["premature_reports"]:
            self.ledger.submit_tx(reporter.address, sup.address, FN_INFORM_AGENT)

    def _epoch5_second_receipt(self):
        sup = self._sup_contract()
        for index, scalar_hex in sup.state["revealed_privkeys"].items():
            if not sup.state["fake_marks"].get(index):
                self.recipient.note_key(int(scalar_hex, 16))
        if self.recipient.try_restore(self.config.t):
            self._submit_receipt()

    # -- settlement --------------------------------------------------------------

    def _settlement_phase(self):
        registry = self.registry
        if self._service()["status"] == STATUS_DELIVERED_LIGHT:
            self._prove_agreements_after_light_delivery()
        for mailman in self.sender.selected:
            record = registry.state["mailmen"][mailman.address.hex()]
            claim = registry.state["claimable"].get(mailman.address.hex(), 0)
            if record["status"] == MAILMAN_ACTIVE or claim > 0:
                self.ledger.submit_tx(mailman.address, registry.address, FN_WITHDRAW)
        if registry.state["claimable"].get(self.sender.address.hex(), 0) > 0:
            self.ledger.submit_tx(self.sender.address, registry.address, FN_WITHDRAW)

    def _prove_agreements_after_light_delivery(self):
        """After a lightweight success, mailmen publish their keys, restore
        the delivery key collectively, and prove their agreements on-chain."""
        for mailman in self._revealers(lightweight=False, coin=False):
            self._broadcast_key(mailman)
        key = self._restore_from_broadcast(self.sender.selected[0])
        if key is None:
            return
        for mailman in self.sender.selected:
            agreement = mailman.agreements(key).get(mailman.index)
            if agreement is None:
                continue  # the courier's bundle was lost
            vrs_s, vrs_m = agreement
            self.ledger.submit_tx(
                mailman.address,
                self.agent.address,
                FN_PROVE_AGREEMENT,
                {
                    "switch_addr": self.sender.switch.address,
                    "index": mailman.index,
                    "vrs_m": vrs_m,
                    "vrs_s": vrs_s,
                },
            )

    # -- strawman ------------------------------------------------------------------

    def _run_strawman(self):
        cfg = self.config
        sender = self.sender
        sender.key = new_secret_key(self.rng)
        sender.receipt_secret = new_secret_key(self.rng)
        sender.selected = sender.select_mailmen(self.pool, cfg.selection_override)
        shares = ss_split(sender.key, cfg.t, cfg.n, self.rng)
        commitments = [
            (sender.selected[i].address, hash256(shares[i].to_bytes())) for i in range(cfg.n)
        ]
        self.ledger.submit_tx(
            sender.address,
            self.strawman.address,
            FN_STRAWMAN_NEW_SERVICE,
            {
                "timeframe_tick": cfg.timeframe_tick,
                "t": cfg.t,
                "n": cfg.n,
                "recipient": self.recipient.address,
                "mailman_commitments": commitments,
                "receipt_commitment": hash256(sender.receipt_secret),
            },
            value=cfg.remuneration_wei,
        )
        sid = sender.service_id = next(iter(self.strawman.state["services"]))
        for i, mailman in enumerate(sender.selected):
            self.bus.send_private(sender.address, mailman.address, TAG_SHARE + shares[i].to_bytes())
        ct = sym_encrypt(sender.key, encode_parts(sender.info, sender.receipt_secret), self.rng)
        self.bus.send_private(sender.address, self.recipient.address, TAG_PACKAGE + encode_parts(ct))
        self.bus.deliver_pending(self.ledger.tick)
        # a courier whose share was lost acts as absent throughout
        held: dict[bytes, Share] = {}
        for mailman in sender.selected:
            for msg in self.bus.recv(mailman.address):
                if tag_of(msg.payload) == TAG_SHARE:
                    held[mailman.address] = Share.from_bytes(msg.payload[len(TAG_SHARE) :])
        for msg in self.bus.recv(self.recipient.address):
            if tag_of(msg.payload) == TAG_PACKAGE:
                self.recipient.ciphertext = body_of(msg.payload)[0]

        # pending phase: premature shares are broadcast and reported
        self.ledger.advance_time(cfg.timeframe_tick - 2)
        disclosers = [m for m in sender.selected if m.policy == POLICY_PREMATURE and m.address in held]
        if disclosers:
            for mailman in disclosers:
                self.bus.broadcast(mailman.address, TAG_SHARE + held[mailman.address].to_bytes())
            self.bus.deliver_pending(self.ledger.tick)
            # the observer reports only the disclosures the bus delivered
            disclosed = [m.payload[len(TAG_SHARE) :] for m in self.bus.broadcast_log() if tag_of(m.payload) == TAG_SHARE]
            observer = next(
                (m for m in sender.selected if m.policy == POLICY_HONEST), None
            )
            if observer is not None:
                for share in disclosed:
                    self.ledger.submit_tx(
                        observer.address,
                        self.strawman.address,
                        FN_STRAWMAN_REPORT_PREMATURE,
                        {"sid": sid, "share": share},
                    )
        self.ledger.audit()

        # delivery window
        self.ledger.advance_time(cfg.timeframe_tick)
        for mailman in self._revealers(lightweight=True):
            # a lost share cannot be revealed, and a fake one fails the hash
            # check; both are modeled as absence
            if mailman.address not in held or mailman.policy == POLICY_FAKE:
                continue
            self.ledger.submit_tx(
                mailman.address,
                self.strawman.address,
                FN_STRAWMAN_REVEAL_SHARE,
                {"sid": sid, "share": held[mailman.address].to_bytes()},
            )
        revealed = [Share.from_bytes(bytes.fromhex(s)) for s in self._service()["revealed_shares"].values()]
        # a recipient that never received the package holds no ciphertext to open
        if self.recipient.restore(revealed, cfg.t):
            self.ledger.submit_tx(
                self.recipient.address,
                self.strawman.address,
                FN_STRAWMAN_REVEAL_RECEIPT,
                {"sid": sid, "receipt": self.recipient.receipt_secret},
            )
        self.ledger.advance_time(cfg.timeframe_tick + 2 * cfg.epoch_ticks)
        self.ledger.audit()

    # -- trace --------------------------------------------------------------------

    def _build_trace(self, pre_contracts: dict, pre_receipts: int) -> ScenarioTrace:
        cfg = self.config
        svc = self._service()
        hex_of = self.ledger.hex_of

        selected = [self.pool.index(m) for m in self.sender.selected]
        roles = {"sender": hex_of[self.sender.address], "recipient": hex_of[self.recipient.address]}
        for i, mailman in enumerate(self.pool):
            roles[f"mailman_{i}"] = hex_of[mailman.address]
        balances = {hex_of[addr]: acc.balance for addr, acc in self.ledger.accounts.items()}
        service_gas = sum(r.gas_used for r in self.ledger.receipts if r.function in SERVICE_FUNCTIONS)
        delivered = (
            self.recipient.info == self.sender.info
            and self.recipient.info is not None
        )
        receipts = [r.record for r in self.ledger.receipts]
        # the final digest reads the live states, not state_dump copies: they
        # hold no bytes, so they hash the same
        contracts = {hex_of[addr]: c.state for addr, c in self.ledger.contracts.items()}
        return ScenarioTrace(
            config=cfg.to_dict(),
            mode=cfg.mode,
            status=svc["status"],
            epoch_sequence=[e for _, e in svc.get("epoch_history", [])],
            receipts=receipts,
            messages=self.bus.meta_records(hex_of),
            slashes=svc["slashes"],
            selected=selected,
            selected_addresses=[hex_of[m.address] for m in self.sender.selected],
            balances=balances,
            roles=roles,
            total_gas=self.ledger.gas_total(),
            service_gas=service_gas,
            shares_recovered_light=self.shares_light,
            info_delivered=delivered,
            pre_settlement_contracts=pre_contracts,
            pre_settlement_receipts=pre_receipts,
            final_digest=self.ledger.state_digest({"contracts": contracts, "receipts": receipts}).hex(),
        )


def run_scenario(config: ScenarioConfig, schedule: Optional[GasSchedule] = None) -> ScenarioTrace:
    return ScenarioRunner(config, schedule).run()
