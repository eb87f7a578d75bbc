"""On-chain state machines.

Three contracts drive a delivery service: the agent (registry, services,
deposits, settlement), the switch (a single function that deploys the
supplementary contract at a predictable address), and the supplementary
contract (reports, identity and key reveals, the heavyweight enforcement
surface). A strawman contract implements the naive protocol that names its
mailmen on-chain at setup; it exists for cost and leakage comparison runs.
The agent and the strawman share one courier registry base: registration,
deposits, claimable balances, remuneration payout, slashing and withdrawals.

Epoch state lives in each service record and may only move along
EPOCH_GRAPH. Transitions come from transactions (a receipt in epoch 1 jumps
to 6, a successful identity reveal enters 3) or from clock boundaries fired
by the ledger.
"""

from __future__ import annotations

from typing import Optional

from .crypto import (
    Signature,
    encode_parts,
    hash256,
    pubkey_of_privkey,
    recover_signer,
)
from .ledger import (
    Contract,
    ContractRevert,
    EPOCH_GRAPH,
    FN_DEPLOY_AGENT,
    FN_DEPLOY_STRAWMAN,
    FN_DEPLOY_SUPPLEMENTARY,
    FN_DEPLOY_SWITCH,
    FN_REVEAL_IDENTITY,
    FN_STRAWMAN_NEW_SERVICE,
    TxContext,
)

STATUS_PENDING = "pending"
STATUS_DELIVERED_LIGHT = "delivered_light"
STATUS_DELIVERED_HEAVY = "delivered_heavy"
STATUS_FAILED = "failed"

MAILMAN_ACTIVE = "active"
MAILMAN_WITHDRAWN = "withdrawn"
MAILMAN_SLASHED = "slashed"

SLASH_PREMATURE = "premature"
SLASH_ABSENT = "absent"
SLASH_FAKE = "fake"
SLASH_FALSE_REPORT = "false_report"


def sup_auth_digest(switch_addr: bytes, sup_code: bytes) -> bytes:
    """Digest the sender signs to authorize deploying the supplementary code."""
    return hash256(encode_parts(switch_addr, sup_code))


def agreement_digest_mailman(switch_addr: bytes, index: int) -> bytes:
    """Digest a mailman signs to accept an assignment (index) on a service."""
    return hash256(encode_parts(switch_addr, index))


def agreement_digest_sender(switch_addr: bytes, index: int, vrs_m: Signature) -> bytes:
    """Digest the sender counter-signs over the mailman's acceptance."""
    return hash256(encode_parts(switch_addr, index, vrs_m))


def _scalar_hex(privkey: int) -> str:
    return privkey.to_bytes(32, "big").hex()


class RegistryContract(Contract):
    """Courier registry, claimable balances, payout, slashing and withdrawals.

    `init_state` creates "min_deposit", "mailmen", "services" and
    "claimable", and a subclass adds its own keys. Each service record holds
    "sender", "n", "remuneration", "shares_paid", "slashes" and "settled".
    `_pay_share` is the one payout rule: an unslashed courier earns
    `remuneration // n` once per service, credited at settlement
    (`_pay_shares`) or, after a lightweight delivery, when it proves its
    agreement. `_slash` is the one slash rule; each subclass's
    `_slash_remainder` says where the unawarded part goes.
    """

    def init_state(self, min_deposit: int = 0):
        self.state = {"min_deposit": min_deposit, "mailmen": {}, "services": {}, "claimable": {}}

    def fn_newMailman(self, ctx: TxContext, channel_pub: bytes, timeframe_pubkeys: Optional[dict] = None) -> dict:
        """Escrow the deposit and record the courier; returns the record as
        stored. The timeframe pubkeys every courier sends are kept only by
        the agent."""
        caller = ctx.caller.hex()
        if caller in self.state["mailmen"]:
            raise ContractRevert("mailman already registered")
        if ctx.value < self.state["min_deposit"]:
            raise ContractRevert("deposit below minimum")
        self.state["mailmen"][caller] = {"channel_pub": channel_pub.hex(), "deposit": ctx.value, "status": MAILMAN_ACTIVE}
        return self.state["mailmen"][caller]

    def _require_mailman(self, caller: bytes) -> dict:
        record = self.state["mailmen"].get(caller.hex())
        if record is None:
            raise ContractRevert("caller is not a registered mailman")
        return record

    def service(self, sid: str) -> dict:
        svc = self.state["services"].get(sid)
        if svc is None:
            raise ContractRevert("unknown service")
        return svc

    def _credit(self, address: str, amount: int):
        if amount:
            self.state["claimable"][address] = self.state["claimable"].get(address, 0) + amount

    def _pay_share(self, svc: dict, mailman: str) -> int:
        """Credit one remuneration share of `svc` to an unslashed mailman it
        has not paid yet; returns the amount credited."""
        if mailman in svc["shares_paid"] or self.state["mailmen"][mailman]["status"] == MAILMAN_SLASHED:
            return 0
        share = svc["remuneration"] // svc["n"]
        self._credit(mailman, share)
        svc["shares_paid"].append(mailman)
        return share

    def _pay_shares(self, svc: dict, mailmen):
        """One share to each distinct mailman listed, the rest to the sender;
        a failed service is `_pay_shares(svc, [])`."""
        paid = sum(self._pay_share(svc, mailman) for mailman in sorted(set(mailmen)))
        self._credit(svc["sender"], svc["remuneration"] - paid)

    def _slash(self, svc: dict, kind: str, accused: str, reporter: Optional[str], tick: int):
        """Slash a courier's whole deposit once: half to the reporter (none
        for a false report), the rest where the subclass's
        `_slash_remainder(svc, accused, remainder) -> (compensation, burned)`
        places it. An unknown or already slashed courier is left alone."""
        record = self.state["mailmen"].get(accused)
        if record is None or record["status"] == MAILMAN_SLASHED:
            return  # one deposit, one slash
        amount = record["deposit"]
        record["status"] = MAILMAN_SLASHED
        award = 0 if kind == SLASH_FALSE_REPORT else amount // 2
        self._credit(reporter, award)  # a false report has no reporter and no award
        compensation, burned = self._slash_remainder(svc, accused, amount - award)
        svc["slashes"].append(
            {
                "accused": accused,
                "kind": kind,
                "reporter": reporter,
                "amount": amount,
                "award": award,
                "compensation": compensation,
                "burned": burned,
                "tick": tick,
            }
        )

    def fn_withdraw(self, ctx: TxContext) -> int:
        if any(not svc["settled"] for svc in self.state["services"].values()):
            raise ContractRevert("withdrawals open after settlement")
        caller = ctx.caller.hex()
        payout = self.state["claimable"].pop(caller, 0)
        record = self.state["mailmen"].get(caller)
        if record is not None and record["status"] == MAILMAN_ACTIVE:
            payout += record["deposit"]
            record["status"] = MAILMAN_WITHDRAWN
        if payout <= 0:
            raise ContractRevert("nothing to withdraw")
        ctx.pay_out(ctx.caller, payout)
        return payout


class AgentContract(RegistryContract):
    """Marketplace registry plus per-service lifecycle and settlement."""

    deploy_fn = FN_DEPLOY_AGENT

    def init_state(self, min_deposit: int = 0, epoch_ticks: int = 1):
        super().init_state(min_deposit)
        self.state.update(epoch_ticks=epoch_ticks, pending_burn=0)

    # -- registry ------------------------------------------------------------

    def fn_newMailman(self, ctx: TxContext, channel_pub: bytes, timeframe_pubkeys: dict):
        record = super().fn_newMailman(ctx, channel_pub)
        record["timeframe_pubkeys"] = {str(t): pk.hex() for t, pk in timeframe_pubkeys.items()}
        ctx.emit("MailmanRegistered", mailman=ctx.caller, deposit=ctx.value)

    # -- services --------------------------------------------------------------

    def fn_newService(
        self,
        ctx: TxContext,
        timeframe_tick: int,
        l: int,
        t: int,
        n: int,
        switch_addr: bytes,
        sup_addr: bytes,
        recipient: bytes,
        receipt_commitment: bytes,
    ):
        if timeframe_tick <= ctx.tick:
            raise ContractRevert("time frame must be strictly in the future")
        if not 1 <= t <= n:
            raise ContractRevert("threshold exceeds share count")
        if not 1 <= l <= n:
            raise ContractRevert("onion depth must fit the recruited group")
        if ctx.value <= 0:
            raise ContractRevert("remuneration must be escrowed")
        switch = ctx.ledger.contracts.get(switch_addr)
        if not isinstance(switch, SwitchContract):
            raise ContractRevert("switch contract not found")
        if switch.state["sender"] != ctx.caller.hex():
            raise ContractRevert("switch belongs to a different sender")
        if ctx.ledger.predict_address(switch_addr, 0) != sup_addr:
            raise ContractRevert("supplementary address is not the predicted one")
        sid = switch_addr.hex()
        if sid in self.state["services"]:
            raise ContractRevert("service already exists for this switch")
        self.state["services"][sid] = {
            "sender": ctx.caller.hex(),
            "recipient": recipient.hex(),
            "timeframe_tick": timeframe_tick,
            "l": l,
            "t": t,
            "n": n,
            "switch_addr": sid,
            "sup_addr": sup_addr.hex(),
            "receipt_commitment": receipt_commitment.hex(),
            "remuneration": ctx.value,
            "status": STATUS_PENDING,
            "epoch": 0,
            "epoch_history": [[ctx.tick, 0]],
            "epoch_starts": {"0": ctx.tick},
            "heavyweight": False,
            "switched_during_pend": False,
            "deployer": None,
            "deploy_fee": 0,
            "deploy_comp_paid": 0,
            "identities": {},
            "shares_paid": [],
            "slashes": [],
            "settled": False,
        }
        switch.state["service_id"] = sid
        ctx.emit("ServiceCreated", service=sid, l=l, t=t, n=n, timeframe=timeframe_tick)
        return sid

    # -- epoch machine ---------------------------------------------------------

    def _enter_epoch(self, svc: dict, epoch: int, tick: int):
        current = svc["epoch"]
        if epoch not in EPOCH_GRAPH[current]:
            raise ContractRevert(f"illegal epoch transition {current}->{epoch}")
        svc["epoch"] = epoch
        svc["epoch_history"].append([tick, epoch])
        svc["epoch_starts"][str(epoch)] = tick
        if epoch == 6:
            self._settle(svc)

    def on_tick(self, tick: int):
        for svc in self.state["services"].values():
            self._advance_service(svc, tick)
        if self.state["pending_burn"]:
            amount = self.state["pending_burn"]
            self.state["pending_burn"] = 0
            self.ledger.hook_burn(self.address, amount)

    def _advance_service(self, svc: dict, tick: int):
        epoch = svc["epoch"]
        ticks = self.state["epoch_ticks"]
        if epoch == 0:
            if tick >= svc["timeframe_tick"]:
                self._enter_epoch(svc, 2 if svc["switched_during_pend"] else 1, tick)
            return
        if epoch == 6:
            return
        if tick < svc["epoch_starts"][str(epoch)] + ticks:
            return
        if epoch == 1:
            # receipt would have jumped straight to 6
            self._enter_epoch(svc, 2, tick)
        elif epoch == 2:
            # a successful identity reveal enters 3 as a transaction event
            svc["status"] = STATUS_FAILED
            self._enter_epoch(svc, 6, tick)
        elif epoch in (3, 4):
            self._enter_epoch(svc, epoch + 1, tick)
        elif epoch == 5:
            if svc["status"] == STATUS_PENDING:
                svc["status"] = STATUS_FAILED
            self._enter_epoch(svc, 6, tick)

    # -- receipt and withdrawals -------------------------------------------------

    def fn_recipientReceipt(self, ctx: TxContext, receipt: bytes, sender_addr: bytes, switch_addr: bytes):
        svc = self.service(switch_addr.hex())
        if svc["sender"] != sender_addr.hex():
            raise ContractRevert("sender mismatch")
        if ctx.caller.hex() != svc["recipient"]:
            raise ContractRevert("only the registered recipient may submit the receipt")
        if svc["epoch"] not in (1, 5):
            raise ContractRevert("receipt accepted only in epochs 1 and 5")
        if svc["status"] != STATUS_PENDING:
            raise ContractRevert("service already terminal")
        if hash256(receipt).hex() != svc["receipt_commitment"]:
            raise ContractRevert("receipt preimage does not match commitment")
        if svc["epoch"] == 1:
            svc["status"] = STATUS_DELIVERED_LIGHT
            self._enter_epoch(svc, 6, ctx.tick)
        else:
            svc["status"] = STATUS_DELIVERED_HEAVY
        ctx.emit("ReceiptAccepted", service=svc["switch_addr"], status=svc["status"])

    def fn_proveAgreement(self, ctx: TxContext, switch_addr: bytes, index: int, vrs_m: Signature, vrs_s: Signature):
        svc = self.service(switch_addr.hex())
        if svc["epoch"] != 6 or svc["status"] != STATUS_DELIVERED_LIGHT:
            raise ContractRevert("agreement proofs are for settled lightweight deliveries")
        mailman = self._verify_agreement(svc, switch_addr, index, vrs_m, vrs_s)
        if mailman != ctx.caller.hex():
            raise ContractRevert("agreement belongs to a different mailman")
        if str(index) in svc["identities"]:
            raise ContractRevert("index already proven")
        svc["identities"][str(index)] = mailman
        self._pay_share(svc, mailman)
        ctx.emit("AgreementProven", service=svc["switch_addr"], index=index, mailman=ctx.caller)

    def _verify_agreement(self, svc: dict, switch_addr: bytes, index: int, vrs_m: Signature, vrs_s: Signature):
        if not 1 <= index <= svc["n"]:
            raise ContractRevert("agreement index out of range")
        try:
            mailman_addr = recover_signer(agreement_digest_mailman(switch_addr, index), vrs_m)
            sender_addr = recover_signer(agreement_digest_sender(switch_addr, index, vrs_m), vrs_s)
        except Exception as exc:
            raise ContractRevert(f"agreement signature invalid: {exc}") from exc
        if mailman_addr.hex() not in self.state["mailmen"]:
            raise ContractRevert("agreement names an unregistered mailman")
        if sender_addr.hex() != svc["sender"]:
            raise ContractRevert("agreement not countersigned by the service sender")
        return mailman_addr.hex()

    def fn_withdraw(self, ctx: TxContext) -> int:
        payout = super().fn_withdraw(ctx)
        ctx.emit("Withdrawal", who=ctx.caller, amount=payout)
        return payout

    # -- mode switch bookkeeping ---------------------------------------------------

    def note_mode_switch(self, sid: str, deployer: bytes, deploy_fee: int):
        svc = self.service(sid)
        svc["heavyweight"] = True
        svc["deployer"] = deployer.hex()
        svc["deploy_fee"] = deploy_fee
        if svc["epoch"] == 0:
            svc["switched_during_pend"] = True

    # -- slashing and settlement -----------------------------------------------------

    def _slash_remainder(self, svc: dict, accused: str, remainder: int) -> tuple[int, int]:
        """Repay the deployer's outstanding deploy fee, unless it is the
        accused, and burn the rest at the next tick."""
        compensation = 0
        deployer = svc["deployer"]
        if deployer and deployer != accused:
            compensation = min(remainder, max(svc["deploy_fee"] - svc["deploy_comp_paid"], 0))
            self._credit(deployer, compensation)
            svc["deploy_comp_paid"] += compensation
        burned = remainder - compensation
        self.state["pending_burn"] += burned
        return compensation, burned

    def _settle(self, svc: dict):
        if svc["settled"]:
            return
        sup_addr = bytes.fromhex(svc["sup_addr"])
        sup = self.ledger.contracts.get(sup_addr)
        if isinstance(sup, SupplementaryContract):
            sup.finalize_into_agent(self, svc)
        if svc["status"] == STATUS_FAILED:
            self._pay_shares(svc, [])
        elif svc["status"] == STATUS_DELIVERED_HEAVY:
            self._pay_shares(svc, svc["identities"].values())
        elif svc["status"] == STATUS_DELIVERED_LIGHT:
            # each share is paid as its agreement is proven; the sender
            # gets the integer-division dust now
            self._credit(svc["sender"], svc["remuneration"] % svc["n"])
        svc["settled"] = True

    def timeframe_pubkey(self, mailman: str, tick: int) -> Optional[str]:
        record = self.state["mailmen"].get(mailman)
        if record is None:
            return None
        return record["timeframe_pubkeys"].get(str(tick))

    def find_mailman_by_timeframe_pubkey(self, tick: int, pubkey_hex: str) -> Optional[str]:
        for addr, record in self.state["mailmen"].items():
            if record["timeframe_pubkeys"].get(str(tick)) == pubkey_hex:
                return addr
        return None


class SwitchContract(Contract):
    """Single-purpose contract: anyone authorized may flip to heavyweight mode."""

    deploy_fn = FN_DEPLOY_SWITCH

    def init_state(self, agent_addr: bytes, sender: bytes, sup_code: bytes):
        self.state = {
            "agent_addr": agent_addr.hex(),
            "sender": sender.hex(),
            "sup_code": sup_code.hex(),
            "service_id": None,
            "deployed": False,
            "sup_addr": None,
            "deployer": None,
        }

    def fn_deploySupplementary(self, ctx: TxContext, sup_code: bytes, vrs_sup: Signature):
        if self.state["deployed"]:
            raise ContractRevert("supplementary contract already deployed")
        agent: AgentContract = ctx.contract_at(bytes.fromhex(self.state["agent_addr"]))
        agent._require_mailman(ctx.caller)
        if sup_code.hex() != self.state["sup_code"]:
            raise ContractRevert("supplementary code mismatch")
        try:
            signer = recover_signer(sup_auth_digest(self.address, sup_code), vrs_sup)
        except Exception as exc:
            raise ContractRevert(f"invalid authorization signature: {exc}") from exc
        if signer.hex() != self.state["sender"]:
            raise ContractRevert("authorization not signed by the service sender")
        sid = self.state["service_id"]
        if sid is None:
            raise ContractRevert("no service registered for this switch")
        svc = agent.service(sid)
        if svc["epoch"] not in (0, 2):
            raise ContractRevert("mode switch allowed only while pending or in epoch 2")
        sup = ctx.ledger.deploy_contract_internal(
            self.address,
            SupplementaryContract,
            agent_addr=bytes.fromhex(self.state["agent_addr"]),
            switch_addr=self.address,
            service_id=sid,
            deployed_by=ctx.caller,
        )
        self.state["deployed"] = True
        self.state["sup_addr"] = sup.address.hex()
        self.state["deployer"] = ctx.caller.hex()
        deploy_fee = ctx.ledger.schedule.gas_for(FN_DEPLOY_SUPPLEMENTARY) * ctx.ledger.schedule.wei_per_gas
        agent.note_mode_switch(sid, ctx.caller, deploy_fee)
        ctx.emit("SupplementaryDeployed", sup=sup.address, deployer=ctx.caller)
        return sup.address


class SupplementaryContract(Contract):
    """Heavyweight enforcement surface, deployed on demand via the switch."""

    def init_state(self, agent_addr: bytes, switch_addr: bytes, service_id: str, deployed_by: bytes):
        self.state = {
            "agent_addr": agent_addr.hex(),
            "switch_addr": switch_addr.hex(),
            "service_id": service_id,
            "deployed_by": deployed_by.hex(),
            "premature_reports": [],
            "identities": {},
            "revealed_privkeys": {},
            "fake_marks": {},
            "absent_reports": [],
            "fake_reports": [],
            "finalized": False,
        }

    def gas_units(self, fn: str, args: dict) -> int:
        if fn == FN_REVEAL_IDENTITY:
            return max(len(args.get("agreements", [])), 1)
        return 1

    def _agent(self, ctx: TxContext) -> AgentContract:
        return ctx.contract_at(bytes.fromhex(self.state["agent_addr"]))

    def _service(self, ctx: TxContext) -> dict:
        return self._agent(ctx).service(self.state["service_id"])

    def _mailman_in_epoch(self, ctx: TxContext, epoch: int, revert: str) -> tuple[AgentContract, dict]:
        """The agent and the service, once the caller is known to be a
        registered mailman and the service is in `epoch`."""
        agent = self._agent(ctx)
        agent._require_mailman(ctx.caller)
        svc = self._service(ctx)
        if svc["epoch"] != epoch:
            raise ContractRevert(revert)
        return agent, svc

    def fn_reportPremature(self, ctx: TxContext, index: int, privkey: int):
        self._mailman_in_epoch(ctx, 0, "premature reports belong to the pending phase")
        if not 0 <= privkey < 2**256:
            raise ContractRevert("reported key is not a 256-bit scalar")
        scalar = _scalar_hex(privkey)
        for report in self.state["premature_reports"]:
            if report["privkey"] == scalar:
                raise ContractRevert("duplicate premature report")
        self.state["premature_reports"].append(
            {"reporter": ctx.caller.hex(), "index": index, "privkey": scalar, "verdict": None, "accused": None}
        )
        ctx.emit("PrematureReported", index=index, reporter=ctx.caller)

    def fn_revealIdentity(self, ctx: TxContext, agreements: list):
        agent = self._agent(ctx)
        agent._require_mailman(ctx.caller)
        svc = self._service(ctx)
        if not svc["heavyweight"]:
            raise ContractRevert("identities are revealed only in heavyweight mode")
        if svc["epoch"] not in (2, 3):
            raise ContractRevert("identity reveal outside the switching window")
        if not agreements:
            raise ContractRevert("empty agreement list")
        switch_addr = bytes.fromhex(self.state["switch_addr"])
        staged = {}
        for entry in agreements:
            index = entry["index"]
            mailman = agent._verify_agreement(svc, switch_addr, index, entry["vrs_m"], entry["vrs_s"])
            key = str(index)
            if key in self.state["identities"] or key in staged:
                raise ContractRevert("index already revealed")
            staged[key] = {"mailman": mailman, "vrs_m": entry["vrs_m"].to_bytes().hex(), "vrs_s": entry["vrs_s"].to_bytes().hex()}
        self.state["identities"].update(staged)
        for key, identity in staged.items():
            svc["identities"][key] = identity["mailman"]
        if svc["epoch"] == 2:
            agent._enter_epoch(svc, 3, ctx.tick)
        ctx.emit("IdentitiesRevealed", count=len(staged))

    def fn_revealPrivkey(self, ctx: TxContext, index: int, privkey: int):
        agent = self._agent(ctx)
        svc = self._service(ctx)
        if svc["epoch"] != 3:
            raise ContractRevert("on-chain key reveal happens in epoch 3")
        identity = self.state["identities"].get(str(index))
        if identity is None:
            raise ContractRevert("unknown index")
        if identity["mailman"] != ctx.caller.hex():
            raise ContractRevert("index belongs to a different mailman")
        if str(index) in self.state["revealed_privkeys"]:
            raise ContractRevert("key already revealed for this index")
        if not 0 <= privkey < 2**256:
            raise ContractRevert("revealed key is not a 256-bit scalar")
        expected = agent.timeframe_pubkey(ctx.caller.hex(), svc["timeframe_tick"])
        try:
            derived = pubkey_of_privkey(privkey.to_bytes(32, "big")).hex()
        except Exception:
            derived = None
        self.state["revealed_privkeys"][str(index)] = _scalar_hex(privkey)
        self.state["fake_marks"][str(index)] = derived != expected or expected is None
        ctx.emit("PrivkeyRevealed", index=index, fake=self.state["fake_marks"][str(index)])

    def fn_reportAbsent(self, ctx: TxContext, index: int):
        self._mailman_in_epoch(ctx, 4, "absence reports belong to epoch 4")
        identity = self.state["identities"].get(str(index))
        if identity is None:
            raise ContractRevert("unknown index")
        if str(index) in self.state["revealed_privkeys"]:
            raise ContractRevert("accusation contradicted: key was revealed")
        if any(r["index"] == index for r in self.state["absent_reports"]):
            raise ContractRevert("duplicate absence report")
        self.state["absent_reports"].append({"reporter": ctx.caller.hex(), "index": index})
        ctx.emit("AbsentReported", index=index)

    def fn_reportFake(self, ctx: TxContext, index: int):
        self._mailman_in_epoch(ctx, 4, "fake-key reports belong to epoch 4")
        if str(index) not in self.state["revealed_privkeys"]:
            raise ContractRevert("no key revealed for this index")
        if not self.state["fake_marks"].get(str(index)):
            raise ContractRevert("accusation contradicted: revealed key pairs correctly")
        if any(r["index"] == index for r in self.state["fake_reports"]):
            raise ContractRevert("duplicate fake-key report")
        self.state["fake_reports"].append({"reporter": ctx.caller.hex(), "index": index})
        ctx.emit("FakeReported", index=index)

    def fn_informAgent(self, ctx: TxContext):
        agent, svc = self._mailman_in_epoch(ctx, 4, "agent is informed at the end of epoch 4")
        if self.state["finalized"]:
            raise ContractRevert("already finalized")
        if not (self.state["premature_reports"] or self.state["absent_reports"] or self.state["fake_reports"]):
            raise ContractRevert("nothing to finalize")
        self.finalize_into_agent(agent, svc)
        ctx.emit("AgentInformed", slashes=len(svc["slashes"]))

    def finalize_into_agent(self, agent: AgentContract, svc: dict):
        """Verify pending reports and push slash verdicts into the agent.

        Runs either as the epoch-4 informAgent transaction or as the
        settlement backstop when epoch 6 is reached without one.
        """
        if self.state["finalized"]:
            return
        tick = self.ledger.tick
        for report in self.state["premature_reports"]:
            pub = None
            try:
                pub = pubkey_of_privkey(bytes.fromhex(report["privkey"])).hex()
            except Exception:
                pub = None
            accused = (
                agent.find_mailman_by_timeframe_pubkey(svc["timeframe_tick"], pub) if pub else None
            )
            if accused is not None:
                report["verdict"] = "true"
                report["accused"] = accused
                agent._slash(svc, SLASH_PREMATURE, accused, report["reporter"], tick)
            else:
                report["verdict"] = "false"
                agent._slash(svc, SLASH_FALSE_REPORT, report["reporter"], None, tick)
        for kind, reports in ((SLASH_ABSENT, self.state["absent_reports"]), (SLASH_FAKE, self.state["fake_reports"])):
            for report in reports:
                accused = self.state["identities"][str(report["index"])]["mailman"]
                agent._slash(svc, kind, accused, report["reporter"], tick)
        self.state["finalized"] = True


class StrawmanContract(RegistryContract):
    """The naive protocol: mailman addresses and share hashes go on-chain at
    setup, every mailman reveals its share on-chain at delivery time."""

    deploy_fn = FN_DEPLOY_STRAWMAN

    def init_state(self, min_deposit: int = 0, settle_ticks: int = 1):
        super().init_state(min_deposit)
        self.state["settle_ticks"] = settle_ticks

    def gas_units(self, fn: str, args: dict) -> int:
        if fn == FN_STRAWMAN_NEW_SERVICE:
            return max(len(args.get("mailman_commitments", [])), 1)
        return 1

    def fn_strawmanNewService(
        self,
        ctx: TxContext,
        timeframe_tick: int,
        t: int,
        n: int,
        recipient: bytes,
        mailman_commitments: list,
        receipt_commitment: bytes,
    ):
        if timeframe_tick <= ctx.tick:
            raise ContractRevert("time frame must be strictly in the future")
        if not 1 <= t <= n or len(mailman_commitments) != n:
            raise ContractRevert("bad secret sharing parameters")
        if ctx.value <= 0:
            raise ContractRevert("remuneration must be escrowed")
        entries = {}
        for i, (addr, share_hash) in enumerate(mailman_commitments, start=1):
            if addr.hex() not in self.state["mailmen"]:
                raise ContractRevert("service names an unregistered mailman")
            entries[str(i)] = {"mailman": addr.hex(), "share_hash": share_hash.hex()}
        sid = f"strawman-{len(self.state['services'])}"
        self.state["services"][sid] = {
            "sender": ctx.caller.hex(),
            "recipient": recipient.hex(),
            "timeframe_tick": timeframe_tick,
            "t": t,
            "n": n,
            "remuneration": ctx.value,
            "receipt_commitment": receipt_commitment.hex(),
            "entries": entries,
            "revealed_shares": {},
            "status": STATUS_PENDING,
            "slashes": [],
            "settled": False,
            "shares_paid": [],
        }
        return sid

    def _commitment(self, svc: dict, share: bytes) -> tuple[str, dict]:
        """The (index, entry) whose share hash `share` opens."""
        digest = hash256(share).hex()
        for index, entry in svc["entries"].items():
            if entry["share_hash"] == digest:
                return index, entry
        raise ContractRevert("share does not match any commitment")

    def fn_strawmanReportPremature(self, ctx: TxContext, sid: str, share: bytes):
        svc = self.service(sid)
        self._require_mailman(ctx.caller)
        if ctx.tick >= svc["timeframe_tick"]:
            raise ContractRevert("premature reports precede the time frame")
        index, entry = self._commitment(svc, share)
        accused = entry["mailman"]
        if self.state["mailmen"][accused]["status"] == MAILMAN_SLASHED:
            raise ContractRevert("duplicate premature report")
        self._slash(svc, SLASH_PREMATURE, accused, ctx.caller.hex(), ctx.tick)
        ctx.emit("PrematureReported", index=int(index), accused=accused)

    def _slash_remainder(self, svc: dict, accused: str, remainder: int) -> tuple[int, int]:
        """The sender is compensated with all of it; nothing burns."""
        self._credit(svc["sender"], remainder)
        return remainder, 0

    def fn_strawmanRevealShare(self, ctx: TxContext, sid: str, share: bytes):
        svc = self.service(sid)
        if ctx.tick < svc["timeframe_tick"]:
            raise ContractRevert("shares are revealed during the time frame")
        if svc["status"] != STATUS_PENDING:
            raise ContractRevert("service already terminal")
        index, entry = self._commitment(svc, share)
        if entry["mailman"] != ctx.caller.hex():
            raise ContractRevert("share belongs to a different mailman")
        if index in svc["revealed_shares"]:
            raise ContractRevert("share already revealed")
        svc["revealed_shares"][index] = share.hex()

    def fn_strawmanRevealReceipt(self, ctx: TxContext, sid: str, receipt: bytes):
        svc = self.service(sid)
        if ctx.caller.hex() != svc["recipient"]:
            raise ContractRevert("only the recipient reveals the receipt")
        if svc["status"] != STATUS_PENDING:
            raise ContractRevert("service already terminal")
        if hash256(receipt).hex() != svc["receipt_commitment"]:
            raise ContractRevert("receipt preimage does not match commitment")
        svc["status"] = STATUS_DELIVERED_HEAVY
        ctx.emit("ReceiptAccepted", service=sid)

    def on_tick(self, tick: int):
        for svc in self.state["services"].values():
            if not svc["settled"] and tick >= svc["timeframe_tick"] + self.state["settle_ticks"]:
                if svc["status"] == STATUS_PENDING:
                    svc["status"] = STATUS_FAILED
                self._settle(svc)

    def _settle(self, svc: dict):
        if svc["status"] == STATUS_FAILED:
            self._pay_shares(svc, [])
        else:
            revealed = svc["revealed_shares"]
            self._pay_shares(svc, [e["mailman"] for i, e in svc["entries"].items() if i in revealed])
        svc["settled"] = True
