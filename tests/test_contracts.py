"""Contract state machine tests: registration, mode switch, reporting,
receipts, settlement, and epoch gating."""

from random import Random
from types import SimpleNamespace

import pytest

from tidsim.contracts import (
    AgentContract,
    MAILMAN_SLASHED,
    STATUS_DELIVERED_HEAVY,
    STATUS_DELIVERED_LIGHT,
    STATUS_FAILED,
    agreement_digest_mailman,
    agreement_digest_sender,
    SLASH_FALSE_REPORT,
    SLASH_PREMATURE,
    StrawmanContract,
    SupplementaryContract,
    SwitchContract,
)
from tidsim.crypto import Signature, hash256, keypair_gen, sign
from tidsim.ledger import (
    FN_DEPLOY_SUPPLEMENTARY,
    FN_INFORM_AGENT,
    FN_NEW_MAILMAN,
    FN_NEW_SERVICE,
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
    LedgerError,
)

from conftest import ETHER, SUP_CODE, make_world, open_service


def make_agreement(world, svc, index, mailman):
    vrs_m = sign(mailman.keypair.privkey, agreement_digest_mailman(svc.switch.address, index))
    vrs_s = sign(
        world.sender.keypair.privkey,
        agreement_digest_sender(svc.switch.address, index, vrs_m),
    )
    return {"index": index, "vrs_m": vrs_m, "vrs_s": vrs_s}


def deploy_sup(world, svc, mailman):
    receipt = world.ledger.submit_tx(
        mailman.address,
        svc.switch.address,
        FN_DEPLOY_SUPPLEMENTARY,
        {"sup_code": SUP_CODE, "vrs_sup": svc.vrs_sup},
    )
    assert receipt.success, receipt.error
    return world.ledger.contracts[bytes.fromhex(svc.switch.state["sup_addr"])]


class TestRegistration:
    def test_deposit_escrowed(self, world):
        assert world.ledger.balance(world.agent.address) == 4 * world.deposit

    def test_duplicate_registration_rejected(self, world):
        m = world.mailmen[0]
        receipt = world.ledger.submit_tx(
            m.address,
            world.agent.address,
            FN_NEW_MAILMAN,
            {"channel_pub": m.channel.pubkey, "timeframe_pubkeys": {}},
            value=world.deposit,
        )
        assert not receipt.success
        assert "already registered" in receipt.error

    def test_deposit_below_minimum(self, world):
        rng = Random(123)
        newcomer = keypair_gen(rng)
        world.ledger.register_eoa(newcomer.address)
        world.ledger.fund(newcomer.address, 10 * ETHER)
        receipt = world.ledger.submit_tx(
            newcomer.address,
            world.agent.address,
            FN_NEW_MAILMAN,
            {"channel_pub": keypair_gen(rng).pubkey, "timeframe_pubkeys": {}},
            value=world.deposit // 2,
        )
        assert not receipt.success

    def test_registered_pool_visible_for_selection(self, world):
        registry = world.agent.state["mailmen"]
        assert all(record["status"] == "active" for record in registry.values())
        assert sorted(registry) == sorted(m.address.hex() for m in world.mailmen)


class TestNewService:
    def test_service_record_has_no_mailmen(self, world):
        svc = open_service(world)
        record = world.agent.state["services"][svc.sid]
        assert record["identities"] == {}
        dump = world.agent.state_dump()
        for m in world.mailmen:
            assert m.address.hex() not in str(dump["services"])

    def test_gas_charge(self, world):
        open_service(world)
        new_service_receipts = [r for r in world.ledger.receipts if r.function == FN_NEW_SERVICE]
        assert new_service_receipts[-1].gas_used == 83_121

    def test_threshold_validation(self, world):
        svc = world.ledger.deploy_contract(
            world.sender.address,
            SwitchContract,
            agent_addr=world.agent.address,
            sender=world.sender.address,
            sup_code=SUP_CODE,
        )
        receipt = world.ledger.submit_tx(
            world.sender.address,
            world.agent.address,
            FN_NEW_SERVICE,
            {
                "timeframe_tick": world.timeframe_tick,
                "l": 2,
                "t": 5,
                "n": 4,
                "switch_addr": svc.address,
                "sup_addr": world.ledger.predict_address(svc.address, 0),
                "recipient": world.recipient.address,
                "receipt_commitment": hash256(b"r"),
            },
            value=ETHER,
        )
        assert not receipt.success
        assert "threshold" in receipt.error

    def test_past_timeframe_rejected(self, world):
        world.ledger.advance_time(world.timeframe_tick + 1)
        switch = world.ledger.deploy_contract(
            world.sender.address,
            SwitchContract,
            agent_addr=world.agent.address,
            sender=world.sender.address,
            sup_code=SUP_CODE,
        )
        receipt = world.ledger.submit_tx(
            world.sender.address,
            world.agent.address,
            FN_NEW_SERVICE,
            {
                "timeframe_tick": world.timeframe_tick,
                "l": 2,
                "t": 2,
                "n": 4,
                "switch_addr": switch.address,
                "sup_addr": world.ledger.predict_address(switch.address, 0),
                "recipient": world.recipient.address,
                "receipt_commitment": hash256(b"r"),
            },
            value=ETHER,
        )
        assert not receipt.success
        assert "future" in receipt.error


class TestModeSwitch:
    def test_deploy_at_predicted_address(self, world):
        svc = open_service(world)
        predicted = world.ledger.predict_address(svc.switch.address, 0)
        world.ledger.advance_time(world.timeframe_tick + 1)  # epoch 2
        sup = deploy_sup(world, svc, world.mailmen[0])
        assert sup.address == predicted
        assert world.agent.state["services"][svc.sid]["heavyweight"]

    def test_second_deploy_rejected_but_charged(self, world):
        svc = open_service(world)
        world.ledger.advance_time(world.timeframe_tick + 1)
        deploy_sup(world, svc, world.mailmen[0])
        sink_before = world.ledger.gas_sink
        receipt = world.ledger.submit_tx(
            world.mailmen[1].address,
            svc.switch.address,
            FN_DEPLOY_SUPPLEMENTARY,
            {"sup_code": SUP_CODE, "vrs_sup": svc.vrs_sup},
        )
        assert not receipt.success
        assert "already deployed" in receipt.error
        assert world.ledger.gas_sink > sink_before

    def test_forged_authorization_rejected(self, world):
        svc = open_service(world)
        world.ledger.advance_time(world.timeframe_tick + 1)
        forged = sign(
            world.mailmen[0].keypair.privkey,
            hash256(b"wrong digest entirely"),
        )
        receipt = world.ledger.submit_tx(
            world.mailmen[0].address,
            svc.switch.address,
            FN_DEPLOY_SUPPLEMENTARY,
            {"sup_code": SUP_CODE, "vrs_sup": forged},
        )
        assert not receipt.success

    def test_switch_gated_to_pend_and_epoch2(self, world):
        svc = open_service(world)
        world.ledger.advance_time(world.timeframe_tick)  # epoch 1
        receipt = world.ledger.submit_tx(
            world.mailmen[0].address,
            svc.switch.address,
            FN_DEPLOY_SUPPLEMENTARY,
            {"sup_code": SUP_CODE, "vrs_sup": svc.vrs_sup},
        )
        assert not receipt.success
        assert "epoch" in receipt.error


class TestPrematureReporting:
    def test_true_report_slashes_discloser(self, world):
        svc = open_service(world)
        sup = deploy_sup(world, svc, world.mailmen[0])  # during pend, epoch 0
        disclosed = world.mailmen[1].timeframe_keys[world.timeframe_tick]
        receipt = world.ledger.submit_tx(
            world.mailmen[0].address,
            sup.address,
            FN_REPORT_PREMATURE,
            {"index": 0, "privkey": int.from_bytes(disclosed.privkey, "big")},
        )
        assert receipt.success
        # drive to settlement: 0 -> 2 -> (window expires, no identities) -> 6
        world.ledger.advance_time(world.timeframe_tick + 2)
        record = world.agent.state["mailmen"][world.mailmen[1].address.hex()]
        assert record["status"] == MAILMAN_SLASHED
        slash = world.agent.state["services"][svc.sid]["slashes"][0]
        assert slash["kind"] == SLASH_PREMATURE
        assert slash["reporter"] == world.mailmen[0].address.hex()
        assert slash["award"] == world.deposit // 2
        world.ledger.audit()

    def test_false_report_slashes_reporter(self, world):
        svc = open_service(world)
        sup = deploy_sup(world, svc, world.mailmen[0])
        receipt = world.ledger.submit_tx(
            world.mailmen[0].address,
            sup.address,
            FN_REPORT_PREMATURE,
            {"index": 0, "privkey": 0xDEADBEEF},  # matches nobody
        )
        assert receipt.success
        world.ledger.advance_time(world.timeframe_tick + 2)
        record = world.agent.state["mailmen"][world.mailmen[0].address.hex()]
        assert record["status"] == MAILMAN_SLASHED
        slash = world.agent.state["services"][svc.sid]["slashes"][0]
        assert slash["kind"] == SLASH_FALSE_REPORT
        assert slash["award"] == 0
        world.ledger.audit()

    def test_duplicate_report_rejected(self, world):
        svc = open_service(world)
        sup = deploy_sup(world, svc, world.mailmen[0])
        args = {"index": 0, "privkey": 12345}
        assert world.ledger.submit_tx(
            world.mailmen[0].address, sup.address, FN_REPORT_PREMATURE, dict(args)
        ).success
        receipt = world.ledger.submit_tx(
            world.mailmen[2].address, sup.address, FN_REPORT_PREMATURE, dict(args)
        )
        assert not receipt.success
        assert "duplicate" in receipt.error


class HeavyweightHarness:
    """Drives an honest run into epoch 3 with identities revealed."""

    def __init__(self, world, l=2, t=2):
        self.world = world
        self.svc = open_service(world, l=l, t=t)
        world.ledger.advance_time(world.timeframe_tick + 1)  # epoch 2
        self.sup = deploy_sup(world, self.svc, world.mailmen[0])
        agreements = [
            make_agreement(world, self.svc, i + 1, m) for i, m in enumerate(world.mailmen)
        ]
        self.reveal_receipt = world.ledger.submit_tx(
            world.mailmen[0].address,
            self.sup.address,
            FN_REVEAL_IDENTITY,
            {"agreements": agreements},
        )

    def reveal_key(self, index, mailman, privkey=None):
        scalar = privkey
        if scalar is None:
            scalar = int.from_bytes(
                mailman.timeframe_keys[self.world.timeframe_tick].privkey, "big"
            )
        return self.world.ledger.submit_tx(
            mailman.address,
            self.sup.address,
            FN_REVEAL_PRIVKEY,
            {"index": index, "privkey": scalar},
        )


class TestIdentityReveal:
    def test_valid_agreements_accepted(self, world):
        h = HeavyweightHarness(world)
        assert h.reveal_receipt.success, h.reveal_receipt.error
        assert h.reveal_receipt.gas_used == len(world.mailmen) * 72_678
        svc = world.agent.state["services"][h.svc.sid]
        assert svc["epoch"] == 3
        assert len(h.sup.state["identities"]) == len(world.mailmen)

    def test_tampered_signature_reverts_whole_call(self, world):
        svc = open_service(world)
        world.ledger.advance_time(world.timeframe_tick + 1)
        sup = deploy_sup(world, svc, world.mailmen[0])
        agreements = [make_agreement(world, svc, i + 1, m) for i, m in enumerate(world.mailmen)]
        bad = agreements[2]["vrs_s"]
        agreements[2]["vrs_s"] = Signature(bad.v, bad.r, (bad.s + 1) % (2**256 - 1))
        receipt = world.ledger.submit_tx(
            world.mailmen[0].address, sup.address, FN_REVEAL_IDENTITY, {"agreements": agreements}
        )
        assert not receipt.success
        assert sup.state["identities"] == {}

    def test_lightweight_mode_rejects_reveal(self, world):
        svc = open_service(world)
        world.ledger.advance_time(world.timeframe_tick)  # epoch 1, lightweight
        sup_addr = world.ledger.predict_address(svc.switch.address, 0)
        with pytest.raises(LedgerError):
            world.ledger.submit_tx(
                world.mailmen[0].address, sup_addr, FN_REVEAL_IDENTITY, {"agreements": []}
            )


class TestKeyReveal:
    def test_correct_key_accepted(self, world):
        h = HeavyweightHarness(world)
        receipt = h.reveal_key(1, world.mailmen[0])
        assert receipt.success
        assert receipt.gas_used == 90_689
        assert h.sup.state["fake_marks"]["1"] is False

    def test_mismatched_key_marked_fake(self, world):
        h = HeavyweightHarness(world)
        receipt = h.reveal_key(1, world.mailmen[0], privkey=777777)
        assert receipt.success
        assert h.sup.state["fake_marks"]["1"] is True

    def test_wrong_epoch_rejected(self, world):
        svc = open_service(world)
        sup = deploy_sup(world, svc, world.mailmen[0])  # epoch 0
        receipt = world.ledger.submit_tx(
            world.mailmen[0].address, sup.address, FN_REVEAL_PRIVKEY, {"index": 1, "privkey": 1}
        )
        assert not receipt.success
        assert "epoch 3" in receipt.error

    def test_wrong_caller_rejected(self, world):
        h = HeavyweightHarness(world)
        receipt = h.reveal_key(1, world.mailmen[1])
        assert not receipt.success


class TestAbsentAndFakeReports:
    def test_absent_then_slash(self, world):
        h = HeavyweightHarness(world)
        for i, m in enumerate(world.mailmen[:-1]):
            assert h.reveal_key(i + 1, m).success
        world.ledger.advance_time(world.ledger.tick + 1)  # epoch 4
        receipt = world.ledger.submit_tx(
            world.mailmen[0].address,
            h.sup.address,
            FN_REPORT_ABSENT,
            {"index": len(world.mailmen)},
        )
        assert receipt.success
        assert receipt.gas_used == 65_343
        inform = world.ledger.submit_tx(
            world.mailmen[0].address, h.sup.address, FN_INFORM_AGENT
        )
        assert inform.success
        assert inform.gas_used == 57_042
        accused = world.mailmen[-1].address.hex()
        assert world.agent.state["mailmen"][accused]["status"] == MAILMAN_SLASHED
        world.ledger.audit()

    def test_absent_report_against_revealer_reverts(self, world):
        h = HeavyweightHarness(world)
        for i, m in enumerate(world.mailmen):
            assert h.reveal_key(i + 1, m).success
        world.ledger.advance_time(world.ledger.tick + 1)
        receipt = world.ledger.submit_tx(
            world.mailmen[0].address, h.sup.address, FN_REPORT_ABSENT, {"index": 1}
        )
        assert not receipt.success
        assert "contradicted" in receipt.error

    def test_fake_report_flow(self, world):
        h = HeavyweightHarness(world)
        assert h.reveal_key(1, world.mailmen[0], privkey=99).success  # fake key
        for i, m in list(enumerate(world.mailmen))[1:]:
            assert h.reveal_key(i + 1, m).success
        world.ledger.advance_time(world.ledger.tick + 1)
        receipt = world.ledger.submit_tx(
            world.mailmen[1].address, h.sup.address, FN_REPORT_FAKE, {"index": 1}
        )
        assert receipt.success
        assert receipt.gas_used == 1_280_723
        world.ledger.submit_tx(world.mailmen[1].address, h.sup.address, FN_INFORM_AGENT)
        assert (
            world.agent.state["mailmen"][world.mailmen[0].address.hex()]["status"]
            == MAILMAN_SLASHED
        )

    def test_fake_report_against_honest_reveal_reverts(self, world):
        h = HeavyweightHarness(world)
        for i, m in enumerate(world.mailmen):
            assert h.reveal_key(i + 1, m).success
        world.ledger.advance_time(world.ledger.tick + 1)
        receipt = world.ledger.submit_tx(
            world.mailmen[0].address, h.sup.address, FN_REPORT_FAKE, {"index": 2}
        )
        assert not receipt.success


class TestReceipt:
    def test_lightweight_receipt_jumps_to_settlement(self, world):
        svc = open_service(world)
        world.ledger.advance_time(world.timeframe_tick)  # epoch 1
        receipt = world.ledger.submit_tx(
            world.recipient.address,
            world.agent.address,
            FN_RECIPIENT_RECEIPT,
            {
                "receipt": svc.receipt_secret,
                "sender_addr": world.sender.address,
                "switch_addr": svc.switch.address,
            },
        )
        assert receipt.success
        assert receipt.gas_used == 54_291
        record = world.agent.state["services"][svc.sid]
        assert record["status"] == STATUS_DELIVERED_LIGHT
        assert record["epoch"] == 6
        assert [e for _, e in record["epoch_history"]] == [0, 1, 6]

    def test_wrong_preimage_reverts(self, world):
        svc = open_service(world)
        world.ledger.advance_time(world.timeframe_tick)
        receipt = world.ledger.submit_tx(
            world.recipient.address,
            world.agent.address,
            FN_RECIPIENT_RECEIPT,
            {
                "receipt": b"not the secret",
                "sender_addr": world.sender.address,
                "switch_addr": svc.switch.address,
            },
        )
        assert not receipt.success

    def test_wrong_caller_and_epoch(self, world):
        svc = open_service(world)
        args = {
            "receipt": svc.receipt_secret,
            "sender_addr": world.sender.address,
            "switch_addr": svc.switch.address,
        }
        early = world.ledger.submit_tx(
            world.recipient.address, world.agent.address, FN_RECIPIENT_RECEIPT, dict(args)
        )
        assert not early.success  # epoch 0
        world.ledger.advance_time(world.timeframe_tick)
        imposter = world.ledger.submit_tx(
            world.sender.address, world.agent.address, FN_RECIPIENT_RECEIPT, dict(args)
        )
        assert not imposter.success

    def test_heavyweight_receipt_in_epoch5(self, world):
        h = HeavyweightHarness(world)
        for i, m in enumerate(world.mailmen):
            assert h.reveal_key(i + 1, m).success
        world.ledger.advance_time(world.ledger.tick + 2)  # epochs 4 then 5
        receipt = world.ledger.submit_tx(
            world.recipient.address,
            world.agent.address,
            FN_RECIPIENT_RECEIPT,
            {
                "receipt": h.svc.receipt_secret,
                "sender_addr": world.sender.address,
                "switch_addr": h.svc.switch.address,
            },
        )
        assert receipt.success
        record = world.agent.state["services"][h.svc.sid]
        assert record["status"] == STATUS_DELIVERED_HEAVY
        world.ledger.advance_time(world.ledger.tick + 1)  # epoch 6
        assert record["epoch"] == 6
        assert [e for _, e in record["epoch_history"]] == [0, 1, 2, 3, 4, 5, 6]


class TestSettlement:
    def test_failed_service_refunds_everyone(self, world):
        svc = open_service(world)
        balances_before = {m.address: world.ledger.balance(m.address) for m in world.mailmen}
        sender_before = world.ledger.balance(world.sender.address)
        world.ledger.advance_time(world.timeframe_tick + 3)  # 0->1->2->6 failed
        record = world.agent.state["services"][svc.sid]
        assert record["status"] == STATUS_FAILED
        for m in world.mailmen:
            receipt = world.ledger.submit_tx(m.address, world.agent.address, FN_WITHDRAW)
            assert receipt.success
            fee = receipt.gas_used * world.ledger.schedule.wei_per_gas
            assert world.ledger.balance(m.address) == balances_before[m.address] + world.deposit - fee
        sender_receipt = world.ledger.submit_tx(
            world.sender.address, world.agent.address, FN_WITHDRAW
        )
        assert sender_receipt.success
        fee = sender_receipt.gas_used * world.ledger.schedule.wei_per_gas
        assert world.ledger.balance(world.sender.address) == sender_before + svc.remuneration - fee
        world.ledger.audit()

    @staticmethod
    def _deliver_light(world, svc):
        """Advance `svc` to epoch 1 and accept its receipt there."""
        world.ledger.advance_time(world.timeframe_tick)
        receipt = world.ledger.submit_tx(
            world.recipient.address,
            world.agent.address,
            FN_RECIPIENT_RECEIPT,
            {
                "receipt": svc.receipt_secret,
                "sender_addr": world.sender.address,
                "switch_addr": svc.switch.address,
            },
        )
        assert receipt.success, receipt.error

    @staticmethod
    def _prove(world, svc, index, mailman):
        agreement = make_agreement(world, svc, index, mailman)
        return world.ledger.submit_tx(
            mailman.address,
            world.agent.address,
            FN_PROVE_AGREEMENT,
            {"switch_addr": svc.switch.address, **agreement},
        )

    def test_lightweight_withdraw_requires_agreement_proof(self, world):
        svc = open_service(world)
        self._deliver_light(world, svc)
        m = world.mailmen[0]
        assert self._prove(world, svc, 1, m).success
        withdrawal = world.ledger.submit_tx(m.address, world.agent.address, FN_WITHDRAW)
        assert withdrawal.success
        paid = world.deposit + svc.remuneration // svc.n
        assert any(e["event"] == "Withdrawal" and int(e["amount"]) == paid for e in withdrawal.events)
        # an unproven mailman gets only the deposit back
        other = world.ledger.submit_tx(world.mailmen[1].address, world.agent.address, FN_WITHDRAW)
        assert any(
            e["event"] == "Withdrawal" and int(e["amount"]) == world.deposit
            for e in other.events
        )
        world.ledger.audit()

    def test_proof_credits_share_at_once(self, world):
        svc = open_service(world)
        self._deliver_light(world, svc)
        m = world.mailmen[0]
        assert self._prove(world, svc, 1, m).success
        assert world.agent.state["claimable"][m.address.hex()] == svc.remuneration // svc.n
        assert world.agent.state["services"][svc.sid]["shares_paid"] == [m.address.hex()]
        world.ledger.audit()

    def test_second_proven_index_pays_nothing_more(self, world):
        svc = open_service(world)
        self._deliver_light(world, svc)
        m = world.mailmen[0]
        assert self._prove(world, svc, 1, m).success
        assert self._prove(world, svc, 2, m).success
        record = world.agent.state["services"][svc.sid]
        assert record["identities"] == {"1": m.address.hex(), "2": m.address.hex()}
        assert world.agent.state["claimable"][m.address.hex()] == svc.remuneration // svc.n
        assert record["shares_paid"] == [m.address.hex()]

    def test_slashed_prover_is_paid_nothing(self, world):
        honest, discloser = world.mailmen[0], world.mailmen[1]
        slashing = open_service(world)
        light = open_service(world)
        sup = deploy_sup(world, slashing, honest)
        disclosed = discloser.timeframe_keys[world.timeframe_tick]
        assert world.ledger.submit_tx(
            honest.address,
            sup.address,
            FN_REPORT_PREMATURE,
            {"index": 0, "privkey": int.from_bytes(disclosed.privkey, "big")},
        ).success
        self._deliver_light(world, light)
        world.ledger.advance_time(world.timeframe_tick + 1)  # the switched service fails and settles
        claimable = world.agent.state["claimable"]
        assert world.agent.state["mailmen"][discloser.address.hex()]["status"] == MAILMAN_SLASHED
        honest_before = claimable[honest.address.hex()]  # the informer's award
        assert self._prove(world, light, 2, discloser).success
        assert self._prove(world, light, 1, honest).success
        assert discloser.address.hex() not in claimable
        assert claimable[honest.address.hex()] == honest_before + light.remuneration // light.n
        assert world.agent.state["services"][light.sid]["shares_paid"] == [honest.address.hex()]
        world.ledger.audit()

    def test_double_withdraw_rejected(self, world):
        open_service(world)
        world.ledger.advance_time(world.timeframe_tick + 3)
        m = world.mailmen[0]
        assert world.ledger.submit_tx(m.address, world.agent.address, FN_WITHDRAW).success
        second = world.ledger.submit_tx(m.address, world.agent.address, FN_WITHDRAW)
        assert not second.success
        assert "nothing to withdraw" in second.error

    def test_slashed_mailman_cannot_reclaim_deposit(self, world):
        svc = open_service(world)
        sup = deploy_sup(world, svc, world.mailmen[0])
        disclosed = world.mailmen[1].timeframe_keys[world.timeframe_tick]
        world.ledger.submit_tx(
            world.mailmen[0].address,
            sup.address,
            FN_REPORT_PREMATURE,
            {"index": 0, "privkey": int.from_bytes(disclosed.privkey, "big")},
        )
        world.ledger.advance_time(world.timeframe_tick + 2)
        receipt = world.ledger.submit_tx(
            world.mailmen[1].address, world.agent.address, FN_WITHDRAW
        )
        assert not receipt.success
        world.ledger.audit()


class TestAgreementGuards:
    """Each of proveAgreement's seven guards reverts the whole call: the chain keeps
    its state but for the reverted call's own receipt, and every balance
    but the gas its caller pays."""

    @staticmethod
    def _assert_proof_reverts(world, svc, caller, agreement, error):
        ledger = world.ledger
        before = ledger.onchain_state()
        balances = {addr: account.balance for addr, account in ledger.accounts.items()}
        receipt = ledger.submit_tx(
            caller.address,
            world.agent.address,
            FN_PROVE_AGREEMENT,
            {"switch_addr": svc.switch.address, **agreement},
        )
        assert (receipt.success, receipt.error) == (False, error)
        after = ledger.onchain_state()
        assert after["receipts"].pop() == receipt.to_record()
        assert ledger.state_digest(after) == ledger.state_digest(before)
        balances[caller.address] -= receipt.gas_used * ledger.schedule.wei_per_gas
        assert {addr: account.balance for addr, account in ledger.accounts.items()} == balances
        ledger.audit()

    @staticmethod
    def _delivered_light(world):
        svc = open_service(world)
        TestSettlement._deliver_light(world, svc)
        return svc

    @pytest.mark.parametrize("settle", [False, True], ids=["pending", "failed"])
    def test_proof_outside_settled_light_delivery_reverts(self, world, settle):
        svc = open_service(world)
        if settle:
            world.ledger.advance_time(world.timeframe_tick + 3)  # 0->1->2->6 failed
            assert world.agent.state["services"][svc.sid]["epoch"] == 6
        m = world.mailmen[0]
        self._assert_proof_reverts(
            world, svc, m, make_agreement(world, svc, 1, m),
            "agreement proofs are for settled lightweight deliveries",
        )

    def test_another_mailmans_agreement_reverts(self, world):
        svc = self._delivered_light(world)
        agreement = make_agreement(world, svc, 1, world.mailmen[1])
        self._assert_proof_reverts(
            world, svc, world.mailmen[0], agreement, "agreement belongs to a different mailman"
        )

    @pytest.mark.parametrize("index", [0, 5])
    def test_index_out_of_range_reverts(self, world, index):
        svc = self._delivered_light(world)
        m = world.mailmen[0]
        self._assert_proof_reverts(
            world, svc, m, make_agreement(world, svc, index, m), "agreement index out of range"
        )

    @pytest.mark.parametrize("field", ["vrs_m", "vrs_s"])
    def test_malformed_signature_reverts(self, world, field):
        svc = self._delivered_light(world)
        m = world.mailmen[0]
        agreement = make_agreement(world, svc, 1, m)
        agreement[field] = Signature(2, 1, 1)
        self._assert_proof_reverts(
            world, svc, m, agreement, "agreement signature invalid: malformed signature"
        )

    def test_unregistered_signer_reverts(self, world):
        svc = self._delivered_light(world)
        outsider = SimpleNamespace(keypair=keypair_gen(Random(7)))
        agreement = make_agreement(world, svc, 1, outsider)
        self._assert_proof_reverts(
            world, svc, world.mailmen[0], agreement, "agreement names an unregistered mailman"
        )

    def test_index_proven_twice_reverts(self, world):
        svc = self._delivered_light(world)
        m = world.mailmen[0]
        assert TestSettlement._prove(world, svc, 1, m).success
        self._assert_proof_reverts(
            world, svc, m, make_agreement(world, svc, 1, m), "index already proven"
        )

    def test_countersignature_by_another_party_reverts(self, world):
        svc = self._delivered_light(world)
        m = world.mailmen[0]
        agreement = make_agreement(world, svc, 1, m)
        agreement["vrs_s"] = sign(
            world.recipient.keypair.privkey,
            agreement_digest_sender(svc.switch.address, 1, agreement["vrs_m"]),
        )
        self._assert_proof_reverts(
            world, svc, m, agreement, "agreement not countersigned by the service sender"
        )


class TestStrawman:
    def _setup(self, world, n=4, t=2, rem=ETHER // 2):
        ledger = world.ledger
        contract = ledger.deploy_contract(
            world.operator.address, StrawmanContract, min_deposit=world.deposit
        )
        for m in world.mailmen[:n]:
            ledger.submit_tx(
                m.address,
                contract.address,
                FN_NEW_MAILMAN,
                {"channel_pub": m.channel.pubkey},
                value=world.deposit,
            )
        shares = [b"share-%d" % i for i in range(n)]
        commitments = [
            (world.mailmen[i].address, hash256(shares[i])) for i in range(n)
        ]
        receipt = ledger.submit_tx(
            world.sender.address,
            contract.address,
            FN_STRAWMAN_NEW_SERVICE,
            {
                "timeframe_tick": world.timeframe_tick,
                "t": t,
                "n": n,
                "recipient": world.recipient.address,
                "mailman_commitments": commitments,
                "receipt_commitment": hash256(b"straw-receipt"),
            },
            value=rem,
        )
        assert receipt.success
        return contract, shares, receipt

    def test_setup_names_all_mailmen_on_chain(self, world):
        contract, _, _ = self._setup(world)
        svc = next(iter(contract.state["services"].values()))
        named = {entry["mailman"] for entry in svc["entries"].values()}
        assert named == {m.address.hex() for m in world.mailmen}

    def test_setup_gas_linear_in_n(self, world):
        w5 = make_world(n_mailmen=5, seed=3)
        w10 = make_world(n_mailmen=10, seed=4)
        gas = {}
        for w, n in ((w5, 5), (w10, 10)):
            _, _, receipt = TestStrawman()._setup(w, n=n)
            gas[n] = receipt.gas_used
        assert gas[10] - gas[5] == 5 * 42_000

    def test_premature_report_splits_deposit(self, world):
        contract, shares, _ = self._setup(world)
        sid = next(iter(contract.state["services"]))
        informer = world.mailmen[1]
        receipt = world.ledger.submit_tx(
            informer.address,
            contract.address,
            FN_STRAWMAN_REPORT_PREMATURE,
            {"sid": sid, "share": shares[0]},
        )
        assert receipt.success
        assert contract.state["mailmen"][world.mailmen[0].address.hex()]["status"] == MAILMAN_SLASHED
        half = world.deposit // 2
        assert contract.state["claimable"][informer.address.hex()] == half
        assert contract.state["claimable"][world.sender.address.hex()] == world.deposit - half

    def test_reveal_and_receipt_deliver(self, world):
        contract, shares, _ = self._setup(world)
        sid = next(iter(contract.state["services"]))
        world.ledger.advance_time(world.timeframe_tick)
        for m, share in zip(world.mailmen, shares):
            receipt = world.ledger.submit_tx(
                m.address, contract.address, FN_STRAWMAN_REVEAL_SHARE, {"sid": sid, "share": share}
            )
            assert receipt.success
            assert receipt.gas_used == 90_689
        done = world.ledger.submit_tx(
            world.recipient.address,
            contract.address,
            FN_STRAWMAN_REVEAL_RECEIPT,
            {"sid": sid, "receipt": b"straw-receipt"},
        )
        assert done.success
        svc = contract.state["services"][sid]
        assert svc["status"] == STATUS_DELIVERED_HEAVY
        world.ledger.advance_time(world.timeframe_tick + 1)
        withdrawal = world.ledger.submit_tx(world.mailmen[0].address, contract.address, FN_WITHDRAW)
        assert withdrawal.success
        world.ledger.audit()


class TestSharedRegistry:
    """Registration and withdrawal rules both contracts take from one base."""

    @pytest.fixture(params=[AgentContract, StrawmanContract], ids=["agent", "strawman"])
    def registry(self, request, world):
        # the world's four mailmen are registered and one service is open
        if request.param is AgentContract:
            open_service(world)
            return world.agent
        contract, _, _ = TestStrawman()._setup(world)
        return contract

    def _register(self, world, registry, party, value):
        pubkey = party.timeframe_keys[world.timeframe_tick].pubkey
        return world.ledger.submit_tx(
            party.address,
            registry.address,
            FN_NEW_MAILMAN,
            {"channel_pub": party.channel.pubkey, "timeframe_pubkeys": {world.timeframe_tick: pubkey}},
            value=value,
        )

    def _withdraw(self, world, registry, party):
        return world.ledger.submit_tx(party.address, registry.address, FN_WITHDRAW)

    def test_duplicate_registration_reverts(self, world, registry):
        receipt = self._register(world, registry, world.mailmen[0], world.deposit)
        assert not receipt.success
        assert receipt.error == "mailman already registered"

    def test_deposit_below_minimum_reverts(self, world, registry):
        receipt = self._register(world, registry, world.recipient, world.deposit - 1)
        assert not receipt.success
        assert receipt.error == "deposit below minimum"

    def test_withdrawal_before_settlement_reverts(self, world, registry):
        receipt = self._withdraw(world, registry, world.mailmen[0])
        assert not receipt.success
        assert receipt.error == "withdrawals open after settlement"

    def test_second_withdrawal_reverts(self, world, registry):
        world.ledger.advance_time(world.timeframe_tick + 3)
        balance = world.ledger.balance(world.mailmen[0].address)
        assert self._withdraw(world, registry, world.mailmen[0]).success
        assert world.ledger.balance(world.mailmen[0].address) > balance
        second = self._withdraw(world, registry, world.mailmen[0])
        assert not second.success
        assert second.error == "nothing to withdraw"
        world.ledger.audit()

    def test_only_agent_keeps_timeframe_keys_and_emits_events(self, world, registry):
        is_agent = isinstance(registry, AgentContract)
        for m in world.mailmen:
            assert ("timeframe_pubkeys" in registry.state["mailmen"][m.address.hex()]) == is_agent
        world.ledger.advance_time(world.timeframe_tick + 3)
        assert self._withdraw(world, registry, world.mailmen[0]).success
        events = [
            e["event"]
            for r in world.ledger.receipts
            if r.target == registry.address and r.function in (FN_NEW_MAILMAN, FN_WITHDRAW)
            for e in r.events
        ]
        assert events == (["MailmanRegistered"] * 4 + ["Withdrawal"] if is_agent else [])


class TestSlashRule:
    """The one slash rule both contracts take from the registry base: one
    deposit, one slash entry, whatever the number of accusations."""

    def test_agent_premature_then_absent_slashes_once(self, world):
        svc = open_service(world)
        sup = deploy_sup(world, svc, world.mailmen[0])  # during pend, epoch 0
        accused = world.mailmen[-1]
        disclosed = accused.timeframe_keys[world.timeframe_tick]
        assert world.ledger.submit_tx(
            world.mailmen[0].address,
            sup.address,
            FN_REPORT_PREMATURE,
            {"index": 0, "privkey": int.from_bytes(disclosed.privkey, "big")},
        ).success
        world.ledger.advance_time(world.timeframe_tick)  # switched during pend: epoch 2
        agreements = [make_agreement(world, svc, i + 1, m) for i, m in enumerate(world.mailmen)]
        assert world.ledger.submit_tx(
            world.mailmen[0].address, sup.address, FN_REVEAL_IDENTITY, {"agreements": agreements}
        ).success
        for i, m in enumerate(world.mailmen[:-1]):
            privkey = int.from_bytes(m.timeframe_keys[world.timeframe_tick].privkey, "big")
            assert world.ledger.submit_tx(
                m.address, sup.address, FN_REVEAL_PRIVKEY, {"index": i + 1, "privkey": privkey}
            ).success
        world.ledger.advance_time(world.ledger.tick + 1)  # epoch 4
        assert world.ledger.submit_tx(
            world.mailmen[0].address, sup.address, FN_REPORT_ABSENT, {"index": len(world.mailmen)}
        ).success
        assert world.ledger.submit_tx(world.mailmen[0].address, sup.address, FN_INFORM_AGENT).success
        slashes = world.agent.state["services"][svc.sid]["slashes"]
        assert [(s["kind"], s["accused"]) for s in slashes] == [(SLASH_PREMATURE, accused.address.hex())]
        assert slashes[0]["award"] == world.deposit // 2
        world.ledger.audit()

    def test_strawman_duplicate_premature_report_reverts(self, world):
        contract, shares, _ = TestStrawman()._setup(world)
        sid, svc = next(iter(contract.state["services"].items()))
        args = {"sid": sid, "share": shares[0]}
        first = world.ledger.submit_tx(
            world.mailmen[1].address, contract.address, FN_STRAWMAN_REPORT_PREMATURE, dict(args)
        )
        assert first.success
        claimable = dict(contract.state["claimable"])
        second = world.ledger.submit_tx(
            world.mailmen[2].address, contract.address, FN_STRAWMAN_REPORT_PREMATURE, dict(args)
        )
        assert not second.success
        assert second.error == "duplicate premature report"
        half = world.deposit // 2
        assert [(s["kind"], s["award"], s["compensation"], s["burned"]) for s in svc["slashes"]] == [
            (SLASH_PREMATURE, half, world.deposit - half, 0)
        ]
        assert contract.state["claimable"] == claimable
        world.ledger.audit()


def _party(world, who):
    """A mailman by index, or the world's sender or recipient by name."""
    return world.mailmen[who] if isinstance(who, int) else getattr(world, who)


def _contract_states(world) -> dict:
    return {addr: contract.state_dump() for addr, contract in world.ledger.contracts.items()}


def _check_last_call_reverts(world, target, calls, error):
    """Every call but the last succeeds; the last one reverts with `error`
    and leaves every contract's state as it was."""
    *before, last = calls
    for who, fn, args, *value in before:
        receipt = world.ledger.submit_tx(_party(world, who).address, target, fn, args, *value)
        assert receipt.success, receipt.error
    states = _contract_states(world)
    who, fn, args, *value = last
    receipt = world.ledger.submit_tx(_party(world, who).address, target, fn, args, *value)
    assert (receipt.success, receipt.error) == (False, error)
    assert _contract_states(world) == states
    world.ledger.audit()


def _scalar(world, i):
    return int.from_bytes(world.mailmen[i].timeframe_keys[world.timeframe_tick].privkey, "big")


def _all_agreements(world, svc):
    return [make_agreement(world, svc, i + 1, m) for i, m in enumerate(world.mailmen)]


def _sup_pend(world):
    """Switched during the pending phase: epoch 0."""
    svc = open_service(world)
    svc.sup = deploy_sup(world, svc, world.mailmen[0])
    return svc


def _sup_switched(world):
    """Switched in epoch 2, no identity revealed yet."""
    svc = open_service(world)
    world.ledger.advance_time(world.timeframe_tick + 1)
    svc.sup = deploy_sup(world, svc, world.mailmen[0])
    return svc


def _sup_unswitched(world):
    """In epoch 2 with a supplementary contract placed at the predicted
    address without the switch, so the service never went heavyweight."""
    svc = open_service(world)
    world.ledger.advance_time(world.timeframe_tick + 1)
    svc.sup = world.ledger.deploy_contract_internal(
        svc.switch.address,
        SupplementaryContract,
        agent_addr=world.agent.address,
        switch_addr=svc.switch.address,
        service_id=svc.sid,
        deployed_by=world.mailmen[0].address,
    )
    return svc


def _sup_revealed(world):
    """Epoch 3 with every identity revealed."""
    h = HeavyweightHarness(world)
    assert h.reveal_receipt.success, h.reveal_receipt.error
    h.svc.sup = h.sup
    return h.svc


def _sup_reporting(world):
    """Epoch 4: index 1 revealed a fake key, 2 and 3 their own, 4 none."""
    h = HeavyweightHarness(world)
    assert h.reveal_key(1, world.mailmen[0], privkey=99).success
    for index in (2, 3):
        assert h.reveal_key(index, world.mailmen[index - 1]).success
    world.ledger.advance_time(world.ledger.tick + 1)
    h.svc.sup = h.sup
    return h.svc


# (id, scene, calls(world, svc) as (caller, function, args), error of the last call)
SUPPLEMENTARY_REVERTS = [
    ("premature-after-pend", _sup_switched,
     lambda w, s: [(0, FN_REPORT_PREMATURE, {"index": 0, "privkey": 5})],
     "premature reports belong to the pending phase"),
    ("premature-not-mailman", _sup_pend,
     lambda w, s: [("recipient", FN_REPORT_PREMATURE, {"index": 0, "privkey": 5})],
     "caller is not a registered mailman"),
    ("premature-oversized-key", _sup_pend,
     lambda w, s: [(0, FN_REPORT_PREMATURE, {"index": 0, "privkey": 2**256})],
     "reported key is not a 256-bit scalar"),
    ("premature-negative-key", _sup_pend,
     lambda w, s: [(0, FN_REPORT_PREMATURE, {"index": 0, "privkey": -1})],
     "reported key is not a 256-bit scalar"),
    ("premature-duplicate", _sup_pend,
     lambda w, s: [(0, FN_REPORT_PREMATURE, {"index": 0, "privkey": 5})] * 2,
     "duplicate premature report"),
    ("identity-unswitched", _sup_unswitched,
     lambda w, s: [(0, FN_REVEAL_IDENTITY, {"agreements": _all_agreements(w, s)})],
     "identities are revealed only in heavyweight mode"),
    ("identity-in-pend", _sup_pend,
     lambda w, s: [(0, FN_REVEAL_IDENTITY, {"agreements": _all_agreements(w, s)})],
     "identity reveal outside the switching window"),
    ("identity-empty", _sup_switched, lambda w, s: [(0, FN_REVEAL_IDENTITY, {"agreements": []})],
     "empty agreement list"),
    ("identity-twice-in-one-call", _sup_switched,
     lambda w, s: [(0, FN_REVEAL_IDENTITY, {"agreements": _all_agreements(w, s)[:1] * 2})],
     "index already revealed"),
    ("identity-again", _sup_revealed,
     lambda w, s: [(1, FN_REVEAL_IDENTITY, {"agreements": _all_agreements(w, s)[1:2]})],
     "index already revealed"),
    ("privkey-before-epoch-3", _sup_switched,
     lambda w, s: [(0, FN_REVEAL_PRIVKEY, {"index": 1, "privkey": _scalar(w, 0)})],
     "on-chain key reveal happens in epoch 3"),
    ("privkey-unknown-index", _sup_revealed,
     lambda w, s: [(0, FN_REVEAL_PRIVKEY, {"index": 5, "privkey": _scalar(w, 0)})],
     "unknown index"),
    ("privkey-other-index", _sup_revealed,
     lambda w, s: [(1, FN_REVEAL_PRIVKEY, {"index": 1, "privkey": _scalar(w, 1)})],
     "index belongs to a different mailman"),
    ("privkey-twice", _sup_revealed,
     lambda w, s: [(0, FN_REVEAL_PRIVKEY, {"index": 1, "privkey": _scalar(w, 0)})] * 2,
     "key already revealed for this index"),
    ("privkey-oversized", _sup_revealed,
     lambda w, s: [(0, FN_REVEAL_PRIVKEY, {"index": 1, "privkey": 2**256})],
     "revealed key is not a 256-bit scalar"),
    ("absent-before-epoch-4", _sup_revealed, lambda w, s: [(0, FN_REPORT_ABSENT, {"index": 4})],
     "absence reports belong to epoch 4"),
    ("absent-unknown-index", _sup_reporting, lambda w, s: [(1, FN_REPORT_ABSENT, {"index": 5})],
     "unknown index"),
    ("absent-revealer", _sup_reporting, lambda w, s: [(1, FN_REPORT_ABSENT, {"index": 2})],
     "accusation contradicted: key was revealed"),
    ("absent-duplicate", _sup_reporting,
     lambda w, s: [(i, FN_REPORT_ABSENT, {"index": 4}) for i in (1, 2)],
     "duplicate absence report"),
    ("fake-before-epoch-4", _sup_revealed, lambda w, s: [(1, FN_REPORT_FAKE, {"index": 1})],
     "fake-key reports belong to epoch 4"),
    ("fake-unrevealed", _sup_reporting, lambda w, s: [(1, FN_REPORT_FAKE, {"index": 4})],
     "no key revealed for this index"),
    ("fake-honest-key", _sup_reporting, lambda w, s: [(1, FN_REPORT_FAKE, {"index": 2})],
     "accusation contradicted: revealed key pairs correctly"),
    ("fake-duplicate", _sup_reporting,
     lambda w, s: [(i, FN_REPORT_FAKE, {"index": 1}) for i in (1, 2)],
     "duplicate fake-key report"),
    ("inform-before-epoch-4", _sup_revealed, lambda w, s: [(0, FN_INFORM_AGENT, {})],
     "agent is informed at the end of epoch 4"),
    ("inform-nothing-reported", _sup_reporting, lambda w, s: [(1, FN_INFORM_AGENT, {})],
     "nothing to finalize"),
    ("inform-twice", _sup_reporting,
     lambda w, s: [(1, FN_REPORT_ABSENT, {"index": 4})] + [(1, FN_INFORM_AGENT, {})] * 2,
     "already finalized"),
]


@pytest.mark.parametrize("scene, calls, error", [pytest.param(*c[1:], id=c[0]) for c in SUPPLEMENTARY_REVERTS])
def test_supplementary_revert(world, scene, calls, error):
    svc = scene(world)
    _check_last_call_reverts(world, svc.sup.address, calls(world, svc), error)


def _straw(world):
    contract, shares, _ = TestStrawman()._setup(world)
    return SimpleNamespace(contract=contract, shares=shares, sid=next(iter(contract.state["services"])))


def _straw_window(world):
    """The delivery time frame has begun; settlement is a tick away."""
    straw = _straw(world)
    world.ledger.advance_time(world.timeframe_tick)
    return straw


def _straw_service(w, s, value=ETHER // 2, **changes):
    """A second service over the same four mailmen, with `changes` applied,
    escrowing `value`."""
    args = {
        "timeframe_tick": w.timeframe_tick,
        "t": 2,
        "n": 4,
        "recipient": w.recipient.address,
        "mailman_commitments": [(m.address, hash256(share)) for m, share in zip(w.mailmen, s.shares)],
        "receipt_commitment": hash256(b"straw-receipt"),
    }
    args.update(changes)
    return ("sender", FN_STRAWMAN_NEW_SERVICE, args, value)


def _share(s, i):
    return {"sid": s.sid, "share": s.shares[i]}


def _receipt(s, secret=b"straw-receipt"):
    return {"sid": s.sid, "receipt": secret}


# (id, scene, calls(world, straw) as (caller, function, args[, value]), error of the last call)
STRAWMAN_REVERTS = [
    ("service-past-timeframe", _straw, lambda w, s: [_straw_service(w, s, timeframe_tick=0)],
     "time frame must be strictly in the future"),
    ("service-threshold-above-n", _straw, lambda w, s: [_straw_service(w, s, t=5)],
     "bad secret sharing parameters"),
    ("service-commitment-count", _straw, lambda w, s: [_straw_service(w, s, n=3)],
     "bad secret sharing parameters"),
    ("service-unescrowed", _straw, lambda w, s: [_straw_service(w, s, value=0)],
     "remuneration must be escrowed"),
    ("service-unregistered-mailman", _straw,
     lambda w, s: [_straw_service(w, s, mailman_commitments=[(w.recipient.address, hash256(b"x"))] * 4)],
     "service names an unregistered mailman"),
    ("premature-unknown-service", _straw,
     lambda w, s: [(1, FN_STRAWMAN_REPORT_PREMATURE, {"sid": "strawman-9", "share": b"x"})],
     "unknown service"),
    ("premature-not-mailman", _straw,
     lambda w, s: [("recipient", FN_STRAWMAN_REPORT_PREMATURE, _share(s, 0))],
     "caller is not a registered mailman"),
    ("premature-in-window", _straw_window,
     lambda w, s: [(1, FN_STRAWMAN_REPORT_PREMATURE, _share(s, 0))],
     "premature reports precede the time frame"),
    ("premature-unknown-share", _straw,
     lambda w, s: [(1, FN_STRAWMAN_REPORT_PREMATURE, {"sid": s.sid, "share": b"forged"})],
     "share does not match any commitment"),
    ("premature-duplicate", _straw,
     lambda w, s: [(i, FN_STRAWMAN_REPORT_PREMATURE, _share(s, 0)) for i in (1, 2)],
     "duplicate premature report"),
    ("share-before-window", _straw, lambda w, s: [(0, FN_STRAWMAN_REVEAL_SHARE, _share(s, 0))],
     "shares are revealed during the time frame"),
    ("share-after-receipt", _straw_window,
     lambda w, s: [("recipient", FN_STRAWMAN_REVEAL_RECEIPT, _receipt(s)),
                   (0, FN_STRAWMAN_REVEAL_SHARE, _share(s, 0))],
     "service already terminal"),
    ("share-unknown", _straw_window,
     lambda w, s: [(0, FN_STRAWMAN_REVEAL_SHARE, {"sid": s.sid, "share": b"forged"})],
     "share does not match any commitment"),
    ("share-of-other-mailman", _straw_window,
     lambda w, s: [(1, FN_STRAWMAN_REVEAL_SHARE, _share(s, 0))],
     "share belongs to a different mailman"),
    ("share-twice", _straw_window, lambda w, s: [(0, FN_STRAWMAN_REVEAL_SHARE, _share(s, 0))] * 2,
     "share already revealed"),
    ("receipt-not-recipient", _straw_window,
     lambda w, s: [("sender", FN_STRAWMAN_REVEAL_RECEIPT, _receipt(s))],
     "only the recipient reveals the receipt"),
    ("receipt-twice", _straw_window,
     lambda w, s: [("recipient", FN_STRAWMAN_REVEAL_RECEIPT, _receipt(s))] * 2,
     "service already terminal"),
    ("receipt-wrong-preimage", _straw_window,
     lambda w, s: [("recipient", FN_STRAWMAN_REVEAL_RECEIPT, _receipt(s, b"guess"))],
     "receipt preimage does not match commitment"),
]


@pytest.mark.parametrize("scene, calls, error", [pytest.param(*c[1:], id=c[0]) for c in STRAWMAN_REVERTS])
def test_strawman_revert(world, scene, calls, error):
    straw = scene(world)
    _check_last_call_reverts(world, straw.contract.address, calls(world, straw), error)
