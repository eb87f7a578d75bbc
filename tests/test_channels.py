"""Message bus tests."""

from random import Random

import pytest

from tidsim.channels import BROADCAST, TOPIC, ChannelError, MessageBus
from tidsim.ledger import Ledger

ALICE = b"\xaa" * 20
BOB = b"\xbb" * 20
CAROL = b"\xcc" * 20


@pytest.fixture
def bus():
    bus = MessageBus()
    bus.register_channel_key(BOB, b"\x01" * 64)
    return bus


def test_send_then_recv_round_trip(bus):
    bus.send_private(ALICE, BOB, b"hello")
    bus.deliver_pending()
    msgs = bus.recv(BOB)
    assert [m.payload for m in msgs] == [b"hello"]
    assert bus.recv(BOB) == []


def test_unknown_channel_key(bus):
    with pytest.raises(ChannelError):
        bus.send_private(ALICE, CAROL, b"x")


def test_order_preserved_per_pair(bus):
    for i in range(5):
        bus.send_private(ALICE, BOB, bytes([i]))
    bus.deliver_pending()
    assert [m.payload for m in bus.recv(BOB)] == [bytes([i]) for i in range(5)]


def test_delivery_sorted_by_sender_then_seq(bus):
    bus.send_private(CAROL, BOB, b"from-carol")
    bus.send_private(ALICE, BOB, b"from-alice")
    bus.deliver_pending()
    senders = [m.sender for m in bus.recv(BOB)]
    assert senders == [ALICE, CAROL]


def test_broadcast_is_a_log_entry_not_an_inbox_message():
    from tidsim.scenario import ScenarioConfig, ScenarioRunner

    runner = ScenarioRunner(ScenarioConfig(seed=1, pool_size=4, n=3, l=1, t=2, drop_prob=0.5))
    runner.build_marketplace()
    bus = runner.bus
    for i in range(8):
        bus.broadcast(runner.sender.address, bytes([i]))
    bus.deliver_pending()
    delivered = [m for m in bus.log if m.delivered]
    assert 0 < len(delivered) < 8  # some were dropped
    assert bus.broadcast_log() == delivered
    assert all(m.topic == TOPIC for m in delivered)
    for actor in runner.pool + [runner.recipient, runner.sender]:
        assert bus.recv(actor.address) == []


def test_dropped_message_absent_from_recv():
    bus = MessageBus(drop_prob=1.0, rng=Random(1))
    bus.register_channel_key(BOB, b"\x01" * 64)
    bus.send_private(ALICE, BOB, b"lost")
    bus.deliver_pending()
    assert bus.recv(BOB) == []
    assert bus.log[0].delivered is False
    assert bus.meta_records(Ledger().hex_of)[0]["delivered"] is False


def test_metadata_exposes_sizes_not_payloads(bus):
    bus.send_private(ALICE, BOB, b"secret-payload")
    rec = bus.meta_records(Ledger().hex_of)[0]
    assert rec["size"] == len(b"secret-payload")
    assert "payload" not in rec
    assert rec["to"] == BOB.hex()


def test_broadcast_log_only_has_broadcasts(bus):
    bus.send_private(ALICE, BOB, b"private")
    bus.broadcast(BOB, b"public")
    assert [m.payload for m in bus.broadcast_log()] == [b"public"]
    assert bus.broadcast_log()[0].to == BROADCAST


def test_messages_never_cost_gas(bus):
    ledger = Ledger()
    account = ledger.register_eoa(bytes([3]) * 20)
    ledger.fund(account.address, 10**18)
    for i in range(50):
        bus.send_private(ALICE, BOB, bytes(100))
        bus.broadcast(BOB, bytes(1000))
    bus.deliver_pending()
    assert ledger.gas_total() == 0
    assert ledger.gas_sink == 0
    ledger.audit()


def test_drained_keys_are_the_delivered_ones_once_ascending():
    from tidsim.actors import TAG_KEY, body_of, tag_of
    from tidsim.scenario import ScenarioConfig, ScenarioRunner

    premature = {0: "premature", 1: "premature"}
    runner = ScenarioRunner(ScenarioConfig(seed=5, pool_size=6, n=4, l=2, t=2, fault_policies=premature, drop_prob=0.3))
    runner.run()
    runner.bus.drop_prob = 0.0
    for mailman in runner.sender.selected:
        runner._broadcast_key(mailman)  # publish every recruited key once more
    keys = runner._drain_broadcast_keys()

    published = [
        (int.from_bytes(body_of(m.payload)[0], "big"), m.delivered)
        for m in runner.bus.log
        if m.to == BROADCAST and tag_of(m.payload) == TAG_KEY
    ]
    delivered = [scalar for scalar, ok in published if ok]
    lost = {scalar for scalar, ok in published if not ok} - set(delivered)
    assert lost and len(delivered) > len(set(delivered))  # a key only dropped, and keys logged twice
    assert keys == sorted(set(delivered))
    assert set(keys) <= set(runner.recipient.collected_keys.values())
