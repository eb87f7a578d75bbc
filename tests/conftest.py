"""Shared fixtures: a funded marketplace with registered mailmen."""

from dataclasses import dataclass, field
from random import Random
from types import SimpleNamespace

import pytest

from tidsim.contracts import AgentContract, SwitchContract, sup_auth_digest
from tidsim.crypto import KeyPair, hash256, keypair_gen, sign
from tidsim.ledger import FN_NEW_MAILMAN, FN_NEW_SERVICE, Ledger, WEI_PER_ETHER

ETHER = WEI_PER_ETHER
SUP_CODE = b"supplementary-code-v1"

# The numpy release the SHA-256 pins of the A_T and x sweeps and of
# blind_bribery_trials were taken under. NEP 19 does not keep Generator
# streams across feature releases, so under another release a moved pin may
# be environmental rather than a defect.
PINNED_NUMPY = "2.4.6"


def numpy_pin_note() -> str:
    import numpy

    return f"pinned under numpy {PINNED_NUMPY}, running numpy {numpy.__version__}"


@dataclass
class Party:
    keypair: KeyPair
    channel: KeyPair
    timeframe_keys: dict[int, KeyPair] = field(default_factory=dict)

    @property
    def address(self) -> bytes:
        return self.keypair.address


def make_world(
    n_mailmen=4,
    deposit=ETHER,
    min_deposit=ETHER,
    timeframe_tick=10,
    epoch_ticks=1,
    seed=1,
    fund=1000 * ETHER,
):
    """Ledger + agent contract + funded sender/recipient/mailman parties."""
    rng = Random(seed)
    ledger = Ledger()

    def new_party():
        party = Party(keypair=keypair_gen(rng), channel=keypair_gen(rng))
        party.timeframe_keys[timeframe_tick] = keypair_gen(rng)
        ledger.register_eoa(party.address)
        ledger.fund(party.address, fund)
        return party

    operator = new_party()
    sender = new_party()
    recipient = new_party()
    mailmen = [new_party() for _ in range(n_mailmen)]

    agent = ledger.deploy_contract(
        operator.address, AgentContract, min_deposit=min_deposit, epoch_ticks=epoch_ticks
    )
    for m in mailmen:
        ledger.submit_tx(
            m.address,
            agent.address,
            FN_NEW_MAILMAN,
            {
                "channel_pub": m.channel.pubkey,
                "timeframe_pubkeys": {timeframe_tick: m.timeframe_keys[timeframe_tick].pubkey},
            },
            value=deposit,
        )

    return SimpleNamespace(
        rng=rng,
        ledger=ledger,
        agent=agent,
        operator=operator,
        sender=sender,
        recipient=recipient,
        mailmen=mailmen,
        timeframe_tick=timeframe_tick,
        deposit=deposit,
    )


def open_service(world, l=2, t=2, n=None, remuneration=ETHER // 2):
    """Deploy a switch and create a service; returns (switch, service_id)."""
    ledger, sender = world.ledger, world.sender
    n = n if n is not None else len(world.mailmen)
    switch = ledger.deploy_contract(
        sender.address,
        SwitchContract,
        agent_addr=world.agent.address,
        sender=sender.address,
        sup_code=SUP_CODE,
    )
    receipt_secret = world.rng.getrandbits(256).to_bytes(32, "big")
    ledger.submit_tx(
        sender.address,
        world.agent.address,
        FN_NEW_SERVICE,
        {
            "timeframe_tick": world.timeframe_tick,
            "l": l,
            "t": t,
            "n": n,
            "switch_addr": switch.address,
            "sup_addr": ledger.predict_address(switch.address, 0),
            "recipient": world.recipient.address,
            "receipt_commitment": hash256(receipt_secret),
        },
        value=remuneration,
    )
    return SimpleNamespace(
        switch=switch,
        sid=switch.address.hex(),
        receipt_secret=receipt_secret,
        remuneration=remuneration,
        vrs_sup=sign(sender.keypair.privkey, sup_auth_digest(switch.address, SUP_CODE)),
        l=l,
        t=t,
        n=n,
    )


@pytest.fixture
def world():
    return make_world()
