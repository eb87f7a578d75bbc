"""Sender, mailman, and recipient roles.

The sender runs the silent three-way handshake entirely off-chain: it hands
each candidate an index plus the signed supplementary-code authorization and
collects the candidate's acceptance signature. Once n have accepted, it
splits the delivery key into onion-wrapped shares and counter-signs every
acceptance, all n signatures in one batch. Nothing about the recruited
group touches the chain until (and unless) heavyweight mode needs it.

Wire payloads on the message bus carry a 3-byte tag followed by a canonical
length-prefixed tuple; onion broadcasts never include layer-holder hints, so
unwrapping them is trial decryption against whatever keys a party has
collected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Optional, Sequence

from .channels import MessageBus
from .contracts import (
    AgentContract,
    SwitchContract,
    agreement_digest_mailman,
    agreement_digest_sender,
    sup_auth_digest,
)
from .crypto import (
    AuthenticationError,
    KeyPair,
    Onion,
    Share,
    Signature,
    decode_parts,
    ecies_openers,
    encode_parts,
    hash256,
    new_secret_key,
    onion_peel,
    onions_wrap,
    presign,
    recover_signer,
    scope_cache,
    sign,
    signed_by,
    ss_restore,
    ss_split,
    sym_decrypt,
    sym_encrypt,
)
from .ledger import (
    FN_NEW_MAILMAN,
    FN_NEW_SERVICE,
    Ledger,
)

TAG_INVITE = b"INV"
TAG_ACCEPT = b"ACC"
TAG_REFUSE = b"REF"
TAG_ONIONS = b"ONS"
TAG_BUNDLE = b"BND"
TAG_PACKAGE = b"PKG"
TAG_RESEND = b"RSD"
TAG_KEY = b"KEY"
TAG_SHARE = b"SHR"  # the strawman's raw share, not a length-prefixed tuple

POLICY_HONEST = "honest"
POLICY_PREMATURE = "premature"
POLICY_ABSENT = "absent"
POLICY_FAKE = "fake"
POLICY_WITHHOLD_LIGHT = "withhold_light"
POLICY_BRIBERABLE = "briberable"

FAULT_POLICIES = (
    POLICY_HONEST,
    POLICY_PREMATURE,
    POLICY_ABSENT,
    POLICY_FAKE,
    POLICY_WITHHOLD_LIGHT,
    POLICY_BRIBERABLE,
)


class ProtocolError(Exception):
    pass


def tag_of(payload: bytes) -> bytes:
    return payload[:3]


def body_of(payload: bytes) -> list[bytes]:
    return decode_parts(payload[3:])


def peel_with_keys(onions: Sequence[Onion], privkeys: list[bytes]) -> dict[int, Share]:
    """Trial-decrypt onions layer by layer with the keys on hand.

    The keys are indexed by scalar once per call. Each layer is then tried
    with the keys `crypto.ecies_openers` names: for a layer wrapped in the
    current `crypto.scope()`, only the keys that open it, found by lookup,
    else every key. A wrong key fails the AES-GCM tag, so the keys tried
    decide only the cost, never what the peel recovers.
    """
    keys_by_scalar = {int.from_bytes(key, "big"): key for key in privkeys}
    recovered: dict[int, Share] = {}
    for onion in onions:
        current = onion
        while current.layers_remaining:
            for key in ecies_openers(current.payload, keys_by_scalar):
                try:
                    current = onion_peel(current, key)
                    break
                except AuthenticationError:
                    pass
            else:
                break
        if current.layers_remaining == 0:
            share = current.share()
            recovered[share.index] = share
    return recovered


# Every selected courier receives the same bundle and onions, and the
# recipient the same onions, so what a party derives from those bytes alone
# is derived once per scenario run (see crypto.scope_cache). Each courier
# still checks the sender's signature itself.


@scope_cache
def _bundle_digest(bundle_blob: bytes, onions_blob: bytes) -> bytes:
    """The digest the sender signs over a courier's bundle and the onions."""
    return hash256(encode_parts(bundle_blob, onions_blob))


@scope_cache
def _bundle_of(bundle_blob: bytes) -> tuple[bytes, ...]:
    """A bundle's agreement blobs, each encrypted under the delivery key."""
    return tuple(decode_parts(bundle_blob))


@scope_cache
def _onions_of(onions_blob: bytes) -> tuple[Onion, ...]:
    """The onions of the sender's broadcast blob, in broadcast order."""
    return tuple(Onion.from_wire(raw) for raw in decode_parts(onions_blob))


@scope_cache
def _agreements_in(key: bytes, bundle: tuple[bytes, ...]) -> dict[int, tuple[Signature, Signature]]:
    """The agreements of a bundle that open under key, as index -> (vrs_s,
    vrs_m): each blob is opened once per run, however many couriers hold
    the bundle."""
    out = {}
    for blob in bundle:
        try:
            index, vrs_s, vrs_m = decode_parts(sym_decrypt(key, blob))
        except AuthenticationError:
            continue
        out[int.from_bytes(index, "big")] = Signature.from_bytes(vrs_s), Signature.from_bytes(vrs_m)
    return out


# couriers compare by identity: no two are alike, and a generated __eq__
# would compare every field, ledger and bus included, in each pool scan
@dataclass(eq=False)
class MailmanActor:
    """A registered courier; honesty is a policy knob consulted per epoch."""

    keypair: KeyPair
    channel_keys: KeyPair
    timeframe_keys: dict[int, KeyPair]
    ledger: Ledger
    bus: MessageBus
    agent: AgentContract
    deposit: int
    policy: str = POLICY_HONEST
    refuse_service: bool = False
    # per-service assignment, filled by the handshake
    index: Optional[int] = None
    sup_code: Optional[bytes] = None
    vrs_sup: Optional[Signature] = None
    bundle: tuple[bytes, ...] = ()  # shared by every courier of the run
    onions: tuple[Onion, ...] = ()  # shared by every courier of the run

    @property
    def address(self) -> bytes:
        return self.keypair.address

    def register(self):
        self.bus.register_channel_key(self.address, self.channel_keys.pubkey)
        self.ledger.submit_tx(
            self.address,
            self.agent.address,
            FN_NEW_MAILMAN,
            {
                "channel_pub": self.channel_keys.pubkey,
                "timeframe_pubkeys": {t: kp.pubkey for t, kp in self.timeframe_keys.items()},
            },
            value=self.deposit,
        )

    def is_recruited(self) -> bool:
        return self.index is not None

    # -- handshake (mailman side) ---------------------------------------------

    def handle_invite(self, sender_addr: bytes, body: list[bytes]) -> bytes:
        index = int.from_bytes(body[0], "big")
        switch_addr = body[1]
        sup_code = body[2]
        if self.refuse_service or not self._invite_checks_out(
            sender_addr, index, switch_addr, sup_code, body[3]
        ):
            return TAG_REFUSE + encode_parts(index)
        self.index = index
        self.sup_code = sup_code
        self.vrs_sup = Signature.from_bytes(body[3])
        vrs_m = sign(self.keypair.privkey, agreement_digest_mailman(switch_addr, index))
        return TAG_ACCEPT + encode_parts(index, vrs_m)

    def _invite_checks_out(self, sender_addr, index, switch_addr, sup_code, vrs_sup_raw) -> bool:
        switch = self.ledger.contracts.get(switch_addr)
        if not isinstance(switch, SwitchContract):
            return False
        if switch.state["sender"] != sender_addr.hex():
            return False
        if sup_code.hex() != switch.state["sup_code"]:
            return False
        if not signed_by(sup_auth_digest(switch_addr, sup_code), vrs_sup_raw, sender_addr):
            return False
        svc = self.agent.state["services"].get(switch_addr.hex())
        if svc is None or not 1 <= index <= svc["n"]:
            return False
        return str(svc["timeframe_tick"]) in self.agent.state["mailmen"][self.address.hex()][
            "timeframe_pubkeys"
        ]

    def accept_bundle(self, sender_addr: bytes, body: list[bytes]) -> bool:
        bundle_blob, onions_blob, vrs_sm_raw = body
        if not signed_by(_bundle_digest(bundle_blob, onions_blob), vrs_sm_raw, sender_addr):
            return False
        self.bundle = _bundle_of(bundle_blob)
        self.onions = _onions_of(onions_blob)
        return True

    # -- reveals ---------------------------------------------------------------

    def reveals(self, lightweight: bool) -> bool:
        """Whether this mailman publishes its key in a round: absent and
        premature couriers never do, a withholding one skips only the
        lightweight round."""
        if lightweight and self.policy == POLICY_WITHHOLD_LIGHT:
            return False
        return self.policy not in (POLICY_ABSENT, POLICY_PREMATURE)

    def reveal_scalar(self, timeframe_tick: int) -> int:
        """The scalar this mailman publishes, honest or faked per policy."""
        true_key = int.from_bytes(self.timeframe_keys[timeframe_tick].privkey, "big")
        if self.policy == POLICY_FAKE:
            return (true_key * 2 + 1) % 2**255 + 1
        return true_key

    def agreements(self, key: bytes) -> dict[int, tuple[Signature, Signature]]:
        """The agreements of this mailman's bundle that open under the
        delivery key, as index -> (vrs_s, vrs_m); empty if the bundle was
        lost. Within a scope every courier of a run reads one shared dict,
        which no caller may change."""
        return _agreements_in(key, self.bundle)


@dataclass
class SenderActor:
    keypair: KeyPair
    rng: Random
    ledger: Ledger
    bus: MessageBus
    agent: AgentContract
    recipient_addr: bytes
    info: bytes
    l: int
    t: int
    n: int
    timeframe_tick: int
    remuneration: int
    sup_code: bytes = b"supplementary-code-v1"
    key: bytes = b""
    receipt_secret: bytes = b""
    switch: Optional[SwitchContract] = None
    service_id: Optional[str] = None
    selected: list[MailmanActor] = field(default_factory=list)
    agreements: dict[int, dict] = field(default_factory=dict)
    onions: list[Onion] = field(default_factory=list)
    package_blob: bytes = b""
    tamper_package: bool = False

    @property
    def address(self) -> bytes:
        return self.keypair.address

    # -- on-chain setup -------------------------------------------------------

    def setup(self):
        """Deploy the switch, commit the service; zero recruitment bytes on chain."""
        self.key = new_secret_key(self.rng)
        self.receipt_secret = new_secret_key(self.rng)
        self.switch = self.ledger.deploy_contract(
            self.address,
            SwitchContract,
            agent_addr=self.agent.address,
            sender=self.address,
            sup_code=self.sup_code,
        )
        sup_addr = self.ledger.predict_address(self.switch.address, 0)
        self.ledger.submit_tx(
            self.address,
            self.agent.address,
            FN_NEW_SERVICE,
            {
                "timeframe_tick": self.timeframe_tick,
                "l": self.l,
                "t": self.t,
                "n": self.n,
                "switch_addr": self.switch.address,
                "sup_addr": sup_addr,
                "recipient": self.recipient_addr,
                "receipt_commitment": hash256(self.receipt_secret),
            },
            value=self.remuneration,
        )
        self.service_id = self.switch.address.hex()

    def vrs_sup(self) -> Signature:
        return sign(self.keypair.privkey, sup_auth_digest(self.switch.address, self.sup_code))

    # -- recruitment ------------------------------------------------------------

    def select_mailmen(self, pool: list[MailmanActor], override: Optional[list[int]] = None) -> list[MailmanActor]:
        """Uniform selection without replacement; an override replaces the
        outcome but consumes the same number of random draws. `validate()`
        guarantees a pool of at least n and an override of n distinct indices."""
        drawn = self.rng.sample(range(len(pool)), self.n)
        chosen = override if override is not None else drawn
        return [pool[i] for i in chosen]

    def recruit(self, pool: list[MailmanActor], override: Optional[list[int]] = None):
        """Three-way handshake with every selected mailman, retrying lost
        messages and re-selecting replacements for refusals until n
        agreements are signed."""
        candidates = self.select_mailmen(pool, override)
        # A cost-only look-ahead inside the run's scope, like onions_wrap's:
        # candidate i is invited with index i, so the sender's authorisation
        # and every acceptance are signed from one batch, and each sign()
        # below reads its signature back. A refusal shifts later indices;
        # those signatures miss and are made alone. No byte changes.
        presign(
            [(self.keypair.privkey, sup_auth_digest(self.switch.address, self.sup_code))]
            + [
                (m.keypair.privkey, agreement_digest_mailman(self.switch.address, index))
                for index, m in enumerate(candidates, 1)
            ]
        )
        remaining = [m for m in pool if m not in candidates]
        vrs_sup = self.vrs_sup()
        self.selected = []
        for index in range(1, self.n + 1):
            while True:
                if not candidates:
                    raise ProtocolError("pool exhausted during recruitment")
                mailman = candidates.pop(0)
                outcome = None
                for _ in range(4):  # retry on message loss, not on refusal
                    outcome = self._handshake(mailman, index, vrs_sup)
                    if outcome is not None:
                        break
                if outcome:
                    self.selected.append(mailman)
                    break
                if remaining:
                    candidates.append(remaining.pop(self.rng.randrange(len(remaining))))
        self._finish_recruitment()

    def _handshake(self, mailman: MailmanActor, index: int, vrs_sup: Signature) -> Optional[bool]:
        """One handshake round trip: True accept, False refuse, None lost."""
        invite = TAG_INVITE + encode_parts(index, self.switch.address, self.sup_code, vrs_sup)
        self.bus.send_private(self.address, mailman.address, invite)
        self.bus.deliver_pending()
        msgs = self.bus.recv(mailman.address)
        if not msgs:
            return None
        reply = mailman.handle_invite(self.address, body_of(msgs[-1].payload))
        self.bus.send_private(mailman.address, self.address, reply)
        self.bus.deliver_pending()
        answers = self.bus.recv(self.address)
        if not answers:
            return None
        answer = answers[-1].payload
        if tag_of(answer) != TAG_ACCEPT:
            return False
        fields = body_of(answer)
        vrs_m = Signature.from_bytes(fields[1])
        if recover_signer(agreement_digest_mailman(self.switch.address, index), vrs_m) != mailman.address:
            return False
        # the sender countersigns every agreement at once, in _finish_recruitment
        self.agreements[index] = {"mailman": mailman, "vrs_m": vrs_m}
        return True

    def layer_holders(self, share_index: int) -> list[MailmanActor]:
        """Share i is wrapped by the l mailmen at positions i-1 .. i+l-2 of the
        selection (cyclic); the last listed key is the outermost layer."""
        return [self.selected[(share_index - 1 + j) % self.n] for j in range(self.l)]

    def _finish_recruitment(self):
        shares = ss_split(self.key, self.t, self.n, self.rng)
        pubkeys = [
            [m.timeframe_keys[self.timeframe_tick].pubkey for m in self.layer_holders(share.index)]
            for share in shares
        ]
        self.onions = onions_wrap(shares, pubkeys, self.rng)

        onions_blob = encode_parts(*[o.wire_bytes() for o in self.onions])
        self.bus.broadcast(self.address, TAG_ONIONS + onions_blob)

        indices = sorted(self.agreements)
        vrs_m = [self.agreements[index]["vrs_m"] for index in indices]
        digests = [agreement_digest_sender(self.switch.address, index, m) for index, m in zip(indices, vrs_m)]
        presign([(self.keypair.privkey, digest) for digest in digests])
        vrs_s = [sign(self.keypair.privkey, digest) for digest in digests]
        tuples = [
            sym_encrypt(self.key, encode_parts(index, s, m), self.rng) for index, s, m in zip(indices, vrs_s, vrs_m)
        ]
        bundle_blob = encode_parts(*tuples)
        vrs_sm = sign(self.keypair.privkey, _bundle_digest(bundle_blob, onions_blob))
        # every courier gets the same bytes, so n messages share one payload
        bundle_msg = TAG_BUNDLE + encode_parts(bundle_blob, onions_blob, vrs_sm)
        for index in sorted(self.agreements):
            self.bus.send_private(self.address, self.agreements[index]["mailman"].address, bundle_msg)

        ct = sym_encrypt(self.key, encode_parts(self.info, self.receipt_secret), self.rng)
        vrs_st = sign(self.keypair.privkey, hash256(encode_parts(ct, onions_blob)))
        self.package_blob = TAG_PACKAGE + encode_parts(ct, onions_blob, vrs_st)
        first = self.package_blob
        if self.tamper_package:
            first = bytearray(self.package_blob)
            first[-1] ^= 0xFF
            first = bytes(first)
        self.bus.send_private(self.address, self.recipient_addr, first)

    def resend_package(self):
        self.bus.send_private(self.address, self.recipient_addr, self.package_blob)


@dataclass
class RecipientActor:
    keypair: KeyPair
    channel_keys: KeyPair
    bus: MessageBus
    ciphertext: bytes = b""
    onions: tuple[Onion, ...] = ()
    collected_keys: dict[bytes, int] = field(default_factory=dict)
    info: Optional[bytes] = None
    receipt_secret: Optional[bytes] = None
    receipt_submitted: bool = False
    shares_recovered: int = 0

    @property
    def address(self) -> bytes:
        return self.keypair.address

    def join(self):
        self.bus.register_channel_key(self.address, self.channel_keys.pubkey)

    def accept_package(self, sender_addr: bytes, payload: bytes) -> bool:
        """Verify the sender's signature over the package; ask for a resend
        when it does not check out."""
        ct, onions_blob, vrs_st_raw = body_of(payload)
        if not signed_by(hash256(encode_parts(ct, onions_blob)), vrs_st_raw, sender_addr):
            self.bus.send_private(self.address, sender_addr, TAG_RESEND + encode_parts(b"bad-signature"))
            return False
        self.ciphertext = ct
        self.onions = _onions_of(onions_blob)
        return True

    def note_key(self, scalar: int):
        self.collected_keys[scalar.to_bytes(32, "big")] = scalar

    def try_restore(self, t: int) -> bool:
        if self.info is not None:
            return True
        shares = peel_with_keys(self.onions, list(self.collected_keys))
        self.shares_recovered = len(shares)
        return self.restore(list(shares.values()), t)

    def restore(self, shares: list[Share], t: int) -> bool:
        """Restore the delivery key from t or more shares and open the
        package with it. False below t shares, or when the package does not
        open (never received, tampered, or a wrong key)."""
        if len(shares) < t:
            return False
        key = ss_restore(shares, t)
        try:
            self.info, self.receipt_secret = decode_parts(sym_decrypt(key, self.ciphertext))
        except AuthenticationError:
            return False
        return True
