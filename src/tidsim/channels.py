"""In-process model of whisper-style off-chain messaging.

Two primitives: public broadcast and private channels keyed by a registered
channel public key. A broadcast is an entry of the public log that records
its topic; anyone reads it from `broadcast_log()`, and it reaches no inbox.
Messages cost no gas and never touch ledger state. Payload confidentiality
is a property of the observer API, not of wire encryption: the adversary
view exposes broadcast payloads and private-message metadata only.

Delivery is deterministic: private messages queue when sent and move to
inboxes at tick boundaries, ordered by (sender address, send sequence).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Mapping, Optional

BROADCAST = b"\xff" * 20  # destination marker for topic messages
TOPIC = b"tids"  # the one topic every broadcast carries


class ChannelError(Exception):
    pass


@dataclass
class ChannelMsg:
    seq: int
    sent_tick: int
    sender: bytes
    to: bytes  # BROADCAST for topic messages
    topic: Optional[bytes]  # TOPIC on broadcasts, None on private messages
    payload: bytes
    delivered: bool = True  # false when the fault injector dropped it

    def size(self) -> int:
        return len(self.payload)

    def meta_record(self, hex_of: Mapping[bytes, str]) -> dict:
        """The message's public record; hex_of names each address, as the ledger's map does."""
        rec = {
            "type": "message",
            "seq": self.seq,
            "tick": self.sent_tick,
            "from": hex_of[self.sender],
            "to": "broadcast" if self.to == BROADCAST else hex_of[self.to],
            "topic": self.topic.hex() if self.topic else None,
            "size": self.size(),
            "delivered": self.delivered,
        }
        if self.to == BROADCAST:
            # broadcast payloads are public; private payloads never leave the bus
            rec["payload"] = self.payload.hex()
        return rec


@dataclass
class MessageBus:
    drop_prob: float = 0.0
    rng: Optional[Random] = None
    log: list[ChannelMsg] = field(default_factory=list)
    _channel_keys: dict[bytes, bytes] = field(default_factory=dict)
    _pending: list[ChannelMsg] = field(default_factory=list)
    _inboxes: dict[bytes, list[ChannelMsg]] = field(default_factory=dict)
    _tick: int = 0

    def register_channel_key(self, owner: bytes, channel_pub: bytes):
        self._channel_keys[owner] = channel_pub
        self._inboxes.setdefault(owner, [])

    def _dropped(self) -> bool:
        return self.drop_prob > 0 and self.rng is not None and self.rng.random() < self.drop_prob

    def _log(self, sender: bytes, to: bytes, topic: Optional[bytes], payload: bytes) -> ChannelMsg:
        """Append a message to the log, drawing the fault injector's verdict."""
        msg = ChannelMsg(len(self.log), self._tick, sender, to, topic, payload, delivered=not self._dropped())
        self.log.append(msg)
        return msg

    def send_private(self, sender: bytes, to: bytes, payload: bytes):
        if to not in self._channel_keys:
            raise ChannelError("recipient has no registered channel key")
        msg = self._log(sender, to, None, payload)
        if msg.delivered:
            self._pending.append(msg)

    def broadcast(self, sender: bytes, payload: bytes):
        self._log(sender, BROADCAST, TOPIC, payload)

    def deliver_pending(self, tick: Optional[int] = None):
        """Move queued private messages into inboxes in deterministic order."""
        if tick is not None:
            self._tick = tick
        for msg in sorted(self._pending, key=lambda m: (m.sender, m.seq)):
            self._inboxes.setdefault(msg.to, []).append(msg)
        self._pending.clear()

    def recv(self, owner: bytes) -> list[ChannelMsg]:
        """Drain the owner's inbox (delivery order preserved)."""
        inbox = self._inboxes.get(owner, [])
        self._inboxes[owner] = []
        return inbox

    def broadcast_log(self) -> list[ChannelMsg]:
        """Every broadcast the fault injector did not drop, in send order."""
        return [m for m in self.log if m.to == BROADCAST and m.delivered]

    def meta_records(self, hex_of: Mapping[bytes, str]) -> list[dict]:
        return [m.meta_record(hex_of) for m in self.log]
