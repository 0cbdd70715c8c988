"""Network interface + lossy datagram channel for crash-dump delivery.

The paper's crash handler bypasses the (possibly dying) filesystem and
hands crash packets directly to the network card's packet-sending
function, over UDP, to a remote collector.  UDP is best-effort: some
dumps never arrive, and those crashes land in the Hang/Unknown-Crash
column.  :class:`LossyChannel` models that best-effort delivery with a
seeded loss probability.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from typing import Callable, List, Optional

CRASH_PACKET_MAGIC = 0x4E465441        # "NFTA"
PACKET_HEADER = struct.Struct(">IIHHIIQ")


@dataclass
class Packet:
    """One UDP-like datagram."""

    payload: bytes
    seq: int


class LossyChannel:
    """Best-effort datagram delivery with seeded loss."""

    def __init__(self, loss_probability: float, seed: int = 0):
        if not 0.0 <= loss_probability <= 1.0:
            raise ValueError("loss probability must be within [0, 1]")
        self.loss_probability = loss_probability
        self._seed = seed
        # seeded lazily: a channel is built per forked machine but only
        # consulted when a crash dump is actually sent, and
        # ``Random(seed)`` state is a pure function of the seed
        self._rng: Optional[random.Random] = None
        self.sent = 0
        self.lost = 0

    def deliver(self, packet: Packet,
                receiver: Optional[Callable[[Packet], None]]) -> bool:
        self.sent += 1
        if self._rng is None:
            self._rng = random.Random(self._seed)
        if self._rng.random() < self.loss_probability:
            self.lost += 1
            return False
        if receiver is not None:
            receiver(packet)
        return True


class NIC:
    """The target node's network card (packet-sending function only).

    The crash handler calls :meth:`send_raw` directly — no sockets, no
    filesystem, exactly the paper's bypass path.
    """

    def __init__(self, channel: LossyChannel,
                 receiver: Optional[Callable[[Packet], None]] = None):
        self.channel = channel
        self.receiver = receiver
        self._seq = 0
        self.tx_count = 0

    def send_raw(self, payload: bytes) -> bool:
        self._seq += 1
        self.tx_count += 1
        return self.channel.deliver(Packet(payload, self._seq),
                                    self.receiver)


def encode_crash_packet(arch: str, vector_code: int, pc: int,
                        address: int, cycles: int,
                        frame_pointers: List[int],
                        detail: str) -> bytes:
    """Serialize a crash dump the way the kernel handler would."""
    arch_code = 1 if arch == "x86" else 2
    header = PACKET_HEADER.pack(
        CRASH_PACKET_MAGIC, vector_code, arch_code,
        len(frame_pointers), pc, address & 0xFFFFFFFF, cycles)
    body = b"".join(struct.pack(">I", fp & 0xFFFFFFFF)
                    for fp in frame_pointers)
    text = detail.encode("utf-8", "replace")[:128]
    return header + body + struct.pack(">H", len(text)) + text


def decode_crash_packet(payload: bytes) -> dict:
    """Parse a crash packet back into a record (collector side)."""
    magic, vector, arch_code, nframes, pc, address, cycles = \
        PACKET_HEADER.unpack_from(payload, 0)
    if magic != CRASH_PACKET_MAGIC:
        raise ValueError("bad crash packet magic")
    offset = PACKET_HEADER.size
    frames = []
    for _ in range(nframes):
        frames.append(struct.unpack_from(">I", payload, offset)[0])
        offset += 4
    (text_len,) = struct.unpack_from(">H", payload, offset)
    offset += 2
    detail = payload[offset:offset + text_len].decode("utf-8", "replace")
    return {
        "arch": "x86" if arch_code == 1 else "ppc",
        "vector": vector,
        "pc": pc,
        "address": address,
        "cycles": cycles,
        "frame_pointers": frames,
        "detail": detail,
    }
