"""UDP echo probe: wire format, stateless reflector, and paced client.

The client stamps each probe at send, the reflector stamps receive and
re-send, and the client stamps arrival, which splits the round trip into
an uplink (send to reflector receive), a downlink (reflector send to
arrival), and the full loop. Timestamps ride in the packet, so the
reflector keeps no state and any number of clients can share one.

One-way figures are only meaningful when both ends share a clock (same
host, or externally synchronized); the round trip needs no sync at all.
"""

from __future__ import annotations

import select
import socket
import struct
import threading
import time
from dataclasses import dataclass, replace

import numpy as np

from .core import ABSENT, Trace
from .errors import BadMagic, BindFailure, LlabError, SocketFailure, Truncated, UnsupportedVersion

#: "LLAB" in big-endian ASCII.
MAGIC = 0x4C4C4142
VERSION = 1
HEADER_LEN = 40
#: magic u32, version u8, flags u8, reserved u16, then four u64 fields:
#: seq, t_client_send, t_server_recv, t_server_send (all wall-clock ns).
_HEADER = struct.Struct(">IBBHQQQQ")

#: Flag bit set by the reflector so a client never mistakes stray copies of
#: its own packets for replies.
FLAG_SERVER_ECHO = 0x01

#: Final stretch before a send deadline that is busy-waited instead of
#: blocked in select; wake-ups on virtualized hosts overshoot by whole
#: milliseconds, so the margin has to be generous.
_SPIN_NS = 2_500_000

#: Within the busy-wait, keep yielding the CPU (to a reflector sharing it)
#: until this close to the deadline; only the last stretch is a pure spin.
_YIELD_NS = 300_000


@dataclass(frozen=True)
class ProbePacket:
    seq: int
    t_client_send: int
    t_server_recv: int = 0
    t_server_send: int = 0
    flags: int = 0
    version: int = VERSION
    reserved: int = 0

    @property
    def server_echoed(self) -> bool:
        return bool(self.flags & FLAG_SERVER_ECHO)


def encode_packet(pkt: ProbePacket, payload_size: int = HEADER_LEN) -> bytes:
    """Serialize a packet, zero-padded to payload_size bytes."""
    if payload_size < HEADER_LEN:
        raise ValueError(f"payload_size must be >= {HEADER_LEN}, got {payload_size}")
    head = _HEADER.pack(MAGIC, pkt.version, pkt.flags, pkt.reserved,
                        pkt.seq, pkt.t_client_send, pkt.t_server_recv, pkt.t_server_send)
    return head + b"\x00" * (payload_size - HEADER_LEN)


def decode_packet(data: bytes) -> ProbePacket:
    """Parse a packet header; padding past the header is ignored.

    :raises Truncated: fewer than the header's bytes arrived.
    :raises BadMagic: the stream is not a probe packet.
    :raises UnsupportedVersion: a future or corrupt version byte.
    """
    if len(data) < HEADER_LEN:
        raise Truncated(f"packet is {len(data)} bytes, header needs {HEADER_LEN}")
    magic, version, flags, reserved, seq, t_cs, t_sr, t_ss = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise BadMagic(f"bad magic 0x{magic:08X}")
    if version != VERSION:
        raise UnsupportedVersion(f"version {version} not supported")
    return ProbePacket(seq=seq, t_client_send=t_cs, t_server_recv=t_sr,
                       t_server_send=t_ss, flags=flags, version=version,
                       reserved=reserved)


class ProbeServer:
    """Stateless UDP reflector; anything that does not decode is dropped."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            self._sock.bind((host, port))
        except OSError as e:
            self._sock.close()
            raise BindFailure(f"cannot bind {host}:{port}: {e}") from None
        self._sock.settimeout(0.2)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.n_echoed = 0

    @property
    def port(self) -> int:
        return self._sock.getsockname()[1]

    @property
    def host(self) -> str:
        return self._sock.getsockname()[0]

    def start(self) -> "ProbeServer":
        """Echo on a background thread until stop()."""
        self._thread = threading.Thread(target=self.serve, name="llab-probe-server",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self._sock.close()

    def __enter__(self) -> "ProbeServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def serve(self) -> None:
        """Echo on the calling thread until stop() or a socket error."""
        while not self._stop.is_set():
            try:
                data, addr = self._sock.recvfrom(65535)
            except socket.timeout:
                continue
            except OSError:
                return
            t_recv = time.time_ns()
            try:
                pkt = decode_packet(data)
            except LlabError:
                continue
            echo = replace(pkt, t_server_recv=t_recv,
                           flags=pkt.flags | FLAG_SERVER_ECHO,
                           t_server_send=time.time_ns())
            # counted before the send, so a client that holds the echo sees it counted
            self.n_echoed += 1
            try:
                self._sock.sendto(encode_packet(echo, len(data)), addr)
            except OSError:
                self.n_echoed -= 1


@dataclass(frozen=True)
class ProbeConfig:
    """Client schedule: probes every interval_ns for duration_s seconds."""

    host: str = "127.0.0.1"
    port: int = 0
    interval_ns: int = 2_000_000
    duration_s: float = 1.0
    payload_size: int = 64
    receive_timeout_ms: int = 1000

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.interval_ns < 100_000:
            raise ValueError("interval_ns must be at least 100000 (100 us)")
        if self.payload_size < HEADER_LEN:
            raise ValueError(f"payload_size must be >= {HEADER_LEN}")

    @property
    def n_probes(self) -> int:
        return max(1, int(round(self.duration_s * 1e9 / self.interval_ns)))


def run_client(config: ProbeConfig) -> Trace:
    """Send paced probes, collect echoes, and return the resulting trace.

    One thread does both: while it waits for each send deadline it drains
    and records every queued echo. Probes the reflector answers carry all
    three delays; probes with no reply inside the drain window are lost
    rows. An unreachable reflector therefore yields an all-lost trace, not
    an error.
    """
    n = config.n_probes
    try:
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    except OSError as e:
        raise SocketFailure(f"cannot create probe socket: {e}") from None
    sock.setblocking(False)

    t_send = np.zeros(n, dtype=np.int64)
    ul = np.full(n, ABSENT, dtype=np.int64)
    dl = np.full(n, ABSENT, dtype=np.int64)
    rtt = np.full(n, ABSENT, dtype=np.int64)
    got = np.zeros(n, dtype=bool)
    dest = (config.host, config.port)
    sent = n_got = 0

    def drain() -> None:
        nonlocal n_got
        while True:
            try:
                data = sock.recv(65535)
            except OSError:
                return  # nothing queued (or a transient error): back to waiting
            t_recv = time.time_ns()
            try:
                pkt = decode_packet(data)
            except LlabError:
                continue
            i = pkt.seq  # an echo of a probe not yet sent is a stray
            if pkt.server_echoed and 0 <= i < sent and not got[i]:
                ul[i] = max(0, pkt.t_server_recv - pkt.t_client_send)
                dl[i] = max(0, t_recv - pkt.t_server_send)
                rtt[i] = max(0, t_recv - pkt.t_client_send)
                got[i] = True
                n_got += 1

    def wait_until(deadline_mono_ns: int) -> None:
        # absolute deadline: oversleeping one probe never shifts the next
        while n_got < n and (rem := deadline_mono_ns - time.monotonic_ns()) > 0:
            if rem > _SPIN_NS:
                select.select([sock], [], [], (rem - _SPIN_NS) / 1e9)
            elif rem > _YIELD_NS:
                time.sleep(0)
            drain()

    try:
        t0 = time.monotonic_ns()
        for i in range(n):
            wait_until(t0 + i * config.interval_ns)
            tw = time.time_ns()
            t_send[i] = tw
            sent = i + 1
            try:
                sock.sendto(encode_packet(ProbePacket(seq=i, t_client_send=tw),
                                          config.payload_size), dest)
            except OSError:
                continue  # unreachable peer: the row simply stays lost
        wait_until(time.monotonic_ns() + config.receive_timeout_ms * 1_000_000)
    finally:
        sock.close()

    # wall clock can step backwards mid-run; measurements taken across the
    # step are meaningless, so those rows are flagged lost and the stored
    # send times are clamped to stay non-decreasing
    stepped = np.zeros(n, dtype=bool)
    stepped[1:] = t_send[1:] < t_send[:-1]
    np.maximum.accumulate(t_send, out=t_send)
    lost = ~got | stepped
    ul[lost] = ABSENT
    dl[lost] = ABSENT
    rtt[lost] = ABSENT
    return Trace(
        seq=np.arange(n, dtype=np.uint64), t_send=t_send,
        ul=ul, dl=dl, rtt=rtt, lost=lost,
        dt_nominal=config.interval_ns,
    )


def pacing_errors_ns(trace: Trace) -> np.ndarray:
    """Per-probe lateness against the schedule origin + seq * interval.

    No probe leaves before its deadline, so the least-late probe is the
    best estimate of the origin: min(t_send - seq * interval). Every error
    is >= 0, and no one probe's lateness shifts the others' errors.
    """
    offset = trace.t_send - trace.seq.astype(np.int64) * trace.dt_nominal
    return offset - offset.min()
