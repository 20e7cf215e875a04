"""Wire format and loopback behavior of the UDP echo probe."""

import socket
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llab.core import validate_trace
from llab.errors import BadMagic, Truncated, UnsupportedVersion
from llab.probe import (
    FLAG_SERVER_ECHO,
    HEADER_LEN,
    ProbeConfig,
    ProbePacket,
    ProbeServer,
    decode_packet,
    encode_packet,
    pacing_errors_ns,
    run_client,
)

U64 = st.integers(0, 2**64 - 1)


class TestWireFormat:
    def test_header_layout(self):
        pkt = ProbePacket(seq=1, t_client_send=2, t_server_recv=3, t_server_send=4)
        data = encode_packet(pkt)
        assert len(data) == HEADER_LEN
        assert data[:4] == b"LLAB"
        assert data[4] == 1  # version
        assert data[8:16] == (1).to_bytes(8, "big")
        assert data[16:24] == (2).to_bytes(8, "big")
        assert data[24:32] == (3).to_bytes(8, "big")
        assert data[32:40] == (4).to_bytes(8, "big")

    def test_padding_to_payload_size(self):
        data = encode_packet(ProbePacket(seq=0, t_client_send=0), payload_size=64)
        assert len(data) == 64
        assert data[HEADER_LEN:] == b"\x00" * 24

    def test_payload_smaller_than_header_rejected(self):
        with pytest.raises(ValueError):
            encode_packet(ProbePacket(seq=0, t_client_send=0), payload_size=39)

    @settings(max_examples=200)
    @given(seq=U64, t_cs=U64, t_sr=U64, t_ss=U64,
           flags=st.integers(0, 255), pad=st.integers(0, 100))
    def test_round_trip(self, seq, t_cs, t_sr, t_ss, flags, pad):
        pkt = ProbePacket(seq=seq, t_client_send=t_cs, t_server_recv=t_sr,
                          t_server_send=t_ss, flags=flags)
        back = decode_packet(encode_packet(pkt, HEADER_LEN + pad))
        assert back == pkt

    def test_truncated(self):
        data = encode_packet(ProbePacket(seq=0, t_client_send=0))
        with pytest.raises(Truncated):
            decode_packet(data[:39])

    def test_bad_magic(self):
        data = bytearray(encode_packet(ProbePacket(seq=0, t_client_send=0)))
        data[0] ^= 0xFF
        with pytest.raises(BadMagic):
            decode_packet(bytes(data))

    def test_unsupported_version(self):
        data = bytearray(encode_packet(ProbePacket(seq=0, t_client_send=0)))
        data[4] = 2
        with pytest.raises(UnsupportedVersion):
            decode_packet(bytes(data))

    def test_echo_flag_property(self):
        assert not ProbePacket(seq=0, t_client_send=0).server_echoed
        assert ProbePacket(seq=0, t_client_send=0,
                           flags=FLAG_SERVER_ECHO).server_echoed


class TestProbeConfig:
    def test_interval_floor(self):
        with pytest.raises(ValueError):
            ProbeConfig(interval_ns=99_999)
        ProbeConfig(interval_ns=100_000)  # boundary is allowed

    def test_duration_positive(self):
        with pytest.raises(ValueError):
            ProbeConfig(duration_s=0.0)

    def test_payload_floor(self):
        with pytest.raises(ValueError):
            ProbeConfig(payload_size=39)

    def test_probe_count(self):
        assert ProbeConfig(duration_s=1.0, interval_ns=2_000_000).n_probes == 500
        assert ProbeConfig(duration_s=0.0001, interval_ns=100_000).n_probes == 1


class TestServer:
    def test_echo_stamps_and_flags(self):
        with ProbeServer() as srv:
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.settimeout(2.0)
            try:
                pkt = ProbePacket(seq=7, t_client_send=123)
                sock.sendto(encode_packet(pkt, 64), ("127.0.0.1", srv.port))
                data, _ = sock.recvfrom(65535)
            finally:
                sock.close()
            echo = decode_packet(data)
            assert len(data) == 64  # reflected at the original size
            assert echo.seq == 7
            assert echo.t_client_send == 123
            assert echo.server_echoed
            assert echo.t_server_recv > 0
            assert echo.t_server_send >= echo.t_server_recv
            assert srv.n_echoed == 1

    def test_garbage_is_dropped(self):
        with ProbeServer() as srv:
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.settimeout(0.3)
            try:
                sock.sendto(b"definitely not a probe", ("127.0.0.1", srv.port))
                with pytest.raises(socket.timeout):
                    sock.recvfrom(65535)
            finally:
                sock.close()
            assert srv.n_echoed == 0

    def test_ephemeral_port_assigned(self):
        with ProbeServer() as srv:
            assert srv.port > 0


class TestClient:
    def test_loopback_round(self):
        with ProbeServer() as srv:
            cfg = ProbeConfig(port=srv.port, interval_ns=2_000_000,
                              duration_s=0.2, receive_timeout_ms=500)
            trace = run_client(cfg)
        assert len(trace) == 100
        assert list(trace.seq) == list(range(100))
        delivered = ~trace.lost
        assert delivered.mean() > 0.9  # loopback, loss should be rare
        # reflected delays are present and consistent on every delivered row
        assert np.all(trace.ul[delivered] >= 0)
        assert np.all(trace.dl[delivered] >= 0)
        assert np.all(trace.rtt[delivered] >= 0)
        assert np.all(np.diff(trace.t_send) >= 0)
        report = validate_trace(trace)
        assert report.delay_split_violations == 0

    def test_unreachable_peer_yields_all_lost_trace(self):
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()  # nothing listens here now
        cfg = ProbeConfig(port=port, interval_ns=2_000_000, duration_s=0.05,
                          receive_timeout_ms=100)
        trace = run_client(cfg)
        assert bool(trace.lost.all())
        assert not trace.meta.has_ul
        assert np.all(trace.ul == -1)
        validate_trace(trace)  # still a well-formed trace

    def test_pacing_errors_against_hand_schedule(self):
        with ProbeServer() as srv:
            cfg = ProbeConfig(port=srv.port, interval_ns=1_000_000,
                              duration_s=0.05, receive_timeout_ms=200)
            trace = run_client(cfg)
        errs = pacing_errors_ns(trace)
        assert errs.shape == (50,)
        assert errs[0] == 0
        ideal = trace.t_send[0] + np.arange(50, dtype=np.int64) * 1_000_000
        np.testing.assert_array_equal(errs, trace.t_send - ideal)

    def test_duplicate_echoes_do_not_end_the_drain_early(self):
        # every echo arrives twice and the last probe's 150 ms late: a drain
        # that counted packets instead of answered probes would stop first
        n = 50
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind(("127.0.0.1", 0))
        sock.settimeout(2.0)

        def reflect():
            seq = -1
            while seq != n - 1:
                try:
                    data, addr = sock.recvfrom(65535)
                except socket.timeout:
                    return
                pkt = decode_packet(data)
                seq = pkt.seq
                t_recv = time.time_ns()
                if seq == n - 1:
                    time.sleep(0.15)
                echo = encode_packet(replace(pkt, flags=FLAG_SERVER_ECHO, t_server_recv=t_recv,
                                             t_server_send=time.time_ns()), len(data))
                sock.sendto(echo, addr)
                sock.sendto(echo, addr)

        rx = threading.Thread(target=reflect, daemon=True)
        rx.start()
        try:
            cfg = ProbeConfig(port=sock.getsockname()[1], interval_ns=2_000_000,
                              duration_s=0.1, receive_timeout_ms=1000)
            trace = run_client(cfg)
        finally:
            rx.join(timeout=5.0)
            sock.close()
        assert not rx.is_alive()
        assert len(trace) == n
        assert trace.n_lost == 0
