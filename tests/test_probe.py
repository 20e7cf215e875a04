"""Wire format and loopback behavior of the UDP echo probe."""

import errno
import socket
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llab.core import Trace, validate_trace
from llab.errors import BadMagic, BindFailure, SocketFailure, Truncated, UnsupportedVersion
from llab.probe import (
    FLAG_SERVER_ECHO,
    HEADER_LEN,
    MAX_PAYLOAD,
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

    def test_payload_ceiling_is_the_largest_udp_datagram(self):
        ProbeConfig(payload_size=65_507)
        with pytest.raises(ValueError):
            ProbeConfig(payload_size=65_508)

    def test_port_range(self):
        ProbeConfig(port=0)
        ProbeConfig(port=65_535)
        for port in (-1, 65_536):
            with pytest.raises(ValueError):
                ProbeConfig(port=port)

    def test_negative_receive_timeout(self):
        # a drain whose deadline has passed records echoes still in flight as lost
        ProbeConfig(receive_timeout_ms=0)
        with pytest.raises(ValueError, match="receive_timeout_ms"):
            ProbeConfig(receive_timeout_ms=-1)

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

    def test_host_is_the_bound_address(self):
        with ProbeServer(host="127.0.0.1") as srv:
            assert srv.host == "127.0.0.1"

    @pytest.mark.parametrize("port", [-1, 65_536, 70_000])
    def test_port_out_of_range_is_a_bind_failure(self, port):
        with pytest.raises(BindFailure):
            ProbeServer(port=port)


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

    def test_largest_payload_comes_back(self):
        with ProbeServer() as srv:
            trace = run_client(ProbeConfig(port=srv.port, duration_s=0.01,
                                           payload_size=MAX_PAYLOAD, receive_timeout_ms=500))
        assert len(trace) == 5 and trace.n_lost < 5

    def test_unreachable_peer_yields_all_lost_trace(self):
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()  # nothing listens here now
        cfg = ProbeConfig(port=port, interval_ns=2_000_000, duration_s=0.05,
                          receive_timeout_ms=100)
        trace = run_client(cfg)
        assert bool(trace.lost.all())
        assert np.all(trace.ul == -1)
        # still a well-formed trace; with no delivered row no direction is
        # half-present
        assert validate_trace(trace).direction_flags_consistent

    def test_pacing_errors_against_hand_schedule(self):
        with ProbeServer() as srv:
            cfg = ProbeConfig(port=srv.port, interval_ns=1_000_000,
                              duration_s=0.05, receive_timeout_ms=200)
            trace = run_client(cfg)
        errs = pacing_errors_ns(trace)
        assert errs.shape == (50,)
        assert errs.min() == 0
        offset = trace.t_send - np.arange(50, dtype=np.int64) * 1_000_000
        np.testing.assert_array_equal(errs, offset - offset.min())

    def test_late_first_probe_does_not_shift_the_others(self):
        n, interval = 8, 2_000_000
        seq = np.arange(n, dtype=np.uint64)
        t_send = 5_000_000_000 + np.arange(n, dtype=np.int64) * interval
        t_send[0] += 9_000  # probe 0 leaves 9 us late, the rest on time
        absent = np.full(n, -1, dtype=np.int64)
        trace = Trace(seq=seq, t_send=t_send, ul=absent, dl=absent, rtt=absent,
                      lost=np.ones(n, dtype=bool), dt_nominal=interval)
        np.testing.assert_array_equal(pacing_errors_ns(trace), [9000] + [0] * (n - 1))

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


def unreachable(*args):
    raise OSError(errno.ENETUNREACH, "Network is unreachable")


class TestSocketErrors:
    """The probe's socket calls failing under it, on loopback sockets whose
    methods are stubbed to raise."""

    def test_a_socket_that_cannot_be_made_is_a_socket_failure(self, monkeypatch):
        def no_socket(*args):
            raise OSError(errno.EMFILE, "Too many open files")

        monkeypatch.setattr(socket, "socket", no_socket)
        with pytest.raises(SocketFailure, match="cannot create probe socket"):
            run_client(ProbeConfig(duration_s=0.01))

    def test_a_failed_send_leaves_its_row_lost(self, monkeypatch):
        class OddSendsFail(socket.socket):
            def sendto(self, data, addr):
                if decode_packet(data).seq % 2:
                    unreachable()
                return super().sendto(data, addr)

        with ProbeServer() as srv:
            monkeypatch.setattr(socket, "socket", OddSendsFail)
            trace = run_client(ProbeConfig(port=srv.port, interval_ns=2_000_000,
                                           duration_s=0.04, receive_timeout_ms=300))
        assert len(trace) == 20
        assert trace.lost[1::2].all() and srv.n_echoed <= 10
        assert trace.lost[0::2].mean() < 0.5  # the other sends went out

    def test_an_echo_the_reflector_cannot_send_is_not_counted(self, monkeypatch):
        tried = []

        class NoSends(socket.socket):
            def sendto(self, data, addr):
                tried.append(addr)
                unreachable()

        client = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        with monkeypatch.context() as m:
            m.setattr(socket, "socket", NoSends)
            srv = ProbeServer()
        try:
            with srv:
                client.sendto(encode_packet(ProbePacket(seq=0, t_client_send=1)),
                              ("127.0.0.1", srv.port))
                deadline = time.monotonic() + 5.0
                while not tried and time.monotonic() < deadline:
                    time.sleep(0.01)
        finally:
            client.close()
        # stop() joined the server thread, so its count is final
        assert len(tried) == 1 and srv.n_echoed == 0

    def test_serve_ends_when_its_socket_fails(self, monkeypatch):
        class NoReceives(socket.socket):
            def recvfrom(self, size):
                raise OSError(errno.EBADF, "Bad file descriptor")

        with monkeypatch.context() as m:
            m.setattr(socket, "socket", NoReceives)
            srv = ProbeServer()
        worker = threading.Thread(target=srv.serve, daemon=True)
        worker.start()
        worker.join(timeout=5.0)
        alive = worker.is_alive()
        srv.stop()
        assert not alive

    def test_a_junk_datagram_is_dropped_and_the_echo_recorded(self):
        n = 10
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind(("127.0.0.1", 0))
        sock.settimeout(2.0)

        def reflect():
            # junk, then the echo, for every probe
            for _ in range(n):
                try:
                    data, addr = sock.recvfrom(65535)
                except socket.timeout:
                    return
                pkt, t_recv = decode_packet(data), time.time_ns()
                echo = encode_packet(replace(pkt, flags=FLAG_SERVER_ECHO, t_server_recv=t_recv,
                                             t_server_send=time.time_ns()), len(data))
                sock.sendto(b"definitely not a probe", addr)
                sock.sendto(echo, addr)

        rx = threading.Thread(target=reflect, daemon=True)
        rx.start()
        try:
            trace = run_client(ProbeConfig(port=sock.getsockname()[1], interval_ns=2_000_000,
                                           duration_s=0.02, receive_timeout_ms=1000))
        finally:
            rx.join(timeout=5.0)
            sock.close()
        assert not rx.is_alive()
        assert len(trace) == n and trace.n_lost == 0
