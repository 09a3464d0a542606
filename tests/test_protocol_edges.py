"""Wire-protocol edge cases against *live* daemons, both layers.

The parse-level behavior (oversized line fatal, non-JSON rejected) is
covered in ``test_serving.py``/``test_distributed.py``; these tests
drive the same edges through real sockets against a running
:class:`~repro.serve.ApproximationServer` and a running
:class:`~repro.fabric.WorkerServer`, asserting the end-to-end contract:
a structured error or a clean close — never a hang, never a crash, and
the daemon keeps serving fresh connections afterwards.

* **non-JSON garbage** — a structured ``bad-request`` on the same
  connection (serve layer keeps the connection; the fabric worker
  answers then continues too);
* **oversized frame** — a structured fatal error, then close;
* **truncated line at EOF** — the peer vanishes mid-line; the daemon
  drops the connection without wedging its accept loop.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading

import pytest

from repro.fabric import WorkerServer
from repro.fabric.protocol import ProtocolError, read_frame
from repro.serve import (
    MAX_LINE_BYTES,
    ApproximationServer,
    ServerConfig,
    wait_for_server,
)


class _ServerThread:
    """Host an :class:`ApproximationServer` on a background event loop."""

    def __init__(self, config: ServerConfig) -> None:
        self.server = ApproximationServer(config)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self._host, daemon=True)

    def _host(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.server.run())
        self.loop.close()

    def __enter__(self) -> "_ServerThread":
        self.thread.start()
        wait_for_server(self.server.config.socket_path)
        return self

    def __exit__(self, *exc_info) -> None:
        self.loop.call_soon_threadsafe(self.server.request_shutdown)
        self.thread.join(timeout=30)
        assert not self.thread.is_alive(), "server failed to drain"


@pytest.fixture()
def serve_socket(tmp_path):
    path = str(tmp_path / "edge.sock")
    with _ServerThread(ServerConfig(socket_path=path)):
        yield path


@pytest.fixture()
def fabric_worker():
    server = WorkerServer("127.0.0.1:0")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.close()
    thread.join(timeout=10)


def _connect_unix(path: str) -> socket.socket:
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(30)
    sock.connect(path)
    return sock


def _connect_tcp(address: str) -> socket.socket:
    host, _, port = address.rpartition(":")
    sock = socket.create_connection((host, int(port)), timeout=30)
    return sock


def _read_line(sock: socket.socket) -> bytes:
    buffer = bytearray()
    while not buffer.endswith(b"\n"):
        chunk = sock.recv(1 << 16)
        if not chunk:
            break
        buffer.extend(chunk)
    return bytes(buffer)


class TestServeDaemonEdges:
    def test_garbage_is_structured_error_connection_survives(
        self, serve_socket
    ):
        with _connect_unix(serve_socket) as sock:
            sock.sendall(b"\xde\xad\xbe\xef this is not json\n")
            error = json.loads(_read_line(sock))
            assert not error["ok"]
            assert error["error"]["kind"] == "bad-request"
            # Non-fatal: the same connection still serves real requests.
            sock.sendall(b'{"op": "health"}\n')
            health = json.loads(_read_line(sock))
            assert health["ok"]

    def test_oversized_line_errors_then_closes(self, serve_socket):
        with _connect_unix(serve_socket) as sock:
            try:
                sock.sendall(b'{"op": "health", "pad": "')
                sock.sendall(b"x" * (MAX_LINE_BYTES + 1024))
                sock.sendall(b'"}\n')
            except (BrokenPipeError, ConnectionResetError):
                pass  # refused and closed before the tail was written
            try:
                line = _read_line(sock)
            except ConnectionResetError:
                line = b""  # closed hard with bytes still in flight
            if line:  # structured refusal (stream may also just close)
                error = json.loads(line)
                assert not error["ok"]
                assert error["error"]["kind"] == "bad-request"
            # Closed (FIN or RST — the unread tail of the oversized line
            # makes a reset legitimate), never hanging.
            try:
                assert sock.recv(1) == b""
            except ConnectionResetError:
                pass

    def test_truncated_line_at_eof_never_wedges(self, serve_socket):
        with _connect_unix(serve_socket) as sock:
            sock.sendall(b'{"op": "health"')  # no terminator, then gone
        # The accept loop is unharmed: a fresh connection still serves.
        with _connect_unix(serve_socket) as sock:
            sock.sendall(b'{"op": "health"}\n')
            assert json.loads(_read_line(sock))["ok"]


class TestFabricWorkerEdges:
    def test_garbage_is_structured_error(self, fabric_worker):
        with _connect_tcp(fabric_worker.address) as sock:
            sock.sendall(b"\xde\xad\xbe\xef not a frame\n")
            error = json.loads(_read_line(sock))
            assert not error["ok"]
            assert error["error"]["kind"] == "bad-request"
            # Non-fatal at the envelope level: the connection still pings.
            sock.sendall(b'{"op": "ping"}\n')
            assert json.loads(_read_line(sock))["ok"]

    def test_truncated_frame_at_eof_never_wedges(self, fabric_worker):
        with _connect_tcp(fabric_worker.address) as sock:
            sock.sendall(b'{"op": "ping"')  # torn mid-frame, then gone
        with _connect_tcp(fabric_worker.address) as sock:
            sock.sendall(b'{"op": "ping"}\n')
            assert json.loads(_read_line(sock))["ok"]

    def test_read_frame_rejects_oversized_buffer(self):
        # The 64 MiB fabric cap is enforced by read_frame's buffer guard;
        # drive it through a real socketpair with the buffer pre-filled
        # past the cap (sending 64 MiB through the test would be waste).
        from repro.fabric.protocol import FABRIC_MAX_LINE_BYTES

        left, right = socket.socketpair()
        try:
            buffer = bytearray(b"x" * (FABRIC_MAX_LINE_BYTES + 1))
            with pytest.raises(ProtocolError, match="exceeds"):
                read_frame(left, buffer)
        finally:
            left.close()
            right.close()

    def test_read_frame_torn_eof_is_fatal_protocol_error(self):
        left, right = socket.socketpair()
        try:
            right.sendall(b'{"op": "ping"')
            right.close()
            buffer = bytearray()
            with pytest.raises(ProtocolError, match="mid-frame"):
                read_frame(left, buffer)
        finally:
            left.close()
