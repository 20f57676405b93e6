"""``repro proxy`` — a deterministic TCP chaos proxy for the lease protocol.

The network chaos harness: a real TCP intermediary that exercises the full
stack (the worker's own :class:`~repro.store.client.StoreClient`, kernel
sockets, HTTP framing, the server's threaded handler pool).  Point a
``repro work --server`` worker at the proxy and the proxy forwards each
request to the upstream ``repro serve``, injecting faults from a
:class:`~repro.runs.faults.NetworkChaosPlan`:

``reset``
    close the client connection with an RST (``SO_LINGER`` zero) before
    forwarding — the client sees ``ConnectionResetError`` and must retry;
``http-500``
    answer with a canned 500 without contacting the upstream;
``stall``
    sleep ``delay_seconds`` before forwarding — exercises client deadlines;
``drop-response``
    forward the request (the mutation *is* applied upstream) but reset the
    client before relaying the response — the retried request must dedup
    via its idempotency key;
``duplicate``
    forward the identical request twice on two upstream connections and
    relay the second response — the duplicated delivery must be a no-op
    replay.

Determinism: faults count requests, not connections.  The proxy serves
every request a kept-alive client connection carries, one after another,
and the plan's :class:`~repro.runs.faults.ChaosSchedule` advances once per
request — so a plan perturbs the same protocol steps whether a client
reuses one connection or opens one per request.  ``reset``,
``drop-response`` and ``http-500`` end the client connection (the client
reconnects for its retry); ``stall`` and ``duplicate`` keep it open.  Each
forwarded request still goes upstream on a connection of its own, with
``Connection: close`` forced into its head, so the proxy reads every
upstream response to EOF.  To keep chaos per worker, give each perturbed
worker its own proxy.
"""

from __future__ import annotations

import socket
import struct
import threading
from typing import Any, Optional, Tuple

from repro.runs.faults import ChaosSchedule, NetworkChaosPlan

#: Socket read deadline inside the proxy (seconds) — a hung peer cannot
#: wedge a proxy thread forever.
PROXY_IO_TIMEOUT = 30.0

_CANNED_500 = (b"HTTP/1.1 500 Internal Server Error\r\n"
               b"Content-Type: application/json\r\n"
               b"Content-Length: 40\r\n"
               b"Connection: close\r\n\r\n"
               b'{"error": "chaos: injected 500 (proxy)"}')


def _header(message: bytes, name: bytes) -> Optional[bytes]:
    """The value of header ``name`` (lower-case) in an HTTP message."""
    head = message.partition(b"\r\n\r\n")[0]
    for line in head.split(b"\r\n")[1:]:
        key, _, value = line.partition(b":")
        if key.strip().lower() == name:
            return value.strip()
    return None


def _read_http_request(sock: socket.socket,
                       buffered: bytes) -> Tuple[Optional[bytes], bytes]:
    """Read one framed HTTP request (headers + Content-Length body) that
    starts in ``buffered``; returns it and the bytes read past its end."""
    data = buffered
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        if not chunk:
            return data or None, b""
        data += chunk
    head, _, rest = data.partition(b"\r\n\r\n")
    length = int(_header(data, b"content-length") or 0)
    while len(rest) < length:
        chunk = sock.recv(65536)
        if not chunk:
            break
        rest += chunk
    return head + b"\r\n\r\n" + rest[:length], rest[length:]


def _connection_close(request: bytes) -> bytes:
    """``request`` with its ``Connection`` header replaced by ``close``."""
    head, separator, body = request.partition(b"\r\n\r\n")
    if not separator:
        return request  # torn before its headers ended: forward as read
    lines = [line for line in head.split(b"\r\n")
             if line.partition(b":")[0].strip().lower() != b"connection"]
    return b"\r\n".join(lines) + b"\r\nConnection: close" + separator + body


def _keeps_alive(response: bytes) -> bool:
    """Whether the client connection can carry another request after
    ``response``: it is length-framed and does not close the connection
    (an upstream that died before answering relays no bytes at all)."""
    return ((_header(response, b"connection") or b"").lower() != b"close"
            and _header(response, b"content-length") is not None)


def _request_path(request: bytes) -> str:
    try:
        return request.split(b"\r\n", 1)[0].split(b" ")[1].decode("ascii")
    except (IndexError, UnicodeDecodeError):
        return ""


def _rst_close(sock: socket.socket) -> None:
    """Close with an RST instead of a FIN (linger zero)."""
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0))
    except OSError:
        pass
    sock.close()


class ChaosProxy:
    """A threaded store-and-forward TCP proxy with plan-driven faults."""

    def __init__(self, upstream: Tuple[str, int], plan: NetworkChaosPlan,
                 host: str = "127.0.0.1", port: int = 0):
        self.upstream = upstream
        self.plan = plan
        self.schedule = ChaosSchedule(plan)
        self.fired = self.schedule.fired
        self._stop = threading.Event()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)

    # -------------------------------------------------------------- lifecycle
    def start(self) -> "ChaosProxy":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        try:
            # Unblock accept() by connecting to ourselves.
            with socket.create_connection(self.address, timeout=1.0):
                pass
        except OSError:
            pass
        self._listener.close()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "ChaosProxy":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # ------------------------------------------------------------ the machine
    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                client, _ = self._listener.accept()
            except OSError:
                return
            if self._stop.is_set():
                client.close()
                return
            threading.Thread(target=self._handle, args=(client,),
                             daemon=True).start()

    def _handle(self, client: socket.socket) -> None:
        """Relay the requests of one client connection until it ends."""
        try:
            client.settimeout(PROXY_IO_TIMEOUT)
            buffered = b""
            while not self._stop.is_set():
                request, buffered = _read_http_request(client, buffered)
                if not request or not self._relay(client, request):
                    break
        except OSError:
            pass
        finally:
            client.close()

    def _relay(self, client: socket.socket, request: bytes) -> bool:
        """Answer one request, perturbed by its planned faults; True when
        the client connection stays open for the next request."""
        path = _request_path(request)
        faults = self.schedule.faults_for(path)
        kinds = [fault.kind for fault in faults]
        for fault in faults:
            if fault.kind == "stall":
                self._stop.wait(fault.delay_seconds)
        if "reset" in kinds:
            _rst_close(client)
            return False
        if "http-500" in kinds:
            client.sendall(_CANNED_500)
            return False
        forwarded = _connection_close(request)
        response = self._forward(forwarded)
        if "duplicate" in kinds:
            # Deliver the identical request a second time; relay the
            # second response (the first is discarded, as a retrying
            # client would discard it).
            response = self._forward(forwarded)
        if "drop-response" in kinds:
            # The upstream applied the mutation but the client never
            # hears back.
            _rst_close(client)
            return False
        client.sendall(response)
        return _keeps_alive(response)

    def _forward(self, request: bytes) -> bytes:
        with socket.create_connection(self.upstream,
                                      timeout=PROXY_IO_TIMEOUT) as upstream:
            upstream.sendall(request)
            response = b""
            while True:
                chunk = upstream.recv(65536)
                if not chunk:
                    return response
                response += chunk


def run_proxy(upstream: Tuple[str, int], plan: NetworkChaosPlan,
              host: str = "127.0.0.1", port: int = 0,
              ready_message: Optional[Any] = print) -> None:
    """Run a chaos proxy until interrupted (the ``repro proxy`` command)."""
    proxy = ChaosProxy(upstream, plan, host=host, port=port).start()
    if ready_message is not None:
        ready_message(
            f"repro proxy: {proxy.address[0]}:{proxy.address[1]} -> "
            f"{upstream[0]}:{upstream[1]} ({len(plan.faults)} faults)")
    try:
        while True:
            if proxy._stop.wait(1.0):
                return
    except KeyboardInterrupt:
        pass
    finally:
        proxy.stop()


__all__ = ["ChaosProxy", "PROXY_IO_TIMEOUT", "run_proxy"]
