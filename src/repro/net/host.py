"""Hosts: endpoints with a TCP-handshake + HTTP request model.

The connection model captures exactly what the paper's *timecurl*
measurement observes:

* ``connect`` performs a SYN / SYN-ACK exchange across the real
  (simulated) network path — so a packet-in detour to the SDN
  controller, or a held first packet during on-demand deployment,
  delays it accordingly; the handshake's last ACK rides on the
  connection's first data segment (RFC 9293 §3.5), which carries the
  ACK flag anyway;
* a SYN to a **closed** port is answered with RST (connection refused)
  — the reason the paper's controller polls the service port before
  installing flows;
* requests and responses travel as payload bursts whose serialization
  time reflects their size;
* a one-shot exchange (:meth:`Host.http_request`) ends with FIN riding
  on its two payload segments — the client half-closes with the
  request, the server answers with FIN on the response and frees its
  half — so no extra segment is modelled and no server-side state
  outlives the request.

``time_total`` = connect + request transfer + server handling +
response transfer, matching Curl's definition used in the paper.
"""

from __future__ import annotations

import itertools
import typing as _t

from repro.net.addressing import IPv4Address
from repro.net.device import NetDevice, NetworkInterface
from repro.net.packet import (
    HTTPRequest,
    HTTPResponse,
    Packet,
    TCPFlags,
    TCPSegment,
)
from repro.sim import Environment, Event
from repro.sim.events import PENDING, guard_timeout

_conn_ids = itertools.count(1)

#: First ephemeral source port handed out by hosts.
EPHEMERAL_BASE = 32768

_PSH_ACK = TCPFlags.PSH | TCPFlags.ACK
_PSH_ACK_FIN = _PSH_ACK | TCPFlags.FIN
_SYN_ACK = TCPFlags.SYN | TCPFlags.ACK


class ConnectionRefused(Exception):
    """SYN answered by RST: no listener on the destination port."""


class ConnectionTimeout(Exception):
    """The peer did not answer within the caller's deadline."""


class ConnectionReset(Exception):
    """The established connection was torn down by the peer."""


class HTTPResult(_t.NamedTuple):
    """Outcome of :meth:`Host.http_request` (all times in seconds)."""

    response: HTTPResponse
    time_total: float
    time_connect: float


class Listener:
    """A listening TCP port bound to an application handler."""

    def __init__(self, port: int, app: "Application") -> None:
        self.port = port
        self.app = app


class Application(_t.Protocol):
    """Server-side request handler protocol.

    ``handle`` is a generator (it may yield timeouts to model
    processing latency) returning the :class:`HTTPResponse`.
    """

    def handle(
        self, request: HTTPRequest
    ) -> _t.Generator[_t.Any, _t.Any, HTTPResponse]: ...


class Connection:
    """One endpoint of an established TCP connection.

    Slotted: connections are allocated twice per request (client and
    server side).  Inbound payloads have one reader and no capacity, so
    the queue is the one event a blocked :meth:`recv` waits on plus an
    inbox list for what arrives while nobody reads — built on first
    use, since the server side of the HTTP exchange never reads (its
    requests dispatch straight to the application handler).
    """

    __slots__ = (
        "host",
        "conn_id",
        "local_ip",
        "local_port",
        "remote_ip",
        "remote_port",
        "_inbox",
        "_reader",
        "established",
    )

    def __init__(
        self,
        host: "Host",
        conn_id: int,
        local_port: int,
        remote_ip: IPv4Address,
        remote_port: int,
        local_ip: IPv4Address | None = None,
    ) -> None:
        self.host = host
        self.conn_id = conn_id
        #: The IP this endpoint speaks as.  Normally the host's own
        #: address; the cloud host answers from each service's address.
        self.local_ip = local_ip if local_ip is not None else host.ip
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self._inbox: list[_t.Any] | None = None
        self._reader: Event | None = None
        self.established = True

    def _offer(self, item: _t.Any) -> Event | None:
        """Take an inbound ``item``: the blocked reader to wake with it
        (the caller's to ``succeed``), or ``None`` once it is queued."""
        reader = self._reader
        if reader is not None and reader._value is PENDING:
            self._reader = None
            return reader
        if self._inbox is None:
            self._inbox = [item]
        else:
            self._inbox.append(item)
        return None

    def _reset(self, why: str) -> None:
        """Hand the reader a reset — through the heap: callers go on."""
        reset = ConnectionReset(why)
        reader = self._offer(reset)
        if reader is not None:
            reader.succeed(reset)

    def send_payload(self, payload: _t.Any, payload_bytes: int, fin: bool = False) -> None:
        """Transmit an application payload burst to the peer.

        ``fin`` sets the segment's FIN bit: the last data this side
        sends.  A server answers a request sent with it with FIN and
        frees its half (a one-shot exchange); without it the connection
        stays open for the next request (keep-alive).
        """
        if not self.established:
            raise ConnectionReset(f"connection {self.conn_id} is closed")
        self.host._send_segment(
            self.remote_ip,
            TCPSegment(
                src_port=self.local_port,
                dst_port=self.remote_port,
                flags=_PSH_ACK_FIN if fin else _PSH_ACK,
                payload_bytes=payload_bytes,
                payload=payload,
                conn_id=self.conn_id,
            ),
            src_ip=self.local_ip,
        )

    def recv(self, timeout: float | None = None):
        """Wait for the next payload (generator; raises on timeout/reset)."""
        env = self.host.env
        get_ev = Event(env)
        if self._inbox:
            get_ev.succeed(self._inbox.pop(0))
        else:
            self._reader = get_ev
        if timeout is None:
            item = yield get_ev
        else:
            deadline = env.deadline(timeout)
            guard_timeout(
                deadline,
                get_ev,
                ConnectionTimeout,
                "no data on connection ",
                self.conn_id,
                " within ",
                timeout,
                "s",
            )
            item = yield get_ev
            deadline.cancel()
        if isinstance(item, ConnectionReset):
            raise item
        return item

    def close(self) -> None:
        """Tear down this endpoint.  Sends nothing: a one-shot exchange
        already carried its FIN on its payload segments
        (:meth:`send_payload`), and the close of a keep-alive
        connection is not modelled on the wire — its peer's half stays
        until that host crashes."""
        self.established = False
        self.host._connections.pop(self.conn_id, None)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Connection #{self.conn_id} {self.host.name}:{self.local_port}"
            f" <-> {self.remote_ip}:{self.remote_port}>"
        )


class Host(NetDevice):
    """An end host: client device, edge server, or cloud server."""

    def __init__(
        self,
        env: Environment,
        name: str,
        ip: IPv4Address,
    ) -> None:
        super().__init__(env, name)
        self.iface = self.add_interface(ip)
        self.ip = ip
        self._listeners: dict[int, Listener] = {}
        self._connections: dict[int, Connection] = {}
        #: Handshake waiters keyed by conn_id -> event fired with the
        #: SYN-ACK (or failed with ConnectionRefused).
        self._pending: dict[int, _t.Any] = {}
        #: Readiness subscriptions: port -> events fired on open_port.
        self._port_waiters: dict[int, list[_t.Any]] = {}
        self._next_ephemeral = EPHEMERAL_BASE

    # -- listener management ------------------------------------------------

    def open_port(self, port: int, app: "Application") -> None:
        """Start accepting connections on ``port``."""
        if port in self._listeners:
            raise ValueError(f"{self.name}: port {port} is already open")
        self._listeners[port] = Listener(port, app)
        waiters = self._port_waiters.pop(port, None)
        if waiters:
            for event in waiters:
                if not event.triggered:
                    event.succeed(port)

    def close_port(self, port: int) -> None:
        """Stop accepting connections on ``port``."""
        self._listeners.pop(port, None)

    def swap_app(self, port: int, app: "Application") -> "Application":
        """Replace the application behind an open port, returning the
        previous one.  The listener (and every in-flight handshake to
        it) is untouched — this is how the migration layer slips a
        freeze gate in front of an instance without a connectivity
        blip."""
        listener = self._listeners.get(port)
        if listener is None:
            raise ValueError(f"{self.name}: port {port} is not open")
        previous = listener.app
        listener.app = app
        return previous

    def app_on(self, port: int) -> "Application | None":
        """The application behind ``port``, or None while it is closed."""
        listener = self._listeners.get(port)
        return listener.app if listener is not None else None

    def crash(self) -> None:
        """Power-fail this host (failure injection).

        Listeners close, every established connection is reset (peers
        blocked in ``recv`` get a :class:`ConnectionReset`) and pending
        handshakes are left to time out.  Links and containers are the
        Injector's business — this only covers the host's own TCP
        state.
        """
        self._listeners.clear()
        for conn in self._connections.values():
            conn.established = False
            conn._reset(f"{self.name} crashed")
        self._connections.clear()

    def port_open_event(self, port: int) -> _t.Any:
        """An event firing when ``port`` opens (readiness subscription).

        Already-open ports yield an immediately-triggered event.  This
        is what turns the controller's port polling (§VI) into a
        deadline-driven wait: instead of probing every poll interval,
        a waiter subscribes here and wakes the instant the listener is
        bound.  Abandoned subscriptions (e.g. a wait that timed out)
        should be dropped with :meth:`abandon_port_waiter`.
        """
        event = self.env.event()
        if port in self._listeners:
            event.succeed(port)
        else:
            self._port_waiters.setdefault(port, []).append(event)
        return event

    def abandon_port_waiter(self, port: int, event: _t.Any) -> None:
        """Drop a no-longer-needed :meth:`port_open_event` subscription."""
        waiters = self._port_waiters.get(port)
        if waiters is None:
            return
        try:
            waiters.remove(event)
        except ValueError:
            return
        if not waiters:
            del self._port_waiters[port]

    def port_is_open(self, port: int) -> bool:
        return port in self._listeners

    def _listener_for(self, ip: IPv4Address, port: int) -> Listener | None:
        """Resolve the listener for a destination (hook for CloudHost)."""
        return self._listeners.get(port)

    # -- client side ----------------------------------------------------------

    def connect(
        self,
        dst_ip: IPv4Address,
        dst_port: int,
        timeout: float | None = None,
    ):
        """Establish a connection (generator returning :class:`Connection`).

        Returns when the SYN-ACK arrives: the first data segment carries
        the handshake's last ACK.  Raises :class:`ConnectionRefused` if
        the destination answers with RST, :class:`ConnectionTimeout` if
        nothing answers within ``timeout`` seconds.
        """
        conn_id = next(_conn_ids)
        src_port = self._allocate_port()
        reply_ev = self.env.event()
        self._pending[conn_id] = reply_ev

        self._send_segment(
            dst_ip,
            TCPSegment(
                src_port=src_port,
                dst_port=dst_port,
                flags=TCPFlags.SYN,
                conn_id=conn_id,
            ),
        )
        try:
            if timeout is None:
                yield reply_ev
            else:
                deadline = self.env.deadline(timeout)
                guard_timeout(
                    deadline,
                    reply_ev,
                    ConnectionTimeout,
                    "connect to ",
                    dst_ip,
                    ":",
                    dst_port,
                    " timed out after ",
                    timeout,
                    "s",
                )
                yield reply_ev
                deadline.cancel()
        finally:
            self._pending.pop(conn_id, None)

        conn = Connection(self, conn_id, src_port, dst_ip, dst_port)
        self._connections[conn_id] = conn
        return conn

    def http_request(
        self,
        dst_ip: IPv4Address,
        dst_port: int,
        request: HTTPRequest,
        timeout: float | None = None,
    ):
        """Issue one HTTP request (generator returning :class:`HTTPResult`).

        Implements the paper's *timecurl* measurement: ``time_total``
        spans from the start of the TCP connect to the arrival of the
        complete response.
        """
        start = self.env.now
        conn = yield from self.connect(dst_ip, dst_port, timeout=timeout)
        time_connect = self.env.now - start
        try:
            conn.send_payload(request, request.total_bytes, fin=True)
            remaining = None
            if timeout is not None:
                remaining = max(0.0, timeout - (self.env.now - start))
            response = yield from conn.recv(timeout=remaining)
        finally:
            conn.close()
        if not isinstance(response, HTTPResponse):
            raise TypeError(f"expected HTTPResponse, got {response!r}")
        return HTTPResult(
            response=response,
            time_total=self.env.now - start,
            time_connect=time_connect,
        )

    # -- packet processing -------------------------------------------------------

    def receive(self, packet: Packet, iface: NetworkInterface) -> None:
        """Demultiplex an arriving segment.

        Waking a waiting client (SYN-ACK; payload for a reader blocked
        in ``recv``) is this method's last act, and the link's
        ``_deliver`` that called it is the whole of a heap entry: the
        tail position :meth:`~repro.sim.events.Event.succeed_tail`
        requires.  Whatever wraps ``receive`` must call it last.
        """
        seg = packet.tcp
        flags = seg.flags

        # Handshake replies for connections we initiated.
        if flags & TCPFlags.RST:
            pending = self._pending.get(seg.conn_id)
            if pending is not None and not pending.triggered:
                pending.fail(
                    ConnectionRefused(
                        f"connection to {packet.ip_src}:{seg.src_port} refused"
                    )
                )
                return
            conn = self._connections.get(seg.conn_id)
            if conn is not None:
                conn._reset("peer reset the connection")
            return

        if flags & _SYN_ACK == _SYN_ACK:
            pending = self._pending.get(seg.conn_id)
            if pending is not None and not pending.triggered:
                pending.succeed_tail(packet)
            return

        if flags & TCPFlags.SYN:
            self._handle_syn(packet)
            return

        conn = self._connections.get(seg.conn_id)
        if conn is None:
            # Stray traffic (a segment for a connection already freed):
            # ignore.
            return
        if seg.payload is not None:
            if isinstance(seg.payload, HTTPRequest):
                self._serve_request(conn, seg.payload, bool(flags & TCPFlags.FIN))
            else:
                reader = conn._offer(seg.payload)
                if reader is not None:
                    reader.succeed_tail(seg.payload)

    def _handle_syn(self, packet: Packet) -> None:
        seg = packet.tcp
        listener = self._listener_for(packet.ip_dst, seg.dst_port)
        if listener is None:
            # Closed port: refuse.  This is what the client hits if the
            # controller were to forward the request before the service
            # finished starting.
            self._send_segment(
                packet.ip_src,
                TCPSegment(
                    src_port=seg.dst_port,
                    dst_port=seg.src_port,
                    flags=TCPFlags.RST,
                    conn_id=seg.conn_id,
                ),
                src_ip=packet.ip_dst,
            )
            return
        conn = Connection(
            self,
            seg.conn_id,
            seg.dst_port,
            packet.ip_src,
            seg.src_port,
            local_ip=packet.ip_dst,
        )
        self._connections[seg.conn_id] = conn
        self._send_segment(
            packet.ip_src,
            TCPSegment(
                src_port=seg.dst_port,
                dst_port=seg.src_port,
                flags=_SYN_ACK,
                conn_id=seg.conn_id,
            ),
            src_ip=conn.local_ip,
        )

    def _serve_request(self, conn: Connection, request: HTTPRequest, fin: bool) -> None:
        listener = self._listener_for(conn.local_ip, conn.local_port)
        if listener is None:
            # Port closed between handshake and request.
            self._send_segment(
                conn.remote_ip,
                TCPSegment(
                    src_port=conn.local_port,
                    dst_port=conn.remote_port,
                    flags=TCPFlags.RST,
                    conn_id=conn.conn_id,
                ),
                src_ip=conn.local_ip,
            )
            if fin:
                conn.close()
            return
        # Hot start (and no per-request name string): the handler's
        # first segment runs synchronously here — where the old start
        # event would have run it within the same timestep anyway —
        # saving a heap entry per served request; nobody waits on the
        # handler, so its end costs none either.
        self.env.spawn(self._run_handler(listener.app, conn, request, fin), hot=True)

    def _run_handler(self, app: "Application", conn: Connection, request: HTTPRequest, fin: bool):
        response = yield from app.handle(request)
        if conn.established:
            conn.send_payload(response, response.total_bytes, fin=fin)
            if fin:
                conn.close()

    # -- low level ------------------------------------------------------------------

    def _send_segment(
        self,
        dst_ip: IPv4Address,
        segment: TCPSegment,
        src_ip: IPv4Address | None = None,
    ) -> None:
        self.iface.send(
            Packet(
                ip_src=src_ip if src_ip is not None else self.ip,
                ip_dst=dst_ip,
                tcp=segment,
            )
        )

    def _allocate_port(self) -> int:
        port = self._next_ephemeral
        self._next_ephemeral += 1
        if self._next_ephemeral > 60999:
            self._next_ephemeral = EPHEMERAL_BASE
        return port
