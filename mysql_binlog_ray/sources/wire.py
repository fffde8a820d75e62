"""MySQL client wire protocol (transport layer): S1/S4/S5/S6.

The reference's only process boundary is one TCP socket speaking the
public MySQL client/server protocol (`Connection.php:44-90,331-457`).
This module re-implements that transport from the published protocol:

- length+sequence packet framing with >16MB reassembly and the
  sequence-continuity check (S6, `Connection.php:394-417`)
- HandshakeV10 parse + ``mysql_native_password`` scramble +
  HandshakeResponse41 (S1, `Connection.php:331-392`)
- COM_REGISTER_SLAVE / COM_BINLOG_DUMP command builders and the
  OK/EOF/ERR response walk (S4/S5, `Connection.php:159-217`)

Two deliberate divergences from the reference, both documented where
they occur: the register-slave payload follows the published layout
(the reference writes the password bytes twice, shifting every later
field — `Connection.php:169-171`), and ERR packets skip the
protocol-4.1 SQL-state marker before the message.

Architecture note (why this is a thin edge, not a Ray stage): a binlog
dump is a single ordered socket — the same singleton the reference is
built around.  The Ray-first design keeps that edge minimal:
``BinlogWireClient`` tails the socket and ``tail_to_shards`` spools
events into the standard ``(shard_id, event_seq, payload)`` parquet
shards, at which point the ENTIRE existing distributed pipeline
(parallel decode -> LWW merge -> exactly-once lake) applies unchanged.
Parallelism never comes from the wire; it comes from fanning the
spooled shards out, exactly as the file/parquet sources do.

No live server exists in this sandbox; the protocol is exercised
against an in-process fixture server (tests) that replays
generator-produced event packets byte-for-byte.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass

MAX_PACKET_SIZE = 0xFFFFFF

COM_QUIT = 0x01
COM_QUERY = 0x03
COM_REGISTER_SLAVE = 0x15
COM_BINLOG_DUMP = 0x12

BINLOG_SEND_ANNOTATE_ROWS_EVENT = 2  # MariaDB dump flag (`Connection.php:31`)

# capability bits (public protocol constants; `Capability.php`)
CLIENT_LONG_PASSWORD = 0x00000001
CLIENT_LONG_FLAG = 0x00000004
CLIENT_COMPRESS = 0x00000020  # declared unused by the reference (`Capability.php:35-37`)
CLIENT_NO_SCHEMA = 0x00000010
CLIENT_SSL = 0x00000800  # declared unused by the reference (`Capability.php:65-67`)
CLIENT_PROTOCOL_41 = 0x00000200
CLIENT_TRANSACTIONS = 0x00002000
CLIENT_SECURE_CONNECTION = 0x00008000
CLIENT_PLUGIN_AUTH = 0x00080000

#: what our client offers before masking with the server's set
#: (`Connection.php:359-367`, plus CLIENT_PLUGIN_AUTH — the reference is
#: sha1-only; we also speak caching_sha2_password, the MySQL 8 default,
#: which requires naming the plugin in the handshake response)
CLIENT_CAPABILITIES = (
    CLIENT_LONG_PASSWORD
    | CLIENT_LONG_FLAG
    | CLIENT_PROTOCOL_41
    | CLIENT_NO_SCHEMA
    | CLIENT_TRANSACTIONS
    | CLIENT_SECURE_CONNECTION
    | CLIENT_PLUGIN_AUTH
)

PKT_OK = 0x00
PKT_EOF = 0xFE
PKT_ERR = 0xFF


def write_lenc_int(n: int) -> bytes:
    """Length-encoded integer (writer twin of
    ``protocol.decode.read_coded_binary``)."""
    if n < 251:
        return bytes([n])
    if n < 1 << 16:
        return b"\xfc" + struct.pack("<H", n)
    if n < 1 << 24:
        return b"\xfd" + struct.pack("<I", n)[:3]
    return b"\xfe" + struct.pack("<Q", n)


def write_lenc_str(s: bytes) -> bytes:
    return write_lenc_int(len(s)) + s


def read_lenc_str(data: bytes, off: int) -> tuple[bytes | None, int]:
    """Length-encoded string; lead byte 0xfb is SQL NULL."""
    from ..protocol.decode import read_coded_binary

    n, off = read_coded_binary(data, off)
    if n is None:
        return None, off
    return bytes(data[off : off + n]), off + n


class WireError(Exception):
    """Server ERR packet, or a protocol violation on the stream."""

    def __init__(self, message: str, code: int = 0) -> None:
        super().__init__(message)
        self.code = code


class CleanClose(WireError):
    """The peer closed the connection AT a packet boundary (zero bytes
    of the next header read) — the only closure that may legally end an
    event stream.  Any other truncation is a WireError: a spool that
    treats a mid-packet death as end-of-stream silently loses the tail
    of the binlog."""


@dataclass(frozen=True)
class ServerHandshake:
    """Parsed HandshakeV10 (`ServerInfo.php`; public protocol layout)."""

    protocol_version: int
    server_version: str
    connection_id: int
    auth_plugin_data: bytes  # part1 + part2, NUL trimmed
    capabilities: int
    charset: int | None
    status_flags: int | None
    auth_plugin_name: str | None

    @property
    def is_mariadb(self) -> bool:
        return "MariaDB" in self.server_version


def parse_handshake_v10(payload: bytes) -> ServerHandshake:
    """HandshakeV10: version(1) server-version(NUL) conn-id(4) auth1(8)
    filler(1) cap-lo(2) charset(1) status(2) cap-hi(2) auth-len(1)
    reserved(10) auth2(max(13, len-8)) plugin-name(NUL)."""
    proto = payload[0]
    nul = payload.index(b"\x00", 1)
    server_version = payload[1:nul].decode("utf-8", "replace")
    off = nul + 1
    (conn_id,) = struct.unpack_from("<I", payload, off)
    off += 4
    auth1 = bytes(payload[off : off + 8])
    off += 8 + 1  # filler
    (cap_lo,) = struct.unpack_from("<H", payload, off)
    off += 2
    charset = status = None
    caps = cap_lo
    auth = auth1
    plugin = None
    if off < len(payload):
        charset = payload[off]
        off += 1
        (status,) = struct.unpack_from("<H", payload, off)
        off += 2
        (cap_hi,) = struct.unpack_from("<H", payload, off)
        off += 2
        caps |= cap_hi << 16
        if caps & CLIENT_PLUGIN_AUTH:
            auth_len = payload[off]
        else:
            auth_len = 0
        off += 1
        off += 10  # reserved
        if caps & CLIENT_SECURE_CONNECTION:
            n2 = max(13, auth_len - 8)
            auth = auth1 + bytes(payload[off : off + n2])
            off += n2
        if caps & CLIENT_PLUGIN_AUTH:
            end = payload.index(b"\x00", off) if b"\x00" in payload[off:] else len(payload)
            plugin = payload[off:end].decode("utf-8", "replace")
    return ServerHandshake(
        protocol_version=proto,
        server_version=server_version,
        connection_id=conn_id,
        auth_plugin_data=auth,
        capabilities=caps,
        charset=charset,
        status_flags=status,
        auth_plugin_name=plugin,
    )


def scramble_native_password(password: str, nonce: bytes) -> bytes:
    """``mysql_native_password``: SHA1(pw) XOR SHA1(nonce[:20] +
    SHA1(SHA1(pw))) — empty password sends empty auth
    (`Connection.php:369-376`; public auth spec)."""
    if password == "":
        return b""
    h1 = hashlib.sha1(password.encode()).digest()
    h2 = hashlib.sha1(h1).digest()
    mask = hashlib.sha1(nonce[:20] + h2).digest()
    return bytes(a ^ b for a, b in zip(h1, mask))


def scramble_caching_sha2(password: str, nonce: bytes) -> bytes:
    """``caching_sha2_password`` fast-path scramble (the MySQL 8 default;
    public auth spec — beyond the sha1-only reference): SHA256(pw) XOR
    SHA256(SHA256(SHA256(pw)) + nonce[:20]); empty password sends empty
    auth."""
    if password == "":
        return b""
    h1 = hashlib.sha256(password.encode()).digest()
    h2 = hashlib.sha256(h1).digest()
    mask = hashlib.sha256(h2 + nonce[:20]).digest()
    return bytes(a ^ b for a, b in zip(h1, mask))


#: plugin name -> scramble fn; the negotiation loop consults this for
#: both the greeting's plugin and any AuthSwitchRequest target
AUTH_PLUGINS = {
    "mysql_native_password": scramble_native_password,
    "caching_sha2_password": scramble_caching_sha2,
}

#: caching_sha2_password AuthMoreData status bytes (public protocol)
_SHA2_FAST_AUTH_SUCCESS = 3
_SHA2_PERFORM_FULL_AUTH = 4


def build_handshake_response(
    user: str,
    auth: bytes,
    capabilities: int,
    collation: int = 33,
    auth_plugin: str | None = None,
) -> bytes:
    """HandshakeResponse41: caps(4) max-packet(4) charset(1) filler(23)
    user(NUL) auth-len(1)+auth [plugin NUL when CLIENT_PLUGIN_AUTH]
    (`Connection.php:378-385`; plugin-name tail per the public spec)."""
    out = (
        struct.pack("<IIB", capabilities, MAX_PACKET_SIZE, collation)
        + b"\x00" * 23
        + user.encode()
        + b"\x00"
        + bytes([len(auth)])
        + auth
    )
    if auth_plugin is not None and capabilities & CLIENT_PLUGIN_AUTH:
        out += auth_plugin.encode() + b"\x00"
    return out


def build_register_slave(
    slave_id: int, user: str, password: str, port: int, hostname: str = "localhost"
) -> bytes:
    """COM_REGISTER_SLAVE: server-id(4), then length-prefixed hostname /
    user / password, port(2), replication-rank(4), master-id(4).

    Divergence from the reference (documented): `Connection.php:169-171`
    writes the password bytes TWICE after the single length prefix,
    shifting the port/rank/master-id fields; this builder follows the
    published packet layout instead.
    """
    h, u, p = hostname.encode(), user.encode(), password.encode()
    return (
        bytes([COM_REGISTER_SLAVE])
        + struct.pack("<I", slave_id)
        + bytes([len(h)])
        + h
        + bytes([len(u)])
        + u
        + bytes([len(p)])
        + p
        + struct.pack("<HII", port, 0, 0)
    )


def build_binlog_dump(
    position: int, flags: int, slave_id: int, filename: str
) -> bytes:
    """COM_BINLOG_DUMP: pos(4) flags(2) server-id(4) filename(EOF)
    (`Connection.php:185-196`)."""
    return (
        bytes([COM_BINLOG_DUMP])
        + struct.pack("<IHI", position, flags, slave_id)
        + filename.encode()
    )


def _raise_err(pkt: bytes):
    """ERR packet -> WireError(code, message) with the protocol-4.1
    ``#xxxxx`` SQL-state marker stripped — ONE definition for every
    context (pre-resultset, mid-resultset, event stream)."""
    (code,) = struct.unpack_from("<H", pkt, 1)
    body = pkt[3:]
    if body[:1] == b"#":
        body = body[6:]
    raise WireError(body.decode("utf-8", "replace"), code=code)


def _is_numeric(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def _natural_key(name: str):
    """PHP SORT_NATURAL equivalent: digit runs compare numerically."""
    import re

    return [int(p) if p.isdigit() else p for p in re.split(r"(\d+)", name)]


class CompressedTransport:
    """MySQL compressed-protocol framing (CLIENT_COMPRESS,
    `Capability.php:35-37` — declared by the reference, never
    implemented): a zlib byte-stream tunnel that carries ordinary
    packets.  Layout per compressed packet (public protocol): 3-byte
    compressed-payload length, 1-byte compressed sequence id, 3-byte
    uncompressed length — uncompressed length 0 means the payload is
    stored RAW (used when zlib would not shrink it, e.g. tiny command
    packets).  Sits between ``PacketConn`` and the socket (or the TLS
    socket), so it composes with TLS.

    Each ``sendall`` becomes one compressed packet; ``recv`` drains a
    decompression buffer.  Frame integrity is enforced (exact header,
    decompressed size must equal the declared uncompressed length);
    sequence ids are tracked and reset at command boundaries like the
    inner protocol's, but incoming ids are recorded rather than
    strictly validated (server implementations differ on where the
    compressed counter resets; the inner packet sequence check and
    event CRCs carry the integrity guarantee)."""

    MIN_COMPRESS = 50  # MySQL convention: tiny payloads ship raw

    def __init__(self, sock, level: int = 6) -> None:
        import zlib

        self._z = zlib
        # zlib level trade measured on the fat profile stream
        # (BASELINE.md round 5): level 6 = 0.18x bytes at ~42 MB/s
        # compress throughput, level 1 = 0.28x at ~110 MB/s — a server
        # CPU-bound on compression should prefer 1; 6 is MySQL's default
        self.level = level
        self._sock = sock
        self._buf = bytearray()
        self.send_seq = -1
        self.recv_seq = -1

    def reset_seq(self) -> None:
        self.send_seq = -1

    def sendall(self, data) -> None:
        data = bytes(data)
        # both length fields are 3 bytes: one compressed packet carries
        # at most MAX_PACKET_SIZE-1... sized payloads; larger writes
        # split across packets (the byte stream is what matters — the
        # inner packet framing reassembles independently)
        for off in range(0, len(data), MAX_PACKET_SIZE):
            self._send_one(data[off : off + MAX_PACKET_SIZE])

    def _send_one(self, chunk: bytes) -> None:
        self.send_seq = (self.send_seq + 1) & 0xFF
        if len(chunk) >= self.MIN_COMPRESS:
            comp = self._z.compress(chunk, self.level)
            if len(comp) < len(chunk):
                self._sock.sendall(
                    struct.pack("<I", len(comp))[:3]
                    + bytes([self.send_seq])
                    + struct.pack("<I", len(chunk))[:3]
                    + comp
                )
                return
        self._sock.sendall(
            struct.pack("<I", len(chunk))[:3]
            + bytes([self.send_seq])
            + b"\x00\x00\x00"
            + chunk
        )

    def _read_exact(self, n: int, at_boundary: bool = False) -> bytes:
        chunks = []
        got = 0
        while got < n:
            c = self._sock.recv(n - got)
            if not c:
                if at_boundary and got == 0:
                    return b""
                raise WireError(
                    f"compressed frame truncated ({got}/{n} header/payload bytes)"
                )
            chunks.append(c)
            got += len(c)
        return b"".join(chunks)

    def recv(self, n: int) -> bytes:
        while not self._buf:
            hdr = self._read_exact(7, at_boundary=True)
            if not hdr:
                return b""  # clean close at a compressed-frame boundary
            clen = hdr[0] | (hdr[1] << 8) | (hdr[2] << 16)
            self.recv_seq = hdr[3]
            ulen = hdr[4] | (hdr[5] << 8) | (hdr[6] << 16)
            payload = self._read_exact(clen)
            if ulen:
                payload = self._z.decompress(payload)
                if len(payload) != ulen:
                    raise WireError(
                        f"compressed frame declared {ulen} uncompressed "
                        f"bytes, got {len(payload)}"
                    )
            self._buf += payload
        out = bytes(self._buf[:n])
        del self._buf[:n]
        return out


class PacketConn:
    """Length+sequence packet framing over any ``recv(n)/sendall(b)``
    object (a socket, one end of a socketpair, or a test stub).

    ``read_packet`` reassembles payloads split at MAX_PACKET_SIZE and
    enforces sequence continuity across the fragments
    (`Connection.php:394-417`); ``send_packet`` frames one payload and
    refuses >16MB sends exactly as the reference does
    (`Connection.php:445-457`).
    """

    def __init__(self, sock) -> None:
        self._sock = sock
        self.seq = -1

    # -- byte-level helpers -------------------------------------------------
    def _read_exact(self, n: int, at_boundary: bool = False) -> bytes:
        chunks = []
        got = 0
        while got < n:
            c = self._sock.recv(n - got)
            if not c:
                if at_boundary and got == 0:
                    raise CleanClose("connection closed at packet boundary")
                raise WireError(f"connection closed mid-read ({got}/{n} bytes)")
            chunks.append(c)
            got += len(c)
        return b"".join(chunks)

    # -- packets ------------------------------------------------------------
    def read_packet(self) -> bytes:
        header = self._read_exact(4, at_boundary=True)
        length = header[0] | (header[1] << 8) | (header[2] << 16)
        self.seq = header[3]
        data = bytearray(self._read_exact(length))
        while length == MAX_PACKET_SIZE:
            header = self._read_exact(4)
            length = header[0] | (header[1] << 8) | (header[2] << 16)
            self.seq = (self.seq + 1) & 0xFF
            if header[3] != self.seq:
                raise WireError("got packets out of order")
            data += self._read_exact(length)
        return bytes(data)

    def send_packet(self, payload: bytes, reset_seq: bool = False) -> None:
        if reset_seq:
            self.seq = -1
            # command boundary: the compressed-protocol sequence resets
            # with the inner one (public protocol)
            if isinstance(self._sock, CompressedTransport):
                self._sock.reset_seq()
        if len(payload) > MAX_PACKET_SIZE:
            raise WireError("sending large packets is not implemented")
        self.seq = (self.seq + 1) & 0xFF
        self._sock.sendall(
            struct.pack("<I", len(payload))[:3] + bytes([self.seq]) + payload
        )

    def start_tls(self, ssl_context, server_hostname: str | None = None) -> None:
        """Upgrade the underlying socket to TLS IN PLACE (client side).
        Called between the SSLRequest packet and the HandshakeResponse —
        the packet sequence number continues across the upgrade (public
        protocol: greeting seq 0, SSLRequest seq 1, HandshakeResponse
        seq 2 inside the tunnel)."""
        self._sock = ssl_context.wrap_socket(
            self._sock, server_hostname=server_hostname
        )

    def start_compression(self) -> None:
        """Switch the transport to the compressed protocol (zlib packet
        framing) — takes effect for every byte AFTER the auth OK, both
        directions, per the public protocol."""
        self._sock = CompressedTransport(self._sock)

    def read_response(self) -> tuple[int, bytes]:
        """Next packet classified by its first byte; ERR raises with the
        server's code and message (`Connection.php:419-443`).  The
        protocol-4.1 ``#xxxxx`` SQL-state marker is stripped from ERR
        messages (the reference passes it through).  A 0xFE first byte
        is EOF only when the packet is short (<9 bytes, the protocol's
        disambiguation rule); a long 0xFE packet is an
        AuthSwitchRequest, surfaced with its plugin name instead of a
        misleading generic failure."""
        pkt = self.read_packet()
        if not pkt:
            raise WireError("empty packet")
        first = pkt[0]
        if first == PKT_ERR:
            _raise_err(pkt)
        if first == PKT_EOF and len(pkt) >= 9:
            end = pkt.index(b"\x00", 1) if b"\x00" in pkt[1:] else len(pkt)
            raise WireError(
                "server requested auth plugin switch: "
                f"{pkt[1:end].decode('utf-8', 'replace')!r} "
                "(auth switches are only valid during the handshake — "
                "see BinlogWireClient.handshake)"
            )
        return first, pkt


class BinlogWireClient:
    """S1/S4/S5 session: handshake/auth, register as a replica, request
    the dump, iterate event payloads (`Connection.php:44-58,205-217`).

    The session-setup SQL phase (S2/S3/S7 — `SET NAMES`, config
    validation, file/position selection) is the caller's concern here:
    this sandbox has no server to query, and those semantics already
    live in the fixture-generator invariants and the shard manifest.
    ``binlog_file``/``binlog_position`` are passed in explicitly.
    """

    def __init__(
        self,
        sock,
        user: str,
        password: str,
        slave_id: int = 666,
        port: int = 3306,
        ssl_context=None,
        server_hostname: str | None = None,
        compress: bool = False,
    ) -> None:
        self.conn = PacketConn(sock)
        self.user, self.password = user, password
        self.slave_id, self.port = slave_id, port
        self.server: ServerHandshake | None = None
        self.flags = 0
        self.n_events = 0
        self.n_heartbeats = 0
        # TLS on the replication connection (the capability the reference
        # declares but never implements, `Capability.php:65-67,162`):
        # an ssl.SSLContext here upgrades the socket mid-handshake
        self.ssl_context = ssl_context
        self.server_hostname = server_hostname
        self.tls_active = False
        # CLIENT_COMPRESS (`Capability.php:35-37`, same status): zlib
        # packet framing from the first post-auth byte
        self.compress = compress
        self.compress_active = False

    @classmethod
    def connect(
        cls,
        host: str,
        port: int = 3306,
        *,
        user: str,
        password: str,
        slave_id: int = 666,
        timeout: float | None = None,
        ssl_context=None,
        server_hostname: str | None = None,
        compress: bool = False,
    ) -> "BinlogWireClient":
        """TCP connect by host/port (the reference's constructor shape,
        `Connection.php:44-58`); ``TCP_NODELAY`` because the dump stream
        is many small frames.  ``timeout`` applies to connect AND reads
        (a silent master with no heartbeat otherwise blocks forever).
        ``ssl_context`` enables TLS (hostname checks use
        ``server_hostname``, defaulting to ``host``); ``compress``
        requests the zlib compressed protocol."""
        import socket as _socket

        sock = _socket.create_connection((host, port), timeout=timeout)
        sock.setsockopt(_socket.IPPROTO_TCP, _socket.TCP_NODELAY, 1)
        return cls(
            sock,
            user=user,
            password=password,
            slave_id=slave_id,
            port=port,
            ssl_context=ssl_context,
            server_hostname=server_hostname if server_hostname is not None else host,
            compress=compress,
        )

    def _scramble_for(self, plugin: str, nonce: bytes) -> bytes:
        fn = AUTH_PLUGINS.get(plugin)
        if fn is None:
            raise WireError(
                f"server requires auth plugin {plugin!r}; only "
                f"{sorted(AUTH_PLUGINS)} are implemented"
            )
        return fn(self.password, nonce)

    def handshake(self) -> ServerHandshake:
        """Handshake + auth negotiation.  Supports mysql_native_password
        (reference parity) and caching_sha2_password's FAST path (the
        MySQL 8 default, beyond the reference), including an
        AuthSwitchRequest to either plugin.

        With ``ssl_context`` set, the connection upgrades to TLS between
        the SSLRequest packet and the HandshakeResponse (public
        protocol; the capability the reference declares unused,
        `Capability.php:65-67,162`) — and caching_sha2's FULL path
        (auth-cache miss) is then completed by sending the cleartext
        password inside the tunnel, closing MySQL 8 auth completely.
        Without TLS the full path still fails with an actionable error
        (the RSA public-key exchange needs a crypto library this
        environment lacks).  With ``compress`` set and the server
        offering CLIENT_COMPRESS, the zlib compressed protocol starts
        from the first post-auth byte."""
        self.server = parse_handshake_v10(self.conn.read_packet())
        if self.server.protocol_version != 10:
            raise WireError(
                f"unsupported protocol version {self.server.protocol_version}"
            )
        caps = CLIENT_CAPABILITIES & self.server.capabilities
        # the full capability set must be FIXED before the SSLRequest:
        # the protocol requires SSLRequest and HandshakeResponse to carry
        # identical flags (a server that latches caps from the SSLRequest
        # would otherwise never learn about CLIENT_COMPRESS)
        if self.compress and self.server.capabilities & CLIENT_COMPRESS:
            caps |= CLIENT_COMPRESS
        if self.ssl_context is not None:
            if not self.server.capabilities & CLIENT_SSL:
                raise WireError(
                    "TLS requested but the server did not offer CLIENT_SSL "
                    "(check the server's ssl configuration, or drop "
                    "ssl_context for a plaintext session)"
                )
            caps |= CLIENT_SSL
            # SSLRequest: the first 32 bytes of HandshakeResponse41
            # (caps + max-packet + charset + 23 filler), then the TLS
            # upgrade; the packet sequence continues inside the tunnel
            self.conn.send_packet(
                struct.pack("<IIB", caps, MAX_PACKET_SIZE, 33) + b"\x00" * 23
            )
            self.conn.start_tls(self.ssl_context, self.server_hostname)
            self.tls_active = True
        plugin = self.server.auth_plugin_name or "mysql_native_password"
        auth = self._scramble_for(plugin, self.server.auth_plugin_data)
        self.conn.send_packet(
            build_handshake_response(self.user, auth, caps, auth_plugin=plugin)
        )
        for _ in range(5):  # OK / ERR / AuthSwitch / AuthMoreData rounds
            pkt = self.conn.read_packet()
            if not pkt:
                raise WireError("empty packet during auth")
            first = pkt[0]
            if first == PKT_OK:
                if caps & CLIENT_COMPRESS:
                    # compression starts with the first post-auth byte,
                    # both directions (public protocol)
                    self.conn.start_compression()
                    self.compress_active = True
                return self.server
            if first == PKT_ERR:
                _raise_err(pkt)
            if first == PKT_EOF and len(pkt) >= 9:
                # AuthSwitchRequest: plugin(NUL) + new nonce — rescramble.
                # Strip exactly ONE trailing NUL (the string terminator):
                # rstrip would also eat legitimate 0x00 tail bytes of the
                # random scramble (~1/256 of real connections) and the
                # truncated nonce would scramble to Access denied
                end = pkt.index(b"\x00", 1)
                plugin = pkt[1:end].decode("utf-8", "replace")
                nonce = pkt[end + 1 :]
                if nonce.endswith(b"\x00"):
                    nonce = nonce[:-1]
                self.conn.send_packet(self._scramble_for(plugin, nonce))
                continue
            if first == 0x01 and plugin == "caching_sha2_password":
                # AuthMoreData: fast-auth verdict
                status = pkt[1] if len(pkt) > 1 else -1
                if status == _SHA2_FAST_AUTH_SUCCESS:
                    continue  # OK packet follows
                if status == _SHA2_PERFORM_FULL_AUTH:
                    if self.tls_active:
                        # full authentication inside the TLS tunnel is
                        # just the cleartext password, NUL-terminated
                        # (public protocol) — no RSA exchange needed
                        self.conn.send_packet(self.password.encode() + b"\x00")
                        continue  # OK / ERR follows
                    raise WireError(
                        "caching_sha2_password full authentication requested "
                        "(auth-cache miss): the RSA exchange it needs over a "
                        "plaintext connection is unavailable here — enable "
                        "TLS (ssl_context), connect once with another client "
                        "to prime the server's auth cache, or use a "
                        "mysql_native_password account"
                    )
                raise WireError(
                    f"unexpected caching_sha2 auth status {status}"
                )
            raise WireError(f"unexpected auth packet 0x{first:02x}")
        raise WireError("auth negotiation did not converge")

    # -- S7: ad-hoc text-protocol SQL (`Connection.php:219-329`) ----------
    def execute(self, sql: str):
        """COM_QUERY: returns ``True`` for an OK response, or the typed
        row dicts of a resultset (column-definition walk + per-type
        conversion, mirroring the reference's mapping)."""
        from ..protocol.constants import ColumnType
        from ..protocol.decode import read_coded_binary

        self.conn.send_packet(bytes([COM_QUERY]) + sql.encode(), reset_seq=True)
        pkt = self.conn.read_packet()
        first = pkt[0]
        if first == PKT_ERR:
            _raise_err(pkt)
        if first == PKT_OK:
            return True
        if first == PKT_EOF:
            return False

        n_cols, _ = read_coded_binary(pkt, 0)
        cols = []
        for _ in range(n_cols):
            cd = self.conn.read_packet()
            off = 0
            vals = []
            for _f in range(6):  # catalog schema table org_table name org_name
                v, off = read_lenc_str(cd, off)
                vals.append(v)
            _fix, off = read_coded_binary(cd, off)
            (_charset,) = struct.unpack_from("<H", cd, off)
            off += 2
            (_length,) = struct.unpack_from("<I", cd, off)
            off += 4
            ctype = cd[off]
            off += 1
            (flags,) = struct.unpack_from("<H", cd, off)
            cols.append(
                {"name": vals[4].decode(), "type": ctype, "flags": flags}
            )
        if self.conn.read_packet()[0] != PKT_EOF:
            raise WireError("missing EOF after column definitions")

        _INT_TYPES = {
            ColumnType.TINY,
            ColumnType.SHORT,
            ColumnType.INT24,
            ColumnType.LONG,
            ColumnType.YEAR,
        }
        rows = []
        while True:
            rp = self.conn.read_packet()
            if rp[0] == PKT_EOF and len(rp) < 9:
                break
            if rp[0] == PKT_ERR:
                _raise_err(rp)
            off = 0
            row = {}
            for c in cols:
                raw, off = read_lenc_str(rp, off)
                if raw is None:
                    row[c["name"]] = None
                    continue
                s = raw.decode("utf-8", "replace")
                t = c["type"]
                if t in _INT_TYPES:
                    row[c["name"]] = int(s) if _is_numeric(s) else s
                elif t == ColumnType.LONGLONG:
                    # reference parity: unsigned (flag 0x20) or
                    # non-numeric stays a string (GMP territory)
                    row[c["name"]] = (
                        s if (c["flags"] & 0x20 or not _is_numeric(s)) else int(s)
                    )
                elif t in (ColumnType.DOUBLE, ColumnType.FLOAT):
                    row[c["name"]] = float(s) if _is_numeric(s) else s
                else:
                    row[c["name"]] = s
            rows.append(row)
        return rows

    def query(self, sql: str) -> list:
        r = self.execute(sql)
        return r if isinstance(r, list) else []

    # -- S2/S3: session setup (`Connection.php:44-90,102-157`) ------------
    def session_setup(
        self,
        binlog_file: str | None = None,
        binlog_position: int | None = None,
        heartbeat_period: float = 30.0,
        charset: str = "utf8mb4",
        collation: str = "utf8mb4_general_ci",
    ) -> tuple[str, int]:
        """The reference constructor's post-auth sequence: SET NAMES,
        server-config validation (S2), master status, binlog
        file/position selection (S3), checksum + MariaDB capability
        session vars, heartbeat period.  Returns the (file, position)
        to pass to :meth:`dump_binlog`.
        """
        self.execute(f'SET NAMES "{charset}" COLLATE "{collation}"')
        for var, want in (
            ("binlog_format", "ROW"),
            ("binlog_row_image", "FULL"),
            ("binlog_row_metadata", "FULL"),
        ):
            got = self.query(f"SELECT @@global.{var} AS value")[0]["value"]
            if got != want:
                raise WireError(f"expected to have {var}={want}, server has {got}")
        self.master_status = self.query("SHOW MASTER STATUS")

        logs = {
            r["Log_name"]: r.get("File_size") for r in self.query("SHOW BINARY LOGS")
        }
        if binlog_file is not None:
            if binlog_file not in logs:
                raise WireError(f"binlog file {binlog_file} is not found on server")
            selected = binlog_file
        elif not logs:
            raise WireError("no binlog files were found on server")
        else:
            selected = min(logs, key=_natural_key)

        pos = binlog_position if binlog_position is not None else 4
        probe = self.execute(
            f'SHOW BINLOG EVENTS IN "{selected}" FROM {pos} LIMIT 1'
        )
        if not (isinstance(probe, list) and probe and "Pos" in probe[0]):
            raise WireError(f"no events found in {selected}:{pos}")
        # reference parity (`Connection.php:156`): the requested position
        # is VALIDATED but the dump always starts at the 4-byte header —
        # downstream start-position skip (F2) owns offset semantics
        pos = 4

        if self.query("SELECT @@global.binlog_checksum AS value")[0]["value"] != "NONE":
            self.execute("SET @master_binlog_checksum = @@global.binlog_checksum")

        if self.server is not None and self.server.is_mariadb:
            self.execute("SET @mariadb_slave_capability=4")
            self.execute("SET @slave_gtid_strict_mode=0")
            self.execute("SET @slave_gtid_ignore_duplicates=0")
            if (
                self.query(
                    "SELECT @@global.binlog_annotate_row_events AS value"
                )[0]["value"]
                == "1"
            ):
                self.flags |= BINLOG_SEND_ANNOTATE_ROWS_EVENT

        self.execute(
            f"SET @master_heartbeat_period = {heartbeat_period * 1_000_000_000:f}"
        )
        return selected, pos

    def register_slave(self) -> None:
        self.conn.send_packet(
            build_register_slave(self.slave_id, self.user, self.password, self.port),
            reset_seq=True,
        )
        first, _ = self.conn.read_response()
        if first != PKT_OK:
            raise WireError("unable to register slave")

    def dump_binlog(self, binlog_file: str, position: int = 4) -> None:
        # self.flags is decided during session_setup (the annotate flag
        # only when @@global.binlog_annotate_row_events == '1', reference
        # parity `Connection.php:84-86`) — dumpBinlog just sends it
        self.conn.send_packet(
            build_binlog_dump(position, self.flags, self.slave_id, binlog_file),
            reset_seq=True,
        )
        first, _ = self.conn.read_response()
        if first != PKT_OK:
            raise WireError("unable to start binlog dump")

    def events(self):
        """Yield framed event packets (leading OK byte KEPT — the shard
        format downstream stores exactly this shape).  EOF heartbeat
        frames are counted and skipped (`Connection.php:210-216`); a
        clean server close ends the stream (the reference loops
        forever — a finite fixture stream must be able to end)."""
        while True:
            try:
                first, pkt = self.conn.read_response()
            except CleanClose:
                # a close AT a packet boundary is the only legal stream
                # end; a mid-packet death still raises (a spool that
                # swallowed it would silently lose the binlog tail)
                return
            if first == PKT_EOF:
                self.n_heartbeats += 1
                continue
            self.n_events += 1
            yield pkt

    def close(self) -> None:
        try:
            self.conn.send_packet(bytes([COM_QUIT]), reset_seq=True)
        except Exception:
            pass


def _scan_map_event(payload, checksum_size: int, latest: dict[int, dict]) -> int:
    """One event of a TABLE_MAP scan: FORMAT_DESCRIPTION sets the
    checksum gate exactly like the decoder (any nonzero algorithm byte
    means a 4-byte trailer), TABLE_MAP records its table's layout in
    ``latest``.  Byte-5 peek per event, full parse only for those two.
    Returns the checksum size for the next event."""
    from ..protocol.constants import EventType
    from ..protocol.decode import parse_format_description, parse_header, parse_table_map

    etype = payload[5]
    if etype == EventType.FORMAT_DESCRIPTION:
        _fmt, _ver, alg = parse_format_description(payload, parse_header(payload, 0))
        return 4 if alg > 0 else 0
    if etype == EventType.TABLE_MAP:
        tm = parse_table_map(payload, parse_header(payload, checksum_size))
        latest[tm.table_id] = tm.to_dict()
    return checksum_size


def scan_table_maps(shard_paths: list[str]) -> list[dict]:
    """Latest TABLE_MAP layout per table_id from spooled shards — the
    registry snapshot a PARALLEL decode needs when the stream's maps
    exist only in-band (a real-server tail; the fixture generator
    publishes its own snapshot).  A block that starts mid-transaction
    may otherwise see ROWS events whose TABLE_MAP landed in an earlier
    block.  One sequential pass of :func:`_scan_map_event`, the scan
    ``tail_to_shards`` runs as it spools."""
    import pyarrow.parquet as pq

    latest: dict[int, dict] = {}
    checksum_size = 4  # CRC32 until an FDE says otherwise (modern default)
    for path in shard_paths:
        tab = pq.read_table(path, columns=["payload"])
        for payload in tab.column("payload").to_pylist():
            checksum_size = _scan_map_event(payload, checksum_size, latest)
    return [latest[k] for k in sorted(latest)]


def _spool_names(out_dir: str) -> list[str]:
    """The committed shard files of a spool directory, by name — the
    writer's temp files (``.events-…``) never match."""
    if not os.path.isdir(out_dir):
        return []
    return sorted(
        f for f in os.listdir(out_dir) if f.startswith("events-") and f.endswith(".parquet")
    )


def _shard_id(name: str) -> int:
    return int(name[len("events-") : -len(".parquet")])


# The Parquet options of every event shard, recorded in each generated
# stream's manifest so that a stream written with other options is
# regenerated, never reused.  A replay reads every shard in full, and
# LZ4 pages (pyarrow writes LZ4_RAW) read in about 60% of zstd's time
# at about 3x its bytes on disk; retention (``purge_spool``) bounds the
# spool, while lake files, the long-lived table, stay zstd.  Binlog
# events do not repeat, so
# ``payload`` gets no dictionary and no statistics; the ``event_seq``
# statistics are what :func:`_shard_entry` reads.
SHARD_FORMAT = {
    "compression": "lz4",
    "use_dictionary": ["shard_id"],
    "write_statistics": ["shard_id", "event_seq"],
}


def write_event_shard(table, path: str) -> int:
    """Write one ``(shard_id, event_seq, payload)`` event shard to
    ``path`` atomically and durably (``atomic_write_parquet``: fsync'd
    tmp + rename + dir fsync) in :data:`SHARD_FORMAT`; returns its
    bytes.  The one writer of ``events-*.parquet``: the fixture
    generator's and the wire spool's shards are the same format."""
    from ..state.checkpoint import atomic_write_parquet

    return atomic_write_parquet(table, path, **SHARD_FORMAT)


def _shard_entry(out_dir: str, name: str) -> dict | None:
    """The manifest entry of one spooled shard from its parquet footer:
    the row count and the ``event_seq`` row-group min/max statistics.
    The column is read only when a row group has no min/max statistics.
    None for a shard with no rows."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    path = os.path.join(out_dir, name)
    with pq.ParquetFile(path) as pf:
        md = pf.metadata
        if md.num_rows == 0:
            return None
        col = md.schema.names.index("event_seq")
        stats = [md.row_group(i).column(col).statistics for i in range(md.num_row_groups)]
        if all(s is not None and s.has_min_max for s in stats):
            lo, hi = min(s.min for s in stats), max(s.max for s in stats)
        else:
            seqs = pf.read(columns=["event_seq"]).column(0)
            lo, hi = pc.min(seqs).as_py(), pc.max(seqs).as_py()
    return {
        "shard_id": _shard_id(name),
        "path": path,
        "events": md.num_rows,
        "first_event_seq": int(lo),
        "last_event_seq": int(hi),
    }


def _resume_point(entries: list[dict]) -> tuple[int, int]:
    """(next_shard_id, next_event_seq) after the given shard entries."""
    if not entries:
        return 0, 0
    return (
        max(e["shard_id"] for e in entries) + 1,
        max(e["last_event_seq"] for e in entries) + 1,
    )


def _spool_entries(out_dir: str) -> list[dict]:
    """Each committed shard's footer entry, in name order, empty ones
    skipped."""
    return [
        e for e in (_shard_entry(out_dir, f) for f in _spool_names(out_dir)) if e is not None
    ]


def _purge_watermark(out_dir: str) -> int | None:
    """The ``_purge.json`` watermark :func:`purge_spool` recorded, or
    None when the spool was never purged; an unreadable sidecar raises
    (``OSError``, ``ValueError`` or ``KeyError``)."""
    import json as _json

    ppath = os.path.join(out_dir, "_purge.json")
    if not os.path.exists(ppath):
        return None
    with open(ppath) as f:
        return int(_json.load(f)["purge_watermark"])


def spool_shards(out_dir: str) -> list[dict]:
    """Manifest entries for every committed shard in a spool directory
    (the atomically-renamed ``events-NNNNN.parquet`` files, in name
    order; empty ones skipped) — feed these to ``run_to_lake``/``follow``
    to ingest everything the tail has spooled so far, including shards
    from earlier tail sessions.  Each entry comes from the shard's
    parquet footer (row count, ``event_seq`` statistics), so listing
    reads no event data.  After a :func:`purge_spool` the first entry
    carries the purge watermark as ``purged_through``, so a manifest
    built from these entries fails closed on a replay that would need
    the purged events, as the spool's own ``manifest.json`` does."""
    entries = _spool_entries(out_dir)
    purged = _purge_watermark(out_dir)
    if entries and purged is not None:
        entries[0] = dict(entries[0], purged_through=purged)
    return entries


def purge_spool(out_dir: str, watermark: int) -> dict:
    """Log truncation (the `PURGE BINARY LOGS` analog): delete committed
    spool shards whose EVERY event is at or below ``watermark`` —
    typically the lake manifest's watermark, past which no follow/resume
    will ever read them again.  A shard straddling the watermark is
    kept whole (shards are the atomic unit).  The spool's
    ``manifest.json`` (if present) is republished without the purged
    shards, atomically, so a concurrent FollowDaemon never sees a
    manifest that references deleted files, and with
    ``purged_through``, the highest purge watermark so far: a replay of
    that manifest from the stream's start (a fresh lake,
    ``state_as_of``) or from a lake behind that line raises instead of
    answering with partial state (Delta Lake's VACUUM rule).

    Returns ``{"purged": n, "kept": n, "failed": n, "freed_bytes": n}``
    — a shard whose file could not be unlinked counts as ``failed``,
    not ``purged``, so disk accounting never over-reports.  Purging
    never touches the resume point: ``spool_state`` continues from the
    surviving shards' numbering (a fully-purged spool would reset
    numbering, so at least the newest shard is ALWAYS kept).

    Concurrency with a LIVE tail: the purge watermark is persisted to
    ``_purge.json`` and the tail's per-flush ``publish()`` filters its
    shard list through it (and records it as ``purged_through``), so a
    flush racing the purge can never resurrect deleted paths in
    ``manifest.json``.  (Run one purge at a
    time; MySQL's own PURGE BINARY LOGS has the same discipline.)
    """
    import json as _json

    from ..state.checkpoint import atomic_write_json

    entries = _spool_entries(out_dir)
    if not entries:
        return {"purged": 0, "kept": 0, "failed": 0, "freed_bytes": 0}
    # keep the newest shard unconditionally: it carries the numbering
    # high-water mark a resumed tail splices onto
    newest = max(e["shard_id"] for e in entries)
    to_purge, kept = [], []
    for e in entries:
        if e["last_event_seq"] <= watermark and e["shard_id"] != newest:
            to_purge.append(e)
        else:
            kept.append(e)
    # watermark sidecar FIRST: a concurrent tail's next publish()
    # filters through it even before the manifest below lands
    if to_purge:
        atomic_write_json(
            out_dir, {"purge_watermark": int(watermark)}, filename="_purge.json"
        )
    mpath = os.path.join(out_dir, "manifest.json")
    if to_purge and os.path.exists(mpath):
        # manifest next: readers must stop referencing the files
        # BEFORE they disappear
        with open(mpath) as f:
            meta = _json.load(f)
        meta["shards"] = kept
        meta["purged_through"] = max(int(watermark), meta.get("purged_through", watermark))
        atomic_write_json(out_dir, meta, filename="manifest.json")
    purged, failed, freed = 0, 0, 0
    for e in to_purge:
        try:
            size = os.path.getsize(e["path"])
            os.unlink(e["path"])
            purged += 1
            freed += size
        except OSError:
            failed += 1  # still on disk; next purge retries it
    return {
        "purged": purged,
        "kept": len(kept),
        "failed": failed,
        "freed_bytes": freed,
    }


def spool_state(out_dir: str) -> tuple[int, int]:
    """(next_shard_id, next_event_seq) of an existing spool directory —
    the resume point for a re-established tail.  Numbering continues so
    a resumed tail's shards splice into the same manifest without seq
    collisions.  NOTE: continuation is positional, not content-based —
    if the new dump session replays the stream from the beginning
    (the reference always restarts at position 4, `Connection.php:156`),
    pass ``skip_events=next_event_seq`` to ``tail_to_shards`` so the
    already-spooled prefix is dropped instead of re-ingested under
    fresh sequence numbers.

    Reads ONE footer, whatever the spool's size: ``tail_to_shards`` is
    the only spool writer and numbers shards and ``event_seq`` together
    (each new shard continues both after the newest one), and
    ``purge_spool`` always keeps the newest shard, so the newest
    non-empty shard holds both the highest shard id and the highest
    ``event_seq``.  The walk goes newest-first by shard id and stops at
    the first non-empty shard."""
    newest = _newest_shard(out_dir)
    return _resume_point([newest] if newest is not None else [])


def _newest_shard(out_dir: str) -> dict | None:
    """The manifest entry of the newest non-empty shard (see
    :func:`spool_state`), or None."""
    for f in sorted(_spool_names(out_dir), key=_shard_id, reverse=True):
        entry = _shard_entry(out_dir, f)
        if entry is not None:
            return entry
    return None


def tail_to_shards(
    client: BinlogWireClient,
    out_dir: str,
    shard_events: int = 4096,
    binlog_file: str | None = None,
    position: int = 4,
    max_events: int | None = None,
    session_setup: bool = False,
    resume: bool = False,
    skip_events: int | None = None,
    manifest_extra: dict | None = None,
) -> dict:
    """Drive a full replica session and spool the event stream into the
    standard ``(shard_id, event_seq, payload)`` parquet shards — the
    handoff point where the wire edge ends and the distributed pipeline
    (decode -> merge -> lake) begins.  Files appear atomically and
    durably (:func:`write_event_shard`), one per ``shard_events``
    window, so a follower can ingest
    completed shards while the tail is still running, and a lake
    watermark past a shard never outlives the shard across a power
    loss.

    With ``manifest_extra`` (the stream metadata a consumer needs —
    ``table_maps`` etc.), every flush also republishes an atomic
    ``manifest.json`` listing ALL committed shards, so a live
    ``FollowDaemon`` pointed at the spool ingests the stream into the
    exactly-once lake CONCURRENTLY with the tail — the full streaming
    loop: socket -> spool -> follow -> lake.

    ``resume=True`` continues the spool's numbering from the newest
    shard's footer (:func:`spool_state`), the one footer a resumed
    session reads, so resuming costs the same at any spool size.  A
    publishing session takes the prior shards from the prior
    ``manifest.json`` when its last entry equals that footer's entry;
    otherwise (a crash between a shard write and its publish, a
    manifest another writer left) it lists them from their footers
    (:func:`spool_shards`).

    Shards are written by :func:`write_event_shard` (LZ4 pages, no
    dictionary for ``payload``, the ``event_seq`` statistics the footer
    resume reads), the fixture generator's one shard writer too."""
    import pyarrow as pa

    from ..state.checkpoint import atomic_write_json

    os.makedirs(out_dir, exist_ok=True)
    client.handshake()
    if session_setup:
        # full reference constructor sequence (S2/S3/S7): SET NAMES,
        # config validation, file/position selection over the wire
        # (binlog_file=None lets the server's natural-first file win)
        binlog_file, position = client.session_setup(
            binlog_file=binlog_file, binlog_position=position
        )
    elif binlog_file is None:
        binlog_file = "binlog.000001"
    client.register_slave()
    client.dump_binlog(binlog_file, position)

    shards = []
    buf: list[bytes] = []
    if skip_events is None:
        skip_events = 0
    to_skip = skip_events

    prior_meta: dict = {}
    mpath = os.path.join(out_dir, "manifest.json")
    if resume and os.path.exists(mpath):
        import json as _json

        with open(mpath) as f:
            prior_meta = _json.load(f)
        if manifest_extra is None:
            # a prior tail session published a manifest: keep publishing
            # with ITS metadata, or a FollowDaemon watching the spool
            # would silently freeze at the old shard list forever
            manifest_extra = {k: v for k, v in prior_meta.items() if k != "shards"}

    # the resume point from the newest shard's footer; a publishing
    # session lists the prior shards from the prior manifest when that
    # manifest already names the newest shard, else from every footer
    prior_shards: list[dict] = []
    shard_id, seq = 0, 0
    if resume:
        newest = _newest_shard(out_dir)
        if newest is not None:
            shard_id, seq = _resume_point([newest])
            if manifest_extra is not None:
                listed = prior_meta.get("shards") or [None]
                prior_shards = listed if listed[-1] == newest else _spool_entries(out_dir)
    first_seq = seq

    # in-stream registry-snapshot scan: a REAL stream's TABLE_MAPs exist
    # only in-band, and a follower's PARALLEL decode needs the snapshot
    # for blocks that start mid-transaction — so every publish carries
    # the latest layout per table_id, seeded from any maps the caller
    # (or a resumed prior manifest) already provided.  Cost: one byte
    # peek per event (already in hand) + a full parse only for
    # TABLE_MAP / FORMAT_DESCRIPTION events (:func:`_scan_map_event`).
    scan_maps = manifest_extra is not None
    latest_maps: dict[int, dict] = {}
    scan_checksum = 4  # CRC32 until an FDE says otherwise
    if scan_maps:
        for d in manifest_extra.get("table_maps", []):
            latest_maps[int(d["table_id"])] = d

    def publish() -> None:
        # stream-manifest convention (generator parity): manifest.json,
        # published atomically (fsync'd tmp + rename + dir fsync) so a
        # concurrent FollowDaemon never sees partial JSON or unrenamed
        # shard paths
        if manifest_extra is None:
            return
        if latest_maps:
            manifest_extra["table_maps"] = [
                latest_maps[k] for k in sorted(latest_maps)
            ]
        listed = prior_shards + shards
        # a concurrent purge_spool records its watermark in _purge.json;
        # filtering through it here means a flush racing the purge can
        # never resurrect deleted shard paths in the manifest
        try:
            pw = _purge_watermark(out_dir)
        except (OSError, ValueError, KeyError):
            # unreadable sidecar: SKIP this publish rather than risk
            # resurrecting purged paths — the next flush retries and
            # a one-window-stale manifest only delays a follower
            return
        if pw is not None:
            listed = [e for e in listed if e["last_event_seq"] > pw]
            manifest_extra["purged_through"] = max(pw, manifest_extra.get("purged_through", pw))
        atomic_write_json(
            out_dir,
            dict(manifest_extra, shards=listed),
            filename="manifest.json",
        )

    def flush() -> None:
        nonlocal shard_id
        if not buf:
            return
        t = pa.table(
            {
                "shard_id": pa.array([shard_id] * len(buf), pa.int32()),
                "event_seq": pa.array(
                    range(seq - len(buf), seq), pa.int64()
                ),
                "payload": pa.array(buf, pa.binary()),
            }
        )
        path = os.path.join(out_dir, f"events-{shard_id:05d}.parquet")
        write_event_shard(t, path)
        shards.append(
            {
                "shard_id": shard_id,
                "path": path,
                "events": len(buf),
                # generator-manifest parity: watermark pruning and
                # selective resume key off these ranges
                "first_event_seq": seq - len(buf),
                "last_event_seq": seq - 1,
            }
        )
        shard_id += 1
        buf.clear()
        publish()

    for pkt in client.events():
        if scan_maps:
            # scan even the skipped replay prefix: its FORMAT_DESCRIPTION
            # sets the checksum gate and its TABLE_MAPs may govern later
            # row events
            scan_checksum = _scan_map_event(pkt, scan_checksum, latest_maps)
        if to_skip > 0:
            # a dump session that replays from the start (reference
            # semantics: position resets to 4) re-sends the prefix this
            # spool already committed — drop it, never renumber it
            to_skip -= 1
            continue
        buf.append(pkt)
        seq += 1
        if len(buf) >= shard_events:
            flush()
        if max_events is not None and seq - first_seq >= max_events:
            break
    flush()
    if not shards:
        publish()  # an empty tail still leaves a readable manifest
    client.close()
    return {
        "shards": shards,
        "events": seq - first_seq,
        "next_event_seq": seq,
        "skipped": skip_events - to_skip,
        "heartbeats": client.n_heartbeats,
    }
