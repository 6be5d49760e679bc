//! Pluggable rank-to-rank transports beneath the [`crate::Communicator`].
//!
//! The communicator implements *all* message-passing semantics — tag/source
//! matching, the unexpected-message queue, communicator contexts, deadlock
//! timeouts, [`crate::CommStats`] traffic accounting, fault injection and
//! the obs span tracer — **above** this trait.  A transport only moves
//! whole [`Envelope`]s between world ranks, so schedules, fault replays and
//! traces are transport-independent by construction: the same program over
//! [`MpscTransport`] (thread-backed, in-memory) and [`SocketTransport`]
//! (byte-stream over Unix-domain sockets or TCP) produces bitwise-identical
//! results and identical logical traffic counts.
//!
//! # Wire format of the byte-stream transport
//!
//! Each envelope is one length-prefixed frame (all integers little-endian):
//!
//! ```text
//! u32  payload word count n
//! u64  ctx            (communicator context id; u64::MAX = poison)
//! u32  src_global     (sender's world rank)
//! u32  tag
//! u32  drops          (fault rider: deliveries to lose)
//! u32  corrupt        (fault rider: deliveries to bit-flip)
//! u32  corrupt_bit
//! u32  flags          (bit 0: redundant duplicate)
//! u64  corrupt_seed
//! u64  epoch          (mesh generation the frame belongs to)
//! 8n   payload        (f64 bit patterns)
//! u64  integrity hash over all preceding frame bytes
//! ```
//!
//! The hash is the one the in-runtime [`crate::fault::checksum`] frames use:
//! [`crate::fault::checksum_bytes`] over the header, continued a payload
//! word per multiply ([`crate::fault::hash_word`]) in the pass that encodes
//! or decodes the payload; every single-bit corruption of header, payload
//! or trailer changes it.  A frame that fails validation poisons the
//! receiving mailbox (the stream position can no longer be trusted), which
//! surfaces as a typed [`crate::CommError::PeerFailed`] instead of silent
//! corruption.
//!
//! Connection setup is a full-mesh handshake: rank `i` listens on
//! `<endpoint>.<i>` (Unix) or `port + i` (TCP), and every ordered pair of
//! ranks gets one simplex connection opened by the sender, announced by a
//! 28-byte hello (`"AGCMWIRE"`, version, sender rank, world size, epoch).
//! [`SocketTransport::connect`] returns only once every peer connection is
//! up in both directions, so a successful construction doubles as the
//! launcher's barrier that the whole world exists.  The mesh (re)wiring
//! phases are bounded by `AGCM_CONNECT_TIMEOUT_MS` (strict env parse;
//! default [`crate::default_timeout`]) so a hung peer fails loudly with
//! rank/peer/phase context instead of blocking forever.
//!
//! # Epochs and elastic rewiring
//!
//! A supervised run survives the death of a rank process: the launcher
//! respawns the rank, which re-joins the existing mesh at a higher
//! **epoch**.  Every frame carries its sender's epoch; the receiver
//! delivers only frames of its *current* epoch, drops older ones (stale
//! in-flight traffic of an aborted step attempt — the kernel's socket
//! buffers can hold frames of a dead generation indefinitely, and a rebuilt
//! world reuses the same deterministic context ids),
//! and parks newer ones until its own epoch catches up (a recovered peer
//! may race ahead).  The accept thread keeps listening after the initial
//! mesh is up, so a replacement rank can dial in; survivors call
//! [`SocketTransport::rewire`] to bump their epoch, re-dial the
//! replacement's listener and wait for its inbound reconnect.  Poison
//! envelopes are stamped with the receiver's epoch at EOF time, so the
//! failure that *triggers* a recovery is delivered while stale poison from
//! an already-recovered failure is filtered like any other old frame.

use crate::error::{CommError, CommResult};
use crate::fault;
use agcm_obs as obs;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Context id of poison envelopes (sent when a rank panics — or when a
/// byte-stream frame fails validation — so peers fail fast instead of
/// waiting out the deadlock timeout).  Real contexts can never reach this
/// value.
pub(crate) const POISON_CTX: u64 = u64::MAX;

/// A message in flight between two world ranks.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Communicator context id (`POISON_CTX` marks a poison envelope).
    pub ctx: u64,
    /// Sender's world rank.
    pub src_global: usize,
    /// Message tag.
    pub tag: u32,
    /// Payload.
    pub data: Vec<f64>,
    /// Injected link faults riding on the envelope: how many deliveries to
    /// lose before the clean payload gets through (the receiver applies
    /// these, modelling loss on the wire while keeping the runtime's
    /// eager-copy architecture).
    pub drops: u32,
    /// Fault rider: deliveries to corrupt before the clean payload.
    pub corrupt: u32,
    /// Fault rider: which bit the injected corruption flips.
    pub corrupt_bit: u32,
    /// Fault rider: seeds the corrupted element choice.
    pub corrupt_seed: u64,
    /// Injected duplicate: delivered, but never counted as traffic.
    pub redundant: bool,
    /// Mesh generation the frame belongs to.  The socket transport stamps
    /// this at send time and filters on receive (see the module docs);
    /// in-memory transports leave it at 0.
    pub epoch: u64,
}

impl Envelope {
    /// A fresh fault-free envelope.
    pub fn new(ctx: u64, src_global: usize, tag: u32, data: Vec<f64>) -> Self {
        Envelope {
            ctx,
            src_global,
            tag,
            data,
            drops: 0,
            corrupt: 0,
            corrupt_bit: 0,
            corrupt_seed: 0,
            redundant: false,
            epoch: 0,
        }
    }

    /// A poison envelope announcing that world rank `src_global` died.
    pub fn poison(src_global: usize) -> Self {
        Envelope::new(POISON_CTX, src_global, 0, Vec::new())
    }

    /// The payload with the injected bit flip applied (the stored data
    /// stays clean for a retry).
    pub(crate) fn corrupted_copy(&self) -> Vec<f64> {
        let mut data = self.data.clone();
        if !data.is_empty() {
            let idx = (self.corrupt_seed % data.len() as u64) as usize;
            data[idx] = f64::from_bits(data[idx].to_bits() ^ (1u64 << self.corrupt_bit));
        }
        data
    }
}

/// Raw envelope delivery between the world ranks of one job.
///
/// Implementations must provide reliable, per-sender-ordered delivery of
/// whole envelopes (like MPI's transport layer); everything above — tag
/// matching, contexts, timeouts, statistics, fault injection — lives in the
/// [`crate::Communicator`] and is shared by every transport.
pub trait Transport {
    /// This process/thread's world rank.
    fn world_rank(&self) -> usize;

    /// Number of ranks in the world.
    fn world_size(&self) -> usize;

    /// Deliver `env` to world rank `peer` (buffered, non-blocking: the
    /// call returns once the envelope is handed to the wire, not when the
    /// peer receives it).  Sending to the own rank loops back locally.
    fn send(&self, peer: usize, env: Envelope) -> CommResult<()>;

    /// Next incoming envelope, waiting up to `timeout`; `None` on timeout
    /// (or when delivery has shut down, which the caller treats the same).
    fn recv(&self, timeout: Duration) -> Option<Envelope>;

    /// Next incoming envelope if one is already queued.
    fn try_recv(&self) -> Option<Envelope>;

    /// Wire-level traffic counters, for transports that move real bytes
    /// (`None` for in-memory transports).
    fn wire_stats(&self) -> Option<WireStats> {
        None
    }

    /// Short transport name for diagnostics (`"mpsc"`, `"uds"`, `"tcp"`).
    fn name(&self) -> &'static str;
}

// ---------------------------------------------------------------------------
// In-memory transport (thread-backed ranks)
// ---------------------------------------------------------------------------

/// The original in-memory transport: one `std::sync::mpsc` channel per
/// rank, all ranks living in one process as threads.
pub struct MpscTransport {
    rank: usize,
    senders: Arc<Vec<Sender<Envelope>>>,
    rx: Receiver<Envelope>,
}

impl MpscTransport {
    /// Build the full mesh for a `p`-rank world; element `i` is rank `i`'s
    /// transport (move it to that rank's thread).
    pub fn mesh(p: usize) -> Vec<MpscTransport> {
        assert!(p >= 1, "need at least one rank");
        let mut senders = Vec::with_capacity(p);
        let mut receivers = Vec::with_capacity(p);
        for _ in 0..p {
            let (tx, rx) = channel::<Envelope>();
            senders.push(tx);
            receivers.push(rx);
        }
        let senders = Arc::new(senders);
        receivers
            .into_iter()
            .enumerate()
            .map(|(rank, rx)| MpscTransport {
                rank,
                senders: Arc::clone(&senders),
                rx,
            })
            .collect()
    }
}

impl Transport for MpscTransport {
    fn world_rank(&self) -> usize {
        self.rank
    }

    fn world_size(&self) -> usize {
        self.senders.len()
    }

    fn send(&self, peer: usize, env: Envelope) -> CommResult<()> {
        self.senders[peer]
            .send(env)
            .map_err(|_| CommError::PeerGone { peer })
    }

    fn recv(&self, timeout: Duration) -> Option<Envelope> {
        self.rx.recv_timeout(timeout).ok()
    }

    fn try_recv(&self) -> Option<Envelope> {
        self.rx.try_recv().ok()
    }

    fn name(&self) -> &'static str {
        "mpsc"
    }
}

// ---------------------------------------------------------------------------
// Wire framing
// ---------------------------------------------------------------------------

/// Fixed frame header size in bytes (see the module docs for the layout).
pub const WIRE_HEADER_BYTES: u64 = 52;

/// Trailing checksum size in bytes.
pub const WIRE_TRAILER_BYTES: u64 = 8;

/// Total per-message wire overhead: a frame carrying `n` payload words is
/// exactly `WIRE_OVERHEAD_BYTES + 8 n` bytes on the wire.
pub const WIRE_OVERHEAD_BYTES: u64 = WIRE_HEADER_BYTES + WIRE_TRAILER_BYTES;

/// Upper bound on payload words accepted from the wire.  It only rejects
/// the absurd: memory is bounded by the bytes that actually arrive
/// ([`read_frame`]), not by this.
const MAX_WIRE_WORDS: u32 = 1 << 28;

/// Encode `env` as one frame into `buf` (cleared first), hashing the
/// payload in the pass that writes it.
fn encode_frame(env: &Envelope, buf: &mut Vec<u8>) {
    let n = env.data.len();
    buf.clear();
    buf.reserve(WIRE_OVERHEAD_BYTES as usize + 8 * n);
    buf.extend_from_slice(&(n as u32).to_le_bytes());
    buf.extend_from_slice(&env.ctx.to_le_bytes());
    buf.extend_from_slice(&(env.src_global as u32).to_le_bytes());
    buf.extend_from_slice(&env.tag.to_le_bytes());
    buf.extend_from_slice(&env.drops.to_le_bytes());
    buf.extend_from_slice(&env.corrupt.to_le_bytes());
    buf.extend_from_slice(&env.corrupt_bit.to_le_bytes());
    buf.extend_from_slice(&(env.redundant as u32).to_le_bytes());
    buf.extend_from_slice(&env.corrupt_seed.to_le_bytes());
    buf.extend_from_slice(&env.epoch.to_le_bytes());
    let mut h = fault::checksum_bytes(buf);
    buf.resize(WIRE_HEADER_BYTES as usize + 8 * n, 0);
    let payload = buf[WIRE_HEADER_BYTES as usize..].chunks_exact_mut(8);
    for (bytes, v) in payload.zip(&env.data) {
        let w = v.to_bits();
        h = fault::hash_word(h, w);
        bytes.copy_from_slice(&w.to_le_bytes());
    }
    buf.extend_from_slice(&h.to_le_bytes());
}

fn u32_at(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes"))
}

fn u64_at(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"))
}

/// Fill `buf`; `Ok(false)` on clean EOF *before* the first byte,
/// `UnexpectedEof` on EOF mid-buffer.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            Ok(k) => filled += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Read and validate one frame; `Ok(None)` on clean EOF.  Returns the
/// envelope plus its total on-wire size.  `body` is the caller's reusable
/// payload + trailer buffer: it is filled through [`Read::take`], growing
/// with the bytes that arrive, so a corrupted or hostile length prefix
/// costs the memory of what the peer really sent, never of what it claimed.
fn read_frame(r: &mut impl Read, body: &mut Vec<u8>) -> io::Result<Option<(Envelope, u64)>> {
    let mut header = [0u8; WIRE_HEADER_BYTES as usize];
    if !read_exact_or_eof(r, &mut header)? {
        return Ok(None);
    }
    let n = u32_at(&header, 0);
    if n > MAX_WIRE_WORDS {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame claims {n} payload words"),
        ));
    }
    let len = 8 * n as u64 + WIRE_TRAILER_BYTES;
    body.clear();
    if r.by_ref().take(len).read_to_end(body)? as u64 != len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-frame",
        ));
    }
    let (payload, trailer) = body.split_at(8 * n as usize);
    // decode and hash in one pass over the payload
    let mut h = fault::checksum_bytes(&header);
    let mut data = Vec::with_capacity(n as usize);
    for c in payload.chunks_exact(8) {
        let w = u64::from_le_bytes(c.try_into().expect("8 bytes"));
        h = fault::hash_word(h, w);
        data.push(f64::from_bits(w));
    }
    let stored = u64_at(trailer, 0);
    if stored != h {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame checksum {h:#018x} != stored {stored:#018x}"),
        ));
    }
    let env = Envelope {
        ctx: u64_at(&header, 4),
        src_global: u32_at(&header, 12) as usize,
        tag: u32_at(&header, 16),
        drops: u32_at(&header, 20),
        corrupt: u32_at(&header, 24),
        corrupt_bit: u32_at(&header, 28),
        corrupt_seed: u64_at(&header, 36),
        redundant: u32_at(&header, 32) & 1 != 0,
        epoch: u64_at(&header, 44),
        data,
    };
    Ok(Some((env, WIRE_OVERHEAD_BYTES + 8 * n as u64)))
}

// ---------------------------------------------------------------------------
// Wire statistics
// ---------------------------------------------------------------------------

/// Wire-level traffic counters of a byte-stream transport: *actual* frames
/// and bytes moved, including checksum framing and redundant (injected
/// duplicate) deliveries that the logical [`crate::CommStats`] deliberately
/// excludes.  Loopback (self-send) frames are counted as if they crossed
/// the wire, so the identity `bytes = 8·elems + OVERHEAD·msgs` holds
/// exactly against the logical counters on fault-free runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Frames written.
    pub msgs_sent: u64,
    /// Bytes written (headers + payloads + checksums).
    pub bytes_sent: u64,
    /// Frames read.
    pub msgs_recvd: u64,
    /// Bytes read.
    pub bytes_recvd: u64,
}

impl WireStats {
    /// Counters accumulated since `earlier` (a previous snapshot).
    pub fn delta(&self, earlier: &WireStats) -> WireStats {
        WireStats {
            msgs_sent: self.msgs_sent - earlier.msgs_sent,
            bytes_sent: self.bytes_sent - earlier.bytes_sent,
            msgs_recvd: self.msgs_recvd - earlier.msgs_recvd,
            bytes_recvd: self.bytes_recvd - earlier.bytes_recvd,
        }
    }
}

#[derive(Default)]
struct WireCounters {
    msgs_sent: AtomicU64,
    bytes_sent: AtomicU64,
    msgs_recvd: AtomicU64,
    bytes_recvd: AtomicU64,
}

impl WireCounters {
    fn record_sent(&self, bytes: u64) {
        self.msgs_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
    }

    fn record_recvd(&self, bytes: u64) {
        self.msgs_recvd.fetch_add(1, Ordering::Relaxed);
        self.bytes_recvd.fetch_add(bytes, Ordering::Relaxed);
    }

    fn snapshot(&self) -> WireStats {
        WireStats {
            msgs_sent: self.msgs_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            msgs_recvd: self.msgs_recvd.load(Ordering::Relaxed),
            bytes_recvd: self.bytes_recvd.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// Socket transport
// ---------------------------------------------------------------------------

/// Where a socket-backed world lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// Unix-domain sockets: rank `i` listens on path `<base>.<i>`.
    #[cfg(unix)]
    Unix(PathBuf),
    /// TCP fallback: rank `i` listens on `host : port + i`.
    Tcp(String, u16),
}

impl Endpoint {
    /// Parse an endpoint string: `tcp:<host>:<base-port>` selects TCP,
    /// anything else is a Unix-domain socket base path.
    pub fn parse(s: &str) -> Result<Endpoint, String> {
        if let Some(rest) = s.strip_prefix("tcp:") {
            let (host, port) = rest
                .rsplit_once(':')
                .ok_or_else(|| format!("tcp endpoint '{s}' needs host:port"))?;
            let port: u16 = port
                .parse()
                .map_err(|e| format!("tcp endpoint '{s}': bad port: {e}"))?;
            if host.is_empty() {
                return Err(format!("tcp endpoint '{s}' has an empty host"));
            }
            return Ok(Endpoint::Tcp(host.to_string(), port));
        }
        #[cfg(unix)]
        {
            if s.is_empty() {
                return Err("empty endpoint".to_string());
            }
            Ok(Endpoint::Unix(PathBuf::from(s)))
        }
        #[cfg(not(unix))]
        Err(format!(
            "unix-domain endpoint '{s}' unsupported on this platform"
        ))
    }

    /// A fresh Unix-domain endpoint under the system temp directory, unique
    /// to this process and call (test/bench convenience).
    #[cfg(unix)]
    pub fn unique_uds() -> Endpoint {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        Endpoint::Unix(std::env::temp_dir().join(format!("agcm-{}-{n}.ep", std::process::id())))
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            #[cfg(unix)]
            Endpoint::Unix(p) => write!(f, "{}", p.display()),
            Endpoint::Tcp(host, port) => write!(f, "tcp:{host}:{port}"),
        }
    }
}

enum Conn {
    #[cfg(unix)]
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Conn {
    fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(t),
            Conn::Tcp(s) => s.set_read_timeout(t),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

enum Listener {
    #[cfg(unix)]
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn set_nonblocking(&self, v: bool) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Listener::Unix(l) => l.set_nonblocking(v),
            Listener::Tcp(l) => l.set_nonblocking(v),
        }
    }

    fn accept(&self) -> io::Result<Conn> {
        match self {
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                let _ = s.set_nodelay(true);
                Conn::Tcp(s)
            }),
        }
    }
}

const HELLO_MAGIC: u64 = u64::from_le_bytes(*b"AGCMWIRE");
const HELLO_VERSION: u32 = 2;
const HELLO_BYTES: usize = 28;

/// Single byte the acceptor writes back after validating a hello.  Initial
/// mesh dial-outs never read it (one buffered byte on a write-only
/// connection), but [`SocketTransport::rewire`] does: a process tears its
/// file descriptors down over a small window while dying, and a `connect()`
/// that lands in the doomed listener's backlog during that window succeeds
/// from the dialer's side — only a process that actually *accepted and
/// validated* the hello can ack, so reading the ack is what proves the
/// dial reached the live replacement and not its dying predecessor.
const HELLO_ACK: u8 = 0xA7;

fn encode_hello(rank: usize, size: usize, epoch: u64) -> [u8; HELLO_BYTES] {
    let mut b = [0u8; HELLO_BYTES];
    b[0..8].copy_from_slice(&HELLO_MAGIC.to_le_bytes());
    b[8..12].copy_from_slice(&HELLO_VERSION.to_le_bytes());
    b[12..16].copy_from_slice(&(rank as u32).to_le_bytes());
    b[16..20].copy_from_slice(&(size as u32).to_le_bytes());
    b[20..28].copy_from_slice(&epoch.to_le_bytes());
    b
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Block (bounded by `deadline`) until the acceptor's [`HELLO_ACK`] arrives
/// on a freshly dialed connection, leaving the read timeout cleared.
fn read_ack(conn: &mut Conn, deadline: Instant) -> io::Result<()> {
    conn.set_read_timeout(Some(
        deadline
            .saturating_duration_since(Instant::now())
            .max(Duration::from_millis(1)),
    ))?;
    let mut ack = [0u8; 1];
    conn.read_exact(&mut ack)?;
    if ack[0] != HELLO_ACK {
        return Err(bad_data(format!("handshake ack byte {:#04x}", ack[0])));
    }
    conn.set_read_timeout(None)
}

/// Decode a hello; returns the announcing peer's `(rank, epoch)`.
fn decode_hello(b: &[u8; HELLO_BYTES], expect_size: usize) -> io::Result<(usize, u64)> {
    if u64_at(b, 0) != HELLO_MAGIC {
        return Err(bad_data("handshake: bad magic".to_string()));
    }
    let version = u32_at(b, 8);
    if version != HELLO_VERSION {
        return Err(bad_data(format!("handshake: wire version {version}")));
    }
    let rank = u32_at(b, 12) as usize;
    let size = u32_at(b, 16) as usize;
    if size != expect_size || rank >= size {
        return Err(bad_data(format!(
            "handshake: rank {rank} of world {size}, expected world {expect_size}"
        )));
    }
    Ok((rank, u64_at(b, 20)))
}

/// A byte-stream transport over Unix-domain sockets (or TCP): each rank is
/// its own OS process (or thread), envelopes travel as checksummed frames
/// through the kernel.  See the module docs for the wire format.
pub struct SocketTransport {
    rank: usize,
    size: usize,
    kind: &'static str,
    /// One simplex outgoing connection per peer (`None` at the own rank).
    /// `RefCell` so [`SocketTransport::rewire`] can swap in a replacement
    /// connection through a shared reference.
    writers: Vec<Option<RefCell<Conn>>>,
    /// Local loopback for self-sends; also keeps `rx` alive after every
    /// reader thread exited.
    loopback: Sender<Envelope>,
    rx: Receiver<Envelope>,
    /// Reusable frame staging buffer of [`Transport::send`].
    frame_buf: RefCell<Vec<u8>>,
    counters: Arc<WireCounters>,
    /// Where this world lives; kept for re-dialing a respawned peer.
    endpoint: Endpoint,
    /// Current mesh generation: sends stamp it, receives filter on it.
    epoch: Arc<AtomicU64>,
    /// Frames from a *future* epoch, parked until our epoch catches up.
    stash: RefCell<VecDeque<Envelope>>,
    /// `(peer, epoch)` notifications from the accept thread when a
    /// replacement rank dials back in.
    rewired_rx: Receiver<(usize, u64)>,
    /// When set, a *clean* EOF on an incoming connection also poisons the
    /// mailbox.  Supervised (elastic) runs need this: a `kill -9` exactly at
    /// a frame boundary closes the socket without a torn frame, which is
    /// indistinguishable from a peer that finished normally — but under a
    /// supervisor no peer ever disconnects mid-run on purpose.
    poison_on_eof: Arc<AtomicBool>,
    /// Tells the persistent accept thread to exit.
    shutdown: Arc<AtomicBool>,
    /// Own listening socket path, removed on drop (Unix only).
    listen_path: Option<PathBuf>,
}

/// `(rank, size, endpoint, epoch)` of a launched worker from the handshake
/// variables `var` looks up: `None` when `AGCM_RANK` is unset.  A set but
/// malformed value is `InvalidInput` naming the variable and the value; a
/// missing endpoint or a rank outside the world is `InvalidData`.
fn launch_params(
    var: impl Fn(&str) -> Option<String>,
) -> Option<io::Result<(usize, usize, Endpoint, u64)>> {
    let rank: usize = match strict_var(&var, "AGCM_RANK") {
        Ok(rank) => rank?,
        Err(e) => return Some(Err(e)),
    };
    let rest = || {
        let size: usize = strict_var(&var, "AGCM_WORLD_SIZE")?.unwrap_or(0);
        let epoch: u64 = strict_var(&var, "AGCM_EPOCH")?.unwrap_or(0);
        let ep: String = strict_var(&var, "AGCM_ENDPOINT")?
            .ok_or_else(|| bad_data("AGCM_RANK set without AGCM_ENDPOINT".into()))?;
        let ep = Endpoint::parse(&ep).map_err(|e| bad_data(format!("AGCM_ENDPOINT: {e}")))?;
        if rank >= size {
            let why = format!("AGCM_RANK={rank} outside AGCM_WORLD_SIZE={size}");
            return Err(bad_data(why));
        }
        Ok((rank, size, ep, epoch))
    };
    Some(rest())
}

/// Variable `name` of the lookup `var`, parsed strictly: a set but
/// malformed value is `InvalidInput` naming the variable and the value.
fn strict_var<T: std::str::FromStr>(
    var: &impl Fn(&str) -> Option<String>,
    name: &str,
) -> io::Result<Option<T>>
where
    T::Err: std::fmt::Display,
{
    crate::env::parse_value(name, var(name).as_deref())
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))
}

/// The handshake deadline: `AGCM_CONNECT_TIMEOUT_MS` (strict parse — a
/// set-but-malformed value is a loud error, not a silent default), falling
/// back to [`crate::default_timeout`].
fn connect_timeout_from_env() -> io::Result<Duration> {
    let ms = strict_var(&|name| std::env::var(name).ok(), "AGCM_CONNECT_TIMEOUT_MS")?;
    Ok(ms.map_or_else(crate::runtime::default_timeout, Duration::from_millis))
}

impl SocketTransport {
    /// Join the `size`-rank world at `endpoint` as world rank `rank`,
    /// using `AGCM_CONNECT_TIMEOUT_MS` (default [`crate::default_timeout`])
    /// as the handshake deadline.
    pub fn connect(rank: usize, size: usize, endpoint: &Endpoint) -> io::Result<SocketTransport> {
        Self::connect_timeout(rank, size, endpoint, connect_timeout_from_env()?)
    }

    /// Build a transport from the launcher handshake environment
    /// (`AGCM_RANK`, `AGCM_WORLD_SIZE`, `AGCM_ENDPOINT`, plus `AGCM_EPOCH`
    /// for a respawned rank re-joining a live mesh); `None` when
    /// `AGCM_RANK` is unset (not launched by `agcm-run`).  A malformed value
    /// is an `InvalidInput` error naming the variable and the value.
    pub fn from_env() -> Option<io::Result<SocketTransport>> {
        let params = launch_params(|name| std::env::var(name).ok())?;
        Some(params.and_then(|(rank, size, ep, epoch)| {
            connect_timeout_from_env()
                .and_then(|t| Self::connect_at_epoch(rank, size, &ep, t, epoch))
        }))
    }

    /// Like [`SocketTransport::connect`] with an explicit handshake
    /// deadline covering listener setup, all outgoing connections and all
    /// incoming handshakes.
    pub fn connect_timeout(
        rank: usize,
        size: usize,
        endpoint: &Endpoint,
        timeout: Duration,
    ) -> io::Result<SocketTransport> {
        Self::connect_at_epoch(rank, size, endpoint, timeout, 0)
    }

    /// Join (or, for a respawned rank, re-join) the world at mesh
    /// generation `epoch`.  Peers accepting this rank's connections at the
    /// initial mesh build must be at the same epoch (survivors of a failure
    /// bump theirs in [`SocketTransport::rewire`] before re-dialing).
    pub fn connect_at_epoch(
        rank: usize,
        size: usize,
        endpoint: &Endpoint,
        timeout: Duration,
        epoch: u64,
    ) -> io::Result<SocketTransport> {
        assert!(size >= 1, "need at least one rank");
        assert!(rank < size, "rank {rank} outside world of {size}");
        // the whole mesh handshake (listen + dial-out + incoming hellos) as
        // one transport span; one relaxed load when tracing is disabled
        let _handshake = obs::span(obs::SpanKind::Transport, "transport.handshake");
        let deadline = Instant::now() + timeout;
        let (kind, listener, listen_path) = match endpoint {
            #[cfg(unix)]
            Endpoint::Unix(base) => {
                let path = uds_path(base, rank);
                // a stale socket file from a crashed previous run (or the
                // killed predecessor of a respawned rank) would make bind
                // fail; the path is namespaced per run by the launcher, so
                // removing it is safe
                let _ = std::fs::remove_file(&path);
                (
                    "uds",
                    Listener::Unix(UnixListener::bind(&path)?),
                    Some(path),
                )
            }
            Endpoint::Tcp(host, port) => (
                "tcp",
                Listener::Tcp(TcpListener::bind((host.as_str(), tcp_port(*port, rank)?))?),
                None,
            ),
        };
        let (tx, rx) = channel::<Envelope>();
        let counters = Arc::new(WireCounters::default());
        let epoch = Arc::new(AtomicU64::new(epoch));
        let shutdown = Arc::new(AtomicBool::new(false));
        let poison_on_eof = Arc::new(AtomicBool::new(false));
        // highest epoch at which each peer has *re*connected (0 = never);
        // a reader whose peer has since reconnected swallows its death
        // report — the failure it observed belongs to an older generation
        let last_reconnect: Arc<Vec<AtomicU64>> =
            Arc::new((0..size).map(|_| AtomicU64::new(0)).collect());
        let (rewired_tx, rewired_rx) = channel::<(usize, u64)>();

        // Accept the size-1 incoming connections on a helper thread while
        // this thread dials out, so no connect ordering can deadlock the
        // mesh.  Each accepted peer gets a detached reader thread that
        // decodes frames into the internal channel; draining the wire
        // eagerly is what preserves the runtime's buffered non-blocking
        // send semantics (a sender can never block on a full pipe).  After
        // the initial mesh is up the helper keeps accepting, so respawned
        // peers can reconnect at a later epoch.
        let (done_tx, done_rx) = channel::<io::Result<()>>();
        if size > 1 {
            let ctx = AcceptCtx {
                my_rank: rank,
                size,
                start_epoch: epoch.load(Ordering::Relaxed),
                handshake_timeout: timeout,
                tx: tx.clone(),
                counters: Arc::clone(&counters),
                epoch: Arc::clone(&epoch),
                poison_on_eof: Arc::clone(&poison_on_eof),
                last_reconnect: Arc::clone(&last_reconnect),
                rewired_tx,
                shutdown: Arc::clone(&shutdown),
            };
            std::thread::spawn(move || {
                obs::set_rank(ctx.my_rank);
                let r = accept_initial(&listener, &ctx, deadline);
                let ok = r.is_ok();
                let _ = done_tx.send(r);
                if ok {
                    accept_reconnects(&listener, &ctx);
                }
            });
        } else {
            drop(listener);
            drop(rewired_tx);
            let _ = done_tx.send(Ok(()));
        }

        let hello = encode_hello(rank, size, epoch.load(Ordering::Relaxed));
        let mut writers = Vec::with_capacity(size);
        for peer in 0..size {
            if peer == rank {
                writers.push(None);
                continue;
            }
            let mut conn =
                dial(endpoint, peer, deadline).map_err(|e| phase_err(rank, "mesh dial-out", e))?;
            conn.write_all(&hello)
                .and_then(|()| conn.flush())
                .map_err(|e| phase_err(rank, "mesh hello", e))?;
            // consume the acceptor's ack: every dialer drains this byte so
            // no connection carries unread data (an unread byte would make
            // the kernel RST instead of FIN on close, turning this rank's
            // normal exit into a spurious peer-failure on the acceptor)
            read_ack(&mut conn, deadline).map_err(|e| phase_err(rank, "mesh ack", e))?;
            writers.push(Some(RefCell::new(conn)));
        }

        // wait for the incoming half of the mesh: a successful return
        // means every peer process is up and fully connected to us
        let remaining = deadline.saturating_duration_since(Instant::now());
        match done_rx.recv_timeout(remaining.max(Duration::from_millis(1))) {
            Ok(r) => r?,
            Err(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("rank {rank}: incoming mesh incomplete after {timeout:?}"),
                ))
            }
        }

        Ok(SocketTransport {
            rank,
            size,
            kind,
            writers,
            loopback: tx,
            rx,
            frame_buf: RefCell::new(Vec::new()),
            counters,
            endpoint: endpoint.clone(),
            epoch,
            stash: RefCell::new(VecDeque::new()),
            rewired_rx,
            poison_on_eof,
            shutdown,
            listen_path,
        })
    }

    /// Current mesh generation.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Treat a clean EOF on an incoming connection as a peer death (poison)
    /// instead of a normal disconnect.  Supervised elastic runs set this:
    /// under a supervisor no peer legitimately disconnects before the final
    /// barrier, and a `kill -9` landing exactly between two frames closes
    /// the stream without the torn frame the error path would catch.
    pub fn set_poison_on_eof(&self, on: bool) {
        self.poison_on_eof.store(on, Ordering::Relaxed);
    }

    /// Rewire the mesh to `new_epoch` after `lost_peer`'s process died and
    /// was respawned: advance the epoch (so stale in-flight frames of the
    /// old generation are dropped on receive), re-dial the replacement's
    /// listener, and wait for its inbound reconnect.  The respawned rank
    /// itself re-joins via [`SocketTransport::connect_at_epoch`] and never
    /// calls this.
    ///
    /// Every rank of the surviving world must call this with the same
    /// `new_epoch` before re-entering collective code.
    pub fn rewire(&self, new_epoch: u64, lost_peer: usize, timeout: Duration) -> io::Result<()> {
        let _sp = obs::span(obs::SpanKind::Transport, "transport.rewire");
        let rank = self.rank;
        if lost_peer == rank || lost_peer >= self.size {
            return Err(bad_data(format!(
                "rank {rank}: cannot rewire to peer {lost_peer} of world {}",
                self.size
            )));
        }
        let old = self.epoch.load(Ordering::Relaxed);
        if new_epoch <= old {
            return Err(bad_data(format!(
                "rank {rank}: rewire epoch {new_epoch} must exceed current {old}"
            )));
        }
        self.epoch.store(new_epoch, Ordering::Relaxed);
        // frames parked for epochs the failure obsoleted are stale now
        self.stash.borrow_mut().retain(|e| e.epoch >= new_epoch);

        let deadline = Instant::now() + timeout;
        // dial until the *replacement* acks the hello.  A plain successful
        // connect is not proof of anything: while the dead predecessor
        // tears down, a connect can land in its doomed listener backlog and
        // still succeed from this side.  Only a live acceptor that read and
        // validated the hello sends `HELLO_ACK`, so redial until it arrives.
        let conn = loop {
            let mut conn = dial(&self.endpoint, lost_peer, deadline)
                .map_err(|e| phase_err(rank, "rewire dial", e))?;
            let attempt = conn
                .write_all(&encode_hello(rank, self.size, new_epoch))
                .and_then(|()| conn.flush())
                .and_then(|()| read_ack(&mut conn, deadline));
            match attempt {
                Ok(()) => break conn,
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(phase_err(rank, "rewire handshake", e));
                    }
                    // the predecessor's doomed backlog (or a torn listener):
                    // back off briefly and dial again
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        };
        let cell = self.writers[lost_peer]
            .as_ref()
            .ok_or_else(|| bad_data(format!("rank {rank}: no writer slot for {lost_peer}")))?;
        // swapping the RefCell drops the dead connection
        cell.replace(conn);

        // the replacement dials every survivor as part of its own
        // connect_at_epoch; the accept thread reports it here
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "rank {rank}: no reconnect from respawned peer {lost_peer} \
                         at epoch {new_epoch} within {timeout:?} (rewire accept)"
                    ),
                ));
            }
            match self.rewired_rx.recv_timeout(remaining) {
                Ok((peer, ep)) if peer == lost_peer && ep >= new_epoch => {
                    // sweep the queue: the dead peer's reader may have raced
                    // its poison in *after* our epoch bump (stamping it with
                    // the new epoch) — a death report for the generation we
                    // just recovered from must not fail the next one
                    let mut stash = self.stash.borrow_mut();
                    while let Ok(env) = self.rx.try_recv() {
                        let obsolete = env.ctx == POISON_CTX
                            && env.src_global == lost_peer
                            && env.epoch <= new_epoch;
                        if !obsolete && env.epoch >= new_epoch {
                            stash.push_back(env);
                        }
                    }
                    return Ok(());
                }
                // notification from an older recovery or another peer
                Ok(_) => continue,
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => continue,
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(io::Error::new(
                        io::ErrorKind::BrokenPipe,
                        format!("rank {rank}: accept thread gone during rewire"),
                    ))
                }
            }
        }
    }

    /// Route one received envelope by epoch: deliver current, park future,
    /// drop stale.
    fn route(&self, env: Envelope) -> Option<Envelope> {
        let cur = self.epoch.load(Ordering::Relaxed);
        match env.epoch.cmp(&cur) {
            std::cmp::Ordering::Equal => Some(env),
            std::cmp::Ordering::Greater => {
                self.stash.borrow_mut().push_back(env);
                None
            }
            std::cmp::Ordering::Less => None,
        }
    }

    /// The oldest parked envelope that now matches the current epoch.
    fn unstash(&self) -> Option<Envelope> {
        let cur = self.epoch.load(Ordering::Relaxed);
        let mut stash = self.stash.borrow_mut();
        let at = stash.iter().position(|e| e.epoch == cur)?;
        stash.remove(at)
    }
}

/// Prefix an I/O error with the owning rank and (re)wiring phase, so a hung
/// or misbehaving peer is diagnosable from the message alone.
fn phase_err(rank: usize, phase: &str, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("rank {rank}: {phase}: {e}"))
}

#[cfg(unix)]
fn uds_path(base: &std::path::Path, rank: usize) -> PathBuf {
    let mut os = base.as_os_str().to_os_string();
    os.push(format!(".{rank}"));
    PathBuf::from(os)
}

fn tcp_port(base: u16, rank: usize) -> io::Result<u16> {
    base.checked_add(
        u16::try_from(rank)
            .ok()
            .ok_or_else(|| bad_data(format!("rank {rank} too large for a tcp port range")))?,
    )
    .ok_or_else(|| bad_data(format!("tcp port {base}+{rank} overflows")))
}

/// Dial `peer`'s listener, retrying while it may not be up yet.
fn dial(endpoint: &Endpoint, peer: usize, deadline: Instant) -> io::Result<Conn> {
    let _sp = obs::span(obs::SpanKind::Transport, "transport.dial");
    loop {
        let attempt = match endpoint {
            #[cfg(unix)]
            Endpoint::Unix(base) => UnixStream::connect(uds_path(base, peer)).map(Conn::Unix),
            Endpoint::Tcp(host, port) => {
                TcpStream::connect((host.as_str(), tcp_port(*port, peer)?)).map(|s| {
                    let _ = s.set_nodelay(true);
                    Conn::Tcp(s)
                })
            }
        };
        match attempt {
            Ok(conn) => return Ok(conn),
            Err(e) => {
                let transient = matches!(
                    e.kind(),
                    io::ErrorKind::ConnectionRefused
                        | io::ErrorKind::ConnectionReset
                        | io::ErrorKind::NotFound
                        | io::ErrorKind::AddrNotAvailable
                );
                if !transient || Instant::now() >= deadline {
                    return Err(io::Error::new(
                        e.kind(),
                        format!("dialing peer {peer}: {e}"),
                    ));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

/// Everything the persistent accept thread needs: handshake identity, the
/// envelope queue, and the rewire plumbing.
struct AcceptCtx {
    my_rank: usize,
    size: usize,
    /// Epoch this world was built at; initial-mesh hellos must match it.
    start_epoch: u64,
    /// Per-connection handshake budget for reconnects (the initial mesh
    /// uses the overall connect deadline instead).
    handshake_timeout: Duration,
    tx: Sender<Envelope>,
    counters: Arc<WireCounters>,
    /// The owning transport's live epoch — readers stamp poison with it.
    epoch: Arc<AtomicU64>,
    /// Whether clean EOFs poison too (supervised mode).
    poison_on_eof: Arc<AtomicBool>,
    /// Highest reconnect epoch per peer; readers of superseded connections
    /// swallow their death reports.
    last_reconnect: Arc<Vec<AtomicU64>>,
    rewired_tx: Sender<(usize, u64)>,
    shutdown: Arc<AtomicBool>,
}

impl AcceptCtx {
    fn spawn_reader(&self, conn: Conn, peer: usize, conn_epoch: u64) {
        let my_rank = self.my_rank;
        let tx = self.tx.clone();
        let counters = Arc::clone(&self.counters);
        let epoch = Arc::clone(&self.epoch);
        let poison_on_eof = Arc::clone(&self.poison_on_eof);
        let last_reconnect = Arc::clone(&self.last_reconnect);
        std::thread::spawn(move || {
            reader_loop(
                conn,
                my_rank,
                peer,
                conn_epoch,
                tx,
                counters,
                epoch,
                poison_on_eof,
                last_reconnect,
            )
        });
    }
}

/// Accept one connection with the given per-phase deadline, or `None` if
/// shutdown was requested while polling.
fn accept_one(listener: &Listener, ctx: &AcceptCtx, deadline: Instant) -> io::Result<Option<Conn>> {
    loop {
        if ctx.shutdown.load(Ordering::Relaxed) {
            return Ok(None);
        }
        match listener.accept() {
            Ok(c) => return Ok(Some(c)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("rank {}: timed out accepting peer connections", ctx.my_rank),
                    ));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Read and validate one hello from a freshly accepted connection.
fn handshake(conn: &mut Conn, ctx: &AcceptCtx, deadline: Instant) -> io::Result<(usize, u64)> {
    conn.set_read_timeout(Some(
        deadline
            .saturating_duration_since(Instant::now())
            .max(Duration::from_millis(1)),
    ))?;
    let mut hello = [0u8; HELLO_BYTES];
    conn.read_exact(&mut hello)
        .map_err(|e| phase_err(ctx.my_rank, "accept handshake (peer hello)", e))?;
    let parsed = decode_hello(&hello, ctx.size)?;
    conn.set_read_timeout(None)?;
    Ok(parsed)
}

/// Accept, handshake and spawn a reader for each of the `size - 1` peers of
/// the initial mesh.  Every hello must carry this world's start epoch.
fn accept_initial(listener: &Listener, ctx: &AcceptCtx, deadline: Instant) -> io::Result<()> {
    let _sp = obs::span(obs::SpanKind::Transport, "transport.accept");
    listener.set_nonblocking(true)?;
    let mut seen = vec![false; ctx.size];
    for _ in 0..ctx.size - 1 {
        let Some(mut conn) = accept_one(listener, ctx, deadline)? else {
            return Ok(());
        };
        let (peer, epoch) = handshake(&mut conn, ctx, deadline)?;
        if epoch != ctx.start_epoch {
            return Err(bad_data(format!(
                "rank {}: peer {peer} hello at epoch {epoch}, expected {} (initial mesh)",
                ctx.my_rank, ctx.start_epoch
            )));
        }
        if std::mem::replace(&mut seen[peer], true) {
            return Err(bad_data(format!(
                "rank {}: peer {peer} connected twice",
                ctx.my_rank
            )));
        }
        // best-effort: a fast peer may have dialed, sent everything and
        // exited before this accept ran — its frames are still buffered in
        // the socket and must be read, so an unackable connection is not
        // an error here (only rewire dialers block on the ack, and they
        // hold their end open until it arrives)
        let _ = conn.write_all(&[HELLO_ACK]).and_then(|()| conn.flush());
        ctx.spawn_reader(conn, peer, epoch);
    }
    Ok(())
}

/// After the initial mesh: keep accepting so a respawned peer can rejoin at
/// a later epoch.  Each accepted reconnect must advance that peer's epoch
/// (a replay or duplicate is dropped); the owning transport is notified via
/// `rewired_tx` so a concurrent [`SocketTransport::rewire`] can complete.
/// Exits when the transport is dropped (shutdown flag) or the envelope
/// queue is gone.
fn accept_reconnects(listener: &Listener, ctx: &AcceptCtx) {
    let mut peer_epoch = vec![ctx.start_epoch; ctx.size];
    loop {
        // poll forever in small slices so the shutdown flag is honored
        let slice = Instant::now() + Duration::from_millis(50);
        let conn = match accept_one(listener, ctx, slice) {
            Ok(Some(c)) => Some(c),
            Ok(None) => return,
            Err(e) if e.kind() == io::ErrorKind::TimedOut => None,
            Err(_) => return,
        };
        let Some(mut conn) = conn else { continue };
        let hs_deadline = Instant::now() + ctx.handshake_timeout;
        match handshake(&mut conn, ctx, hs_deadline) {
            Ok((peer, epoch)) if epoch > peer_epoch[peer] => {
                // ack before anything else becomes visible: the dialer's
                // rewire blocks on this byte, and a failed ack means the
                // dialer is already gone — drop the connection unrecorded
                if conn
                    .write_all(&[HELLO_ACK])
                    .and_then(|()| conn.flush())
                    .is_err()
                {
                    continue;
                }
                peer_epoch[peer] = epoch;
                // publish the supersession *before* the notification: once
                // rewire() returns, any still-running reader of this peer's
                // old connection must see it and swallow its stale poison
                ctx.last_reconnect[peer].store(epoch, Ordering::Relaxed);
                ctx.spawn_reader(conn, peer, epoch);
                if ctx.rewired_tx.send((peer, epoch)).is_err() {
                    return;
                }
            }
            // stale replay or duplicate: drop the connection on the floor
            Ok(_) | Err(_) => {}
        }
    }
}

/// Decode frames from one incoming connection into the internal queue.  A
/// clean EOF (peer finished and dropped its transport) simply ends the
/// stream; a validation failure poisons the mailbox — after a torn or
/// corrupted frame the stream position cannot be trusted, so the peer is
/// treated as failed rather than risking silent desynchronization.  A
/// `kill -9`'d peer surfaces here too: the kernel EOFs/resets the
/// connection mid-stream, which `read_frame` reports as an error.
///
/// Poison is stamped with the *receiver's* epoch at failure time (not the
/// connection's hello epoch): surviving-pair connections keep their
/// original hello forever, and a failure at a later epoch must still pass
/// the receive-side epoch filter.  But a reader whose peer has since
/// *reconnected* at a newer epoch swallows its report entirely — the death
/// it observed belongs to a generation the mesh already recovered from.
#[allow(clippy::too_many_arguments)]
fn reader_loop(
    mut conn: Conn,
    my_rank: usize,
    peer: usize,
    conn_epoch: u64,
    tx: Sender<Envelope>,
    counters: Arc<WireCounters>,
    epoch: Arc<AtomicU64>,
    poison_on_eof: Arc<AtomicBool>,
    last_reconnect: Arc<Vec<AtomicU64>>,
) {
    obs::set_rank(my_rank);
    let poison = |tx: &Sender<Envelope>| {
        if last_reconnect[peer].load(Ordering::Relaxed) > conn_epoch {
            return; // superseded: the peer already rejoined a newer mesh
        }
        let mut env = Envelope::poison(peer);
        env.epoch = epoch.load(Ordering::Relaxed);
        let _ = tx.send(env);
    };
    let mut body = Vec::new();
    loop {
        // bracket the blocking read so traces show what each connection's
        // reader was doing; the span carries the frame's wire bytes
        let t0 = if obs::enabled() { obs::now_ns() } else { 0 };
        match read_frame(&mut conn, &mut body) {
            Ok(Some((env, bytes))) => {
                counters.record_recvd(bytes);
                if obs::enabled() {
                    obs::record_span(
                        obs::SpanKind::Transport,
                        obs::Phase::Other,
                        "transport.read",
                        t0,
                        bytes,
                    );
                }
                if tx.send(env).is_err() {
                    return;
                }
            }
            Ok(None) => {
                if poison_on_eof.load(Ordering::Relaxed) {
                    poison(&tx);
                }
                return;
            }
            Err(_) => {
                poison(&tx);
                return;
            }
        }
    }
}

impl Transport for SocketTransport {
    fn world_rank(&self) -> usize {
        self.rank
    }

    fn world_size(&self) -> usize {
        self.size
    }

    fn send(&self, peer: usize, mut env: Envelope) -> CommResult<()> {
        env.epoch = self.epoch.load(Ordering::Relaxed);
        if peer == self.rank {
            // loopback: counted as if it crossed the wire so the byte
            // identity against the logical stats stays exact
            let bytes = WIRE_OVERHEAD_BYTES + 8 * env.data.len() as u64;
            self.counters.record_sent(bytes);
            self.counters.record_recvd(bytes);
            return self
                .loopback
                .send(env)
                .map_err(|_| CommError::PeerGone { peer });
        }
        let mut buf = self.frame_buf.borrow_mut();
        encode_frame(&env, &mut buf);
        let cell = self.writers[peer]
            .as_ref()
            .ok_or(CommError::PeerGone { peer })?;
        cell.borrow_mut()
            .write_all(&buf)
            .map_err(|_| CommError::PeerGone { peer })?;
        self.counters.record_sent(buf.len() as u64);
        Ok(())
    }

    fn recv(&self, timeout: Duration) -> Option<Envelope> {
        if let Some(env) = self.unstash() {
            return Some(env);
        }
        // stale frames consume none of the caller's patience budget beyond
        // their own arrival time: keep draining until the deadline
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            let env = self.rx.recv_timeout(remaining).ok()?;
            if let Some(env) = self.route(env) {
                return Some(env);
            }
        }
    }

    fn try_recv(&self) -> Option<Envelope> {
        if let Some(env) = self.unstash() {
            return Some(env);
        }
        while let Ok(env) = self.rx.try_recv() {
            if let Some(env) = self.route(env) {
                return Some(env);
            }
        }
        None
    }

    fn wire_stats(&self) -> Option<WireStats> {
        Some(self.counters.snapshot())
    }

    fn name(&self) -> &'static str {
        self.kind
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        // closing the writers (field drop) EOFs every peer's reader; the
        // persistent accept thread polls this flag and exits; the
        // listening socket file is ours to clean up
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(path) = &self.listen_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`launch_params`] over a fixed variable table: the process
    /// environment is never touched.
    fn params(vars: &[(&str, &str)]) -> Option<io::Result<(usize, usize, Endpoint, u64)>> {
        launch_params(|name| {
            let hit = vars.iter().find(|(n, _)| *n == name);
            hit.map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn launch_params_refuse_malformed_values_with_a_typed_error() {
        assert!(params(&[]).is_none(), "not launched: no AGCM_RANK");
        let ok = [
            ("AGCM_RANK", "1"),
            ("AGCM_WORLD_SIZE", "2"),
            ("AGCM_ENDPOINT", "tcp:localhost:4100"),
            ("AGCM_EPOCH", "3"),
        ];
        let (rank, size, ep, epoch) = params(&ok).unwrap().unwrap();
        assert_eq!((rank, size, epoch), (1, 2, 3));
        assert!(matches!(ep, Endpoint::Tcp(h, 4100) if h == "localhost"));
        for (name, bad) in [
            ("AGCM_RANK", "one"),
            ("AGCM_WORLD_SIZE", "2x"),
            ("AGCM_EPOCH", "-1"),
            ("AGCM_ENDPOINT", " "),
        ] {
            let mut vars = ok;
            vars.iter_mut().find(|(n, _)| *n == name).unwrap().1 = bad;
            let err = params(&vars).unwrap().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{name}={bad:?}");
            let msg = err.to_string();
            assert!(
                msg.contains(name) && msg.contains(&format!("{bad:?}")),
                "{msg}"
            );
        }
        let no_endpoint = &ok[..2];
        let err = params(no_endpoint).unwrap().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let outside = [("AGCM_RANK", "2"), ok[1], ok[2]];
        let err = params(&outside).unwrap().unwrap_err();
        assert!(
            err.to_string().contains("outside AGCM_WORLD_SIZE=2"),
            "{err}"
        );
    }

    fn sample_env() -> Envelope {
        let mut env = Envelope::new(7, 3, 0x8000_1234, vec![1.5, -2.25, f64::NAN, 0.0]);
        env.drops = 1;
        env.corrupt = 2;
        env.corrupt_bit = 51;
        env.corrupt_seed = 0xDEAD_BEEF;
        env.redundant = true;
        env.epoch = 3;
        env
    }

    fn assert_env_eq(a: &Envelope, b: &Envelope) {
        assert_eq!(a.ctx, b.ctx);
        assert_eq!(a.src_global, b.src_global);
        assert_eq!(a.tag, b.tag);
        assert_eq!(a.drops, b.drops);
        assert_eq!(a.corrupt, b.corrupt);
        assert_eq!(a.corrupt_bit, b.corrupt_bit);
        assert_eq!(a.corrupt_seed, b.corrupt_seed);
        assert_eq!(a.redundant, b.redundant);
        assert_eq!(a.epoch, b.epoch);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.data), bits(&b.data));
    }

    fn encoded(env: &Envelope) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_frame(env, &mut buf);
        buf
    }

    fn decode(bytes: &[u8]) -> io::Result<Option<(Envelope, u64)>> {
        read_frame(&mut &bytes[..], &mut Vec::new())
    }

    #[test]
    fn frame_round_trips_bitwise() {
        let env = sample_env();
        let buf = encoded(&env);
        assert_eq!(buf.len() as u64, WIRE_OVERHEAD_BYTES + 8 * 4);
        let (back, bytes) = decode(&buf).unwrap().unwrap();
        assert_eq!(bytes, buf.len() as u64);
        assert_env_eq(&env, &back);
    }

    #[test]
    fn empty_payload_frame_round_trips() {
        let buf = encoded(&Envelope::poison(5));
        assert_eq!(buf.len() as u64, WIRE_OVERHEAD_BYTES);
        let (back, _) = decode(&buf).unwrap().unwrap();
        assert_eq!((back.ctx, back.src_global), (POISON_CTX, 5));
        assert!(back.data.is_empty());
        let env = Envelope::new(1, 2, 3, vec![-0.0]);
        let buf = encoded(&env);
        assert_eq!(buf.len() as u64, WIRE_OVERHEAD_BYTES + 8);
        assert_env_eq(&env, &decode(&buf).unwrap().unwrap().0);
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(decode(&[]).unwrap().is_none());
    }

    #[test]
    fn corrupted_frame_is_rejected() {
        // a link's message: a few fields' boxes back to back
        let data: Vec<f64> = (0..11)
            .map(|i| 1000.0 * (i / 4) as f64 + 0.37 * i as f64)
            .collect();
        let buf = encoded(&Envelope::new(9, 1, 0x0012_3450, data));
        for bit in 0..8 * buf.len() {
            let mut bad = buf.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            // a flipped length prefix moves the trailer: too long a claim is
            // refused or runs out of stream, too short fails the hash
            assert!(decode(&bad).is_err(), "bit {bit} undetected");
        }
    }

    #[test]
    fn truncated_frame_is_mid_frame_eof() {
        let buf = encoded(&sample_env());
        let err = decode(&buf[..buf.len() - 3]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn absurd_length_prefix_is_rejected_without_allocating() {
        let mut buf = encoded(&Envelope::new(0, 0, 0, vec![]));
        buf[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode(&buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // the largest prefix the bound admits claims 2 GiB on a 60-byte
        // stream: the body buffer holds what arrived, not what was claimed
        buf[0..4].copy_from_slice(&(MAX_WIRE_WORDS - 1).to_le_bytes());
        let mut body = Vec::new();
        let err = read_frame(&mut &buf[..], &mut body).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(body.len(), 8);
        assert!(body.capacity() <= 4096, "body grew to {}", body.capacity());
    }

    #[test]
    fn endpoint_parse_round_trips() {
        let tcp = Endpoint::parse("tcp:127.0.0.1:9000").unwrap();
        assert_eq!(tcp, Endpoint::Tcp("127.0.0.1".into(), 9000));
        assert_eq!(Endpoint::parse(&tcp.to_string()).unwrap(), tcp);
        assert!(Endpoint::parse("tcp:nohost").is_err());
        assert!(Endpoint::parse("tcp::9000").is_err());
        assert!(Endpoint::parse("tcp:h:notaport").is_err());
        #[cfg(unix)]
        {
            let uds = Endpoint::parse("/tmp/agcm.ep").unwrap();
            assert_eq!(uds, Endpoint::Unix(PathBuf::from("/tmp/agcm.ep")));
            assert_eq!(Endpoint::parse(&uds.to_string()).unwrap(), uds);
        }
    }

    #[test]
    fn hello_round_trips_and_validates() {
        let b = encode_hello(3, 8, 42);
        assert_eq!(decode_hello(&b, 8).unwrap(), (3, 42));
        assert!(decode_hello(&b, 4).is_err(), "world size mismatch");
        let mut bad = b;
        bad[0] ^= 1;
        assert!(decode_hello(&bad, 8).is_err(), "bad magic");
    }

    #[test]
    fn mpsc_mesh_delivers_and_loops_back() {
        let mesh = MpscTransport::mesh(2);
        assert_eq!(mesh[0].world_size(), 2);
        mesh[0].send(1, Envelope::new(0, 0, 9, vec![4.0])).unwrap();
        mesh[1].send(1, Envelope::new(0, 1, 9, vec![5.0])).unwrap();
        let a = mesh[1].recv(Duration::from_secs(1)).unwrap();
        let b = mesh[1].recv(Duration::from_secs(1)).unwrap();
        assert_eq!(a.data, vec![4.0]);
        assert_eq!(b.data, vec![5.0]);
        assert!(mesh[0].try_recv().is_none());
        assert!(mesh[0].wire_stats().is_none());
    }

    /// One mesh world as threads, each with its own socket transport.
    fn socket_world<T: Send>(
        p: usize,
        endpoint: &Endpoint,
        f: impl Fn(SocketTransport) -> T + Sync,
    ) -> Vec<T> {
        let mut out: Vec<Option<T>> = (0..p).map(|_| None).collect();
        std::thread::scope(|scope| {
            for (rank, slot) in out.iter_mut().enumerate() {
                let f = &f;
                scope.spawn(move || {
                    let tr = SocketTransport::connect_timeout(
                        rank,
                        p,
                        endpoint,
                        Duration::from_secs(20),
                    )
                    .expect("connect");
                    *slot = Some(f(tr));
                });
            }
        });
        out.into_iter().map(|v| v.expect("joined")).collect()
    }

    #[cfg(unix)]
    #[test]
    fn uds_world_exchanges_envelopes_bitwise() {
        let ep = Endpoint::unique_uds();
        let results = socket_world(3, &ep, |tr| {
            assert_eq!(tr.name(), "uds");
            let next = (tr.world_rank() + 1) % 3;
            let payload = vec![
                tr.world_rank() as f64,
                f64::from_bits(0x7FF0_0000_0000_0001),
            ];
            tr.send(next, Envelope::new(0, tr.world_rank(), 1, payload))
                .unwrap();
            let env = tr.recv(Duration::from_secs(10)).expect("delivered");
            (
                env.src_global,
                env.data.iter().map(|v| v.to_bits()).sum::<u64>(),
            )
        });
        for (rank, (src, _)) in results.iter().enumerate() {
            assert_eq!(*src, (rank + 2) % 3);
        }
        let payload_bits = |r: usize| (r as f64).to_bits().wrapping_add(0x7FF0_0000_0000_0001);
        for (rank, (_, bits)) in results.iter().enumerate() {
            assert_eq!(*bits, payload_bits((rank + 2) % 3), "bitwise payload");
        }
    }

    #[test]
    fn tcp_world_exchanges_envelopes() {
        // fixed base port for the test; retried dial tolerates slow bind
        let ep = Endpoint::Tcp("127.0.0.1".into(), 39211);
        let results = socket_world(2, &ep, |tr| {
            assert_eq!(tr.name(), "tcp");
            let other = 1 - tr.world_rank();
            tr.send(other, Envelope::new(0, tr.world_rank(), 2, vec![2.5]))
                .unwrap();
            tr.recv(Duration::from_secs(10))
                .expect("delivered")
                .src_global
        });
        assert_eq!(results, vec![1, 0]);
    }

    #[cfg(unix)]
    #[test]
    fn wire_stats_count_exact_frame_bytes() {
        let ep = Endpoint::unique_uds();
        let stats = socket_world(2, &ep, |tr| {
            let other = 1 - tr.world_rank();
            tr.send(other, Envelope::new(0, tr.world_rank(), 1, vec![0.0; 16]))
                .unwrap();
            tr.send(
                tr.world_rank(),
                Envelope::new(0, tr.world_rank(), 2, vec![]),
            )
            .unwrap();
            let mut got = 0;
            while got < 2 {
                if tr.recv(Duration::from_secs(10)).is_some() {
                    got += 1;
                }
            }
            tr.wire_stats().unwrap()
        });
        for s in stats {
            // one 16-word frame to the peer + one empty loopback frame
            assert_eq!(s.msgs_sent, 2);
            assert_eq!(
                s.bytes_sent,
                (WIRE_OVERHEAD_BYTES + 128) + WIRE_OVERHEAD_BYTES
            );
            assert_eq!(s.msgs_recvd, 2);
            assert_eq!(s.bytes_recvd, s.bytes_sent);
        }
    }

    #[cfg(unix)]
    #[test]
    fn single_rank_world_needs_no_peers() {
        let ep = Endpoint::unique_uds();
        let tr =
            SocketTransport::connect_timeout(0, 1, &ep, Duration::from_secs(5)).expect("connect");
        tr.send(0, Envelope::new(0, 0, 1, vec![1.0])).unwrap();
        assert_eq!(tr.recv(Duration::from_secs(1)).unwrap().data, vec![1.0]);
    }

    /// The tentpole mechanics at transport level: a peer's transport goes
    /// away, the survivor rewires to epoch 1, a replacement re-joins via
    /// `connect_at_epoch`, and a stale epoch-0 frame parked in the
    /// survivor's queue is dropped instead of delivered to the new world.
    #[cfg(unix)]
    #[test]
    fn rewire_reconnects_after_peer_restart() {
        let ep = Endpoint::unique_uds();
        let (died_tx, died_rx) = channel::<()>();
        let ep2 = ep.clone();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let ep = ep2;
                let tr = SocketTransport::connect_timeout(0, 2, &ep, Duration::from_secs(20))
                    .expect("survivor connect");
                assert_eq!(tr.epoch(), 0);
                // first incarnation's frame arrives while both are epoch 0
                let env = tr.recv(Duration::from_secs(10)).expect("epoch-0 frame");
                assert_eq!((env.tag, env.epoch), (7, 0));
                died_rx.recv().expect("death signal");
                // second epoch-0 frame is still in flight / queued: it must
                // NOT surface once the epoch advances
                tr.rewire(1, 1, Duration::from_secs(20)).expect("rewire");
                assert_eq!(tr.epoch(), 1);
                let env = tr.recv(Duration::from_secs(10)).expect("epoch-1 frame");
                assert_eq!((env.tag, env.epoch), (8, 1));
                assert_eq!(env.data, vec![2.0]);
                assert!(tr.try_recv().is_none(), "stale frame leaked");
                // ack so the replacement outlives our last recv
                tr.send(1, Envelope::new(0, 0, 9, vec![])).unwrap();
            });
            scope.spawn(|| {
                let tr = SocketTransport::connect_timeout(1, 2, &ep, Duration::from_secs(20))
                    .expect("victim connect");
                tr.send(0, Envelope::new(0, 1, 7, vec![1.0])).unwrap();
                tr.send(0, Envelope::new(0, 1, 70, vec![9.0])).unwrap();
                // give the frames time to land before "dying"
                std::thread::sleep(Duration::from_millis(50));
                drop(tr);
                died_tx.send(()).unwrap();
                let tr = SocketTransport::connect_at_epoch(1, 2, &ep, Duration::from_secs(20), 1)
                    .expect("replacement connect");
                assert_eq!(tr.epoch(), 1);
                tr.send(0, Envelope::new(0, 1, 8, vec![2.0])).unwrap();
                let env = tr.recv(Duration::from_secs(10)).expect("ack");
                assert_eq!(env.tag, 9);
            });
        });
    }

    /// Supervised mode: a peer disconnecting *cleanly* (no torn frame — the
    /// `kill -9`-at-a-frame-boundary case) must still poison the survivor
    /// when `poison_on_eof` is set, and must not when it is not.
    #[cfg(unix)]
    #[test]
    fn clean_eof_poisons_only_in_supervised_mode() {
        for supervised in [false, true] {
            let ep = Endpoint::unique_uds();
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let tr = SocketTransport::connect_timeout(0, 2, &ep, Duration::from_secs(20))
                        .expect("survivor connect");
                    tr.set_poison_on_eof(supervised);
                    let env = tr.recv(Duration::from_secs(10)).expect("frame");
                    assert_eq!(env.tag, 7);
                    if supervised {
                        let env = tr.recv(Duration::from_secs(10)).expect("poison");
                        assert_eq!((env.ctx, env.src_global), (POISON_CTX, 1));
                    } else {
                        assert!(tr.recv(Duration::from_millis(300)).is_none());
                    }
                });
                scope.spawn(|| {
                    let tr = SocketTransport::connect_timeout(1, 2, &ep, Duration::from_secs(20))
                        .expect("peer connect");
                    tr.send(0, Envelope::new(0, 1, 7, vec![1.0])).unwrap();
                    std::thread::sleep(Duration::from_millis(50));
                    // dropping the transport closes the stream at a frame
                    // boundary: a clean EOF, exactly like an abort between
                    // two sends
                });
            });
        }
    }

    #[cfg(unix)]
    #[test]
    fn listener_socket_file_removed_on_drop() {
        let ep = Endpoint::unique_uds();
        let path = match &ep {
            Endpoint::Unix(base) => uds_path(base, 0),
            #[allow(unreachable_patterns)]
            _ => unreachable!(),
        };
        let tr = SocketTransport::connect_timeout(0, 1, &ep, Duration::from_secs(5)).unwrap();
        assert!(path.exists());
        drop(tr);
        assert!(!path.exists());
    }
}
