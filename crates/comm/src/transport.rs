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
//! 20-byte hello (`"AGCMWIRE"`, version 3, sender rank, world size).
//! [`SocketTransport::connect`] returns only once every peer connection is
//! up in both directions, so a successful construction doubles as the
//! launcher's barrier that the whole world exists.  The handshake is
//! bounded by `AGCM_CONNECT_TIMEOUT_MS` (strict env parse; default
//! [`crate::default_timeout`]) so a hung peer fails loudly with
//! rank/peer/phase context instead of blocking forever.
//!
//! # A mesh is built once
//!
//! The accept thread exits once the mesh is up: a world's connections live
//! and die with it, and nothing re-joins a running mesh.  A launcher that
//! loses a rank ends the whole world and starts the next one from its
//! checkpoint set on fresh transports, so a frame can only ever belong to
//! the one world whose sockets carry it.  A peer that closes its end
//! cleanly (at a frame boundary) ends that stream and nothing more; a torn
//! or corrupt frame poisons the mailbox, as above.

use crate::error::{CommError, CommResult};
use crate::fault;
use agcm_obs as obs;
use std::cell::RefCell;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
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
const WIRE_HEADER_BYTES: u64 = 44;

/// Trailing checksum size in bytes.
const WIRE_TRAILER_BYTES: u64 = 8;

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

    /// A socket has no user-space buffer: every `write` is already the
    /// kernel's.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

enum Listener {
    #[cfg(unix)]
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
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
const HELLO_VERSION: u32 = 3;
const HELLO_BYTES: usize = 20;

fn encode_hello(rank: usize, size: usize) -> [u8; HELLO_BYTES] {
    let mut b = [0u8; HELLO_BYTES];
    b[0..8].copy_from_slice(&HELLO_MAGIC.to_le_bytes());
    b[8..12].copy_from_slice(&HELLO_VERSION.to_le_bytes());
    b[12..16].copy_from_slice(&(rank as u32).to_le_bytes());
    b[16..20].copy_from_slice(&(size as u32).to_le_bytes());
    b
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Decode a hello; returns the announcing peer's rank.
fn decode_hello(b: &[u8; HELLO_BYTES], expect_size: usize) -> io::Result<usize> {
    if u64_at(b, 0) != HELLO_MAGIC {
        return Err(bad_data("handshake: bad magic".to_string()));
    }
    let version = u32_at(b, 8);
    if version != HELLO_VERSION {
        return Err(bad_data(format!(
            "handshake: wire version {version}, this build speaks {HELLO_VERSION}"
        )));
    }
    let rank = u32_at(b, 12) as usize;
    let size = u32_at(b, 16) as usize;
    if size != expect_size || rank >= size {
        return Err(bad_data(format!(
            "handshake: rank {rank} of world {size}, expected world {expect_size}"
        )));
    }
    Ok(rank)
}

/// A byte-stream transport over Unix-domain sockets (or TCP): each rank is
/// its own OS process (or thread), envelopes travel as checksummed frames
/// through the kernel.  See the module docs for the wire format.
pub struct SocketTransport {
    rank: usize,
    size: usize,
    kind: &'static str,
    /// One simplex outgoing connection per peer (`None` at the own rank);
    /// `RefCell` because [`Transport::send`] takes `&self`.
    writers: Vec<Option<RefCell<Conn>>>,
    /// Local loopback for self-sends; also keeps `rx` alive after every
    /// reader thread exited.
    loopback: Sender<Envelope>,
    rx: Receiver<Envelope>,
    /// Reusable frame staging buffer of [`Transport::send`].
    frame_buf: RefCell<Vec<u8>>,
    counters: Arc<WireCounters>,
    /// Own listening socket path, removed on drop (Unix only).
    listen_path: Option<PathBuf>,
}

/// `(rank, size, endpoint)` of a launched worker from the handshake
/// variables `var` looks up: `None` when `AGCM_RANK` is unset.  A set but
/// malformed value is `InvalidInput` naming the variable and the value; a
/// missing endpoint or a rank outside the world is `InvalidData`.
fn launch_params(
    var: impl Fn(&str) -> Option<String>,
) -> Option<io::Result<(usize, usize, Endpoint)>> {
    let rank: usize = match strict_var(&var, "AGCM_RANK") {
        Ok(rank) => rank?,
        Err(e) => return Some(Err(e)),
    };
    let rest = || {
        let size: usize = strict_var(&var, "AGCM_WORLD_SIZE")?.unwrap_or(0);
        let ep: String = strict_var(&var, "AGCM_ENDPOINT")?
            .ok_or_else(|| bad_data("AGCM_RANK set without AGCM_ENDPOINT".into()))?;
        let ep = Endpoint::parse(&ep).map_err(|e| bad_data(format!("AGCM_ENDPOINT: {e}")))?;
        if rank >= size {
            let why = format!("AGCM_RANK={rank} outside AGCM_WORLD_SIZE={size}");
            return Err(bad_data(why));
        }
        Ok((rank, size, ep))
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
    /// (`AGCM_RANK`, `AGCM_WORLD_SIZE`, `AGCM_ENDPOINT`); `None` when
    /// `AGCM_RANK` is unset (not launched by `agcm-run`).  A malformed value
    /// is an `InvalidInput` error naming the variable and the value.
    pub fn from_env() -> Option<io::Result<SocketTransport>> {
        let params = launch_params(|name| std::env::var(name).ok())?;
        Some(params.and_then(|(rank, size, ep)| Self::connect(rank, size, &ep)))
    }

    /// Like [`SocketTransport::connect`] with an explicit handshake
    /// deadline covering listener setup, all outgoing connections and all
    /// incoming handshakes.
    fn connect_timeout(
        rank: usize,
        size: usize,
        endpoint: &Endpoint,
        timeout: Duration,
    ) -> io::Result<SocketTransport> {
        assert!(size >= 1, "need at least one rank");
        assert!(rank < size, "rank {rank} outside world of {size}");
        // the whole mesh handshake (listen + dial-out + incoming hellos) as
        // one transport span; one relaxed load when tracing is disabled
        let _handshake = obs::span(obs::SpanKind::Transport, "transport.handshake");
        let deadline = Instant::now() + timeout;
        // the listener is polled (`accept_one`) so the mesh deadline holds
        let (kind, listener, listen_path) = match endpoint {
            #[cfg(unix)]
            Endpoint::Unix(base) => {
                let path = uds_path(base, rank);
                // a stale socket file from a crashed previous run (or from
                // this rank in the world a launcher just ended) would make
                // bind fail; the path is namespaced per run by the launcher,
                // so removing it is safe
                let _ = std::fs::remove_file(&path);
                let l = UnixListener::bind(&path)?;
                l.set_nonblocking(true)?;
                ("uds", Listener::Unix(l), Some(path))
            }
            Endpoint::Tcp(host, port) => {
                let l = TcpListener::bind((host.as_str(), tcp_port(*port, rank)?))?;
                l.set_nonblocking(true)?;
                ("tcp", Listener::Tcp(l), None)
            }
        };
        let (tx, rx) = channel::<Envelope>();
        let counters = Arc::new(WireCounters::default());

        // Accept the size-1 incoming connections on a helper thread while
        // this thread dials out, so no connect ordering can deadlock the
        // mesh.  Each accepted peer gets a detached reader thread that
        // decodes frames into the internal channel; draining the wire
        // eagerly is what preserves the runtime's buffered non-blocking
        // send semantics (a sender can never block on a full pipe).  The
        // helper and the listener end with the initial mesh.
        let (done_tx, done_rx) = channel::<io::Result<()>>();
        if size > 1 {
            let (tx, counters) = (tx.clone(), Arc::clone(&counters));
            std::thread::spawn(move || {
                obs::set_rank(rank);
                let _ = done_tx.send(accept_mesh(&listener, rank, size, deadline, &tx, &counters));
            });
        } else {
            drop(listener);
            let _ = done_tx.send(Ok(()));
        }

        let hello = encode_hello(rank, size);
        let mut writers = Vec::with_capacity(size);
        for peer in 0..size {
            if peer == rank {
                writers.push(None);
                continue;
            }
            let mut conn =
                dial(endpoint, peer, deadline).map_err(|e| phase_err(rank, "mesh dial-out", e))?;
            conn.write_all(&hello)
                .map_err(|e| phase_err(rank, "mesh hello", e))?;
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
            listen_path,
        })
    }
}

/// Prefix an I/O error with the owning rank and handshake phase, so a hung
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
                std::thread::sleep(MESH_POLL);
            }
        }
    }
}

/// How long the mesh build sleeps between two dials of a peer whose
/// listener is not up yet, and between two polls of its own listener.  A
/// world's set-up waits out a few of these, so they set both its length
/// and how much it varies: a connection that just misses a poll waits a
/// whole one.
const MESH_POLL: Duration = Duration::from_micros(100);

/// Accept one connection, polling until `deadline`.
fn accept_one(listener: &Listener, my_rank: usize, deadline: Instant) -> io::Result<Conn> {
    loop {
        match listener.accept() {
            Ok(c) => return Ok(c),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("rank {my_rank}: timed out accepting peer connections"),
                    ));
                }
                std::thread::sleep(MESH_POLL);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Accept, handshake and spawn a reader for each of the `size - 1` peers of
/// the mesh.
fn accept_mesh(
    listener: &Listener,
    my_rank: usize,
    size: usize,
    deadline: Instant,
    tx: &Sender<Envelope>,
    counters: &Arc<WireCounters>,
) -> io::Result<()> {
    let _sp = obs::span(obs::SpanKind::Transport, "transport.accept");
    let mut seen = vec![false; size];
    for _ in 1..size {
        let mut conn = accept_one(listener, my_rank, deadline)?;
        conn.set_read_timeout(Some(
            deadline
                .saturating_duration_since(Instant::now())
                .max(Duration::from_millis(1)),
        ))?;
        let mut hello = [0u8; HELLO_BYTES];
        conn.read_exact(&mut hello)
            .map_err(|e| phase_err(my_rank, "accept handshake (peer hello)", e))?;
        let peer = decode_hello(&hello, size)?;
        conn.set_read_timeout(None)?;
        if std::mem::replace(&mut seen[peer], true) {
            return Err(bad_data(format!(
                "rank {my_rank}: peer {peer} connected twice"
            )));
        }
        let (tx, counters) = (tx.clone(), Arc::clone(counters));
        std::thread::spawn(move || reader_loop(conn, my_rank, peer, tx, counters));
    }
    Ok(())
}

/// Decode frames from one incoming connection into the internal queue.  A
/// clean EOF (the peer dropped its transport, or died between two frames)
/// simply ends the stream; a validation failure poisons the mailbox —
/// after a torn or corrupted frame the stream position cannot be trusted,
/// so the peer is treated as failed rather than risking silent
/// desynchronization.  A `kill -9`'d peer mid-frame surfaces here too: the
/// kernel EOFs/resets the connection mid-stream, which `read_frame` reports
/// as an error.
fn reader_loop(
    mut conn: Conn,
    my_rank: usize,
    peer: usize,
    tx: Sender<Envelope>,
    counters: Arc<WireCounters>,
) {
    obs::set_rank(my_rank);
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
            Ok(None) => return,
            Err(_) => {
                let _ = tx.send(Envelope::poison(peer));
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

    fn send(&self, peer: usize, env: Envelope) -> CommResult<()> {
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
        self.rx.recv_timeout(timeout).ok()
    }

    fn try_recv(&self) -> Option<Envelope> {
        self.rx.try_recv().ok()
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
        // listening socket file is ours to clean up
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
    fn params(vars: &[(&str, &str)]) -> Option<io::Result<(usize, usize, Endpoint)>> {
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
        ];
        let (rank, size, ep) = params(&ok).unwrap().unwrap();
        assert_eq!((rank, size), (1, 2));
        assert!(matches!(ep, Endpoint::Tcp(h, 4100) if h == "localhost"));
        for (name, bad) in [
            ("AGCM_RANK", "one"),
            ("AGCM_WORLD_SIZE", "2x"),
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
        // the largest prefix the bound admits claims 2 GiB on a 52-byte
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
        let b = encode_hello(3, 8);
        assert_eq!(decode_hello(&b, 8).unwrap(), 3);
        assert!(decode_hello(&b, 4).is_err(), "world size mismatch");
        let mut bad = b;
        bad[0] ^= 1;
        assert!(decode_hello(&bad, 8).is_err(), "bad magic");
    }

    /// A v2 hello (28 bytes: magic, version, rank, size, epoch) is refused
    /// on its version word, which sits where v3's does.
    #[test]
    fn a_v2_hello_is_refused_naming_its_version() {
        let mut v2 = [0u8; 28];
        v2[0..8].copy_from_slice(&HELLO_MAGIC.to_le_bytes());
        v2[8..12].copy_from_slice(&2u32.to_le_bytes());
        v2[12..16].copy_from_slice(&1u32.to_le_bytes());
        v2[16..20].copy_from_slice(&4u32.to_le_bytes());
        let head: [u8; HELLO_BYTES] = v2[..HELLO_BYTES].try_into().unwrap();
        let err = decode_hello(&head, 4).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("wire version 2"), "{err}");
    }

    /// A seeded stream of mutation choices.
    fn mutations(seed: u64) -> impl FnMut() -> u64 {
        let mut x = fault::splitmix64(seed);
        move || {
            x = fault::splitmix64(x);
            x
        }
    }

    /// Bit flips of a hello decode to a typed `InvalidData` or to exactly
    /// the hello the flipped bytes encode.  A hello carries no hash, so a
    /// flip in its rank is another valid hello; what the decoder must not
    /// do is accept bytes `encode_hello` would not write, or panic.
    #[test]
    fn mutated_hellos_never_panic() {
        let good = encode_hello(3, 8);
        let mut refused = 0;
        for seed in 0..3000u64 {
            let mut next = mutations(seed);
            let mut b = good;
            for _ in 0..1 + next() % 3 {
                b[(next() % HELLO_BYTES as u64) as usize] ^= 1 << (next() % 8);
            }
            match decode_hello(&b, 8) {
                Ok(rank) => assert_eq!(encode_hello(rank, 8), b, "seed {seed}"),
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::InvalidData, "seed {seed}: {e}");
                    refused += 1;
                }
            }
        }
        assert!(refused > 1000, "only {refused} of 3000 mutants refused");
    }

    /// A truncated, bit-flipped or extended frame reads back as the same
    /// envelope (an extension is the next frame's business) or as a typed
    /// error, never a panic — and the body buffer holds what arrived, never
    /// what an unverified length prefix claimed.
    #[test]
    fn mutated_frames_never_panic() {
        let env = sample_env();
        let good = encoded(&env);
        for seed in 0..3000u64 {
            let mut next = mutations(seed);
            let mut bytes = good.clone();
            for _ in 0..1 + next() % 3 {
                let n = bytes.len() as u64;
                match next() % 3 {
                    0 => bytes.truncate((next() % (n + 1)) as usize),
                    1 if n > 0 => bytes[(next() % n) as usize] ^= 1 << (next() % 8),
                    _ => bytes.extend((0..next() % 64).map(|_| next() as u8)),
                }
            }
            let mut body = Vec::new();
            match read_frame(&mut &bytes[..], &mut body) {
                Ok(None) => assert!(bytes.is_empty(), "seed {seed}: clean EOF on data"),
                Ok(Some((back, size))) => {
                    assert_env_eq(&env, &back);
                    assert_eq!(size, good.len() as u64, "seed {seed}");
                }
                Err(e) => {
                    let typed = [io::ErrorKind::InvalidData, io::ErrorKind::UnexpectedEof];
                    assert!(typed.contains(&e.kind()), "seed {seed}: {e}");
                }
            }
            let bound = 4096 + 2 * bytes.len();
            assert!(
                body.capacity() <= bound,
                "seed {seed}: body grew to {}",
                body.capacity()
            );
        }
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

    /// A peer disconnecting cleanly — no torn frame, the `kill -9`-at-a-
    /// frame-boundary case among them — ends its stream and never poisons:
    /// a launcher learns of a death from the exit, not from the mesh.
    #[cfg(unix)]
    #[test]
    fn a_clean_eof_never_poisons() {
        let ep = Endpoint::unique_uds();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let tr = SocketTransport::connect_timeout(0, 2, &ep, Duration::from_secs(20))
                    .expect("survivor connect");
                let env = tr.recv(Duration::from_secs(10)).expect("frame");
                assert_eq!(env.tag, 7);
                assert!(tr.recv(Duration::from_millis(300)).is_none());
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
