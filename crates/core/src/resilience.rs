//! Checkpoint/rollback resilience for the CA dynamical core.
//!
//! The communication layer (`agcm-comm`) can *detect* trouble — corrupt
//! payloads behind the checksum framing, receive timeouts, failed peers —
//! and the exchanger retries what is transient.  This module supplies the
//! *recovery* half:
//!
//! * [`Checkpoint`] — everything a bitwise restart of a model needs: the
//!   prognostic state, the cached `C` outputs that Eq. 13 reuses across
//!   steps, and the step-loop flags,
//! * [`CheckpointRing`] — a bounded in-memory ring of recent checkpoints,
//! * [`write_checkpoint`]/[`read_checkpoint`] — a versioned binary on-disk
//!   format for restart files,
//! * [`ResilientRunner`] — the step loop around an [`Integrator`] (whatever
//!   its program) with a blow-up guard: every step
//!   ends in one small control-plane `allreduce(Max)` that agrees on
//!   health; on failure all ranks roll back to the last checkpoint in
//!   lockstep and re-run the window in degraded mode (blocking exchanges,
//!   exact `C(ψ^{i-1})`) before giving up with a typed
//!   [`ResilienceError`].
//!
//! The control plane runs on a **dedicated split communicator** so its
//! collective sequence numbers stay in lockstep no matter how many model
//! collectives the aborted attempt did or did not reach.

use crate::integrator::Integrator;
use crate::state::State;
use crate::tables;
use agcm_comm::{AllreduceAlgo, CommError, CommResult, Communicator, ReduceOp};
use agcm_mesh::{Decomposition, Field2, Field3, HaloWidths, ProcessGrid};
use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Magic + version tag of the on-disk checkpoint format.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"AGCMCKP1";

// ---------------------------------------------------------------------------
// Checkpoint
// ---------------------------------------------------------------------------

/// A restartable snapshot of one rank's model.
///
/// The cached-`C` trio (`vsum`, `gw`, `phi_p`) is `Some` for models that
/// reuse `C` outputs across steps (Eq. 13: the serial approximate variant
/// and Algorithm 2); Algorithm 1 recomputes `C` every sweep and stores
/// `None`.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Completed steps at capture time.
    pub step: u64,
    /// The prognostic state (full arrays, halos included).
    pub state: State,
    /// Cached vertical sums `Σ` from the last `C` execution.
    pub vsum: Option<Field2>,
    /// Cached `g_w` from the last `C` execution.
    pub gw: Option<Field3>,
    /// Cached `φ'` from the last `C` execution.
    pub phi_p: Option<Field3>,
    /// Whether the cached trio is valid (Eq. 13 may reuse it).
    pub c_cached: bool,
    /// Whether `state` still awaits its fused smoothing (Algorithm 2).
    pub pending_smooth: bool,
}

// ---------------------------------------------------------------------------
// CheckpointRing
// ---------------------------------------------------------------------------

/// A bounded ring of recent checkpoints (oldest evicted first).
#[derive(Debug)]
pub struct CheckpointRing {
    cap: usize,
    items: VecDeque<Checkpoint>,
}

impl CheckpointRing {
    /// A ring holding at most `capacity >= 1` checkpoints.
    pub fn new(capacity: usize) -> Self {
        CheckpointRing {
            cap: capacity.max(1),
            items: VecDeque::new(),
        }
    }

    /// Insert, evicting the oldest entry when full.
    pub fn push(&mut self, ck: Checkpoint) {
        if self.items.len() == self.cap {
            self.items.pop_front();
        }
        self.items.push_back(ck);
    }

    /// The most recent checkpoint, if any.
    pub fn latest(&self) -> Option<&Checkpoint> {
        self.items.back()
    }

    /// Remove and return the most recent checkpoint (fall back to an older
    /// one after a failed degraded re-run).
    pub fn drop_latest(&mut self) -> Option<Checkpoint> {
        self.items.pop_back()
    }

    /// Stored checkpoints.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Maximum capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

// ---------------------------------------------------------------------------
// Binary on-disk format
// ---------------------------------------------------------------------------

fn w_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn r_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn w_halo(w: &mut impl Write, h: HaloWidths) -> io::Result<()> {
    for v in [h.xm, h.xp, h.ym, h.yp, h.zm, h.zp] {
        w_u64(w, v as u64)?;
    }
    Ok(())
}

fn r_halo(r: &mut impl Read) -> io::Result<HaloWidths> {
    let mut v = [0usize; 6];
    for slot in &mut v {
        *slot = r_u64(r)? as usize;
    }
    Ok(HaloWidths {
        xm: v[0],
        xp: v[1],
        ym: v[2],
        yp: v[3],
        zm: v[4],
        zp: v[5],
    })
}

fn w_raw(w: &mut impl Write, data: &[f64]) -> io::Result<()> {
    w_u64(w, data.len() as u64)?;
    for v in data {
        w.write_all(&v.to_bits().to_le_bytes())?;
    }
    Ok(())
}

fn r_raw(r: &mut impl Read, into: &mut [f64]) -> io::Result<()> {
    let n = r_u64(r)? as usize;
    if n != into.len() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("checkpoint array length {n} != allocated {}", into.len()),
        ));
    }
    let mut b = [0u8; 8];
    for v in into {
        r.read_exact(&mut b)?;
        *v = f64::from_bits(u64::from_le_bytes(b));
    }
    Ok(())
}

fn w_field3(w: &mut impl Write, f: &Field3) -> io::Result<()> {
    let (nx, ny, nz) = f.extents();
    w_u64(w, nx as u64)?;
    w_u64(w, ny as u64)?;
    w_u64(w, nz as u64)?;
    w_halo(w, f.halo())?;
    w_raw(w, f.raw())
}

/// Ceiling on any single checkpointed array, in elements (2 GiB of f64).
/// A truncated or corrupted header would otherwise turn garbage extents
/// into an allocation panic/abort; past this bound the file is rejected
/// with a typed error before any memory is reserved.
const MAX_FIELD_ELEMS: u64 = 1 << 28;

fn check_field_dims(dims: &[usize], halo: HaloWidths) -> io::Result<()> {
    let padded: [u64; 3] = [
        dims.first().copied().unwrap_or(1) as u64 + (halo.xm + halo.xp) as u64,
        dims.get(1).copied().unwrap_or(1) as u64 + (halo.ym + halo.yp) as u64,
        dims.get(2).copied().unwrap_or(1) as u64 + (halo.zm + halo.zp) as u64,
    ];
    let total = padded
        .iter()
        .try_fold(1u64, |acc, &d| acc.checked_mul(d))
        .unwrap_or(u64::MAX);
    if total == 0 || total > MAX_FIELD_ELEMS {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "checkpoint field extents {dims:?} with halo {halo:?} are \
                 implausible ({total} elements); file is corrupt or truncated"
            ),
        ));
    }
    Ok(())
}

fn r_field3(r: &mut impl Read) -> io::Result<Field3> {
    let nx = r_u64(r)? as usize;
    let ny = r_u64(r)? as usize;
    let nz = r_u64(r)? as usize;
    let halo = r_halo(r)?;
    check_field_dims(&[nx, ny, nz], halo)?;
    let mut f = Field3::new(nx, ny, nz, halo);
    r_raw(r, f.raw_mut())?;
    Ok(f)
}

fn w_field2(w: &mut impl Write, f: &Field2) -> io::Result<()> {
    let (nx, ny) = f.extents();
    w_u64(w, nx as u64)?;
    w_u64(w, ny as u64)?;
    w_halo(w, f.halo())?;
    w_raw(w, f.raw())
}

fn r_field2(r: &mut impl Read) -> io::Result<Field2> {
    let nx = r_u64(r)? as usize;
    let ny = r_u64(r)? as usize;
    let halo = r_halo(r)?;
    check_field_dims(&[nx, ny], halo)?;
    let mut f = Field2::new(nx, ny, halo);
    r_raw(r, f.raw_mut())?;
    Ok(f)
}

const FLAG_C_CACHED: u64 = 1;
const FLAG_PENDING_SMOOTH: u64 = 2;
const FLAG_HAS_TRIO: u64 = 4;

/// Serialize a checkpoint to `writer` (versioned, little-endian, bitwise).
pub fn write_checkpoint_to(writer: &mut impl Write, ck: &Checkpoint) -> io::Result<()> {
    writer.write_all(CHECKPOINT_MAGIC)?;
    w_u64(writer, ck.step)?;
    let mut flags = 0;
    if ck.c_cached {
        flags |= FLAG_C_CACHED;
    }
    if ck.pending_smooth {
        flags |= FLAG_PENDING_SMOOTH;
    }
    let trio = match (&ck.vsum, &ck.gw, &ck.phi_p) {
        (Some(vsum), Some(gw), Some(phi_p)) => Some((vsum, gw, phi_p)),
        _ => None,
    };
    if trio.is_some() {
        flags |= FLAG_HAS_TRIO;
    }
    w_u64(writer, flags)?;
    w_field3(writer, &ck.state.u)?;
    w_field3(writer, &ck.state.v)?;
    w_field3(writer, &ck.state.phi)?;
    w_field2(writer, &ck.state.psa)?;
    if let Some((vsum, gw, phi_p)) = trio {
        w_field2(writer, vsum)?;
        w_field3(writer, gw)?;
        w_field3(writer, phi_p)?;
    }
    Ok(())
}

/// Deserialize a checkpoint written by [`write_checkpoint_to`].
///
/// A short read anywhere in the body is reported as a typed
/// `InvalidData` "checkpoint truncated" error — a half-written or cut-off
/// restart file must be rejected loudly, never restored from.
pub fn read_checkpoint_from(reader: &mut impl Read) -> io::Result<Checkpoint> {
    read_checkpoint_body(reader).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("checkpoint truncated: {e}"),
            )
        } else {
            e
        }
    })
}

fn read_checkpoint_body(reader: &mut impl Read) -> io::Result<Checkpoint> {
    let mut magic = [0u8; 8];
    reader.read_exact(&mut magic)?;
    if &magic != CHECKPOINT_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not an AGCM checkpoint (bad magic)",
        ));
    }
    let step = r_u64(reader)?;
    let flags = r_u64(reader)?;
    let u = r_field3(reader)?;
    let v = r_field3(reader)?;
    let phi = r_field3(reader)?;
    let psa = r_field2(reader)?;
    let (vsum, gw, phi_p) = if flags & FLAG_HAS_TRIO != 0 {
        (
            Some(r_field2(reader)?),
            Some(r_field3(reader)?),
            Some(r_field3(reader)?),
        )
    } else {
        (None, None, None)
    };
    Ok(Checkpoint {
        step,
        state: State { u, v, phi, psa },
        vsum,
        gw,
        phi_p,
        c_cached: flags & FLAG_C_CACHED != 0,
        pending_smooth: flags & FLAG_PENDING_SMOOTH != 0,
    })
}

/// Write a checkpoint file durably and atomically.
///
/// A checkpoint only earns its keep if it survives the crash that makes it
/// necessary, so the write path is the full crash-consistency dance:
/// serialize to `<path>.tmp`, `fsync` the file (a rename can commit a name
/// to an *empty* inode if the data is still in the page cache), rename over
/// `path`, then `fsync` the parent directory so the rename itself is on
/// disk.  Any mid-write error removes the `.tmp` so a failed attempt cannot
/// leave droppings that a later recovery scan could mistake for state.
pub fn write_checkpoint(path: &Path, ck: &Checkpoint) -> io::Result<()> {
    write_checkpoint_with(path, &mut |w| write_checkpoint_to(&mut &mut *w, ck))
}

/// The durable-write machinery behind [`write_checkpoint`], with the body
/// serialization injectable so tests can force a mid-write failure.
fn write_checkpoint_with(
    path: &Path,
    write_body: &mut dyn FnMut(&mut dyn Write) -> io::Result<()>,
) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    let result = (|| {
        let file = std::fs::File::create(&tmp)?;
        let mut w = io::BufWriter::new(&file);
        write_body(&mut w)?;
        w.flush()?;
        drop(w);
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        sync_parent_dir(path)
    })();
    if result.is_err() {
        // best-effort: the primary error is the one worth reporting
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// `fsync` the directory containing `path`, making a just-completed rename
/// durable.  Directory handles cannot be synced on all platforms; where
/// they cannot, this is a no-op (the rename is still atomic, just not
/// crash-durable).
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        std::fs::File::open(parent)?.sync_all()?;
    }
    #[cfg(not(unix))]
    let _ = path;
    Ok(())
}

/// Read a checkpoint file written by [`write_checkpoint`].
pub fn read_checkpoint(path: &Path) -> io::Result<Checkpoint> {
    let mut r = io::BufReader::new(std::fs::File::open(path)?);
    read_checkpoint_from(&mut r)
}

// ---------------------------------------------------------------------------
// On-disk checkpoint directory: naming, retention, discovery
// ---------------------------------------------------------------------------

/// The canonical on-disk name of rank `rank`'s checkpoint at `step`.
pub fn checkpoint_file_name(rank: usize, step: u64) -> String {
    format!("rank{rank:04}_step{step:08}.agcmckpt")
}

/// The canonical path of rank `rank`'s checkpoint at `step` under `dir`.
pub fn checkpoint_path(dir: &Path, rank: usize, step: u64) -> PathBuf {
    dir.join(checkpoint_file_name(rank, step))
}

/// Parse `rank{R:04}_step{S:08}.agcmckpt` back into `(rank, step)`.
fn parse_checkpoint_name(name: &str) -> Option<(usize, u64)> {
    let rest = name.strip_prefix("rank")?;
    let (rank, rest) = rest.split_once("_step")?;
    let step = rest.strip_suffix(".agcmckpt")?;
    Some((rank.parse().ok()?, step.parse().ok()?))
}

/// Rank `rank`'s durable checkpoints under `dir`, sorted by ascending
/// step.  Files that do not follow the canonical naming (including `.tmp`
/// leftovers) are ignored; a missing directory is an empty list.
pub fn list_checkpoints(dir: &Path, rank: usize) -> io::Result<Vec<(u64, PathBuf)>> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut out = Vec::new();
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some((r, step)) = parse_checkpoint_name(name) {
            if r == rank {
                out.push((step, entry.path()));
            }
        }
    }
    out.sort_unstable_by_key(|(step, _)| *step);
    Ok(out)
}

/// Step of rank `rank`'s newest durable checkpoint under `dir`, if any.
pub fn latest_checkpoint_step(dir: &Path, rank: usize) -> io::Result<Option<u64>> {
    Ok(list_checkpoints(dir, rank)?.last().map(|(step, _)| *step))
}

/// Keep only rank `rank`'s `keep` newest checkpoints under `dir`, removing
/// older ones; returns how many files were pruned.  `keep == 0` disables
/// pruning (keep everything).
pub fn prune_checkpoints(dir: &Path, rank: usize, keep: usize) -> io::Result<usize> {
    if keep == 0 {
        return Ok(0);
    }
    let files = list_checkpoints(dir, rank)?;
    let excess = files.len().saturating_sub(keep);
    for (_, path) in &files[..excess] {
        std::fs::remove_file(path)?;
    }
    Ok(excess)
}

/// Checkpoint retention for a world taking part in a resize between sizes
/// `p1` and `p2` (either direction).
///
/// A fixed-size world keeps `p + 1` files: neighbor lockstep lets a
/// distant survivor run up to `p - 1` steps past the victim's last durable
/// step before noticing the death, so the rollback target is always still
/// on disk.  Across a resize the two worlds share one checkpoint lineage
/// (the hand-off step is re-decomposed from phase 1's files into phase
/// 2's directory), and a straggling replacement can lag by the skew of the
/// **larger** world — so retention derived from the current world size
/// alone lets a shrink's `p′ + 1` budget prune history the `p`-sized
/// recovery window still rolls back to.  Both phases of a resize must use
/// `max(p, p′) + 1`.
pub fn resize_retention(p1: usize, p2: usize) -> usize {
    p1.max(p2) + 1
}

// ---------------------------------------------------------------------------
// Checkpoint re-decomposition (planned shrink/grow)
// ---------------------------------------------------------------------------

fn redistribute_err(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The newest step at which **every** rank of a `p`-rank world has a
/// durable checkpoint under `dir` — the only safe restart point when a
/// kill may have interrupted some rank's latest write.
pub fn common_checkpoint_step(dir: &Path, p: usize) -> io::Result<Option<u64>> {
    let mut common: Option<Vec<u64>> = None;
    for rank in 0..p {
        let steps: Vec<u64> = list_checkpoints(dir, rank)?
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        common = Some(match common {
            None => steps,
            Some(prev) => prev.into_iter().filter(|s| steps.contains(s)).collect(),
        });
    }
    Ok(common.and_then(|steps| steps.into_iter().max()))
}

/// Re-decompose a `from`-grid set of Algorithm 1 checkpoints in `src_dir`
/// onto the `to` grid, writing one durable checkpoint per destination rank
/// into `dst_dir` (created if missing).  Returns the step the new world
/// restarts from — the newest step every source rank has on disk.
///
/// Invariants (see DESIGN.md "Elastic runs"):
///
/// * **Algorithm 1 only.**  The cached-`C` trio is approximation state
///   tied to the old decomposition's sweep order; a checkpoint carrying it
///   (or a pending fused smoothing) is rejected with a typed error rather
///   than silently diverging.
/// * **Interiors are authoritative.**  The global arrays are assembled
///   from subdomain interiors exactly as [`gather_state_impl`] does; halos
///   of the re-decomposed states start zeroed, matching a fresh
///   [`crate::init::perturbed_rest`] start — the integrator re-exchanges
///   halos before any read, so the continued run is bitwise identical.
/// * **Durable like any checkpoint**: each output goes through
///   [`write_checkpoint`]'s tmp+fsync+rename dance.
///
/// [`gather_state_impl`]: crate::par::gather_state_impl
pub fn redistribute(
    src_dir: &Path,
    dst_dir: &Path,
    from: ProcessGrid,
    to: ProcessGrid,
    extents: (usize, usize, usize),
) -> io::Result<u64> {
    let _sp = agcm_obs::span(agcm_obs::SpanKind::Recovery, "resilience.redistribute");
    let dec_from = Decomposition::new(extents, from)
        .map_err(|e| redistribute_err(format!("source decomposition: {e}")))?;
    let dec_to = Decomposition::new(extents, to)
        .map_err(|e| redistribute_err(format!("destination decomposition: {e}")))?;
    let step = common_checkpoint_step(src_dir, from.size())?.ok_or_else(|| {
        redistribute_err(format!(
            "no step checkpointed by all {} source ranks in {}",
            from.size(),
            src_dir.display()
        ))
    })?;

    // assemble the dense global prognostic arrays from subdomain interiors
    let (gnx, gny, gnz) = extents;
    let mut gu = vec![0.0f64; gnx * gny * gnz];
    let mut gv = vec![0.0f64; gnx * gny * gnz];
    let mut gphi = vec![0.0f64; gnx * gny * gnz];
    let mut gpsa = vec![0.0f64; gnx * gny];
    for rank in 0..from.size() {
        let path = checkpoint_path(src_dir, rank, step);
        let ck = read_checkpoint(&path)
            .map_err(|e| redistribute_err(format!("{}: {e}", path.display())))?;
        if ck.c_cached || ck.pending_smooth || ck.vsum.is_some() {
            return Err(redistribute_err(format!(
                "{}: carries cached-C / pending-smoothing state; \
                 redistribution supports Algorithm 1 checkpoints only",
                path.display()
            )));
        }
        let sub = dec_from.subdomain(rank);
        let (nxl, nyl, nzl) = (sub.x.len(), sub.y.len(), sub.z.len());
        if ck.state.extents() != (nxl, nyl, nzl) {
            return Err(redistribute_err(format!(
                "{}: state extents {:?} do not match subdomain {:?} of grid {:?}",
                path.display(),
                ck.state.extents(),
                (nxl, nyl, nzl),
                from.dims()
            )));
        }
        let (x0, y0, z0) = (sub.x.start, sub.y.start, sub.z.start);
        for (field, global) in [
            (&ck.state.u, &mut gu),
            (&ck.state.v, &mut gv),
            (&ck.state.phi, &mut gphi),
        ] {
            for k in 0..nzl {
                for j in 0..nyl {
                    let g0 = (z0 + k) * gnx * gny + (y0 + j) * gnx + x0;
                    global[g0..g0 + nxl].copy_from_slice(field.row(
                        0,
                        nxl as isize,
                        j as isize,
                        k as isize,
                    ));
                }
            }
        }
        for j in 0..nyl {
            let g0 = (y0 + j) * gnx + x0;
            gpsa[g0..g0 + nxl].copy_from_slice(ck.state.psa.row(0, nxl as isize, j as isize));
        }
    }

    // scatter onto the destination grid; halo widths must match what
    // Alg1Model::new will allocate so restore() can copy bit-for-bit
    std::fs::create_dir_all(dst_dir)?;
    let halo = HaloWidths::for_footprint(&tables::per_sweep_union());
    for rank in 0..to.size() {
        let sub = dec_to.subdomain(rank);
        let (nxl, nyl, nzl) = (sub.x.len(), sub.y.len(), sub.z.len());
        let (x0, y0, z0) = (sub.x.start, sub.y.start, sub.z.start);
        let mut state = State::new(nxl, nyl, nzl, halo);
        for (field, global) in [
            (&mut state.u, &gu),
            (&mut state.v, &gv),
            (&mut state.phi, &gphi),
        ] {
            for k in 0..nzl {
                for j in 0..nyl {
                    let g0 = (z0 + k) * gnx * gny + (y0 + j) * gnx + x0;
                    field
                        .row_mut(0, nxl as isize, j as isize, k as isize)
                        .copy_from_slice(&global[g0..g0 + nxl]);
                }
            }
        }
        for j in 0..nyl {
            let g0 = (y0 + j) * gnx + x0;
            state
                .psa
                .row_mut(0, nxl as isize, j as isize)
                .copy_from_slice(&gpsa[g0..g0 + nxl]);
        }
        let ck = Checkpoint {
            step,
            state,
            vsum: None,
            gw: None,
            phi_p: None,
            c_cached: false,
            pending_smooth: false,
        };
        write_checkpoint(&checkpoint_path(dst_dir, rank, step), &ck)?;
    }
    agcm_obs::Registry::global()
        .counter("resilience.redistributes")
        .inc();
    Ok(step)
}

// ---------------------------------------------------------------------------
// Config + errors
// ---------------------------------------------------------------------------

/// Tunables of the [`ResilientRunner`].
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Take a checkpoint every this many steps (0 disables checkpointing —
    /// any failure is then immediately fatal).
    pub checkpoint_interval: u64,
    /// How many checkpoints the in-memory ring keeps.
    pub ring_capacity: usize,
    /// Give up (typed error) after this many rollbacks in one run.
    pub max_rollbacks: u32,
    /// Blow-up guard: roll back when `max|ξ|` exceeds this.
    pub max_abs_limit: f64,
    /// When set, every checkpoint is also written here as
    /// `rank{R}_step{S}.agcmckpt`.
    pub checkpoint_dir: Option<PathBuf>,
    /// How many on-disk checkpoints to retain per rank (older ones are
    /// pruned after each durable write; 0 keeps everything).  Elastic
    /// recovery needs at least 2: a kill mid-write must leave the
    /// previous common step intact on every rank.
    pub disk_keep: usize,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            checkpoint_interval: 5,
            ring_capacity: 2,
            max_rollbacks: 4,
            max_abs_limit: 1e6,
            checkpoint_dir: None,
            disk_keep: 3,
        }
    }
}

/// Why a resilient run gave up.
#[derive(Debug)]
pub enum ResilienceError {
    /// The rollback budget is spent (or no checkpoint exists to return to).
    RollbackExhausted {
        /// Step whose attempt failed last.
        step: u64,
        /// Rollbacks performed before giving up.
        rollbacks: u32,
    },
    /// A peer rank died — retry/rollback cannot recover a lost rank.
    PeerLost(CommError),
    /// The control-plane communicator itself failed.
    ControlLost(CommError),
    /// Checkpoint I/O failed.
    Io(io::Error),
}

impl fmt::Display for ResilienceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResilienceError::RollbackExhausted { step, rollbacks } => write!(
                f,
                "rollback budget exhausted after {rollbacks} rollback(s); \
                 last failure at step {step}"
            ),
            ResilienceError::PeerLost(e) => write!(f, "peer rank lost: {e}"),
            ResilienceError::ControlLost(e) => write!(f, "control plane failed: {e}"),
            ResilienceError::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
        }
    }
}

impl std::error::Error for ResilienceError {}

impl From<io::Error> for ResilienceError {
    fn from(e: io::Error) -> Self {
        ResilienceError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// ResilientRunner
// ---------------------------------------------------------------------------

/// What a resilient run did.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Net completed steps (== the requested count on success).
    pub steps: u64,
    /// Step attempts, including re-runs after rollbacks.
    pub attempted_steps: u64,
    /// Rollbacks performed.
    pub rollbacks: u32,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Steps executed in degraded mode.
    pub degraded_steps: u64,
}

/// The resilient step loop: checkpoint ring + health consensus + rollback.
pub struct ResilientRunner {
    cfg: ResilienceConfig,
    ctrl: Communicator,
    ring: CheckpointRing,
    epoch: u64,
    report: RunReport,
    last_ck: Option<u64>,
    failed_at: Option<u64>,
}

// health-flag encoding on the control plane: 0 = ok, 1 = transient error /
// NaN / blow-up, 2 + peer = a peer rank is gone (unrecoverable)
const HEALTH_PEER_BASE: f64 = 2.0;

fn ctrl_err(e: CommError) -> ResilienceError {
    match e {
        CommError::PeerFailed { .. } | CommError::PeerGone { .. } => ResilienceError::PeerLost(e),
        _ => ResilienceError::ControlLost(e),
    }
}

/// How one step attempt ended, locally.
enum Attempt {
    Ok,
    /// Recoverable: a transient comm error, or a mid-step panic (a blown
    /// dycore invariant — e.g. `p_es > 0` — is a blow-up signal; the
    /// checkpoint restore discards the inconsistent model state).
    Transient,
    /// Unrecoverable: a peer rank is gone.
    PeerLoss(CommError),
}

fn classify(res: std::thread::Result<CommResult<()>>) -> Attempt {
    match res {
        Ok(Ok(())) => Attempt::Ok,
        Ok(Err(e @ (CommError::PeerFailed { .. } | CommError::PeerGone { .. }))) => {
            Attempt::PeerLoss(e)
        }
        Ok(Err(_)) => Attempt::Transient,
        Err(_panic) => Attempt::Transient,
    }
}

impl ResilientRunner {
    /// Build a runner; splits a **dedicated control communicator** off
    /// `comm` (collective — every rank of `comm` must call this).
    pub fn new(comm: &mut Communicator, cfg: ResilienceConfig) -> CommResult<Self> {
        let rank = comm.rank();
        let ctrl = comm.split(0, rank)?;
        // the control plane must outlast a peer that is still draining a
        // doomed step attempt (whose receives give up after the *model*
        // comm's timeout), so it waits strictly longer
        ctrl.set_timeout(comm.timeout() * 3 + std::time::Duration::from_secs(1));
        let ring = CheckpointRing::new(cfg.ring_capacity);
        Ok(ResilientRunner {
            cfg,
            ctrl,
            ring,
            epoch: 0,
            report: RunReport::default(),
            last_ck: None,
            failed_at: None,
        })
    }

    /// The report accumulated so far.
    pub fn report(&self) -> &RunReport {
        &self.report
    }

    /// Run `model` to `n_steps` completed steps, recovering from transient
    /// faults via checkpoint rollback + degraded re-runs.
    ///
    /// Collective: every rank calls with its share of the model and the
    /// same `n_steps`.  On success the model's deferred smoothing has been
    /// drained ([`Integrator::finish`]).
    pub fn run(
        &mut self,
        model: &mut Integrator,
        comm: &Communicator,
        n_steps: u64,
    ) -> Result<RunReport, ResilienceError> {
        loop {
            let s = model.steps as u64;
            // leave degraded mode once safely past the failure point
            if let Some(f) = self.failed_at {
                if s > f {
                    model.set_degraded(false);
                    self.failed_at = None;
                }
            }
            if s >= n_steps {
                let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    model.finish(Some(comm))
                }));
                if self.health_round(model, classify(res))? {
                    break;
                }
                self.rollback(model, comm, s)?;
                continue;
            }
            if self.cfg.checkpoint_interval > 0
                && s.is_multiple_of(self.cfg.checkpoint_interval)
                && self.last_ck != Some(s)
            {
                self.take_checkpoint(model)?;
            }
            let res =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| model.step(Some(comm))));
            self.report.attempted_steps += 1;
            if self.health_round(model, classify(res))? {
                if self.failed_at.is_some() {
                    self.report.degraded_steps += 1;
                }
            } else {
                self.rollback(model, comm, s)?;
            }
        }
        self.report.steps = n_steps;
        Ok(self.report.clone())
    }

    /// One control-plane consensus: `Ok(true)` = everyone healthy,
    /// `Ok(false)` = somebody needs a rollback, `Err` = unrecoverable.
    fn health_round(&self, model: &Integrator, attempt: Attempt) -> Result<bool, ResilienceError> {
        let nan = model.state.has_nan();
        let mut flags = [
            match &attempt {
                Attempt::Ok => 0.0,
                Attempt::Transient => 1.0,
                Attempt::PeerLoss(CommError::PeerFailed { peer })
                | Attempt::PeerLoss(CommError::PeerGone { peer }) => {
                    HEALTH_PEER_BASE + *peer as f64
                }
                Attempt::PeerLoss(_) => HEALTH_PEER_BASE,
            },
            if nan { 1.0 } else { 0.0 },
            if nan { 0.0 } else { model.state.max_abs() },
        ];
        self.ctrl
            .allreduce(ReduceOp::Max, &mut flags, AllreduceAlgo::Ring)
            .map_err(ctrl_err)?;
        if flags[0] >= HEALTH_PEER_BASE {
            let peer = (flags[0] - HEALTH_PEER_BASE) as usize;
            return Err(ResilienceError::PeerLost(match attempt {
                Attempt::PeerLoss(e) => e,
                _ => CommError::PeerFailed { peer },
            }));
        }
        Ok(flags[0] == 0.0 && flags[1] == 0.0 && flags[2] <= self.cfg.max_abs_limit)
    }

    fn take_checkpoint(&mut self, model: &Integrator) -> Result<(), ResilienceError> {
        let ck = model.capture();
        if let Some(dir) = &self.cfg.checkpoint_dir {
            let rank = self.ctrl.rank();
            write_checkpoint(&checkpoint_path(dir, rank, ck.step), &ck)?;
            prune_checkpoints(dir, rank, self.cfg.disk_keep)?;
        }
        self.last_ck = Some(ck.step);
        self.ring.push(ck);
        self.report.checkpoints += 1;
        agcm_obs::Registry::global()
            .counter("resilience.checkpoints")
            .inc();
        Ok(())
    }

    /// The lockstep rollback protocol (see DESIGN.md §7).
    fn rollback(
        &mut self,
        model: &mut Integrator,
        comm: &Communicator,
        failed_step: u64,
    ) -> Result<(), ResilienceError> {
        let _sp = agcm_obs::span(agcm_obs::SpanKind::Recovery, "resilience.rollback");
        // a *degraded* re-run that fails again means the latest checkpoint
        // window is poisoned: fall back to an older checkpoint
        if self.failed_at.is_some() {
            self.ring.drop_latest();
        }
        if self.report.rollbacks >= self.cfg.max_rollbacks || self.ring.is_empty() {
            return Err(ResilienceError::RollbackExhausted {
                step: failed_step,
                rollbacks: self.report.rollbacks,
            });
        }
        self.report.rollbacks += 1;
        agcm_obs::Registry::global()
            .counter("resilience.rollbacks")
            .inc();
        self.epoch += 1;
        // 1. everyone has stopped stepping (control plane is in lockstep)
        self.ctrl.barrier().map_err(ctrl_err)?;
        // 2. drop stragglers of the aborted attempt; own-context mail and
        //    control-plane messages (which may be in flight from a rank
        //    already past its purge) survive
        comm.purge_other_contexts(&[&self.ctrl]);
        // 3. nobody re-enters the model until all queues are purged
        self.ctrl.barrier().map_err(ctrl_err)?;
        let ck = self.ring.latest().expect("ring checked non-empty above");
        model.restore(ck);
        // 4. sequence numbers jump to an epoch base: a straggler of the
        //    aborted attempt can never match a tag of the re-run
        model.resync(self.epoch);
        model.set_degraded(true);
        self.failed_at = Some(self.failed_at.map_or(failed_step, |f| f.max(failed_step)));
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::init;
    use crate::serial::{Iteration, SerialModel};
    use agcm_comm::Universe;

    fn seeded_serial(variant: Iteration) -> SerialModel {
        let cfg = ModelConfig::test_small();
        let mut m = SerialModel::new(&cfg, variant).unwrap();
        let ic = init::perturbed_rest(m.geom(), 200.0, 0.3, 3);
        m.set_state(&ic);
        m
    }

    #[test]
    fn ring_evicts_oldest_and_drops_latest() {
        let m = seeded_serial(Iteration::Exact);
        let mut ring = CheckpointRing::new(2);
        assert!(ring.is_empty());
        for step in 0..3u64 {
            let mut ck = m.capture();
            ck.step = step;
            ring.push(ck);
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.latest().unwrap().step, 2);
        assert_eq!(ring.drop_latest().unwrap().step, 2);
        assert_eq!(ring.latest().unwrap().step, 1);
        assert!(ring.drop_latest().is_some());
        assert!(ring.drop_latest().is_none());
    }

    #[test]
    fn capture_restore_is_bitwise_for_serial_approximate() {
        let mut m = seeded_serial(Iteration::Approximate);
        m.run(3);
        let ck = m.capture();
        m.run(2);
        let later = m.state.clone();
        m.restore(&ck);
        assert_eq!(m.steps, 3);
        m.run(2);
        // the approximate variant reuses cached C: the checkpoint must
        // restore the cache too for a bitwise replay
        assert_eq!(m.state.max_abs_diff(&later), 0.0);
    }

    #[test]
    fn disk_round_trip_is_bitwise() {
        let mut m = seeded_serial(Iteration::Approximate);
        m.run(2);
        let ck = m.capture();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("agcm_ckpt_test_{}.agcmckpt", std::process::id()));
        write_checkpoint(&path, &ck).unwrap();
        let back = read_checkpoint(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, ck);
        // and it must actually restart bit-for-bit
        m.run(1);
        let gold = m.state.clone();
        let mut m2 = seeded_serial(Iteration::Approximate);
        m2.restore(&back);
        m2.run(1);
        assert_eq!(m2.state.max_abs_diff(&gold), 0.0);
    }

    #[test]
    fn failed_write_cleans_up_tmp_and_preserves_previous_checkpoint() {
        let mut m = seeded_serial(Iteration::Approximate);
        m.run(1);
        let ck = m.capture();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("agcm_ckpt_fail_{}.agcmckpt", std::process::id()));
        let tmp = path.with_extension("tmp");
        // a good checkpoint is already on disk...
        write_checkpoint(&path, &ck).unwrap();
        assert!(!tmp.exists(), "successful write leaves no tmp");
        // ...then a later write dies mid-serialization
        let err = write_checkpoint_with(&path, &mut |w| {
            w.write_all(b"partial garbage")?;
            w.flush()?;
            Err(io::Error::other("injected disk-full"))
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "injected disk-full");
        assert!(
            !tmp.exists(),
            "failed write must remove {} so recovery never sees droppings",
            tmp.display()
        );
        // the previous checkpoint survives untouched
        let back = read_checkpoint(&path).unwrap();
        assert_eq!(back, ck);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_rejects_bad_magic() {
        let mut buf: Vec<u8> = b"NOTACKPT".to_vec();
        buf.extend_from_slice(&[0u8; 64]);
        let err = read_checkpoint_from(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn read_rejects_truncated_file_with_typed_error() {
        let m = seeded_serial(Iteration::Exact);
        let ck = m.capture();
        let mut buf = Vec::new();
        write_checkpoint_to(&mut buf, &ck).unwrap();
        // cut the body at several depths: header-only, mid-extents,
        // mid-array — every one must be InvalidData "truncated", not a
        // panic and not a bare UnexpectedEof
        for cut in [10, 30, buf.len() / 2, buf.len() - 1] {
            let err = read_checkpoint_from(&mut &buf[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}");
            assert!(err.to_string().contains("truncated"), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn read_rejects_absurd_extents_without_allocating() {
        // magic + step + flags, then a u-field header claiming ~u64::MAX
        // elements: must fail on the dims check, not abort in the allocator
        let mut buf: Vec<u8> = CHECKPOINT_MAGIC.to_vec();
        for word in [7u64, 0] {
            buf.extend_from_slice(&word.to_le_bytes());
        }
        for ext in [u64::MAX / 4, 1 << 40, 3] {
            buf.extend_from_slice(&ext.to_le_bytes());
        }
        buf.extend_from_slice(&[0u8; 6 * 8]); // zero halo
        buf.extend_from_slice(&[0u8; 64]); // some body bytes
        let err = read_checkpoint_from(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("implausible"), "{err}");
    }

    #[test]
    fn disk_retention_prunes_oldest_keeps_newest() {
        let m = seeded_serial(Iteration::Exact);
        let dir = std::env::temp_dir().join(format!("agcm_keep_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for step in 0..5u64 {
            let mut ck = m.capture();
            ck.step = step;
            // two ranks interleaved: retention must be per-rank
            write_checkpoint(&checkpoint_path(&dir, 0, step), &ck).unwrap();
            write_checkpoint(&checkpoint_path(&dir, 1, step), &ck).unwrap();
            prune_checkpoints(&dir, 0, 2).unwrap();
        }
        let steps: Vec<u64> = list_checkpoints(&dir, 0)
            .unwrap()
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        assert_eq!(steps, vec![3, 4], "rank 0 pruned to the newest 2");
        assert_eq!(latest_checkpoint_step(&dir, 0).unwrap(), Some(4));
        // rank 1 was never pruned; keep == 0 also disables pruning
        assert_eq!(list_checkpoints(&dir, 1).unwrap().len(), 5);
        assert_eq!(prune_checkpoints(&dir, 1, 0).unwrap(), 0);
        // the newest step present on *both* ranks
        assert_eq!(common_checkpoint_step(&dir, 2).unwrap(), Some(4));
        std::fs::remove_file(checkpoint_path(&dir, 0, 4)).unwrap();
        assert_eq!(common_checkpoint_step(&dir, 2).unwrap(), Some(3));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn runner_happy_path_matches_plain_run() {
        let gold = {
            let mut m = seeded_serial(Iteration::Approximate);
            m.run(4);
            m.state.clone()
        };
        let report = Universe::run(1, move |comm| {
            let mut m = seeded_serial(Iteration::Approximate);
            let mut runner = ResilientRunner::new(
                comm,
                ResilienceConfig {
                    checkpoint_interval: 2,
                    ..ResilienceConfig::default()
                },
            )
            .unwrap();
            let report = runner.run(&mut m, comm, 4).unwrap();
            assert_eq!(
                m.state.max_abs_diff(&gold),
                0.0,
                "resilient run must not perturb"
            );
            report
        })
        .pop()
        .unwrap();
        assert_eq!(report.steps, 4);
        assert_eq!(report.attempted_steps, 4);
        assert_eq!(report.rollbacks, 0);
        assert_eq!(report.checkpoints, 2); // steps 0 and 2
        assert_eq!(report.degraded_steps, 0);
    }

    #[test]
    fn runner_exhausts_rollbacks_on_persistent_blowup() {
        // an absurd blow-up threshold makes every attempt "fail": the
        // runner must retry through its budget and then give up typed
        let err = Universe::run(1, |comm| {
            let mut m = seeded_serial(Iteration::Exact);
            let mut runner = ResilientRunner::new(
                comm,
                ResilienceConfig {
                    checkpoint_interval: 1,
                    ring_capacity: 2,
                    max_rollbacks: 3,
                    max_abs_limit: 1e-12,
                    checkpoint_dir: None,
                    disk_keep: 0,
                },
            )
            .unwrap();
            runner.run(&mut m, comm, 4).unwrap_err()
        })
        .pop()
        .unwrap();
        match err {
            ResilienceError::RollbackExhausted { rollbacks, .. } => {
                assert!(rollbacks <= 3, "budget respected, got {rollbacks}")
            }
            other => panic!("expected RollbackExhausted, got {other}"),
        }
    }
}
