//! Durable state of the dynamical core: checkpoints, their files and what a
//! world does with them.
//!
//! * [`Checkpoint`] — everything a bitwise restart of a model needs: the
//!   prognostic state, the cached `C` outputs that Eq. 13 reuses across
//!   steps, and the step-loop flags,
//! * [`write_checkpoint`]/[`read_checkpoint`] — the versioned on-disk
//!   format: every word after the magic is under the integrity hash, which
//!   ends the file, and a write is durable (tmp, fsync, rename, directory
//!   fsync),
//! * the checkpoint directory — canonical names, listing, pruning, the
//!   newest step a whole world holds, and [`resize_retention`],
//! * [`assemble`] — the dense global state a world left in its directory,
//!   from every rank's checkpoint,
//! * [`redistribute`] — a world's checkpoints re-decomposed onto another
//!   process grid (planned shrink/grow).
//!
//! Recovery is not here.  A failed step ends its worker, and a failed exit
//! ends its world: the elastic runtime (`agcm-run`) restarts every rank as
//! the next generation from the newest step all of them hold on disk — the
//! one recovery protocol (DESIGN.md §12).

use crate::par::GlobalState;
use crate::state::State;
use crate::tables;
use agcm_comm::fault::HashedWords;
use agcm_mesh::{Decomposition, Field3, HaloWidths, ProcessGrid};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Magic + version tag of the on-disk checkpoint format.  Version 3 writes
/// a surface field with its three extents like every other field; version 2
/// wrote it with two, version 1 had no integrity hash.
const CHECKPOINT_MAGIC: &[u8; 8] = b"AGCMCKP3";

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
    /// Cached vertical sums `Σ` from the last `C` execution (a surface
    /// field).
    pub vsum: Option<Field3>,
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
// Binary on-disk format
// ---------------------------------------------------------------------------

/// One field: its three extents, halo and length, then its values.
fn w_field(w: &mut HashedWords<impl Write>, f: &Field3) -> io::Result<()> {
    let ((nx, ny, nz), h) = (f.extents(), f.halo());
    let halo = [h.xm, h.xp, h.ym, h.yp, h.zm, h.zp];
    for v in [nx, ny, nz].into_iter().chain(halo).chain([f.total_len()]) {
        w.put(v as u64)?;
    }
    f.raw().iter().try_for_each(|v| w.put(v.to_bits()))
}

/// Field `name`: its extents and halo, and its length word, which must be
/// what they allot and, with the trailer, fit in the `left` words the file
/// still holds — all checked before the field is allocated, so neither a
/// flipped bit nor a short file can size an allocation past the file —
/// then its values.
fn r_field(r: &mut HashedWords<impl Read>, left: &mut u64, name: &str) -> io::Result<Field3> {
    let mut dims = [0; 3];
    let mut h = [0; 6];
    for v in dims.iter_mut().chain(&mut h) {
        *v = r.take()? as usize;
    }
    let [xm, xp, ym, yp, zm, zp] = h;
    let halo = HaloWidths {
        xm,
        xp,
        ym,
        yp,
        zm,
        zp,
    };
    let elems = check_field_dims(&dims, halo)?;
    let n = r.take()?;
    if n != elems as u64 {
        let msg = format!("checkpoint array length {n} != {elems} its extents allot");
        return Err(invalid_data(msg));
    }
    *left = left.saturating_sub(10);
    if n >= *left {
        let msg =
            format!("checkpoint truncated or corrupt: field {name} claims {n} words, {left} left");
        return Err(invalid_data(msg));
    }
    *left -= n;
    let [nx, ny, nz] = dims;
    let mut f = Field3::new(nx, ny, nz, halo);
    (f.raw_mut().iter_mut()).try_for_each(|v| r.take().map(|w| *v = f64::from_bits(w)))?;
    Ok(f)
}

/// Ceiling on any single checkpointed array, in elements (2 GiB of f64).
/// A truncated or corrupted header would otherwise turn garbage extents
/// into an allocation panic/abort; past this bound the file is rejected
/// with a typed error before any memory is reserved.
const MAX_FIELD_ELEMS: u64 = 1 << 28;

/// Elements of an array with extents `dims` (missing axes 1) padded by
/// `halo`, or `InvalidData` when that is zero or past the ceiling of a
/// plausible field (2 GiB) — the bound every reader of a durable state
/// file puts on extents before it allocates.
fn check_field_dims(dims: &[usize], halo: HaloWidths) -> io::Result<usize> {
    let axis = |i: usize, lo: usize, hi: usize| {
        let d = dims.get(i).copied().unwrap_or(1) as u64;
        d.checked_add(lo as u64)?.checked_add(hi as u64)
    };
    let padded = [
        axis(0, halo.xm, halo.xp),
        axis(1, halo.ym, halo.yp),
        axis(2, halo.zm, halo.zp),
    ];
    let total = (padded.into_iter())
        .try_fold(1u64, |acc, d| acc.checked_mul(d?))
        .unwrap_or(u64::MAX);
    if total == 0 || total > MAX_FIELD_ELEMS {
        return Err(invalid_data(format!(
            "field extents {dims:?} with halo {halo:?} are implausible \
             ({total} elements); file is corrupt or truncated"
        )));
    }
    Ok(total as usize)
}

const FLAG_C_CACHED: u64 = 1;
const FLAG_PENDING_SMOOTH: u64 = 2;
const FLAG_HAS_TRIO: u64 = 4;

/// Serialize a checkpoint to `writer` (versioned, little-endian, bitwise):
/// the magic, then words under the integrity hash, then the hash.
fn write_checkpoint_to(writer: &mut impl Write, ck: &Checkpoint) -> io::Result<()> {
    writer.write_all(CHECKPOINT_MAGIC)?;
    let mut w = HashedWords::new(writer);
    w.put(ck.step)?;
    let mut flags = 0;
    if ck.c_cached {
        flags |= FLAG_C_CACHED;
    }
    if ck.pending_smooth {
        flags |= FLAG_PENDING_SMOOTH;
    }
    let trio = match (&ck.vsum, &ck.gw, &ck.phi_p) {
        (Some(vsum), Some(gw), Some(phi_p)) => Some([vsum, gw, phi_p]),
        _ => None,
    };
    if trio.is_some() {
        flags |= FLAG_HAS_TRIO;
    }
    w.put(flags)?;
    let trio = trio.into_iter().flatten();
    for f in ck.state.fields().into_iter().chain(trio) {
        w_field(&mut w, f)?;
    }
    w.put_trailer()
}

/// Deserialize a checkpoint written by [`write_checkpoint_to`] from a
/// stream of `bytes` bytes: a field that claims more words than the rest
/// of the stream holds is refused before it is allocated.
///
/// A short read anywhere in the body is reported as a typed
/// `InvalidData` "checkpoint truncated" error, and a body that does not
/// hash to its trailer as "checkpoint hash mismatch" — a half-written,
/// cut-off or bit-rotted restart file must be rejected loudly, never
/// restored from.
fn read_checkpoint_within(reader: &mut impl Read, bytes: u64) -> io::Result<Checkpoint> {
    read_checkpoint_body(reader, bytes).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            invalid_data(format!("checkpoint truncated: {e}"))
        } else {
            e
        }
    })
}

fn read_checkpoint_body(reader: &mut impl Read, bytes: u64) -> io::Result<Checkpoint> {
    let mut magic = [0u8; 8];
    reader.read_exact(&mut magic)?;
    if &magic != CHECKPOINT_MAGIC {
        let msg = match magic.strip_prefix(b"AGCMCKP") {
            Some(v) => format!(
                "checkpoint format version {} is not {} (bad magic)",
                String::from_utf8_lossy(v),
                CHECKPOINT_MAGIC[7] as char
            ),
            None => "not an AGCM checkpoint (bad magic)".into(),
        };
        return Err(invalid_data(msg));
    }
    let mut r = HashedWords::new(reader);
    let step = r.take()?;
    let flags = r.take()?;
    // the words after the magic, the step and the flags
    let left = &mut (bytes.saturating_sub(24) / 8);
    let u = r_field(&mut r, left, "u")?;
    let v = r_field(&mut r, left, "v")?;
    let phi = r_field(&mut r, left, "phi")?;
    let psa = r_field(&mut r, left, "psa")?;
    let (vsum, gw, phi_p) = if flags & FLAG_HAS_TRIO != 0 {
        (
            Some(r_field(&mut r, left, "vsum")?),
            Some(r_field(&mut r, left, "gw")?),
            Some(r_field(&mut r, left, "phi_p")?),
        )
    } else {
        (None, None, None)
    };
    r.check_trailer("checkpoint")?;
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

/// Read a checkpoint file written by [`write_checkpoint`]; a field that
/// claims more words than the file holds is refused before it is allocated.
pub fn read_checkpoint(path: &Path) -> io::Result<Checkpoint> {
    let file = std::fs::File::open(path)?;
    let bytes = file.metadata()?.len();
    read_checkpoint_within(&mut io::BufReader::new(file), bytes)
}

// ---------------------------------------------------------------------------
// On-disk checkpoint directory: naming, retention, discovery
// ---------------------------------------------------------------------------

/// The canonical path of rank `rank`'s checkpoint at `step` under `dir`.
pub fn checkpoint_path(dir: &Path, rank: usize, step: u64) -> PathBuf {
    dir.join(format!("rank{rank:04}_step{step:08}.agcmckpt"))
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

fn invalid_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The step a `p`-rank world restores from `dir`: the minimum over ranks of
/// each rank's newest durable step — what the workers' start-of-world
/// `allreduce(Min)` agrees on from the same files.  `None` when some rank
/// holds none (the world starts cold).  Retention keeps that step on every
/// rank's disk (see [`resize_retention`]).
pub fn restore_step(dir: &Path, p: usize) -> io::Result<Option<u64>> {
    (0..p).try_fold(Some(u64::MAX), |min, rank| {
        Ok(min
            .zip(latest_checkpoint_step(dir, rank)?)
            .map(|(a, b)| a.min(b)))
    })
}

/// The dense global state a `grid` world left in `dir` at `step`: every
/// rank's checkpoint at that step, its interior inserted in rank order
/// exactly as [`gather_state_impl`] inserts the blocks it gathers — so a z
/// split's replicated `p'_sa` lands identically.  Only interiors are read:
/// an Algorithm 2 checkpoint's cached-`C` trio and halos do not matter.
/// A missing, corrupt or misshapen file is an error naming it.
///
/// [`gather_state_impl`]: crate::par::gather_state_impl
pub fn assemble(
    dir: &Path,
    grid: ProcessGrid,
    extents: (usize, usize, usize),
    step: u64,
) -> io::Result<GlobalState> {
    assemble_checked(dir, grid, extents, step, |_| Ok(()))
}

/// [`assemble`], with each checkpoint passed through `check` first.
fn assemble_checked(
    dir: &Path,
    grid: ProcessGrid,
    extents: (usize, usize, usize),
    step: u64,
    check: impl Fn(&Checkpoint) -> Result<(), String>,
) -> io::Result<GlobalState> {
    let dec = Decomposition::new(extents, grid)
        .map_err(|e| invalid_data(format!("decomposition of {extents:?} over {grid:?}: {e}")))?;
    let mut gs = GlobalState::zeros(extents);
    for rank in 0..grid.size() {
        let path = checkpoint_path(dir, rank, step);
        let named = |e: String| format!("{}: {e}", path.display());
        let ck =
            read_checkpoint(&path).map_err(|e| io::Error::new(e.kind(), named(e.to_string())))?;
        let sub = dec.subdomain(rank);
        let dims = (sub.x.len(), sub.y.len(), sub.z.len());
        if ck.step != step || ck.state.extents() != dims {
            return Err(invalid_data(named(format!(
                "step {} with extents {:?}, want step {step} with subdomain {dims:?} of {grid:?}",
                ck.step,
                ck.state.extents()
            ))));
        }
        check(&ck).map_err(|e| invalid_data(named(e)))?;
        gs.insert(&ck.state, (sub.x.start, sub.y.start, sub.z.start));
    }
    Ok(gs)
}

/// Re-decompose a `from`-grid set of Algorithm 1 checkpoints in `src_dir`
/// onto the `to` grid, writing one durable checkpoint per destination rank
/// into `dst_dir` (created if missing).  Returns the step the new world
/// restarts from — the source world's [`restore_step`].
///
/// Invariants (see DESIGN.md "Elastic runs"):
///
/// * **Algorithm 1 only.**  The cached-`C` trio is approximation state
///   tied to the old decomposition's sweep order; a checkpoint carrying it
///   (or a pending fused smoothing) is rejected with a typed error rather
///   than silently diverging.
/// * **Interiors are authoritative.**  The global arrays are
///   [`assemble`]d from subdomain interiors; halos of the re-decomposed
///   states start zeroed, matching a fresh [`crate::init::perturbed_rest`]
///   start — the integrator re-exchanges halos before any read, so the
///   continued run is bitwise identical.
/// * **Durable like any checkpoint**: each output goes through
///   [`write_checkpoint`]'s tmp+fsync+rename dance.
pub fn redistribute(
    src_dir: &Path,
    dst_dir: &Path,
    from: ProcessGrid,
    to: ProcessGrid,
    extents: (usize, usize, usize),
) -> io::Result<u64> {
    let _sp = agcm_obs::span(agcm_obs::SpanKind::Recovery, "resilience.redistribute");
    let dec_to = Decomposition::new(extents, to)
        .map_err(|e| invalid_data(format!("destination decomposition: {e}")))?;
    let step = restore_step(src_dir, from.size())?.ok_or_else(|| {
        invalid_data(format!(
            "a rank of the {}-rank source world has no checkpoint in {}",
            from.size(),
            src_dir.display()
        ))
    })?;
    let global = assemble_checked(src_dir, from, extents, step, |ck| {
        if ck.c_cached || ck.pending_smooth || ck.vsum.is_some() {
            return Err("carries cached-C / pending-smoothing state; \
                        redistribution supports Algorithm 1 checkpoints only"
                .to_string());
        }
        Ok(())
    })?;
    let (gnx, gny, _) = extents;

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
            (&mut state.u, &global.u),
            (&mut state.v, &global.v),
            (&mut state.phi, &global.phi),
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
                .row_mut(0, nxl as isize, j as isize, 0)
                .copy_from_slice(&global.psa[g0..g0 + nxl]);
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
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::init;
    use crate::serial::{Iteration, SerialModel};

    /// Decode a checkpoint held in memory, bounded by its length.
    fn decode(bytes: &[u8]) -> io::Result<Checkpoint> {
        read_checkpoint_within(&mut &bytes[..], bytes.len() as u64)
    }

    fn seeded_serial(variant: Iteration) -> SerialModel {
        let cfg = ModelConfig::test_small();
        let mut m = SerialModel::new(&cfg, variant).unwrap();
        let ic = init::perturbed_rest(m.geom(), 200.0, 0.3, 3);
        m.set_state(&ic);
        m
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
        let err = decode(&buf).unwrap_err();
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
            let err = decode(&buf[..cut]).unwrap_err();
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
        let err = decode(&buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("implausible"), "{err}");
    }

    /// A file whose `u` header is consistent but claims more levels than
    /// the file holds is refused by name before `u` is allocated; the same
    /// bytes decoded from memory are refused the same way.
    #[test]
    fn read_refuses_a_field_larger_than_the_file() {
        let ck = seeded_serial(Iteration::Exact).capture();
        let mut buf = Vec::new();
        write_checkpoint_to(&mut buf, &ck).unwrap();
        let ((nx, ny, nz), h) = (ck.state.u.extents(), ck.state.u.halo());
        let word = |i: usize| 8 + 8 * i..16 + 8 * i;
        let deep = [nx + h.xm + h.xp, ny + h.ym + h.yp, 64 * nz + h.zm + h.zp];
        buf[word(4)].copy_from_slice(&(64 * nz as u64).to_le_bytes());
        buf[word(11)].copy_from_slice(&(deep.iter().product::<usize>() as u64).to_le_bytes());
        let path = std::env::temp_dir().join(format!("agcm_ckpt_deep_{}", std::process::id()));
        std::fs::write(&path, &buf).unwrap();
        let err = read_checkpoint(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("field u claims"), "{err}");
        assert_eq!(decode(&buf).unwrap_err().to_string(), err.to_string());
    }

    /// A seeded mutation of a checkpoint — truncated, bit-flipped or
    /// extended — decodes to the same bytes or is a typed `InvalidData`,
    /// and never panics or allocates past the file.
    #[test]
    fn mutated_checkpoints_never_panic() {
        use agcm_comm::fault::splitmix64;
        let mut m = seeded_serial(Iteration::Approximate);
        m.run(1);
        let mut good = Vec::new();
        write_checkpoint_to(&mut good, &m.capture()).unwrap();
        for seed in 0..3000u64 {
            let mut x = splitmix64(seed);
            let mut next = || {
                x = splitmix64(x);
                x
            };
            let mut bytes = good.clone();
            for _ in 0..1 + next() % 3 {
                let n = bytes.len() as u64;
                match next() % 3 {
                    0 => bytes.truncate((next() % (n + 1)) as usize),
                    1 if n > 0 => bytes[(next() % n) as usize] ^= 1 << (next() % 8),
                    _ => bytes.extend((0..next() % 16).map(|_| next() as u8)),
                }
            }
            match decode(&bytes) {
                Ok(back) => {
                    let mut again = Vec::new();
                    write_checkpoint_to(&mut again, &back).unwrap();
                    assert_eq!(again, good, "seed {seed} decoded to another checkpoint");
                }
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "seed {seed}: {e}"),
            }
        }
    }

    /// Every word after the magic is under the trailer: one flipped bit in
    /// the step, the flags, a field's extents or halo, its data, the cached
    /// `C` trio or the trailer itself is a typed `InvalidData`, never a
    /// panic — and a flip in a field's header is refused before that field
    /// is allocated.  A file of the unhashed version is refused by its magic.
    #[test]
    fn read_rejects_every_flipped_bit_and_the_unhashed_version() {
        let mut m = seeded_serial(Iteration::Approximate);
        m.run(1);
        let ck = m.capture();
        let mut buf = Vec::new();
        write_checkpoint_to(&mut buf, &ck).unwrap();
        assert_eq!(decode(&buf).unwrap(), ck);

        // u's header is words 2..=11 after the magic, its data from word 12
        let word = |i: usize| 8 + 8 * i;
        let ((nx, ny, nz), h) = (ck.state.u.extents(), ck.state.u.halo());
        let (tx, ty) = (nx + h.xm + h.xp, ny + h.ym + h.yp);
        let interior = (nx / 2 + h.xm) + (ny / 2 + h.ym) * tx + (nz / 2 + h.zm) * tx * ty;
        // the trio is what a checkpoint without it lacks before the trailer
        let mut untrio = Vec::new();
        let bare = Checkpoint {
            vsum: None,
            gw: None,
            phi_p: None,
            ..ck.clone()
        };
        write_checkpoint_to(&mut untrio, &bare).unwrap();
        let (trio, trailer) = (untrio.len() - 8, buf.len() - 8);
        let places = [
            ("step", word(0), false),
            ("flags", word(1), false),
            ("extent", word(2), true),
            ("halo", word(5), true),
            ("interior", word(12 + interior), false),
            ("trio", trio + 8 * ((trailer - trio) / 16), false),
            ("trailer", trailer, false),
        ];
        for (what, at, header) in places {
            for bit in 0..64 {
                let mut bad = buf.clone();
                bad[at + bit / 8] ^= 1 << (bit % 8);
                let err = decode(&bad).unwrap_err();
                let msg = err.to_string();
                assert_eq!(
                    err.kind(),
                    io::ErrorKind::InvalidData,
                    "{what} {bit}: {msg}"
                );
                let caught = match header {
                    true => msg.contains("implausible") || msg.contains("allot"),
                    false => msg.contains("checkpoint hash mismatch"),
                };
                assert!(caught, "{what} bit {bit}: {msg}");
            }
        }
        // the unhashed version and the one that wrote surface fields with
        // two extents are refused by their magic, naming the version
        for v in ['1', '2'] {
            let mut old = buf.clone();
            old[..8].copy_from_slice(format!("AGCMCKP{v}").as_bytes());
            let err = decode(&old).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("version {v}")) && msg.contains("bad magic"),
                "{msg}"
            );
        }
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
        // the older of the two ranks' newest steps
        assert_eq!(restore_step(&dir, 2).unwrap(), Some(4));
        std::fs::remove_file(checkpoint_path(&dir, 0, 4)).unwrap();
        assert_eq!(restore_step(&dir, 2).unwrap(), Some(3));
        // a rank with none: a cold start
        assert_eq!(restore_step(&dir, 3).unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }
}
