//! Halo exchange over the message-passing runtime.
//!
//! One *communication* in the paper's counting is one call pair
//! [`HaloExchanger::post_sends`] / [`HaloExchanger::finish_recvs`], and the
//! gap between posting and finishing is where computation overlaps
//! communication (§4.3.1).  The paper's implementation sends every field to
//! every neighbour as its own message ("one communication involves about 20
//! MPI_Isend and MPI_Recv operations (due to the length of ξ being ten)").
//! This one departs from that on purpose: the boxes of every field that
//! travels on a neighbour link are packed back to back into **one** message
//! per link ([`link_messages`]), so a communication costs one frame per
//! neighbour whatever the length of ξ.  The paper's *communication* count —
//! what §4.3 is about — is unchanged; only its per-communication message
//! count drops.
//!
//! The exchange depth is a parameter: Algorithm 1 exchanges one-sweep-deep
//! halos 13 times per step; the communication-avoiding Algorithm 2
//! exchanges `3M+2`-deep halos twice.

use crate::diag::Diag;
use crate::par::schedule::ExFields;
use agcm_comm::{CommResult, Communicator};
use agcm_mesh::{BoxRange, Decomposition, ExchangePlan, Field3, HaloWidths, NeighborLink};
use agcm_obs as obs;
use std::time::Duration;

/// Bounded retry-with-backoff for transient receive failures (injected
/// drops surface as timeouts, injected corruption as `CorruptPayload`;
/// both leave the clean payload in the mailbox, so a retry of the same
/// receive can succeed — see `agcm_comm::fault`).  Retry is the recovery
/// that stays bitwise inside a step; what it cannot recover fails the step
/// (an elastic world then rolls back from its durable checkpoints).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included).  1 = no retries.
    pub max_attempts: u32,
    /// Sleep before attempt `n` is `backoff * n` (linear backoff).
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff: Duration::from_millis(1),
        }
    }
}

/// A field participating in an exchange, marked with whether it is a
/// surface field — marked, not inferred: a rank's one-level block of a 3-D
/// field travels on z links too.
pub enum ExField<'a> {
    /// A 3-D field (any level count — interface fields have `nz+1`).
    Volume(&'a mut Field3),
    /// A surface field ([`Field3::surface`]): replicated across z ranks, so
    /// exchanged only with `dz = 0` neighbours.
    Surface(&'a mut Field3),
}

impl ExField<'_> {
    fn geom(&self) -> FieldGeom {
        match self {
            ExField::Volume(f) => (f.extents(), false),
            ExField::Surface(f) => (f.extents(), true),
        }
    }

    fn field(&mut self) -> &mut Field3 {
        match self {
            ExField::Volume(f) | ExField::Surface(f) => f,
        }
    }
}

/// Ticket returned by [`HaloExchanger::post_sends`], consumed by
/// [`HaloExchanger::finish_recvs`].
#[must_use]
pub struct Pending {
    seq: u64,
    plan: usize,
}

/// Geometry of one exchanged array: its local interior extents (a surface
/// field has one level) and whether it is a surface field — one that is
/// replicated across z ranks and travels on `dz = 0` links only.
pub type FieldGeom = ((usize, usize, usize), bool);

/// One message of an exchange: everything one neighbour link carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkMessage {
    /// The neighbour and its process-grid offset.
    pub link: NeighborLink,
    /// The boxes of every field that travels on the link, in the exchange's
    /// field order — the payload's layout.
    pub parts: Vec<LinkPart>,
}

/// One field's share of a [`LinkMessage`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkPart {
    /// Position of the field in the exchange's field list.
    pub field: usize,
    /// Interior box packed into the message.
    pub send: BoxRange,
    /// Halo box the mirrored message from this neighbour unpacks into.
    pub recv: BoxRange,
}

impl LinkMessage {
    /// `f64` values packed into the message.
    pub fn send_elems(&self) -> usize {
        self.parts.iter().map(|p| p.send.len()).sum()
    }

    /// `f64` values the mirrored message from this neighbour carries.
    pub fn recv_elems(&self) -> usize {
        self.parts.iter().map(|p| p.recv.len()).sum()
    }
}

/// The messages `rank` sends (and, mirrored, receives) in one exchange of
/// `fields` at halo `depth`: one per neighbour link some field has a box
/// on.  This is the single enumeration of halo messages — the exchanger
/// executes it, `analysis::predict` prices it and `agcm-verify`
/// turns it into send/recv events — so predictor ≡ schedule graph ≡ runtime
/// ≡ wire cannot drift.
pub fn link_messages(
    decomp: &Decomposition,
    rank: usize,
    depth: HaloWidths,
    fields: &[FieldGeom],
) -> Vec<LinkMessage> {
    let plans: Vec<ExchangePlan> = fields
        .iter()
        .map(|&(ext, _)| ExchangePlan::with_extents(decomp, rank, depth, ext))
        .collect();
    let mut msgs = Vec::new();
    for link in decomp.neighbors(rank) {
        let parts: Vec<_> = (fields.iter().zip(&plans).enumerate())
            .filter(|(_, (&(_, surface), _))| !(surface && link.offset.2 != 0))
            .filter_map(|(field, (_, plan))| {
                let spec = plan.specs().iter().find(|s| s.link == link)?;
                let (send, recv) = (spec.send.clone(), spec.recv.clone());
                Some(LinkPart { field, send, recv })
            })
            .collect();
        if !parts.is_empty() {
            msgs.push(LinkMessage { link, parts });
        }
    }
    msgs
}

/// Per-rank halo exchange driver.
pub struct HaloExchanger {
    decomp: Decomposition,
    rank: usize,
    seq: u64,
    /// Communications completed (the paper's per-step frequency metric).
    pub exchanges: u64,
    /// Checksum-framed payloads + receive-side validation and retry (off by
    /// default so certified traffic is unchanged).
    framed: bool,
    retry: RetryPolicy,
    /// Memoized message lists keyed by `(depth, field geometries)` — a step
    /// cycles through a handful of them, so each is built once and reused.
    plans: Vec<CachedPlan>,
    /// Reusable pack staging buffer (zero steady-state allocation).
    pack_buf: Vec<f64>,
}

struct CachedPlan {
    depth: HaloWidths,
    fields: Vec<FieldGeom>,
    msgs: Vec<LinkMessage>,
}

/// Direction-of-travel index for a neighbour offset, `0..27`.  Both sides of
/// a message compute it from the *sender's* offset: the receiver negates its
/// own offset to the sender.  Public so the static schedule analyzer
/// (`agcm-verify`) can reproduce wire tags without executing an exchange.
pub fn dir_index(o: (i32, i32, i32)) -> u32 {
    ((o.0 + 1) + 3 * (o.1 + 1) + 9 * (o.2 + 1)) as u32
}

/// Wire tag of one halo message: exchange sequence number (23 bits) and the
/// sender's [`dir_index`] (5 bits).  This is the exact tag [`HaloExchanger`]
/// puts on the wire; `agcm-verify` recomputes it to pair sends with
/// receives statically.
pub fn wire_tag(seq: u64, dir: u32) -> u32 {
    debug_assert!(dir < 27);
    (((seq & 0x7F_FFFF) as u32) << 5) | dir
}

impl HaloExchanger {
    /// Create an exchanger for `rank` of `decomp`.
    pub fn new(decomp: Decomposition, rank: usize) -> Self {
        HaloExchanger {
            decomp,
            rank,
            seq: 0,
            exchanges: 0,
            framed: false,
            retry: RetryPolicy::default(),
            plans: Vec::new(),
            pack_buf: Vec::new(),
        }
    }

    /// Enable/disable checksum framing + receive validation and retry.
    pub fn set_framed(&mut self, on: bool) {
        self.framed = on;
    }

    /// Change the retry policy used by framed receives.
    pub fn set_retry(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// Index of the memoized message list for `fields` at `depth`, building
    /// it on first use.  Linear scan: a run uses at most a handful of
    /// distinct keys (sweep/group/smooth depths × field sets).
    fn plan_idx(&mut self, depth: HaloWidths, fields: &[ExField<'_>]) -> usize {
        let geoms = || fields.iter().map(ExField::geom);
        if let Some(i) = (self.plans.iter())
            .position(|c| c.depth == depth && c.fields.iter().copied().eq(geoms()))
        {
            return i;
        }
        let fields: Vec<FieldGeom> = geoms().collect();
        let msgs = link_messages(&self.decomp, self.rank, depth, &fields);
        self.plans.push(CachedPlan {
            depth,
            fields,
            msgs,
        });
        self.plans.len() - 1
    }

    /// Post all sends for one exchange of the given fields with halo depth
    /// `depth`: one message per neighbour link.  Returns a ticket for
    /// [`Self::finish_recvs`].  Compute may proceed between the two calls
    /// (overlap).
    pub fn post_sends(
        &mut self,
        comm: &Communicator,
        depth: HaloWidths,
        fields: &mut [ExField<'_>],
    ) -> CommResult<Pending> {
        let seq = self.seq;
        self.seq += 1;
        let mut span = obs::span(obs::SpanKind::ExchangePost, "halo.post");
        let plan = self.plan_idx(depth, fields);
        let buf = &mut self.pack_buf;
        for msg in &self.plans[plan].msgs {
            buf.clear();
            for LinkPart { field, send, .. } in &msg.parts {
                let (x, y, z) = (send.x.clone(), send.y.clone(), send.z.clone());
                fields[*field].field().pack_box(x, y, z, buf);
            }
            let t = wire_tag(seq, dir_index(msg.link.offset));
            span.add_bytes(8 * buf.len() as u64);
            if self.framed {
                comm.send_framed(msg.link.rank, t, buf)?;
            } else {
                comm.send(msg.link.rank, t, buf)?;
            }
        }
        Ok(Pending { seq, plan })
    }

    /// Receive and unpack every message of a pending exchange.  `fields`
    /// must be the same list (same order) passed to `post_sends`.
    pub fn finish_recvs(
        &mut self,
        comm: &Communicator,
        pending: Pending,
        fields: &mut [ExField<'_>],
    ) -> CommResult<()> {
        // one wait span per completed exchange: the overlap profile sums
        // these against OverlapCompute spans, and the schedule cross-check
        // counts them (one finish_recvs == one communication)
        let mut span = obs::span(obs::SpanKind::ExchangeWait, "halo.wait");
        for msg in &self.plans[pending.plan].msgs {
            // the sender's direction is the negation of our offset
            let (dx, dy, dz) = msg.link.offset;
            let from = dir_index((-dx, -dy, -dz));
            let t = wire_tag(pending.seq, from);
            let data = if self.framed {
                self.recv_validated(comm, msg.link.rank, t, msg.recv_elems())?
            } else {
                comm.recv(msg.link.rank, t)?
            };
            span.add_bytes(8 * data.len() as u64);
            let mut off = 0;
            for LinkPart { field, recv, .. } in &msg.parts {
                let (x, y, z) = (recv.x.clone(), recv.y.clone(), recv.z.clone());
                off += fields[*field].field().unpack_box(x, y, z, &data[off..]);
            }
            debug_assert_eq!(off, data.len());
        }
        self.exchanges += 1;
        Ok(())
    }

    /// Checksum-validated receive with bounded retry: a transient failure
    /// (timeout from an injected drop, rejected corrupt frame) is retried
    /// up to the policy's budget with linear backoff, because the runtime
    /// keeps the clean payload queued.  Non-transient errors and exhausted
    /// budgets propagate to the caller: the step fails, and in an elastic
    /// world its worker exits and is rolled back from disk.
    fn recv_validated(
        &self,
        comm: &Communicator,
        src: usize,
        tag: u32,
        expected: usize,
    ) -> CommResult<Vec<f64>> {
        let mut attempt = 1;
        loop {
            match comm.recv_framed(src, tag, expected) {
                Ok(data) => return Ok(data),
                Err(e) if e.is_transient() && attempt < self.retry.max_attempts => {
                    comm.stats().record_retry();
                    obs::Registry::global().counter("comm.recv_retries").inc();
                    if !self.retry.backoff.is_zero() {
                        std::thread::sleep(self.retry.backoff * attempt);
                    }
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Post + finish in one call (no overlap).
    pub fn exchange(
        &mut self,
        comm: &Communicator,
        depth: HaloWidths,
        fields: &mut [ExField<'_>],
    ) -> CommResult<()> {
        let pending = self.post_sends(comm, depth, fields)?;
        self.finish_recvs(comm, pending, fields)
    }

    /// Validate that `depth` fits inside every rank's local block along the
    /// decomposed axes (a deep halo cannot exceed a neighbour's interior).
    pub fn validate_depth(&self, depth: HaloWidths) -> Result<(), String> {
        let (nx, ny, nz) = self.decomp.global_extents();
        let (px, py, pz) = self.decomp.process_grid().dims();
        let min_block = |n: usize, p: usize| n / p; // smallest balanced block
        if px > 1 && depth.xm.max(depth.xp) > min_block(nx, px) {
            return Err(format!(
                "x halo depth {} exceeds smallest x block {}",
                depth.xm.max(depth.xp),
                min_block(nx, px)
            ));
        }
        if py > 1 && depth.ym.max(depth.yp) > min_block(ny, py) {
            return Err(format!(
                "y halo depth {} exceeds smallest y block {}",
                depth.ym.max(depth.yp),
                min_block(ny, py)
            ));
        }
        if pz > 1 && depth.zm.max(depth.zp) > min_block(nz, pz) {
            return Err(format!(
                "z halo depth {} exceeds smallest z block {}",
                depth.zm.max(depth.zp),
                min_block(nz, pz)
            ));
        }
        Ok(())
    }
}

/// Convenience: exchange the four prognostic components of a state.
pub fn state_fields<'a>(st: &'a mut crate::state::State) -> [ExField<'a>; 4] {
    [
        ExField::Volume(&mut st.u),
        ExField::Volume(&mut st.v),
        ExField::Volume(&mut st.phi),
        ExField::Surface(&mut st.psa),
    ]
}

/// Run `f` on the arrays of `set` in wire order: the state's components,
/// then whichever of the cached `C` outputs in `diag` the set names.
pub fn with_fields<R>(
    set: ExFields,
    st: &mut crate::state::State,
    diag: &mut Diag,
    f: impl FnOnce(&mut [ExField<'_>]) -> R,
) -> R {
    let [u, v, phi, psa] = state_fields(st);
    let gw = ExField::Volume(&mut diag.gw);
    match set {
        ExFields::State => f(&mut [u, v, phi, psa]),
        ExFields::StateGw => f(&mut [u, v, phi, psa, gw]),
        ExFields::StateC => {
            let vsum = ExField::Surface(&mut diag.vsum);
            let phi_p = ExField::Volume(&mut diag.phi_p);
            f(&mut [u, v, phi, psa, vsum, gw, phi_p])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agcm_comm::Universe;
    use agcm_mesh::ProcessGrid;

    fn decomp(py: usize, pz: usize) -> Decomposition {
        Decomposition::new((8, 12, 8), ProcessGrid::yz(py, pz).unwrap()).unwrap()
    }

    /// global value of field `fi` at (i, gj, gk)
    fn val(fi: usize, i: isize, gj: i64, gk: i64) -> f64 {
        (fi as f64 + 1.0) * 1000.0 + i as f64 + 10.0 * gj as f64 + 100.0 * gk as f64
    }

    #[test]
    fn exchange_fills_halos_with_neighbor_interiors() {
        // the deep exchange's bundle (3-D, surface and `nz + 1` interface
        // arrays) on a rank with y, z and diagonal links, on an interior
        // rank of a 3 x 3 grid, and under an x split whose two x links
        // lead to the same rank
        let grids = [
            ProcessGrid::yz(2, 2).unwrap(),
            ProcessGrid::yz(3, 3).unwrap(),
            ProcessGrid::xy(2, 2).unwrap(),
        ];
        let shapes = ExFields::StateC.shapes();
        for pgrid in grids {
            let d = Decomposition::new((8, 12, 9), pgrid).unwrap();
            let h = HaloWidths::uniform(2);
            // every array's value at a cell is a code of (field, owner's
            // global index), so a halo cell names the cell it must mirror
            let code = |fi: usize, rank: usize, (i, j, k): (isize, isize, isize)| {
                let sub = d.subdomain(rank);
                let g = |start: usize, l: isize| (start as isize + l) as f64;
                let at = g(sub.x.start, i) + 100.0 * g(sub.y.start, j) + 1e4 * g(sub.z.start, k);
                1e6 * (fi + 1) as f64 + at
            };
            let geoms = |rank| -> Vec<FieldGeom> {
                let sub = d.subdomain(rank).extents();
                shapes.iter().map(|s| s.geom(sub)).collect()
            };
            let errs = Universe::run(pgrid.size(), |comm| {
                let rank = comm.rank();
                let mut arrs: Vec<(Field3, bool)> = (geoms(rank).iter().enumerate())
                    .map(|(fi, &((nx, ny, nz), surface))| {
                        let mut a = match surface {
                            true => Field3::surface(nx, ny, h),
                            false => Field3::new(nx, ny, nz, h),
                        };
                        for k in 0..nz as isize {
                            for j in 0..ny as isize {
                                for i in 0..nx as isize {
                                    a.set(i, j, k, code(fi, rank, (i, j, k)));
                                }
                            }
                        }
                        (a, surface)
                    })
                    .collect();
                let mut ex = HaloExchanger::new(d.clone(), rank);
                let mut fields: Vec<ExField<'_>> = (arrs.iter_mut())
                    .map(|(f, surface)| match surface {
                        true => ExField::Surface(f),
                        false => ExField::Volume(f),
                    })
                    .collect();
                ex.exchange(comm, h, &mut fields).unwrap();
                // every halo cell a plan covers equals its owner's value:
                // the recv box mirrors the neighbour's send box on the
                // opposite link, cell for cell
                let msgs = link_messages(&d, rank, h, &geoms(rank));
                assert_eq!(msgs.len(), d.neighbors(rank).len());
                let mut errs = 0;
                for m in &msgs {
                    let (dx, dy, dz) = m.link.offset;
                    let theirs = link_messages(&d, m.link.rank, h, &geoms(m.link.rank));
                    let back = (theirs.iter())
                        .find(|t| t.link.rank == rank && t.link.offset == (-dx, -dy, -dz))
                        .expect("mirrored link");
                    assert_eq!(m.recv_elems(), back.send_elems());
                    // surface arrays ride `dz = 0` links only
                    let surface = m
                        .parts
                        .iter()
                        .filter(|p| shapes[p.field].is_surface())
                        .count();
                    assert_eq!(surface, if dz == 0 { 2 } else { 0 });
                    for (mine, theirs) in m.parts.iter().zip(&back.parts) {
                        let (fi, recv, send) = (mine.field, &mine.recv, &theirs.send);
                        assert_eq!(fi, theirs.field);
                        for (k, sk) in recv.z.clone().zip(send.z.clone()) {
                            for (j, sj) in recv.y.clone().zip(send.y.clone()) {
                                for (i, si) in recv.x.clone().zip(send.x.clone()) {
                                    let want = code(fi, m.link.rank, (si, sj, sk));
                                    errs += (arrs[fi].0.get(i, j, k) != want) as usize;
                                }
                            }
                        }
                    }
                }
                // one message per link, whatever the bundle's length
                let stats = comm.stats().snapshot();
                assert_eq!(stats.p2p_sends, msgs.len() as u64);
                let sent: usize = msgs.iter().map(LinkMessage::send_elems).sum();
                assert_eq!(stats.p2p_send_elems, sent as u64);
                errs
            });
            assert!(
                errs.iter().all(|&e| e == 0),
                "{pgrid:?}: halo errors {errs:?}"
            );
        }
    }

    #[test]
    fn interface_field_with_extra_level() {
        // a gw-like field with nz+1 levels exchanges consistently
        let results = Universe::run(2, |comm| {
            let d = decomp(1, 2);
            let sub = d.subdomain(comm.rank());
            let (nx, ny, nz) = sub.extents();
            let h = HaloWidths {
                xm: 0,
                xp: 0,
                ym: 0,
                yp: 0,
                zm: 2,
                zp: 2,
            };
            let mut f = Field3::new(nx, ny, nz + 1, h);
            for k in 0..(nz + 1) as isize {
                for j in 0..ny as isize {
                    for i in 0..nx as isize {
                        // interface "global" index
                        let gk = sub.z.start as i64 + k as i64;
                        f.set(i, j, k, 7.0 * gk as f64 + i as f64);
                    }
                }
            }
            let mut ex = HaloExchanger::new(d, comm.rank());
            let mut fields = [ExField::Volume(&mut f)];
            ex.exchange(comm, h, &mut fields).unwrap();
            // rank 0's bottom halo should hold rank 1's first interfaces
            if comm.rank() == 0 {
                let nzl = nz as isize;
                // rank 1 owns global levels starting at 4: its k=0 value
                // is 7*4; our halo k = nzl+1 receives its k = 0..2 —
                // wait: plan sends [0, zp) = first 2 levels of the nz+1
                // field, received into [nz+1, nz+1+2) — mapped here:
                let got = f.get(0, 0, nzl + 1);
                assert_eq!(got, 7.0 * 4.0);
                let got = f.get(0, 0, nzl + 2);
                assert_eq!(got, 7.0 * 5.0);
            }
            true
        });
        assert!(results.into_iter().all(|b| b));
    }

    #[test]
    fn overlap_post_then_finish() {
        let results = Universe::run(2, |comm| {
            let d = decomp(2, 1);
            let sub = d.subdomain(comm.rank());
            let (nx, ny, nz) = sub.extents();
            let h = HaloWidths {
                xm: 0,
                xp: 0,
                ym: 1,
                yp: 1,
                zm: 0,
                zp: 0,
            };
            let mut f = Field3::new(nx, ny, nz, h);
            f.fill(comm.rank() as f64 + 1.0);
            let mut ex = HaloExchanger::new(d, comm.rank());
            let mut fields = [ExField::Volume(&mut f)];
            let pending = ex.post_sends(comm, h, &mut fields).unwrap();
            // ... computation would happen here ...
            let overlap_work: f64 = (0..100).map(|i| i as f64).sum();
            ex.finish_recvs(comm, pending, &mut fields).unwrap();
            assert_eq!(ex.exchanges, 1);
            let f = fields[0].field();
            let other = 2.0 - comm.rank() as f64;
            // halo toward the neighbour holds its value
            if comm.rank() == 0 {
                assert_eq!(f.get(0, ny as isize, 0), other);
            } else {
                assert_eq!(f.get(0, -1, 0), other);
            }
            overlap_work > 0.0
        });
        assert!(results.into_iter().all(|b| b));
    }

    /// FNV-1a over the raw f64 bits — cheap bitwise fingerprint so the test
    /// below compares whole fields without cloning them out of each rank.
    fn fnv1a_bits(data: &[f64]) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        for v in data {
            for b in v.to_bits().to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        }
        h
    }

    #[test]
    fn framed_exchange_is_bitwise_identical_and_counts_match() {
        // the resilient (framed) exchange must move exactly the same data
        // and record exactly the same certified traffic as the plain one
        let run = |framed: bool| {
            Universe::run(4, move |comm| {
                let d = decomp(2, 2);
                let sub = d.subdomain(comm.rank());
                let (nx, ny, nz) = sub.extents();
                let h = HaloWidths::uniform(2);
                let mut f = Field3::new(nx, ny, nz, h);
                for k in 0..nz as isize {
                    for j in 0..ny as isize {
                        for i in 0..nx as isize {
                            let gj = sub.y.start as i64 + j as i64;
                            let gk = sub.z.start as i64 + k as i64;
                            f.set(i, j, k, val(0, i, gj, gk));
                        }
                    }
                }
                let mut ex = HaloExchanger::new(d, comm.rank());
                ex.set_framed(framed);
                let mut fields = [ExField::Volume(&mut f)];
                ex.exchange(comm, h, &mut fields).unwrap();
                (fnv1a_bits(f.raw()), comm.stats().snapshot())
            })
        };
        let plain = run(false);
        let resilient = run(true);
        for (p, r) in plain.iter().zip(&resilient) {
            assert_eq!(p.0, r.0, "framed exchange changed the data");
            assert_eq!(
                p.1, r.1,
                "framing must not perturb certified traffic counts"
            );
        }
    }

    #[test]
    fn framed_recv_retries_through_injected_drop_and_corruption() {
        use agcm_comm::FaultPlan;
        let results = Universe::run(2, |comm| {
            comm.install_faults(
                FaultPlan::parse(77, "drop:rank=0,user=1,nth=1;corrupt:rank=1,user=1,nth=1")
                    .unwrap(),
            );
            comm.set_timeout(std::time::Duration::from_millis(300));
            let d = decomp(2, 1);
            let sub = d.subdomain(comm.rank());
            let (nx, ny, nz) = sub.extents();
            let h = HaloWidths {
                xm: 0,
                xp: 0,
                ym: 2,
                yp: 2,
                zm: 0,
                zp: 0,
            };
            let mut f = Field3::new(nx, ny, nz, h);
            f.fill(comm.rank() as f64 + 1.0);
            let mut ex = HaloExchanger::new(d, comm.rank());
            ex.set_framed(true);
            let mut fields = [ExField::Volume(&mut f)];
            ex.exchange(comm, h, &mut fields).unwrap();
            let got = if comm.rank() == 0 {
                f.get(0, ny as isize, 0)
            } else {
                f.get(0, -1, 0)
            };
            (got, comm.stats().fault_snapshot())
        });
        // both faults fired and the exchange still delivered clean halos
        assert_eq!(results[0].0, 2.0);
        assert_eq!(results[1].0, 1.0);
        assert_eq!(results[0].1.dropped, 1);
        assert_eq!(results[1].1.corrupted, 1);
        let retries: u64 = results.iter().map(|r| r.1.retries).sum();
        assert!(retries >= 2, "both faults need retries, saw {retries}");
    }

    #[test]
    fn tags_of_adjacent_epochs_do_not_collide() {
        // 23 bits of seq: the 20-bit field wrapped at epoch 256, so epoch
        // 256's first exchange reused epoch 0's tags
        let first = |epoch: u64| wire_tag(epoch << 12, 13);
        let last = |epoch: u64| wire_tag((epoch << 12) + 4095, 13);
        for (a, b) in [(0, 256), (255, 256), (256, 257), (0, 2047), (2046, 2047)] {
            assert_ne!(first(a), first(b), "epochs {a} / {b}");
            assert_ne!(last(a), first(b), "epochs {a} / {b}");
        }
        assert_eq!(first(0), first(2048), "the 23-bit field wraps at 2048");
        // user tags keep the collective bit clear, directions stay distinct
        assert_eq!(last(2047) & 0x8000_0000, 0);
        let dirs: std::collections::HashSet<u32> = (0..27).map(|d| wire_tag(5, d)).collect();
        assert_eq!(dirs.len(), 27);
    }

    #[test]
    fn depth_validation() {
        let d = decomp(3, 2); // y blocks of 4, z blocks of 4
        let ex = HaloExchanger::new(d, 0);
        assert!(ex.validate_depth(HaloWidths::uniform(4)).is_ok());
        assert!(ex.validate_depth(HaloWidths::uniform(5)).is_err());
        // undecomposed axes are unconstrained
        let mut h = HaloWidths::uniform(2);
        h.xm = 100;
        h.xp = 100;
        assert!(ex.validate_depth(h).is_ok());
    }

    #[test]
    fn consecutive_exchanges_do_not_cross_match() {
        // two exchanges back-to-back with different data: sequence-stamped
        // tags must keep them separate even when one rank runs ahead
        let results = Universe::run(2, |comm| {
            let d = decomp(2, 1);
            let sub = d.subdomain(comm.rank());
            let (nx, ny, nz) = sub.extents();
            let h = HaloWidths {
                xm: 0,
                xp: 0,
                ym: 1,
                yp: 1,
                zm: 0,
                zp: 0,
            };
            let mut f = Field3::new(nx, ny, nz, h);
            let mut ex = HaloExchanger::new(d, comm.rank());
            f.fill(10.0 + comm.rank() as f64);
            {
                let mut fields = [ExField::Volume(&mut f)];
                ex.exchange(comm, h, &mut fields).unwrap();
            }
            let first = if comm.rank() == 0 {
                f.get(0, ny as isize, 0)
            } else {
                f.get(0, -1, 0)
            };
            // mutate and exchange again
            for j in 0..ny as isize {
                for i in 0..nx as isize {
                    f.set(i, j, 0, 20.0 + comm.rank() as f64);
                }
            }
            {
                let mut fields = [ExField::Volume(&mut f)];
                ex.exchange(comm, h, &mut fields).unwrap();
            }
            let second = if comm.rank() == 0 {
                f.get(0, ny as isize, 0)
            } else {
                f.get(0, -1, 0)
            };
            (first, second)
        });
        assert_eq!(results[0], (11.0, 21.0));
        assert_eq!(results[1], (10.0, 20.0));
    }
}
