//! Halo traffic is counted where it is sent: around every collective kind,
//! interleaved with halo messages on user tags, a window's halo count —
//! as `p2p_only_delta` reports it from a stats delta and the window's
//! collective events — is exactly the halo messages and elements the rank
//! sent, whatever rounds the collective ran.

use agcm_comm::{p2p_only_delta, Communicator, ReduceOp, Universe};

/// One collective call, as a window's subject.
type Collective = Box<dyn Fn(&Communicator)>;

/// Every collective kind at `p` ranks: a barrier, an allreduce of 1 and of
/// `p + 1` values, a bcast from every root, an allgather, a gatherv and an
/// alltoallv, the last two with a rank's own payload sizes.
fn collectives(p: usize) -> Vec<(String, Collective)> {
    let mut out: Vec<(String, Collective)> =
        vec![("barrier".into(), Box::new(|c| c.barrier().unwrap()))];
    for n in [1, p + 1] {
        let allreduce = move |c: &Communicator| {
            c.allreduce(ReduceOp::Sum, &mut vec![1.0; n]).unwrap();
        };
        out.push((format!("allreduce n={n}"), Box::new(allreduce)));
    }
    for root in 0..p {
        let bcast = move |c: &Communicator| c.bcast(root, &mut [2.0; 3]).unwrap();
        out.push((format!("bcast root={root}"), Box::new(bcast)));
    }
    out.push((
        "allgather".into(),
        Box::new(|c| drop(c.allgather(&[1.0, 2.0]).unwrap())),
    ));
    let gatherv = |c: &Communicator| drop(c.gatherv(0, &vec![1.0; c.rank() + 1]).unwrap());
    out.push(("gatherv".into(), Box::new(gatherv)));
    let alltoallv = |c: &Communicator| {
        let send: Vec<Vec<f64>> = (0..c.size()).map(|d| vec![0.5; c.rank() + d + 1]).collect();
        drop(c.alltoallv(&send).unwrap());
    };
    out.push(("alltoallv".into(), Box::new(alltoallv)));
    out
}

/// Rank `r`'s halo messages of a window to the next rank: `r % 3 + 1` of
/// them before the collective and one after, each `r + 10` values long.
fn halo_plan(r: usize) -> (usize, usize) {
    (r % 3 + 1, r + 10)
}

#[test]
fn halo_counts_are_exact_around_every_collective_kind() {
    for p in 1..=5 {
        let mismatches = Universe::run(p, |comm| {
            comm.stats().set_event_logging(true);
            let (r, next, prev) = (
                comm.rank(),
                (comm.rank() + 1) % p,
                (comm.rank() + p - 1) % p,
            );
            let mut bad = Vec::new();
            for (name, collective) in collectives(p) {
                let (s0, e0) = (
                    comm.stats().snapshot(),
                    comm.stats().collective_events().len(),
                );
                let (before, len) = halo_plan(r);
                for tag in 0..before as u32 {
                    comm.send(next, tag, &vec![1.0; len]).unwrap();
                }
                collective(comm);
                comm.send(next, 99, &vec![1.0; len]).unwrap();
                let (from, from_len) = halo_plan(prev);
                for tag in (0..from as u32).chain([99]) {
                    comm.recv_exact(prev, tag, from_len).unwrap();
                }
                let d = comm.stats().snapshot().delta(&s0);
                let events = &comm.stats().collective_events()[e0..];
                let halo = p2p_only_delta(&d, events);
                let want = ((before + 1) as u64, ((before + 1) * len) as u64);
                let got = (halo.p2p_sends, halo.p2p_send_elems);
                if got != want {
                    bad.push(format!(
                        "p={p} rank {r} {name}: halo {got:?}, sent {want:?}"
                    ));
                }
                assert_eq!(d.collective_calls, 1, "{name}");
            }
            bad
        });
        let bad: Vec<String> = mismatches.into_iter().flatten().collect();
        assert!(bad.is_empty(), "{}", bad.join("\n"));
    }
}
