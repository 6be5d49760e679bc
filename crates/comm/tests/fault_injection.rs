//! Integration tests of the deterministic fault-injection layer: each
//! fault kind end to end through real rank threads, the byte-for-byte
//! schedule-replay guarantee, and the fail-fast poison path when a rank
//! panics (no full-timeout hang at p = 4).

use agcm_comm::{CommError, FaultKind, FaultPlan, Universe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHORT: Duration = Duration::from_millis(200);

#[test]
fn identical_plans_replay_identical_schedules() {
    let run = || {
        Universe::run(2, |comm| {
            let plan = FaultPlan::parse(0xA11CE, "delay:prob=0.4,k=3;stall:prob=0.2,ms=1");
            comm.install_faults(plan.unwrap());
            comm.set_timeout(SHORT);
            let other = 1 - comm.rank();
            for i in 0..20u32 {
                comm.send(other, i, &[comm.rank() as f64, i as f64])
                    .unwrap();
            }
            for i in 0..20u32 {
                // a held message is released before this rank blocks
                let got = comm.recv(other, i).expect("every message arrives");
                assert_eq!(got, [other as f64, i as f64]);
            }
            (comm.fault_log(), comm.stats().fault_snapshot())
        })
    };
    let a = run();
    let b = run();
    assert_eq!(a[0].0, b[0].0, "rank 0 schedule must replay byte-for-byte");
    assert_eq!(a[1].0, b[1].0, "rank 1 schedule must replay byte-for-byte");
    assert_eq!(a[0].1, b[0].1);
    let total: u64 = a.iter().map(|(_, s)| s.total()).sum();
    assert!(total > 0, "a 40%/20% plan over 40 sends must fire");
}

#[test]
fn different_seeds_differ() {
    let run = |seed: u64| {
        Universe::run(2, |comm| {
            comm.install_faults(FaultPlan::parse(seed, "delay:prob=0.5").unwrap());
            comm.set_timeout(SHORT);
            let other = 1 - comm.rank();
            for i in 0..32u32 {
                comm.send(other, i, &[i as f64]).unwrap();
            }
            for i in 0..32u32 {
                comm.recv(other, i).unwrap();
            }
            comm.fault_log()
        })
    };
    assert_ne!(run(1), run(2), "seeds must select different schedules");
}

#[test]
fn delay_reorders_but_all_messages_arrive() {
    let results = Universe::run(2, |comm| {
        comm.install_faults(FaultPlan::parse(9, "delay:rank=0,user=1,nth=1,k=4").unwrap());
        comm.set_timeout(Duration::from_secs(2));
        if comm.rank() == 0 {
            for i in 0..6u32 {
                comm.send(1, i, &[i as f64]).unwrap();
            }
            comm.stats().fault_snapshot().delayed
        } else {
            for i in (0..6u32).rev() {
                assert_eq!(comm.recv(0, i).unwrap(), vec![i as f64]);
            }
            0
        }
    });
    assert_eq!(results[0], 1, "exactly one send delayed");
}

#[test]
fn delayed_message_flushed_at_teardown() {
    // a delay whose release point is never reached must still be delivered
    // when the sender's communicator winds down (Drop flush)
    let results = Universe::run(2, |comm| {
        comm.install_faults(FaultPlan::parse(2, "delay:rank=0,user=1,nth=1,k=100000").unwrap());
        comm.set_timeout(Duration::from_secs(5));
        if comm.rank() == 0 {
            comm.send(1, 3, &[42.0]).unwrap();
            None
        } else {
            Some(comm.recv(0, 3).unwrap())
        }
    });
    assert_eq!(results[1].as_ref().unwrap(), &vec![42.0]);
}

#[test]
fn stall_injects_measurable_latency() {
    let results = Universe::run(2, |comm| {
        comm.install_faults(FaultPlan::parse(1, "stall:rank=0,event=0,ms=60").unwrap());
        let t0 = Instant::now();
        let other = 1 - comm.rank();
        comm.send(other, 1, &[0.0]).unwrap();
        comm.recv(other, 1).unwrap();
        (t0.elapsed(), comm.stats().fault_snapshot().stalled)
    });
    assert!(
        results[0].0 >= Duration::from_millis(50),
        "rank 0 must feel the stall, took {:?}",
        results[0].0
    );
    assert_eq!(results[0].1, 1);
}

#[test]
fn crash_fails_survivors_fast_at_p4() {
    // rank 2 crashes on its first operation; the other three ranks are
    // blocked in recv and must fail with PeerFailed well before the
    // deadlock timeout (the pre-poison behaviour was a full-timeout hang)
    let timeout = Duration::from_secs(30);
    let survivor_errs: Arc<[AtomicU64; 4]> = Arc::new(std::array::from_fn(|_| AtomicU64::new(0)));
    let errs = Arc::clone(&survivor_errs);
    let t0 = Instant::now();
    let panicked = std::panic::catch_unwind(move || {
        Universe::run(4, move |comm| {
            comm.install_faults(FaultPlan::parse(1, "crash:rank=2,event=0").unwrap());
            comm.set_timeout(timeout);
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(next, 1, &[comm.rank() as f64]).unwrap();
            if let Err(CommError::PeerFailed { peer: 2 }) = comm.recv(prev, 1) {
                errs[comm.rank()].store(1, Ordering::SeqCst);
            }
        })
    })
    .is_err();
    assert!(panicked, "the injected crash must propagate at join");
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "survivors must fail fast, not wait out the 30 s timeout"
    );
    // ranks 1 and 3 receive from a live peer and may succeed; rank 3
    // receives *from* rank 2 and must observe the failure
    assert_eq!(survivor_errs[3].load(Ordering::SeqCst), 1);
}

#[test]
fn plain_panic_poisons_peers() {
    // the poison path is independent of fault injection: any rank panic
    // (assertion, bug) must fail peers fast with PeerFailed
    let t0 = Instant::now();
    let flag = Arc::new(AtomicU64::new(0));
    let f = Arc::clone(&flag);
    let panicked = std::panic::catch_unwind(move || {
        Universe::run(2, move |comm| {
            comm.set_timeout(Duration::from_secs(30));
            if comm.rank() == 1 {
                panic!("boom");
            }
            if let Err(CommError::PeerFailed { peer: 1 }) = comm.recv(1, 7) {
                f.store(1, Ordering::SeqCst);
            }
        })
    })
    .is_err();
    assert!(panicked);
    assert_eq!(flag.load(Ordering::SeqCst), 1, "rank 0 saw PeerFailed");
    assert!(t0.elapsed() < Duration::from_secs(10));
}

#[test]
fn timeout_error_carries_context() {
    let results = Universe::run(2, |comm| {
        comm.set_timeout(Duration::from_millis(40));
        if comm.rank() == 0 {
            comm.send(1, 1, &[0.0]).unwrap(); // give rank 0 some history
            comm.recv(1, 99).err()
        } else {
            comm.recv(0, 1)
                .ok()
                .map(|_| CommError::PeerGone { peer: 0 })
        }
    });
    match results[0].as_ref().unwrap() {
        CommError::DeadlockTimeout {
            src: 1,
            tag: 99,
            events_so_far,
            ..
        } => {
            assert!(
                *events_so_far >= 1,
                "context must count the preceding send, got {events_so_far}"
            );
        }
        other => panic!("expected contextual timeout, got {other:?}"),
    }
}

#[test]
fn faults_reach_split_communicators() {
    // install on world, then split: the shared per-rank event clock keeps
    // firing inside the sub-communicator
    let results = Universe::run(4, |comm| {
        comm.install_faults(FaultPlan::parse(13, "delay:user=1,nth=1").unwrap());
        comm.set_timeout(SHORT);
        let sub = comm.split(comm.rank() % 2, comm.rank()).unwrap();
        let other = 1 - sub.rank();
        sub.send(other, 1, &[1.0]).unwrap();
        assert_eq!(sub.recv(other, 1).unwrap(), [1.0]);
        comm.stats().fault_snapshot().delayed
    });
    assert!(
        results.iter().all(|&d| d == 1),
        "each rank's first user send delayed: {results:?}"
    );
}

#[test]
fn fault_log_records_kinds() {
    let results = Universe::run(2, |comm| {
        comm.install_faults(
            FaultPlan::parse(21, "delay:rank=0,tag=1,nth=1;stall:rank=0,tag=2,nth=1,ms=1").unwrap(),
        );
        comm.set_timeout(SHORT);
        if comm.rank() == 0 {
            comm.send(1, 1, &[1.0]).unwrap();
            comm.send(1, 2, &[2.0]).unwrap();
        } else {
            assert_eq!(comm.recv(0, 1).unwrap(), [1.0]);
            assert_eq!(comm.recv(0, 2).unwrap(), [2.0]);
        }
        comm.fault_log()
    });
    let kinds: Vec<FaultKind> = results[0].iter().map(|e| e.kind).collect();
    assert_eq!(kinds, vec![FaultKind::Delay, FaultKind::Stall]);
    assert_eq!(results[0][0].event, 0);
    assert_eq!(results[0][1].event, 1);
    assert!(results[1].is_empty(), "rank 1 injected nothing");
}
