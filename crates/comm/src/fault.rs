//! Deterministic fault injection.
//!
//! A [`FaultPlan`] describes a set of faults to inject into a run: message
//! **delay** (reordering), rank **stall** and **crash**, plus one dial that
//! is not a fault: a fixed per-message receive **latency** (`lat`).  Every
//! decision is a pure function of the plan's seed and the *site* of the
//! communication operation — `(rank, peer, tag, event#, phase)` — mixed
//! through splitmix64, so a given seed replays the exact same fault
//! schedule on every run, independent of thread timing.  The per-rank
//! *event index* (a counter of that rank's **sends**, shared by all
//! communicators split from it) provides the deterministic clock: sends
//! are posted exactly once per logical operation, whereas how often a
//! receive polls its transport depends on timing, so only a send-counting
//! clock is immune to it.
//!
//! There is no lossy link to simulate: both transports deliver every
//! envelope once, whole and in order per sender, and a socket frame that
//! arrives damaged fails its integrity hash, poisons the mailbox and ends
//! the world as a typed [`crate::CommError::PeerFailed`] (crash-only
//! restart takes it from there).  The kinds `drop`, `corrupt` and `dup`
//! and the `bit` key are therefore refused by name ([`FaultPlan::parse`]).
//!
//! Plans come from the API ([`crate::Communicator::install_faults`]) or
//! from the environment:
//!
//! * `AGCM_FAULT_SPEC` — `;`-separated rules, e.g.
//!   `delay:rank=1,user=1,nth=3,k=4;stall:rank=2,event=40,ms=20`
//! * `AGCM_FAULT_SEED` — decimal seed (default `24473` when only the spec
//!   is set).
//!
//! Rule grammar: `<kind>:<key>=<value>,...` with kinds `delay`, `stall`,
//! `crash`, `lat` and keys
//!
//! | key     | meaning                                                    |
//! |---------|------------------------------------------------------------|
//! | `rank`  | only this injecting (world) rank                           |
//! | `peer`  | only messages to this destination (world rank)             |
//! | `tag`   | only this exact wire tag                                   |
//! | `user`  | `1`: only user (non-collective) tags                       |
//! | `event` | only this per-rank event (send) index                      |
//! | `nth`   | the n-th (1-based) operation matching the other filters    |
//! | `prob`  | fire with this probability per matching event (seeded)     |
//! | `phase` | only inside this operator phase (`A,C,F,L,S1,S2,other`)    |
//! | `k`     | *delay*: release after this many further events (default 2)|
//! | `ms`    | *stall*: sleep milliseconds (default 20)                   |
//! | `us`    | *lat*: microseconds every matching message arrives late    |
//!
//! A `prob` rule's draws are a function of the seed, the site and the
//! rule's place among the rules that have neither `event` nor `nth`, so a
//! pinned rule put ahead of it — the parent's `crash:rank=R,event=E` for a
//! kill — leaves them as they were.
//!
//! All fault kinds fire at send sites (the clock ticks on sends); `stall`
//! and `crash` model slow-rank jitter and fail-stop process faults at the
//! chosen send.  A `crash` is the one way a rank is killed: a rank that is
//! its own process `abort()`s there, as `kill -9` would end it, and a rank
//! of an in-process world (a thread) panics, so that its harness can
//! poison its peers and re-throw at join.
//!
//! `lat:us=N` is the latency dial of a host that has none: the receiver of
//! **every** matching message (the `rank`/`peer`/`tag`/`user`/`phase`
//! filters apply; it takes no selector) waits `N` µs past the
//! message's arrival before it returns — a per-message `α`, where `stall`
//! sleeps a rank once.  It never touches the fault clock, the log or the
//! counters, so a plan replays the same with or without it
//! ([`FaultPlan::recv_latency`]).  Every fired fault is appended to a per-rank log
//! ([`crate::Communicator::fault_log`]) and counted in
//! [`crate::stats::FaultSnapshot`]; with tracing enabled each firing also
//! emits an `agcm-obs` instant event and bumps a `comm.fault.*` counter.

use agcm_obs::Phase;
use std::fmt;
use std::io;

/// One splitmix64 output for input `z` (stateless mixer; the de-facto
/// standard seeding PRNG, also used by the repo's property tests).
#[inline]
pub fn splitmix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What a fault does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The send is held back and released a few events later (reordering).
    Delay,
    /// The rank sleeps at this event (slow-rank / OS-jitter model).
    Stall,
    /// The rank dies at this event (fail-stop process fault).
    Crash,
    /// Every matching message reaches its receiver a fixed time late.
    Lat,
}

impl FaultKind {
    /// Stable lower-case label (spec syntax and metric names).
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Delay => "delay",
            FaultKind::Stall => "stall",
            FaultKind::Crash => "crash",
            FaultKind::Lat => "lat",
        }
    }
}

/// One selection rule of a [`FaultPlan`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// What to inject.
    pub kind: FaultKind,
    /// Only this injecting world rank (`None` = any).
    pub rank: Option<usize>,
    /// Only sends to this destination world rank.
    pub peer: Option<usize>,
    /// Only this exact wire tag.
    pub tag: Option<u32>,
    /// Only user (non-collective) tags.
    pub user_only: bool,
    /// Only this per-rank event index.
    pub event: Option<u64>,
    /// Only the n-th (1-based) event matching every other filter.
    pub nth: Option<u64>,
    /// Firing probability per matching event (ignored when `event`/`nth`
    /// pins the rule).
    pub prob: f64,
    /// Only inside this operator phase.
    pub phase: Option<Phase>,
    /// `Delay`: release the held message after this many further events.
    pub delay_events: u64,
    /// `Stall`: sleep duration in milliseconds.
    pub stall_ms: u64,
    /// `Lat`: microseconds a matching message arrives late.
    pub lat_us: u64,
}

impl FaultRule {
    /// A wildcard rule of `kind` (matches nothing until `prob`/`event`/
    /// `nth` make it fire).
    pub fn new(kind: FaultKind) -> Self {
        FaultRule {
            kind,
            rank: None,
            peer: None,
            tag: None,
            user_only: false,
            event: None,
            nth: None,
            prob: 0.0,
            phase: None,
            delay_events: 2,
            stall_ms: 20,
            lat_us: 0,
        }
    }
}

impl FaultRule {
    /// Whether the rule's `rank`/`peer`/`tag`/`user`/`phase` filters admit
    /// `site`.
    fn matches(&self, site: &FaultSite) -> bool {
        self.rank.is_none_or(|r| r == site.rank)
            && self.peer.is_none_or(|p| p == site.peer)
            && self.tag.is_none_or(|t| t == site.tag)
            && (!self.user_only || site.user_tag)
            && self.phase.is_none_or(|p| p == site.phase)
    }
}

/// The site of one communication operation, as seen by the injector.
#[derive(Debug, Clone, Copy)]
pub struct FaultSite {
    /// World rank executing the operation.
    pub rank: usize,
    /// Destination world rank (sends) / expected source (recvs).
    pub peer: usize,
    /// Wire tag.
    pub tag: u32,
    /// Whether the tag is a user (non-collective) tag.
    pub user_tag: bool,
    /// Per-rank event (send) index of this operation.
    pub event: u64,
    /// Operator phase active on the calling thread.
    pub phase: Phase,
}

/// A resolved fault to apply at a site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Hold the message for this many further events.
    Delay {
        /// Events to hold the message for.
        events: u64,
    },
    /// Sleep for this many milliseconds.
    Stall {
        /// Sleep duration in milliseconds.
        ms: u64,
    },
    /// End the calling rank.
    Crash,
}

/// A fired fault (the deterministic schedule record; two runs with the
/// same plan produce identical logs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// What fired.
    pub kind: FaultKind,
    /// Injecting world rank.
    pub rank: usize,
    /// Peer world rank of the operation.
    pub peer: usize,
    /// Wire tag of the operation.
    pub tag: u32,
    /// Per-rank event index.
    pub event: u64,
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}@rank{} peer={} tag={:#x} event={}",
            self.kind.label(),
            self.rank,
            self.peer,
            self.tag,
            self.event
        )
    }
}

/// A seeded, deterministic fault schedule.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed mixed into every decision.
    pub seed: u64,
    /// Selection rules; the first firing rule wins.
    pub rules: Vec<FaultRule>,
}

/// Default seed when `AGCM_FAULT_SPEC` is set without `AGCM_FAULT_SEED`.
pub const DEFAULT_SEED: u64 = 24473;

/// Why a lossy-link kind or the `bit` key is refused.
const RELIABLE: &str = "the transports are reliable, and a damaged frame fails its hash and \
                        ends the world (crash-only restart), so there is no lossy link to simulate";

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Parse a spec string (see the module docs for the grammar).
    pub fn parse(seed: u64, spec: &str) -> Result<FaultPlan, String> {
        let mut rules = Vec::new();
        for part in spec.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (kind_s, args) = part.split_once(':').unwrap_or((part, ""));
            let kind = match kind_s.trim() {
                k @ ("drop" | "corrupt" | "dup") => {
                    return Err(format!("fault kind '{k}' is refused: {RELIABLE}"))
                }
                "delay" => FaultKind::Delay,
                "stall" => FaultKind::Stall,
                "crash" => FaultKind::Crash,
                "lat" => FaultKind::Lat,
                other => return Err(format!("unknown fault kind '{other}'")),
            };
            let mut rule = FaultRule::new(kind);
            // the latency dial applies to every matching message
            let mut selective = kind == FaultKind::Lat;
            for kv in args.split(',') {
                let kv = kv.trim();
                if kv.is_empty() {
                    continue;
                }
                let (k, v) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("'{kv}': expected key=value"))?;
                let (k, v) = (k.trim(), v.trim());
                if v == "*" {
                    continue; // explicit wildcard
                }
                let parse_u64 =
                    |v: &str| v.parse::<u64>().map_err(|_| format!("'{v}': not a number"));
                match k {
                    "rank" => rule.rank = Some(parse_u64(v)? as usize),
                    "peer" => rule.peer = Some(parse_u64(v)? as usize),
                    "tag" => rule.tag = Some(parse_u64(v)? as u32),
                    "user" => rule.user_only = parse_u64(v)? != 0,
                    "event" => {
                        rule.event = Some(parse_u64(v)?);
                        selective = true;
                    }
                    "nth" => {
                        let n = parse_u64(v)?;
                        if n == 0 {
                            return Err("nth is 1-based".into());
                        }
                        rule.nth = Some(n);
                        selective = true;
                    }
                    "prob" => {
                        rule.prob = v
                            .parse::<f64>()
                            .map_err(|_| format!("'{v}': not a probability"))?;
                        selective = true;
                    }
                    "phase" => {
                        rule.phase = Some(match v {
                            "A" | "a" => Phase::A,
                            "C" | "c" => Phase::C,
                            "F" | "f" => Phase::F,
                            "L" | "l" => Phase::L,
                            "S1" | "s1" => Phase::S1,
                            "S2" | "s2" => Phase::S2,
                            "other" => Phase::Other,
                            other => return Err(format!("unknown phase '{other}'")),
                        })
                    }
                    "k" => rule.delay_events = parse_u64(v)?.max(1),
                    "ms" => rule.stall_ms = parse_u64(v)?,
                    "us" => rule.lat_us = parse_u64(v)?,
                    "bit" => return Err(format!("fault key 'bit' is refused: {RELIABLE}")),
                    other => return Err(format!("unknown fault key '{other}'")),
                }
            }
            if !selective {
                // bare rule like `stall:rank=2` fires on every matching
                // event unless pinned; require an explicit selector so a
                // typo cannot melt a run silently
                return Err(format!(
                    "rule '{part}' needs a selector (event=, nth= or prob=)"
                ));
            }
            rules.push(rule);
        }
        Ok(FaultPlan { seed, rules })
    }

    /// Build a plan from `AGCM_FAULT_SPEC` / `AGCM_FAULT_SEED`: `None` when
    /// no spec is set, an error naming the variable when either is
    /// malformed — a typo'd seed must not silently replay the *default*
    /// schedule, nor a typo'd spec run fault-free.
    pub fn try_from_env() -> Result<Option<FaultPlan>, String> {
        let spec = std::env::var("AGCM_FAULT_SPEC").unwrap_or_default();
        if spec.trim().is_empty() {
            return Ok(None);
        }
        let seed = crate::env::parse_env("AGCM_FAULT_SEED").map_err(|e| e.to_string())?;
        FaultPlan::parse(seed.unwrap_or(DEFAULT_SEED), &spec)
            .map(Some)
            .map_err(|e| format!("invalid AGCM_FAULT_SPEC={spec:?}: {e}"))
    }

    /// [`FaultPlan::try_from_env`], panicking on a malformed variable (a
    /// communicator has no error channel at construction; `agcm-run` and
    /// `agcm-soak` refuse one at their entry instead).
    pub fn from_env() -> Option<FaultPlan> {
        Self::try_from_env().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Decide deterministically whether a fault fires at the send `site`.
    /// `nth_counts` must hold one counter per rule (the per-rank match
    /// counters backing `nth=`); the first firing rule wins.
    pub fn decide(&self, site: &FaultSite, nth_counts: &mut [u64]) -> Option<FaultAction> {
        debug_assert_eq!(nth_counts.len(), self.rules.len());
        for (i, rule) in self.rules.iter().enumerate() {
            // the latency dial is not a fault: see `recv_latency`
            if rule.kind == FaultKind::Lat || !rule.matches(site) {
                continue;
            }
            let fired = if let Some(ev) = rule.event {
                ev == site.event
            } else if let Some(n) = rule.nth {
                nth_counts[i] += 1;
                nth_counts[i] == n
            } else {
                // seeded Bernoulli: pure function of (seed, rule, site).  A
                // rule is numbered among the rules without `event=` or
                // `nth=`, so a pinned rule put ahead of it (a kill's
                // `crash:rank=R,event=E`) leaves its draws as they were
                let unpinned = self.rules[..i]
                    .iter()
                    .filter(|r| r.event.is_none() && r.nth.is_none());
                let h = splitmix64(
                    self.seed
                        ^ splitmix64(unpinned.count() as u64)
                        ^ splitmix64(site.rank as u64 ^ (site.peer as u64) << 20)
                        ^ splitmix64(site.tag as u64 ^ site.event << 32),
                );
                (h >> 11) as f64 / (1u64 << 53) as f64 > 1.0 - rule.prob
            };
            if !fired {
                continue;
            }
            return Some(match rule.kind {
                FaultKind::Delay => FaultAction::Delay {
                    events: rule.delay_events,
                },
                FaultKind::Stall => FaultAction::Stall { ms: rule.stall_ms },
                FaultKind::Crash => FaultAction::Crash,
                FaultKind::Lat => unreachable!("skipped above"),
            });
        }
        None
    }

    /// How late the message received at `site` (the receiving rank, the
    /// sender as its peer) arrives: the sum of the
    /// plan's matching `lat` rules.  A pure function of the plan and the
    /// site's rank, peer, tag and phase — no clock, no counters, no log.
    pub fn recv_latency(&self, site: &FaultSite) -> std::time::Duration {
        let us = self
            .rules
            .iter()
            .filter(|r| r.kind == FaultKind::Lat && r.matches(site))
            .map(|r| r.lat_us)
            .sum();
        std::time::Duration::from_micros(us)
    }
}

const HASH_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const HASH_PRIME: u64 = 0x0000_0100_0000_01B3;

/// One step of the integrity hash: FNV-1a's xor-then-multiply with a whole
/// `u64` word per multiply instead of a byte, so the dependent multiply
/// chain is an eighth as long.  The prime is odd, so for a fixed `word` the
/// step is a bijection of `h`, and for a fixed `h` a bijection of the word:
/// two streams that differ in exactly one word — in particular in one bit —
/// end in different hashes.
#[inline]
pub fn hash_word(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(HASH_PRIME)
}

/// The integrity hash of a raw byte stream: [`hash_word`] over its
/// little-endian `u64` words, then over the tail shorter than a word one
/// byte a step.  The socket transport hashes a frame's header with it and
/// continues with [`hash_word`] over the payload as it encodes or decodes
/// it; [`HashedWords`] folds the same chain from the same seed.
pub fn checksum_bytes(bytes: &[u8]) -> u64 {
    let words = bytes.chunks_exact(8);
    let tail = words.remainder();
    let h = words.fold(HASH_OFFSET, |h, w| {
        hash_word(h, u64::from_le_bytes(w.try_into().expect("8 bytes")))
    });
    tail.iter().fold(h, |h, &b| hash_word(h, b as u64))
}

/// A stream of little-endian `u64` words under the integrity hash: every
/// word it moves is folded in with [`hash_word`] from [`checksum_bytes`]'s seed,
/// and the stream ends in the hash as one trailing word.  The durable
/// formats — the checkpoint and the gathered-state file — are written and
/// read through it, so a flipped bit anywhere after their magic is caught.
pub struct HashedWords<T> {
    inner: T,
    hash: u64,
}

impl<T> HashedWords<T> {
    /// Start a hashed stream over `inner`.
    pub fn new(inner: T) -> Self {
        HashedWords {
            inner,
            hash: HASH_OFFSET,
        }
    }
}

impl<W: io::Write> HashedWords<W> {
    /// Write one word.
    pub fn put(&mut self, word: u64) -> io::Result<()> {
        self.hash = hash_word(self.hash, word);
        self.inner.write_all(&word.to_le_bytes())
    }

    /// End the stream with the hash of every word put.
    pub fn put_trailer(mut self) -> io::Result<()> {
        self.inner.write_all(&self.hash.to_le_bytes())
    }
}

impl<R: io::Read> HashedWords<R> {
    fn raw(&mut self) -> io::Result<u64> {
        let mut b = [0u8; 8];
        self.inner.read_exact(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Read one word.
    pub fn take(&mut self) -> io::Result<u64> {
        let word = self.raw()?;
        self.hash = hash_word(self.hash, word);
        Ok(word)
    }

    /// Read the trailing hash; a stream whose words do not hash to it is
    /// `InvalidData` "`what` hash mismatch".
    pub fn check_trailer(mut self, what: &str) -> io::Result<()> {
        let stored = self.raw()?;
        if stored != self.hash {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{what} hash mismatch: {:#018x} != stored {stored:#018x}",
                    self.hash
                ),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(rank: usize, peer: usize, tag: u32, event: u64) -> FaultSite {
        FaultSite {
            rank,
            peer,
            tag,
            user_tag: tag & crate::runtime::COLLECTIVE_TAG_BIT == 0,
            event,
            phase: Phase::Other,
        }
    }

    #[test]
    fn parse_round_trip() {
        let p = FaultPlan::parse(
            7,
            "delay:rank=1,user=1,nth=3,k=4; crash:prob=0.5,phase=S1 ;stall:rank=2,event=40,ms=5",
        )
        .unwrap();
        assert_eq!(p.seed, 7);
        assert_eq!(p.rules.len(), 3);
        assert_eq!(p.rules[0].kind, FaultKind::Delay);
        assert_eq!(p.rules[0].rank, Some(1));
        assert!(p.rules[0].user_only);
        assert_eq!(p.rules[0].nth, Some(3));
        assert_eq!(p.rules[0].delay_events, 4);
        assert_eq!(p.rules[1].kind, FaultKind::Crash);
        assert_eq!(p.rules[1].phase, Some(Phase::S1));
        assert_eq!(p.rules[2].stall_ms, 5);
        assert_eq!(p.rules[2].event, Some(40));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse(1, "melt:prob=1").is_err());
        assert!(FaultPlan::parse(1, "delay:frobnicate=2,prob=1").is_err());
        assert!(FaultPlan::parse(1, "delay:rank=x,prob=1").is_err());
        assert!(FaultPlan::parse(1, "delay:nth=0").is_err());
        // a rule without any selector is a footgun, not a wildcard
        assert!(FaultPlan::parse(1, "crash:rank=1").is_err());
        assert!(FaultPlan::parse(1, "").unwrap().rules.is_empty());
    }

    #[test]
    fn lossy_link_kinds_and_the_bit_key_are_refused_naming_why() {
        for (spec, named) in [
            ("drop:nth=1", "fault kind 'drop'"),
            ("corrupt:prob=0.1", "fault kind 'corrupt'"),
            ("dup:user=1,nth=2", "fault kind 'dup'"),
            ("delay:nth=1,bit=3", "fault key 'bit'"),
        ] {
            let err = FaultPlan::parse(1, spec).unwrap_err();
            assert!(
                err.starts_with(&format!("{named} is refused")),
                "{spec}: {err}"
            );
            assert!(
                err.contains("reliable") && err.contains("hash"),
                "{spec}: {err}"
            );
        }
        // refused inside a longer plan too, whatever comes first
        assert!(FaultPlan::parse(1, "delay:prob=0.1;drop:nth=1").is_err());
    }

    #[test]
    fn decisions_are_deterministic() {
        let p = FaultPlan::parse(42, "delay:prob=0.3").unwrap();
        let mut c1 = vec![0u64; 1];
        let mut c2 = vec![0u64; 1];
        for ev in 0..200 {
            let s = site(0, 1, 9, ev);
            assert_eq!(p.decide(&s, &mut c1), p.decide(&s, &mut c2));
        }
    }

    #[test]
    fn prob_rate_roughly_matches() {
        let p = FaultPlan::parse(99, "delay:prob=0.25").unwrap();
        let mut c = vec![0u64; 1];
        let fired = (0..4000)
            .filter(|&ev| p.decide(&site(0, 1, 5, ev), &mut c).is_some())
            .count();
        assert!((700..=1300).contains(&fired), "rate off: {fired}/4000");
    }

    #[test]
    fn a_pinned_rule_ahead_leaves_the_seeded_draws_alone() {
        // the parent puts a kill's crash ahead of a generation's fault layer
        let layer = FaultPlan::parse(5, "delay:prob=0.05,k=3").unwrap();
        let killed = FaultPlan::parse(5, "crash:rank=1,event=5;delay:prob=0.05,k=3").unwrap();
        let (mut c1, mut c2) = (vec![0u64; 1], vec![0u64; 2]);
        let mut delays = 0;
        for rank in 0..4 {
            for event in 0..500 {
                let s = site(rank, (rank + 1) % 4, 3 + event as u32 % 7, event);
                let (a, b) = (layer.decide(&s, &mut c1), killed.decide(&s, &mut c2));
                if (rank, event) == (1, 5) {
                    assert_eq!(b, Some(FaultAction::Crash));
                } else {
                    assert_eq!(a, b, "rank {rank} event {event}");
                    delays += usize::from(a.is_some());
                }
            }
        }
        assert!(
            (40..=160).contains(&delays),
            "{delays} delays of 2000 sends"
        );
    }

    #[test]
    fn nth_fires_exactly_once() {
        let p = FaultPlan::parse(1, "crash:nth=3").unwrap();
        let mut c = vec![0u64; 1];
        let fired: Vec<u64> = (0..10)
            .filter(|&ev| p.decide(&site(0, 1, 5, ev), &mut c).is_some())
            .collect();
        assert_eq!(fired, vec![2]); // 3rd matching event, 0-based index 2
    }

    #[test]
    fn filters_respected() {
        let p = FaultPlan::parse(1, "delay:rank=1,peer=2,tag=7,event=5").unwrap();
        let mut c = vec![0u64; 1];
        assert!(p.decide(&site(1, 2, 7, 5), &mut c).is_some());
        assert!(p.decide(&site(0, 2, 7, 5), &mut c).is_none());
        assert!(p.decide(&site(1, 3, 7, 5), &mut c).is_none());
        assert!(p.decide(&site(1, 2, 8, 5), &mut c).is_none());
        assert!(p.decide(&site(1, 2, 7, 6), &mut c).is_none());
    }

    #[test]
    fn user_only_skips_collective_tags() {
        let p = FaultPlan::parse(1, "delay:user=1,nth=1").unwrap();
        let mut c = vec![0u64; 1];
        let coll = crate::runtime::COLLECTIVE_TAG_BIT | 3;
        assert!(p.decide(&site(0, 1, coll, 0), &mut c).is_none());
        assert!(p.decide(&site(0, 1, 3, 1), &mut c).is_some());
    }

    #[test]
    fn lat_delays_every_matching_receive_and_nothing_else() {
        let p =
            FaultPlan::parse(1, "lat:us=250,user=1; lat:rank=1,us=50; stall:event=4,ms=1").unwrap();
        assert_eq!(p.rules[0].kind, FaultKind::Lat);
        assert_eq!(p.rules[0].lat_us, 250);
        let us = |site: FaultSite| p.recv_latency(&site).as_micros();
        // every user-tag receive, on every rank, at every event
        for event in [0, 4, 1000] {
            assert_eq!(us(site(0, 1, 5, event)), 250);
        }
        // rules add up; filters apply
        assert_eq!(us(site(1, 0, 5, 0)), 300);
        let coll = crate::runtime::COLLECTIVE_TAG_BIT | 3;
        assert_eq!(us(site(0, 1, coll, 0)), 0);
        assert_eq!(us(site(1, 0, coll, 0)), 50);
        // and the dial is invisible to the fault schedule: no action, no
        // `nth` tick
        let mut c = vec![0u64; 3];
        assert_eq!(p.decide(&site(0, 1, 5, 0), &mut c), None);
        assert_eq!(c, [0, 0, 0]);
        assert_eq!(
            p.decide(&site(0, 1, 5, 4), &mut c),
            Some(FaultAction::Stall { ms: 1 })
        );
        // `us` is the dial's only knob; without it the rule is a no-op
        assert_eq!(FaultPlan::parse(1, "lat").unwrap().rules[0].lat_us, 0);
        assert!(FaultPlan::parse(1, "lat:us=x").is_err());
    }

    #[test]
    fn checksum_detects_any_single_bit_flip() {
        let data: Vec<f64> = (0..64).map(|i| i as f64 * 0.37 - 3.0).collect();
        let mut bytes: Vec<u8> = (data.iter())
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect();
        // a ragged tail, as a frame header has
        bytes.extend_from_slice(&[7, 0, 9, 255]);
        let base = checksum_bytes(&bytes);
        for bit in 0..8 * bytes.len() {
            let mut b = bytes.clone();
            b[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum_bytes(&b), base, "flip of bit {bit} undetected");
        }
    }

    #[test]
    fn byte_and_word_checksums_are_one_definition() {
        // the checkpoint stream's trailer is the frame hash of its words
        let words: Vec<u64> = (0..9).map(|i| ((i as f64 - 4.0) / 7.0).to_bits()).collect();
        let mut out = Vec::new();
        let mut w = HashedWords::new(&mut out);
        for &x in &words {
            w.put(x).unwrap();
        }
        w.put_trailer().unwrap();
        let (body, trailer) = out.split_at(out.len() - 8);
        let stored = u64::from_le_bytes(trailer.try_into().unwrap());
        assert_eq!(checksum_bytes(body), stored);
        assert_eq!(
            words.iter().fold(HASH_OFFSET, |h, &x| hash_word(h, x)),
            stored
        );
        // a ragged tail continues the same chain one byte a step
        let mut bytes = body.to_vec();
        bytes.extend_from_slice(&[7, 0, 9]);
        let want = [7u64, 0, 9].iter().fold(stored, |h, &b| hash_word(h, b));
        assert_eq!(checksum_bytes(&bytes), want);
        assert_ne!(checksum_bytes(&[]), checksum_bytes(&[0]));
    }

    #[test]
    fn splitmix_known_values() {
        // reference values of the standard splitmix64 sequence from seed 0
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_ne!(splitmix64(1), splitmix64(2));
    }
}
