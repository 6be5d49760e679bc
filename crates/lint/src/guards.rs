//! The guard table: the structural properties of the source that the
//! reproduction's claims rest on, as rows ([`crate::Guard`]), and the line
//! budgets.  `agcm-lint` — and tier-1's `workspace_tree_is_clean` — checks
//! every row.  A location this file names that the tree lacks is a
//! refusal, not an empty guard, and text-mode rows do not read this file:
//! it names what they forbid.
//!
//! Locations: a file, a directory ending in `/`, `*` for one path
//! component, `!` to exclude, and `path::name` for the bodies of `fn name`
//! or `struct name` in that file.  Patterns: literal text, `\b` at either
//! end for a word boundary, and `*` for one or more characters of the line
//! up to the pattern's next character (`wire_tag(*,*,` is grep's
//! `wire_tag\([^,]+,[^,]+,`).

use crate::Bound::{Absent, Exactly, OnlyIn, Present};
use crate::Mode::{Code, CodeAndTests, Text};
use crate::{Budget, Guard};

/// The kernel modules: the zero-alloc stepping paths whose footprints the
/// `core::access` registry declares.  They touch fields through the row
/// API only, and a `fn fused_*` sweep in one needs its `"<module>.fused"`
/// registry key (the `fused-access` check).
pub(crate) const KERNELS: &[&str] = &["crates/core/src/adaptation.rs",
    "crates/core/src/advection.rs", "crates/core/src/smoothing.rs", "crates/core/src/vertical.rs",
    "crates/core/src/filterop.rs", "crates/core/src/diag.rs", "crates/core/src/forcing.rs"];

/// The access registry the `fused-access` check reads.
pub(crate) const ACCESS_REGISTRY: &str = "crates/core/src/access.rs";

/// Where every `unsafe {` must sit directly under its `// SAFETY:` line.
pub(crate) const SAFETY_SCOPE: &[&str] = &["crates/*/src/"];

/// The keys whose line findings a `// lint:allow(<key>) <why>` waives in
/// place: the per-file rules and the `fused-access` and `pub-caller`
/// checks.  Every other row is structural and takes no waiver.
pub(crate) const WAIVABLE: &[&str] = &["alloc", "raw-index", "unwrap", "fused-access",
    "pub-caller"];

/// Allocation-capable calls.
const ALLOCATING: &[&str] = &[r"\bVec::new", r"\bvec!", r"\bBox::new", r"\bformat!",
    r"\bString::from", ".to_vec()", ".to_string()", ".to_owned()", ".clone()", r"\bwith_capacity",
    ".collect()"];

/// Every row; the rows of one guard are adjacent.
pub const GUARDS: &[Guard] = &[
    // No allocation in the zero-alloc stepping paths (the runtime guard,
    // `core/tests/zero_alloc.rs`, sees only the branches it takes): the
    // kernels, then the FFT filter and transform, the sweep driver, the
    // pool and its row bands, and the step-program interpreter.
    Guard { key: "alloc", mode: Code, bound: Absent, scope: KERNELS, patterns: ALLOCATING },
    Guard { key: "alloc", mode: Code, bound: Absent, patterns: ALLOCATING, scope: &[
        "crates/fft/src/filter.rs", "crates/fft/src/fft.rs", "crates/core/src/sweep.rs",
        "crates/core/src/pool.rs", "crates/core/src/integrator.rs", "crates/mesh/src/band.rs"] },
    // Kernels go through the row API, so the access sanitizer and the
    // declared `AccessSpec` footprints see every touch.
    Guard { key: "raw-index", mode: Code, bound: Absent, scope: KERNELS,
        patterns: &[".raw()", ".raw_mut()", ".idx(", r"\bas_ptr", r"\bas_mut_ptr"] },
    // Every error arm here is reachable (fault injection, a killed worker,
    // bytes the parent did not write) or a typed refusal; `.expect("…")`
    // states its invariant.
    Guard { key: "unwrap", mode: Code, bound: Absent, patterns: &[".unwrap()"], scope: &[
        "crates/obs/src/", "crates/verify/src/", "crates/comm/src/", "crates/mesh/src/",
        "crates/core/src/", "crates/bench/src/", "crates/run/src/lib.rs",
        "crates/run/src/elastic.rs", "crates/run/src/soak.rs"] },
    // The tile autotuner, its pin and the fusion toggle measured as noise
    // (DESIGN.md §8); Algorithm 2's halo depth is decided from the
    // arguments (`analysis::ca_group_size`), never by a switch.
    Guard { key: "deleted-knobs", mode: Text, bound: Absent, scope: &["crates/"], patterns: &[
        "AGCM_TILE_J", "set_fusion", "tile_j", "AGCM_GROUP", "AGCM_CA_G", "set_group"] },
    // One body per kernel: the path enum, its setter, the two cargo
    // features, the suffixed entry points and the micro-benchmark's
    // variables stay deleted, in workflows too.
    Guard { key: "one-kernel-path", mode: Text, bound: Absent, scope: &["crates/", ".github/"],
        patterns: &["KernelPath", "set_kernel_path", "kernel_path(", "scalar-rows", "scalar-ref",
            "_tendency_lanes", "_tendency_rows", "_tendency_path", "apply_c_lanes", "apply_c_rows",
            "apply_c_path", "smooth_rows_lanes", "smooth_rows_rows", "smooth_rows_path",
            "AGCM_BENCH_"] },
    // The vector unit is picked once, by `.cargo/config.toml`: no code
    // selected by target feature (`agcm_obs::build_isa` only reports it)
    // and no explicit fused multiply-add.
    Guard { key: "one-isa", mode: Text, bound: Absent, scope: &["crates/"],
        patterns: &["cfg(target_feature", "#[target_feature", "mul_add"] },
    Guard { key: "one-isa", mode: Text, bound: Present, scope: &[".cargo/config.toml"],
        patterns: &["target-cpu=native"] },
    // One message per neighbour link: no field index in the wire tag, and
    // one tag codec.
    Guard { key: "one-message-per-link", mode: Text, bound: Absent, scope: &["crates/"],
        patterns: &["wire_tag(*,*,"] },
    Guard { key: "one-message-per-link", mode: Text, bound: Exactly(1), scope: &["crates/"],
        patterns: &["fn wire_tag(seq: u64, dir: u32)"] },
    // The pool splits every phase by latitude rows; no z-slab view.
    Guard { key: "one-band-axis", mode: Text, bound: Absent, scope: &["crates/"],
        patterns: &["SlabMut3", "split_at_k", "split_z_slabs", "slab_mut"] },
    // Every array is a `Field3`, a surface field one level of it: the
    // second type, its copies and the unused classifier stay deleted.
    Guard { key: "one-field-type", mode: Text, bound: Absent, scope: &["crates/"], patterns: &[
        r"\bField2\b", r"\bw_field2\b", r"\br_field2\b", r"\bmirror_y_field2\b",
        r"\bd4_lambda_f2\b", r"\bp2_contrib_f2\b", r"\bfill2\b", r"\bassert_bits2\b",
        r"\bDecompKind\b"] },
    // The step is a program: outside the modules that define them, the
    // step primitives are called by the one interpreter.
    Guard { key: "one-step-loop", mode: Code, bound: OnlyIn(&["crates/core/src/integrator.rs"]),
        scope: &["crates/*/src/", "!crates/core/src/dycore.rs", "!crates/core/src/par/exchange.rs"],
        patterns: &[".adaptation_subupdate(", ".advection_subupdate(", ".advection_part(",
            ".post_sends("] },
    // One step program: Algorithm 2's is Algorithm 1's under the paper's
    // three rewrites (`par::schedule::alg2_step_for`), so a sub-update's
    // ops are spelled by Algorithm 1's generator alone and no second
    // generator writes a step by hand.
    Guard { key: "one-program", mode: Code, scope: &["crates/*/src/"], patterns: &[r"\bsubupdate("],
        bound: OnlyIn(&["crates/core/src/par/schedule.rs::alg1_step"]) },
    // Halo traffic is counted where it is sent (`comm::stats`): no bracket
    // turns the collective event log on to subtract collectives from it,
    // and the one-time subtraction survives for the benchmark runner only.
    Guard { key: "one-traffic-count", mode: Code, scope: &["crates/*/src/"],
        patterns: &["p2p_only_delta("], bound: OnlyIn(&["crates/comm/src/model.rs"]) },
    Guard { key: "one-traffic-count", mode: Code, scope: &["crates/*/src/"],
        patterns: &["set_event_logging("], bound: OnlyIn(&["crates/comm/src/stats.rs"]) },
    // A model holds `state`, `eta1` and `mid` (DESIGN.md §17 rule 1), and
    // the sub-update's modules allocate no state of their own.
    Guard { key: "three-state-buffers", mode: Code, bound: Exactly(3),
        scope: &["crates/core/src/integrator.rs::Integrator"], patterns: &[": State,"] },
    Guard { key: "three-state-buffers", mode: Code, bound: Absent, scope: &[
        "crates/core/src/dycore.rs", "crates/core/src/sweep.rs", "crates/core/src/filterop.rs"],
        patterns: &["State::like", "State::new"] },
    // `D(P)` and `φ'` ride in the sub-update's output rows wherever every
    // `C` runs fresh: `Diag::dp` belongs to the standalone entry points,
    // `Diag::phi_p` to them, the cached-C path and the checkpoint.
    Guard { key: "phi-p-where-cached", mode: Code, scope: &["crates/core/src/"],
        patterns: &[r"diag.dp\b"], bound: OnlyIn(&["crates/core/src/vertical.rs::apply_c",
            "crates/core/src/adaptation.rs::adaptation_tendency"]) },
    Guard { key: "phi-p-where-cached", mode: Code, scope: &["crates/core/src/"],
        patterns: &[r"diag.phi_p\b"], bound: OnlyIn(&["crates/core/src/vertical.rs::apply_c",
            "crates/core/src/adaptation.rs::adaptation_tendency",
            "crates/core/src/integrator.rs::capture", "crates/core/src/integrator.rs::restore",
            "crates/core/src/par/exchange.rs::with_fields",
            "crates/core/src/par/exchange.rs::wrap_x_fields",
            "crates/core/src/dycore.rs::phi_p_cache", "crates/core/src/dycore.rs::keep_phi_p"]) },
    // One function prices a step program (`core::analysis::predict`): the
    // fitters, per-rank predictors and scaling charts stay deleted, and
    // machine constants live in `comm/src/model.rs`.
    Guard { key: "one-cost-model", mode: Text, bound: Absent, scope: &["crates/"], patterns: &[
        "fit_alpha_beta", "fit_gamma", r"predict_step\b", r"predict_step_mode\b", r"predict_rank\b",
        r"predict_rank_mode\b", "scaling_chart", "crossover_rank"] },
    Guard { key: "one-cost-model", mode: Code, bound: OnlyIn(&["crates/comm/src/model.rs"]),
        scope: &["crates/*/src/"], patterns: &["CostModel {"] },
    // Every agcm-run and agcm-soak world is a phase run by one phase
    // runner under one supervisor (DESIGN.md §12): one spawn, one poll
    // loop, one hand-off; no second path, no worker mode.
    Guard { key: "one-launcher", mode: Code, bound: Exactly(1), scope: &["crates/run/src/"],
        patterns: &["Command::new(", "try_wait(", "redistribute(", "certify_yz("] },
    Guard { key: "one-launcher", mode: Code, bound: Absent, scope: &["crates/run/src/"],
        patterns: &[r"fn await_world\b", r"fn verify_elastic\b", r"fn run_resize_world\b"] },
    Guard { key: "one-launcher", mode: Text, bound: Absent, scope: &["crates/", ".github/"],
        patterns: &["AGCM_SUPERVISED"] },
    // Every rank runs `run_rank`; the model is stepped by the worker loop
    // and the parent's threaded reference only.
    Guard { key: "one-worker", mode: Text, bound: Absent, scope: &["crates/", ".github/"],
        patterns: &["classic_worker", "AGCM_RUN_OUT", "env_remove(\"AGCM_CKPT_DIR"] },
    Guard { key: "one-worker", mode: Code, bound: Exactly(2), scope: &["crates/run/src/"],
        patterns: &[".step(Some("] },
    // A world rolls back one way, the restart from the checkpoint set; the
    // in-process runner and its machinery stay deleted.
    Guard { key: "one-rollback", mode: Text, bound: Absent, scope: &["crates/", ".github/"],
        patterns: &["ResilientRunner", "CheckpointRing", "ResilienceConfig", "ResilienceError",
            "set_degraded", "purge_other_contexts", "resync_collectives", r"fn resync\b"] },
    // A dead rank ends its world, and so does a frame that fails its hash:
    // no second recovery protocol (the framed, retrying exchange) and no
    // lossy-link fault kinds for it to survive.  Whole words: the soak
    // report keeps its `rewires` keys for its schema.
    Guard { key: "crash-only", mode: Text, bound: Absent, scope: &["crates/"], patterns: &[
        r"\brewire\b", r"\bconnect_at_epoch\b", r"\bset_poison_on_eof\b", r"\baccept_reconnects\b",
        r"\blast_reconnect\b", r"\bRECOVERY_TIMEOUT\b", r"\bsend_framed\b", r"\brecv_framed\b",
        r"\bRetryPolicy\b", r"\bset_framed\b", r"\bset_retry\b", r"\bCorruptPayload\b",
        r"\bcorrupted_copy\b", r"\brecord_retry\b", r"\bis_transient\b", "FaultKind::Drop",
        "FaultKind::Corrupt", "FaultKind::Dup"] },
    // A rank is killed one way, a `crash` fault at a send, which the parent
    // places per generation: no step-boundary abort read from the
    // environment, and no receive-side fault site.  The Unix-domain socket
    // is the one socket transport.
    Guard { key: "one-kill", mode: Text, bound: Absent, scope: &["crates/"], patterns: &[
        "AGCM_KILL_STEP", r"\bkill_step\b", r"\bis_send\b", r"\bTcpStream\b"] },
    // A rank reports one way, its final checkpoint and one record; the one
    // `gather_state(` is the parent's threaded reference.
    Guard { key: "one-way-home", mode: Text, bound: Absent, scope: &["crates/", ".github/"],
        patterns: &["AGCMGST2", "write_state", "read_state", "ship_telemetry", "collect_telemetry",
            "live_snapshot", "bytes_to_words", "stats.rank", "events.bin"] },
    Guard { key: "one-way-home", mode: Code, bound: Exactly(1), scope: &["crates/run/src/"],
        patterns: &["gather_state("] },
    // `verify::critpath::analyze` alone decides whether a trace fits its
    // step program; the tracer is always compiled in.
    Guard { key: "one-trace-check", mode: Text, bound: Absent, scope: &["crates/"], patterns: &[
        "feature = \"trace\"", "validate_chrome_trace", "metrics_json", "RankSpanCounts",
        "ExpectedSpanCounts", "expected_counts"] },
    Guard { key: "one-trace-check", mode: Text, bound: Absent,
        scope: &["crates/bench/src/bin/figures.rs"], patterns: &["\"trace\" =>"] },
    // One transform path: every step filters through the batched kernel of
    // `FourierFilter::apply_rows_with`, on either decomposition; the
    // allocating row API and the transforms under it are the tests' oracle.
    Guard { key: "one-transform-path", mode: Code, bound: Absent, scope: &["crates/*/src/",
        "!crates/fft/src/fft.rs", "!crates/fft/src/filter.rs"],
        patterns: &[".apply_row(", "rfft(", "irfft("] },
    // The one `unsafe` block, tests included, is the page advice of
    // agcm-mesh's allocation function (DESIGN.md §10); every other crate
    // forbids unsafe code and no other file declares a foreign function.
    // A second block needs a measured end-to-end gain and an edit here.
    Guard { key: "one-unsafe", mode: CodeAndTests, bound: OnlyIn(&["crates/mesh/src/pages.rs"]),
        scope: &["crates/*/src/"], patterns: &[r"\bunsafe\b"] },
    Guard { key: "one-unsafe", mode: CodeAndTests, bound: Exactly(1),
        scope: &["crates/mesh/src/pages.rs"], patterns: &[r"\bunsafe\b", "unsafe {"] },
    Guard { key: "one-unsafe", mode: Code, bound: Present, scope: &["crates/mesh/src/lib.rs"],
        patterns: &["#![deny(unsafe_code)]"] },
    Guard { key: "one-unsafe", mode: Code, bound: Present, patterns: &["#![forbid(unsafe_code)]"],
        scope: &["crates/*/src/lib.rs", "!crates/mesh/src/lib.rs"] },
    Guard { key: "one-unsafe", mode: Text, bound: OnlyIn(&["crates/mesh/src/pages.rs"]),
        scope: &["crates/*/src/"], patterns: &["extern \"C\""] },
];

/// The line budgets, each set where its last change landed, so that it
/// ratchets.
pub const BUDGETS: &[Budget] = &[
    Budget { name: "integrator + par", max: 1141, scope: &[
        "crates/core/src/serial.rs", "crates/core/src/integrator.rs", "crates/core/src/par/"] },
    Budget { name: "agcm-core", max: 5768, scope: &["crates/core/src/"] },
    Budget { name: "crates/*/src", max: 15629, scope: &["crates/*/src/"] },
];
