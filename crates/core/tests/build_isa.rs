//! What makes compiling for the host ISA (`.cargo/config.toml`,
//! `-C target-cpu=native`) safe, and whether it happened.
//!
//! A wider vector unit changes no bit only while `a*b + c` stays two
//! roundings: every FMA-capable target tempts a compiler to fuse it into
//! one.  rustc does not contract floating-point expressions and the tree
//! holds no explicit fused call, so the blessed fingerprints hold on every
//! ISA — `no_contraction` is the pin that says so on the ISA this test was
//! built for (CI runs it on both; `Lane` and `CLane` have the same case
//! beside their definitions).

use std::hint::black_box;

/// `a·b = 1 + 2⁻²⁶ + 2⁻⁵⁴` exactly.  Rounded first, the product is
/// `1 + 2⁻²⁶` and adding `c = 2⁻⁵³` is a tie that goes to the even
/// neighbour, `1 + 2⁻²⁶` again; fused, `2⁻⁵³ + 2⁻⁵⁴` is past the tie and
/// the sum rounds up one ulp.
const A: f64 = 1.0 + 1.0 / (1u64 << 27) as f64;
const C: f64 = 1.0 / (1u64 << 53) as f64;
const UNFUSED: f64 = 1.0 + 1.0 / (1u64 << 26) as f64;

#[test]
fn no_contraction() {
    let (a, b, c) = (black_box(A), black_box(A), black_box(C));
    let got = a * b + c;
    assert_eq!(
        got.to_bits(),
        UNFUSED.to_bits(),
        "a*b + c was fused into one rounding (got the unfused value + {} ulp)",
        got.to_bits().wrapping_sub(UNFUSED.to_bits())
    );
    // a row of them, so the packed form the vectorizer emits is held to
    // the same two roundings as the scalar one
    let (xs, ys) = (black_box([A; 37]), black_box([C; 37]));
    let mut out = [0.0; 37];
    for ((o, x), y) in out.iter_mut().zip(xs).zip(ys) {
        *o = x * x + y;
    }
    assert!(out.iter().all(|o| o.to_bits() == UNFUSED.to_bits()));
}

/// Skipped by CI's `baseline-isa` leg, which builds without the feature on
/// purpose.
#[test]
#[cfg(target_arch = "x86_64")]
fn host_isa_config_took_effect() {
    let built_for = agcm_obs::build_isa();
    if std::arch::is_x86_feature_detected!("avx2") {
        assert!(
            built_for.contains("avx2"),
            "this host has AVX2 but the test was compiled without it, so \
             `.cargo/config.toml`'s `-C target-cpu=native` did not reach rustc: \
             the usual cause is a `RUSTFLAGS` (or `CARGO_BUILD_RUSTFLAGS` / \
             `CARGO_ENCODED_RUSTFLAGS`) environment variable, which replaces \
             `build.rustflags` instead of adding to it, or running cargo from \
             outside the repository.  Every result is still bitwise the same; \
             the kernels are about 1.2x slower (built for {built_for})"
        );
    }
}
