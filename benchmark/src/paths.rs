//! Where the benchmark keeps its files.  Everything it writes lives under
//! `benchmark/out/`, inside the checkout it was built in.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// The benchmark's directory: `benchmark/` when run from the repository
/// root (short relative paths keep socket names under the 108-byte
/// `sun_path` limit), else the directory this package was built in.
pub fn bench_dir() -> PathBuf {
    let rel = PathBuf::from("benchmark");
    if rel.join("Cargo.toml").is_file() && rel.join("src/paths.rs").is_file() {
        rel
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

pub fn repo_root() -> PathBuf {
    let dir = bench_dir();
    if dir.as_os_str() == "benchmark" {
        PathBuf::from(".")
    } else {
        dir.join("..")
    }
}

pub fn out_dir() -> Result<PathBuf, String> {
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// A name under `out/` unique to this process and call.
pub fn unique_name(tag: &str) -> Result<PathBuf, String> {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    Ok(out_dir()?.join(format!("{tag}-{}-{n}", std::process::id())))
}

/// A fresh directory under `out/`; the caller removes it.
pub fn scratch_dir(tag: &str) -> Result<PathBuf, String> {
    let dir = unique_name(tag)?;
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}
