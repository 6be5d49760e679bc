//! Facts about the machine the benchmark runs on, and the memory-bandwidth
//! yardstick the kernel figures are read against.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

const MIB: usize = 1 << 20;

/// Peak resident set of this process (`VmHWM` of `/proc/self/status`) in
/// MiB; `None` where the kernel does not report it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Size of cache `index` of cpu0 as sysfs reports it, in bytes.
fn cache_bytes(index: usize) -> Option<usize> {
    let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
    let size = std::fs::read_to_string(format!("{dir}/size")).ok()?;
    let size = size.trim();
    let (digits, mult) = match size.as_bytes().last()? {
        b'K' => (&size[..size.len() - 1], 1 << 10),
        b'M' => (&size[..size.len() - 1], MIB),
        b'G' => (&size[..size.len() - 1], 1 << 30),
        _ => (size, 1),
    };
    Some(digits.parse::<usize>().ok()? * mult)
}

/// `(level, bytes)` of every data or unified cache of cpu0.
pub fn caches() -> Vec<(u32, usize)> {
    let mut out = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind)) = (read("level"), read("type")) else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        if let (Ok(level), Some(bytes)) = (level.trim().parse(), cache_bytes(index)) {
            out.push((level, bytes));
        }
    }
    out
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Result of the triad measurement.
#[derive(Debug, Clone, Copy)]
pub struct Triad {
    pub gbps: f64,
    pub array_bytes: usize,
    pub llc_bytes: usize,
}

/// `a[i] = b[i] + s·c[i]` over three arrays of 256 MiB each — together
/// three times the largest last-level cache seen on a bench host, and as
/// much as a probe may spend on page faults — on `threads` threads: 1 warm
/// pass, 5 timed, median.  Bytes moved are counted as 3 × array size per
/// pass.
pub fn triad(threads: usize) -> Triad {
    let llc_bytes = caches().iter().map(|&(_, b)| b).max().unwrap_or(0);
    let array_bytes = 256 * MIB;
    let n = array_bytes / 8;
    let mut a = vec![0.0f64; n];
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let chunk = n.div_ceil(threads);
    let mut pass = || {
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                scope.spawn(move || {
                    for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                        *a = b + 3.0 * c;
                    }
                    black_box(a);
                });
            }
        });
        t0.elapsed().as_secs_f64()
    };
    pass();
    let times: Vec<f64> = (0..5).map(|_| pass()).collect();
    Triad {
        gbps: 3.0 * array_bytes as f64 / median(&times) / 1e9,
        array_bytes,
        llc_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_reported_and_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mib().expect("VmHWM") > 0.0);
        }
    }
}
