//! What the host can do, measured in the same invocation as the workload:
//! STREAM Triad bandwidth, a register-resident f32 multiply-add rate, and the
//! cache and memory sizes that decide how large the Triad arrays must be.
//! Both rates are single-threaded, like the baseline workload.

use std::hint::black_box;
use std::time::Instant;

/// Sizes read from the operating system.
#[derive(Clone, Copy, Debug)]
pub struct HostInfo {
    pub nproc: usize,
    /// Largest cache `cpu0` reports under sysfs, bytes (0 when unreadable).
    pub llc_bytes: u64,
    /// `MemAvailable`, bytes (0 when unreadable).
    pub mem_available: u64,
}

pub fn info() -> HostInfo {
    HostInfo {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        llc_bytes: llc_bytes(),
        mem_available: proc_kib("/proc/meminfo", "MemAvailable:") * 1024,
    }
}

fn llc_bytes() -> u64 {
    (0..8)
        .filter_map(|i| {
            let text = std::fs::read_to_string(format!(
                "/sys/devices/system/cpu/cpu0/cache/index{i}/size"
            ))
            .ok()?;
            let text = text.trim();
            let (digits, scale) = match text.as_bytes().last()? {
                b'K' => (&text[..text.len() - 1], 1024),
                b'M' => (&text[..text.len() - 1], 1024 * 1024),
                _ => (text, 1),
            };
            Some(digits.parse::<u64>().ok()? * scale)
        })
        .max()
        .unwrap_or(0)
}

/// The KiB figure on the line of `path` that starts with `key`.
fn proc_kib(path: &str, key: &str) -> u64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with(key))?;
            line[key.len()..].trim().trim_end_matches("kB").trim().parse().ok()
        })
        .unwrap_or(0)
}

/// Restart the resident-set high-water mark from the current resident set.
/// Where the kernel refuses, the mark keeps what it had seen.
pub fn reset_peak_rss() {
    // "5" asks for exactly this; see proc(5), /proc/pid/clear_refs
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// High-water mark of this process's resident set, MiB.
pub fn peak_rss_mib() -> f64 {
    proc_kib("/proc/self/status", "VmHWM:") as f64 / 1024.0
}

/// Most bytes one Triad array may take. First-touching fresh memory costs
/// 12 to 23 µs per 4 KiB page on the reference host (a micro-VM), so three
/// arrays of four times its 260 MiB LLC would spend over 18 s of every traced
/// run in the kernel; this cap bounds that at about 4 s.
const TRIAD_ARRAY_CAP: u64 = 256 << 20;

/// The three STREAM arrays, allocated and touched once per invocation so that
/// the measurements before and after the workload run over the same pages.
pub struct Triad {
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    /// Bytes of one array ÷ LLC size. STREAM asks for 4; below that the
    /// figure is cache-assisted: part of the traffic may be served from cache.
    pub llc_multiple: f64,
}

impl Triad {
    /// Each array is `llc_multiple` × the LLC, capped by [`TRIAD_ARRAY_CAP`]
    /// and so that the three together stay within a quarter of available
    /// memory.
    pub fn new(host: &HostInfo, llc_multiple: u64) -> Self {
        const FLOOR: u64 = 1 << 20;
        let want = (host.llc_bytes * llc_multiple).max(FLOOR);
        let cap = (host.mem_available / 4 / 3).clamp(FLOOR, TRIAD_ARRAY_CAP);
        let n = (want.min(cap) / 8) as usize;
        Self {
            a: vec![1.0; n],
            b: vec![2.0; n],
            c: vec![0.5; n],
            llc_multiple: if host.llc_bytes == 0 {
                0.0
            } else {
                n as f64 * 8.0 / host.llc_bytes as f64
            },
        }
    }

    pub fn array_bytes(&self) -> u64 {
        self.a.len() as u64 * 8
    }

    /// `a[i] = b[i] + s·c[i]`, best of three passes, GB/s, counting 24 bytes
    /// per element as STREAM does.
    pub fn gbps(&mut self) -> f64 {
        let s = black_box(3.0f64);
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t = Instant::now();
            for ((a, b), c) in self.a.iter_mut().zip(&self.b).zip(&self.c) {
                *a = b + s * c;
            }
            black_box(&mut self.a);
            best = best.min(t.elapsed().as_secs_f64());
        }
        24.0 * self.a.len() as f64 / best / 1e9
    }
}

/// Peak f32 rate of this build's instruction set, GFLOP/s: 32 independent
/// multiply-add chains that stay in registers, so neither memory nor the
/// latency of one chain limits it. Best of three runs of `iters` rounds.
pub fn peak_gflops_f32(iters: usize) -> f64 {
    const LANES: usize = 32;
    let mul = black_box(0.999_999_f32);
    let add = black_box(1.0e-6_f32);
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let mut acc = [1.0f32; LANES];
        for (i, x) in acc.iter_mut().enumerate() {
            *x += i as f32 * 1e-3;
        }
        let t = Instant::now();
        for _ in 0..iters {
            for x in &mut acc {
                *x = *x * mul + add;
            }
        }
        black_box(&acc);
        best = best.min(t.elapsed().as_secs_f64());
    }
    2.0 * (LANES * iters) as f64 / best / 1e9
}
