//! Host facts the benchmark reports and controls: the CPU set the
//! process may run on, thread placement, and peak resident memory.
//!
//! The repository builds without the `libc` crate, so the two affinity
//! calls are declared here as `extern "C"` prototypes against the C
//! library `std` already links (Linux only; elsewhere the process runs
//! unpinned and says so).

use std::io;

/// `cpu_set_t` is 1024 bits on Linux.
#[cfg(target_os = "linux")]
const CPU_SET_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    /// # Safety
    /// `mask` must point to `cpusetsize` writable bytes.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    /// # Safety
    /// `mask` must point to `cpusetsize` readable bytes.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs this process may run on, ascending.
pub fn cpu_set() -> Vec<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; CPU_SET_WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc == 0 {
            return (0..CPU_SET_WORDS * 64)
                .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
                .collect();
        }
    }
    let n = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    (0..n).collect()
}

/// Confine the calling thread — and every thread it spawns afterwards —
/// to `cpus`. Call it before anything else starts threads.
pub fn pin(cpus: &[usize]) -> io::Result<()> {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; CPU_SET_WORDS];
        for &c in cpus {
            if c >= CPU_SET_WORDS * 64 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("cpu {c}"),
                ));
            }
            mask[c / 64] |= 1 << (c % 64);
        }
        // SAFETY: `mask` is a readable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = cpus;
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "thread placement needs Linux",
        ))
    }
}

/// Peak resident set size of this process in KiB (`VmHWM`), when the
/// platform reports it.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The kernel `KernelChoice::Simd` resolves to on this host, mirroring
/// the core's runtime feature detection (the resolved value itself is
/// crate-private there).
pub fn simd_kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
        "batched"
    }
    #[cfg(target_arch = "aarch64")]
    {
        "neon"
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        "batched"
    }
}
