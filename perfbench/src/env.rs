//! The host and code facts recorded with every result.

use std::path::Path;
use std::process::Command;

/// Logical CPUs this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The CPU's brand string, from CPUID.
#[cfg(target_arch = "x86_64")]
pub fn cpu_model() -> String {
    use core::arch::x86_64::__cpuid;
    if __cpuid(0x8000_0000).eax < 0x8000_0004 {
        return "unknown".into();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002..=0x8000_0004u32 {
        let r = __cpuid(leaf);
        for word in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(|c: char| c == '\0' || c.is_whitespace())
        .to_string()
}

/// The CPU's brand string (not read on this architecture).
#[cfg(not(target_arch = "x86_64"))]
pub fn cpu_model() -> String {
    "unknown".into()
}

/// Size of the last-level (L3) cache in KiB, from CPUID's
/// deterministic cache parameters; `None` when the CPU reports none.
#[cfg(target_arch = "x86_64")]
pub fn l3_kib() -> Option<u64> {
    use core::arch::x86_64::{__cpuid, __cpuid_count};
    if __cpuid(0).eax >= 4 {
        for sub in 0..16 {
            let r = __cpuid_count(4, sub);
            if r.eax & 0x1f == 0 {
                break;
            }
            if (r.eax >> 5) & 0x7 == 3 {
                let ways = u64::from(r.ebx >> 22) + 1;
                let parts = u64::from((r.ebx >> 12) & 0x3ff) + 1;
                let line = u64::from(r.ebx & 0xfff) + 1;
                let sets = u64::from(r.ecx) + 1;
                return Some(ways * parts * line * sets / 1024);
            }
        }
    }
    // AMD reports L3 in 512 KiB units in the extended cache leaf.
    if __cpuid(0x8000_0000).eax >= 0x8000_0006 {
        let kib = u64::from(__cpuid(0x8000_0006).edx >> 18) * 512;
        if kib > 0 {
            return Some(kib);
        }
    }
    None
}

/// Size of the L3 cache (not read on this architecture).
#[cfg(not(target_arch = "x86_64"))]
pub fn l3_kib() -> Option<u64> {
    None
}

/// The code under test: the git revision, or `unknown` outside a git
/// work tree (the check for `.git` keeps git from searching the
/// directories above the benchmark's).
pub fn revision() -> String {
    if Path::new(".git").exists() {
        if let Ok(out) = Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .output()
        {
            if out.status.success() {
                return String::from_utf8_lossy(&out.stdout).trim().to_string();
            }
        }
    }
    "unknown".into()
}
