//! Peak resident memory of this process, per call or per pass.
//!
//! Writing `5` to `/proc/self/clear_refs` resets the kernel's resident
//! high-water mark (`VmHWM`) to the current resident size, so reading
//! `VmHWM` after a call gives the peak reached during it.

use std::fs;

/// Resets the resident high-water mark. Returns `false` where the kernel
/// refuses; `VmHWM` then keeps the process-lifetime peak, an upper bound.
pub fn reset_peak() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Resident high-water mark in bytes (0 where `/proc` is unavailable).
pub fn peak_bytes() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// Bytes to megabytes (10^6, as `peak_rss_mb` reports them).
pub fn mb(bytes: u64) -> f64 {
    bytes as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracks_a_large_allocation_after_reset() {
        if !reset_peak() {
            return; // no clear_refs on this kernel: nothing to check
        }
        let before = peak_bytes();
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        let after = peak_bytes();
        drop(big);
        assert!(after >= before + (60 << 20), "{before} -> {after}");
        assert!(reset_peak());
        assert!(
            peak_bytes() < after,
            "reset lowers the mark once memory is freed"
        );
    }
}
