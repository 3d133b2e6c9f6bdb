//! Pinning the calling thread to one core.
//!
//! On the shared 2-core container the benchmark was built on, each core
//! has slow spells of its own: for seconds at a time one core runs a grid
//! draw ~50 % slower while the other runs it at full speed. The offline
//! workloads run their rounds on the cores in turn, so a cell's fastest
//! round is unlikely to have met a slow spell on every core.
//!
//! `std` links the C library on Linux, so the two affinity calls are
//! declared here rather than taken from a crate.

use std::ffi::c_int;

/// Words of a `cpu_set_t` (1 024 CPUs), as the C library defines it.
const WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
}

/// The cores the calling thread may run on, ascending; `None` if the
/// affinity cannot be read.
pub fn allowed() -> Option<Vec<usize>> {
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let cores: Vec<usize> = (0..WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    (!cores.is_empty()).then_some(cores)
}

/// Restrict the calling thread to `cores`; false if that is refused.
pub fn pin(cores: &[usize]) -> bool {
    let mut mask = [0u64; WORDS];
    for &c in cores.iter().filter(|&&c| c < WORDS * 64) {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    rc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_to_each_allowed_core_and_back() {
        let all = allowed().expect("affinity is readable");
        for &c in &all {
            assert!(pin(&[c]));
            assert_eq!(allowed(), Some(vec![c]));
        }
        assert!(pin(&all));
        assert_eq!(allowed(), Some(all));
    }
}
