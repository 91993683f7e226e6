//! Order statistics over a run's samples.

/// The `q`-quantile (0..=1) by nearest rank; 0 for no samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * (v.len() - 1) as f64).round() as usize;
    v[rank.min(v.len() - 1)]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// One pass's frame latencies reduced to their count and tail, so a run
/// keeps no per-frame samples (which would grow its memory with the
/// number of passes).
#[derive(Debug, Clone, Copy, Default)]
pub struct Tail {
    pub frames: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub p999: f64,
}

impl Tail {
    pub fn of(ns: &[f64]) -> Tail {
        let q = |p| quantile(ns, p);
        Tail { frames: ns.len(), p50: q(0.5), p90: q(0.9), p99: q(0.99), p999: q(0.999) }
    }
}

/// Kilobytes of `Vm*` lines in this process's status, if readable.
pub fn vm_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on (bit i = CPU i), or `None`
/// when the kernel cannot report them in 64 bits.
pub fn thread_cpus() -> Option<u64> {
    let mut mask = 0u64;
    // SAFETY: pid 0 names the calling thread, and the pointer refers to
    // a live u64 whose size is the cpusetsize passed; the kernel writes
    // at most that many bytes.
    let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<u64>(), &mut mask) } >= 0;
    ok.then_some(mask)
}

/// Restricts the calling thread to the CPUs in `mask` (bit i = CPU i).
/// Returns false when the kernel refuses, which leaves it unpinned.
pub fn pin_thread(mask: u64) -> bool {
    // SAFETY: pid 0 names the calling thread, and the pointer refers to
    // a live u64 whose size is the cpusetsize passed; the kernel only
    // reads it.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_pick_nearest_rank() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
