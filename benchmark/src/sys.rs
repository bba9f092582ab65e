//! Process-wide resource readings: CPU time, peak resident set, and the
//! hypervisor steal counter used as a noise diagnostic.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, ts: *mut Timespec) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// glibc's `M_ARENA_MAX` and `M_MMAP_THRESHOLD`.
const M_ARENA_MAX: i32 = -8;
const M_MMAP_THRESHOLD: i32 = -3;

/// Make peak RSS a property of the program, not of malloc's hysteresis.
///
/// One arena: with the default of several, peak RSS depends on which arena
/// each short-lived pool thread happens to be handed (68 to 76 MB across
/// four runs of the paced workload; 46 to 48 MB with one). A fixed mmap
/// threshold: glibc otherwise raises it to the size of the last big block
/// freed, so whether a snapshot buffer is carved from the heap or mapped
/// depends on what was freed before it, and the checkpoint workload's
/// median unit peaked anywhere from 74 to 81 MB depending on the seed
/// (72.0 to 72.9 MB with it fixed).
pub fn steady_malloc() {
    // SAFETY: `mallopt` only records tuning values inside the allocator;
    // it is called once, before any other thread exists.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
        mallopt(M_MMAP_THRESHOLD, 256 * 1024);
    }
}

/// Hand the pages of freed heap memory back to the kernel, so that what a
/// dropped throwaway structure occupied does not count towards the resident
/// set of the unit after it.
pub fn release_freed_memory() {
    // SAFETY: `malloc_trim` only returns wholly free pages of the heap to
    // the kernel; no live allocation is touched.
    unsafe {
        malloc_trim(0);
    }
}

/// Linux's id for the CPU time consumed by every thread of the process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU nanoseconds consumed by the whole process so far.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` with the layout of the
    // 64-bit Linux ABI, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set of the process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restart the `VmHWM` high-water mark from the current resident set.
/// `false` where the kernel or the sandbox does not allow it; `VmHWM`
/// then keeps covering the whole process.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// `(steal, total)` jiffies summed over all CPUs, from `/proc/stat`.
pub fn steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let steal = fields.get(7).copied().unwrap_or(0);
    (steal, fields.iter().take(8).sum())
}
