//! What `/proc/self` says about this process.

use std::fs;

fn status_text(name: &str) -> Option<String> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with(name))?;
    line.split_whitespace().nth(1).map(str::to_string)
}

fn status_field(name: &str) -> Option<u64> {
    status_text(name)?.parse().ok()
}

/// Pin the calling thread, and with it every thread it starts from now
/// on, to the first CPU it is allowed on. Returns that CPU, or `None` when
/// the kernel refuses.
pub fn pin_to_one_cpu() -> Option<usize> {
    /// `cpu_set_t`: 1,024 bits.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // "0-1", "2,5-7": the first number is the first allowed CPU.
    let allowed = status_text("Cpus_allowed_list:")?;
    let digits = allowed.split(|c: char| !c.is_ascii_digit()).next()?;
    let cpu: usize = digits.parse().ok()?;
    let mut mask = [0u64; WORDS];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live array of `size_of_val(&mask)` bytes that the
    // call only reads, and pid 0 names the calling thread.
    let status = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (status == 0).then_some(cpu)
}

/// Peak resident set so far (`VmHWM`), MiB.
pub fn rss_peak_mib() -> f64 {
    status_field("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Live threads right now (`Threads:`).
pub fn threads() -> u64 {
    status_field("Threads:").unwrap_or(0)
}

/// `utime + stime` of the whole process, threads that have exited
/// included, in ms. `/proc/self/stat` counts in `USER_HZ` ticks, which
/// Linux fixes at 100 per second for every userspace-facing interface.
pub fn cpu_ms() -> f64 {
    const MS_PER_TICK: f64 = 10.0;
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; count from its ")".
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |index: usize| {
        fields
            .get(index)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // `fields[0]` is field 3 (state); utime and stime are fields 14 and 15.
    (ticks(11) + ticks(12)) as f64 * MS_PER_TICK
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `git describe` of the working tree, or "unknown" outside a git checkout.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|text| !text.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}
