//! What the ledger asks of the operating system: pin the process to one
//! CPU, and read resident memory, context switches and CPU time from
//! `/proc/self`.

use std::fs;
use std::io;

/// Words in the kernel's `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Confines the calling thread — and every thread it spawns afterwards —
/// to the first CPU of its current affinity set, and returns that CPU's
/// index.
///
/// The stack under test needs at least four threads (load, two NIC
/// engines, one dispatch) and this class of box has two cores: left
/// unconfined, where the scheduler happens to place the threads decides
/// the result (see the README's confined-vs-unconfined table). Call it
/// before any thread is spawned: the NIC's spin-wait sizes its spin phase
/// from `available_parallelism` once, on first use.
///
/// # Errors
///
/// Returns the OS error if the affinity calls fail or the set is empty.
#[cfg(target_os = "linux")]
pub fn confine_to_first_cpu() -> io::Result<usize> {
    let mut set = [0u64; CPU_SET_WORDS];
    // SAFETY: `set` is a writable buffer of exactly the size passed; pid 0
    // names the calling thread; the kernel writes at most `cpusetsize`
    // bytes.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&set), set.as_mut_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    let cpu = set
        .iter()
        .enumerate()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i * 64 + w.trailing_zeros() as usize)
        .ok_or_else(|| io::Error::other("empty CPU affinity set"))?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed and
    // names one CPU that was in the set the kernel just reported.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(cpu)
}

/// Affinity control exists only on Linux; elsewhere the ledger refuses to
/// produce numbers it cannot stand behind.
#[cfg(not(target_os = "linux"))]
pub fn confine_to_first_cpu() -> io::Result<usize> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "CPU confinement needs Linux",
    ))
}

/// Resident set size in KiB (`VmRSS`), 0 if unreadable.
pub fn rss_kb() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| field_after(&s, "VmRSS:"))
        .unwrap_or(0)
}

/// The first integer after `label` in `text`.
fn field_after(text: &str, label: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(label))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Counters summed over every live thread of this process.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcSample {
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
    /// Time on a CPU, nanoseconds (`schedstat`).
    pub cpu_ns: u64,
    /// User-mode time, clock ticks.
    pub user_ticks: u64,
    /// Kernel-mode time, clock ticks.
    pub sys_ticks: u64,
}

impl ProcSample {
    /// Reads `/proc/self/task/*`. Threads that exited earlier are not
    /// counted, so take both ends of a delta while the same threads live.
    pub fn now() -> Self {
        let mut s = ProcSample::default();
        let Ok(tasks) = fs::read_dir("/proc/self/task") else {
            return s;
        };
        for task in tasks.flatten() {
            let dir = task.path();
            if let Ok(status) = fs::read_to_string(dir.join("status")) {
                s.ctx_switches += field_after(&status, "voluntary_ctxt_switches:").unwrap_or(0)
                    + field_after(&status, "nonvoluntary_ctxt_switches:").unwrap_or(0);
            }
            if let Ok(sched) = fs::read_to_string(dir.join("schedstat")) {
                s.cpu_ns += sched
                    .split_whitespace()
                    .next()
                    .and_then(|f| f.parse::<u64>().ok())
                    .unwrap_or(0);
            }
            if let Ok(stat) = fs::read_to_string(dir.join("stat")) {
                let (user, sys) = parse_stat_times(&stat);
                s.user_ticks += user;
                s.sys_ticks += sys;
            }
        }
        s
    }

    /// Field-wise `self - earlier`, saturating.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            user_ticks: self.user_ticks.saturating_sub(earlier.user_ticks),
            sys_ticks: self.sys_ticks.saturating_sub(earlier.sys_ticks),
        }
    }
}

/// `(utime, stime)` from a `/proc/<pid>/stat` line. The command name may
/// contain spaces and parentheses, so fields are counted from the last
/// `)`: utime and stime are the 12th and 13th after it.
fn parse_stat_times(stat: &str) -> (u64, u64) {
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return (0, 0);
    };
    let mut fields = rest.split_whitespace().skip(11);
    let mut next = || fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    (next(), next())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_fields() {
        let text = "Name:\tx\nVmRSS:\t   5120 kB\nvoluntary_ctxt_switches:\t17\n";
        assert_eq!(field_after(text, "VmRSS:"), Some(5120));
        assert_eq!(field_after(text, "voluntary_ctxt_switches:"), Some(17));
        assert_eq!(field_after(text, "VmSwap:"), None);
    }

    #[test]
    fn parses_stat_times_past_awkward_command_names() {
        let stat = "42 (a b) c) R 1 2 3 4 5 6 7 8 9 10 111 222 0 0 20 0 1 0";
        assert_eq!(parse_stat_times(stat), (111, 222));
        assert_eq!(parse_stat_times("garbage"), (0, 0));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn live_samples_are_plausible() {
        assert!(rss_kb() > 0);
        let a = ProcSample::now();
        // The kernel folds run time into schedstat at ticks and switches:
        // compute across several of them.
        let began = std::time::Instant::now();
        let mut x = 0u64;
        while began.elapsed() < std::time::Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let d = ProcSample::now().since(&a);
        assert!(d.cpu_ns > 0, "schedstat should advance while computing");
    }
}
