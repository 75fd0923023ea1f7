//! What a result must record about where it ran: the host, the CPU
//! placement, the process's memory, and the filesystem under the WAL.

use std::path::Path;

const MASK_WORDS: usize = 16; // 1024 CPUs

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Pins every thread of the process to `cpu`; threads spawned later
/// inherit the mask from their creator.
pub fn pin_process(cpu: usize) -> std::io::Result<()> {
    pin_threads(&[cpu])
}

/// Lets every thread of the process run on any of `cpus` again, as it
/// could before it was pinned; child processes inherit the mask.
pub fn unpin_process(cpus: &[usize]) -> std::io::Result<()> {
    pin_threads(cpus)
}

fn set_affinity(tid: i32, cpus: &[usize]) -> std::io::Result<()> {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus {
        if cpu >= MASK_WORDS * 64 {
            return Err(std::io::Error::other(format!("cpu {cpu} out of range")));
        }
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed; an
    // exited thread id only makes the call fail.
    let rc = unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

fn pin_threads(cpus: &[usize]) -> std::io::Result<()> {
    for task in std::fs::read_dir("/proc/self/task")? {
        let Some(tid) = task?
            .file_name()
            .to_str()
            .and_then(|t| t.parse::<i32>().ok())
        else {
            continue;
        };
        if let Err(err) = set_affinity(tid, cpus) {
            // A thread may exit between listing and pinning (ESRCH).
            if err.raw_os_error() != Some(3) {
                return Err(err);
            }
        }
    }
    Ok(())
}

fn status_kib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Peak resident set (`VmHWM`) in KiB.
pub fn peak_rss_kib() -> Option<f64> {
    status_kib("VmHWM:")
}

/// Resets the peak resident set (`VmHWM`) to the current one, so a
/// workload run after another in the same process reports its own peak.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// The filesystem type of the mount holding `path`, from
/// `/proc/self/mountinfo` (longest mount-point prefix wins).
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let (Some(mount), Some(sep)) = (fields.get(4), fields.iter().position(|f| *f == "-"))
        else {
            continue;
        };
        let Some(fstype) = fields.get(sep + 1) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() > *len) {
            best = Some((mount.len(), (*fstype).to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, t)| t)
}

/// The host a result was measured on.
pub struct Host {
    /// `available_parallelism`.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu: String,
    /// Kernel release.
    pub kernel: String,
    /// The compiler that built this benchmark.
    pub rustc: &'static str,
}

impl Host {
    /// Reads the host description.
    pub fn probe() -> Host {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or("unknown", |(_, v)| v.trim())
            .to_string();
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            kernel,
            rustc: env!("PERFBENCH_RUSTC"),
        }
    }
}
