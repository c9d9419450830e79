//! What the benchmark reads from the operating system: process CPU time,
//! peak resident set, directory sizes and copies, the work directory's
//! filesystem — plus the order statistics every metric is reduced with.

use std::fs;
use std::io;
use std::path::Path;

#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// The kernel's own nanosecond run-time accounting, not the 10 ms ticks of
/// `/proc/self/stat`: a tick is charged to whoever runs when it fires, and
/// two threads alternating every few microseconds share one CPU here.
fn cpu_clock_seconds(clock: i32) -> f64 {
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a valid, exclusively borrowed `timespec`.
    if unsafe { clock_gettime(clock, &mut time) } != 0 {
        return 0.0;
    }
    time.tv_sec as f64 + time.tv_nsec as f64 / 1e9
}

/// User + system CPU seconds this process (all threads) has consumed.
pub fn cpu_seconds() -> f64 {
    cpu_clock_seconds(CLOCK_PROCESS_CPUTIME_ID)
}

/// User + system CPU seconds the calling thread has consumed.
pub fn thread_cpu_seconds() -> f64 {
    cpu_clock_seconds(CLOCK_THREAD_CPUTIME_ID)
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total bytes of regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Copies `src` to a fresh `dst`, recursively.
pub fn copy_dir(src: &Path, dst: &Path) -> io::Result<()> {
    fs::create_dir_all(dst)?;
    for entry in fs::read_dir(src)? {
        let entry = entry?;
        let to = dst.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &to)?;
        } else {
            fs::copy(entry.path(), &to)?;
        }
    }
    Ok(())
}

/// Removes `dir` if it exists.
pub fn remove_dir(dir: &Path) {
    if let Err(e) = fs::remove_dir_all(dir) {
        if e.kind() != io::ErrorKind::NotFound {
            eprintln!("warning: could not remove {}: {e}", dir.display());
        }
    }
}

/// Filesystem type of the mount holding `path` (longest mount-point prefix
/// in `/proc/self/mounts`).
pub fn fs_type(path: &Path) -> String {
    let path = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    let mut best: Option<(usize, &str)> = None;
    for line in mounts.lines() {
        let mut fields = line.split_whitespace();
        let (Some(_dev), Some(point), Some(kind)) = (fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        if path.starts_with(point) && best.is_none_or(|(len, _)| point.len() >= len) {
            best = Some((point.len(), kind));
        }
    }
    best.map_or_else(|| "unknown".to_owned(), |(_, kind)| kind.to_owned())
}

/// Median of `values` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `q`-quantile (nearest rank) of `values`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Mean of the middle half of `values`: as robust as the median, but not
/// quantised to the clock's resolution — the median of 2,000 timings of a
/// 25 ns call is "25" on every run.
pub fn midmean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quarter = v.len() / 4;
    mean(&v[quarter..v.len() - quarter])
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The `q`-quantile (nearest rank) of latencies in nanoseconds, sorted in
/// place; 0 when empty.
pub fn quantile_ns(latencies: &mut [u64], q: f64) -> f64 {
    if latencies.is_empty() {
        return 0.0;
    }
    latencies.sort_unstable();
    let rank = ((latencies.len() as f64 * q).ceil() as usize).clamp(1, latencies.len());
    latencies[rank - 1] as f64
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
}

/// Restricts the calling thread — and every thread it spawns afterwards —
/// to the CPUs set in `mask`. Returns false when the kernel refuses, which
/// leaves the thread where it was.
fn set_affinity(mask: u64) -> bool {
    // SAFETY: `mask` outlives the call and `cpusetsize` is its exact size;
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
}

/// The CPUs (of the first 64) the calling thread may run on; 0 when the
/// kernel will not say.
fn affinity() -> u64 {
    let mut mask = 0u64;
    // SAFETY: as above; the kernel writes at most `cpusetsize` bytes.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<u64>(), &mut mask) } < 0 {
        return 0;
    }
    mask
}

/// Holds the calling thread on **one** CPU until dropped, then gives it its
/// former CPUs back. Threads spawned meanwhile inherit the one CPU.
///
/// The load thread and the server's reactor are both held on the same CPU
/// — the highest the process may use, CPU 0 being where a guest's
/// interrupts and housekeeping land. A request then costs its own CPU time
/// plus two context switches, all of it on one core: the other core stays
/// free for the database's maintenance thread, the kernel's writeback and
/// whatever else the host runs, none of which can then stand in a request's
/// way. With the two threads on different cores every request also pays two
/// cross-core wake-ups, whose cost is the hypervisor's to set: the same
/// build moved between 73k and 120k requests/s from round to round.
pub struct Pinned(u64);

impl Pinned {
    /// Holds nothing; assigning it over a held `Pinned` releases that one.
    pub fn none() -> Pinned {
        Pinned(0)
    }

    pub fn to_one_cpu() -> Pinned {
        let before = affinity();
        if before.count_ones() < 2 {
            return Pinned(0);
        }
        let highest = 1u64 << (63 - before.leading_zeros());
        Pinned(if set_affinity(highest) { before } else { 0 })
    }

    pub fn held(&self) -> bool {
        self.0 != 0
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        if self.0 != 0 {
            set_affinity(self.0);
        }
    }
}
