//! The host side of a run: CPU pinning, the `host` block printed with
//! every result, the two probes that bracket a workload, and the
//! process-level counters (`VmHWM`, `/proc/self/io`).
//!
//! Pinning is what makes the numbers repeat on a small host: the harness
//! pins itself to the *last* allowed CPU before `NodeRuntime::start`, so the
//! dedicated-core thread (spawned from the supervisor, which is spawned
//! from this thread) inherits that mask — a literally dedicated core, as in
//! the paper — and then re-pins itself, the only load thread, to the first.

use std::path::Path;
use std::time::Instant;

/// Bytes in the kernel's `cpu_set_t` (1024 CPUs).
const CPU_SET_BYTES: usize = 128;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
}

/// CPUs the calling thread may run on, ascending. Empty when the kernel
/// refuses the query (then nothing is pinned).
fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u8; CPU_SET_BYTES];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed;
    // pid 0 names the calling thread; the call writes at most that many bytes.
    let rc = unsafe { sched_getaffinity(0, CPU_SET_BYTES, mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..CPU_SET_BYTES * 8)
        .filter(|cpu| mask[cpu / 8] & (1 << (cpu % 8)) != 0)
        .collect()
}

/// Pins the calling thread (and every thread it spawns afterwards) to
/// `cpu`. Returns whether the kernel accepted the mask.
fn pin_to(cpu: usize) -> bool {
    let mut mask = [0u8; CPU_SET_BYTES];
    mask[cpu / 8] |= 1 << (cpu % 8);
    // SAFETY: `mask` is a live buffer of exactly the size passed and is only
    // read; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, CPU_SET_BYTES, mask.as_ptr()) == 0 }
}

/// The pinning plan of one process: which CPU the dedicated core gets and
/// which the load thread gets. With fewer than two CPUs nothing is pinned
/// and the run is flagged oversubscribed.
#[derive(Debug, Clone)]
pub struct Pinning {
    /// CPUs this process was allowed before anything was pinned.
    nproc: usize,
    load_cpu: usize,
    dedicated_cpu: usize,
    /// Two distinct CPUs exist, so pinning is attempted.
    enabled: bool,
    /// Every `sched_setaffinity` so far succeeded.
    succeeded: bool,
}

impl Pinning {
    pub fn plan() -> Pinning {
        let cpus = allowed_cpus();
        let enabled = cpus.len() >= 2;
        Pinning {
            nproc: cpus.len().max(1),
            load_cpu: cpus.first().copied().unwrap_or(0),
            dedicated_cpu: cpus.last().copied().unwrap_or(0),
            enabled,
            succeeded: enabled,
        }
    }

    /// Call right before starting a node: threads spawned from here land
    /// on the dedicated CPU.
    pub fn enter_dedicated(&mut self) {
        if self.enabled {
            self.succeeded &= pin_to(self.dedicated_cpu);
        }
    }

    /// Call right after the node started: the load thread moves away from
    /// the dedicated CPU.
    pub fn enter_load(&mut self) {
        if self.enabled {
            self.succeeded &= pin_to(self.load_cpu);
        }
    }
}

/// The `host` line of a result: what the numbers were measured on. One
/// load thread and one dedicated core need two CPUs; with fewer the run is
/// flagged oversubscribed.
pub fn describe(output_dir: &Path, pinning: &Pinning) -> String {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    format!(
        "host nproc={} cpu=\"{cpu_model}\" kernel={kernel} fs={} pinned={} oversubscribed={}",
        pinning.nproc,
        fs_type_of(output_dir),
        pinning.enabled && pinning.succeeded,
        pinning.nproc < 2
    )
}

/// Filesystem type of the mount holding `dir` (longest mount-point prefix
/// in `/proc/self/mountinfo`).
fn fs_type_of(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        // "<id> <parent> <maj:min> <root> <mount point> <opts> ... - <fstype> <source> <opts>"
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(mount_point), Some(fs)) = (left.split(' ').nth(4), right.split(' ').next())
        else {
            continue;
        };
        if dir.starts_with(mount_point)
            && best
                .as_ref()
                .is_none_or(|(len, _)| mount_point.len() >= *len)
        {
            best = Some((mount_point.len(), fs.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// `VmHWM` of this process in MB (10^6 bytes); 0.0 when unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Soft limit on open files, if `/proc/self/limits` tells. The reader
/// keeps every published iteration file open, so a long `smallvars` run
/// needs a couple of thousand descriptors.
pub fn open_files_limit() -> Option<u64> {
    std::fs::read_to_string("/proc/self/limits")
        .ok()?
        .lines()
        .find(|l| l.starts_with("Max open files"))?
        .split_whitespace()
        .nth(3)?
        .parse()
        .ok()
}

/// Write-side counters of `/proc/self/io`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcIo {
    /// Write-class system calls.
    pub syscw: u64,
    /// Bytes passed to write-class system calls.
    pub wchar: u64,
}

impl ProcIo {
    pub fn read() -> ProcIo {
        let mut io = ProcIo::default();
        if let Ok(text) = std::fs::read_to_string("/proc/self/io") {
            for line in text.lines() {
                let mut parts = line.split_whitespace();
                match (parts.next(), parts.next().and_then(|v| v.parse().ok())) {
                    (Some("syscw:"), Some(v)) => io.syscw = v,
                    (Some("wchar:"), Some(v)) => io.wchar = v,
                    _ => {}
                }
            }
        }
        io
    }
}

/// The two probes that bracket a workload, so a noisy run can be
/// recognised from its own output: a disk that got slower moves the first,
/// a CPU that got slower moves the second.
#[derive(Debug, Clone, Copy)]
pub struct Probes {
    /// Median of 64 KiB write + fsync in the output directory.
    pub fsync_p50_us: f64,
    /// `damaris_format::crc32` over 1 MiB, best of five.
    pub crc_mb_s: f64,
}

impl Probes {
    pub fn run(dir: &Path) -> std::io::Result<Probes> {
        use std::io::Write;
        let block = vec![0x5Au8; 64 << 10];
        let path = dir.join("fsync-probe.tmp");
        let mut samples = Vec::new();
        for _ in 0..15 {
            let t = Instant::now();
            let mut f = std::fs::File::create(&path)?;
            f.write_all(&block)?;
            f.sync_all()?;
            samples.push(t.elapsed().as_nanos() as u64);
        }
        std::fs::remove_file(&path)?;
        samples.sort_unstable();

        let mib = vec![0xA5u8; 1 << 20];
        let mut best = f64::MAX;
        for _ in 0..5 {
            let t = Instant::now();
            std::hint::black_box(damaris_format::crc32(std::hint::black_box(&mib)));
            best = best.min(t.elapsed().as_secs_f64());
        }
        Ok(Probes {
            fsync_p50_us: crate::stats::percentile(&samples, 0.5) as f64 / 1e3,
            crc_mb_s: mib.len() as f64 / 1e6 / best,
        })
    }
}
