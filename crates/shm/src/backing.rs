//! File-backed shared mappings — the cross-process backing store.
//!
//! The original Damaris runs clients and the dedicated core as *separate
//! MPI processes* sharing a POSIX shared-memory region. This module
//! supplies that backing: a file under `/dev/shm` (or any tmpfs/disk
//! path) mapped `MAP_SHARED` into every participating process, so a
//! `kill -9` of one process leaves the bytes — and every protocol word
//! in them — intact for the survivors.
//!
//! No external crates: the three syscalls we need (`mmap`, `munmap`,
//! `kill`) plus `clock_gettime` are declared through thin `extern "C"`
//! bindings below. File creation/sizing goes through `std::fs`.
//!
//! Everything here is process-plumbing, not protocol: the lease /
//! heartbeat / ring state machines that *live inside* the mapping are the
//! same facade-routed types model-checked under `--features check` (see
//! [`crate::mapped`]). This module is compiled out of the `check` build —
//! the model checker explores the protocol over its own memory, not over
//! a real mapping.

use std::ffi::c_void;
use std::fs::OpenOptions;
use std::io;
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};

// Linux ABI constants for the calls below. Values are part of the stable
// kernel ABI on every architecture we target (x86_64/aarch64 linux).
const PROT_READ: i32 = 0x1;
const PROT_WRITE: i32 = 0x2;
const MAP_SHARED: i32 = 0x01;
const CLOCK_MONOTONIC: i32 = 1;
const ESRCH: i32 = 3;
/// `SIGKILL` — the one signal a process can neither catch nor ignore.
pub const SIGKILL: i32 = 9;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: i32,
        flags: i32,
        fd: i32,
        offset: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn getpid() -> i32;
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// Monotonic machine-wide clock, in nanoseconds since an arbitrary epoch
/// (boot). Unlike `std::time::Instant` — whose anchor is private to one
/// process — `CLOCK_MONOTONIC` readings are comparable **across
/// processes on the same node**, which is exactly what cross-process
/// lease/heartbeat staleness math needs (a lease renewed by a client
/// process must be datable by the EPE process).
pub fn monotonic_now_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec`; CLOCK_MONOTONIC is
    // always available on Linux, so the call cannot fail with a valid
    // pointer.
    let rc = unsafe { clock_gettime(CLOCK_MONOTONIC, &mut ts) };
    debug_assert_eq!(rc, 0, "clock_gettime(CLOCK_MONOTONIC) failed");
    (ts.tv_sec as u64) * 1_000_000_000 + ts.tv_nsec as u64
}

/// This process's pid (stamped into mapping headers as the creator).
pub fn this_pid() -> u32 {
    // SAFETY: getpid has no failure mode and no arguments.
    (unsafe { getpid() }) as u32
}

/// Whether a process with `pid` currently exists, via the classic
/// `kill(pid, 0)` probe: signal 0 performs the permission/existence
/// checks without delivering anything. `ESRCH` means no such process.
/// An `EPERM` answer means the process exists but belongs to someone
/// else — we report it alive (conservative for GC purposes).
pub fn pid_alive(pid: u32) -> bool {
    if pid == 0 || pid > i32::MAX as u32 {
        return false;
    }
    // SAFETY: signal 0 delivers nothing; this is a pure existence probe.
    let rc = unsafe { kill(pid as i32, 0) };
    if rc == 0 {
        return true;
    }
    io::Error::last_os_error().raw_os_error() != Some(ESRCH)
}

/// Hard-kills the *calling* process: `SIGKILL` cannot be caught, so no
/// destructor, no unwinding, no flush runs — the address space simply
/// vanishes, exactly like an external `kill -9`. Used by the chaos kill
/// points (`Alloc|Memcpy|PostCommit`, EPE mid-drain) to die at a precise
/// protocol step while still being a *real* kill from the survivors'
/// point of view.
pub fn kill_self_hard() -> ! {
    // SAFETY: sending SIGKILL to ourselves is always permitted and
    // terminates the process before the call returns.
    unsafe {
        kill(getpid(), SIGKILL);
    }
    // invariant: SIGKILL to self never returns; this line is unreachable.
    unreachable!("survived SIGKILL to self");
}

/// Hard-kills another process (the launcher's chaos hammer). Returns
/// `false` if the target was already gone.
pub fn kill_hard(pid: u32) -> bool {
    if pid == 0 || pid > i32::MAX as u32 {
        return false;
    }
    // SAFETY: SIGKILL to a child we spawned; worst case ESRCH.
    (unsafe { kill(pid as i32, SIGKILL) }) == 0
}

/// A `MAP_SHARED` file mapping.
///
/// Dropping unmaps but **does not unlink**: after a `kill -9` there is no
/// drop at all, and after a clean exit the file must still outlive the
/// process for a respawned EPE to remap it. Deleting the file is a
/// deliberate, separate act — [`MapRegion::unlink`] at coordinated
/// shutdown, or the startup GC scan ([`crate::gc`]) for orphans.
pub struct MapRegion {
    ptr: *mut u8,
    len: usize,
    path: PathBuf,
}

// SAFETY: the mapping is plain shared memory; all access to it is
// mediated by the offset-only protocol structures layered on top
// (`crate::mapped`), whose atomics provide the cross-thread (and
// cross-process) synchronization. The raw pointer itself is just a base
// address, constant for the life of the region.
unsafe impl Send for MapRegion {}
// SAFETY: see `Send` — concurrent access goes through atomics/segments
// layered on the mapping, never through `&MapRegion` methods that alias.
unsafe impl Sync for MapRegion {}

impl MapRegion {
    /// Creates the backing file (failing if it already exists — creation
    /// is the EPE's exclusive right), sizes it to `len`, and maps it.
    pub fn create(path: &Path, len: usize) -> io::Result<MapRegion> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(path)?;
        file.set_len(len as u64)?;
        Self::map(file.as_raw_fd(), len, path)
    }

    /// Opens and maps an existing backing file (clients, and a respawned
    /// EPE re-adopting a previous incarnation's mapping). The length
    /// comes from the file itself.
    pub fn open(path: &Path) -> io::Result<MapRegion> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len() as usize;
        if len == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "mapping file is empty",
            ));
        }
        Self::map(file.as_raw_fd(), len, path)
    }

    fn map(fd: i32, len: usize, path: &Path) -> io::Result<MapRegion> {
        // SAFETY: fd is a valid open file descriptor sized to at least
        // `len`; we request a fresh address (addr = null) with
        // PROT_READ|WRITE under MAP_SHARED. The fd can be closed after
        // mmap returns — the mapping keeps its own reference.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_SHARED,
                fd,
                0,
            )
        };
        // MAP_FAILED is (void*)-1.
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(MapRegion {
            ptr: ptr as *mut u8,
            len,
            path: path.to_path_buf(),
        })
    }

    /// Base address of the mapping in *this* process. Never store this
    /// (or anything derived from it) inside the mapping — addresses are
    /// process-private; only offsets are shared (the offset-only
    /// invariant, checked by `xtask analyze` rule `pointer-in-shm-struct`).
    pub fn base(&self) -> *mut u8 {
        self.ptr
    }

    /// Mapping length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Deletes the backing file (the mapping itself stays valid until
    /// drop — classic unlink-while-open semantics). Call at coordinated
    /// shutdown only; crash paths leave the file for GC/recovery.
    pub fn unlink(&self) -> io::Result<()> {
        std::fs::remove_file(&self.path)
    }
}

impl Drop for MapRegion {
    fn drop(&mut self) {
        // SAFETY: ptr/len came from a successful mmap and are unmapped
        // exactly once. Failure leaks the mapping, which is harmless at
        // process exit.
        unsafe {
            munmap(self.ptr as *mut c_void, self.len);
        }
    }
}

impl std::fmt::Debug for MapRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MapRegion({} bytes at {})",
            self.len,
            self.path.display()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("damaris-backing-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}-{}", this_pid()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn create_map_write_reopen_read() {
        let path = tmp("roundtrip");
        {
            let region = MapRegion::create(&path, 4096).unwrap();
            assert_eq!(region.len(), 4096);
            // SAFETY: test-exclusive mapping, in-bounds write.
            unsafe {
                region.base().write(0xAB);
                region.base().add(4095).write(0xCD);
            }
        }
        // The file persists past the unmap; a second map sees the bytes.
        let region = MapRegion::open(&path).unwrap();
        // SAFETY: in-bounds reads of the remapped region.
        unsafe {
            assert_eq!(region.base().read(), 0xAB);
            assert_eq!(region.base().add(4095).read(), 0xCD);
        }
        region.unlink().unwrap();
        assert!(MapRegion::open(&path).is_err());
    }

    #[test]
    fn create_refuses_existing_file() {
        let path = tmp("exclusive");
        let region = MapRegion::create(&path, 1024).unwrap();
        assert!(MapRegion::create(&path, 1024).is_err());
        region.unlink().unwrap();
    }

    #[test]
    fn open_rejects_empty_file() {
        let path = tmp("empty");
        std::fs::File::create(&path).unwrap();
        assert!(MapRegion::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn pid_probe() {
        assert!(pid_alive(this_pid()));
        // Beyond pid_max on any Linux config — guaranteed ESRCH.
        assert!(!pid_alive(i32::MAX as u32));
        assert!(!pid_alive(0));
    }

    #[test]
    fn monotonic_clock_advances() {
        let a = monotonic_now_ns();
        let b = monotonic_now_ns();
        assert!(b >= a);
        assert!(a > 0);
    }
}
