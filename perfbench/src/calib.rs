//! CPU-speed calibration and CPU pinning.
//!
//! On a shared host each vCPU alternates between a fast and a slow phase,
//! about 1.6x apart and lasting from one to several seconds, and the two
//! vCPUs do so independently. Pure user-space loops slow down by the same
//! factor and no steal time is reported, so a wall-clock time measures the
//! neighbours as much as the program. Two measures take that out:
//!
//! - The process is pinned to one CPU, so every measured op, the daemon's
//!   threads included, runs on the CPU the calibration samples. The
//!   session dropper threads, which free displaced analyses off the
//!   critical path, are moved to a second CPU when there is one.
//! - Every op is timed between two samples of a fixed kernel owned by the
//!   benchmark (sorting and dependent loads over an L2-resident array).
//!   The op's time is scaled by the kernel's
//!   nominal time over its measured time, so a timing reads as it would
//!   on a CPU that runs the kernel in [`NOMINAL_MS`]. The kernel does not
//!   touch the program's crates, so a change to the program moves the
//!   scaled time exactly as it moves the raw time.

use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

/// The kernel's time on the reference CPU: the fast phase of the 2-vCPU
/// Xeon machine this benchmark was built on.
pub const NOMINAL_MS: f64 = 0.3;

/// One probe write's time on the reference disk (the same machine's
/// virtual disk on a quiet phase).
pub const IO_NOMINAL_MS: f64 = 0.5;

/// `CLOCK_THREAD_CPUTIME_ID` of `clock_gettime`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

/// Number of `u64` words in a `cpu_set_t` (1024 CPUs).
const SET_WORDS: usize = 16;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Elements of the kernel's working set: 64 KiB of `u32`, which stays in
/// the L2 cache.
const KERNEL_LEN: usize = 16 * 1024;

/// The fixed calibration kernel's state. The kernel allocates nothing:
/// right after an op the allocator is busy (the session dropper frees the
/// displaced analysis on another thread), and a kernel that allocated
/// would time the allocator's state instead of the CPU.
pub struct Kernel {
    data: Vec<u32>,
    scratch: Vec<u32>,
}

impl Default for Kernel {
    fn default() -> Self {
        let mut x = 0x2545_f491u32;
        let data = (0..KERNEL_LEN)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x
            })
            .collect();
        Kernel {
            data,
            scratch: vec![0; KERNEL_LEN],
        }
    }
}

impl Kernel {
    /// One run: sort a copy of the data (branchy compares, as in a
    /// compiler's ordered maps), then chase a chain of dependent loads
    /// through it (as in pointer-linked IR). The result only defeats
    /// dead-code elimination.
    fn run(&mut self) -> u64 {
        self.scratch.copy_from_slice(&self.data);
        self.scratch.sort_unstable();
        let mut at = 0usize;
        let mut acc = 0u64;
        for _ in 0..KERNEL_LEN {
            let v = self.scratch[at];
            acc = acc.wrapping_mul(31).wrapping_add(u64::from(v));
            at = (v as usize ^ at) % KERNEL_LEN;
        }
        acc
    }

    /// One calibration sample in milliseconds: the fastest of three
    /// kernel runs, so a single interrupt or a cache refill after a large
    /// op does not read as a slow phase.
    pub fn sample(&mut self) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t = Instant::now();
            std::hint::black_box(self.run());
            best = best.min(t.elapsed().as_secs_f64() * 1e3);
        }
        best
    }
}

/// The factor that scales a time measured between calibration samples
/// `before` and `after` to the reference CPU.
pub fn scale(before: f64, after: f64) -> f64 {
    NOMINAL_MS / ((before + after) / 2.0)
}

/// The factor that scales an off-CPU time measured between I/O probe
/// samples `before` and `after` to the reference disk.
pub fn io_scale(before: f64, after: f64) -> f64 {
    IO_NOMINAL_MS / ((before + after) / 2.0)
}

/// CPU time of the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a writable `struct timespec`.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
        return 0;
    }
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// The disk probe: the write pattern of the cache's `atomic_write` (write
/// a temporary file, fsync it, rename it into place, fsync the directory)
/// on a 4 KiB file in a directory of the benchmark's own. `persist()`
/// spends its off-CPU time in exactly these calls, and their latency on a
/// virtual disk drifts by tens of percent from minute to minute.
pub struct IoProbe {
    dir: PathBuf,
}

impl IoProbe {
    pub fn new(dir: PathBuf) -> IoProbe {
        IoProbe { dir }
    }

    fn write(&self) -> std::io::Result<f64> {
        let t = Instant::now();
        let tmp = self.dir.join("probe.tmp");
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&[0x5a; 4096])?;
        f.sync_all()?;
        std::fs::rename(&tmp, self.dir.join("probe.dat"))?;
        std::fs::File::open(&self.dir)?.sync_all()?;
        Ok(t.elapsed().as_secs_f64() * 1e3)
    }

    /// One probe sample in milliseconds: the median of three writes. A
    /// failed write reads as the nominal time, which leaves the scale at 1.
    pub fn sample(&self) -> f64 {
        let mut v: Vec<f64> = (0..3)
            .map(|_| self.write().unwrap_or(IO_NOMINAL_MS))
            .collect();
        v.sort_by(f64::total_cmp);
        v[1]
    }
}

fn cpus_allowed() -> Vec<usize> {
    let mut mask = [0u64; SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..SET_WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

fn pin_thread(tid: i32, cpu: usize) -> bool {
    let mut mask = [0u64; SET_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Where the session dropper threads go: the second CPU the process may
/// run on, if the first one was pinned and there is a second.
#[derive(Debug, Clone, Copy)]
pub struct Pinning {
    spare: Option<usize>,
}

/// Pins the calling thread, and so every thread it spawns later, to the
/// first CPU it may run on. Call before spawning anything.
pub fn pin_process() -> Pinning {
    let cpus = cpus_allowed();
    let pinned = cpus.first().is_some_and(|&c| pin_thread(0, c));
    Pinning {
        spare: cpus.get(1).copied().filter(|_| pinned),
    }
}

impl Pinning {
    /// Moves every session dropper thread of this process to the spare
    /// CPU. New sessions spawn their dropper on the measured CPU, so this
    /// runs after set-up and once per round, outside every timer.
    pub fn move_droppers(&self) {
        let Some(spare) = self.spare else { return };
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return;
        };
        for task in tasks.flatten() {
            let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
            // `comm` holds the first 15 bytes of the thread name.
            if comm.starts_with("araa-session-dr") {
                if let Some(tid) = task.file_name().to_str().and_then(|t| t.parse().ok()) {
                    pin_thread(tid, spare);
                }
            }
        }
    }
}
