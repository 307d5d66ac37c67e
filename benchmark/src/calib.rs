//! Host-speed calibration: a fixed reference task timed on either side of
//! every sample, so host times can be stated in seconds of a reference
//! host.
//!
//! On a host shared with other tenants, the simulator's speed drifts by
//! up to half over tens of seconds. Two things move it: the clock of the
//! whole package, which every core follows alike, and the load on each
//! core's private caches from whatever else runs on that physical core,
//! which differs from one of this guest's CPUs to the other. A code change
//! cannot be told from such drift by wall time alone. So every sample runs
//! on the CPU whose reference task is fastest just before it, pinned
//! there, and the task is timed on that CPU right before and right after
//! the sample. The task touches memory the way the simulator does (a sort
//! and random read-modify-writes over a table much larger than the core's
//! private caches), so it slows with it. Its code lives in this package
//! and uses no library crate, so no change to the simulator moves it.
//!
//! The speed also flickers within a second, so one sample's two task runs
//! say little about the host during that sample. Over a whole run they
//! do: the task's total time and the simulator's total time are taken
//! over the same stretch of host time, so their ratio cancels the host's
//! speed.

use std::hint::black_box;
use std::time::Instant;

/// Median time of one reference task on the reference host, a 2-vCPU KVM
/// guest on an Intel Xeon (Sapphire Rapids) whose 105 MB L3 is shared with
/// other tenants, over the runs recorded in `README.md`.
pub const REFERENCE_S: f64 = 0.08;

/// Table size: 16 MB, eight times the 2 MB private L2 of the reference host.
const TABLE_WORDS: usize = 1 << 21;
/// Keys sorted per task.
const SORT_KEYS: usize = 1 << 19;
/// Random read-modify-writes per task.
const UPDATES: usize = 1 << 22;
/// A probe that picks the CPU does this share of the task.
const PROBE_DIVISOR: usize = 4;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The reference task's data, built once; every run does the same work.
pub struct Calibrator {
    table: Vec<u64>,
    keys: Vec<u64>,
    work: Vec<u64>,
    /// The CPUs this thread may run on; empty when it cannot be pinned.
    cpus: Vec<usize>,
    /// The thread's CPU mask before the first pin, restored on drop.
    original: Option<affinity::Mask>,
}

impl Calibrator {
    /// Builds the task's data and runs the task once.
    pub fn new() -> Self {
        let mut x = 0x9e37_79b9_7f4a_7c15;
        let original = affinity::get();
        let mut c = Calibrator {
            table: (0..TABLE_WORDS).map(|_| xorshift(&mut x)).collect(),
            keys: (0..SORT_KEYS).map(|_| xorshift(&mut x)).collect(),
            work: vec![0; SORT_KEYS],
            cpus: original.as_ref().map_or_else(Vec::new, affinity::cpus),
            original,
        };
        c.run(1);
        c
    }

    /// Runs `1 / divisor` of the reference task and returns the wall time
    /// the whole task would take at that pace, in seconds.
    fn run(&mut self, divisor: usize) -> f64 {
        let keys = SORT_KEYS / divisor;
        let start = Instant::now();
        self.work[..keys].copy_from_slice(&self.keys[..keys]);
        self.work[..keys].sort_unstable();
        let mask = TABLE_WORDS - 1;
        let mut x = self.work[keys / 2] | 1;
        for _ in 0..UPDATES / divisor {
            let r = xorshift(&mut x);
            let slot = &mut self.table[r as usize & mask];
            *slot = slot.wrapping_add(r);
        }
        black_box(&self.table);
        start.elapsed().as_secs_f64() * divisor as f64
    }

    /// Pins this thread to the CPU that runs a probe fastest; with one CPU,
    /// or where pinning is not supported, leaves it where it is.
    fn pin_fastest(&mut self) {
        if self.cpus.len() < 2 {
            return;
        }
        let mut best: Option<(f64, usize)> = None;
        for cpu in self.cpus.clone() {
            if !affinity::pin(cpu) {
                continue;
            }
            let s = self.run(PROBE_DIVISOR);
            if best.is_none_or(|(b, _)| s < b) {
                best = Some((s, cpu));
            }
        }
        if let Some((_, cpu)) = best {
            affinity::pin(cpu);
        }
    }

    /// Runs `f` on the CPU that runs the reference task fastest right now,
    /// with the task timed on that CPU just before and just after. Returns
    /// what `f` returned and the mean of the two task times, in seconds.
    pub fn around<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        self.pin_fastest();
        let before = self.run(1);
        let out = f();
        let after = self.run(1);
        (out, (before + after) / 2.0)
    }
}

impl Drop for Calibrator {
    fn drop(&mut self) {
        if let Some(mask) = &self.original {
            affinity::set(mask);
        }
    }
}

/// The calling thread's CPU mask, through the `sched_getaffinity` and
/// `sched_setaffinity` system calls. The standard library has no call for
/// them and the package uses no C library binding, so they are made
/// directly on Linux x86-64; elsewhere the thread is never pinned.
mod affinity {
    /// Room for 1024 CPUs, as in the C library's `cpu_set_t`.
    pub type Mask = [u64; 16];

    /// The CPUs set in `mask`.
    pub fn cpus(mask: &Mask) -> Vec<usize> {
        (0..64 * mask.len())
            .filter(|&i| mask[i / 64] >> (i % 64) & 1 == 1)
            .collect()
    }

    /// Pins the calling thread to `cpu`; false if the kernel refused.
    pub fn pin(cpu: usize) -> bool {
        let mut mask: Mask = [0; 16];
        mask[cpu / 64] = 1 << (cpu % 64);
        set(&mask)
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    mod sys {
        const SCHED_SETAFFINITY: i64 = 203;
        const SCHED_GETAFFINITY: i64 = 204;

        /// A system call on the calling thread (pid 0) with a mask buffer.
        fn call(nr: i64, mask: *mut super::Mask) -> i64 {
            let len = std::mem::size_of::<super::Mask>() as i64;
            let ret: i64;
            // SAFETY: both calls take (pid, length, pointer) and access at
            // most `len` bytes behind the pointer, which points at a live,
            // aligned `Mask` of that size. `syscall` clobbers only rcx and
            // r11 besides rax, and touches no stack.
            unsafe {
                std::arch::asm!(
                    "syscall",
                    inlateout("rax") nr => ret,
                    in("rdi") 0_i64,
                    in("rsi") len,
                    in("rdx") mask,
                    lateout("rcx") _,
                    lateout("r11") _,
                    options(nostack),
                );
            }
            ret
        }

        pub fn get() -> Option<super::Mask> {
            let mut mask: super::Mask = [0; 16];
            (call(SCHED_GETAFFINITY, &mut mask) > 0).then_some(mask)
        }

        pub fn set(mask: &super::Mask) -> bool {
            let mut copy = *mask;
            call(SCHED_SETAFFINITY, &mut copy) == 0
        }
    }

    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    mod sys {
        pub fn get() -> Option<super::Mask> {
            None
        }

        pub fn set(_: &super::Mask) -> bool {
            false
        }
    }

    pub use sys::{get, set};
}
