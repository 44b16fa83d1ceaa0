//! Pinning the whole process to one CPU for the serving workloads' timed
//! windows.
//!
//! On a small VM whose idle vCPUs halt, a request that wakes a thread on
//! a halted vCPU waits until the host schedules that vCPU again; under a
//! busy host that wait, not the request path, decided the serving
//! latencies. With every thread (server workers, client threads, batch
//! scheduler) on one CPU, the client's write wakes the server worker on
//! the same core and the response wakes the client the same way: no
//! cross-core wake-up is left in the round trip. A `SCHED_IDLE` keeper
//! thread on that CPU keeps it from halting between arrivals; any
//! runnable thread preempts it at once.
//!
//! Linux on x86_64 / aarch64 only, through raw syscalls (no `libc`);
//! elsewhere, or when a syscall fails, [`Pinned::new`] returns `None` and
//! the windows run unpinned, which the report states.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Bytes of the CPU mask passed to the kernel (1,024 CPUs).
const MASK_BYTES: usize = 128;

/// `SCHED_IDLE` scheduling policy.
const SCHED_IDLE: usize = 5;

type Mask = [u64; MASK_BYTES / 8];

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod nr {
    pub const GETAFFINITY: usize = 204;
    pub const SETAFFINITY: usize = 203;
    pub const SETSCHEDULER: usize = 144;
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
mod nr {
    pub const GETAFFINITY: usize = 123;
    pub const SETAFFINITY: usize = 122;
    pub const SETSCHEDULER: usize = 119;
}

/// Raw three-argument syscall; returns the kernel's result (negative
/// errno on failure).
///
/// # Safety
/// The arguments must be valid for syscall `nr`: every pointer argument
/// points to memory of the size the call reads or writes.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe fn syscall3(nr: usize, a: usize, b: usize, c: usize) -> isize {
    let ret: isize;
    // SAFETY: x86_64 Linux syscall ABI — nr in rax, args in rdi/rsi/rdx,
    // rcx/r11 clobbered by `syscall`; the caller vouches for the args.
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") nr as isize => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

/// Raw three-argument syscall (aarch64); same contract as above.
///
/// # Safety
/// See the x86_64 variant.
#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
unsafe fn syscall3(nr: usize, a: usize, b: usize, c: usize) -> isize {
    let ret: isize;
    // SAFETY: aarch64 Linux syscall ABI — nr in x8, args in x0..x2,
    // result in x0; the caller vouches for the args.
    unsafe {
        core::arch::asm!(
            "svc 0",
            in("x8") nr,
            inlateout("x0") a as isize => ret,
            in("x1") b,
            in("x2") c,
            options(nostack),
        );
    }
    ret
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
fn get_mask(tid: usize) -> Option<Mask> {
    let mut mask: Mask = [0; MASK_BYTES / 8];
    // SAFETY: the kernel writes at most MASK_BYTES bytes into `mask`.
    let r = unsafe { syscall3(nr::GETAFFINITY, tid, MASK_BYTES, mask.as_mut_ptr() as usize) };
    (r > 0).then_some(mask)
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
fn set_mask(tid: usize, mask: &Mask) -> bool {
    // SAFETY: the kernel reads MASK_BYTES bytes from `mask`.
    unsafe { syscall3(nr::SETAFFINITY, tid, MASK_BYTES, mask.as_ptr() as usize) == 0 }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn get_mask(_tid: usize) -> Option<Mask> {
    None
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn set_mask(_tid: usize, _mask: &Mask) -> bool {
    false
}

/// Put the calling thread under `SCHED_IDLE`.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
fn set_idle_policy() -> bool {
    let param: i32 = 0;
    // SAFETY: the kernel reads one `struct sched_param` (an int).
    unsafe {
        syscall3(
            nr::SETSCHEDULER,
            0,
            SCHED_IDLE,
            &param as *const i32 as usize,
        ) == 0
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn set_idle_policy() -> bool {
    false
}

/// Thread ids of this process.
fn threads() -> Vec<usize> {
    std::fs::read_dir("/proc/self/task")
        .map(|d| {
            d.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

/// Set every thread of the process to `mask`; false if any failed.
fn set_all(mask: &Mask) -> bool {
    threads().into_iter().all(|tid| set_mask(tid, mask))
}

/// The process pinned to one CPU until dropped, which stops the keeper
/// thread and puts every thread back on the CPUs the process had.
pub struct Pinned {
    /// The CPU everything runs on.
    pub cpu: usize,
    /// Whether the keeper thread runs (it needs `SCHED_IDLE`).
    pub keeper_on: bool,
    saved: Mask,
    stop: Arc<AtomicBool>,
    keeper: Option<JoinHandle<()>>,
}

impl Pinned {
    /// Pin every thread to the highest CPU the process may use (the
    /// lowest usually takes most device interrupts) and start the idle
    /// keeper there. Threads spawned later by a pinned thread inherit the
    /// pin.
    pub fn new() -> Option<Pinned> {
        let saved = get_mask(0)?;
        let cpu = (0..MASK_BYTES * 8)
            .rev()
            .find(|&c| saved[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one: Mask = [0; MASK_BYTES / 8];
        one[cpu / 64] = 1 << (cpu % 64);
        if !set_all(&one) {
            set_all(&saved);
            return None;
        }
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let (tx, rx) = std::sync::mpsc::channel();
        let keeper = std::thread::Builder::new()
            .name("idle-keeper".into())
            .spawn(move || {
                let idle = set_idle_policy();
                let _ = tx.send(idle);
                while idle && !flag.load(Ordering::Relaxed) {
                    std::thread::yield_now();
                }
            })
            .ok();
        let keeper_on = keeper.is_some() && rx.recv().unwrap_or(false);
        Some(Pinned {
            cpu,
            keeper_on,
            saved,
            stop,
            keeper,
        })
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(k) = self.keeper.take() {
            let _ = k.join();
        }
        set_all(&self.saved);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_moves_every_thread_to_one_cpu_and_drop_restores() {
        let Some(before) = get_mask(0) else {
            return; // no affinity syscalls on this platform
        };
        {
            let pin = Pinned::new().expect("pin");
            let now = get_mask(0).expect("mask");
            assert_eq!(now.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            assert_eq!(now[pin.cpu / 64] >> (pin.cpu % 64) & 1, 1);
        }
        assert_eq!(get_mask(0).expect("mask"), before);
    }
}
