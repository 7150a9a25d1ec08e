//! Keeping a workload's measured work on one CPU.
//!
//! The two CPUs of a shared virtual machine need not run at the same speed
//! at the same moment. On one CPU, the reference job (see
//! [`crate::calib`]) meets the CPU the work it calibrates ran on. In the
//! daemon workload, with one request in flight, the caller and the
//! daemon's worker take turns, and a reply wakes the caller without an
//! inter-processor interrupt, whose cost on a virtual machine varies with
//! the host's load.

use std::os::raw::{c_int, c_ulong};
use std::sync::OnceLock;

/// Room for 1024 CPUs, the kernel's default `cpu_set_t`.
type CpuSet = [c_ulong; 16];

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
    fn sched_getcpu() -> c_int;
}

const BITS: usize = c_ulong::BITS as usize;

/// The calling thread's CPU mask, or `None` if the kernel refuses.
fn get() -> Option<CpuSet> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a live, writable `cpu_set_t`-sized buffer and the
    // size passed is its exact size; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
    (rc == 0).then_some(mask)
}

fn set(mask: &CpuSet) -> bool {
    // SAFETY: `mask` points to a readable `cpu_set_t`-sized buffer of the
    // size passed; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) == 0 }
}

fn only(cpu: usize) -> CpuSet {
    let mut mask: CpuSet = [0; 16];
    mask[cpu / BITS] |= 1 << (cpu % BITS);
    mask
}

/// The mask before pinning and the CPU pinned to.
static PIN: OnceLock<(CpuSet, usize)> = OnceLock::new();

/// Pins the calling thread, and every thread it starts afterwards, to the
/// CPU it runs on, and returns that CPU. Best effort: where the kernel
/// refuses, nothing is pinned and the result is `None`.
pub fn pin_here() -> Option<usize> {
    let saved = get()?;
    // SAFETY: `sched_getcpu` takes no arguments and reads only the calling
    // thread's state.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    (cpu < 16 * BITS && set(&only(cpu))).then(|| PIN.get_or_init(|| (saved, cpu)).1)
}

/// Runs `f` on every CPU the thread had before [`pin_here`] — for work
/// that uses more than one thread — and pins again afterwards.
pub fn unpinned<R>(f: impl FnOnce() -> R) -> R {
    let Some((saved, cpu)) = PIN.get() else {
        return f();
    };
    set(saved);
    let r = f();
    set(&only(*cpu));
    r
}
