//! CPU pinning.
//!
//! Every workload runs its load on one thread, and the baton simulator
//! has exactly one runnable thread at a time: left unpinned on the
//! 2-core box it measures cross-core wake-ups and swings 3x between
//! runs. The benchmark therefore pins itself to one CPU before it
//! builds anything, and refuses to report a number it could not pin.

/// The kernel's `cpu_set_t`: 1024 bits.
pub type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on.
pub fn allowed() -> Result<CpuSet, String> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of exactly the
    // `size_of::<CpuSet>()` bytes passed as its size; pid 0 names the
    // calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    if rc == 0 {
        Ok(set)
    } else {
        Err(format!(
            "sched_getaffinity failed: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// Restricts the calling thread (and threads it spawns later) to `set`.
pub fn restrict_to(set: &CpuSet) -> Result<(), String> {
    // SAFETY: `set` is a live buffer of exactly the size passed; the
    // kernel only reads it.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "sched_setaffinity failed: {}",
            std::io::Error::last_os_error()
        ))
    }
}

pub fn count(set: &CpuSet) -> usize {
    set.iter().map(|w| w.count_ones() as usize).sum()
}

/// The result of [`pin_to_first`].
pub struct Pin {
    pub cpu: usize,
    /// The one-CPU set the thread is pinned to.
    pub one: CpuSet,
    /// What the thread was allowed before, for the one probe that
    /// needs every CPU back.
    pub all: CpuSet,
}

/// Pins the calling thread to the lowest CPU it is allowed on.
pub fn pin_to_first() -> Result<Pin, String> {
    let all = allowed()?;
    let cpu = (0..1024)
        .find(|&c| all[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("empty CPU affinity mask")?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    restrict_to(&one)?;
    let after = allowed()?;
    if after != one {
        return Err(format!(
            "asked for CPU {cpu} only, kernel reports {} CPUs",
            count(&after)
        ));
    }
    Ok(Pin { cpu, one, all })
}
