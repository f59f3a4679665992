//! The process CPU clock every end-to-end timing is read from.
//!
//! `CLOCK_PROCESS_CPUTIME_ID` sums the on-CPU time of all the process's
//! threads, including lane workers that have already exited. Time a
//! thread spends runnable but waiting for a core never enters it, and a
//! guest kernel built with `CONFIG_PARAVIRT_TIME_ACCOUNTING` leaves the
//! host's steal time out of it too. On a shared VM those two are what
//! swing wall-clock timings from run to run, so a CPU-time metric moves
//! with the program's work rather than with the host's scheduling.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds the whole process has used so far.
pub fn process_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec and the clock id is a
    // constant the kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];
const CPU_SET_BYTES: usize = std::mem::size_of::<CpuSet>();

fn affinity(tid: i32) -> Option<CpuSet> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable buffer of `CPU_SET_BYTES` bytes.
    (unsafe { sched_getaffinity(tid, CPU_SET_BYTES, mask.as_mut_ptr()) } == 0).then_some(mask)
}

fn set_affinity(tid: i32, mask: &CpuSet) -> bool {
    // SAFETY: `mask` is a readable buffer of `CPU_SET_BYTES` bytes.
    unsafe { sched_setaffinity(tid, CPU_SET_BYTES, mask.as_ptr()) == 0 }
}

/// Thread ids of this process's threads named `name`.
pub fn threads_named(name: &str) -> Vec<i32> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.filter_map(|e| {
        let e = e.ok()?;
        let comm = std::fs::read_to_string(e.path().join("comm")).ok()?;
        (comm.trim_end() == name).then(|| e.file_name().to_str()?.parse().ok())?
    })
    .collect()
}

/// Threads held on one core until dropped, when each gets its own mask
/// back.
///
/// A request and its reply then pass between threads on one core: the
/// wake-up is a context switch rather than an interrupt to a core that
/// may be idle, and which of those an exchange gets no longer depends
/// on where the scheduler placed the threads. Outside the pinned
/// stretches the threads move freely, so none waits out a stall of one
/// core.
pub struct OneCore {
    saved: Vec<(i32, CpuSet)>,
}

impl OneCore {
    /// Pins each thread in `tids` (0 is the calling thread) to the
    /// highest-numbered core the caller may run on. A thread that has
    /// exited meanwhile is skipped.
    pub fn pin(tids: &[i32]) -> OneCore {
        let mut saved = Vec::new();
        let Some(mine) = affinity(0) else {
            return OneCore { saved };
        };
        let Some(core) = (0..1024).rev().find(|&c| mine[c / 64] >> (c % 64) & 1 == 1) else {
            return OneCore { saved };
        };
        let mut one: CpuSet = [0; 16];
        one[core / 64] = 1 << (core % 64);
        for &tid in tids {
            if let Some(mask) = affinity(tid) {
                if set_affinity(tid, &one) {
                    saved.push((tid, mask));
                }
            }
        }
        OneCore { saved }
    }
}

impl Drop for OneCore {
    fn drop(&mut self) {
        for (tid, mask) in &self.saved {
            set_affinity(*tid, mask);
        }
    }
}

/// Wall and process-CPU seconds of one timed call.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Cost {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// A running measurement of both clocks.
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu: process_s(),
        }
    }

    pub fn stop(&self) -> Cost {
        let cpu = process_s();
        Cost {
            wall_s: self.wall.elapsed().as_secs_f64(),
            cpu_s: cpu - self.cpu,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;
    use std::time::Duration;

    /// Other tests run on other threads of the same process, so only a
    /// lower bound on the process clock holds here.
    #[test]
    fn another_threads_work_counts_toward_the_process() {
        let w = Stopwatch::start();
        std::thread::spawn(|| {
            let start = Instant::now();
            let mut x = black_box(1u64);
            while start.elapsed() < Duration::from_millis(30) {
                x = black_box(x.rotate_left(7) ^ 0x9E37);
            }
        })
        .join()
        .unwrap();
        let cost = w.stop();
        assert!(cost.wall_s >= 0.03);
        assert!(
            cost.cpu_s > 0.005,
            "30 ms of spinning used {} CPU s",
            cost.cpu_s
        );
    }

    #[test]
    fn pinning_holds_named_threads_on_one_core_until_dropped() {
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
        let child = std::thread::Builder::new()
            .name("bench-pin-test".into())
            .spawn(move || {
                // The thread names itself as it starts; once it runs
                // this closure, the name is visible.
                ready_tx.send(()).unwrap();
                rx.recv().unwrap()
            })
            .unwrap();
        ready_rx.recv().unwrap();
        let tids = threads_named("bench-pin-test");
        assert_eq!(tids.len(), 1);
        let before = affinity(tids[0]).unwrap();
        {
            let _pinned = OneCore::pin(&tids);
            let mask = affinity(tids[0]).unwrap();
            let cores: usize = mask.iter().map(|w| w.count_ones() as usize).sum();
            assert_eq!(cores, 1);
        }
        assert_eq!(affinity(tids[0]).unwrap(), before);
        tx.send(()).unwrap();
        child.join().unwrap();
    }
}
