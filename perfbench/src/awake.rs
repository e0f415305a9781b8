//! Keeping the CPUs out of their idle state while the `predict` generator
//! measures latency.
//!
//! On a virtual machine a halted vCPU waits for the hypervisor to run it
//! again on each wake-up, and one `predict` crosses several (generator,
//! server reader, batcher, reply), so with idle CPUs its latency follows
//! how busy the host is rather than what `facile` does. One `SCHED_IDLE`
//! thread per CPU spins meanwhile: such a thread runs only when no other
//! thread wants its CPU, so it takes no time from `facile` or the
//! generator, but the CPU never halts. The CLI and stream workloads keep
//! their CPUs busy by themselves and run without it: there the spinning
//! threads cost throughput (cli_batch lost about a fifth of its rows/s).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// `struct sched_param` of `sched_setscheduler(2)`.
#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

/// The `SCHED_IDLE` policy: run only when nothing else wants the CPU.
const SCHED_IDLE: i32 = 5;

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// Spinning idle-class threads, one per CPU, until dropped.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<bool>>,
}

impl KeepAwake {
    pub fn start() -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        let threads = (0..cpus)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || idle_spin(&stop))
            })
            .collect();
        KeepAwake { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        let mut refused = false;
        for t in self.threads.drain(..) {
            refused |= !t.join().unwrap_or(false);
        }
        if refused {
            eprintln!("perfbench: SCHED_IDLE refused; CPUs were left to idle");
        }
    }
}

/// Spin at `SCHED_IDLE` until `stop`; `false` (without spinning) when the
/// kernel refuses the policy, so a spinner never competes with real work.
fn idle_spin(stop: &AtomicBool) -> bool {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` is a live, properly laid-out local for the whole
    // call; pid 0 names the calling thread.
    if unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } != 0 {
        return false;
    }
    while !stop.load(Ordering::Relaxed) {
        std::hint::spin_loop();
    }
    true
}
