//! Host time: the process's CPU clock, and a fixed reference loop that
//! gauges how fast the host runs at the moment.
//!
//! The end-to-end host times are CPU time, not wall time: on a shared
//! virtual machine wall time also counts the time the hypervisor gave the
//! processor to other tenants. CPU time still moves with the host: on a
//! 2-vCPU VM the same simulation ran 30–50% slower for minutes at a time
//! while other tenants were busy, and every figure of a run moved
//! together. The benchmark therefore times the reference loop right
//! before and right after each timed call and reports host times at the
//! reference speed: seconds × [`REF_NOMINAL_S`] ÷ the reference's own
//! CPU seconds at the time. The loop is the benchmark's own code, so a
//! change to the simulator never moves it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Queue operations (one pop and one push each) of one reference pass.
const REF_OPS: u32 = 750_000;
/// Entries kept in the reference queue.
const REF_QUEUE: u64 = 10_000;
/// Words of the reference's state table (512 KiB).
const REF_STATE: usize = 1 << 16;
/// Reference CPU seconds that define the reporting speed: host times are
/// reported as if one reference pass took this long.
const REF_NOMINAL_S: f64 = 0.1;

/// `cpu_s` read at the reference speed, given the reference's CPU
/// seconds at the time.
pub fn at_reference_speed(cpu_s: f64, ref_s: f64) -> f64 {
    cpu_s * REF_NOMINAL_S / ref_s
}

/// CPU time of the whole process, seconds (`CLOCK_PROCESS_CPUTIME_ID`).
/// The simulation runs on the calling thread (`threads = 1`).
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec (two 64-bit fields on
    // 64-bit Linux) for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// The reference loop: a small discrete-event kernel (a timestamp heap
/// plus scattered state updates) that does the same work on every pass
/// and allocates nothing while timed.
pub struct Reference {
    queue: BinaryHeap<Reverse<(u64, u64)>>,
    state: Vec<u64>,
    rng: u64,
}

impl Reference {
    pub fn new() -> Reference {
        let mut r = Reference {
            queue: BinaryHeap::with_capacity(REF_QUEUE as usize + 1),
            state: vec![0; REF_STATE],
            rng: 0x9e37_79b9_7f4a_7c15,
        };
        for id in 0..REF_QUEUE {
            let t = r.next() % 1_000_000;
            r.queue.push(Reverse((t, id)));
        }
        r
    }

    fn next(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// CPU seconds of one pass.
    pub fn pass_s(&mut self) -> f64 {
        let start = process_cpu_s();
        for _ in 0..REF_OPS {
            let Reverse((t, id)) = self.queue.pop().expect("the queue never drains");
            let r = self.next();
            let slot = r as usize & (REF_STATE - 1);
            self.state[slot] = self.state[slot].wrapping_add(id ^ t);
            self.queue.push(Reverse((t + (r >> 40) % 5_000, id)));
        }
        std::hint::black_box(&self.state);
        process_cpu_s() - start
    }
}
