//! The functional SIMT executor measured on its own: `WarpExec` stepped over
//! a workload's kernels against a flat memory image, with no timing model
//! (the method of `crates/bench/benches/isa_throughput.rs`).

use std::sync::Arc;
use std::time::Instant;

use gpu_isa::{Kernel, LocalMap, MemBackend, Space, ThreadCtx, WarpExec, Width};
use gpu_types::Addr;
use latency_core::{build_chase_kernel, ChaseParams};

/// Bytes of the flat memory image; addresses wrap into it.
const FLAT_BYTES: usize = 64 * 1024;

/// Steps per warp after which a kernel whose control flow depends on
/// memory contents the flat image lacks is cut off, so every measurement
/// terminates with a deterministic count.
const MAX_STEPS_PER_WARP: u64 = 1 << 20;

/// Every parameter of a [`Launch::uniform`]: large enough that size-bounded
/// loops run, small enough that one CTA stays cheap.
const UNIFORM_PARAM: u64 = 1024;

/// The flat image: every aligned 32-bit word reads 1, so masks and flags
/// read "set", counts read one, and data-dependent loops still end.
struct FlatMem(Vec<u8>);

impl FlatMem {
    fn new() -> FlatMem {
        FlatMem((0..FLAT_BYTES).map(|i| u8::from(i % 4 == 0)).collect())
    }
}

impl MemBackend for FlatMem {
    fn load(&mut self, _: Space, addr: Addr, width: Width) -> u64 {
        let mut v = 0u64;
        for i in 0..width.bytes() {
            v |= (self.0[(addr.get() + i) as usize % FLAT_BYTES] as u64) << (8 * i);
        }
        v
    }

    fn store(&mut self, _: Space, addr: Addr, width: Width, value: u64) {
        for i in 0..width.bytes() {
            self.0[(addr.get() + i) as usize % FLAT_BYTES] = (value >> (8 * i)) as u8;
        }
    }

    fn atomic_add(&mut self, addr: Addr, width: Width, value: u64) -> u64 {
        let old = self.load(Space::Global, addr, width);
        self.store(Space::Global, addr, width, old.wrapping_add(value));
        old
    }
}

/// One kernel launch for the executor: the kernel, its parameters, and the
/// CTA width (one CTA is stepped, warp by warp).
pub struct Launch {
    pub kernel: Arc<Kernel>,
    pub params: Arc<[u64]>,
    pub threads: u32,
}

impl Launch {
    /// A launch of `kernel` on one CTA of `threads` threads with every
    /// parameter set to [`UNIFORM_PARAM`].
    pub fn uniform(kernel: Kernel, threads: u32) -> Launch {
        Launch {
            kernel: Arc::new(kernel),
            params: Arc::from(vec![UNIFORM_PARAM; 8]),
            threads,
        }
    }

    /// The single-thread chase kernel exactly as `measure_chase` launches
    /// it for `iters` loop iterations.
    pub fn chase(params: &ChaseParams, iters: u64) -> Launch {
        Launch {
            kernel: Arc::new(build_chase_kernel(params)),
            params: Arc::from(vec![0, iters, 8]),
            threads: 1,
        }
    }

    /// Steps every warp of the CTA to completion; returns the warp
    /// instructions executed.
    fn execute(&self, mem: &mut FlatMem) -> u64 {
        let local = LocalMap {
            base: Addr::new(0),
            bytes_per_thread: self.kernel.local_bytes_per_thread(),
        };
        let mut total = 0;
        for first in (0..self.threads).step_by(32) {
            let ctxs = (first..self.threads.min(first + 32))
                .map(|tid| ThreadCtx {
                    tid,
                    ctaid: 0,
                    ntid: self.threads,
                    nctaid: 1,
                    lane: tid - first,
                })
                .collect();
            let mut w = WarpExec::new(
                Arc::clone(&self.kernel),
                Arc::clone(&self.params),
                ctxs,
                local,
            );
            let mut steps = 0;
            while !w.is_finished() && steps < MAX_STEPS_PER_WARP {
                if w.at_barrier() {
                    w.release_barrier();
                }
                w.step(mem);
                steps += 1;
            }
            total += w.instructions_executed();
        }
        total
    }
}

/// Warp instructions the executor runs for `launches`, once.
pub fn count(launches: &[Launch]) -> u64 {
    let mut mem = FlatMem::new();
    launches.iter().map(|l| l.execute(&mut mem)).sum()
}

/// Repeats `launches` for at least `min_seconds`; returns the warp
/// instructions of one repetition and the executor's rate in warp
/// instructions per host second.
pub fn rate(launches: &[Launch], min_seconds: f64) -> (u64, f64) {
    let per_round = count(launches);
    let mut mem = FlatMem::new();
    let t0 = Instant::now();
    let (mut rounds, mut executed) = (0u64, 0u64);
    while rounds == 0 || t0.elapsed().as_secs_f64() < min_seconds {
        executed += launches.iter().map(|l| l.execute(&mut mem)).sum::<u64>();
        rounds += 1;
    }
    (
        per_round,
        std::hint::black_box(executed) as f64 / t0.elapsed().as_secs_f64(),
    )
}
