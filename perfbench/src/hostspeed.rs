//! The host-speed index: how fast this host runs general-purpose code right
//! now, against a fixed reference.
//!
//! The shared host's speed wanders by half or more over minutes with the
//! other guests' load (`LAYERS.md`, "Run-to-run spread"). The benchmark
//! times a fixed reference routine next to every pass and reports the
//! host time spent simulating in seconds of the reference host: a pass's
//! time is divided by the index measured around it. The routine belongs to the
//! benchmark and never changes with the program, so a change that makes
//! the simulator slower still reads slower.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::process::Command;
use std::sync::Once;
use std::time::Instant;

use crate::report::splitmix;

/// Host seconds one [`routine`] call took on the reference host (the
/// 2-vCPU Intel Xeon guest `LAYERS.md` describes, median of 233 calls).
pub const REFERENCE_S: f64 = 0.03684;

/// Elements the routine works on; its tables span a few MiB, like the
/// simulator's working set.
const N: usize = 100_000;

/// A fixed mix of hash-map, ordered-map, queue and sort work over seeded
/// keys: branchy, allocation-heavy code with a working set beyond the L2,
/// which the host's load slows the way it slows the simulator.
fn routine(n: usize) -> u64 {
    let mut x = 5;
    let mut hash: HashMap<u64, u64> = HashMap::new();
    let mut ordered: BTreeMap<u64, u32> = BTreeMap::new();
    let mut queue: VecDeque<u64> = VecDeque::new();
    let mut acc = 0u64;
    let n64 = n as u64;
    for i in 0..n {
        let v = splitmix(&mut x);
        hash.insert(v % n64, v);
        ordered.insert(v % (4 * n64), i as u32);
        queue.push_back(v);
        if queue.len() > 64 {
            let old = queue.pop_front().unwrap_or_default();
            acc ^= hash.get(&(old % n64)).copied().unwrap_or(1);
        }
        if v & 7 == 0 {
            if let Some((k, _)) = ordered.range(v % (4 * n64)..).next() {
                acc = acc.wrapping_add(*k);
            }
        }
    }
    let mut values: Vec<u64> = hash.into_values().collect();
    values.sort_unstable();
    acc ^ values[values.len() / 2]
}

/// The index now: one routine call's host time over [`REFERENCE_S`].
/// Above 1 the host is slower than the reference host.
pub fn index() -> f64 {
    // The process's first full call pays for page faults and allocator
    // growth, which later calls do not: make it once, untimed.
    static FIRST: Once = Once::new();
    FIRST.call_once(|| {
        std::hint::black_box(routine(N));
    });
    std::hint::black_box(routine(N / 5));
    let t = Instant::now();
    std::hint::black_box(routine(N));
    t.elapsed().as_secs_f64() / REFERENCE_S
}

/// The flag that makes the benchmark print [`index_of_copies`] and exit.
pub const CHILD_FLAG: &str = "--host-index";

/// The index with `copies` routine calls running at once on as many
/// threads: the mean of their times over [`REFERENCE_S`]. Each thread makes
/// one untimed call first.
pub fn index_of_copies(copies: usize) -> f64 {
    let times: Vec<f64> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..copies)
            .map(|_| {
                s.spawn(|| {
                    std::hint::black_box(routine(N));
                    let t = Instant::now();
                    std::hint::black_box(routine(N));
                    t.elapsed().as_secs_f64()
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("routine thread panicked"))
            .collect()
    });
    times.iter().sum::<f64>() / times.len() as f64 / REFERENCE_S
}

/// [`index_of_copies`] read in a child process of the benchmark, so the
/// routine's memory stays out of this process's peak RSS. The serve
/// workload reads it this way: its peak RSS is a few MiB, and its fresh
/// points simulate on two threads at once.
pub fn index_in_child(copies: usize) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("host index: {e}"))?;
    let out = Command::new(exe)
        .args([CHILD_FLAG, &copies.to_string()])
        .output()
        .map_err(|e| format!("host index: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(index) if out.status.success() && index > 0.0 => Ok(index),
        _ => Err(format!("host index child failed: {} {text:?}", out.status)),
    }
}
