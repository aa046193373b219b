//! The repository's benchmark: simulator host speed, serve-daemon latency
//! and Table I accuracy on four named workloads, plus per-layer numbers
//! from a traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload bfs-fig --seed 20150301 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` every pass runs with the self-profiler and counter
//! sampling off and the last stdout line carries the end-to-end metrics.
//! With `--trace 1` the run ends with one traced pass (profiler and counter
//! sampling on) and the last line carries the per-layer metrics instead.
//! Every line before it is a human-readable table of all metrics; failed
//! checks go to stderr, together with the run's identity record (the exact
//! outputs `expected.json` pins per workload and seed). `LAYERS.md` maps
//! each layer metric to the end-to-end metric and workload it should move.
//!
//! `perfbench --host-index <1|2>` prints the host-speed index measured with
//! that many copies of the reference routine at once (`hostspeed.rs`); the
//! serve workload reads its index this way, in a child process.

mod expect;
mod hostspeed;
mod isa;
mod report;
mod serve;
mod sim;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use gpu_sim::profile;

use crate::expect::Expected;
use crate::report::Report;

/// The seed whose inputs are the `bench` suites' inputs (BFS graph seed
/// 20150301, SpMV matrix seed 5), so its identities equal the committed
/// `BENCH_tick.json` and `BENCH_workloads.json` baselines.
pub const MAIN_SEED: u64 = 20150301;

/// Host seconds after which a run is abandoned: a hung simulation or a
/// serve client that never gets its answer must not outlive the 180 s a
/// run may take.
const DEADLINE_SECONDS: u64 = 170;

/// The named workloads, as `--workload` spells them.
const WORKLOADS: [&str; 4] = ["bfs-fig", "dense-gf100", "mem-gv100", "serve-table1"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <1..=600> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("seconds {s} outside 1..=600"));
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Files the benchmark reads besides its own sources: the published
/// latency references and the committed bench-suite baselines it
/// cross-checks against.
pub struct Inputs {
    /// Root of the checkout (parent of the benchmark directory).
    pub root: PathBuf,
    /// Committed identity records (`expected.json`).
    pub expected: Expected,
}

impl Inputs {
    fn load() -> Result<Inputs, String> {
        let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = bench_dir
            .parent()
            .ok_or("benchmark directory has no parent")?
            .to_path_buf();
        let expected = Expected::load(&bench_dir.join("expected.json"), &root)?;
        Ok(Inputs { root, expected })
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, copies] = &argv[..] {
        if flag == hostspeed::CHILD_FLAG {
            return match copies.parse::<usize>() {
                Ok(n @ 1..=2) => {
                    println!("{}", hostspeed::index_of_copies(n));
                    ExitCode::SUCCESS
                }
                _ => ExitCode::from(2),
            };
        }
    }
    let args = match parse_args(argv.into_iter()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let inputs = match Inputs::load() {
        Ok(inputs) => inputs,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    // The watchdog ends the process, so it is never joined.
    std::thread::spawn(|| {
        std::thread::sleep(std::time::Duration::from_secs(DEADLINE_SECONDS));
        eprintln!("perfbench: no result after {DEADLINE_SECONDS} s; a client or simulation hung");
        std::process::exit(3);
    });
    // Measure with the profiler off whatever the environment asks for; the
    // traced pass switches it on explicitly.
    profile::set_enabled(false);
    let mut report: Report = match args.workload.as_str() {
        "serve-table1" => serve::run(&inputs, args.seed, args.seconds, args.trace),
        name => sim::run(
            sim::SimWorkload::named(name).expect("parse_args admits only known workloads"),
            &inputs,
            args.seed,
            args.seconds,
            args.trace,
        ),
    };
    report.record_peak_rss();
    report.print(&args.workload, args.seed, args.trace);
    ExitCode::SUCCESS
}
