//! The three simulator workloads. Each pass sets up, simulates and verifies
//! every kernel of the workload in its own `Gpu` (serial ticking), and
//! `bfs-fig` ends with the Fig. 1 breakdown and Fig. 2 exposure analysis
//! over the completed requests and loads.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use gpu_sim::profile::{self, ProfileReport};
use gpu_sim::{CounterKind, Gpu, GpuConfig, RunSummary, SimError, SmStats, StallReason};
use gpu_workloads::spmv::CsrMatrix;
use gpu_workloads::transpose::Variant;
use gpu_workloads::{bfs, histogram, matmul, reduce, scan, spmv, transpose, vecadd, Graph};
use latency_core::{ArchPreset, ExposureAnalysis, LatencyBreakdown};

use crate::{hostspeed, isa};
use crate::report::{
    common_layers, median, quantile, ratio, show, show_all, Checks, KernelIdentity, Report,
    TracedPass,
};
use crate::{Inputs, MAIN_SEED};

/// The `bench` tick suite's BFS: 4096 nodes of out-degree 8, 128-thread
/// CTAs, traversed from node 0.
const BFS_NODES: u32 = 4096;
const BFS_DEGREE: u32 = 8;
const BFS_BLOCK: u32 = 128;

/// Input seeds of the `bench` suites, which [`MAIN_SEED`] reproduces.
const BASELINE_GRAPH_SEED: u64 = 20150301;
const BASELINE_SPMV_SEED: u64 = 5;

/// Setup-only repetitions before every pass, so `setup_s` is a median over
/// the whole run, not over one moment of it, even when only one pass fits.
const SETUP_REPS: usize = 5;

/// Host seconds spent measuring the functional executor in a traced run.
const ISA_SECONDS: f64 = 0.25;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    Bfs,
    MatMul,
    Reduce,
    Scan,
    VecAdd,
    Histogram,
    Transpose,
    SpMv,
}

impl Kernel {
    /// The job name; equal to the `BENCH_workloads.json` workload name.
    fn name(self) -> &'static str {
        match self {
            Kernel::Bfs => "bfs",
            Kernel::MatMul => "matmul",
            Kernel::Reduce => "reduce",
            Kernel::Scan => "scan",
            Kernel::VecAdd => "vecadd",
            Kernel::Histogram => "histogram",
            Kernel::Transpose => "transpose",
            Kernel::SpMv => "spmv",
        }
    }

    /// Whether the benchmark seed changes this kernel's input.
    fn seeded(self) -> bool {
        matches!(self, Kernel::Bfs | Kernel::SpMv)
    }

    /// The kernel's programs as the functional executor runs them alone.
    fn isa_launches(self) -> Vec<isa::Launch> {
        let one = |k, threads| vec![isa::Launch::uniform(k, threads)];
        match self {
            Kernel::Bfs => vec![
                isa::Launch::uniform(bfs::build_bfs_mask_kernel1(), BFS_BLOCK),
                isa::Launch::uniform(bfs::build_bfs_mask_kernel2(), BFS_BLOCK),
            ],
            Kernel::MatMul => one(matmul::build_matmul_kernel(), 256),
            Kernel::Reduce => one(reduce::build_reduce_kernel(256), 256),
            Kernel::Scan => one(scan::build_scan_kernel(256), 256),
            Kernel::VecAdd => one(vecadd::build_vecadd_kernel(), 256),
            Kernel::Histogram => one(histogram::build_histogram_kernel(), 256),
            Kernel::Transpose => one(transpose::build_transpose_kernel(Variant::Tiled), 256),
            Kernel::SpMv => one(spmv::build_spmv_kernel(), 128),
        }
    }
}

/// A named simulator workload.
pub struct SimWorkload {
    name: &'static str,
    preset: ArchPreset,
    kernels: &'static [Kernel],
    /// Record completed requests and loads and run the analysis passes.
    sink: bool,
}

const SIM_WORKLOADS: [SimWorkload; 3] = [
    SimWorkload {
        name: "bfs-fig",
        preset: ArchPreset::FermiGf100,
        kernels: &[Kernel::Bfs],
        sink: true,
    },
    SimWorkload {
        name: "dense-gf100",
        preset: ArchPreset::FermiGf100,
        kernels: &[Kernel::MatMul, Kernel::Reduce, Kernel::Scan],
        sink: false,
    },
    SimWorkload {
        name: "mem-gv100",
        preset: ArchPreset::VoltaGv100,
        kernels: &[
            Kernel::VecAdd,
            Kernel::Histogram,
            Kernel::Transpose,
            Kernel::SpMv,
        ],
        sink: false,
    },
];

impl SimWorkload {
    /// The workload `--workload name` selects.
    pub fn named(name: &str) -> Option<&'static SimWorkload> {
        SIM_WORKLOADS.iter().find(|w| w.name == name)
    }
}

/// The generator seeds the benchmark seed selects.
#[derive(Debug, Clone, Copy)]
struct Seeds {
    graph: u64,
    spmv: u64,
}

impl Seeds {
    fn new(seed: u64) -> Seeds {
        if seed == MAIN_SEED {
            Seeds {
                graph: BASELINE_GRAPH_SEED,
                spmv: BASELINE_SPMV_SEED,
            }
        } else {
            Seeds {
                graph: seed,
                spmv: seed,
            }
        }
    }
}

/// One kernel's setup, simulation, verification and analysis.
#[derive(Debug, Default)]
struct Job {
    setup_s: f64,
    sim_s: f64,
    verify_s: f64,
    breakdown_s: f64,
    exposure_s: f64,
    requests: u64,
    loads: u64,
    summary: RunSummary,
    sm: Vec<SmStats>,
    failure: Option<String>,
}

impl Job {
    fn wall_s(&self) -> f64 {
        self.setup_s + self.sim_s + self.verify_s + self.breakdown_s + self.exposure_s
    }

    fn identity(&self) -> KernelIdentity {
        (
            self.summary.content_hash,
            self.summary.cycles,
            self.summary.instructions,
        )
    }
}

fn seconds_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// True when `verify` returns without panicking (the workloads' verifiers
/// assert).
fn passes(verify: impl FnOnce()) -> bool {
    catch_unwind(AssertUnwindSafe(verify)).is_ok()
}

/// Times the phases of one job: `Gpu::new` plus `setup`, then `run`, then
/// `verify`, then (with the latency sink on) the two analysis passes.
fn drive<D>(
    cfg: GpuConfig,
    sink: bool,
    setup_only: bool,
    setup: impl FnOnce(&mut Gpu) -> D,
    run: impl FnOnce(&mut Gpu, &D) -> Result<(), SimError>,
    verify: impl FnOnce(&Gpu, &D) -> bool,
) -> Job {
    let mut job = Job::default();
    let t = Instant::now();
    let mut gpu = Gpu::new(cfg);
    gpu.set_tracing(sink);
    let dev = setup(&mut gpu);
    job.setup_s = seconds_since(t);
    if setup_only {
        return job;
    }

    let t = Instant::now();
    let ran = run(&mut gpu, &dev);
    job.sim_s = seconds_since(t);
    if let Err(e) = ran {
        job.failure = Some(format!("simulation failed: {e}"));
        return job;
    }

    let t = Instant::now();
    let verified = verify(&gpu, &dev);
    job.verify_s = seconds_since(t);
    if !verified {
        job.failure = Some("device output differs from the host reference".to_string());
    }
    job.summary = gpu.summary();
    job.sm = gpu.sm_stats();
    if job.summary.sanitizer_violations != 0 {
        job.failure = Some(format!(
            "{} sanitizer violations",
            job.summary.sanitizer_violations
        ));
    }

    if sink {
        let (requests, loads) = gpu.take_traces();
        let t = Instant::now();
        let breakdown = std::hint::black_box(LatencyBreakdown::from_requests(&requests, 48));
        job.breakdown_s = seconds_since(t);
        let t = Instant::now();
        let exposure = std::hint::black_box(ExposureAnalysis::from_loads(&loads, 24));
        job.exposure_s = seconds_since(t);
        job.requests = requests.len() as u64;
        job.loads = loads.len() as u64;
        if breakdown.total_requests() == 0 || exposure.total_loads() != job.loads {
            job.failure = Some(format!(
                "analysis covered {} of {} requests and {} of {} loads",
                breakdown.total_requests(),
                job.requests,
                exposure.total_loads(),
                job.loads
            ));
        }
    }
    job
}

fn run_job(w: &SimWorkload, kernel: Kernel, seeds: Seeds, traced: bool, setup_only: bool) -> Job {
    let mut cfg = w.preset.config();
    if traced {
        // Counter sampling only: the event stream is capped at nothing, so
        // the traced pass measures the sampling cost, not event storage.
        cfg.trace.enabled = true;
        cfg.trace.max_events = 0;
    }
    let sink = w.sink;
    let job = catch_unwind(AssertUnwindSafe(|| match kernel {
        Kernel::Bfs => drive(
            cfg,
            sink,
            setup_only,
            |g| {
                let graph = Graph::uniform_random(BFS_NODES, BFS_DEGREE, seeds.graph);
                let dev = bfs::upload_graph_mask(g, &graph);
                (graph, dev)
            },
            |g, (_, dev)| bfs::run_bfs_mask(g, dev, 0, BFS_BLOCK).map(drop),
            |g, (graph, dev)| bfs::read_costs(g, dev) == graph.bfs_levels(0),
        ),
        Kernel::MatMul => drive(
            cfg,
            sink,
            setup_only,
            |g| matmul::setup(g, 64),
            |g, d| matmul::run(g, d).map(drop),
            |g, d| passes(|| matmul::verify(g, d)),
        ),
        Kernel::Reduce => drive(
            cfg,
            sink,
            setup_only,
            |g| reduce::setup(g, 64 << 10),
            |g, d| reduce::run(g, d, 256).map(drop),
            |g, d| g.device().read_u32(d.output) == reduce::reference(64 << 10),
        ),
        Kernel::Scan => drive(
            cfg,
            sink,
            setup_only,
            |g| scan::setup(g, 64 << 10),
            |g, d| scan::run(g, d, 256).map(drop),
            |g, d| passes(|| scan::verify(g, d, 256)),
        ),
        Kernel::VecAdd => drive(
            cfg,
            sink,
            setup_only,
            |g| vecadd::setup(g, 64 << 10),
            |g, d| vecadd::run(g, d, 256).map(drop),
            |g, d| passes(|| vecadd::verify(g, d)),
        ),
        Kernel::Histogram => drive(
            cfg,
            sink,
            setup_only,
            |g| histogram::setup(g, 64 << 10, 256),
            |g, d| histogram::run(g, d, 256).map(drop),
            |g, d| passes(|| histogram::verify(g, d)),
        ),
        Kernel::Transpose => drive(
            cfg,
            sink,
            setup_only,
            |g| transpose::setup(g, 256),
            |g, d| transpose::run(g, d, Variant::Tiled).map(drop),
            |g, d| passes(|| transpose::verify(g, d)),
        ),
        Kernel::SpMv => drive(
            cfg,
            sink,
            setup_only,
            |g| {
                let m = CsrMatrix::random(4096, 4096, 8, seeds.spmv);
                let dev = spmv::setup(g, &m);
                (m, dev)
            },
            |g, (_, dev)| spmv::run(g, dev, 128).map(drop),
            |g, (m, dev)| passes(|| spmv::verify(g, dev, m)),
        ),
    }));
    job.unwrap_or_else(|_| Job {
        failure: Some("panicked".to_string()),
        ..Job::default()
    })
}

/// One pass over every kernel of the workload.
struct Pass {
    jobs: Vec<(Kernel, Job)>,
    wall_s: f64,
    /// Host-speed index around the pass: the mean of the readings just
    /// before and just after it.
    host: f64,
    /// The reading just after the pass, which is the next pass's "before".
    host_after: f64,
}

impl Pass {
    /// Runs every kernel once; `host_before` is the host-speed index read
    /// just before, and the pass reads the one just after itself.
    fn run(w: &SimWorkload, seeds: Seeds, traced: bool, host_before: f64) -> Pass {
        let t = Instant::now();
        let jobs = w
            .kernels
            .iter()
            .map(|&k| (k, run_job(w, k, seeds, traced, false)))
            .collect();
        let wall_s = seconds_since(t);
        let host_after = hostspeed::index();
        Pass {
            jobs,
            wall_s,
            host: (host_before + host_after) / 2.0,
            host_after,
        }
    }

    /// `s` host seconds measured during this pass, in reference-host seconds.
    fn reference_s(&self, s: f64) -> f64 {
        s / self.host
    }

    fn sum(&self, f: impl Fn(&Job) -> f64) -> f64 {
        self.jobs.iter().map(|(_, j)| f(j)).sum()
    }

    fn identity(&self) -> BTreeMap<String, KernelIdentity> {
        self.jobs
            .iter()
            .map(|(k, j)| (k.name().to_string(), j.identity()))
            .collect()
    }
}

/// Runs `w` for `seconds`: untraced passes, each after setup-only
/// repetitions, then (with `trace`) one traced pass and the executor-only
/// measurement.
pub fn run(w: &SimWorkload, inputs: &Inputs, seed: u64, seconds: f64, trace: bool) -> Report {
    let seeds = Seeds::new(seed);
    let start = Instant::now();
    let setup_once = || -> f64 {
        w.kernels
            .iter()
            .map(|&k| run_job(w, k, seeds, false, true).setup_s)
            .sum()
    };
    let mut setups = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let mut host = hostspeed::index();
    loop {
        setups.extend((0..SETUP_REPS).map(|_| setup_once() / host));
        let pass = Pass::run(w, seeds, false, host);
        host = pass.host_after;
        passes.push(pass);
        let mean = passes.iter().map(|p| p.wall_s).sum::<f64>() / passes.len() as f64;
        // A traced pass costs more than an untraced one; keep room for it.
        let next = if trace { 2.5 * mean } else { mean };
        if seconds_since(start) + next > seconds {
            break;
        }
    }

    let mut report = Report::default();
    let first = passes[0].identity();
    check_pass_jobs(&passes, &first, "untraced", &mut report.checks);
    check_baselines(w, inputs, seed, &passes[0], &mut report.checks);
    if !inputs
        .expected
        .check_kernels(w.name, seed, &first, &mut report.checks)
    {
        report.checks.note(format!(
            "{}/{seed} has no committed identity record",
            w.name
        ));
    }
    report.kernels = first.clone();

    // The first pass warms the allocator and the host caches: it is checked
    // above but timed only when it is the run's one pass.
    let timed = &passes[usize::from(passes.len() > 1)..];
    // Every time is in reference-host seconds (see `hostspeed`).
    let walls: Vec<f64> = timed.iter().map(|p| p.reference_s(p.wall_s)).collect();
    let rate = |f: &dyn Fn(&Job) -> f64| -> f64 {
        median(
            &timed
                .iter()
                .map(|p| p.sum(f) / p.reference_s(p.sum(|j| j.sim_s)))
                .collect::<Vec<_>>(),
        )
    };
    let jobs: Vec<f64> = timed
        .iter()
        .flat_map(|p| p.jobs.iter().map(|(_, j)| p.reference_s(j.wall_s())))
        .collect();
    setups.extend(timed.iter().map(|p| p.reference_s(p.sum(|j| j.setup_s))));
    let e2e = &mut report.end_to_end;
    e2e.insert("sim_cycles_per_s", rate(&|j| j.summary.cycles as f64));
    e2e.insert("warp_instr_per_s", rate(&|j| j.summary.instructions as f64));
    e2e.insert("wall_s", median(&walls));
    e2e.insert("setup_s", median(&setups));
    e2e.insert("jobs_per_s", jobs.len() as f64 / walls.iter().sum::<f64>());
    e2e.insert("job_s_p50", quantile(&jobs, 0.5));
    e2e.insert("job_s_p90", quantile(&jobs, 0.9));
    e2e.insert(
        "host_index",
        median(&timed.iter().map(|p| p.host).collect::<Vec<_>>()),
    );

    if trace {
        profile::reset();
        profile::set_enabled(true);
        let traced = Pass::run(w, seeds, true, host);
        profile::set_enabled(false);
        let prof = profile::report();
        check_pass_jobs(
            std::slice::from_ref(&traced),
            &first,
            "traced",
            &mut report.checks,
        );
        let launches: Vec<isa::Launch> = w.kernels.iter().flat_map(|k| k.isa_launches()).collect();
        let context = TracedPass {
            wall_s: traced.reference_s(traced.wall_s),
            untraced_wall_s: median(&walls),
            host_index: traced.host,
            untraced_passes: timed.len(),
            jobs_per_pass: w.kernels.len(),
            isa: isa::rate(&launches, ISA_SECONDS),
        };
        report.layers = layers(&traced, &prof, &context);
        inputs
            .expected
            .check_layers(w.name, seed, &report.layers, &mut report.checks);
    }
    report
}

/// Every job must verify, and every pass must reproduce the first
/// untraced pass's identities exactly.
fn check_pass_jobs(
    passes: &[Pass],
    first: &BTreeMap<String, KernelIdentity>,
    label: &str,
    checks: &mut Checks,
) {
    for (i, pass) in passes.iter().enumerate() {
        for (k, job) in &pass.jobs {
            checks.check(job.failure.is_none(), || {
                format!(
                    "{label} pass {i} {}: {}",
                    k.name(),
                    job.failure.as_deref().unwrap_or_default()
                )
            });
        }
        let identity = pass.identity();
        checks.check(&identity == first, || {
            format!(
                "{label} pass {i}: identities {} differ from the first pass {}",
                show_all(&identity),
                show_all(first)
            )
        });
    }
}

/// Cross-checks the jobs whose inputs equal the `bench` suites' against
/// the committed `BENCH_tick.json` / `BENCH_workloads.json`.
fn check_baselines(w: &SimWorkload, inputs: &Inputs, seed: u64, pass: &Pass, checks: &mut Checks) {
    let preset = w.preset.name();
    for (k, job) in &pass.jobs {
        if k.seeded() && seed != MAIN_SEED {
            continue;
        }
        let ours = job.identity();
        let (hash, cycles, _) = ours;
        if *k == Kernel::Bfs {
            let (tick_preset, label, tick_hash, tick_cycles) = inputs.expected.bench_tick();
            let our_label = format!("bfs nodes={BFS_NODES} degree={BFS_DEGREE}");
            checks.check(
                tick_preset == preset
                    && *label == our_label
                    && (hash, cycles) == (*tick_hash, *tick_cycles),
                || {
                    format!(
                        "bfs {hash:016x}/{cycles} differs from BENCH_tick.json \
                         {tick_preset} {label} {tick_hash:016x}/{tick_cycles}"
                    )
                },
            );
            continue;
        }
        let want = inputs.expected.bench_workload(preset, k.name());
        checks.check(want == Some(ours), || {
            format!(
                "{} on {preset}: {} differs from BENCH_workloads.json {}",
                k.name(),
                show(ours),
                want.map_or("(absent)".to_string(), show)
            )
        });
    }
}

/// The per-layer metrics of one traced pass: the common ones plus the SM
/// tick split, the memory-side counters and the analysis and workload
/// phases, which only the simulator workloads observe.
fn layers(pass: &Pass, prof: &ProfileReport, traced: &TracedPass) -> BTreeMap<&'static str, f64> {
    let sm_sum = |f: &dyn Fn(&SmStats) -> u64| -> f64 {
        pass.jobs
            .iter()
            .flat_map(|(_, j)| j.sm.iter())
            .map(f)
            .sum::<u64>() as f64
    };
    let counter_mean = |kind: CounterKind| -> f64 {
        let (sum, n) = pass.jobs.iter().fold((0u64, 0u64), |(s, n), (_, j)| {
            let c = j.summary.metrics.counter(kind);
            (s + c.sum, n + c.samples)
        });
        sum as f64 / n.max(1) as f64
    };
    let summed = |f: fn(&RunSummary) -> u64| pass.sum(|j| f(&j.summary) as f64);

    let mut m = common_layers(prof, traced);
    let ticks = m["sm.ticks"];
    let issue = sm_sum(&|s| s.active_cycles);
    let stall = sm_sum(&|s| s.stall_cycles);
    let (l1_hits, l1_misses) = (summed(|s| s.l1_hits), summed(|s| s.l1_misses));
    let (l2_hits, l2_misses) = (summed(|s| s.l2_hits), summed(|s| s.l2_misses));
    let dram = summed(|s| s.dram_serviced);
    m.insert("sm.issue_ticks", issue);
    m.insert("sm.stall_ticks", stall);
    m.insert("sm.empty_ticks", (ticks - issue - stall).max(0.0));
    m.insert("sm.idle_tick_frac", ratio(ticks - issue, ticks));
    for (name, reason) in [
        ("sm.stall.scoreboard", StallReason::Scoreboard),
        ("sm.stall.mshr_full", StallReason::MshrFull),
        ("sm.stall.icnt_backpressure", StallReason::IcntBackpressure),
        ("sm.stall.barrier", StallReason::Barrier),
        ("sm.stall.other", StallReason::Other),
    ] {
        m.insert(name, sm_sum(&|s| s.stalls.get(reason)));
    }
    m.insert("sm.l1_hit_ratio", ratio(l1_hits, l1_hits + l1_misses));
    m.insert("sm.transactions", sm_sum(&|s| s.transactions));
    m.insert("sm.front_depth_mean", counter_mean(CounterKind::FrontDepth));
    m.insert(
        "sm.l1_mshr_mean",
        counter_mean(CounterKind::L1MshrOccupancy),
    );
    m.insert("l2.hits", l2_hits);
    m.insert("l2.misses", l2_misses);
    m.insert("l2.hit_ratio", ratio(l2_hits, l2_hits + l2_misses));
    m.insert("l2.mshr_mean", counter_mean(CounterKind::L2MshrOccupancy));
    m.insert("dram.serviced", dram);
    m.insert(
        "dram.row_hit_ratio",
        ratio(summed(|s| s.dram_row_hits), dram),
    );
    m.insert(
        "queue.rop_depth_mean",
        counter_mean(CounterKind::RopQueueDepth),
    );
    m.insert(
        "queue.l2_depth_mean",
        counter_mean(CounterKind::L2QueueDepth),
    );
    m.insert(
        "queue.dram_depth_mean",
        counter_mean(CounterKind::DramQueueDepth),
    );
    m.insert(
        "icnt.in_flight_mean",
        counter_mean(CounterKind::IcntInFlight),
    );
    m.insert("sanitizer.violations", summed(|s| s.sanitizer_violations));
    m.insert("core.breakdown_s", pass.sum(|j| j.breakdown_s));
    m.insert("core.exposure_s", pass.sum(|j| j.exposure_s));
    m.insert("core.requests", pass.sum(|j| j.requests as f64));
    m.insert("core.loads", pass.sum(|j| j.loads as f64));
    m.insert("workloads.setup_s", pass.sum(|j| j.setup_s));
    m.insert("workloads.verify_s", pass.sum(|j| j.verify_s));
    m
}
