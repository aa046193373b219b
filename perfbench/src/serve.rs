//! `serve-table1`: an in-process `gpu-serve` daemon driven by a closed loop
//! of two TCP clients submitting the Table I chase points.
//!
//! Each client owns half of the eight presets. A pass is one fresh round
//! plus [`REPEAT_ROUNDS`] repeat rounds, each round one daemon lifetime on
//! the same state directory:
//!
//! - the fresh round starts from an empty state directory, so every point
//!   is simulated once (a chase-cache miss and store);
//! - each repeat round reboots the daemon with the finished job records
//!   wiped and the content cache kept, and every client re-submits its own
//!   history in a seeded order, so every point is served by the cache.
//!
//! The reboot is what routes repeats to the cache: within one daemon
//! lifetime a repeated spec joins the finished job (job-level dedup) and
//! never reaches the cache. The daemon's `stats` counters must equal the
//! plan exactly in every round.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use gpu_serve::proto::is_terminal_event;
use gpu_serve::{preset_token, Client, JobSpec, ServerConfig, ServerHandle};
use gpu_sim::profile::{self, ProfileReport};
use gpu_sim::LevelKind;
use gpu_snapshot::StableHasher;
use gpu_trace::json::{self, Value};
use latency_core::{
    cache_stats, measure_row_serial, reset_cache_stats, ArchPreset, ChaseParams, ChaseSpace,
    MeasuredRow, UNROLL,
};

use crate::{hostspeed, isa};
use crate::report::{
    common_layers, median, quantile, ratio, splitmix, Checks, KernelIdentity, Report, TracedPass,
};
use crate::Inputs;

/// Load generators: closed-loop clients, one connection each.
const CLIENTS: usize = 2;

/// Daemon worker threads (the host's two CPUs).
const WORKERS: usize = 2;

/// Repeat rounds per pass. Every job is submitted once fresh and once per
/// repeat round, so the fresh share of submissions is 1/20 = 5% and both
/// job percentiles read cache-served jobs.
const REPEAT_ROUNDS: usize = 19;

/// Host seconds spent measuring the functional executor in a traced run.
const ISA_SECONDS: f64 = 0.25;

/// The level a Table I point measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Level {
    L1,
    L2,
    Dram,
}

/// The chase points `latency_core::measure_row` measures for `preset`:
/// L1 at a quarter of its capacity (line stride, local space where the L1
/// serves only local accesses), L2 at 8× the L1 capped at half a slice
/// (512 B stride), DRAM at 4× the whole L2 (4 KiB stride). The run checks
/// at its end that `measure_row_serial` finds every one of these points in
/// the daemon's cache, so a drift from `measure_row` is a failure.
fn row_points(preset: ArchPreset) -> Vec<(Level, ChaseParams)> {
    let desc = preset.config_microbench().arch_desc();
    let cap = |kind| {
        desc.level(kind)
            .and_then(|l| l.geom)
            .map(|g| g.cache.capacity())
    };
    let (l1_cap, l2_cap) = (cap(LevelKind::L1), cap(LevelKind::L2));
    let l2_slices = desc.level(LevelKind::L2).map_or(1, |l| l.slices.max(1)) as u64;
    let mut points = Vec::new();
    for level in &desc.levels {
        match (level.kind, level.geom) {
            (LevelKind::L1, Some(g)) => {
                let footprint = g.cache.capacity() / 4;
                points.push((
                    Level::L1,
                    if level.routing.global {
                        ChaseParams::global(footprint, 128)
                    } else {
                        ChaseParams::local(footprint, 128)
                    },
                ));
            }
            (LevelKind::L2, Some(g)) => {
                let slice = g.cache.capacity();
                let footprint = (l1_cap.unwrap_or(0) * 8).max(32 * 1024).min(slice / 2);
                points.push((Level::L2, ChaseParams::global(footprint, 512)));
            }
            (LevelKind::DramFront, _) => {
                let slice = l2_cap.unwrap_or(256 * 1024);
                points.push((
                    Level::Dram,
                    ChaseParams::global(slice * l2_slices * 4, 4096),
                ));
            }
            _ => {}
        }
    }
    points
}

/// One distinct 1×1 sweep job of the plan.
struct PlanJob {
    spec: String,
    params: ChaseParams,
    /// Every (preset, level) this job measures: presets whose microbench
    /// descriptions are identical share one job id.
    rows: Vec<(ArchPreset, Level)>,
}

/// The submissions of a pass, fixed by the presets; only the repeat order
/// depends on the seed.
struct Plan {
    jobs: Vec<PlanJob>,
    /// Job indices each client owns, in fresh-round order.
    clients: Vec<Vec<usize>>,
}

impl Plan {
    fn new() -> Result<Plan, String> {
        let mut jobs: Vec<PlanJob> = Vec::new();
        let mut ids: Vec<u64> = Vec::new();
        let mut clients = vec![Vec::new(); CLIENTS];
        let per_client = ArchPreset::ALL.len().div_ceil(CLIENTS);
        for (i, &preset) in ArchPreset::ALL.iter().enumerate() {
            for (level, params) in row_points(preset) {
                let space = match params.space {
                    ChaseSpace::Global => "global",
                    ChaseSpace::Local => "local",
                };
                let spec = format!(
                    "{{\"preset\":\"{}\",\"microbench\":true,\"sweep\":{{\"footprints\":[{}],\
                     \"strides\":[{}],\"space\":\"{space}\"}}}}",
                    preset_token(preset),
                    params.footprint,
                    params.stride
                );
                let id = JobSpec::parse_str(&spec)
                    .map_err(|e| format!("plan spec {spec} rejected: {e}"))?
                    .job_id();
                match ids.iter().position(|&x| x == id) {
                    Some(j) => jobs[j].rows.push((preset, level)),
                    None => {
                        ids.push(id);
                        clients[i / per_client].push(jobs.len());
                        jobs.push(PlanJob {
                            spec,
                            params,
                            rows: vec![(preset, level)],
                        });
                    }
                }
            }
        }
        Ok(Plan { jobs, clients })
    }

    /// The order client `c` submits its jobs in during `round` (round 0 is
    /// the fresh round, in plan order; repeat rounds are seeded shuffles).
    fn order(&self, c: usize, round: usize, seed: u64) -> Vec<usize> {
        let mut order = self.clients[c].clone();
        if round > 0 {
            let mut state = seed ^ ((c as u64) << 32) ^ round as u64;
            for i in (1..order.len()).rev() {
                order.swap(i, (splitmix(&mut state) % (i as u64 + 1)) as usize);
            }
        }
        order
    }
}

/// One submission as its client saw it.
struct Sub {
    job: usize,
    /// Submit → `accepted` event.
    queued_s: f64,
    /// `accepted` → terminal event.
    exec_s: f64,
    terminal: String,
}

impl Sub {
    fn total_s(&self) -> f64 {
        self.queued_s + self.exec_s
    }
}

/// What one client did in one round.
struct ClientRound {
    connect_s: f64,
    subs: Vec<Sub>,
}

fn client_round(addr: &str, plan: &Plan, order: &[usize]) -> std::io::Result<ClientRound> {
    let t = Instant::now();
    let mut client = Client::connect_tcp(addr)?;
    let connect_s = t.elapsed().as_secs_f64();
    let mut subs = Vec::with_capacity(order.len());
    for &job in order {
        let t = Instant::now();
        client.send(&format!(
            "{{\"cmd\":\"submit\",\"watch\":true,\"spec\":{}}}",
            plan.jobs[job].spec
        ))?;
        let mut line = recv(&mut client)?;
        let queued_s = t.elapsed().as_secs_f64();
        while !is_terminal_event(&line) {
            line = recv(&mut client)?;
        }
        subs.push(Sub {
            job,
            queued_s,
            exec_s: t.elapsed().as_secs_f64() - queued_s,
            terminal: line,
        });
    }
    Ok(ClientRound { connect_s, subs })
}

fn recv(client: &mut Client) -> std::io::Result<String> {
    client.recv()?.ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "daemon closed the connection",
        )
    })
}

/// The daemon counters one round must end with.
#[derive(Debug, PartialEq, Eq)]
struct RoundStats {
    jobs_submitted: u64,
    jobs_deduped: u64,
    jobs_completed: u64,
    jobs_failed: u64,
    points_requested: u64,
    points_executed: u64,
    points_deduped: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_stores: u64,
}

impl RoundStats {
    /// The plan: every job submitted once, executed once, and either
    /// simulated (fresh round) or served from the cache (repeat round).
    fn planned(jobs: u64, fresh: bool) -> RoundStats {
        RoundStats {
            jobs_submitted: jobs,
            jobs_deduped: 0,
            jobs_completed: jobs,
            jobs_failed: 0,
            points_requested: jobs,
            points_executed: jobs,
            points_deduped: 0,
            cache_hits: if fresh { 0 } else { jobs },
            cache_misses: if fresh { jobs } else { 0 },
            cache_stores: if fresh { jobs } else { 0 },
        }
    }

    fn parse(line: &str) -> Option<RoundStats> {
        let v = json::parse(line).ok()?;
        let n = |v: &Value, k: &str| v.get(k).and_then(Value::as_num).map(|x| x as u64);
        let cache = v.get("cache")?;
        Some(RoundStats {
            jobs_submitted: n(&v, "jobs_submitted")?,
            jobs_deduped: n(&v, "jobs_deduped")?,
            jobs_completed: n(&v, "jobs_completed")?,
            jobs_failed: n(&v, "jobs_failed")?,
            points_requested: n(&v, "points_requested")?,
            points_executed: n(&v, "points_executed")?,
            points_deduped: n(&v, "points_deduped")?,
            cache_hits: n(cache, "hits")?,
            cache_misses: n(cache, "misses")?,
            cache_stores: n(cache, "stores")?,
        })
    }
}

/// A booted daemon plus the control connection that proved it serves.
struct Daemon {
    handle: ServerHandle,
    control: Client,
    addr: String,
}

impl Daemon {
    /// Boots on `state` and waits for the first answered request; returns
    /// the daemon and the boot-to-serving host time.
    fn boot(state: &Path) -> std::io::Result<(Daemon, f64)> {
        reset_cache_stats();
        let t = Instant::now();
        let handle = ServerHandle::spawn(
            ServerConfig {
                state_dir: state.to_path_buf(),
                workers: WORKERS,
            },
            "127.0.0.1:0",
        )?;
        let addr = handle.addr.to_string();
        let mut control = Client::connect_tcp(&addr)?;
        control.request("{\"cmd\":\"stats\"}")?;
        let boot_s = t.elapsed().as_secs_f64();
        Ok((
            Daemon {
                handle,
                control,
                addr,
            },
            boot_s,
        ))
    }

    fn stats(&mut self) -> std::io::Result<String> {
        self.control.request("{\"cmd\":\"stats\"}")
    }
}

/// One pass: the fresh round and every repeat round.
#[derive(Default)]
struct Pass {
    wall_s: f64,
    boots: Vec<f64>,
    connects: Vec<f64>,
    fresh: Vec<Sub>,
    repeats: Vec<Sub>,
    /// The daemon counters at the end of each round.
    stats: Vec<RoundStats>,
    /// Host-speed index around the fresh round, the pass's simulation: the
    /// mean of the readings just before and just after it.
    host: f64,
}

impl Pass {
    fn subs(&self) -> impl Iterator<Item = &Sub> {
        self.fresh.iter().chain(&self.repeats)
    }
}

fn run_pass(state: &Path, plan: &Plan, seed: u64, checks: &mut Checks) -> Result<Pass, String> {
    let io = |e: std::io::Error| format!("serve pass: {e}");
    let _ = std::fs::remove_dir_all(state);
    let mut pass = Pass::default();
    let host_before = hostspeed::index_in_child(CLIENTS)?;
    let t = Instant::now();
    let mut index_s = 0.0;
    for round in 0..=REPEAT_ROUNDS {
        // A reboot without the finished job records: only the content
        // cache survives into the repeat round.
        let _ = std::fs::remove_dir_all(state.join("jobs"));
        let (mut daemon, boot_s) = Daemon::boot(state).map_err(io)?;
        pass.boots.push(boot_s);
        let orders: Vec<Vec<usize>> = (0..CLIENTS).map(|c| plan.order(c, round, seed)).collect();
        let rounds: Vec<std::io::Result<ClientRound>> = std::thread::scope(|s| {
            let joins: Vec<_> = orders
                .iter()
                .map(|order| {
                    let addr = daemon.addr.as_str();
                    s.spawn(move || client_round(addr, plan, order))
                })
                .collect();
            joins
                .into_iter()
                .map(|j| j.join().expect("client thread panicked"))
                .collect()
        });
        let stats = daemon.stats().map_err(io)?;
        daemon.handle.shutdown();
        for r in rounds {
            let r = r.map_err(io)?;
            pass.connects.push(r.connect_s);
            if round == 0 {
                pass.fresh.extend(r.subs);
            } else {
                pass.repeats.extend(r.subs);
            }
        }
        let want = RoundStats::planned(plan.jobs.len() as u64, round == 0);
        let got = RoundStats::parse(&stats);
        checks.check(got.as_ref() == Some(&want), || {
            format!("serve round {round}: daemon stats {got:?} differ from the plan {want:?}")
        });
        if let Some(got) = got {
            pass.stats.push(got);
        }
        if round == 0 {
            let r = Instant::now();
            pass.host = (host_before + hostspeed::index_in_child(CLIENTS)?) / 2.0;
            index_s = r.elapsed().as_secs_f64();
        }
    }
    pass.wall_s = t.elapsed().as_secs_f64() - index_s;
    Ok(pass)
}

/// A finished 1×1 sweep's single measured point.
struct Point {
    per_access: f64,
    accesses: u64,
    cycles: u64,
    content_hash: String,
}

fn parse_result(line: &str) -> Option<Point> {
    let v = json::parse(line).ok()?;
    if v.get("event")?.as_str()? != "result" || v.get("status")?.as_str()? != "done" {
        return None;
    }
    let p = v.get("points")?.as_arr()?.first()?;
    let n = |k: &str| p.get(k).and_then(Value::as_num);
    Some(Point {
        per_access: n("per_access")?,
        accesses: n("accesses")? as u64,
        cycles: (n("cycles_short")? + n("cycles_long")?) as u64,
        content_hash: v.get("content_hash")?.as_str()?.to_string(),
    })
}

/// Warp instructions of the two chase runs behind one measured point:
/// `measure_chase` runs `accesses / UNROLL` loop iterations and half that.
fn chase_launches(params: &ChaseParams, accesses: u64) -> [isa::Launch; 2] {
    let iters_long = accesses / UNROLL as u64;
    [
        isa::Launch::chase(params, iters_long / 2),
        isa::Launch::chase(params, iters_long),
    ]
}

/// One plan job as the first fresh round measured it.
struct FreshJob {
    terminal: String,
    point: Point,
    /// Warp instructions of its two chase runs.
    instr: u64,
}

/// Everything the run learns from the first pass's fresh round.
struct Fresh {
    /// Indexed by plan job.
    results: Vec<FreshJob>,
}

impl Fresh {
    fn new(plan: &Plan, pass: &Pass, checks: &mut Checks) -> Option<Fresh> {
        let mut results: Vec<Option<FreshJob>> = plan.jobs.iter().map(|_| None).collect();
        for sub in &pass.fresh {
            let Some(point) = parse_result(&sub.terminal) else {
                checks.check(false, || {
                    format!("serve job {}: {}", plan.jobs[sub.job].spec, sub.terminal)
                });
                continue;
            };
            let instr = isa::count(&chase_launches(&plan.jobs[sub.job].params, point.accesses));
            results[sub.job] = Some(FreshJob {
                terminal: sub.terminal.clone(),
                point,
                instr,
            });
        }
        let results: Option<Vec<_>> = results.into_iter().collect();
        results.map(|results| Fresh { results })
    }

    /// Every submission of `pass` must end with the byte-identical result
    /// line the first fresh round produced for its job.
    fn check_pass(&self, plan: &Plan, pass: &Pass, label: &str, checks: &mut Checks) {
        for sub in pass.subs() {
            let want = &self.results[sub.job].terminal;
            checks.check(&sub.terminal == want, || {
                format!(
                    "{label} serve job {}: {} differs from the fresh result {want}",
                    plan.jobs[sub.job].spec, sub.terminal
                )
            });
        }
    }

    /// The Table I rows assembled from the measured points.
    fn rows(&self, plan: &Plan) -> BTreeMap<&'static str, MeasuredRow> {
        let mut levels: BTreeMap<&str, [Option<f64>; 3]> = BTreeMap::new();
        for (job, fresh) in plan.jobs.iter().zip(&self.results) {
            for &(preset, level) in &job.rows {
                let slot = match level {
                    Level::L1 => 0,
                    Level::L2 => 1,
                    Level::Dram => 2,
                };
                levels.entry(preset_token(preset)).or_default()[slot] =
                    Some(fresh.point.per_access);
            }
        }
        levels
            .into_iter()
            .map(|(token, [l1, l2, dram])| {
                let row = MeasuredRow {
                    l1,
                    l2,
                    dram: dram.unwrap_or(f64::NAN),
                };
                (token, row)
            })
            .collect()
    }

    /// Identity per preset: digest of its points' result hashes, their
    /// simulated cycles and warp instructions.
    fn identity(&self, plan: &Plan) -> BTreeMap<String, KernelIdentity> {
        let mut out: BTreeMap<String, (StableHasher, u64, u64)> = BTreeMap::new();
        for (job, fresh) in plan.jobs.iter().zip(&self.results) {
            for &(preset, _) in &job.rows {
                let e = out
                    .entry(format!("table1.{}", preset_token(preset)))
                    .or_insert_with(|| (StableHasher::new(), 0, 0));
                e.0.str(&fresh.point.content_hash);
                e.1 += fresh.point.cycles;
                e.2 += fresh.instr;
            }
        }
        out.into_iter()
            .map(|(name, (h, cycles, instr))| (name, (h.finish(), cycles, instr)))
            .collect()
    }
}

/// Max relative error (percent) of the measured rows against
/// `REFERENCE_latencies.json`; a level measured on one side only is a
/// failure.
fn reference_error(
    inputs: &Inputs,
    rows: &BTreeMap<&'static str, MeasuredRow>,
    checks: &mut Checks,
) -> f64 {
    let mut worst: f64 = 0.0;
    for preset in ArchPreset::ALL {
        let token = preset_token(preset);
        let (Some(row), Some(want)) = (rows.get(token), inputs.expected.reference.get(token))
        else {
            checks.check(false, || {
                format!("no measured or reference row for {token}")
            });
            continue;
        };
        let mut level = |got: Option<f64>, want: Option<f64>, name: &str| match (got, want) {
            (Some(g), Some(w)) => worst = worst.max((g - w).abs() / w * 100.0),
            (None, None) => {}
            _ => checks.check(false, || {
                format!("{token} {name}: measured {got:?}, reference {want:?}")
            }),
        };
        level(row.l1, want.l1, "l1");
        level(row.l2, want.l2, "l2");
        level(Some(row.dram), Some(want.dram), "dram");
    }
    checks.check(worst <= inputs.expected.tolerance_pct, || {
        format!(
            "Table I error {worst:.2}% exceeds the reference tolerance {}%",
            inputs.expected.tolerance_pct
        )
    });
    worst
}

/// `measure_row_serial` over every preset must be served entirely from
/// the daemon's cache and reproduce the rows the daemon measured: proof
/// that the plan's points are `measure_row`'s points.
fn check_measure_row(rows: &BTreeMap<&'static str, MeasuredRow>, checks: &mut Checks) {
    reset_cache_stats();
    for preset in ArchPreset::ALL {
        let token = preset_token(preset);
        let measured = measure_row_serial(preset);
        checks.check(
            measured.as_ref().ok() == rows.get(token) && cache_stats().misses == 0,
            || {
                format!(
                    "{token}: measure_row {measured:?} is not the served row {:?}",
                    rows.get(token)
                )
            },
        );
    }
}

pub fn run(inputs: &Inputs, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    let plan = match Plan::new() {
        Ok(plan) => plan,
        Err(e) => {
            report.checks.check(false, || e);
            return report;
        }
    };
    let state = inputs
        .root
        .join(".bench_state")
        .join(format!("serve-{}", std::process::id()));
    let result = measure(inputs, &plan, &state, seed, seconds, trace, &mut report);
    if let Err(e) = result {
        report.checks.check(false, || e);
    }
    let _ = std::fs::remove_dir_all(&state);
    if let Some(parent) = state.parent() {
        // Only succeeds once no other run's state is left in it.
        let _ = std::fs::remove_dir(parent);
    }
    report
}

fn measure(
    inputs: &Inputs,
    plan: &Plan,
    state: &Path,
    seed: u64,
    seconds: f64,
    trace: bool,
    report: &mut Report,
) -> Result<(), String> {
    let start = Instant::now();
    let checks = &mut report.checks;
    let mut passes = vec![run_pass(state, plan, seed, checks)?];
    let fresh = Fresh::new(plan, &passes[0], checks).ok_or("fresh round incomplete")?;
    loop {
        let mean = passes.iter().map(|p| p.wall_s).sum::<f64>() / passes.len() as f64;
        let next = if trace { 2.5 * mean } else { mean };
        if start.elapsed().as_secs_f64() + next > seconds {
            break;
        }
        passes.push(run_pass(state, plan, seed, checks)?);
    }
    for (i, pass) in passes.iter().enumerate() {
        fresh.check_pass(plan, pass, &format!("pass {i}"), checks);
    }
    let rows = fresh.rows(plan);
    let ref_err = reference_error(inputs, &rows, checks);
    check_measure_row(&rows, checks);
    report.kernels = fresh.identity(plan);
    if !inputs
        .expected
        .check_kernels("serve-table1", seed, &report.kernels, &mut report.checks)
    {
        report.checks.note(format!(
            "serve-table1/{seed} has no committed identity record"
        ));
    }

    // Simulation time of a fresh point: `accepted` to result, which leaves
    // out the request round trip. It is host work, so it is taken in
    // reference-host seconds (see `hostspeed`); the other serve times are
    // mostly TCP timer waits, which the host's speed does not scale, and
    // are reported as measured.
    let fresh_rate = |f: &dyn Fn(&FreshJob) -> f64| {
        let rates: Vec<f64> = passes
            .iter()
            .map(|p| {
                p.fresh
                    .iter()
                    .map(|s| f(&fresh.results[s.job]))
                    .sum::<f64>()
                    / (p.fresh.iter().map(|s| s.exec_s).sum::<f64>() / p.host)
            })
            .collect();
        median(&rates)
    };
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let jobs: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.subs().map(Sub::total_s))
        .collect();
    let setups: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.boots.iter().copied())
        .collect();
    let e2e = &mut report.end_to_end;
    e2e.insert("sim_cycles_per_s", fresh_rate(&|j| j.point.cycles as f64));
    e2e.insert("warp_instr_per_s", fresh_rate(&|j| j.instr as f64));
    e2e.insert("wall_s", median(&walls));
    e2e.insert("setup_s", median(&setups));
    e2e.insert("jobs_per_s", jobs.len() as f64 / walls.iter().sum::<f64>());
    e2e.insert("job_s_p50", quantile(&jobs, 0.5));
    e2e.insert("job_s_p90", quantile(&jobs, 0.9));
    e2e.insert("ref_err_pct", ref_err);
    e2e.insert(
        "host_index",
        median(&passes.iter().map(|p| p.host).collect::<Vec<_>>()),
    );

    if trace {
        profile::reset();
        profile::set_enabled(true);
        let traced = run_pass(state, plan, seed, &mut report.checks);
        profile::set_enabled(false);
        let prof = profile::report();
        let traced = traced?;
        fresh.check_pass(plan, &traced, "traced", &mut report.checks);
        let launches: Vec<isa::Launch> = traced
            .fresh
            .iter()
            .flat_map(|s| {
                chase_launches(
                    &plan.jobs[s.job].params,
                    fresh.results[s.job].point.accesses,
                )
            })
            .collect();
        let context = TracedPass {
            wall_s: traced.wall_s,
            untraced_wall_s: median(&walls),
            host_index: traced.host,
            untraced_passes: passes.len(),
            jobs_per_pass: traced.fresh.len() + traced.repeats.len(),
            isa: isa::rate(&launches, ISA_SECONDS),
        };
        report.layers = layers(&traced, &prof, &context);
        inputs
            .expected
            .check_layers("serve-table1", seed, &report.layers, &mut report.checks);
    }
    Ok(())
}

/// The per-layer metrics of one traced pass: the common ones plus the
/// chase, cache and serve layers. The SM tick split, memory counters and
/// analysis passes belong to the simulator workloads; the daemon's machines
/// run without counter sampling, so those read 0 here.
fn layers(pass: &Pass, prof: &ProfileReport, traced: &TracedPass) -> BTreeMap<&'static str, f64> {
    let total = |f: fn(&RoundStats) -> u64| pass.stats.iter().map(f).sum::<u64>() as f64;
    let (hits, misses) = (total(|s| s.cache_hits), total(|s| s.cache_misses));
    let subs: Vec<&Sub> = pass.subs().collect();
    let median_of = |f: fn(&Sub) -> f64| median(&subs.iter().map(|s| f(s)).collect::<Vec<_>>());

    let mut m = common_layers(prof, traced);
    m.insert("chase.points_simulated", misses);
    m.insert(
        "chase.s_per_point",
        pass.fresh.iter().map(|s| s.exec_s).sum::<f64>() / pass.fresh.len().max(1) as f64,
    );
    m.insert("cache.hits", hits);
    m.insert("cache.misses", misses);
    m.insert("cache.hit_ratio", ratio(hits, hits + misses));
    m.insert("serve.connect_s", median(&pass.connects));
    m.insert("serve.queued_s", median_of(|s| s.queued_s));
    m.insert("serve.exec_s", median_of(|s| s.exec_s));
    m.insert("serve.points_requested", total(|s| s.points_requested));
    m.insert("serve.points_executed", total(|s| s.points_executed));
    m.insert("serve.jobs_deduped", total(|s| s.jobs_deduped));
    m
}
