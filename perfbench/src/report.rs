//! What one run reports: metrics, check outcomes, the identity record, and
//! the output format (a readable table, then one JSON line).

use std::collections::BTreeMap;

use gpu_sim::profile::{ProfCounter, ProfSpan, ProfileReport};

/// End-to-end metrics, measured with tracing off. The first eight are the
/// ones `BENCHMARK.json` bounds. The other three are printed only:
/// `ref_err_pct` and `fail_frac` read 0 on a healthy run, so they are
/// enforced as checks (a row outside tolerance, or any failed operation,
/// makes the run incorrect); `host_index` is the median host-speed index
/// the run's simulation times were divided by (see [`crate::hostspeed`]).
pub const END_TO_END: [(&str, &str); 11] = [
    ("sim_cycles_per_s", "cycles/s"),
    ("warp_instr_per_s", "instr/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("jobs_per_s", "1/s"),
    ("job_s_p50", "s"),
    ("job_s_p90", "s"),
    ("ref_err_pct", "%"),
    ("fail_frac", "ratio"),
    ("host_index", "ratio"),
];

/// How many of [`END_TO_END`] go into the JSON result line.
const BOUNDED_END_TO_END: usize = 8;

/// Per-layer metrics, from the traced pass. A metric whose layer a
/// workload does not exercise reads 0 (see `LAYERS.md`).
pub const PER_LAYER: [(&str, &str); 63] = [
    ("gpu.cycles", "count"),
    ("gpu.ns_per_cycle", "ns"),
    ("gpu.stage.tick_sms_s", "s"),
    ("gpu.stage.tick_partitions_s", "s"),
    ("gpu.stage.networks_s", "s"),
    ("gpu.stage.dispatch_ctas_s", "s"),
    ("gpu.stage.sample_counters_s", "s"),
    ("gpu.stage.clock_s", "s"),
    ("sm.ticks", "count"),
    ("sm.issue_ticks", "count"),
    ("sm.stall_ticks", "count"),
    ("sm.empty_ticks", "count"),
    ("sm.idle_tick_frac", "ratio"),
    ("sm.ns_per_tick", "ns"),
    ("sm.stall.scoreboard", "count"),
    ("sm.stall.mshr_full", "count"),
    ("sm.stall.icnt_backpressure", "count"),
    ("sm.stall.barrier", "count"),
    ("sm.stall.other", "count"),
    ("sm.l1_hit_ratio", "ratio"),
    ("sm.transactions", "count"),
    ("sm.front_depth_mean", "entries"),
    ("sm.l1_mshr_mean", "entries"),
    ("isa.warp_instr", "count"),
    ("isa.warp_instr_per_s", "instr/s"),
    ("partition.ticks", "count"),
    ("partition.ns_per_tick", "ns"),
    ("l2.hits", "count"),
    ("l2.misses", "count"),
    ("l2.hit_ratio", "ratio"),
    ("l2.mshr_mean", "entries"),
    ("dram.serviced", "count"),
    ("dram.row_hit_ratio", "ratio"),
    ("queue.rop_depth_mean", "entries"),
    ("queue.l2_depth_mean", "entries"),
    ("queue.dram_depth_mean", "entries"),
    ("icnt.s", "s"),
    ("icnt.in_flight_mean", "entries"),
    ("sanitizer.audit_s", "s"),
    ("sanitizer.violations", "count"),
    ("core.breakdown_s", "s"),
    ("core.exposure_s", "s"),
    ("core.requests", "count"),
    ("core.loads", "count"),
    ("chase.points_simulated", "count"),
    ("chase.s_per_point", "s"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("serve.connect_s", "s"),
    ("serve.queued_s", "s"),
    ("serve.exec_s", "s"),
    ("serve.points_requested", "count"),
    ("serve.points_executed", "count"),
    ("serve.jobs_deduped", "count"),
    ("workloads.setup_s", "s"),
    ("workloads.verify_s", "s"),
    ("bench.trace_overhead_pct", "%"),
    // Context for reading the others: the traced pass's host time, the
    // untraced median it is compared with, and how much work the run did.
    ("bench.traced_wall_s", "s"),
    ("bench.untraced_wall_s", "s"),
    ("bench.passes", "count"),
    ("bench.jobs", "count"),
    ("bench.host_index", "ratio"),
];

/// Per-layer counts that depend only on the simulated inputs: the identity
/// record pins them exactly for committed seeds.
pub const EXACT_LAYERS: [&str; 21] = [
    "gpu.cycles",
    "sm.ticks",
    "sm.issue_ticks",
    "sm.stall_ticks",
    "sm.empty_ticks",
    "sm.stall.scoreboard",
    "sm.stall.mshr_full",
    "sm.stall.icnt_backpressure",
    "sm.stall.barrier",
    "sm.stall.other",
    "sm.transactions",
    "partition.ticks",
    "l2.hits",
    "l2.misses",
    "dram.serviced",
    "sanitizer.violations",
    "core.requests",
    "core.loads",
    "cache.hits",
    "cache.misses",
    "isa.warp_instr",
];

/// One job's simulated identity: `(content_hash, cycles, warp_instr)`.
pub type KernelIdentity = (u64, u64, u64);

/// `hash/cycles/warp_instr`, as failure messages print an identity.
pub fn show((hash, cycles, instr): KernelIdentity) -> String {
    format!("{hash:016x}/{cycles}/{instr}")
}

/// Every job's identity of a pass, as failure messages print it.
pub fn show_all(ids: &BTreeMap<String, KernelIdentity>) -> String {
    let all: Vec<String> = ids
        .iter()
        .map(|(k, &id)| format!("{k} {}", show(id)))
        .collect();
    all.join(", ")
}

/// Pass/fail bookkeeping: every verified job and every cross-check is one
/// attempted operation; anything that does not hold is one failure.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts one operation, failing it with `why()` unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(why());
        }
    }

    /// Records an informational note that is not a failure.
    pub fn note(&mut self, text: String) {
        self.notes.push(format!("note: {text}"));
    }
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Report {
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    pub checks: Checks,
    /// Job name → identity, from the first pass.
    pub kernels: BTreeMap<String, KernelIdentity>,
}

impl Report {
    /// Records the process's peak RSS, once the run's work is done.
    pub fn record_peak_rss(&mut self) {
        let rss = peak_rss_mb();
        self.checks.check(rss.is_some(), || {
            "no VmHWM in /proc/self/status".to_string()
        });
        self.end_to_end
            .insert("peak_rss_mb", rss.unwrap_or_default());
    }

    /// Prints the table, the notes and identity record (stderr), and the
    /// final JSON line.
    pub fn print(&self, workload: &str, seed: u64, trace: bool) {
        let attempted = self.checks.attempted.max(1);
        let fail_frac = self.checks.failed as f64 / attempted as f64;
        println!("perfbench {workload} seed={seed} trace={}", u8::from(trace));
        for (name, unit) in END_TO_END {
            let v = if name == "fail_frac" {
                fail_frac
            } else {
                self.end_to_end.get(name).copied().unwrap_or(0.0)
            };
            println!("  {name:<28} {v:>18.6} {unit}");
        }
        if trace {
            for (name, unit) in PER_LAYER {
                let v = self.layers.get(name).copied().unwrap_or(0.0);
                println!("  {name:<28} {v:>18.6} {unit}");
            }
        }
        for note in &self.checks.notes {
            eprintln!("perfbench: {note}");
        }
        eprintln!("identity {}", self.identity_json(workload, seed, trace));

        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.checks.failed == 0,
            attempted,
            self.checks.failed
        );
        let (metrics, values): (&[(&str, &str)], &BTreeMap<&str, f64>) = if trace {
            (&PER_LAYER, &self.layers)
        } else {
            (&END_TO_END[..BOUNDED_END_TO_END], &self.end_to_end)
        };
        for (i, (name, unit)) in metrics.iter().enumerate() {
            let v = values.get(name).copied().unwrap_or(0.0);
            let sep = if i == 0 { "" } else { ", " };
            json.push_str(&format!(
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(v)
            ));
        }
        json.push_str("}}");
        println!("{json}");
    }

    /// The record `expected.json` pins for this workload and seed: every
    /// job's identity, plus the exact layer counts when traced.
    fn identity_json(&self, workload: &str, seed: u64, trace: bool) -> String {
        let kernels: Vec<String> = self
            .kernels
            .iter()
            .map(|(name, (hash, cycles, instr))| {
                format!("\"{name}\": [\"{hash:016x}\", {cycles}, {instr}]")
            })
            .collect();
        let mut out = format!(
            "{{\"{workload}/{seed}\": {{\"kernels\": {{{}}}",
            kernels.join(", ")
        );
        if trace {
            let layers: Vec<String> = EXACT_LAYERS
                .iter()
                .map(|name| {
                    let v = self.layers.get(name).copied().unwrap_or(0.0);
                    format!("\"{name}\": {}", v as u64)
                })
                .collect();
            out.push_str(&format!(", \"layers\": {{{}}}", layers.join(", ")));
        }
        out.push_str("}}");
        out
    }
}

/// What every workload's traced pass reports beside the profiler tables.
pub struct TracedPass {
    /// Seconds of the traced pass, on the basis of the workload's `wall_s`.
    pub wall_s: f64,
    /// The untraced passes' `wall_s`.
    pub untraced_wall_s: f64,
    /// Host-speed index around the traced pass. The profiler's stage times
    /// are host seconds as measured, not divided by it.
    pub host_index: f64,
    pub untraced_passes: usize,
    pub jobs_per_pass: usize,
    /// The functional executor: warp instructions of one repetition and
    /// its rate.
    pub isa: (u64, f64),
}

/// The per-layer metrics every workload reads the same way: tick-loop
/// stages, SM and partition tick counts and host cost, the crossbar and
/// sanitizer stages from the self-profiler; the functional executor; and
/// the benchmark's own context.
pub fn common_layers(prof: &ProfileReport, pass: &TracedPass) -> BTreeMap<&'static str, f64> {
    let secs = |spans: &[ProfSpan]| -> f64 {
        spans.iter().map(|&s| prof.span(s).nanos).sum::<u64>() as f64 / 1e9
    };
    let count = |s: ProfSpan| prof.span(s).count as f64;
    let per = |s: ProfSpan| prof.span(s).nanos as f64 / count(s).max(1.0);
    let cycles = prof.counter(ProfCounter::CyclesTicked) as f64;
    let mut m = BTreeMap::new();
    m.insert("gpu.cycles", cycles);
    m.insert(
        "gpu.ns_per_cycle",
        prof.span(ProfSpan::Run).nanos as f64 / cycles.max(1.0),
    );
    m.insert("gpu.stage.tick_sms_s", secs(&[ProfSpan::TickSms]));
    m.insert(
        "gpu.stage.tick_partitions_s",
        secs(&[ProfSpan::TickPartitions]),
    );
    m.insert("gpu.stage.networks_s", secs(&[ProfSpan::BeginNetworks]));
    m.insert("gpu.stage.dispatch_ctas_s", secs(&[ProfSpan::DispatchCtas]));
    m.insert(
        "gpu.stage.sample_counters_s",
        secs(&[ProfSpan::SampleCounters]),
    );
    m.insert("gpu.stage.clock_s", secs(&[ProfSpan::AdvanceClock]));
    m.insert("sm.ticks", count(ProfSpan::SmTick));
    m.insert("sm.ns_per_tick", per(ProfSpan::SmTick));
    m.insert("partition.ticks", count(ProfSpan::PartitionTick));
    m.insert("partition.ns_per_tick", per(ProfSpan::PartitionTick));
    m.insert(
        "icnt.s",
        secs(&[
            ProfSpan::BeginNetworks,
            ProfSpan::InjectReplies,
            ProfSpan::EjectRequests,
        ]),
    );
    m.insert("sanitizer.audit_s", secs(&[ProfSpan::AuditInvariants]));
    m.insert("isa.warp_instr", pass.isa.0 as f64);
    m.insert("isa.warp_instr_per_s", pass.isa.1);
    m.insert(
        "bench.trace_overhead_pct",
        (pass.wall_s / pass.untraced_wall_s - 1.0) * 100.0,
    );
    m.insert("bench.traced_wall_s", pass.wall_s);
    m.insert("bench.untraced_wall_s", pass.untraced_wall_s);
    m.insert("bench.host_index", pass.host_index);
    m.insert("bench.passes", pass.untraced_passes as f64);
    m.insert(
        "bench.jobs",
        (pass.untraced_passes * pass.jobs_per_pass) as f64,
    );
    m
}

/// `a / b`, or 0 when `b` is not positive.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// A finite JSON number with all its digits.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Linear-interpolated quantile (`q` in 0..=1) of `values`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The process's resident-set high-water mark in MiB (`VmHWM`), or `None`
/// where `/proc` does not provide it.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// SplitMix64 step: the benchmark's only source of seeded randomness.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
