//! The outputs a run must reproduce: the identity records committed in
//! `expected.json`, the `bench` suites' committed baselines
//! (`BENCH_tick.json`, `BENCH_workloads.json`) and the published Table I
//! references (`REFERENCE_latencies.json`).

use std::collections::BTreeMap;
use std::path::Path;

use gpu_trace::json::{self, Value};

use crate::report::{show, Checks, KernelIdentity, EXACT_LAYERS};

/// One committed record: job identities and, for traced runs, the exact
/// per-layer counts.
#[derive(Debug, Default)]
struct Record {
    kernels: BTreeMap<String, KernelIdentity>,
    layers: BTreeMap<String, u64>,
}

/// One row of `REFERENCE_latencies.json` (cycles; `None` = not observable).
#[derive(Debug, Clone, Copy)]
pub struct RefRow {
    pub l1: Option<f64>,
    pub l2: Option<f64>,
    pub dram: f64,
}

/// Everything a run is checked against.
#[derive(Debug)]
pub struct Expected {
    records: BTreeMap<String, Record>,
    /// `BENCH_workloads.json`: (preset display name, kernel) → identity.
    bench_workloads: BTreeMap<(String, String), KernelIdentity>,
    /// `BENCH_tick.json`: preset display name, workload label, hash, cycles.
    bench_tick: (String, String, u64, u64),
    /// `REFERENCE_latencies.json` rows by preset token.
    pub reference: BTreeMap<String, RefRow>,
    /// Allowed relative error of a measured Table I row, in percent.
    pub tolerance_pct: f64,
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{} is not JSON: {e}", path.display()))
}

fn field<'a>(v: &'a Value, key: &str, file: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("{file}: missing {key:?}"))
}

fn num(v: &Value, key: &str, file: &str) -> Result<u64, String> {
    field(v, key, file)?
        .as_num()
        .map(|n| n as u64)
        .ok_or_else(|| format!("{file}: {key:?} is not a number"))
}

fn text<'a>(v: &'a Value, key: &str, file: &str) -> Result<&'a str, String> {
    field(v, key, file)?
        .as_str()
        .ok_or_else(|| format!("{file}: {key:?} is not a string"))
}

fn hex(s: &str, file: &str) -> Result<u64, String> {
    u64::from_str_radix(s, 16).map_err(|_| format!("{file}: bad hash {s:?}"))
}

fn pairs<'a>(v: &'a Value, file: &str) -> Result<&'a [(String, Value)], String> {
    match v {
        Value::Obj(p) => Ok(p),
        _ => Err(format!("{file}: expected an object")),
    }
}

fn parse_record(v: &Value, file: &str) -> Result<Record, String> {
    let mut record = Record::default();
    for (name, triple) in pairs(field(v, "kernels", file)?, file)? {
        let t = triple
            .as_arr()
            .filter(|t| t.len() == 3)
            .ok_or_else(|| format!("{file}: kernel {name:?} needs [hash, cycles, instr]"))?;
        let hash = hex(t[0].as_str().unwrap_or_default(), file)?;
        let n = |i: usize| t[i].as_num().map(|x| x as u64).unwrap_or(u64::MAX);
        record.kernels.insert(name.clone(), (hash, n(1), n(2)));
    }
    if let Some(layers) = v.get("layers") {
        for (name, value) in pairs(layers, file)? {
            let n = value
                .as_num()
                .ok_or_else(|| format!("{file}: layer {name:?} is not a number"))?;
            record.layers.insert(name.clone(), n as u64);
        }
    }
    Ok(record)
}

impl Expected {
    /// Loads `expected` plus the baselines and references under `root`.
    pub fn load(expected: &Path, root: &Path) -> Result<Expected, String> {
        let file = "expected.json";
        let doc = read_json(expected)?;
        let mut records = BTreeMap::new();
        for (key, record) in pairs(field(&doc, "records", file)?, file)? {
            records.insert(key.clone(), parse_record(record, file)?);
        }

        let file = "BENCH_workloads.json";
        let doc = read_json(&root.join(file))?;
        let mut bench_workloads = BTreeMap::new();
        for section in field(&doc, "sections", file)?.as_arr().unwrap_or(&[]) {
            let preset = text(section, "preset", file)?;
            for run in field(section, "runs", file)?.as_arr().unwrap_or(&[]) {
                bench_workloads.insert(
                    (preset.to_string(), text(run, "workload", file)?.to_string()),
                    (
                        hex(text(run, "content_hash", file)?, file)?,
                        num(run, "simulated_cycles", file)?,
                        num(run, "instructions", file)?,
                    ),
                );
            }
        }

        let file = "BENCH_tick.json";
        let doc = read_json(&root.join(file))?;
        let serial = field(&doc, "runs", file)?
            .as_arr()
            .and_then(|r| r.first())
            .ok_or_else(|| format!("{file}: no runs"))?;
        let bench_tick = (
            text(&doc, "preset", file)?.to_string(),
            text(&doc, "workload", file)?.to_string(),
            hex(text(&doc, "content_hash", file)?, file)?,
            num(serial, "simulated_cycles", file)?,
        );

        let file = "REFERENCE_latencies.json";
        let doc = read_json(&root.join(file))?;
        let tolerance_pct = field(&doc, "tolerance_percent", file)?
            .as_num()
            .ok_or_else(|| format!("{file}: bad tolerance_percent"))?;
        let mut reference = BTreeMap::new();
        for row in field(&doc, "rows", file)?.as_arr().unwrap_or(&[]) {
            let level = |k: &str| row.get(k).and_then(Value::as_num);
            reference.insert(
                text(row, "token", file)?.to_string(),
                RefRow {
                    l1: level("l1"),
                    l2: level("l2"),
                    dram: level("dram").ok_or_else(|| format!("{file}: row without dram"))?,
                },
            );
        }

        Ok(Expected {
            records,
            bench_workloads,
            bench_tick,
            reference,
            tolerance_pct,
        })
    }

    /// Checks every job identity of a pass against the committed record for
    /// `workload`/`seed`, if one is committed. Returns whether a record
    /// exists.
    pub fn check_kernels(
        &self,
        workload: &str,
        seed: u64,
        kernels: &BTreeMap<String, KernelIdentity>,
        checks: &mut Checks,
    ) -> bool {
        let Some(record) = self.records.get(&format!("{workload}/{seed}")) else {
            return false;
        };
        checks.check(record.kernels.keys().eq(kernels.keys()), || {
            format!("{workload}/{seed}: job set differs from expected.json")
        });
        for (name, want) in &record.kernels {
            if let Some(got) = kernels.get(name) {
                checks.check(got == want, || {
                    format!(
                        "{workload}/{seed} {name}: identity {} != expected {}",
                        show(*got),
                        show(*want)
                    )
                });
            }
        }
        true
    }

    /// Checks the exact per-layer counts of a traced pass against the
    /// committed record, if one is committed.
    pub fn check_layers(
        &self,
        workload: &str,
        seed: u64,
        layers: &BTreeMap<&'static str, f64>,
        checks: &mut Checks,
    ) {
        let Some(record) = self.records.get(&format!("{workload}/{seed}")) else {
            return;
        };
        for name in EXACT_LAYERS {
            let got = layers.get(name).copied().unwrap_or(0.0) as u64;
            let want = record.layers.get(name).copied();
            checks.check(want == Some(got), || {
                format!("{workload}/{seed} {name}: {got} != expected {want:?}")
            });
        }
    }

    /// The `BENCH_workloads.json` identity of `kernel` on the preset with
    /// display name `preset`.
    pub fn bench_workload(&self, preset: &str, kernel: &str) -> Option<KernelIdentity> {
        self.bench_workloads
            .get(&(preset.to_string(), kernel.to_string()))
            .copied()
    }

    /// The `BENCH_tick.json` serial BFS run: preset display name, workload
    /// label (`"bfs nodes=N degree=D"`), content hash and cycles.
    pub fn bench_tick(&self) -> &(String, String, u64, u64) {
        &self.bench_tick
    }
}
