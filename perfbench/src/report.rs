//! Host facts, the metric catalogue, and the one writer of results:
//! the readable report, the result record and span files under
//! `perfbench/out/`, and the final JSON line.

use crate::stats::{Clock, Metric, Results};
use crate::trace::Tracer;
use crate::Config;
use std::fmt::Write as _;
use std::path::Path;

/// The end-to-end metrics every workload reports (untraced runs), with
/// their units. What each means per workload is in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_ms", "ms"),
    ("tail_latency_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("sim_cpt", "cycles/tuple"),
];

/// The paper's six algorithms by short name, as per-layer metric keys.
pub const ALGORITHMS: [&str; 6] = ["scalar", "ssr", "poly", "asr", "mono", "psm"];
/// serve-read's query shapes.
pub const SERVE_SHAPES: [&str; 6] = [
    "groupby",
    "range",
    "composite",
    "join",
    "prepared",
    "highcard",
];
/// ingest-mixed's read shapes.
pub const INGEST_SHAPES: [&str; 3] = ["range", "fullscan", "composite"];

/// Every per-layer metric of a traced run, with its unit. A workload
/// that bypasses a layer reports it as 0 and says why.
pub fn per_layer_catalogue() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("sim.ns_per_uop", "ns"),
        ("sim.ns_per_cycle", "ns"),
        ("sim.uops", "count"),
        ("sim.cycles", "count"),
        ("mem.l2_hit_rate", "ratio"),
        ("mem.dram_reads", "count"),
        ("kernel.stage_ms", "ms"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for a in ALGORITHMS {
        v.push((format!("kernel.{a}.cpt"), "cycles/tuple"));
        v.push((format!("kernel.{a}.avg_vl"), "elements"));
        v.push((format!("kernel.{a}.host_s"), "s"));
    }
    for (n, u) in [
        ("sql.parse_us", "us"),
        ("plan.hit_us", "us"),
        ("plan.miss_us", "us"),
        ("cache.hit_rate", "ratio"),
        ("cache.rebases", "count"),
        ("cache.invalidations", "count"),
        ("session.prune_ratio", "ratio"),
    ] {
        v.push((n.to_string(), u));
    }
    for s in SERVE_SHAPES {
        v.push((format!("session.{s}.lib_ms"), "ms"));
        v.push((format!("session.{s}.cycles"), "cycles"));
    }
    for s in INGEST_SHAPES {
        v.push((format!("executor.{s}.ms"), "ms"));
    }
    for (n, u) in [
        ("executor.prune_ratio", "ratio"),
        ("executor.steals", "count"),
        ("executor.affinity_moves", "count"),
        ("executor.balance", "ratio"),
        ("executor.makespan_cycles", "cycles"),
        ("ingest.append_p50_us", "us"),
        ("ingest.append_p99_us", "us"),
        ("delta.compactions", "count"),
        ("wal.bytes_per_user_byte", "ratio"),
        ("wal.checkpoint_ms", "ms"),
        ("wal.replay_rows_per_s", "1/s"),
        ("protocol.encode_us", "us"),
        ("protocol.decode_us", "us"),
        ("server.wire_ms", "ms"),
        ("server.rejected", "count"),
        ("server.cold_start_ms", "ms"),
        ("gen.late_p99_ms", "ms"),
        ("trace.overhead_pct", "%"),
        ("trace.blocking_gap_pct", "%"),
        ("trace.spans", "count"),
    ] {
        v.push((n.to_string(), u));
    }
    v
}

/// Facts about the host and build, printed next to every result.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub profile: &'static str,
    pub git_rev: String,
}

impl Host {
    pub fn detect() -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            git_rev: git_rev(&Path::new(env!("CARGO_MANIFEST_DIR")).join("..")),
        }
    }
}

/// The checked-out commit, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn describe(m: &Metric) -> String {
    let mut s = format!(
        "{:<28} {:>16} {:<12} [{}, {}",
        m.name,
        fmt_num(m.value),
        m.unit,
        m.clock.name(),
        m.stat
    );
    if let Some(sum) = &m.summary {
        let _ = write!(
            s,
            "; n={} median={} q1={} q3={}",
            sum.n,
            fmt_num(sum.median),
            fmt_num(sum.q1),
            fmt_num(sum.q3)
        );
        if let Some((p, v)) = sum.tail {
            let _ = write!(s, " p{p}={}", fmt_num(v));
        }
    }
    s.push(']');
    s
}

fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.6}")
    }
}

/// A JSON number with every digit (`{}` of an `f64` round-trips).
/// Non-finite values cannot appear in JSON; they only arise from failed
/// operations counted as missing every latency limit, and are written
/// as the largest finite `f64`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(list: &[&Metric]) -> String {
    let body: Vec<String> = list
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Fills every per-layer metric the workload did not report with 0 and
/// a reason, so a traced run always carries the whole catalogue.
fn complete_layers(workload: &str, r: &mut Results) {
    for (name, unit) in per_layer_catalogue() {
        if r.layers.iter().any(|m| m.name == name) {
            continue;
        }
        if !r.absent.iter().any(|(n, _)| *n == name) {
            r.absent
                .push((name.clone(), format!("layer not exercised by {workload}")));
        }
        r.layers.push(Metric {
            name,
            unit,
            value: 0.0,
            clock: Clock::Count,
            summary: None,
            stat: "absent".into(),
        });
    }
}

/// Prints the report and the final JSON line; writes the result record
/// and (traced) the spans under `cfg.out_dir`.
pub fn emit(cfg: &Config, mut runs: Vec<(&str, Results, Tracer)>) -> Result<(), String> {
    let mut text = String::new();
    let h = &cfg.host;
    let _ = writeln!(
        text,
        "host: nproc={} profile={} git_rev={} seed={} seconds={} trace={} threads={}",
        h.nproc, h.profile, h.git_rev, cfg.seed, cfg.seconds, cfg.trace as u8, cfg.threads
    );
    for (workload, r, tracer) in &mut runs {
        if cfg.trace {
            complete_layers(workload, r);
            let path = cfg
                .out_dir
                .join(format!("spans-{workload}-seed{}.jsonl", cfg.seed));
            std::fs::write(&path, tracer.to_jsonl())
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            let _ = writeln!(
                text,
                "[{workload}] spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            );
        } else {
            for (name, _) in END_TO_END {
                if !r.e2e.iter().any(|m| m.name == name) {
                    return Err(format!(
                        "{workload} did not report end-to-end metric {name}"
                    ));
                }
            }
        }
        let _ = writeln!(
            text,
            "[{workload}] operations: attempted={} failed={}",
            r.ops.attempted, r.ops.failed
        );
        for f in &r.ops.failures {
            let _ = writeln!(text, "[{workload}] FAILED: {f}");
        }
        for n in &r.notes {
            let _ = writeln!(text, "[{workload}] note: {n}");
        }
        if !cfg.trace {
            for m in &r.e2e {
                let _ = writeln!(text, "[{workload}] e2e   {}", describe(m));
            }
        }
        for m in &r.named {
            let _ = writeln!(text, "[{workload}] named {}", describe(m));
        }
        for m in &r.layers {
            let _ = writeln!(text, "[{workload}] layer {}", describe(m));
        }
        for (n, why) in &r.absent {
            let _ = writeln!(text, "[{workload}] absent {n}: {why}");
        }
    }
    let attempted: u64 = runs.iter().map(|(_, r, _)| r.ops.attempted).sum();
    let failed: u64 = runs.iter().map(|(_, r, _)| r.ops.failed).sum();
    let chosen: Vec<Metric> = if runs.len() == 1 {
        let r = &runs[0].1;
        if cfg.trace {
            r.layers.clone()
        } else {
            r.e2e.clone()
        }
    } else if cfg.trace {
        // One complete per-layer set: each metric from the workload that
        // measured it.
        per_layer_catalogue()
            .into_iter()
            .filter_map(|(name, _)| {
                let all: Vec<&Metric> = runs
                    .iter()
                    .filter_map(|(_, r, _)| r.layers.iter().find(|m| m.name == name))
                    .collect();
                all.iter()
                    .find(|m| m.stat != "absent")
                    .or(all.first())
                    .map(|m| (*m).clone())
            })
            .collect()
    } else {
        // Every workload's own names, plus set-up time summed and the
        // process's peak memory.
        let e2e = |name: &str| -> Vec<f64> {
            runs.iter()
                .filter_map(|(_, r, _)| r.e2e.iter().find(|m| m.name == name).map(|m| m.value))
                .collect()
        };
        let mut out: Vec<Metric> = runs
            .iter()
            .flat_map(|(_, r, _)| r.named.iter().cloned())
            .collect();
        let setup = e2e("setup_s").iter().sum();
        let rss = e2e("peak_rss_mb").iter().copied().fold(0.0, f64::max);
        for (name, unit, value, stat) in [
            ("setup_s", "s", setup, "sum of the workloads' medians"),
            ("peak_rss_mb", "MB", rss, "VmHWM"),
        ] {
            out.push(Metric {
                name: name.into(),
                unit,
                value,
                clock: Clock::Host,
                summary: None,
                stat: stat.into(),
            });
        }
        let _ = writeln!(text, "[all] named {}", describe(&out[out.len() - 2]));
        let _ = writeln!(text, "[all] named {}", describe(&out[out.len() - 1]));
        out
    };
    print!("{text}");
    let chosen: Vec<&Metric> = chosen.iter().collect();
    let finite = chosen.iter().all(|m| m.value.is_finite());
    let correct = failed == 0 && attempted > 0 && finite;

    let record = format!(
        "{{\"host\": {{\"nproc\": {}, \"profile\": {}, \"git_rev\": {}}}, \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"threads\": {}, \"workloads\": [{}], \"correct\": {correct}, \"attempted\": {attempted}, \
         \"failed\": {failed}, \"metrics\": {}}}\n",
        h.nproc,
        json_str(h.profile),
        json_str(&h.git_rev),
        cfg.seed,
        cfg.seconds,
        cfg.trace as u8,
        cfg.threads,
        runs.iter().map(|(w, _, _)| json_str(w)).collect::<Vec<_>>().join(", "),
        metrics_json(&chosen)
    );
    let path = cfg.out_dir.join(format!(
        "result-{}-seed{}-trace{}.json",
        cfg.workload, cfg.seed, cfg.trace as u8
    ));
    std::fs::write(&path, &record).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(&chosen)
    );
    Ok(())
}
