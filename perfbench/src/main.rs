//! The vagg benchmark: three workloads, two clocks, every layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-grid|serve-read|ingest-mixed|all \
//!     --seed N --seconds S --trace 0|1 [--clients N]
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics untraced, the per-layer metrics traced. Everything
//! above it is the readable report. Spans and a full result record go
//! to `perfbench/out/`.

mod grid;
mod ingest;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// The connection and executor-worker count the workloads are designed
/// for (a two-core host). Fewer are used on a smaller host.
const DESIGN_THREADS: usize = 2;

/// One run's settings, from the command line and the host.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Client connections (serve-read) and shards = executor workers
    /// (ingest-mixed). Never more than `nproc`.
    pub threads: usize,
    pub host: report::Host,
    /// Where spans, result records and the ingest databases go.
    pub out_dir: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload paper-grid|serve-read|ingest-mixed|all \
                     --seed N --seconds S --trace 0|1 [--clients N]";

fn parse_args() -> Result<Config, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace, mut clients) =
        (None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}\n{USAGE}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected seconds"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("expected 0 < seconds <= 3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--clients" => {
                clients = Some(
                    value
                        .parse::<usize>()
                        .ok()
                        .filter(|&c| c > 0)
                        .ok_or_else(|| bad("expected a positive integer"))?,
                )
            }
            _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    if !["paper-grid", "serve-read", "ingest-mixed", "all"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}\n{USAGE}"));
    }
    let host = report::Host::detect();
    let threads = clients.unwrap_or(DESIGN_THREADS.min(host.nproc));
    if threads > host.nproc {
        return Err(format!(
            "refusing to run: {threads} client connections/executor workers would \
             oversubscribe this host's {} cores (one process drives all load; \
             use --clients {} or fewer)",
            host.nproc, host.nproc
        ));
    }
    Ok(Config {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
        threads,
        host,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    })
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.out_dir.display());
        return ExitCode::from(2);
    }
    let runs: Vec<(&str, stats::Results, trace::Tracer)> = match cfg.workload.as_str() {
        "all" => ["paper-grid", "serve-read", "ingest-mixed"]
            .into_iter()
            .map(|w| {
                let (r, t) = run_workload(w, &cfg);
                (w, r, t)
            })
            .collect(),
        w => {
            let (r, t) = run_workload(w, &cfg);
            vec![(w, r, t)]
        }
    };
    match report::emit(&cfg, runs) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run_workload(workload: &str, cfg: &Config) -> (stats::Results, trace::Tracer) {
    eprintln!(
        "perfbench: running {workload} (seed {}, {} s, trace {})",
        cfg.seed, cfg.seconds, cfg.trace as u8
    );
    let (mut results, tracer) = match workload {
        "paper-grid" => grid::run(cfg),
        "serve-read" => serve::run(cfg),
        "ingest-mixed" => ingest::run(cfg),
        other => unreachable!("workload {other} validated in parse_args"),
    };
    results.e2e_value(
        "peak_rss_mb",
        "MB",
        stats::Clock::Host,
        report::peak_rss_mb(),
        "VmHWM",
    );
    (results, tracer)
}
