//! `ingest-mixed`: a durable `ShardedDatabase` (one shard per executor
//! worker) taking seeded appends with reads in between — the executor,
//! zone-map pruning, the ingest/delta/WAL write path and the plan
//! cache's rebase and invalidation path. The server is not on this path.
//!
//! The run repeats one fixed cycle so every cycle sees the same table
//! sizes: open a fresh database and load the base table, then
//! [`ROUNDS`] rounds of one append and one read (the read shape rotates
//! range → full scan → composite), crossing several compactions (which
//! are also WAL checkpoints); then drop the database and reopen it (WAL
//! replay). WAL policy: every append is logged and flushed to the OS
//! page cache (`WalWriter::flush`); nothing calls fsync.

use crate::report::INGEST_SHAPES;
use crate::stats::{geomean, median, percentile, Clock, Ops, Results};
use crate::trace::Tracer;
use crate::Config;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};
use vagg_datagen::rng::Xoshiro256StarStar;
use vagg_db::{parse_statement, Row, RowBatch, ShardedDatabase, ShardedOutput, Table};

const BASE_ROWS: usize = 32_768;
const BATCH_ROWS: usize = 256;
const ROUNDS: usize = 96;
const COLUMNS: [&str; 5] = ["t", "a", "b", "g", "v"];
const A_DOMAIN: u64 = 16;
const B_DOMAIN: u64 = 64;
const G_DOMAIN: u64 = 256;
/// The read latency tail: ~1,300 reads a run, so p95 has ~65 beyond it.
const TAIL_PCT: f64 = 95.0;

const RANGE: usize = 0;
const FULLSCAN: usize = 1;
const COMPOSITE: usize = 2;

fn read_sql(shape: usize, lit: u64) -> String {
    match shape {
        RANGE => format!("SELECT g, COUNT(*), SUM(v) FROM ev WHERE t > {lit} GROUP BY g"),
        FULLSCAN => "SELECT g, COUNT(*), SUM(v) FROM ev GROUP BY g".into(),
        COMPOSITE => "SELECT a, b, COUNT(*), SUM(v) FROM ev GROUP BY a, b".into(),
        _ => unreachable!("three read shapes"),
    }
}

/// Rows `[first, first + n)`: `t` is the row number (clustered), the
/// rest seeded.
fn rows(rng: &mut Xoshiro256StarStar, first: usize, n: usize) -> [Vec<u32>; 5] {
    let mut col =
        |bound: u64| -> Vec<u32> { (0..n).map(|_| rng.next_below(bound) as u32).collect() };
    let (a, b, g, v) = (col(A_DOMAIN), col(B_DOMAIN), col(G_DOMAIN), col(1000));
    [(first as u32..(first + n) as u32).collect(), a, b, g, v]
}

/// The host-side copy of every row appended, folded the way each read
/// shape aggregates: the oracle every read is checked against.
#[derive(Default)]
struct Model {
    g: Vec<u32>,
    v: Vec<u32>,
    full: BTreeMap<Vec<u32>, (u64, u64)>,
    composite: BTreeMap<Vec<u32>, (u64, u64)>,
}

type Answer = Vec<(Vec<u32>, Vec<f64>)>;

impl Model {
    fn add(&mut self, cols: &[Vec<u32>; 5]) {
        let [_, a, b, g, v] = cols;
        for i in 0..g.len() {
            let f = self.full.entry(vec![g[i]]).or_default();
            *f = (f.0 + 1, f.1 + v[i] as u64);
            let c = self.composite.entry(vec![a[i], b[i]]).or_default();
            *c = (c.0 + 1, c.1 + v[i] as u64);
        }
        self.g.extend_from_slice(g);
        self.v.extend_from_slice(v);
    }

    fn rows(&self) -> usize {
        self.g.len()
    }

    fn expect(&self, shape: usize, lit: u64) -> Answer {
        let answer = |m: &BTreeMap<Vec<u32>, (u64, u64)>| -> Answer {
            m.iter()
                .map(|(k, &(c, s))| (k.clone(), vec![c as f64, s as f64]))
                .collect()
        };
        match shape {
            RANGE => {
                let mut m = BTreeMap::new();
                for i in (lit as usize + 1)..self.rows() {
                    let e: &mut (u64, u64) = m.entry(vec![self.g[i]]).or_default();
                    *e = (e.0 + 1, e.1 + self.v[i] as u64);
                }
                answer(&m)
            }
            FULLSCAN => answer(&self.full),
            _ => answer(&self.composite),
        }
    }
}

fn answer_of(rows: &[Row]) -> Answer {
    let mut a: Answer = rows
        .iter()
        .map(|r| (r.group_parts.clone(), r.values.clone()))
        .collect();
    a.sort_by(|x, y| x.0.cmp(&y.0));
    a
}

fn batch(cols: [Vec<u32>; 5]) -> RowBatch {
    COLUMNS
        .iter()
        .zip(cols)
        .fold(RowBatch::new(), |b, (name, values)| {
            b.with_column(*name, values)
        })
}

/// What one cycle measured.
#[derive(Default)]
struct Cycle {
    setup_s: f64,
    append_us: Vec<f64>,
    read_ms: Vec<Vec<f64>>,
    makespan: Vec<f64>,
    balance: Vec<f64>,
    /// `(simulated cycles over all shards, host ns)` per read.
    work: Vec<(u64, u64)>,
    cpt: Vec<f64>,
    compactions: u64,
    wal_bytes_per_user_byte: f64,
    cache: (u64, u64, u64, u64),
    executor: (u64, u64, u64, u64),
    replay_s: f64,
    replay_rows_per_s: f64,
    checkpoint_ms: f64,
    parse_us: Vec<f64>,
    plan_hit_us: Vec<f64>,
    plan_miss_us: Vec<f64>,
}

fn check(
    ops: &mut Ops,
    what: &str,
    out: Result<ShardedOutput, vagg_db::SqlError>,
    expect: &Answer,
) -> Option<ShardedOutput> {
    match out {
        Ok(out) => {
            let got = answer_of(&out.rows);
            ops.check(got == *expect, || {
                format!(
                    "{what}: {} rows differ from the host fold's {}",
                    got.len(),
                    expect.len()
                )
            });
            Some(out)
        }
        Err(e) => {
            ops.check(false, || format!("{what}: {e}"));
            None
        }
    }
}

fn cycle(
    dir: &Path,
    seed: u64,
    threads: usize,
    ops: &mut Ops,
    tr: &mut Tracer,
    first_id: u64,
) -> Result<Cycle, String> {
    let mut c = Cycle {
        read_ms: vec![Vec::new(); INGEST_SHAPES.len()],
        ..Cycle::default()
    };
    let err = |e: vagg_db::SqlError| e.to_string();
    let _ = std::fs::remove_dir_all(dir);
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed ^ 0x1A6E_57ED);
    let mut model = Model::default();

    let t = Instant::now();
    let mut db = ShardedDatabase::open(dir, threads).map_err(err)?;
    let workers = db.executor_config().workers;
    if workers != threads {
        return Err(format!(
            "executor runs {workers} workers, expected {threads}"
        ));
    }
    let base = rows(&mut rng, 0, BASE_ROWS);
    model.add(&base);
    let table = COLUMNS
        .iter()
        .zip(base)
        .fold(Table::new("ev"), |t, (name, values)| {
            t.with_column(*name, values)
        });
    db.register(table);
    db.checkpoint().map_err(err)?;
    c.setup_s = t.elapsed().as_secs_f64();

    for round in 0..ROUNDS {
        let id = first_id + round as u64;
        let cols = rows(&mut rng, model.rows(), BATCH_ROWS);
        let appended = cols.clone();
        let t = Instant::now();
        let receipt = tr.span("ingest.append", id, || db.append_rows("ev", batch(cols)));
        let dt = t.elapsed().as_secs_f64();
        match receipt {
            Ok(receipt) => {
                model.add(&appended);
                c.compactions += receipt.compactions as u64;
                c.append_us.push(dt * 1e6);
                ops.check(receipt.rows == BATCH_ROWS, || {
                    format!("append took {} of {BATCH_ROWS} rows", receipt.rows)
                });
            }
            Err(e) => return Err(format!("append: {e}")),
        }

        let shape = round % INGEST_SHAPES.len();
        // ~0.1% of the rows: the newest ones, past every older zone.
        let lit = (model.rows() - model.rows() / 1000 - 1) as u64;
        let sql = read_sql(shape, lit);
        if tr.enabled() {
            c.parse_us
                .push(tr.span_ns("sql.parse", id, || parse_statement(&sql).is_ok()) as f64 * 1e-3);
            let misses = db.metrics().get("plan_cache_misses").unwrap_or(0);
            let plan_us = tr.span_ns("plan", id, || db.explain_sql(&sql).is_ok()) as f64 * 1e-3;
            if db.metrics().get("plan_cache_misses").unwrap_or(0) > misses {
                c.plan_miss_us.push(plan_us);
            } else {
                c.plan_hit_us.push(plan_us);
            }
        }
        let t = Instant::now();
        let out = tr.span("executor.read", id, || db.run_sql(&sql));
        let ns = t.elapsed().as_nanos() as u64;
        let expect = model.expect(shape, lit);
        if let Some(out) = check(ops, &sql, out, &expect) {
            c.read_ms[shape].push(ns as f64 * 1e-6);
            let loads = &out.worker_loads;
            let max = loads.iter().copied().max().unwrap_or(0);
            if max > 0 {
                c.balance
                    .push(loads.iter().sum::<u64>() as f64 / loads.len() as f64 / max as f64);
            }
            c.makespan.push(out.report.cycles as f64);
            c.work
                .push((out.shard_reports.iter().map(|r| r.cycles).sum(), ns));
            c.cpt
                .push(out.report.cycles.max(1) as f64 / model.rows() as f64);
        }
    }

    let m = db.metrics();
    let get = |k: &str| m.get(k).unwrap_or(0);
    let user_bytes = (model.rows() * COLUMNS.len() * 4) as f64;
    c.wal_bytes_per_user_byte = get("wal_bytes") as f64 / user_bytes;
    c.cache = (
        get("plan_cache_hits"),
        get("plan_cache_misses"),
        get("plan_cache_rebases"),
        get("plan_cache_invalidations"),
    );
    let e = db.executor_stats();
    c.executor = (e.morsels, e.morsels_pruned, e.steals, e.affinity_moves);

    // Answers before the drop; the reopened database must repeat them.
    let lit = (model.rows() - model.rows() / 1000 - 1) as u64;
    let mut before = Vec::new();
    for shape in [FULLSCAN, RANGE, COMPOSITE] {
        let sql = read_sql(shape, lit);
        let out = check(ops, &sql, db.run_sql(&sql), &model.expect(shape, lit));
        before.push(out.map(|o| answer_of(&o.rows)));
    }
    drop(db);

    let t = Instant::now();
    let mut db = tr
        .span("wal.replay", first_id, || {
            ShardedDatabase::open(dir, threads)
        })
        .map_err(err)?;
    c.replay_s = t.elapsed().as_secs_f64();
    for (i, shape) in [FULLSCAN, RANGE, COMPOSITE].into_iter().enumerate() {
        let sql = read_sql(shape, lit);
        let out = db.run_sql(&sql);
        let same = matches!((&out, &before[i]), (Ok(o), Some(b)) if answer_of(&o.rows) == *b);
        ops.check(same, || {
            format!("after reopen, {sql} answers differently than before the drop")
        });
    }
    c.replay_rows_per_s = model.rows() as f64 / c.replay_s;
    let t = Instant::now();
    tr.span("wal.checkpoint", first_id, || db.checkpoint())
        .map_err(err)?;
    c.checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
    drop(db);
    std::fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    Ok(c)
}

/// Runs cycles until `dur` has passed (at least one). When `tracer` is
/// on, cycles alternate untraced and traced (the first untraced), so
/// both sample the whole run; returns `(untraced, traced)`.
fn cycles(
    cfg: &Config,
    dur: Duration,
    ops: &mut Ops,
    tracer: &mut Tracer,
) -> (Vec<Cycle>, Vec<Cycle>) {
    let start = Instant::now();
    let mut off = Tracer::new(false, Instant::now(), 0);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for k in 0.. {
        let trace = tracer.enabled() && k % 2 == 1;
        if k > 0 && start.elapsed() >= dur && (!tracer.enabled() || !trace) {
            break;
        }
        let dir = cfg
            .out_dir
            .join(format!("ingest-{}-{k}", std::process::id()));
        let tr = if trace { &mut *tracer } else { &mut off };
        match cycle(&dir, cfg.seed, cfg.threads, ops, tr, (k * ROUNDS) as u64) {
            Ok(c) if trace => traced.push(c),
            Ok(c) => plain.push(c),
            Err(e) => {
                let _ = std::fs::remove_dir_all(&dir);
                ops.check(false, || format!("cycle {k}: {e}"));
                break;
            }
        }
    }
    (plain, traced)
}

/// Every read's latency, ms.
fn reads(cs: &[Cycle]) -> Vec<f64> {
    cs.iter()
        .flat_map(|c| c.read_ms.iter().flatten().copied())
        .collect()
}

pub fn run(cfg: &Config) -> (Results, Tracer) {
    let mut r = Results::default();
    let mut tracer = Tracer::new(cfg.trace, Instant::now(), 0);
    r.note(format!(
        "{} shards = executor workers; cycle: {BASE_ROWS}-row base, {ROUNDS} x ({BATCH_ROWS}-row append + one read), drop, reopen",
        cfg.threads
    ));
    r.note(
        "WAL on: each append logged and flushed to the OS page cache (WalWriter::flush), no fsync",
    );
    let (plain, traced) = cycles(
        cfg,
        Duration::from_secs_f64(cfg.seconds),
        &mut r.ops,
        &mut tracer,
    );
    if plain.is_empty() || (cfg.trace && traced.is_empty()) {
        return (r, tracer);
    }
    r.note(format!("untraced cycles: {}", plain.len()));
    if !cfg.trace {
        let per_cycle = |f: &dyn Fn(&Cycle) -> f64| -> Vec<f64> { plain.iter().map(f).collect() };
        r.e2e_median("setup_s", "s", &per_cycle(&|c| c.setup_s));
        let all_reads = reads(&plain);
        r.e2e_median("latency_ms", "ms", &all_reads);
        r.e2e_percentile("tail_latency_ms", "ms", &all_reads, TAIL_PCT);
        let rows = (ROUNDS * BATCH_ROWS) as f64;
        let rps: Vec<f64> = plain
            .iter()
            .map(|c| rows / (c.append_us.iter().sum::<f64>() / 1e6))
            .collect();
        r.e2e_median("throughput_per_s", "1/s", &rps);
        r.e2e_value(
            "sim_cpt",
            "cycles/tuple",
            Clock::Simulated,
            geomean(&plain[0].cpt),
            "geomean over the first cycle's reads",
        );
        r.name_as("throughput_per_s", "ingest_rows_per_s");
        r.name_as("latency_ms", "read_p50_ms");
        r.name_as("tail_latency_ms", "read_p95_ms");
        r.named_value(
            "recover_s",
            "s",
            Clock::Host,
            median(&per_cycle(&|c| c.replay_s)),
            "median",
        );
        return (r, tracer);
    }

    r.note(format!("traced cycles: {}", traced.len()));
    r.layer_value(
        "trace.overhead_pct",
        "%",
        Clock::Host,
        (median(&reads(&traced)) / median(&reads(&plain)) - 1.0) * 100.0,
    );
    for (i, s) in INGEST_SHAPES.iter().enumerate() {
        let samples: Vec<f64> = traced
            .iter()
            .flat_map(|c| c.read_ms[i].iter().copied())
            .collect();
        r.layer_median(&format!("executor.{s}.ms"), "ms", &samples);
    }
    let both: Vec<&Cycle> = plain.iter().chain(&traced).collect();
    let per_cycle = |f: &dyn Fn(&Cycle) -> f64| -> Vec<f64> { both.iter().map(|c| f(c)).collect() };
    let sum = |f: &dyn Fn(&Cycle) -> u64| -> u64 { both.iter().map(|c| f(c)).sum() };
    let (morsels, pruned) = (sum(&|c| c.executor.0), sum(&|c| c.executor.1));
    r.layer_value(
        "executor.prune_ratio",
        "ratio",
        Clock::Count,
        pruned as f64 / (morsels + pruned).max(1) as f64,
    );
    r.layer_median_of(
        "executor.steals",
        "count",
        Clock::Count,
        &per_cycle(&|c| c.executor.2 as f64),
    );
    r.layer_median_of(
        "executor.affinity_moves",
        "count",
        Clock::Count,
        &per_cycle(&|c| c.executor.3 as f64),
    );
    let balance: Vec<f64> = both
        .iter()
        .flat_map(|c| c.balance.iter().copied())
        .collect();
    r.layer_median_of("executor.balance", "ratio", Clock::Count, &balance);
    let makespan: Vec<f64> = both
        .iter()
        .flat_map(|c| c.makespan.iter().copied())
        .collect();
    r.layer_median_of(
        "executor.makespan_cycles",
        "cycles",
        Clock::Simulated,
        &makespan,
    );
    let appends: Vec<f64> = both
        .iter()
        .flat_map(|c| c.append_us.iter().copied())
        .collect();
    r.layer_median("ingest.append_p50_us", "us", &appends);
    r.layer_percentile("ingest.append_p99_us", "us", &appends, 99.0);
    r.layer_median_of(
        "delta.compactions",
        "count",
        Clock::Count,
        &per_cycle(&|c| c.compactions as f64),
    );
    r.layer_median_of(
        "wal.bytes_per_user_byte",
        "ratio",
        Clock::Count,
        &per_cycle(&|c| c.wal_bytes_per_user_byte),
    );
    r.layer_median("wal.checkpoint_ms", "ms", &per_cycle(&|c| c.checkpoint_ms));
    r.layer_median(
        "wal.replay_rows_per_s",
        "1/s",
        &per_cycle(&|c| c.replay_rows_per_s),
    );
    let (hits, misses) = (sum(&|c| c.cache.0), sum(&|c| c.cache.1));
    r.layer_value(
        "cache.hit_rate",
        "ratio",
        Clock::Count,
        hits as f64 / (hits + misses).max(1) as f64,
    );
    r.layer_median_of(
        "cache.rebases",
        "count",
        Clock::Count,
        &per_cycle(&|c| c.cache.2 as f64),
    );
    r.layer_median_of(
        "cache.invalidations",
        "count",
        Clock::Count,
        &per_cycle(&|c| c.cache.3 as f64),
    );
    let flat = |f: &dyn Fn(&Cycle) -> &Vec<f64>| -> Vec<f64> {
        traced.iter().flat_map(|c| f(c).iter().copied()).collect()
    };
    r.layer_median("sql.parse_us", "us", &flat(&|c| &c.parse_us));
    r.layer_median("plan.hit_us", "us", &flat(&|c| &c.plan_hit_us));
    r.layer_median("plan.miss_us", "us", &flat(&|c| &c.plan_miss_us));
    // Simulated work of one cycle's reads, summed over every shard.
    let (sim_cycles, host_ns) = traced[0]
        .work
        .iter()
        .fold((0u64, 0u64), |(c, n), &(wc, wn)| (c + wc, n + wn));
    r.layer_value("sim.cycles", "count", Clock::Simulated, sim_cycles as f64);
    r.note(
        "simulated cycles here are summed over the executor's worker machines: a morsel's cycles \
         depend on which worker's caches it ran on, so they can differ by a few cycles run to run",
    );
    r.layer_value(
        "sim.ns_per_cycle",
        "ns",
        Clock::Host,
        host_ns as f64 / sim_cycles.max(1) as f64,
    );
    for name in [
        "sim.uops",
        "sim.ns_per_uop",
        "mem.l2_hit_rate",
        "mem.dram_reads",
    ] {
        r.absent(
            name,
            "the executor's worker machines are not reachable through the public API",
        );
    }
    r.layer_value(
        "trace.spans",
        "count",
        Clock::Count,
        tracer.spans().len() as f64,
    );
    let reads_all = reads(&traced);
    r.note(format!(
        "traced reads: {} (p{TAIL_PCT} {:.4} ms)",
        reads_all.len(),
        percentile(&reads_all, TAIL_PCT)
    ));
    (r, tracer)
}
