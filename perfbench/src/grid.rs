//! `paper-grid`: a fixed slice of the paper's grid, one thread, through
//! `run_algorithm` — the simulator and kernels do nearly all the work.
//!
//! The slice: the six paper algorithms × one cardinality per division
//! (the simulated tables range from fitting in L1 to far beyond L2) ×
//! one presorted and one unsorted distribution (the psm/asr split).
//! Polytable is left out of `high`: that one cell would cost more host
//! time than the rest of the slice.

use crate::report::ALGORITHMS;
use crate::stats::{geomean, median, Clock, Ops, Results};
use crate::trace::Tracer;
use crate::Config;
use std::time::Instant;
use vagg_core::{reference, run_algorithm, AggResult, Algorithm, StagedInput};
use vagg_datagen::{Dataset, DatasetSpec, Distribution, Division};
use vagg_sim::{Machine, SimConfig};

/// Rows per cell.
const ROWS: usize = 8_192;
/// One cardinality per division: low, low-normal, high-normal, high.
const CARDINALITIES: [u64; 4] = [76, 2_441, 19_531, 625_000];
const DISTRIBUTIONS: [Distribution; 2] = [Distribution::Sorted, Distribution::Uniform];
const SETUP_REPS: usize = 5;
/// Seconds one pass over the slice took on the seed commit on a 2-core
/// host. A run makes `ceil(seconds / PASS_S)` passes: whole passes only,
/// the same number on every run of a given length.
const PASS_S: f64 = 10.0;

struct Cell {
    alg: Algorithm,
    ds: Dataset,
    expect: AggResult,
    label: String,
}

fn cells(seed: u64) -> Vec<Cell> {
    let mut out = Vec::new();
    for dist in DISTRIBUTIONS {
        for card in CARDINALITIES {
            let division = Division::of_cardinality(card);
            for alg in Algorithm::PAPER {
                if alg == Algorithm::Polytable && division == Division::High {
                    continue;
                }
                let ds = DatasetSpec::paper(dist, card)
                    .with_rows(ROWS)
                    .with_seed(seed)
                    .generate();
                let expect = reference(&ds.g, &ds.v);
                out.push(Cell {
                    alg,
                    ds,
                    expect,
                    label: format!("{}/{}/{}", alg.short_name(), division.name(), dist.name()),
                });
            }
        }
    }
    out
}

fn kernel_span(alg: Algorithm) -> &'static str {
    match alg {
        Algorithm::Scalar => "kernel.scalar",
        Algorithm::StandardSortedReduce => "kernel.ssr",
        Algorithm::Polytable => "kernel.poly",
        Algorithm::AdvancedSortedReduce => "kernel.asr",
        Algorithm::Monotable => "kernel.mono",
        Algorithm::PartiallySortedMonotable => "kernel.psm",
        other => unreachable!("{} is not in the paper grid", other.name()),
    }
}

/// Per-cell host samples (ms) and the simulated cycles every run of the
/// cell must reproduce.
struct Passes {
    ms: Vec<Vec<f64>>,
    cycles: Vec<Option<u64>>,
}

impl Passes {
    fn new(n: usize) -> Self {
        Self {
            ms: vec![Vec::new(); n],
            cycles: vec![None; n],
        }
    }

    /// Each cell's median time, ms.
    fn medians(&self) -> Vec<f64> {
        self.ms.iter().map(|s| median(s)).collect()
    }

    /// Counts one run of cell `i`: its rows must equal the reference and
    /// its cycles must equal every earlier run of the cell.
    fn check(&mut self, ops: &mut Ops, cell: &Cell, i: usize, result: &AggResult, cycles: u64) {
        let first = *self.cycles[i].get_or_insert(cycles);
        ops.check(*result == cell.expect && cycles == first, || {
            format!(
                "{}: result matches reference: {}, cycles {cycles} vs first run {first}",
                cell.label,
                *result == cell.expect
            )
        });
    }
}

pub fn run(cfg: &Config) -> (Results, Tracer) {
    let mut r = Results::default();
    let sim = SimConfig::paper();

    let mut setup_s = Vec::new();
    let mut slice = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        slice = cells(cfg.seed);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let n = slice.len();
    r.note(format!(
        "{n} cells x {ROWS} rows: {} algorithms x cardinalities {CARDINALITIES:?} x {:?}, no polytable/high",
        Algorithm::PAPER.len(),
        DISTRIBUTIONS.map(|d| d.name())
    ));

    let passes = ((cfg.seconds / PASS_S).ceil() as usize).max(1);
    let mut untraced = Passes::new(n);
    // Traced passes: the same cells through the calls run_algorithm makes
    // (fresh Machine, StagedInput::stage, Algorithm::execute), each in a
    // span, plus Machine::stats; traced cycles must equal untraced ones.
    // A traced run alternates untraced and traced passes, half each.
    let mut tracer = Tracer::new(cfg.trace, Instant::now(), 0);
    let mut traced = Passes::new(n);
    let mut stats = vec![None; n];
    let rounds = if cfg.trace {
        (passes / 2).max(1)
    } else {
        passes
    };
    for pass in 0..rounds {
        for (i, c) in slice.iter().enumerate() {
            let t = Instant::now();
            let run = run_algorithm(c.alg, &sim, &c.ds);
            untraced.ms[i].push(t.elapsed().as_secs_f64() * 1e3);
            untraced.check(&mut r.ops, c, i, &run.result, run.cycles);
        }
        if !cfg.trace {
            continue;
        }
        for (i, c) in slice.iter().enumerate() {
            let req = (pass * n + i) as u64;
            let cell = tracer.begin("grid.cell", req);
            let mut m = tracer.span("sim.machine_new", req, || Machine::new(sim.clone()));
            let input = tracer.span("kernel.stage", req, || StagedInput::stage(&mut m, &c.ds));
            let (result, _) =
                tracer.span(kernel_span(c.alg), req, || c.alg.execute(&mut m, &input));
            let s = m.stats();
            traced.ms[i].push(tracer.end(cell) as f64 * 1e-6);
            untraced.check(&mut r.ops, c, i, &result, s.cycles);
            stats[i].get_or_insert(s);
        }
    }
    r.note(format!("untraced passes: {}", untraced.ms[0].len()));
    let cell_ms = untraced.medians();
    let grid_wall_s = cell_ms.iter().sum::<f64>() / 1e3;
    let cycles: Vec<u64> = untraced
        .cycles
        .iter()
        .map(|c| c.expect("every cell ran"))
        .collect();
    let cpt_geomean = geomean(
        &cycles
            .iter()
            .map(|&c| c as f64 / ROWS as f64)
            .collect::<Vec<_>>(),
    );

    if !cfg.trace {
        // Cell times span three orders of magnitude with gaps between
        // them, so a percentile over cells would jump from one cell to the
        // next; the slice's latency is one whole pass, its tail the
        // slowest cell.
        let slowest = cell_ms.iter().copied().fold(0.0, f64::max);
        r.e2e_median("setup_s", "s", &setup_s);
        r.e2e_value(
            "latency_ms",
            "ms",
            Clock::Host,
            grid_wall_s * 1e3,
            "one pass: sum of cell medians",
        );
        r.e2e_value(
            "tail_latency_ms",
            "ms",
            Clock::Host,
            slowest,
            "slowest cell's median",
        );
        r.e2e_value(
            "throughput_per_s",
            "1/s",
            Clock::Host,
            (n * ROWS) as f64 / grid_wall_s,
            "tuples / sum of cell medians",
        );
        r.e2e_value(
            "sim_cpt",
            "cycles/tuple",
            Clock::Simulated,
            cpt_geomean,
            "geomean over cells",
        );
        r.named_value(
            "grid_wall_s",
            "s",
            Clock::Host,
            grid_wall_s,
            "sum of cell medians",
        );
        let mut golden = String::from("cell\tcycles\tcpt\tmedian_ms\n");
        for (i, c) in slice.iter().enumerate() {
            golden.push_str(&format!(
                "{}\t{}\t{}\t{}\n",
                c.label,
                cycles[i],
                cycles[i] as f64 / ROWS as f64,
                cell_ms[i]
            ));
        }
        let path = cfg.out_dir.join(format!("grid-cells-seed{}.tsv", cfg.seed));
        match std::fs::write(&path, golden) {
            Ok(()) => r.note(format!("per-cell cycles written to {}", path.display())),
            Err(e) => r
                .ops
                .check(false, || format!("write {}: {e}", path.display())),
        }
        r.name_as("sim_cpt", "grid_cpt_geomean");
        return (r, tracer);
    }

    r.note(format!("traced passes: {}", traced.ms[0].len()));
    let stats: Vec<_> = stats
        .into_iter()
        .map(|s| s.expect("every cell traced"))
        .collect();

    let exec_ms: Vec<f64> = {
        // Median execute time per cell, from the kernel spans.
        let mut per_cell = vec![Vec::new(); n];
        for s in tracer
            .spans()
            .iter()
            .filter(|s| s.name.starts_with("kernel.") && s.name != "kernel.stage")
        {
            per_cell[s.request as usize % n].push(s.dur_ns() as f64 * 1e-6);
        }
        per_cell.iter().map(|v| median(v)).collect()
    };
    for (a, alg) in ALGORITHMS.iter().zip(Algorithm::PAPER) {
        let idx: Vec<usize> = (0..n).filter(|&i| slice[i].alg == alg).collect();
        let cpts: Vec<f64> = idx
            .iter()
            .map(|&i| stats[i].cycles as f64 / ROWS as f64)
            .collect();
        let (elems, vops) = idx.iter().fold((0u64, 0u64), |(e, v), &i| {
            (e + stats[i].mix.v_elements, v + stats[i].mix.vector_ops())
        });
        r.layer_value(
            &format!("kernel.{a}.cpt"),
            "cycles/tuple",
            Clock::Simulated,
            geomean(&cpts),
        );
        r.layer_value(
            &format!("kernel.{a}.avg_vl"),
            "elements",
            Clock::Simulated,
            if vops == 0 {
                0.0
            } else {
                elems as f64 / vops as f64
            },
        );
        r.layer_value(
            &format!("kernel.{a}.host_s"),
            "s",
            Clock::Host,
            idx.iter().map(|&i| exec_ms[i]).sum::<f64>() / 1e3,
        );
        if vops == 0 {
            r.note(format!(
                "kernel.{a}.avg_vl is 0: the algorithm issues no vector instructions"
            ));
        }
    }
    r.layer_median(
        "kernel.stage_ms",
        "ms",
        &tracer.durations("kernel.stage", 1e-6),
    );
    let uops: u64 = stats.iter().map(|s| s.ops).sum();
    let sim_cycles: u64 = stats.iter().map(|s| s.cycles).sum();
    let (l2_hits, l2_accesses, l2_misses) =
        stats.iter().fold((0u64, 0u64, 0u64), |(h, a, m), s| {
            (
                h + s.mem.l2.hits,
                a + s.mem.l2.accesses,
                m + s.mem.l2.misses,
            )
        });
    let exec_ns: f64 = exec_ms.iter().sum::<f64>() * 1e6;
    r.layer_value("sim.uops", "count", Clock::Simulated, uops as f64);
    r.layer_value("sim.cycles", "count", Clock::Simulated, sim_cycles as f64);
    r.layer_value(
        "mem.l2_hit_rate",
        "ratio",
        Clock::Simulated,
        l2_hits as f64 / l2_accesses.max(1) as f64,
    );
    r.layer_value(
        "mem.dram_reads",
        "count",
        Clock::Simulated,
        l2_misses as f64,
    );
    r.layer_value("sim.ns_per_uop", "ns", Clock::Host, exec_ns / uops as f64);
    r.layer_value(
        "sim.ns_per_cycle",
        "ns",
        Clock::Host,
        exec_ns / sim_cycles as f64,
    );
    r.layer_value(
        "trace.overhead_pct",
        "%",
        Clock::Host,
        (traced.medians().iter().sum::<f64>() / 1e3 / grid_wall_s - 1.0) * 100.0,
    );
    r.layer_value(
        "trace.spans",
        "count",
        Clock::Count,
        tracer.spans().len() as f64,
    );
    r.note("mem.dram_reads counts L2 misses: the line fills DRAM serves");
    (r, tracer)
}
