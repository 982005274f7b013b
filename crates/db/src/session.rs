//! Reusable execution sessions — the execute half of the plan/execute
//! split.
//!
//! A [`Session`] owns one long-lived [`Machine`] and executes
//! [`QueryPlan`]s on it. Back-to-back queries amortise machine
//! construction and keep the simulated cache hierarchy warm, the way a
//! real column-store keeps one execution context per connection; each
//! [`Session::run`] reports the *cycle delta* it cost, so per-query
//! accounting stays exact across reuse.

use crate::engine::{ExecutionReport, QueryOutput, Row};
use crate::filter::vector_filter;
use crate::plan::{PlanStep, QueryPlan, ScanMode};
use crate::query::{AggFn, AggregateQuery, OrderKey};
use crate::trace::StepTrace;
use std::ops::Range;
use vagg_core::input::vector_max_scan;
use vagg_core::{minmax_aggregate, PartialAggregate, StagedInput};
use vagg_sim::{Machine, SimConfig};

/// What [`Session::run_partial`] produced: the mergeable partial
/// aggregate of the plan's *distributive* slice (WHERE + aggregation,
/// no HAVING/ORDER BY/LIMIT) over one row range, plus the usual
/// per-query report.
///
/// The morsel coordinator runs every populated plan morsel by morsel —
/// on the [`crate::Executor`]'s workers for a
/// [`crate::ShardedDatabase`], inline on the caller's session for a
/// cancellable [`crate::Database`] read — folds the partials with
/// [`PartialAggregate::merge`], and finalises the non-distributive
/// tail once on the merged result.
#[derive(Debug, Clone)]
pub struct PartialRun {
    /// The mergeable COUNT/SUM (+ optional MIN/MAX) columns.
    pub partial: PartialAggregate,
    /// Measured key domains of every grouping column (primary first)
    /// for composite GROUP BY; empty for single-column grouping. The
    /// trailing entries (`key_domains[1..]`) decompose this partial's
    /// fused keys on readback. Note the domains are measured from
    /// *this* run's input rows (or forced by the caller), so fused keys
    /// are only comparable across partials keyed with identical
    /// domains — the morsel coordinator forces one shared set.
    pub key_domains: Vec<u32>,
    /// The executed distributive steps and their cycle cost.
    pub report: ExecutionReport,
}

/// What the distributive slice of one plan produced on the machine.
struct Distributive {
    base: vagg_core::AggResult,
    mm: Option<(Vec<u32>, Vec<u32>)>,
    rows_aggregated: usize,
    key_domains: Vec<u32>,
    /// The WHERE clause removed every row; no algorithm ran.
    skipped: bool,
}

impl Distributive {
    /// No row reached aggregation: an empty partial of the plan's
    /// family (with MIN/MAX columns when the query needs them), marked
    /// skipped in the trace.
    fn skipped(
        plan: &QueryPlan,
        key_domains: Vec<u32>,
        trace: Option<&mut Vec<StepTrace>>,
    ) -> Self {
        if let Some(t) = trace {
            t.push(StepTrace {
                step: PlanStep::AggregateSkipped,
                rows_in: 0,
                rows_out: 0,
                cycles: 0,
            });
        }
        Distributive {
            base: vagg_core::AggResult {
                groups: Vec::new(),
                counts: Vec::new(),
                sums: Vec::new(),
            },
            mm: plan.query.needs_minmax().then(|| (Vec::new(), Vec::new())),
            rows_aggregated: 0,
            key_domains,
            skipped: true,
        }
    }
}

/// A long-lived query-execution context: one simulated machine serving
/// many plans.
///
/// ```
/// use vagg_db::{AggregateQuery, Engine, Session, Table};
///
/// let t = Table::new("r")
///     .with_column("g", vec![1, 2, 1])
///     .with_column("v", vec![10, 20, 30]);
/// let plan = Engine::new().plan(&t, &AggregateQuery::paper("g", "v"))?;
///
/// let mut session = Session::new();
/// let first = session.run(&plan, None);
/// let second = session.run(&plan, None); // same machine, warm caches
/// assert_eq!(first.rows, second.rows);
/// assert_eq!(session.queries_run(), 2);
/// # Ok::<(), vagg_db::PlanError>(())
/// ```
pub struct Session {
    machine: Machine,
    queries: usize,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("queries", &self.queries)
            .field("total_cycles", &self.machine.cycles())
            .finish_non_exhaustive()
    }
}

impl Default for Session {
    fn default() -> Self {
        Self::new()
    }
}

impl Session {
    /// A session on the paper's machine configuration.
    pub fn new() -> Self {
        Self::with_config(SimConfig::paper())
    }

    /// A session on a custom machine configuration.
    pub fn with_config(cfg: SimConfig) -> Self {
        Self {
            machine: Machine::new(cfg),
            queries: 0,
        }
    }

    /// The underlying machine (cumulative across queries).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Plans executed on this session so far.
    pub fn queries_run(&self) -> usize {
        self.queries
    }

    /// Total simulated cycles across every plan this session ran.
    pub fn total_cycles(&self) -> u64 {
        self.machine.cycles()
    }

    /// Executes a plan, returning the rows and a report whose `cycles`
    /// are this query's delta (reuse does not double-charge).
    ///
    /// With `trace` set, a [`StepTrace`] is recorded per executed step
    /// (rows in/out and the simulated cycle delta of each phase).
    /// Tracing only *reads* the cycle counter and host-side lengths, so
    /// the returned output is bit-identical to the untraced run — the
    /// property `EXPLAIN ANALYZE` relies on.
    ///
    /// Execution is infallible: every error condition is typed and
    /// rejected at plan time by [`crate::Engine::plan`].
    pub fn run(&mut self, plan: &QueryPlan, mut trace: Option<&mut Vec<StepTrace>>) -> QueryOutput {
        let start_cycles = self.machine.cycles();
        let d = self.run_distributive(plan, 0, plan.rows, trace.as_deref_mut(), None);
        let n = plan.rows;
        if d.skipped {
            let cycles = self.machine.cycles() - start_cycles;
            return QueryOutput {
                rows: Vec::new(),
                report: ExecutionReport {
                    algorithm: None,
                    rows_aggregated: 0,
                    cycles,
                    cpt: cycles as f64 / n as f64,
                    steps: skipped_steps(plan),
                },
            };
        }
        let (mut base, mut mm) = (d.base, d.mm);
        let m = &mut self.machine;

        // HAVING: vectorised selection over the output table, compacting
        // every output column behind the aggregate's mask.
        if let Some(h) = &plan.query.having {
            let (before, c0) = (base.len(), m.cycles());
            (base, mm) = apply_having(m, h, base, mm);
            let having = |s: &PlanStep| matches!(s, PlanStep::VectorHaving { .. });
            record(
                &mut trace,
                plan,
                having,
                (before, base.len()),
                m.cycles() - c0,
            );
        }

        // ORDER BY: stable vectorised radix sort of the output rows by
        // the requested key (complement key for DESC), then LIMIT.
        if let Some(ob) = &plan.query.order_by {
            let (before, c0) = (base.len(), m.cycles());
            (base, mm) = apply_order_by(m, ob, base, mm);
            // The sort permutes without dropping rows; LIMIT truncates
            // afterwards (and costs no cycles).
            let sort = |s: &PlanStep| matches!(s, PlanStep::VectorOrderBy { .. });
            record(&mut trace, plan, sort, (before, before), m.cycles() - c0);
            let limit = |s: &PlanStep| matches!(s, PlanStep::Limit(_));
            record(&mut trace, plan, limit, (before, base.len()), 0);
        }

        let rows = assemble_rows(
            &plan.query,
            &base,
            mm.as_ref().map(|(a, b)| (&a[..], &b[..])),
            rest_of(&d.key_domains),
        );

        let cycles = m.cycles() - start_cycles;
        QueryOutput {
            rows,
            report: ExecutionReport {
                algorithm: Some(plan.algorithm),
                rows_aggregated: d.rows_aggregated,
                cycles,
                cpt: cycles as f64 / n as f64,
                // Every planned step ran, in plan order.
                steps: plan.steps.clone(),
            },
        }
    }

    /// Executes only the *distributive* slice of a plan — WHERE
    /// selection plus aggregation, skipping any HAVING/ORDER BY/LIMIT
    /// tail — over the row range `rows` of its staged columns, and
    /// returns the mergeable [`PartialAggregate`] instead of assembled
    /// rows.
    ///
    /// This is the per-morsel entry point: COUNT/SUM/MIN/MAX partials
    /// computed over disjoint row ranges fold into the whole-table
    /// answer with [`PartialAggregate::merge`] at any split point —
    /// `merge(run_partial(0..k), run_partial(k..n)) ==
    /// run_partial(0..n)` — and the morsel coordinator finalises the
    /// tail once on the merged result (see [`crate::ShardedDatabase`]).
    /// The report's `cycles` cover this range only and `cpt` divides
    /// by the range's rows, so morsel costs add up to the whole-plan
    /// cost.
    ///
    /// `domains` *forces* the composite key domains instead of
    /// measuring them — the coordinator's fast path. The caller
    /// supplies the global per-column domains (the elementwise maximum
    /// of every populated plan's statistics, primary first); fusion
    /// multiplies by these fixed radices and skips the per-column max
    /// scans, so every morsel keys its partial in one shared fused
    /// space and partials merge directly. Forcing the exact
    /// whole-input domains reproduces the keys a single session would
    /// measure over the same rows, so results stay bit-identical
    /// (fusion is positional: `key = ((g₀·d₁ + g₁)·d₂ + g₂)…` for any
    /// consistent dᵢ that bound every value). `trace` records per-step
    /// spans with the same bit-identity guarantee as [`Session::run`].
    ///
    /// # Panics
    ///
    /// If `rows` is not a sub-range of `0..plan.rows()`, or `domains`
    /// does not match the plan's grouping column count.
    pub fn run_partial(
        &mut self,
        plan: &QueryPlan,
        rows: Range<usize>,
        domains: Option<&[u64]>,
        trace: Option<&mut Vec<StepTrace>>,
    ) -> PartialRun {
        let Range { start: lo, end: hi } = rows;
        assert!(
            lo <= hi && hi <= plan.rows,
            "morsel {lo}..{hi} escapes the plan's {} rows",
            plan.rows
        );
        let start_cycles = self.machine.cycles();
        let d = self.run_distributive(plan, lo, hi, trace, domains);
        let cycles = self.machine.cycles() - start_cycles;
        let steps = if d.skipped {
            skipped_steps(plan)
        } else {
            distributive_steps(plan)
        };
        PartialRun {
            partial: PartialAggregate::new(d.base, d.mm),
            key_domains: d.key_domains,
            report: ExecutionReport {
                algorithm: (!d.skipped).then_some(plan.algorithm),
                rows_aggregated: d.rows_aggregated,
                cycles,
                cpt: cycles as f64 / (hi - lo).max(1) as f64,
                steps,
            },
        }
    }

    // stage → fuse → filter → metadata scan → aggregate: the slice of
    // execution whose outputs merge across disjoint row partitions
    // (and, within a partition, across disjoint `lo..hi` morsels).
    //
    // With `trace` set, each phase's observed rows and cycle delta are
    // recorded. Recording only reads the cycle counter and host lengths
    // — it issues no machine work — so traced and untraced runs are
    // bit-identical; the per-step cycles sum to the phase-exact total
    // (staging is billed to the filter when one runs, to the
    // cardinality scan otherwise).
    fn run_distributive(
        &mut self,
        plan: &QueryPlan,
        lo: usize,
        hi: usize,
        mut trace: Option<&mut Vec<StepTrace>>,
        forced: Option<&[u64]>,
    ) -> Distributive {
        self.queries += 1;
        // Queries own no machine-resident state between runs (results are
        // read back to the host), so reclaim the simulated address space
        // up front: the bump allocator never frees, and without this a
        // long-lived session would grow host memory by the staged table
        // size on every query. Cycle and cache-model state persist.
        self.machine.space_mut().reset();
        let m = &mut self.machine;
        let n = hi - lo;
        if n == 0 {
            return Distributive::skipped(plan, Vec::new(), trace);
        }

        // Composite GROUP BY: fuse the grouping columns into one key per
        // row on the machine; the fused column then flows through the
        // unchanged single-key pipeline. `key_domains[1..]` drives
        // readback decomposition.
        let (g_fused, key_domains): (Option<Vec<u32>>, Vec<u32>) = if plan.rest.is_empty() {
            (None, Vec::new())
        } else {
            let c0 = m.cycles();
            let mut cols: Vec<&[u32]> = vec![&plan.group[lo..hi]];
            for col in &plan.rest {
                cols.push(&col[lo..hi]);
            }
            let (fused, domains) = fuse_group_columns(m, &cols, forced);
            let fuse = |s: &PlanStep| matches!(s, PlanStep::FuseKeys { .. });
            record(&mut trace, plan, fuse, (n, n), m.cycles() - c0);
            (Some(fused), domains)
        };
        let g: &[u32] = g_fused.as_deref().unwrap_or(&plan.group[lo..hi]);
        let v: &[u32] = &plan.value[lo..hi];

        // WHERE: vectorised selection into fresh compacted columns.
        let stage0 = m.cycles();
        let (input, rows_aggregated) = if let Some((_, pred)) = &plan.query.filter {
            let w: &[u32] = &plan
                .filter_col
                .as_deref()
                .expect("plan carries the WHERE column")[lo..hi];
            let ws = m.space_mut().alloc_slice_u32(w);
            let gs = m.space_mut().alloc_slice_u32(g);
            let vs = m.space_mut().alloc_slice_u32(v);
            let gd = m.space_mut().alloc(4 * n as u64, 64);
            let vd = m.space_mut().alloc(4 * n as u64, 64);
            let kept = vector_filter(m, ws, n, *pred, &[(gs, gd), (vs, vd)]);
            let filter = |s: &PlanStep| matches!(s, PlanStep::VectorFilter { .. });
            record(&mut trace, plan, filter, (n, kept), m.cycles() - stage0);
            if kept == 0 {
                // Nothing survived: no aggregation algorithm runs at
                // all.
                return Distributive::skipped(plan, key_domains, trace);
            }
            // Compaction preserves relative order, so a sorted column
            // stays sorted through the filter.
            let staged = StagedInput {
                g: gd,
                v: vd,
                aux_g: m.space_mut().alloc(4 * kept as u64, 64),
                aux_v: m.space_mut().alloc(4 * kept as u64, 64),
                n: kept,
                presorted: plan.presorted,
            };
            (staged, kept)
        } else {
            (StagedInput::stage_raw(m, g, v, plan.presorted), n)
        };
        // Staging is billed to the filter when one ran (nothing on the
        // machine separates them), to the cardinality scan otherwise.
        let scan0 = if plan.query.filter.is_some() {
            m.cycles()
        } else {
            stage0
        };

        // The charged planning scan (§III-A): the session replays the
        // metadata step the paper bills to the query. The algorithm
        // choice itself was fixed at plan time.
        match plan.scan_mode {
            ScanMode::Presorted => {
                let _ = vagg_core::input::presorted_max(m, &input);
            }
            ScanMode::Exact => {
                let _ = vector_max_scan(m, &input);
            }
            ScanMode::Sampled { stride } => {
                let _ = vagg_core::sampling::sampled_max_scan(m, &input, stride);
            }
        }
        let agg0 = m.cycles();
        let scan = |s: &PlanStep| matches!(s, PlanStep::CardinalityScan { .. });
        let survivors = (rows_aggregated, rows_aggregated);
        record(&mut trace, plan, scan, survivors, agg0 - scan0);

        // Aggregate.
        let (base, mm) = if plan.query.needs_minmax() {
            let r = minmax_aggregate(m, &input);
            (r.base, Some((r.mins, r.maxs)))
        } else {
            let (result, _) = plan.algorithm.execute(m, &input);
            (result, None)
        };
        let kernel = |s: &PlanStep| matches!(s, PlanStep::Aggregate(_) | PlanStep::MinMaxKernel);
        let groups = (rows_aggregated, base.len());
        record(&mut trace, plan, kernel, groups, m.cycles() - agg0);

        Distributive {
            base,
            mm,
            rows_aggregated,
            key_domains,
            skipped: false,
        }
    }
}

/// The decomposition domains (`key_domains[1..]`) of a measured domain
/// list; empty for single-column grouping.
pub(crate) fn rest_of(key_domains: &[u32]) -> &[u32] {
    if key_domains.is_empty() {
        &[]
    } else {
        &key_domains[1..]
    }
}

// The planned steps reported when the WHERE clause removed every row:
// the pre-filter steps, then the skip marker.
fn skipped_steps(plan: &QueryPlan) -> Vec<PlanStep> {
    let mut steps: Vec<PlanStep> = plan
        .steps
        .iter()
        .take_while(|s| !matches!(s, PlanStep::CardinalityScan { .. }))
        .cloned()
        .collect();
    steps.push(PlanStep::AggregateSkipped);
    steps
}

// Records one executed step's span when tracing: the planned step
// matching `pred` (planned steps are unique per kind, so the first
// match is the step) with its observed (rows in, rows out) and cycle
// delta.
fn record(
    trace: &mut Option<&mut Vec<StepTrace>>,
    plan: &QueryPlan,
    pred: impl Fn(&PlanStep) -> bool,
    (rows_in, rows_out): (usize, usize),
    cycles: u64,
) {
    let Some(t) = trace.as_deref_mut() else {
        return;
    };
    if let Some(step) = plan.steps.iter().find(|s| pred(s)).cloned() {
        t.push(StepTrace {
            step,
            rows_in: rows_in as u64,
            rows_out: rows_out as u64,
            cycles,
        });
    }
}

// The distributive prefix of the planned steps: everything up to and
// including the aggregation kernel.
fn distributive_steps(plan: &QueryPlan) -> Vec<PlanStep> {
    let end = plan
        .steps
        .iter()
        .position(|s| matches!(s, PlanStep::Aggregate(_) | PlanStep::MinMaxKernel))
        .map_or(plan.steps.len(), |i| i + 1);
    plan.steps[..end].to_vec()
}

type Columns = (vagg_core::AggResult, Option<(Vec<u32>, Vec<u32>)>);

// The integral column a HAVING / ORDER BY key refers to. AVG is rejected
// at plan time (`PlanError::UnsupportedAvgPredicate`), so it cannot
// reach execution.
pub(crate) fn agg_column<'a>(
    agg: AggFn,
    base: &'a vagg_core::AggResult,
    mm: &'a Option<(Vec<u32>, Vec<u32>)>,
) -> &'a [u32] {
    match agg {
        AggFn::Count => &base.counts,
        AggFn::Sum => &base.sums,
        AggFn::Min => &mm.as_ref().expect("minmax kernel ran").0,
        AggFn::Max => &mm.as_ref().expect("minmax kernel ran").1,
        AggFn::Avg => unreachable!("AVG predicates are rejected at plan time"),
    }
}

// HAVING: stage the output columns back onto the machine and run the
// same vectorised select/compress kernel the WHERE clause uses, with the
// aggregate column as the predicate source.
fn apply_having(
    m: &mut Machine,
    h: &crate::query::Having,
    base: vagg_core::AggResult,
    mm: Option<(Vec<u32>, Vec<u32>)>,
) -> Columns {
    let n = base.len();
    if n == 0 {
        return (base, mm);
    }
    let pred_col = agg_column(h.agg, &base, &mm).to_vec();

    let stage = |m: &mut Machine, col: &[u32]| {
        let src = m.space_mut().alloc_slice_u32(col);
        let dst = m.space_mut().alloc(4 * col.len() as u64, 64);
        (src, dst)
    };
    let ps = stage(m, &pred_col);
    let gs = stage(m, &base.groups);
    let cs = stage(m, &base.counts);
    let ss = stage(m, &base.sums);
    let mms = mm
        .as_ref()
        .map(|(mins, maxs)| (stage(m, mins), stage(m, maxs)));

    let mut cols = vec![gs, cs, ss];
    if let Some((mins, maxs)) = mms {
        cols.push(mins);
        cols.push(maxs);
    }
    let kept = vector_filter(m, ps.0, n, h.pred, &cols);

    let read = |m: &Machine, (_, dst): (u64, u64)| m.space().read_slice_u32(dst, kept);
    let base = vagg_core::AggResult {
        groups: read(m, cols[0]),
        counts: read(m, cols[1]),
        sums: read(m, cols[2]),
    };
    let mm = (cols.len() == 5).then(|| (read(m, cols[3]), read(m, cols[4])));
    (base, mm)
}

// ORDER BY: a stable vectorised LSD radix sort over (key, row-index)
// pairs; the returned permutation is applied to every output column and
// LIMIT truncates. DESC sorts the complement key so the same ascending
// kernel serves both directions.
fn apply_order_by(
    m: &mut Machine,
    ob: &crate::query::OrderBy,
    base: vagg_core::AggResult,
    mm: Option<(Vec<u32>, Vec<u32>)>,
) -> Columns {
    let n = base.len();
    let keep = ob.limit.unwrap_or(n).min(n);
    let (mut base, mut mm) = (base, mm);
    if n > 1 {
        let mut keys: Vec<u32> = match ob.key {
            OrderKey::Group => base.groups.clone(),
            OrderKey::Agg(a) => agg_column(a, &base, &mm).to_vec(),
        };
        if ob.desc {
            for k in &mut keys {
                *k = u32::MAX - *k;
            }
        }
        let idx: Vec<u32> = (0..n as u32).collect();
        let arrays = vagg_sort::SortArrays::stage(m, &keys, &idx);
        let max_key = keys.iter().copied().max().unwrap_or(0);
        let passes = vagg_sort::radix_sort(m, &arrays, max_key);
        let (_, perm) = arrays.read_result(m, passes);

        let permute = |col: &[u32]| perm.iter().map(|&i| col[i as usize]).collect::<Vec<u32>>();
        base = vagg_core::AggResult {
            groups: permute(&base.groups),
            counts: permute(&base.counts),
            sums: permute(&base.sums),
        };
        mm = mm.map(|(mins, maxs)| (permute(&mins), permute(&maxs)));
    }
    base.groups.truncate(keep);
    base.counts.truncate(keep);
    base.sums.truncate(keep);
    if let Some((mins, maxs)) = &mut mm {
        mins.truncate(keep);
        maxs.truncate(keep);
    }
    (base, mm)
}

// Fuses the grouping columns into one key per row on the machine:
// key = ((g₀·d₁ + g₁)·d₂ + g₂)… where dᵢ is column i's key domain
// (maxᵢ + 1, measured by the vectorised max scan — a planning step
// charged to the query like the §III-A metadata scan). When `forced`
// is supplied the max scans are skipped entirely and the given
// domains are used verbatim — the sharded coordinator's fast path,
// which reuses the exact whole-table domains the planner already
// computed so every shard fuses into the same global key space.
// Returns the fused host column and every column's domain (primary
// first). Domain overflow was already rejected at plan time from the
// same statistics.
fn fuse_group_columns(
    m: &mut Machine,
    cols: &[&[u32]],
    forced: Option<&[u64]>,
) -> (Vec<u32>, Vec<u32>) {
    use vagg_isa::{BinOp, Vreg};
    const VK: Vreg = Vreg(12); // running fused keys
    const VN: Vreg = Vreg(13); // next column's keys

    let n = cols[0].len();
    debug_assert!(cols.iter().all(|c| c.len() == n), "table columns agree");

    // Stage the columns; measure each domain with the machine's
    // vectorised max scan unless plan-time statistics already supply
    // them.
    let mut staged = Vec::with_capacity(cols.len());
    let mut domains: Vec<u64> = Vec::with_capacity(cols.len());
    for (i, col) in cols.iter().enumerate() {
        let addr = m.space_mut().alloc_slice_u32(col);
        staged.push(addr);
        match forced {
            Some(d) => domains.push(d[i]),
            None => {
                let input = StagedInput {
                    g: addr,
                    v: addr,
                    aux_g: addr,
                    aux_v: addr,
                    n,
                    presorted: false,
                };
                let (maxk, _tok) = vector_max_scan(m, &input);
                domains.push(maxk as u64 + 1);
            }
        }
    }
    debug_assert!(
        domains.iter().map(|&d| d as u128).product::<u128>() <= u32::MAX as u128 + 1,
        "overflow rejected at plan time"
    );

    // Fuse chunk by chunk: k = ((c₀·d₁) + c₁)·d₂ + c₂ …
    let fused = m.space_mut().alloc(4 * n as u64, 64);
    let mvl = m.mvl();
    for start in (0..n).step_by(mvl) {
        let vl = (n - start).min(mvl);
        m.set_vl(vl);
        let t = m.s_op(0);
        m.vload_unit(VK, staged[0] + 4 * start as u64, 4, t);
        for (i, &addr) in staged.iter().enumerate().skip(1) {
            m.vbinop_vs(BinOp::Mul, VK, VK, domains[i], None);
            m.vload_unit(VN, addr + 4 * start as u64, 4, t);
            m.vbinop_vv(BinOp::Add, VK, VK, VN, None);
        }
        m.vstore_unit(VK, fused + 4 * start as u64, 4, t);
    }
    let fused_host = m.space().read_slice_u32(fused, n);
    let all = domains.iter().map(|&d| d as u32).collect();
    (fused_host, all)
}

// Splits a fused composite key back into its per-column parts
// (primary part first). `rest_domains` are d₁… in fusion order.
pub(crate) fn decompose_key(key: u32, rest_domains: &[u32]) -> Vec<u32> {
    let mut parts = vec![0u32; rest_domains.len() + 1];
    let mut k = key;
    for (i, &d) in rest_domains.iter().enumerate().rev() {
        parts[i + 1] = k % d;
        k /= d;
    }
    parts[0] = k;
    parts
}

pub(crate) fn assemble_rows(
    query: &AggregateQuery,
    base: &vagg_core::AggResult,
    minmax: Option<(&[u32], &[u32])>,
    rest_domains: &[u32],
) -> Vec<Row> {
    (0..base.len())
        .map(|i| {
            let values = query
                .aggregates
                .iter()
                .map(|agg| match agg {
                    AggFn::Count => base.counts[i] as f64,
                    AggFn::Sum => base.sums[i] as f64,
                    AggFn::Avg => base.sums[i] as f64 / base.counts[i] as f64,
                    AggFn::Min => minmax.expect("minmax kernel ran").0[i] as f64,
                    AggFn::Max => minmax.expect("minmax kernel ran").1[i] as f64,
                })
                .collect();
            Row {
                group: base.groups[i],
                group_parts: decompose_key(base.groups[i], rest_domains),
                values,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::table::Table;

    fn people() -> Table {
        Table::new("r")
            .with_column("g", vec![1, 3, 3, 0, 0, 5, 2, 4])
            .with_column("v", vec![0, 5, 2, 4, 1, 3, 3, 0])
    }

    #[test]
    fn session_reuses_one_machine_across_queries() {
        let t = people();
        let engine = Engine::new();
        let plan = engine.plan(&t, &AggregateQuery::paper("g", "v")).unwrap();

        let mut session = Session::new();
        assert_eq!(session.queries_run(), 0);
        let first = session.run(&plan, None);
        let after_first = session.total_cycles();
        let second = session.run(&plan, None);

        assert_eq!(session.queries_run(), 2);
        assert_eq!(first.rows, second.rows);
        // Per-query cycles are deltas on the shared machine: the session
        // total is exactly the sum of the reports.
        assert_eq!(after_first, first.report.cycles);
        assert_eq!(
            session.total_cycles(),
            first.report.cycles + second.report.cycles
        );
        // Both queries were charged real work on the shared machine
        // (cache state carries over, so the deltas need not be equal).
        assert!(second.report.cycles > 0);
    }

    #[test]
    fn session_reuse_does_not_grow_simulated_memory() {
        // The address space is reclaimed per query: a long-lived session
        // must not accumulate host pages run after run.
        let t = people();
        let plan = Engine::new()
            .plan(&t, &AggregateQuery::paper("g", "v"))
            .unwrap();
        let mut session = Session::new();
        session.run(&plan, None);
        let after_one = session.machine().space().resident_pages();
        for _ in 0..20 {
            session.run(&plan, None);
        }
        assert_eq!(session.machine().space().resident_pages(), after_one);
    }

    #[test]
    fn session_matches_one_shot_execute() {
        let t = people();
        let q = AggregateQuery::paper("g", "v");
        let engine = Engine::new();
        let plan = engine.plan(&t, &q).unwrap();
        let via_execute = Session::with_config(engine.config().clone()).run(&plan, None);
        let via_session = Session::new().run(&plan, None);
        assert_eq!(via_execute.rows, via_session.rows);
        assert_eq!(via_execute.report.cycles, via_session.report.cycles);
        assert_eq!(via_execute.report.algorithm, via_session.report.algorithm);
    }

    #[test]
    fn one_session_serves_different_plans() {
        let t = people();
        let engine = Engine::new();
        let p1 = engine.plan(&t, &AggregateQuery::paper("g", "v")).unwrap();
        let p2 = engine
            .plan(
                &t,
                &AggregateQuery::paper("g", "v")
                    .with_having(AggFn::Count, crate::filter::Predicate::GreaterThan(1)),
            )
            .unwrap();
        let mut session = Session::new();
        let full = session.run(&p1, None);
        let having = session.run(&p2, None);
        assert_eq!(full.rows.len(), 6);
        let groups: Vec<u32> = having.rows.iter().map(|r| r.group).collect();
        assert_eq!(groups, vec![0, 3]);
    }

    #[test]
    fn run_partial_stops_before_the_non_distributive_tail() {
        let t = people();
        let q = AggregateQuery::paper("g", "v")
            .with_having(AggFn::Count, crate::filter::Predicate::GreaterThan(1))
            .with_limit(2);
        let plan = Engine::new().plan(&t, &q).unwrap();
        let mut session = Session::new();
        let pr = session.run_partial(&plan, 0..plan.rows(), None, None);
        // Pre-HAVING: all six groups are present in the partial.
        assert_eq!(pr.partial.len(), 6);
        assert!(pr.key_domains.is_empty());
        assert!(matches!(
            pr.report.steps.last(),
            Some(PlanStep::Aggregate(_))
        ));
        assert!(!pr
            .report
            .steps
            .iter()
            .any(|s| matches!(s, PlanStep::VectorHaving { .. } | PlanStep::Limit(_))));
        assert!(pr.report.cycles > 0);
        assert_eq!(session.queries_run(), 1);
    }

    #[test]
    fn partials_over_a_split_table_merge_to_the_whole_answer() {
        let g = [1u32, 3, 3, 0, 0, 5, 2, 4];
        let v = [0u32, 5, 2, 4, 1, 3, 3, 0];
        let engine = Engine::new();
        let q = AggregateQuery::paper("g", "v");

        let whole = Session::new().run(
            &engine
                .plan(
                    &Table::new("r")
                        .with_column("g", g.to_vec())
                        .with_column("v", v.to_vec()),
                    &q,
                )
                .unwrap(),
            None,
        );

        let half = |lo: usize, hi: usize| {
            let t = Table::new("r")
                .with_column("g", g[lo..hi].to_vec())
                .with_column("v", v[lo..hi].to_vec());
            let plan = engine.plan(&t, &q).unwrap();
            Session::new()
                .run_partial(&plan, 0..plan.rows(), None, None)
                .partial
        };
        let merged = half(0, 4).merge(half(4, 8));
        assert_eq!(merged.len(), whole.rows.len());
        for (i, row) in whole.rows.iter().enumerate() {
            assert_eq!(merged.base.groups[i], row.group);
            assert_eq!(merged.base.counts[i] as f64, row.values[0]);
            assert_eq!(merged.base.sums[i] as f64, row.values[1]);
        }
    }

    #[test]
    fn range_partials_merge_to_the_whole_answer() {
        // Morsels of one plan ≡ the whole partial, at every split.
        let t = people();
        let q = AggregateQuery::paper("g", "v")
            .with_filter("v", crate::filter::Predicate::GreaterThan(0));
        let plan = Engine::new().plan(&t, &q).unwrap();
        let mut session = Session::new();
        let whole = session.run_partial(&plan, 0..plan.rows(), None, None);
        for split in 0..=plan.rows() {
            let left = session.run_partial(&plan, 0..split, None, None);
            let right = session.run_partial(&plan, split..plan.rows(), None, None);
            assert_eq!(
                left.partial.merge(right.partial),
                whole.partial,
                "split at {split}"
            );
        }
        // Range reports charge the range, not the whole plan.
        let half = session.run_partial(&plan, 0..4, None, None);
        assert!(half.report.cycles > 0);
        assert!((half.report.cpt - half.report.cycles as f64 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn composite_range_partials_measure_local_domains() {
        // A composite plan's morsels each measure their own domains;
        // the fused keys decompose back to the same tuples.
        let t = Table::new("r")
            .with_column("a", vec![1, 0, 1, 0, 2, 2])
            .with_column("b", vec![9, 1, 9, 3, 0, 0])
            .with_column("v", vec![1, 2, 3, 4, 5, 6]);
        let q = AggregateQuery::paper("a", "v").with_group_by_also("b");
        let plan = Engine::new().plan(&t, &q).unwrap();
        let mut session = Session::new();
        let lo_half = session.run_partial(&plan, 0..3, None, None);
        let hi_half = session.run_partial(&plan, 3..6, None, None);
        // First half sees b ∈ {9, 1} (domain 10), second b ∈ {3, 0}
        // (domain 4): locally consistent, globally incomparable.
        assert_eq!(lo_half.key_domains, vec![2, 10]);
        assert_eq!(hi_half.key_domains, vec![3, 4]);
        let tuples = |pr: &PartialRun| -> Vec<Vec<u32>> {
            pr.partial
                .base
                .groups
                .iter()
                .map(|&k| decompose_key(k, &pr.key_domains[1..]))
                .collect()
        };
        assert_eq!(tuples(&lo_half), vec![vec![0, 1], vec![1, 9]]);
        assert_eq!(tuples(&hi_half), vec![vec![0, 3], vec![2, 0]]);
    }

    #[test]
    #[should_panic(expected = "escapes the plan")]
    fn out_of_range_morsels_are_rejected() {
        let plan = Engine::new()
            .plan(&people(), &AggregateQuery::paper("g", "v"))
            .unwrap();
        let _ = Session::new().run_partial(&plan, 4..9, None, None);
    }

    #[test]
    fn decompose_key_roundtrips() {
        let rest = [7u32, 13];
        for g0 in 0..4u32 {
            for g1 in 0..7 {
                for g2 in 0..13 {
                    let key = (g0 * 7 + g1) * 13 + g2;
                    assert_eq!(decompose_key(key, &rest), vec![g0, g1, g2]);
                }
            }
        }
        assert_eq!(decompose_key(42, &[]), vec![42]);
    }
}
