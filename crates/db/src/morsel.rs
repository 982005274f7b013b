//! The morsel coordinator: the one split → run → merge → tail pipeline
//! behind every morselized read.
//!
//! Both databases read through it. A [`crate::ShardedDatabase`] hands
//! it one plan per populated shard and runs the morsels on its
//! [`crate::Executor`] pool; [`crate::Database::run_sql_cancellable`]
//! hands it its single plan and runs the morsels inline on its own
//! session, admitting each one through the [`crate::CancelToken`].
//! Everything between is shared:
//!
//! 1. **forced domains** — composite grouping fuses every morsel's keys
//!    with the elementwise maximum of the populated plans' exact
//!    per-column domains, re-vetted against the 32-bit key space;
//! 2. **split** — every plan is cut into `morsel_rows`-row ranges, and
//!    a range whose zone maps prove the WHERE predicate matches nothing
//!    is pruned before it runs;
//! 3. **merge and tail** — the partials merge, the non-distributive
//!    tail (HAVING, ORDER BY, LIMIT) runs host-side on the merged
//!    output, rows are assembled, and the measured morsel costs are
//!    scheduled onto the configured workers for the report.

use crate::database::SqlError;
use crate::engine::ExecutionReport;
use crate::executor::{virtual_schedule, ExecutorConfig, Morsel, MorselOutcome};
use crate::plan::{PlanError, PlanStep, QueryPlan};
use crate::query::{AggregateQuery, Having, OrderBy, OrderKey};
use crate::session::{agg_column, assemble_rows};
use crate::shard::ShardedOutput;
use crate::trace::{QueryTrace, WorkerRollup};
use std::sync::Arc;
use vagg_core::{AggResult, PartialAggregate};

/// Morsels the split dropped by zone map, and the rows they covered.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Pruned {
    pub(crate) morsels: u64,
    pub(crate) rows: u64,
}

/// Runs one query's populated plans (`None` = an empty partition) as
/// morsels shaped by `config` and returns the merged, finalised output.
///
/// `run` executes the dispatched morsels — on a pool or inline — and
/// sees the pruned counts so it can record them where its front end
/// reports them; it returns every morsel's outcome in any order, or the
/// error (cancellation) that stopped it. `config.workers` and
/// `config.steal` shape the deterministic schedule the makespan in the
/// report comes from.
pub(crate) fn execute(
    query: &AggregateQuery,
    plans: &[Option<Arc<QueryPlan>>],
    config: ExecutorConfig,
    mut trace: Option<&mut QueryTrace>,
    run: impl FnOnce(Vec<Morsel>, Pruned) -> Result<Vec<MorselOutcome>, SqlError>,
) -> Result<ShardedOutput, SqlError> {
    let forced = forced_domains(query, plans)?;
    if let Some(t) = trace.as_deref_mut() {
        // Establish the rollup order and sum each step's estimate
        // across the plans (shards may pick different algorithms;
        // their steps roll up separately by rendering).
        for plan in plans.iter().flatten() {
            t.estimate_plan(plan);
        }
    }
    let (morsels, pruned) = split(plans, config, forced.as_ref(), trace.is_some());
    if let Some(t) = trace.as_deref_mut() {
        t.morsels_dispatched += morsels.len() as u64;
        t.morsels_pruned += pruned.morsels;
        t.rows_pruned += pruned.rows;
    }
    let outcomes = run(morsels, pruned)?;
    Ok(finish(query, plans, &outcomes, forced, config, trace))
}

/// Composite grouping rides the forced-domain fast path: every plan
/// already carries its partition's exact per-column key domains (the
/// planner computed them for the overflow check), and their elementwise
/// max is the domain over the whole partitioned input — exactly what a
/// single session would measure. Forcing those domains into every
/// morsel's fusion puts all partials in one shared fused key space, so
/// they merge directly: no per-morsel max scans, no dictionary, no
/// re-keying. The *global* product must be re-vetted here — each plan
/// only checked its own partition.
fn forced_domains(
    query: &AggregateQuery,
    plans: &[Option<Arc<QueryPlan>>],
) -> Result<Option<Arc<[u64]>>, SqlError> {
    if query.group_by_rest.is_empty() {
        return Ok(None);
    }
    let mut domains: Vec<u64> = Vec::new();
    for plan in plans.iter().flatten() {
        if domains.is_empty() {
            domains = plan.key_domains().to_vec();
        } else {
            for (d, &x) in domains.iter_mut().zip(plan.key_domains()) {
                *d = (*d).max(x);
            }
        }
    }
    let total: u128 = domains.iter().map(|&d| d as u128).product();
    if total > u32::MAX as u128 + 1 {
        return Err(SqlError::Plan(PlanError::CompositeKeyOverflow {
            domain: total.min(u64::MAX as u128) as u64,
        }));
    }
    Ok(Some(domains.into()))
}

/// Splits every plan into `config.morsel_rows`-row morsels, dropping
/// (with `config.prune`) each range whose zone maps prove the WHERE
/// predicate matches nothing — it would contribute exactly what a
/// filter-emptied morsel does, an empty partial.
fn split(
    plans: &[Option<Arc<QueryPlan>>],
    config: ExecutorConfig,
    forced: Option<&Arc<[u64]>>,
    traced: bool,
) -> (Vec<Morsel>, Pruned) {
    let morsel_rows = config.morsel_rows.max(1);
    let mut morsels = Vec::new();
    let mut pruned = Pruned::default();
    for (shard, plan) in plans.iter().enumerate() {
        let Some(plan) = plan else { continue };
        let mut lo = 0;
        while lo < plan.rows() {
            let hi = (lo + morsel_rows).min(plan.rows());
            if config.prune && plan.prunes_range(lo, hi) {
                pruned.morsels += 1;
                pruned.rows += (hi - lo) as u64;
            } else {
                morsels.push(Morsel {
                    shard,
                    plan: Arc::clone(plan),
                    lo,
                    hi,
                    domains: forced.cloned(),
                    traced,
                });
            }
            lo = hi;
        }
    }
    (morsels, pruned)
}

/// Merges the morsel partials, finalises the tail on the merged output,
/// assembles the rows and builds the report.
fn finish(
    query: &AggregateQuery,
    plans: &[Option<Arc<QueryPlan>>],
    outcomes: &[MorselOutcome],
    forced: Option<Arc<[u64]>>,
    config: ExecutorConfig,
    mut trace: Option<&mut QueryTrace>,
) -> ShardedOutput {
    // Worker accounting: the measured morsel costs are scheduled onto W
    // virtual workers deterministically (host threads race wall time,
    // which says nothing about simulated cycles — see
    // `virtual_schedule`); the busiest worker's total is the parallel
    // makespan.
    let sched = virtual_schedule(outcomes, config.workers, config.steal);

    if let Some(t) = trace.as_deref_mut() {
        let mut spans: Vec<_> = outcomes.iter().filter_map(|o| o.trace.clone()).collect();
        // Completion order is racy; the trace keeps (shard, lo).
        spans.sort_by_key(|s| (s.shard, s.lo));
        for span in &spans {
            t.record_steps(&span.steps);
            t.queue_wait_ns += span.queue_wait_ns;
        }
        t.morsels.extend(spans);
        t.workers = (0..sched.loads.len())
            .map(|w| WorkerRollup {
                worker: w,
                cycles: sched.loads[w],
                morsels: sched.morsels[w],
                steals: sched.stolen[w],
            })
            .collect();
        t.steals = sched.steals;
    }
    let (worker_loads, steals) = (sched.loads, sched.steals);

    let partial_groups: u64 = outcomes
        .iter()
        .map(|o| o.run.partial.base.groups.len() as u64)
        .sum();
    let merged = PartialAggregate::merge_all(outcomes.iter().map(|o| o.run.partial.clone()))
        .unwrap_or_else(|| PartialAggregate::empty(query.needs_minmax()));
    // With forced domains every partial is keyed in the same global
    // fused space and the merge-join above already produced the
    // single-session answer, sorted by fused key — only the
    // decomposition radices remain to recover the column parts.
    let rest_domains: Vec<u32> = forced
        .as_ref()
        .map_or_else(Vec::new, |d| d[1..].iter().map(|&d| d as u32).collect());
    let (mut base, mut mm) = (merged.base, merged.minmax);
    // The coordinator tail's host steps slot into the trace between the
    // distributive steps and the finalisers, mirroring when they
    // actually ran.
    if let Some(t) = trace.as_deref_mut() {
        let finaliser = find_plan_step(plans, |s| {
            matches!(
                s,
                PlanStep::VectorHaving { .. } | PlanStep::VectorOrderBy { .. } | PlanStep::Limit(_)
            )
        });
        t.record_host_step_before(
            finaliser.as_deref(),
            "MergePartials".to_string(),
            None,
            partial_groups,
            base.groups.len() as u64,
        );
    }
    if let Some(h) = &query.having {
        let before = base.groups.len() as u64;
        host_having(h, &mut base, &mut mm);
        if let Some(t) = trace.as_deref_mut() {
            if let Some(step) =
                find_plan_step(plans, |s| matches!(s, PlanStep::VectorHaving { .. }))
            {
                t.record_host_step(step, None, before, base.groups.len() as u64);
            }
        }
    }
    if let Some(ob) = &query.order_by {
        let before = base.groups.len() as u64;
        host_order_by(ob, &mut base, &mut mm);
        if let Some(t) = trace.as_deref_mut() {
            if let Some(step) =
                find_plan_step(plans, |s| matches!(s, PlanStep::VectorOrderBy { .. }))
            {
                t.record_host_step(step, None, before, before);
            }
            if let Some(step) = find_plan_step(plans, |s| matches!(s, PlanStep::Limit(_))) {
                t.record_host_step(step, None, before, base.groups.len() as u64);
            }
        }
    }
    let rows = assemble_rows(
        query,
        &base,
        mm.as_ref().map(|(a, b)| (&a[..], &b[..])),
        &rest_domains,
    );

    // Per-plan reports: one partition's work summed over its morsels,
    // wherever they ran.
    let mut shard_reports = Vec::new();
    for (s, plan) in plans.iter().enumerate() {
        let Some(plan) = plan else { continue };
        let mine: Vec<&MorselOutcome> = outcomes.iter().filter(|o| o.shard == s).collect();
        let cycles: u64 = mine.iter().map(|o| o.run.report.cycles).sum();
        let rows_aggregated: usize = mine.iter().map(|o| o.run.report.rows_aggregated).sum();
        let aggregated = mine
            .iter()
            .find(|o| o.run.report.algorithm.is_some())
            .or(mine.first());
        shard_reports.push(ExecutionReport {
            algorithm: aggregated.and_then(|o| o.run.report.algorithm),
            rows_aggregated,
            cycles,
            cpt: if plan.rows() == 0 {
                0.0
            } else {
                cycles as f64 / plan.rows() as f64
            },
            steps: aggregated
                .map(|o| o.run.report.steps.clone())
                .unwrap_or_default(),
        });
    }
    let aggregated = shard_reports
        .iter()
        .find(|r| r.algorithm.is_some())
        .or(shard_reports.first());
    let cycles = worker_loads.iter().copied().max().unwrap_or(0);
    let total_rows: usize = shard_reports.iter().map(|r| r.rows_aggregated).sum();
    // `cpt` keeps the field's contract — cycles per *input* tuple —
    // with the makespan as the cycle count: the parallel cost of pushing
    // the whole table through.
    let input_rows: usize = plans.iter().flatten().map(|p| p.rows()).sum();
    let report = ExecutionReport {
        algorithm: aggregated.and_then(|r| r.algorithm),
        rows_aggregated: total_rows,
        cycles,
        cpt: if input_rows == 0 {
            0.0
        } else {
            cycles as f64 / input_rows as f64
        },
        steps: aggregated.map(|r| r.steps.clone()).unwrap_or_default(),
    };
    if let Some(t) = trace {
        t.cycles = report.cycles;
        t.rows = rows.len() as u64;
    }
    ShardedOutput {
        rows,
        report,
        shard_reports,
        worker_loads,
        steals,
        trace: None,
    }
}

/// The rendered form of the first plan step matching `pred` across the
/// plans — the rollup key the coordinator's host-side finalisers record
/// their actuals under (every plan carries the same tail).
fn find_plan_step(
    plans: &[Option<Arc<QueryPlan>>],
    pred: impl Fn(&PlanStep) -> bool,
) -> Option<String> {
    plans
        .iter()
        .flatten()
        .find_map(|p| p.steps().iter().find(|s| pred(s)).map(ToString::to_string))
}

// Coordinator-side HAVING over the merged (small) output table: the
// same semantics as the session's vectorised kernel, applied host-side
// because the merged table lives on the coordinator host.
fn host_having(h: &Having, base: &mut AggResult, mm: &mut Option<(Vec<u32>, Vec<u32>)>) {
    let pred_col = agg_column(h.agg, base, mm).to_vec();
    let keep: Vec<bool> = pred_col.iter().map(|&x| h.pred.matches(x)).collect();
    let filter = |col: &mut Vec<u32>| {
        let mut it = keep.iter();
        col.retain(|_| *it.next().expect("keep mask covers every row"));
    };
    filter(&mut base.groups);
    filter(&mut base.counts);
    filter(&mut base.sums);
    if let Some((mins, maxs)) = mm {
        filter(mins);
        filter(maxs);
    }
}

// Coordinator-side ORDER BY + LIMIT: a stable sort on the same key the
// session's radix kernel would use (complement for DESC), then truncate.
fn host_order_by(ob: &OrderBy, base: &mut AggResult, mm: &mut Option<(Vec<u32>, Vec<u32>)>) {
    let n = base.len();
    let keys: Vec<u32> = match ob.key {
        OrderKey::Group => base.groups.clone(),
        OrderKey::Agg(a) => agg_column(a, base, mm).to_vec(),
    };
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by_key(|&i| if ob.desc { u32::MAX - keys[i] } else { keys[i] });
    let keep = ob.limit.unwrap_or(n).min(n);
    let permute = |col: &mut Vec<u32>| {
        let reordered: Vec<u32> = idx.iter().take(keep).map(|&i| col[i]).collect();
        *col = reordered;
    };
    permute(&mut base.groups);
    permute(&mut base.counts);
    permute(&mut base.sums);
    if let Some((mins, maxs)) = mm {
        permute(mins);
        permute(maxs);
    }
}
