//! Equi-joins: hash build/probe on the [`crate::KeyDictionary`], with a
//! §V-D-style adaptive choice of build side and sharded exchange
//! strategy.
//!
//! A two-table `SELECT ... FROM a JOIN b ON a.k = b.k [AND ...]` runs
//! the same pipeline on a single [`crate::Database`] and on a
//! [`crate::ShardedDatabase`] — the single database is the one-partition
//! case:
//!
//! 1. **Resolve.** Each table becomes a `JoinSide` at one cut: its
//!    partitions (one per shard, one for a single database), their
//!    [`TableStats`] merged and their data versions merged.
//! 2. **Plan.** The planner picks a *build side* from those statistics
//!    — fewer rows wins, ties broken by the smaller KMV distinct
//!    estimate of the join key, then by key sortedness — and the
//!    exchange strategy from the partition count.
//! 3. **Build.** Build-side row ranges are morsels; each interns its
//!    key tuples through a shared [`KeyDictionary`] into dense-id
//!    buckets of row ids (`JoinBuildSink`).
//! 4. **Probe.** After the freeze barrier, probe-side morsels stream
//!    through the frozen `JoinIndex`: each row's key tuple is looked up
//!    (no interning — a miss is simply a dropped row) and matched build
//!    rows emit `(probe row, build row)` pairs.
//! 5. **Aggregate.** The pairs gather one *derived table* per probe
//!    partition whose columns are exactly the query's references
//!    (`l.g`, `r.v`, …), and the ordinary single-table engine plans and
//!    executes the GROUP BY/HAVING/ORDER BY/LIMIT tail over it — so
//!    every aggregation algorithm, the morsel executor and the
//!    coordinator tail run unchanged.
//!
//! `execute` owns steps 3–5 up to the derived tables; the caller
//! supplies the morsel runner — the [`crate::Executor`] pool for a
//! sharded database, the calling thread for a single one
//! (`execute_inline`).
//!
//! The sharded exchange picks between two strategies
//! ([`JoinStrategy`]): **broadcast** builds one global index over the
//! (small) build side and every shard probes its own partition against
//! it; **partition** splits the build side into one dictionary per
//! shard by a hash of the join key, and each probe row is routed to
//! the partition its key hashes to — both sides partitioned by join
//! key, no probe row ever visits more than one dictionary. Both
//! strategies produce identical pairs; the choice only moves work.
//!
//! Determinism: build buckets are sorted by row id when the index
//! freezes, probe outcomes are ordered by `(partition, row)` whatever
//! order the morsels completed in, and the aggregation tail is
//! order-insensitive — so single-session, sharded broadcast and sharded
//! partition answers are bit-identical (the differential tests in
//! `tests/join.rs` hold all of them against a nested-loop oracle).

use crate::cancel::CancelToken;
use crate::catalogue::{CatalogueId, SharedCatalogue};
use crate::database::{Database, SqlError};
use crate::delta::TableStats;
use crate::engine::QueryOutput;
use crate::executor::ExecutorConfig;
use crate::keydict::KeyDictionary;
use crate::plan::{PlanError, PlanStep};
use crate::query::AggregateQuery;
use crate::shard::merged_data_version;
use crate::snapshot::Snapshot;
use crate::sql::{parse_template, JoinClause, SqlTemplate};
use crate::table::Table;
use crate::trace::QueryTrace;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How a sharded join moves the build side to the probe side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Single-session execution: one build, one probe, no exchange.
    Local,
    /// The (small) build side is interned into **one** global
    /// dictionary and every shard probes its partition against it.
    Broadcast,
    /// Both sides are partitioned by a hash of the join key: the build
    /// side is split into one dictionary per shard, and each probe row
    /// is routed to the partition its key hashes to.
    Partition,
}

impl fmt::Display for JoinStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinStrategy::Local => write!(f, "local"),
            JoinStrategy::Broadcast => write!(f, "broadcast"),
            JoinStrategy::Partition => write!(f, "partition"),
        }
    }
}

/// One column the query references, resolved against the joined pair.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ColumnRef {
    /// The name as the query spells it (`l.g`, or bare `g` when
    /// unambiguous) — the derived table's column name.
    name: String,
    /// Whether the column lives on the `FROM` (left) table.
    left: bool,
    /// The actual column name on that table.
    column: String,
}

/// A planned equi-join: the adaptive build-side and strategy decision,
/// the resolved column references, and the aggregation the derived
/// table feeds. Produced by the join planner behind
/// [`crate::Database::run_sql`] / [`crate::ShardedDatabase::run_sql`],
/// rendered by [`JoinPlan::explain`], returned typed by
/// [`crate::Database::explain_join_sql`].
#[derive(Debug, Clone)]
pub struct JoinPlan {
    left: String,
    right: String,
    on: Vec<(String, String)>,
    agg: AggregateQuery,
    refs: Vec<ColumnRef>,
    build_right: bool,
    strategy: JoinStrategy,
    steps: Vec<PlanStep>,
    build_rows: usize,
    probe_rows: usize,
    build_distinct: u64,
    build_sorted: bool,
    left_version: u64,
    right_version: u64,
    as_of: Option<String>,
}

impl JoinPlan {
    /// The `FROM` (left) table name.
    pub fn left_table(&self) -> &str {
        &self.left
    }

    /// The joined (right) table name.
    pub fn right_table(&self) -> &str {
        &self.right
    }

    /// The equi-key pairs as `(left column, right column)`.
    pub fn on(&self) -> &[(String, String)] {
        &self.on
    }

    /// The table the hash build runs over (the §V-D-style choice:
    /// fewer rows, ties broken by KMV distinct estimate, then by key
    /// sortedness).
    pub fn build_table(&self) -> &str {
        if self.build_right {
            &self.right
        } else {
            &self.left
        }
    }

    /// The table whose rows stream through the built index.
    pub fn probe_table(&self) -> &str {
        if self.build_right {
            &self.left
        } else {
            &self.right
        }
    }

    /// Whether the joined (right) table was chosen as the build side.
    pub fn build_right(&self) -> bool {
        self.build_right
    }

    /// The sharded exchange strategy the planner picked.
    pub fn strategy(&self) -> JoinStrategy {
        self.strategy
    }

    /// The join steps ([`PlanStep::JoinBuild`], [`PlanStep::JoinProbe`])
    /// in execution order.
    pub fn steps(&self) -> &[PlanStep] {
        &self.steps
    }

    /// Build-side input rows.
    pub fn build_rows(&self) -> usize {
        self.build_rows
    }

    /// Probe-side input rows.
    pub fn probe_rows(&self) -> usize {
        self.probe_rows
    }

    /// The KMV distinct estimate of the build key the decision used.
    pub fn build_distinct(&self) -> u64 {
        self.build_distinct
    }

    /// Whether every build key column is known sorted.
    pub fn build_sorted(&self) -> bool {
        self.build_sorted
    }

    /// The left table's data version the plan was made against.
    pub fn left_data_version(&self) -> u64 {
        self.left_version
    }

    /// The right table's data version the plan was made against.
    pub fn right_data_version(&self) -> u64 {
        self.right_version
    }

    /// Time-travel provenance (`name` or `data_version@N`) when the
    /// plan reads a frozen state, `None` for live plans.
    pub fn as_of(&self) -> Option<&str> {
        self.as_of.as_deref()
    }

    /// The aggregation the derived (joined) table feeds.
    pub fn query(&self) -> &AggregateQuery {
        &self.agg
    }

    /// The planned statement rendered as SQL.
    pub fn sql(&self) -> String {
        let on = self
            .on
            .iter()
            .map(|(l, r)| format!("{}.{l} = {}.{r}", self.left, self.right))
            .collect::<Vec<_>>()
            .join(" AND ");
        self.agg
            .sql(&format!("{} JOIN {} ON {on}", self.left, self.right))
    }

    /// The build (`true`) or probe side's join key columns, in ON
    /// order.
    fn side_keys(&self, build: bool) -> Vec<&str> {
        let right = build == self.build_right;
        self.on
            .iter()
            .map(|(l, r)| if right { r.as_str() } else { l.as_str() })
            .collect()
    }

    /// Renders the join decision in `EXPLAIN` form: the SQL, the
    /// build/probe/strategy header, both tables' data versions, then
    /// the numbered join steps.
    pub fn explain(&self) -> String {
        use fmt::Write as _;
        let mut out = self.sql();
        let _ = write!(
            out,
            "\n  join=hash build={} probe={} strategy={} build_rows={} \
             probe_rows={} build_distinct≈{} build_sorted={}",
            self.build_table(),
            self.probe_table(),
            self.strategy,
            self.build_rows,
            self.probe_rows,
            self.build_distinct,
            self.build_sorted,
        );
        let _ = write!(
            out,
            "\n  left={} data_version={} right={} data_version={}",
            self.left, self.left_version, self.right, self.right_version
        );
        if let Some(label) = &self.as_of {
            let _ = write!(out, " as_of={label}");
        }
        for (i, step) in self.steps.iter().enumerate() {
            let _ = write!(out, "\n  {}. {step}", i + 1);
        }
        out
    }
}

/// The row-count threshold under which a sharded build side is always
/// broadcast (one global dictionary) rather than partitioned.
const BROADCAST_ROWS: usize = 1024;

/// One join input resolved at one cut: the table's partitions in cut
/// order (one for a single database, one per shard), their statistics
/// merged and their data versions merged — everything the planner and
/// the exchange read of a side.
#[derive(Debug)]
pub(crate) struct JoinSide {
    parts: Vec<Table>,
    stats: TableStats,
    version: u64,
}

impl JoinSide {
    /// `table` across every partition of `cut`: the statistics merge
    /// with [`TableStats::merged`] (a single part keeps its own, minus
    /// the zone maps the planner never reads) and the data versions
    /// with the sharded merge rule (a single part keeps its own).
    fn resolve(cut: &[Snapshot], table: &str) -> Result<Self, SqlError> {
        let missing = || SqlError::UnknownTable(table.to_string());
        let parts: Option<Vec<Table>> = cut.iter().map(|s| s.table(table)).collect();
        let stats: Option<Vec<TableStats>> = cut.iter().map(|s| s.table_stats(table)).collect();
        let versions: Option<Vec<u64>> = cut.iter().map(|s| s.data_version(table)).collect();
        Ok(Self {
            parts: parts.ok_or_else(missing)?,
            stats: stats
                .as_deref()
                .and_then(TableStats::merged)
                .ok_or_else(missing)?,
            version: versions.and_then(merged_data_version).ok_or_else(missing)?,
        })
    }

    /// A one-part side over a frozen `AS OF` table, with statistics
    /// seeded from its columns.
    pub(crate) fn frozen(table: Table, version: u64) -> Self {
        Self {
            stats: TableStats::seed(&table),
            parts: vec![table],
            version,
        }
    }

    /// The schema every partition shares.
    fn schema(&self) -> &Table {
        &self.parts[0]
    }
}

/// Resolves both tables of `SELECT agg FROM left JOIN join` at one cut
/// — `cut[i]` is partition `i`'s snapshot and must have been taken from
/// `owners[i]` ([`SqlError::ForeignSnapshot`] otherwise) — and plans
/// the join over them.
pub(crate) fn plan_cut<'a>(
    agg: &AggregateQuery,
    left: &str,
    join: &JoinClause,
    cut: &[Snapshot],
    owners: impl IntoIterator<Item = &'a SharedCatalogue>,
) -> Result<(JoinPlan, JoinSide, JoinSide), SqlError> {
    if !cut
        .iter()
        .zip(owners)
        .all(|(s, c)| s.catalogue().is_same(c))
    {
        return Err(SqlError::ForeignSnapshot);
    }
    let lside = JoinSide::resolve(cut, left)?;
    let rside = JoinSide::resolve(cut, &join.table)?;
    let plan = plan_join(agg, join, left, &lside, &rside, None)?;
    Ok((plan, lside, rside))
}

/// Plans an equi-join: validates the ON columns, resolves every column
/// the query references against the joined pair, picks the build side
/// from the two sides' statistics and the exchange strategy from their
/// partition count — one partition plans [`JoinStrategy::Local`].
pub(crate) fn plan_join(
    agg: &AggregateQuery,
    join: &JoinClause,
    left_name: &str,
    left: &JoinSide,
    right: &JoinSide,
    as_of: Option<String>,
) -> Result<JoinPlan, PlanError> {
    let (left_schema, left_stats) = (left.schema(), &left.stats);
    let (right_schema, right_stats) = (right.schema(), &right.stats);
    let shards = left.parts.len();
    let right_name = join.table.as_str();
    if left_stats.rows() == 0 || right_stats.rows() == 0 {
        return Err(PlanError::EmptyTable);
    }
    for (lc, rc) in &join.on {
        if left_schema.column(lc).is_none() {
            return Err(PlanError::UnknownColumn(format!("{left_name}.{lc}")));
        }
        if right_schema.column(rc).is_none() {
            return Err(PlanError::UnknownColumn(format!("{right_name}.{rc}")));
        }
    }
    // Resolve every column the aggregation references; the derived
    // table's columns carry the reference spellings verbatim.
    let mut refs: Vec<ColumnRef> = Vec::new();
    let mut referenced: Vec<&str> = agg.group_columns();
    referenced.push(&agg.value);
    if let Some((col, _)) = &agg.filter {
        referenced.push(col);
    }
    for name in referenced {
        if refs.iter().any(|r| r.name == name) {
            continue;
        }
        let (left, column) = match name.split_once('.') {
            Some((t, c)) if t == left_name => {
                if left_schema.column(c).is_none() {
                    return Err(PlanError::UnknownColumn(name.to_string()));
                }
                (true, c)
            }
            Some((t, c)) if t == right_name => {
                if right_schema.column(c).is_none() {
                    return Err(PlanError::UnknownColumn(name.to_string()));
                }
                (false, c)
            }
            Some(_) => return Err(PlanError::UnknownColumn(name.to_string())),
            None => match (
                left_schema.column(name).is_some(),
                right_schema.column(name).is_some(),
            ) {
                (true, true) => return Err(PlanError::AmbiguousColumn(name.to_string())),
                (true, false) => (true, name),
                (false, true) => (false, name),
                (false, false) => return Err(PlanError::UnknownColumn(name.to_string())),
            },
        };
        refs.push(ColumnRef {
            name: name.to_string(),
            left,
            column: column.to_string(),
        });
    }
    // §V-D-style build-side choice from live statistics: fewer rows,
    // then a smaller key distinct estimate, then sorted keys; a full
    // tie builds the right side.
    let facts = |stats: &TableStats, right: bool| {
        let mut distinct: u64 = 1;
        let mut sorted = true;
        for (l, r) in &join.on {
            match stats.column(if right { r } else { l }) {
                Some(col) => {
                    distinct = distinct.saturating_mul(col.distinct_estimate().max(1));
                    sorted &= col.sorted;
                }
                None => sorted = false,
            }
        }
        (stats.rows(), distinct.min(stats.rows() as u64), !sorted)
    };
    let (lfacts, rfacts) = (facts(left_stats, false), facts(right_stats, true));
    let build_right = rfacts <= lfacts;
    let ((build_rows, build_distinct, build_unsorted), (probe_rows, ..)) = if build_right {
        (rfacts, lfacts)
    } else {
        (lfacts, rfacts)
    };
    let build_sorted = !build_unsorted;
    let strategy = if shards <= 1 {
        JoinStrategy::Local
    } else if build_rows <= BROADCAST_ROWS.max(probe_rows / shards) {
        JoinStrategy::Broadcast
    } else {
        JoinStrategy::Partition
    };
    let key_names = |side_right: bool| -> Vec<String> {
        join.on
            .iter()
            .map(|(l, r)| if side_right { r.clone() } else { l.clone() })
            .collect()
    };
    let steps = vec![
        PlanStep::JoinBuild {
            table: if build_right { right_name } else { left_name }.to_string(),
            keys: key_names(build_right),
            rows: build_rows,
            distinct: build_distinct,
        },
        PlanStep::JoinProbe {
            table: if build_right { left_name } else { right_name }.to_string(),
            keys: key_names(!build_right),
            rows: probe_rows,
        },
    ];
    Ok(JoinPlan {
        left: left_name.to_string(),
        right: right_name.to_string(),
        on: join.on.clone(),
        agg: agg.clone(),
        refs,
        build_right,
        strategy,
        steps,
        build_rows,
        probe_rows,
        build_distinct,
        build_sorted,
        left_version: left.version,
        right_version: right.version,
        as_of,
    })
}

/// Routes a key tuple to one of `parts` hash partitions (FNV-1a).
fn route(tuple: &[u32], parts: usize) -> usize {
    if parts <= 1 {
        return 0;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &x in tuple {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (h % parts as u64) as usize
}

/// One partition of the hash-join build phase: a shared
/// [`KeyDictionary`] interning key tuples to dense ids, plus dense-id
/// buckets of build row ids. Workers insert concurrently
/// ([`build_range`]); freezing sorts every bucket so the index is
/// deterministic however morsels interleaved.
#[derive(Debug, Default)]
struct JoinBuildSink {
    dict: Arc<KeyDictionary>,
    buckets: Mutex<Vec<Vec<u32>>>,
}

impl JoinBuildSink {
    fn new() -> Self {
        Self::default()
    }

    /// Interns staged `(dense id, build row)` entries under one lock.
    fn push(&self, staged: &[(usize, u32)]) {
        let mut buckets = self.buckets.lock().expect("join bucket lock");
        for &(id, row) in staged {
            if buckets.len() <= id {
                buckets.resize(id + 1, Vec::new());
            }
            buckets[id].push(row);
        }
    }

    /// The frozen, deterministic probe index: every bucket sorted by
    /// build row id (concurrent morsels insert in completion order).
    fn freeze(&self) -> JoinIndex {
        let mut buckets = self.buckets.lock().expect("join bucket lock").clone();
        for bucket in &mut buckets {
            bucket.sort_unstable();
        }
        JoinIndex {
            dict: Arc::clone(&self.dict),
            buckets,
        }
    }
}

/// The frozen build side of a hash join: lookup a probe tuple in the
/// dictionary (no interning), then emit its bucket's build rows.
#[derive(Debug)]
struct JoinIndex {
    dict: Arc<KeyDictionary>,
    buckets: Vec<Vec<u32>>,
}

impl JoinIndex {
    /// Distinct build key tuples interned into this partition.
    fn entries(&self) -> usize {
        self.dict.len()
    }

    /// Intern calls answered by an existing entry (duplicate build
    /// keys).
    fn dict_hits(&self) -> u64 {
        self.dict.hits()
    }
}

/// Interns build rows `lo..hi` of `keys` into `sinks` — one sink
/// broadcasts, several partition by [`route`] of the key tuple.
fn build_range(sinks: &[JoinBuildSink], keys: &[Arc<[u32]>], lo: usize, hi: usize) {
    let mut tuple = vec![0u32; keys.len()];
    let mut staged: Vec<Vec<(usize, u32)>> = vec![Vec::new(); sinks.len()];
    for row in lo..hi {
        for (t, k) in tuple.iter_mut().zip(keys) {
            *t = k[row];
        }
        let part = route(&tuple, sinks.len());
        let id = sinks[part].dict.intern(&tuple) as usize;
        let row = u32::try_from(row).expect("build rows fit the 32-bit row id space");
        staged[part].push((id, row));
    }
    for (sink, staged) in sinks.iter().zip(&staged) {
        if !staged.is_empty() {
            sink.push(staged);
        }
    }
}

/// Probes rows `lo..hi` of `keys` against `indexes` (routing each row
/// by [`route`] when partitioned), returning matched
/// `(probe row, build row)` pairs in probe-row order.
fn probe_range(
    indexes: &[JoinIndex],
    keys: &[Arc<[u32]>],
    lo: usize,
    hi: usize,
) -> Vec<(u32, u32)> {
    let mut tuple = vec![0u32; keys.len()];
    let mut pairs = Vec::new();
    for row in lo..hi {
        for (t, k) in tuple.iter_mut().zip(keys) {
            *t = k[row];
        }
        let index = &indexes[route(&tuple, indexes.len())];
        if let Some(id) = index.dict.lookup(&tuple) {
            if let Some(bucket) = index.buckets.get(id as usize) {
                let row = u32::try_from(row).expect("probe rows fit the 32-bit row id space");
                pairs.extend(bucket.iter().map(|&b| (row, b)));
            }
        }
    }
    pairs
}

/// The columns one join side contributes, by actual column name.
#[derive(Debug)]
struct ColumnSet {
    cols: Vec<(String, Arc<[u32]>)>,
}

impl ColumnSet {
    /// The columns `plan` reads from the build (`true`) or probe side
    /// — its join keys plus every referenced column — over `parts`:
    /// zero-copy shares of a single table, concatenated in partition
    /// order otherwise (the sharded build side's global row id space).
    fn new(plan: &JoinPlan, build: bool, parts: &[Table]) -> Self {
        let mut names = plan.side_keys(build);
        for r in &plan.refs {
            if (r.left != plan.build_right) == build && !names.contains(&r.column.as_str()) {
                names.push(&r.column);
            }
        }
        let column = |name: &str| match parts {
            [one] => one.column_shared(name),
            parts => parts
                .iter()
                .map(|p| p.column(name))
                .collect::<Option<Vec<_>>>()
                .map(|cols| cols.concat().into()),
        };
        Self {
            cols: names
                .into_iter()
                .map(|n| (n.to_string(), column(n).expect("resolved column exists")))
                .collect(),
        }
    }

    /// One column's data by actual column name.
    fn get(&self, name: &str) -> &Arc<[u32]> {
        self.cols
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, d)| d)
            .expect("requested column was collected")
    }

    /// The key columns named by `names`, in order (shared, cheap).
    fn keys(&self, names: &[&str]) -> Vec<Arc<[u32]>> {
        names.iter().map(|&n| Arc::clone(self.get(n))).collect()
    }
}

/// Gathers the matched pairs into the derived table the aggregation
/// runs over: one column per reference, named as the query spells it.
fn derived_table(
    plan: &JoinPlan,
    pairs: &[(u32, u32)],
    probe: &ColumnSet,
    build: &ColumnSet,
) -> Table {
    let mut out = Table::new(format!("{}⋈{}", plan.left, plan.right));
    for r in &plan.refs {
        let on_build = r.left != plan.build_right;
        let src = if on_build {
            build.get(&r.column)
        } else {
            probe.get(&r.column)
        };
        let data: Vec<u32> = pairs
            .iter()
            .map(|&(p, b)| src[if on_build { b } else { p } as usize])
            .collect();
        out = out.with_column(&r.name, data);
    }
    out
}

/// Runs a planned join's exchange over its resolved sides and returns
/// one derived table per probe partition, in partition order:
///
/// 1. **Build**, cooperatively: the build side's partitions (shared
///    zero-copy when there is one, concatenated into one global row id
///    space otherwise) are cut into `morsel_rows`-row morsels that
///    intern into the shared sink(s) — one sink under
///    [`JoinStrategy::Local`] / [`JoinStrategy::Broadcast`], one per
///    probe partition keyed by a hash of the join key under
///    [`JoinStrategy::Partition`].
/// 2. **Freeze**: the barrier turns the sinks into deterministic
///    indexes.
/// 3. **Probe**: each probe partition is cut into morsels streamed
///    through the indexes; the outcomes are put in `(partition, row)`
///    order, so the pairs do not depend on completion order.
///
/// `run` executes one phase's morsels — on a pool or inline — and
/// returns their outcomes in any order, or the error (cancellation)
/// that stopped them. With `trace`, the build/probe host steps, the
/// dictionary counters and the freeze wall time are recorded; the join
/// is host-side work, so it carries no simulated cycles.
pub(crate) fn execute(
    plan: &JoinPlan,
    left: &JoinSide,
    right: &JoinSide,
    morsel_rows: usize,
    trace: Option<&mut QueryTrace>,
    mut run: impl FnMut(Vec<JoinMorsel>) -> Result<Vec<JoinOutcome>, SqlError>,
) -> Result<Vec<Table>, SqlError> {
    let (bside, pside) = if plan.build_right {
        (right, left)
    } else {
        (left, right)
    };
    let morsel_rows = morsel_rows.max(1);
    let ranges = move |rows: usize| {
        (0..rows)
            .step_by(morsel_rows)
            .map(move |lo| (lo, (lo + morsel_rows).min(rows)))
    };

    // Build morsels carry a spreading tag so a pool seeds them across
    // every worker.
    let build = ColumnSet::new(plan, true, &bside.parts);
    let build_rows: usize = bside.parts.iter().map(Table::rows).sum();
    let nsinks = match plan.strategy {
        JoinStrategy::Partition => pside.parts.len(),
        JoinStrategy::Local | JoinStrategy::Broadcast => 1,
    };
    let sinks: Arc<Vec<JoinBuildSink>> =
        Arc::new((0..nsinks).map(|_| JoinBuildSink::new()).collect());
    let keys = Arc::new(build.keys(&plan.side_keys(true)));
    run(ranges(build_rows)
        .enumerate()
        .map(|(tag, (lo, hi))| JoinMorsel {
            shard: tag,
            keys: Arc::clone(&keys),
            lo,
            hi,
            work: JoinWork::Build {
                sinks: Arc::clone(&sinks),
            },
        })
        .collect())?;

    let freeze = Instant::now();
    let indexes: Arc<Vec<JoinIndex>> = Arc::new(sinks.iter().map(JoinBuildSink::freeze).collect());
    let freeze_ns = freeze.elapsed().as_nanos() as u64;

    let probes: Vec<ColumnSet> = pside
        .parts
        .iter()
        .map(|t| ColumnSet::new(plan, false, std::slice::from_ref(t)))
        .collect();
    let mut morsels = Vec::new();
    for (part, (set, table)) in probes.iter().zip(&pside.parts).enumerate() {
        let keys = Arc::new(set.keys(&plan.side_keys(false)));
        morsels.extend(ranges(table.rows()).map(|(lo, hi)| JoinMorsel {
            shard: part,
            keys: Arc::clone(&keys),
            lo,
            hi,
            work: JoinWork::Probe {
                indexes: Arc::clone(&indexes),
            },
        }));
    }
    let mut outcomes = run(morsels)?;
    outcomes.sort_by_key(|o| (o.shard, o.lo));

    if let Some(t) = trace {
        let entries: u64 = indexes.iter().map(|i| i.entries() as u64).sum();
        let probe_rows: u64 = pside.parts.iter().map(|p| p.rows() as u64).sum();
        let pairs: u64 = outcomes.iter().map(|o| o.pairs.len() as u64).sum();
        for step in plan.steps() {
            let (rows_in, rows_out) = match step {
                PlanStep::JoinBuild { .. } => (build_rows as u64, entries),
                PlanStep::JoinProbe { .. } => (probe_rows, pairs),
                _ => continue,
            };
            t.record_host_step(step.to_string(), step.estimated_rows(), rows_in, rows_out);
        }
        t.dict_entries += entries;
        t.dict_hits += indexes.iter().map(JoinIndex::dict_hits).sum::<u64>();
        t.freeze_ns = Some(t.freeze_ns.unwrap_or(0) + freeze_ns);
    }

    Ok(probes
        .iter()
        .enumerate()
        .map(|(part, set)| {
            let pairs: Vec<(u32, u32)> = outcomes
                .iter()
                .filter(|o| o.shard == part)
                .flat_map(|o| o.pairs.iter().copied())
                .collect();
            derived_table(plan, &pairs, set, &build)
        })
        .collect())
}

/// The single-database exchange: [`execute`] with every morsel run on
/// the calling thread at the default morsel size, each admitted through
/// `cancel` when one is given. One partition yields one derived table.
pub(crate) fn execute_inline(
    plan: &JoinPlan,
    left: &JoinSide,
    right: &JoinSide,
    trace: Option<&mut QueryTrace>,
    cancel: Option<&CancelToken>,
) -> Result<Table, SqlError> {
    let run = |morsels: Vec<JoinMorsel>| {
        morsels
            .iter()
            .map(|m| {
                if let Some(token) = cancel {
                    token.admit_morsel().map_err(SqlError::Cancelled)?;
                }
                Ok(m.run(false))
            })
            .collect()
    };
    let morsel_rows = ExecutorConfig::default().morsel_rows;
    let mut derived = execute(plan, left, right, morsel_rows, trace, run)?;
    Ok(derived.pop().expect("one partition, one derived table"))
}

/// What a join morsel does: cooperatively intern a build row range, or
/// stream a probe row range through the frozen indexes.
enum JoinWork {
    /// Intern rows into the shared build sinks.
    Build {
        /// One sink broadcasts; several partition by key hash.
        sinks: Arc<Vec<JoinBuildSink>>,
    },
    /// Probe rows against the frozen indexes.
    Probe {
        /// One index broadcasts; several partition by key hash.
        indexes: Arc<Vec<JoinIndex>>,
    },
}

/// One stealable unit of join work: a row range of one side's key
/// columns (see [`crate::Executor`]).
pub(crate) struct JoinMorsel {
    /// Home shard (probe morsels) or spread tag (build morsels) — the
    /// executor seeds deques by `shard % workers`.
    pub(crate) shard: usize,
    /// The key columns this morsel reads.
    keys: Arc<Vec<Arc<[u32]>>>,
    pub(crate) lo: usize,
    pub(crate) hi: usize,
    work: JoinWork,
}

/// What one join morsel produced.
pub(crate) struct JoinOutcome {
    shard: usize,
    lo: usize,
    /// Matched `(probe row, build row)` pairs (empty for build
    /// morsels).
    pairs: Vec<(u32, u32)>,
    /// Whether a worker stole this morsel from another deque.
    pub(crate) stolen: bool,
}

impl JoinMorsel {
    /// Executes the morsel (on a pool worker, or inline).
    pub(crate) fn run(&self, stolen: bool) -> JoinOutcome {
        let pairs = match &self.work {
            JoinWork::Build { sinks } => {
                build_range(sinks, &self.keys, self.lo, self.hi);
                Vec::new()
            }
            JoinWork::Probe { indexes } => probe_range(indexes, &self.keys, self.lo, self.hi),
        };
        JoinOutcome {
            shard: self.shard,
            lo: self.lo,
            pairs,
            stolen,
        }
    }
}

/// A two-table statement prepared once and executed many times:
/// produced by [`crate::Database::prepare_join`]. The join (build +
/// probe + derived-table gather) is cached keyed on both tables'
/// schema and data versions — re-executing against unchanged tables
/// re-plans only the (cheap) aggregation over the cached derived
/// table; any version drift on either side rebuilds the join
/// (counted by [`PreparedJoin::rejoins`]).
#[derive(Debug)]
pub struct PreparedJoin {
    template: Arc<SqlTemplate>,
    cached: Option<CachedJoin>,
    executions: u64,
    rejoins: u64,
}

/// The cached join materialisation, tagged with the catalogue identity
/// and both tables' versions it was built against.
#[derive(Debug)]
struct CachedJoin {
    catalogue: CatalogueId,
    left: (u64, u64),
    right: (u64, u64),
    plan: JoinPlan,
    derived: Table,
}

impl PreparedJoin {
    /// Parses and eagerly plans a join template (what
    /// [`crate::Database::prepare_join`] calls).
    pub(crate) fn prepare(catalogue: &SharedCatalogue, sql: &str) -> Result<Self, SqlError> {
        let template = Arc::new(parse_template(sql)?);
        if template.join.is_none() {
            return Err(SqlError::JoinStatement);
        }
        let stmt = Self {
            template,
            cached: None,
            executions: 0,
            rejoins: 0,
        };
        // Plan the sentinel query now: prepare-time errors (unknown
        // tables, unresolvable columns) beat first-execution surprises.
        let snap = catalogue.snapshot();
        stmt.plan(catalogue, &snap, &stmt.template.query)?;
        Ok(stmt)
    }

    /// `?` placeholders this statement declares.
    pub fn parameter_count(&self) -> usize {
        self.template.slots.len()
    }

    /// Successful executions so far.
    pub fn executions(&self) -> u64 {
        self.executions
    }

    /// Times execution had to rebuild the join (first execution, a
    /// version drift on either table, or a catalogue change) instead
    /// of reusing the cached derived table.
    pub fn rejoins(&self) -> u64 {
        self.rejoins
    }

    /// Binds `params` and executes on `db`'s session. Reads at the
    /// open read-only transaction's snapshot when one is pinned, else
    /// at a snapshot-of-now — the same two-table consistent cut
    /// [`crate::Database::run_sql`] uses for joins.
    ///
    /// # Errors
    ///
    /// Bind errors ([`PlanError::BindArity`] / [`PlanError::BindType`]
    /// wrapped in [`SqlError::Plan`]), plus the usual join planning
    /// errors when the join must be rebuilt.
    pub fn execute(&mut self, db: &mut Database, params: &[u64]) -> Result<QueryOutput, SqlError> {
        self.execute_with(db, None, params)
    }

    /// Binds `params` and executes **at a pinned snapshot**: both
    /// tables read the snapshot's cut, so the answer reproduces the
    /// pinned state however much ingest landed since.
    ///
    /// # Errors
    ///
    /// As [`PreparedJoin::execute`], plus [`SqlError::ForeignSnapshot`]
    /// if the snapshot was cut from a catalogue other than `db`'s.
    pub fn execute_at(
        &mut self,
        db: &mut Database,
        snap: &Snapshot,
        params: &[u64],
    ) -> Result<QueryOutput, SqlError> {
        self.execute_with(db, Some(snap), params)
    }

    /// The one execution body: binds, refreshes the cached join at
    /// `snap` (else the open read-only transaction's snapshot, else a
    /// snapshot-of-now) and runs the (cheap) aggregation tail over the
    /// cached derived table.
    fn execute_with(
        &mut self,
        db: &mut Database,
        snap: Option<&Snapshot>,
        params: &[u64],
    ) -> Result<QueryOutput, SqlError> {
        if snap.is_some_and(|s| !s.catalogue().is_same(db.catalogue())) {
            return Err(SqlError::ForeignSnapshot);
        }
        let agg = crate::prepared::bind_slots(&self.template, params).map_err(SqlError::Plan)?;
        {
            let owned;
            let snap = match snap.or(db.txn_snapshot()) {
                Some(snap) => snap,
                None => {
                    owned = db.catalogue().snapshot();
                    &owned
                }
            };
            self.refresh(db.catalogue(), snap, &agg)?;
        }
        let cached = self.cached.as_ref().expect("refresh filled the cache");
        let out = db.run_join_tail(&cached.plan.steps, &agg, &cached.derived, None)?;
        self.executions += 1;
        Ok(out)
    }

    /// Reuses the cached join when both tables still sit at the cached
    /// versions under the same catalogue; otherwise re-plans and
    /// re-materialises the join at `snap`'s cut. Binding only patches
    /// comparison constants — column references never change between
    /// binds — so a version-stable cache stays valid across executions.
    fn refresh(
        &mut self,
        catalogue: &SharedCatalogue,
        snap: &Snapshot,
        agg: &AggregateQuery,
    ) -> Result<(), SqlError> {
        let versions = |table: &str| -> Result<(u64, u64), SqlError> {
            match (snap.schema_version(table), snap.data_version(table)) {
                (Some(s), Some(d)) => Ok((s, d)),
                _ => Err(SqlError::UnknownTable(table.to_string())),
            }
        };
        let left = versions(&self.template.table)?;
        let join = self.template.join.as_ref().expect("join template");
        let right = versions(&join.table)?;
        let hit = self
            .cached
            .as_ref()
            .is_some_and(|c| c.catalogue.matches(catalogue) && c.left == left && c.right == right);
        if !hit {
            let (plan, lside, rside) = self.plan(catalogue, snap, agg)?;
            let derived = execute_inline(&plan, &lside, &rside, None, None)?;
            self.cached = Some(CachedJoin {
                catalogue: catalogue.id(),
                left,
                right,
                plan,
                derived,
            });
            self.rejoins += 1;
        }
        Ok(())
    }

    /// Resolves both tables at `snap` and plans the join over them.
    fn plan(
        &self,
        catalogue: &SharedCatalogue,
        snap: &Snapshot,
        agg: &AggregateQuery,
    ) -> Result<(JoinPlan, JoinSide, JoinSide), SqlError> {
        let join = self.template.join.as_ref().expect("join template");
        let cut = std::slice::from_ref(snap);
        plan_cut(agg, &self.template.table, join, cut, [catalogue])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::AggregateQuery;
    use crate::sql::JoinClause;

    fn tables() -> (Table, Table) {
        let l = Table::new("l")
            .with_column("k", vec![1, 2, 3, 1, 9])
            .with_column("v", vec![10, 20, 30, 40, 50]);
        let r = Table::new("r")
            .with_column("k", vec![1, 2, 2])
            .with_column("w", vec![7, 8, 9]);
        (l, r)
    }

    /// `table`'s rows dealt into `parts` contiguous partitions — the
    /// shape a sharded cut resolves to.
    fn side(table: &Table, parts: usize) -> JoinSide {
        let rows = table.rows();
        let parts = (0..parts)
            .map(|p| {
                let (lo, hi) = (p * rows / parts, (p + 1) * rows / parts);
                table
                    .column_names()
                    .iter()
                    .fold(Table::new(table.name()), |part, &name| {
                        let data = table.column(name).unwrap()[lo..hi].to_vec();
                        part.with_column(name, data)
                    })
            })
            .collect();
        JoinSide {
            parts,
            stats: TableStats::seed(table),
            version: 1,
        }
    }

    fn join_clause() -> JoinClause {
        JoinClause {
            table: "r".into(),
            on: vec![("k".into(), "k".into())],
        }
    }

    fn plan(l: &Table, r: &Table, shards: usize) -> JoinPlan {
        let agg = AggregateQuery::paper("l.k", "l.v");
        let (l, r) = (side(l, shards), side(r, shards));
        plan_join(&agg, &join_clause(), "l", &l, &r, None).unwrap()
    }

    /// Runs every morsel on the calling thread, in order.
    fn inline(morsels: Vec<JoinMorsel>) -> Result<Vec<JoinOutcome>, SqlError> {
        Ok(morsels.iter().map(|m| m.run(false)).collect())
    }

    #[test]
    fn build_side_is_the_smaller_table() {
        let (l, r) = tables();
        let p = plan(&l, &r, 1);
        assert!(p.build_right(), "r has fewer rows");
        assert_eq!(p.build_table(), "r");
        assert_eq!(p.probe_table(), "l");
        assert_eq!(p.strategy(), JoinStrategy::Local);
        assert_eq!(p.build_rows(), 3);
        assert_eq!(p.probe_rows(), 5);
        assert_eq!(p.build_distinct(), 2);
    }

    #[test]
    fn local_join_produces_the_nested_loop_pairs() {
        let (l, r) = tables();
        let p = plan(&l, &r, 1);
        // Two-row morsels: the build and the probe both span several.
        let mut derived = execute(&p, &side(&l, 1), &side(&r, 1), 2, None, inline).unwrap();
        assert_eq!(derived.len(), 1, "one partition, one derived table");
        let derived = derived.pop().unwrap();
        // Nested loop: l rows with k ∈ {1, 2} match; k=2 matches two
        // r rows.
        assert_eq!(derived.rows(), 4);
        assert_eq!(derived.column("l.k"), Some(&[1u32, 2, 2, 1][..]));
        assert_eq!(derived.column("l.v"), Some(&[10u32, 20, 20, 40][..]));
    }

    #[test]
    fn partitioned_probe_matches_broadcast() {
        let (l, r) = tables();
        let agg = AggregateQuery::paper("l.k", "r.w");
        let (ls, rs) = (side(&l, 4), side(&r, 4));
        let pairs_for = |strategy: JoinStrategy| {
            let mut p = plan_join(&agg, &join_clause(), "l", &ls, &rs, None).unwrap();
            p.strategy = strategy;
            let derived = execute(&p, &ls, &rs, 1, None, inline).unwrap();
            assert_eq!(derived.len(), 4, "one derived table per probe partition");
            derived
                .iter()
                .flat_map(|t| {
                    let (k, w) = (t.column("l.k").unwrap(), t.column("r.w").unwrap());
                    k.iter().copied().zip(w.iter().copied()).collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(
            pairs_for(JoinStrategy::Broadcast),
            pairs_for(JoinStrategy::Partition)
        );
    }

    #[test]
    fn ambiguous_and_unknown_references_are_typed_errors() {
        let (l, r) = tables();
        let (l, r) = (side(&l, 1), side(&r, 1));
        let err =
            |agg: AggregateQuery| plan_join(&agg, &join_clause(), "l", &l, &r, None).unwrap_err();
        assert_eq!(
            err(AggregateQuery::paper("k", "v")),
            PlanError::AmbiguousColumn("k".into())
        );
        assert_eq!(
            err(AggregateQuery::paper("l.k", "l.nope")),
            PlanError::UnknownColumn("l.nope".into())
        );
        assert_eq!(
            err(AggregateQuery::paper("x.k", "l.v")),
            PlanError::UnknownColumn("x.k".into())
        );
    }

    #[test]
    fn explain_renders_decision_and_steps() {
        let (l, r) = tables();
        let p = plan(&l, &r, 4);
        let text = p.explain();
        assert!(text.contains("join=hash build=r probe=l strategy=broadcast"));
        assert!(text.contains("1. JoinBuild(r[k] rows=3 distinct≈2)"));
        assert!(text.contains("2. JoinProbe(l[k] rows=5)"));
        assert!(text.contains("left=l data_version=1 right=r data_version=1"));
    }
}
