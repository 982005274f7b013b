//! Criterion bench for the serving layer: what plan caching, prepared
//! statements and sharding buy under repeated query traffic.
//!
//! Three planning regimes over the same query shape —
//!
//! * `cold-plan`: plan from scratch every query (the pre-cache world);
//! * `cached-plan`: SQL through the [`vagg_db::PlanCache`] (parse +
//!   shape lookup + constant rebind);
//! * `prepared`: [`vagg_db::PreparedStatement`] execution (bind only —
//!   no parse, no statistics pass) —
//!
//! and a `sessions` sweep running the merged sharded aggregate on
//! 1/2/4/8 concurrent shard sessions (host wall time; the simulated
//! makespan is reported by `ShardedOutput::report.cycles`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;
use vagg_db::{AggregateQuery, Database, Engine, Predicate, Session, ShardedDatabase, Table};

const ROWS: usize = 16_384;
const CARD: u32 = 256;

fn events() -> Table {
    Table::new("events")
        .with_column("g", (0..ROWS).map(|i| ((i * 7919) as u32) % CARD).collect())
        .with_column("v", (0..ROWS).map(|i| ((i * 31) as u32) % 100).collect())
}

const SQL: &str = "SELECT g, COUNT(*), SUM(v) FROM events WHERE v > 10 GROUP BY g";

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("serving");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    g.sample_size(10);

    let table = events();

    // Cold plan: the statistics pass reruns on every query.
    {
        let engine = Engine::new();
        let mut session = Session::new();
        let query = AggregateQuery::paper("g", "v").with_filter("v", Predicate::GreaterThan(10));
        g.bench_function("cold-plan", |b| {
            b.iter(|| {
                let plan = engine.plan(&table, &query).expect("plans");
                black_box(session.run(&plan, None).rows.len())
            })
        });
    }

    // Cached plan: SQL in, shape lookup + rebind, no statistics pass.
    {
        let mut db = Database::new();
        db.register(table.clone());
        g.bench_function("cached-plan", |b| {
            b.iter(|| black_box(db.execute_sql(SQL).expect("executes").rows.len()))
        });
    }

    // Prepared: bind two integers into the plan and go.
    {
        let mut db = Database::new();
        db.register(table.clone());
        let mut stmt = db
            .prepare("SELECT g, COUNT(*), SUM(v) FROM events WHERE v > ? GROUP BY g")
            .expect("prepares");
        g.bench_function("prepared", |b| {
            b.iter(|| black_box(stmt.execute(&mut db, &[10]).expect("executes").rows.len()))
        });
    }

    // Sharded sessions: same total rows, 1/2/4/8 partitions in
    // parallel threads, partials merged on the coordinator.
    for sessions in [1usize, 2, 4, 8] {
        let mut db = ShardedDatabase::new(sessions);
        db.register(table.clone());
        g.bench_with_input(BenchmarkId::new("sessions", sessions), &sessions, |b, _| {
            b.iter(|| black_box(db.run_sql(SQL).expect("executes").rows.len()))
        });
    }

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
