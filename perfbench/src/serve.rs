//! `serve-read`: a read-only query mix over loopback TCP against
//! `vagg-server` — server, protocol, parser, plan cache (hit-heavy) and
//! the server's two single-session paths: morselized
//! `run_sql_cancellable` for `Query`, `PreparedStatement::execute` for
//! `Execute`. The sharded executor and the WAL are not on this path.
//!
//! Traffic: an open loop at [`OFFERED_QPS`] (each request timed from
//! when it was due), then a closed loop. Both use `threads` connections.

use crate::report::SERVE_SHAPES;
use crate::stats::{geomean, median, percentile, Clock, Ops, Results};
use crate::trace::Tracer;
use crate::Config;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use vagg_datagen::rng::Xoshiro256StarStar;
use vagg_db::{
    parse_statement, CancelToken, Database, QueryOutput, SharedCatalogue, SqlOutcome, Table,
};
use vagg_server::protocol::{read_frame, write_frame};
use vagg_server::{
    serve, Client, ErrorCode, Request, Response, ServerConfig, ServerHandle, WireRow,
    PROTOCOL_VERSION,
};

/// Offered rate of the open loop: 0.3–0.4 of the closed-loop peak this
/// mix reached on the seed commit on a 2-core host (150–260 requests/s
/// as the host's speed drifted); at half the peak, queueing made the p99
/// swing by 40% between runs. A constant, so two commits are offered the
/// same load.
pub const OFFERED_QPS: f64 = 60.0;
/// The tail reported as an end-to-end metric. p99 moves with the host's
/// speed by a third between runs (queueing amplifies every slowdown);
/// p95, mid-way through the highcard band, holds steadier. p99 is still
/// reported, as `serve_p99_ms`, and held to the limit.
const TAIL_PCT: f64 = 95.0;
/// The p99 latency limit of the open loop. A failed or refused request
/// counts as missing it.
pub const P99_LIMIT_MS: f64 = 100.0;
/// The blocking-path check: parse + plan + library execute + wire must
/// sum to the measured request time within this share.
pub const BLOCKING_TOLERANCE_PCT: f64 = 20.0;

const EVENTS_ROWS: usize = 8_192;
const LOG_ROWS: usize = 65_536;
const DIM_ROWS: usize = 512;
const HC_ROWS: usize = 2_048;
const HC_DOMAIN: u64 = 32_768;
/// Seeded literals per shape: repeated shapes keep the plan cache
/// hit-heavy while results still differ per request.
const LITERALS: usize = 8;
const SETUP_REPS: usize = 5;
/// Cold starts timed after the breakdown.
const COLD_STARTS: usize = 8;
/// Requests replayed one at a time, wire then library, for the traced
/// blocking-path breakdown.
const BREAKDOWN_REQUESTS: usize = 200;
/// The run is cut into segments, each an open-loop stretch and a
/// closed-loop stretch, so both loops sample the whole run rather than
/// one stretch of it (the host's speed drifts over seconds).
const SEGMENTS: usize = 3;
/// Share of each segment spent in the open loop; the rest is the closed
/// loop.
const OPEN_SHARE: f64 = 0.75;

const PREPARED_SQL: &str = "SELECT g, COUNT(*), SUM(v) FROM events WHERE v > ? GROUP BY g";

struct Shape {
    name: &'static str,
    /// Requests per 100. Sorted by cost the cumulative weights are
    /// range 20 | join 10 | prepared 35 | composite 15 | groupby 10 |
    /// highcard 10: p50 falls mid-way through the prepared band and p95
    /// mid-way through the highcard band, away from any boundary between
    /// a cheap shape and an expensive one.
    weight: usize,
    /// `{}` is replaced by the literal.
    sql: &'static str,
    input_rows: usize,
    literal: fn(&mut Xoshiro256StarStar) -> u64,
}

fn where_v(rng: &mut Xoshiro256StarStar) -> u64 {
    50 + rng.next_below(250)
}

/// `t > L` keeps the last 60–71 of 65,536 rows: ~0.1%.
fn recent_t(rng: &mut Xoshiro256StarStar) -> u64 {
    (LOG_ROWS as u64 - 1) - (60 + rng.next_below(12))
}

const SHAPES: [Shape; 6] = [
    Shape {
        name: "groupby",
        weight: 10,
        sql: "SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v) FROM events WHERE v > {} GROUP BY g",
        input_rows: EVENTS_ROWS,
        literal: where_v,
    },
    Shape {
        name: "range",
        weight: 20,
        sql: "SELECT g, COUNT(*), SUM(v) FROM log WHERE t > {} GROUP BY g",
        input_rows: LOG_ROWS,
        literal: recent_t,
    },
    Shape {
        name: "composite",
        weight: 15,
        sql: "SELECT a, b, COUNT(*), SUM(v) FROM events WHERE v > {} GROUP BY a, b",
        input_rows: EVENTS_ROWS,
        literal: where_v,
    },
    Shape {
        name: "join",
        weight: 10,
        sql: "SELECT p, COUNT(*), SUM(v) FROM events JOIN dim ON events.g = dim.k WHERE v > {} GROUP BY p",
        input_rows: EVENTS_ROWS,
        literal: where_v,
    },
    Shape {
        name: "prepared",
        weight: 35,
        sql: "SELECT g, COUNT(*), SUM(v) FROM events WHERE v > {} GROUP BY g",
        input_rows: EVENTS_ROWS,
        literal: where_v,
    },
    Shape {
        name: "highcard",
        weight: 10,
        sql: "SELECT h, COUNT(*), SUM(v) FROM hc WHERE v > {} GROUP BY h",
        input_rows: HC_ROWS,
        literal: where_v,
    },
];
const PREPARED: usize = 4;

fn tables(rng: &mut Xoshiro256StarStar) -> Vec<Table> {
    let mut col = |n: usize, bound: u64| -> Vec<u32> {
        (0..n).map(|_| rng.next_below(bound) as u32).collect()
    };
    let events = Table::new("events")
        .with_column("g", col(EVENTS_ROWS, 512))
        .with_column("v", col(EVENTS_ROWS, 1000))
        .with_column("a", col(EVENTS_ROWS, 16))
        .with_column("b", col(EVENTS_ROWS, 32));
    let log = Table::new("log")
        .with_column("t", (0..LOG_ROWS as u32).collect())
        .with_column("g", col(LOG_ROWS, 64))
        .with_column("v", col(LOG_ROWS, 1000));
    let dim = Table::new("dim")
        .with_column("k", (0..DIM_ROWS as u32).collect())
        .with_column("p", col(DIM_ROWS, 8));
    let hc = Table::new("hc")
        .with_column("h", col(HC_ROWS, HC_DOMAIN))
        .with_column("v", col(HC_ROWS, 1000));
    vec![events, log, dim, hc]
}

fn wire_rows(out: QueryOutput) -> Vec<WireRow> {
    out.rows
        .into_iter()
        .map(|r| WireRow {
            group: r.group,
            group_parts: r.group_parts,
            values: r.values,
        })
        .collect()
}

/// The seeded inputs and the answers every request is checked against,
/// computed once on a library session.
struct Fixture {
    tables: Vec<Table>,
    catalogue: SharedCatalogue,
    literals: Vec<Vec<u64>>,
    sql: Vec<Vec<String>>,
    expect: Vec<Vec<Vec<WireRow>>>,
    /// Simulated cycles of every `[shape][literal]` on the set-up
    /// session (deterministic: fixed order on a fresh session).
    cycles: Vec<Vec<u64>>,
    /// Plan time of each shape's first (cache-miss) plan, µs.
    plan_miss_us: Vec<f64>,
    /// `(shape, literal)` per request: shuffled blocks of 100 with the
    /// shape weights.
    requests: Vec<(usize, usize)>,
}

/// Runs one request on a library session: the same call the server
/// makes for it.
fn library_run(
    db: &mut Database,
    prepared: &mut vagg_db::PreparedStatement,
    fx: &Fixture,
    s: usize,
    l: usize,
) -> Result<QueryOutput, String> {
    if s == PREPARED {
        prepared
            .execute(db, &[fx.literals[s][l]])
            .map_err(|e| e.to_string())
    } else {
        match db.run_sql_cancellable(&fx.sql[s][l], &CancelToken::new()) {
            Ok(SqlOutcome::Rows(out)) => Ok(out),
            Ok(other) => Err(format!("expected rows, got {other:?}")),
            Err(e) => Err(e.to_string()),
        }
    }
}

impl Fixture {
    fn build(seed: u64) -> Result<Self, String> {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed ^ 0x5E4E_5EAD);
        let tables = tables(&mut rng);
        let catalogue = SharedCatalogue::new();
        for t in &tables {
            catalogue.register(t.clone());
        }
        let literals: Vec<Vec<u64>> = SHAPES
            .iter()
            .map(|s| (0..LITERALS).map(|_| (s.literal)(&mut rng)).collect())
            .collect();
        let sql: Vec<Vec<String>> = SHAPES
            .iter()
            .zip(&literals)
            .map(|(s, lits)| {
                lits.iter()
                    .map(|l| s.sql.replace("{}", &l.to_string()))
                    .collect()
            })
            .collect();
        let mut block: Vec<usize> = SHAPES
            .iter()
            .enumerate()
            .flat_map(|(i, s)| vec![i; s.weight])
            .collect();
        assert_eq!(block.len(), 100, "shape weights are per 100 requests");
        let mut requests = Vec::with_capacity(100 * 100);
        for _ in 0..100 {
            for i in (1..block.len()).rev() {
                block.swap(i, rng.next_below(i as u64 + 1) as usize);
            }
            requests.extend(
                block
                    .iter()
                    .map(|&s| (s, rng.next_below(LITERALS as u64) as usize)),
            );
        }

        let mut fx = Self {
            tables,
            catalogue,
            literals,
            sql,
            expect: Vec::new(),
            cycles: Vec::new(),
            plan_miss_us: Vec::new(),
            requests,
        };
        let mut db = fx.catalogue.connect();
        let mut prepared = db.prepare(PREPARED_SQL).map_err(|e| e.to_string())?;
        for s in 0..SHAPES.len() {
            let t = Instant::now();
            parse_statement(&fx.sql[s][0]).map_err(|e| e.to_string())?;
            let parse = t.elapsed();
            let t = Instant::now();
            db.explain_sql(&fx.sql[s][0]).map_err(|e| e.to_string())?;
            fx.plan_miss_us
                .push((t.elapsed().saturating_sub(parse)).as_secs_f64() * 1e6);
            let (mut answers, mut cycles) = (Vec::new(), Vec::new());
            for l in 0..LITERALS {
                let out = library_run(&mut db, &mut prepared, &fx, s, l)?;
                cycles.push(out.report.cycles);
                answers.push(wire_rows(out));
            }
            fx.expect.push(answers);
            fx.cycles.push(cycles);
        }
        Ok(fx)
    }

    fn request(&self, s: usize, l: usize, id: u64, statement: u32) -> Request {
        if s == PREPARED {
            Request::Execute {
                query_id: id,
                statement,
                params: vec![self.literals[s][l]],
            }
        } else {
            Request::Query {
                query_id: id,
                sql: self.sql[s][l].clone(),
            }
        }
    }
}

/// One connection framed by hand with the public protocol calls, so
/// encode, wire and decode can each sit in a span.
struct Conn {
    stream: TcpStream,
    /// This connection's id for [`PREPARED_SQL`].
    statement: u32,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut conn = Self {
            stream,
            statement: 0,
        };
        let mut off = Tracer::new(false, Instant::now(), 0);
        match conn.call(
            &mut off,
            &Request::Hello {
                version: PROTOCOL_VERSION,
            },
            0,
        )? {
            Response::HelloOk { .. } => {}
            other => return Err(format!("handshake: {other:?}")),
        }
        match conn.call(
            &mut off,
            &Request::Prepare {
                sql: PREPARED_SQL.into(),
            },
            0,
        )? {
            Response::Prepared { statement } => conn.statement = statement,
            other => return Err(format!("prepare: {other:?}")),
        }
        Ok(conn)
    }

    fn call(&mut self, tr: &mut Tracer, req: &Request, id: u64) -> Result<Response, String> {
        let bytes = tr.span("protocol.encode_request", id, || req.encode());
        let payload = tr.span("server.wire", id, || {
            write_frame(&mut self.stream, &bytes)?;
            read_frame(&mut self.stream)
        });
        let payload = payload
            .map_err(|e| e.to_string())?
            .ok_or_else(|| "server closed the connection".to_string())?;
        tr.span("protocol.decode_response", id, || {
            Response::decode(&payload)
        })
        .map_err(|e| e.to_string())
    }
}

fn verdict(
    fx: &Fixture,
    s: usize,
    l: usize,
    resp: &Result<Response, String>,
) -> Result<(), String> {
    match resp {
        Ok(Response::Rows(rows)) if *rows == fx.expect[s][l] => Ok(()),
        Ok(Response::Rows(rows)) => Err(format!(
            "{}: {} wire rows differ from the library's {}",
            fx.sql[s][l],
            rows.len(),
            fx.expect[s][l].len()
        )),
        Ok(other) => Err(format!("{}: {other:?}", fx.sql[s][l])),
        Err(e) => Err(format!("{}: {e}", fx.sql[s][l])),
    }
}

fn refused(resp: &Result<Response, String>) -> bool {
    matches!(
        resp,
        Ok(Response::Error {
            code: ErrorCode::Overloaded,
            ..
        })
    )
}

/// A running server with its connections, set up and warmed.
struct Stand {
    fx: Fixture,
    server: ServerHandle,
    conns: Vec<Conn>,
}

impl Stand {
    fn up(seed: u64, threads: usize, ops: &mut Ops) -> Result<Self, String> {
        let fx = Fixture::build(seed)?;
        let server = serve(
            fx.catalogue.clone(),
            ServerConfig {
                max_inflight: threads,
                ..ServerConfig::default()
            },
        )
        .map_err(|e| format!("bind loopback: {e}"))?;
        let mut conns = Vec::new();
        for _ in 0..threads {
            conns.push(Conn::open(server.addr())?);
        }
        // Warm every connection's session on every shape.
        let mut off = Tracer::new(false, Instant::now(), 0);
        for conn in &mut conns {
            for s in 0..SHAPES.len() {
                let req = fx.request(s, 0, 0, conn.statement);
                let resp = conn.call(&mut off, &req, 0);
                let v = verdict(&fx, s, 0, &resp);
                ops.check(v.is_ok(), || v.unwrap_err());
            }
        }
        Ok(Self { fx, server, conns })
    }

    fn down(self) {
        drop(self.conns);
        self.server.shutdown();
    }
}

/// What one load phase measured.
#[derive(Default)]
struct Phase {
    /// Latency per request, ms (open loop: from when it was due);
    /// failed requests are `+inf`.
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    completed: usize,
    refused: u64,
    /// Per stretch of load: start, last completion, and how many of
    /// `latency_ms` it took.
    stretches: Vec<(Instant, Instant, usize)>,
}

impl Phase {
    fn absorb(&mut self, other: Phase) {
        self.latency_ms.extend(other.latency_ms);
        self.late_ms.extend(other.late_ms);
        self.completed += other.completed;
        self.refused += other.refused;
        self.stretches.extend(other.stretches);
    }

    /// Completions per second of load time.
    fn qps(&self) -> f64 {
        let secs: f64 = self
            .stretches
            .iter()
            .map(|&(s, e, _)| (e - s).as_secs_f64())
            .sum();
        self.completed as f64 / secs
    }
}

/// A cold start: from tables in host memory to the first correct answer
/// over the wire through a fresh catalogue, server and [`Client`].
/// Returns ms.
fn cold_start(fx: &Fixture, ops: &mut Ops) -> Result<f64, String> {
    let t = Instant::now();
    let catalogue = SharedCatalogue::new();
    for table in &fx.tables {
        catalogue.register(table.clone());
    }
    let server = serve(catalogue, ServerConfig::default()).map_err(|e| e.to_string())?;
    let mut client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
    let rows = client.query(&fx.sql[0][0]);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let ok = matches!(&rows, Ok(rows) if *rows == fx.expect[0][0]);
    ops.check(ok, || format!("cold start: {}: {rows:?}", fx.sql[0][0]));
    drop(client);
    server.shutdown();
    Ok(ms)
}

/// Drives every connection from its own thread. `rate = Some(q)` is an
/// open loop at `q` requests/s; `None` a closed loop. Requests are
/// numbered from `first_id`, continuing through the seeded list.
fn drive(
    stand: &mut Stand,
    rate: Option<f64>,
    dur: Duration,
    first_id: u64,
    ops: &mut Ops,
    tracer: &mut Tracer,
) -> Phase {
    let next = AtomicUsize::new(0);
    let fx = &stand.fx;
    let start = Instant::now() + Duration::from_millis(5);
    let end = start + dur;
    let results: Vec<(Phase, Ops, Tracer, Instant)> = std::thread::scope(|scope| {
        let tracer = &*tracer;
        let handles: Vec<_> = stand
            .conns
            .iter_mut()
            .enumerate()
            .map(|(t, conn)| {
                let next = &next;
                scope.spawn(move || {
                    let mut tr = tracer.for_thread(t as u32 + 1);
                    let mut phase = Phase::default();
                    let mut ops = Ops::default();
                    let mut last = start;
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let due = match rate {
                            Some(q) => start + Duration::from_secs_f64(k as f64 / q),
                            None => Instant::now().max(start),
                        };
                        if due >= end {
                            break;
                        }
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        phase.late_ms.push((sent - due).as_secs_f64() * 1e3);
                        let id = first_id + k as u64;
                        let (s, l) = fx.requests[id as usize % fx.requests.len()];
                        let req = fx.request(s, l, id, conn.statement);
                        let open = tr.begin("serve.request", id);
                        let resp = conn.call(&mut tr, &req, id);
                        tr.end(open);
                        let done = Instant::now();
                        last = done;
                        let v = verdict(fx, s, l, &resp);
                        phase.refused += refused(&resp) as u64;
                        phase.latency_ms.push(if v.is_ok() {
                            (done - due).as_secs_f64() * 1e3
                        } else {
                            f64::INFINITY
                        });
                        phase.completed += v.is_ok() as usize;
                        ops.check(v.is_ok(), || v.unwrap_err());
                    }
                    (phase, ops, tr, last)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut out = Phase::default();
    let mut last = start;
    for (p, o, t, l) in results {
        out.latency_ms.extend(p.latency_ms);
        out.late_ms.extend(p.late_ms);
        out.completed += p.completed;
        out.refused += p.refused;
        ops.merge(o);
        tracer.absorb(t);
        last = last.max(l);
    }
    out.stretches.push((start, last, out.latency_ms.len()));
    out
}

pub fn run(cfg: &Config) -> (Results, Tracer) {
    let mut r = Results::default();
    let epoch = Instant::now();
    let mut tracer = Tracer::new(cfg.trace, epoch, 0);
    match run_inner(cfg, &mut r, &mut tracer, epoch) {
        Ok(()) => {}
        Err(e) => r.ops.check(false, || format!("serve-read aborted: {e}")),
    }
    (r, tracer)
}

fn run_inner(
    cfg: &Config,
    r: &mut Results,
    tracer: &mut Tracer,
    epoch: Instant,
) -> Result<(), String> {
    let mut setup_s = Vec::new();
    let mut stand = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = stand.take() {
            Stand::down(old);
        }
        let t = Instant::now();
        stand = Some(Stand::up(cfg.seed, cfg.threads, &mut r.ops)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut stand = stand.expect("SETUP_REPS > 0");
    r.note(format!(
        "{} connections; open loop at {OFFERED_QPS} req/s, p99 limit {P99_LIMIT_MS} ms; weights per 100: {}",
        cfg.threads,
        SHAPES.iter().map(|s| format!("{}={}", s.name, s.weight)).collect::<Vec<_>>().join(" ")
    ));

    let mut off = Tracer::new(false, epoch, 0);
    let secs = Duration::from_secs_f64;
    let segment = cfg.seconds / SEGMENTS as f64;
    let mut next_id = 1;
    if !cfg.trace {
        let (mut open, mut closed) = (Phase::default(), Phase::default());
        for _ in 0..SEGMENTS {
            let o = drive(
                &mut stand,
                Some(OFFERED_QPS),
                secs(segment * OPEN_SHARE),
                next_id,
                &mut r.ops,
                &mut off,
            );
            next_id += o.latency_ms.len() as u64;
            open.absorb(o);
            let c = drive(
                &mut stand,
                None,
                secs(segment * (1.0 - OPEN_SHARE)),
                next_id,
                &mut r.ops,
                &mut off,
            );
            next_id += c.latency_ms.len() as u64;
            closed.absorb(c);
        }

        let misses = open
            .latency_ms
            .iter()
            .filter(|&&l| l > P99_LIMIT_MS)
            .count();
        r.e2e_median("setup_s", "s", &setup_s);
        r.e2e_median("latency_ms", "ms", &open.latency_ms);
        r.e2e_percentile("tail_latency_ms", "ms", &open.latency_ms, TAIL_PCT);
        let p99 = percentile(&open.latency_ms, 99.0);
        r.e2e_value(
            "throughput_per_s",
            "1/s",
            Clock::Host,
            closed.qps(),
            "closed-loop completions / s",
        );
        let cpts: Vec<f64> = SHAPES
            .iter()
            .zip(&stand.fx.cycles)
            .flat_map(|(s, cycles)| cycles.iter().map(move |&c| c as f64 / s.input_rows as f64))
            .collect();
        r.e2e_value(
            "sim_cpt",
            "cycles/tuple",
            Clock::Simulated,
            geomean(&cpts),
            "geomean over shapes x literals",
        );

        r.note(format!(
            "open loop: {} requests, {} over the {P99_LIMIT_MS} ms limit or failed, {} refused; p99 {} the limit",
            open.latency_ms.len(),
            misses,
            open.refused,
            if p99 <= P99_LIMIT_MS { "meets" } else { "MISSES" }
        ));
        r.note(format!("closed loop: {} requests", closed.completed));
        r.note(format!(
            "generator lateness p99 {:.4} ms",
            percentile(&open.late_ms, 99.0)
        ));
        r.name_as("latency_ms", "serve_p50_ms");
        r.named_value("serve_p99_ms", "ms", Clock::Host, p99, "p99");
        r.name_as("throughput_per_s", "serve_peak_qps");
        stand.down();
        return Ok(());
    }

    // Traced run: the open loop alternates untraced and traced stretches
    // (the difference is the tracing overhead), then the breakdown.
    let (mut plain, mut traced) = (Phase::default(), Phase::default());
    for _ in 0..SEGMENTS {
        let p = drive(
            &mut stand,
            Some(OFFERED_QPS),
            secs(segment * OPEN_SHARE / 2.0),
            next_id,
            &mut r.ops,
            &mut off,
        );
        next_id += p.latency_ms.len() as u64;
        plain.absorb(p);
        let t = drive(
            &mut stand,
            Some(OFFERED_QPS),
            secs(segment * OPEN_SHARE / 2.0),
            next_id,
            &mut r.ops,
            tracer,
        );
        next_id += t.latency_ms.len() as u64;
        traced.absorb(t);
    }
    let first = next_id;
    r.layer_value(
        "trace.overhead_pct",
        "%",
        Clock::Host,
        (median(&traced.latency_ms) / median(&plain.latency_ms) - 1.0) * 100.0,
    );
    r.layer_percentile("gen.late_p99_ms", "ms", &plain.late_ms, 99.0);
    breakdown(&mut stand, first, r, tracer)?;
    let cold: Vec<f64> = (0..COLD_STARTS)
        .map(|_| cold_start(&stand.fx, &mut r.ops))
        .collect::<Result<_, _>>()?;
    r.layer_median("server.cold_start_ms", "ms", &cold);
    r.layer_value(
        "server.rejected",
        "count",
        Clock::Count,
        stand.server.stats().rejected() as f64,
    );
    for (s, cycles) in SHAPES.iter().zip(&stand.fx.cycles) {
        r.layer_value(
            &format!("session.{}.cycles", s.name),
            "cycles",
            Clock::Simulated,
            cycles[0] as f64,
        );
    }
    r.layer_median("plan.miss_us", "us", &stand.fx.plan_miss_us);
    r.layer_value(
        "trace.spans",
        "count",
        Clock::Count,
        tracer.spans().len() as f64,
    );
    stand.down();
    Ok(())
}

/// Replays requests one at a time on connection 0: the wire round trip,
/// then the same request on an in-process library session, each call in
/// a span. The layers on the blocking path — parse, plan, library
/// execute, wire — must add up to the request time.
fn breakdown(
    stand: &mut Stand,
    first_id: u64,
    r: &mut Results,
    tr: &mut Tracer,
) -> Result<(), String> {
    let fx = &stand.fx;
    let conn = &mut stand.conns[0];
    let mut lib = fx.catalogue.connect();
    let mut prepared = lib.prepare(PREPARED_SQL).map_err(|e| e.to_string())?;
    let m0 = lib.session().machine().stats();
    let c0 = lib.plan_cache_stats();
    let pruned0 = lib.metrics().get("rows_pruned").unwrap_or(0);
    let mut range_rows = 0u64;
    let mut lib_ms: Vec<Vec<f64>> = vec![Vec::new(); SHAPES.len()];
    let (mut request_ms, mut wire_ms, mut encode_us, mut decode_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut parse_us, mut plan_hit_us, mut plan_miss_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut rtt_ms, mut lib_request_ms, mut exec_self_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut codec_ms = Vec::new();
    let mut lib_total_ns = 0u64;
    for k in 0..BREAKDOWN_REQUESTS {
        let id = first_id + k as u64;
        let (s, l) = fx.requests[k % fx.requests.len()];
        if k % 10 == 0 {
            // The wire alone: a request the server answers without
            // touching the engine (an empty statement fails to prepare).
            let open = tr.begin("server.rtt_base", id);
            let resp = conn.call(tr, &Request::Prepare { sql: String::new() }, id);
            rtt_ms.push(tr.end(open) as f64 * 1e-6);
            let ok = matches!(
                resp,
                Ok(Response::Error {
                    code: ErrorCode::Parse,
                    ..
                })
            );
            r.ops.check(ok, || format!("empty prepare: {resp:?}"));
        }
        let req = fx.request(s, l, id, conn.statement);
        let open = tr.begin("serve.request", id);
        let resp = conn.call(tr, &req, id);
        let t_ns = tr.end(open);
        let v = verdict(fx, s, l, &resp);
        r.ops.check(v.is_ok(), || v.clone().unwrap_err());
        let Ok(resp) = resp else { continue };
        // The server's side of the codec, on the same frames.
        let req_bytes = req.encode();
        let enc_req = tr.span_ns("codec.encode_request", id, || req.encode());
        let dec_req = tr.span_ns("codec.decode_request", id, || Request::decode(&req_bytes));
        let enc_resp = tr.span_ns("codec.encode_response", id, || resp.encode());
        let resp_bytes = resp.encode();
        let dec_resp = tr.span_ns("codec.decode_response", id, || {
            Response::decode(&resp_bytes)
        });
        encode_us.push((enc_req + enc_resp) as f64 * 1e-3);
        decode_us.push((dec_req + dec_resp) as f64 * 1e-3);

        let parent = tr.begin("lib.request", id);
        let (parse_ns, plan_ns) = if s == PREPARED {
            // Execute binds a plan prepared up front: no parse, no plan.
            (0, 0)
        } else {
            let p = tr.span_ns("sql.parse", id, || parse_statement(&fx.sql[s][l]).is_ok());
            let before = lib.plan_cache_stats().misses;
            let e = tr.span_ns("plan", id, || lib.explain_sql(&fx.sql[s][l]).is_ok());
            let plan_self = e.saturating_sub(p);
            if lib.plan_cache_stats().misses > before {
                plan_miss_us.push(plan_self as f64 * 1e-3);
            } else {
                plan_hit_us.push(plan_self as f64 * 1e-3);
            }
            parse_us.push(p as f64 * 1e-3);
            (p, e)
        };
        let open = tr.begin("session.execute", id);
        let out = library_run(&mut lib, &mut prepared, fx, s, l);
        let l_ns = tr.end(open);
        tr.end(parent);
        let ok = matches!(&out, Ok(o) if wire_rows(o.clone()) == fx.expect[s][l]);
        r.ops
            .check(ok, || format!("library {}: {:?}", fx.sql[s][l], out.err()));
        if s == 1 {
            range_rows += LOG_ROWS as u64;
        }
        lib_total_ns += l_ns;
        lib_ms[s].push(l_ns as f64 * 1e-6);
        request_ms.push(t_ns as f64 * 1e-6);
        wire_ms.push(t_ns.saturating_sub(l_ns) as f64 * 1e-6);
        exec_self_ms.push(l_ns.saturating_sub(plan_ns.max(parse_ns)) as f64 * 1e-6);
        codec_ms.push((enc_req + dec_req + enc_resp + dec_resp) as f64 * 1e-6);
        lib_request_ms.push(l_ns as f64 * 1e-6);
    }
    // Blocking path per request: parse + plan + execute self (= the
    // library time) + wire (base round trip + the codec on this
    // request's frames), against the measured request time.
    let rtt = median(&rtt_ms);
    let modelled: f64 = lib_request_ms
        .iter()
        .zip(&codec_ms)
        .map(|(l, c)| l + c + rtt)
        .sum();
    let measured: f64 = request_ms.iter().sum();
    let gap_pct = (modelled / measured - 1.0) * 100.0;
    r.note(format!(
        "blocking path over {} requests: parse {:.4} + plan {:.4} + execute {:.4} + wire {:.4} (base rtt {:.4} + codec {:.4}) ms median vs request {:.4} ms; sums differ by {gap_pct:.2}% (tolerance ±{BLOCKING_TOLERANCE_PCT}%): {}",
        request_ms.len(),
        median(&parse_us) / 1e3,
        median(&plan_hit_us) / 1e3,
        median(&exec_self_ms),
        rtt + median(&codec_ms),
        rtt,
        median(&codec_ms),
        median(&request_ms),
        if gap_pct.abs() <= BLOCKING_TOLERANCE_PCT { "within" } else { "OUTSIDE" }
    ));
    r.layer_value("trace.blocking_gap_pct", "%", Clock::Host, gap_pct);
    for (shape, samples) in SERVE_SHAPES.iter().zip(&lib_ms) {
        r.layer_median(&format!("session.{shape}.lib_ms"), "ms", samples);
    }
    r.layer_median("sql.parse_us", "us", &parse_us);
    r.layer_median("plan.hit_us", "us", &plan_hit_us);
    if !plan_miss_us.is_empty() {
        r.note(format!(
            "{} plan-cache misses during the breakdown",
            plan_miss_us.len()
        ));
    }
    r.layer_median("protocol.encode_us", "us", &encode_us);
    r.layer_median("protocol.decode_us", "us", &decode_us);
    r.layer_median("server.wire_ms", "ms", &wire_ms);
    let m1 = lib.session().machine().stats();
    let c1 = lib.plan_cache_stats();
    let uops = m1.ops - m0.ops;
    let cycles = m1.cycles - m0.cycles;
    let l2_hits = m1.mem.l2.hits - m0.mem.l2.hits;
    let l2_accesses = m1.mem.l2.accesses - m0.mem.l2.accesses;
    r.layer_value("sim.uops", "count", Clock::Simulated, uops as f64);
    r.layer_value("sim.cycles", "count", Clock::Simulated, cycles as f64);
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
        (m1.mem.l2.misses - m0.mem.l2.misses) as f64,
    );
    r.layer_value(
        "sim.ns_per_uop",
        "ns",
        Clock::Host,
        lib_total_ns as f64 / uops.max(1) as f64,
    );
    r.layer_value(
        "sim.ns_per_cycle",
        "ns",
        Clock::Host,
        lib_total_ns as f64 / cycles.max(1) as f64,
    );
    let (hits, misses) = (c1.hits - c0.hits, c1.misses - c0.misses);
    r.layer_value(
        "cache.hit_rate",
        "ratio",
        Clock::Count,
        hits as f64 / (hits + misses).max(1) as f64,
    );
    r.layer_value(
        "cache.rebases",
        "count",
        Clock::Count,
        (c1.rebases - c0.rebases) as f64,
    );
    r.layer_value(
        "cache.invalidations",
        "count",
        Clock::Count,
        (c1.invalidations - c0.invalidations) as f64,
    );
    // The registry is the catalogue's: the server's session pruned the
    // same range requests on the wire.
    let pruned = lib.metrics().get("rows_pruned").unwrap_or(0) - pruned0;
    r.layer_value(
        "session.prune_ratio",
        "ratio",
        Clock::Count,
        pruned as f64 / (2 * range_rows).max(1) as f64,
    );
    r.note("mem.dram_reads counts L2 misses: the line fills DRAM serves");
    Ok(())
}
