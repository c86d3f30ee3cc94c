//! The wire run: set-up, the measured phase, the probe phase, recovery
//! and the correctness gates of one workload.
//!
//! Load shape, the same for every workload: a closed loop over exactly
//! two client connections with one thread each.  Connection 1 is a
//! `most_server::Client`; connection 2 is a [`Conn`], which stamps pushed
//! deltas.  All requests come from the seeded scripts in [`crate::world`].

use crate::stats::{median, percentile, window_rate_median};
use crate::wire::{Conn, Res};
use crate::world::{beacon_cq, Shape, World, ALL_SHAPES};
use most_core::wal::{DurableDb, WalConfig};
use most_core::{display_delta, Database, EpochStats, ShardedDb, SharedDatabase};
use most_dbms::value::Value;
use most_ftl::Query;
use most_server::protocol::encode_frame;
use most_server::{Client, CqDelta, Request, Response, Server, ServerConfig};
use most_testkit::ser::{to_json_string, Json, ToJson};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ticks (or batches) and queries per connection run as warm-up inside
/// set-up, before anything is measured.
const WARM_WRITES: u64 = 10;
const WARM_READS: u64 = 40;
/// Set-up repetitions, and rebuild repetitions for engines without a
/// WAL; the median is reported.
const SETUPS: usize = 3;
const MIN_REBUILDS: usize = 3;
const MAX_REBUILDS: usize = 15;
/// Probe-phase sizes: update batches sent after a read-only measured
/// phase, queries sent after a write-only one.
const PROBE_UPDATES: u64 = 21;
const PROBE_READS: u64 = 600;
/// Equal op-count windows the measured phase is split into for rates.
const WINDOWS: usize = 5;
/// Ticks of the subscriber's delta stream compared byte for byte with
/// the continuous-query-bearing oracle.
const ORACLE_TICKS: u64 = 64;
/// Durable servers fsync every append and checkpoint every this many
/// records.
pub const CHECKPOINT_EVERY: u64 = 200;

/// What connection 1 does in the measured phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Writer {
    /// `Instantaneous` queries (no writes at all).
    Queries,
    /// `AdvanceClock(1)` then one `Update` batch per tick.
    Ticks,
    /// `Update` batches only (band-local under sharding).
    Batches,
}

/// What connection 2 does in the measured phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reader {
    /// Read requests from its script.
    Queries,
    /// Nothing but receiving pushed deltas.
    Passive,
}

/// One workload: sizes and which layers are on.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Cars in the world.
    pub cars: usize,
    /// Named regions `R0..`.
    pub regions: usize,
    /// Shards; 1 is the single engine.
    pub shards: usize,
    /// Spatial index on.
    pub index: bool,
    /// `Server::bind_durable` with `sync: true`.
    pub durable: bool,
    /// Continuous queries registered (and subscribed to by connection 2)
    /// during set-up; the last one is the beacon query.
    pub cqs: usize,
    /// Connection 1's role.
    pub writer: Writer,
    /// Connection 2's role.
    pub reader: Reader,
    /// Query shapes read scripts draw from.
    pub shapes: &'static [Shape],
    /// Every 20th read rotates through `Persistent`, `Alibi`, `Aggregate`.
    pub history_reads: bool,
    /// Motion ops per update batch (the beacon toggle rides on top).
    pub batch: usize,
    /// Write steps (ticks or batches) per second of `--seconds`: the
    /// measured phase sends `seconds × write_rate` of them, a fixed
    /// count, so state growth — and with it the records recovery parses
    /// and replays — repeats exactly.
    pub write_rate: f64,
}

/// The four workloads at their full sizes.
pub fn workloads() -> Vec<Spec> {
    let base = Spec {
        name: "",
        cars: 0,
        regions: 16,
        shards: 1,
        index: false,
        durable: false,
        cqs: 0,
        writer: Writer::Ticks,
        reader: Reader::Queries,
        shapes: &ALL_SHAPES,
        history_reads: false,
        batch: 64,
        write_rate: 0.0,
    };
    vec![
        Spec {
            name: "query_static",
            cars: 20_000,
            index: true,
            writer: Writer::Queries,
            ..base.clone()
        },
        Spec {
            name: "ingest_durable",
            cars: 2_000,
            durable: true,
            cqs: 8,
            reader: Reader::Passive,
            batch: 16,
            // About half of what the engine sustains: recovery time grows
            // with the square of the ticks logged (see the README), so the
            // measured phase here ends well before `--seconds`.
            write_rate: 30.0,
            ..base.clone()
        },
        Spec {
            name: "mixed_serving",
            cars: 2_000,
            index: true,
            durable: true,
            cqs: 6,
            history_reads: true,
            batch: 16,
            write_rate: 22.5,
            ..base.clone()
        },
        Spec {
            name: "sharded_large",
            cars: 50_000,
            regions: 8,
            shards: 4,
            cqs: 2,
            writer: Writer::Batches,
            shapes: &[Shape::Conj],
            write_rate: 30.0,
            ..base
        },
    ]
}

impl Spec {
    /// The same workload at about 1% of its size, for `--smoke`.
    pub fn smoke(&self) -> Spec {
        Spec { cars: (self.cars / 100).max(200), ..self.clone() }
    }

    /// The workload's seeded world.
    pub fn world(&self, seed: u64) -> World {
        World::generate(seed, self.cars, self.regions, self.shards)
    }

    /// Durable engines fsync every append and checkpoint automatically.
    pub fn wal_config() -> WalConfig {
        WalConfig { sync: true, checkpoint_every: CHECKPOINT_EVERY, ..WalConfig::default() }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json` (or `tail.*` for diagnostics).
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Samples behind it.
    pub samples: usize,
}

/// What a run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Requests issued in the measured and probe phases.
    pub attempted: u64,
    /// Those that failed or were refused.
    pub failed: u64,
    /// Gates that did not hold; empty means correct.
    pub gate_failures: Vec<String>,
    /// The gated metrics.
    pub metrics: Vec<Metric>,
    /// Non-gating diagnostics (`tail.*`, counts).
    pub diagnostics: Vec<Metric>,
    /// Final sizes, for `result.json`.
    pub sizes: Vec<(&'static str, u64)>,
    /// Free-form report lines (the per-layer table of a traced run).
    pub notes: Vec<String>,
}

/// Request categories latencies are reported for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Instantaneous` (and the rotating history reads).
    Query,
    /// `Update`.
    Update,
    /// `AdvanceClock`.
    Advance,
}

/// One completed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Its category.
    pub kind: Kind,
    /// Just before the request was encoded.
    pub start: Instant,
    /// Just after its reply was decoded.
    pub end: Instant,
}

/// Per-connection accounting.
#[derive(Debug, Default)]
pub struct Tally {
    /// Completed requests.
    pub samples: Vec<Sample>,
    /// Requests issued.
    pub attempted: u64,
    /// Requests answered with an error frame.
    pub failed: u64,
}

impl Tally {
    fn record(&mut self, kind: Kind, start: Instant, response: &Response) {
        self.attempted += 1;
        if matches!(response, Response::Error { .. }) {
            self.failed += 1;
        }
        self.samples.push(Sample { kind, start, end: Instant::now() });
    }

    /// Ascending latencies of one request category, in milliseconds.
    pub fn latencies_ms(&self, kind: Kind) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    fn absorb(&mut self, other: Tally) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The storage engine behind the server, kept so the harness can read
/// epoch accounting and recover the WAL directory.
enum Engine {
    /// `Server::bind`.
    Memory(SharedDatabase),
    /// `Server::bind_durable`, with its WAL directory.
    Durable(Arc<DurableDb>, PathBuf),
    /// `Server::bind_sharded`.
    Sharded(Arc<ShardedDb>),
}

impl Engine {
    /// Builds the engine a spec asks for over a fresh copy of the world.
    fn build(spec: &Spec, world: &World, wal_dir: &Path) -> Res<Engine> {
        if spec.shards > 1 {
            return Ok(Engine::Sharded(Arc::new(world.sharded(spec.shards))));
        }
        let mut db = world.database();
        if spec.index {
            db.enable_spatial_index(world.space());
        }
        if spec.durable {
            let durable = DurableDb::create(wal_dir, db, Spec::wal_config())
                .map_err(|e| format!("wal create in {}: {e}", wal_dir.display()))?;
            Ok(Engine::Durable(Arc::new(durable), wal_dir.to_path_buf()))
        } else {
            Ok(Engine::Memory(SharedDatabase::new(db)))
        }
    }

    fn bind(&self) -> Res<Server> {
        let cfg = ServerConfig::default();
        match self {
            Engine::Memory(db) => Server::bind("127.0.0.1:0", db.clone(), cfg),
            Engine::Durable(d, _) => Server::bind_durable("127.0.0.1:0", Arc::clone(d), cfg),
            Engine::Sharded(s) => Server::bind_sharded("127.0.0.1:0", Arc::clone(s), cfg),
        }
        .map_err(|e| format!("bind: {e}"))
    }

    fn epoch_stats(&self) -> Vec<EpochStats> {
        match self {
            Engine::Memory(db) => vec![db.epoch_stats()],
            Engine::Durable(d, _) => vec![d.epochs().stats()],
            Engine::Sharded(s) => s.shard_stats(),
        }
    }

    /// Registers a continuous query directly on the engine (the rebuild
    /// path; set-up registers over the wire).
    fn register(&self, text: &str) -> Res<u64> {
        let q = Query::parse(text).map_err(|e| format!("parse `{text}`: {e}"))?;
        match self {
            Engine::Memory(db) => db.write(|d| d.register_continuous(q)),
            Engine::Durable(d, _) => d.register_continuous(text),
            Engine::Sharded(s) => s.register_continuous(&q),
        }
        .map_err(|e| format!("register `{text}`: {e}"))
    }

    /// Pins the published state and reads its clock: the "first
    /// successful pin" that ends a recovery.
    fn pin_now(&self) -> u64 {
        match self {
            Engine::Memory(db) => db.pin().now(),
            Engine::Durable(d, _) => d.pin().now(),
            Engine::Sharded(s) => s.pin().now(),
        }
    }
}

/// A numbered scratch directory under the run's WAL root.
pub struct WalDirs {
    root: PathBuf,
    next: usize,
}

impl WalDirs {
    /// WAL directories go under `<out>/wal-<pid>` and are removed on drop.
    pub fn new(out: &Path) -> WalDirs {
        WalDirs { root: out.join(format!("wal-{}", std::process::id())), next: 0 }
    }

    /// A directory no earlier call returned.
    pub fn fresh(&mut self) -> PathBuf {
        self.next += 1;
        self.root.join(self.next.to_string())
    }
}

impl Drop for WalDirs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// A served world with both connections open and warm.
struct Live {
    world: World,
    engine: Engine,
    server: Server,
    c1: Client,
    c2: Conn,
    /// Update batches sent so far (the next is `batches + 1`).
    batches: u64,
    /// Read requests sent so far on connections 1 and 2.
    reads: [u64; 2],
    /// Id of the beacon continuous query connection 2 is subscribed to.
    beacon: Option<u64>,
}

fn expect_ok(what: &str, response: &Response) -> Res<()> {
    match response {
        Response::Error { code, message } => Err(format!("{what}: [{code:?}] {message}")),
        _ => Ok(()),
    }
}

/// One write step on connection 1: a tick (`AdvanceClock` + `Update`) or
/// a bare batch.  Pushes the `Update`'s send instant to `sends`.
fn write_step(
    world: &World,
    c1: &mut Client,
    writer: Writer,
    batch: usize,
    batches: &mut u64,
    tally: &mut Tally,
    sends: &mut Vec<Instant>,
) -> Res<()> {
    let mut ask = |kind, req: Request| -> Res<Instant> {
        let start = Instant::now();
        let r = c1.request(&req).map_err(|e| format!("connection 1: {e}"))?;
        tally.record(kind, start, &r);
        Ok(start)
    };
    if writer == Writer::Ticks {
        ask(Kind::Advance, Request::AdvanceClock { ticks: 1 })?;
    }
    *batches += 1;
    sends.push(ask(Kind::Update, Request::Update { ops: world.batch(*batches, batch) })?);
    Ok(())
}

/// One read on connection 1; keeps the decoded reply (`Client` hands out
/// no raw line; it is re-encoded for the byte gates after the phase).
fn read_c1(
    world: &World,
    c1: &mut Client,
    spec: &Spec,
    i: &mut u64,
    tally: &mut Tally,
    kept: &mut Vec<(u64, Response)>,
) -> Res<()> {
    let req = world.read_request(1, *i, spec.shapes, false);
    let start = Instant::now();
    let r = c1.request(&req).map_err(|e| format!("connection 1: {e}"))?;
    tally.record(Kind::Query, start, &r);
    kept.push((*i, r));
    *i += 1;
    Ok(())
}

/// One read on connection 2; keeps the raw reply line.
fn read_c2(
    world: &World,
    c2: &mut Conn,
    spec: &Spec,
    i: &mut u64,
    tally: &mut Tally,
    kept: &mut Vec<(u64, String)>,
) -> Res<()> {
    let req = world.read_request(2, *i, spec.shapes, spec.history_reads);
    let start = Instant::now();
    let reply = c2.request(&req)?;
    tally.record(Kind::Query, start, &reply.response);
    kept.push((*i, reply.line));
    *i += 1;
    Ok(())
}

impl Live {
    /// World build, index build, engine create, bind, continuous-query
    /// registration, subscriptions and warm-up: everything `setup_s`
    /// covers.
    fn setup(spec: &Spec, seed: u64, wal_dir: &Path) -> Res<Live> {
        let world = spec.world(seed);
        let engine = Engine::build(spec, &world, wal_dir)?;
        let server = engine.bind()?;
        let c1 = Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        let c2 = Conn::connect(server.local_addr())?;
        let mut live =
            Live { world, engine, server, c1, c2, batches: 0, reads: [0; 2], beacon: None };
        for text in live.world.cq_texts(spec.cqs) {
            live.register_and_subscribe(&text)?;
        }
        let (mut warm, mut unused1, mut unused2) = (Tally::default(), Vec::new(), Vec::new());
        let Live { world, c1, c2, batches, reads: [r1, r2], .. } = &mut live;
        if spec.writer != Writer::Queries {
            for _ in 0..WARM_WRITES {
                write_step(
                    world,
                    c1,
                    spec.writer,
                    spec.batch,
                    batches,
                    &mut warm,
                    &mut Vec::new(),
                )?;
            }
        }
        for _ in 0..WARM_READS {
            if spec.writer == Writer::Queries {
                read_c1(world, c1, spec, r1, &mut warm, &mut unused1)?;
            }
            if spec.reader == Reader::Queries {
                read_c2(world, c2, spec, r2, &mut warm, &mut unused2)?;
            }
        }
        if warm.failed > 0 {
            return Err(format!("{} warm-up requests failed", warm.failed));
        }
        Ok(live)
    }

    /// Registers a continuous query over connection 1 and subscribes
    /// connection 2 to it; the last one registered is the beacon.
    fn register_and_subscribe(&mut self, text: &str) -> Res<()> {
        let cq = self.c1.register(text).map_err(|e| format!("register `{text}`: {e}"))?;
        let reply = self.c2.request(&Request::Subscribe { cq })?;
        expect_ok("subscribe", &reply.response)?;
        self.beacon = Some(cq);
        Ok(())
    }

    /// Runs both connections concurrently.  Connection 1 takes steps as
    /// `writer` says until `stop` (asked after every step) returns true;
    /// connection 2 acts as `reader` until connection 1 is done, then
    /// fences with a `Ping`, so every delta enqueued before connection
    /// 1's last reply has been read when this returns.
    fn phase(
        &mut self,
        spec: &Spec,
        writer: Writer,
        reader: Reader,
        mut stop: impl FnMut(&Engine) -> bool,
    ) -> Res<Phase> {
        let Live { world, engine, c1, c2, batches, reads: [r1, r2], .. } = self;
        let (world, engine) = (&*world, &*engine);
        let done = AtomicBool::new(false);
        let first_batch = *batches + 1;
        let (mut t1, mut t2) = (Tally::default(), Tally::default());
        let (mut sends, mut kept1, mut kept2) = (Vec::new(), Vec::new(), Vec::new());
        let (res1, res2) = std::thread::scope(|s| {
            let h2 = s.spawn(|| -> Res<()> {
                while !done.load(Ordering::Acquire) {
                    match reader {
                        Reader::Passive => c2.poll(Duration::from_millis(5))?,
                        Reader::Queries => read_c2(world, c2, spec, r2, &mut t2, &mut kept2)?,
                    }
                }
                expect_ok("fence ping", &c2.request(&Request::Ping)?.response)
            });
            let res1 = (|| -> Res<()> {
                loop {
                    match writer {
                        Writer::Queries => read_c1(world, c1, spec, r1, &mut t1, &mut kept1)?,
                        _ => {
                            write_step(world, c1, writer, spec.batch, batches, &mut t1, &mut sends)?
                        }
                    }
                    if stop(engine) {
                        return Ok(());
                    }
                }
            })();
            done.store(true, Ordering::Release);
            (res1, h2.join().unwrap_or_else(|_| Err("connection 2 thread panicked".into())))
        });
        res1?;
        res2?;
        t1.absorb(t2);
        let mut replies: Vec<(u64, u64, String)> = kept1
            .into_iter()
            .map(|(i, r): (u64, Response)| (1, i, encode_frame(&r).trim_end().to_owned()))
            .collect();
        replies.extend(kept2.into_iter().map(|(i, l)| (2, i, l)));
        Ok(Phase { tally: t1, sends, first_batch, replies })
    }

    /// The measured phase: `seconds` of queries, or the fixed number of
    /// write steps `seconds` stands for (given up at twice the time).
    /// Returns the phase and its start.
    fn measure(&mut self, spec: &Spec, seconds: f64) -> Res<(Instant, Phase)> {
        let t0 = Instant::now();
        let steps = (seconds * spec.write_rate).round().max(1.0) as u64;
        let (mut taken, patience) = (0, if spec.writer == Writer::Queries { 1.0 } else { 2.0 });
        let phase = self.phase(spec, spec.writer, spec.reader, |_| {
            taken += 1;
            (spec.writer != Writer::Queries && taken >= steps)
                || t0.elapsed().as_secs_f64() >= seconds * patience
        })?;
        Ok((t0, phase))
    }

    /// Closes both connections, stops the server and hands back the
    /// world and engine; every server thread has been joined on return.
    fn stop(self) -> (World, Engine) {
        drop((self.c1, self.c2));
        self.server.shutdown();
        (self.world, self.engine)
    }
}

/// What the two connections collected in one phase.
#[derive(Default)]
struct Phase {
    tally: Tally,
    /// Send instants of the phase's `Update`s; the first is batch
    /// `first_batch`.
    sends: Vec<Instant>,
    first_batch: u64,
    /// `(connection, script index, reply line)` of every read.
    replies: Vec<(u64, u64, String)>,
}

/// The single-threaded oracle's state after `batches` write steps: a
/// plain `Database` without continuous queries or index.
fn oracle_state(world: &World, spec: &Spec, batches: u64) -> Database {
    let mut db = world.database();
    for k in 1..=batches {
        if spec.writer == Writer::Ticks {
            db.advance_clock(1);
        }
        db.apply_updates(&world.batch(k, spec.batch)).expect("scripted batches are valid");
    }
    db
}

/// The delta stream a subscriber to every continuous query must see over
/// the first `ticks` ticks: after each mutation, the displays that
/// changed, in ascending query order — what the server fans out.
fn oracle_deltas(world: &World, spec: &Spec, ticks: u64) -> Vec<CqDelta> {
    let mut db = world.database();
    let ids: Vec<u64> = world
        .cq_texts(spec.cqs)
        .iter()
        .map(|t| db.register_continuous(Query::parse(t).expect("cq parses")).expect("cq registers"))
        .collect();
    let mut last: BTreeMap<u64, Vec<Vec<Value>>> =
        ids.iter().map(|&cq| (cq, db.continuous_display(cq, db.now()).expect("display"))).collect();
    let mut out = Vec::new();
    let mut step = |db: &Database| {
        for &cq in &ids {
            let rows = db.continuous_display(cq, db.now()).expect("display");
            let (added, removed) = display_delta(&last[&cq], &rows);
            if !(added.is_empty() && removed.is_empty()) {
                out.push(CqDelta { cq, tick: db.now(), added, removed });
                last.insert(cq, rows);
            }
        }
    };
    for k in 1..=ticks {
        db.advance_clock(1);
        step(&db);
        db.apply_updates(&world.batch(k, spec.batch)).expect("scripted batches are valid");
        step(&db);
    }
    out
}

/// A digest of the persisted state that does not depend on registered
/// continuous queries, so a recovered (query-bearing) database can be
/// compared with the query-less oracle.
fn state_digest(db: &Database) -> u64 {
    let Json::Obj(fields) = db.to_json() else {
        unreachable!("a database serializes as an object")
    };
    let kept = ["clock", "next_id", "classes", "objects", "regions"];
    let doc = Json::Obj(fields.into_iter().filter(|(k, _)| kept.contains(&k.as_str())).collect());
    most_testkit::hash::fnv1a64(doc.render().expect("state renders").as_bytes())
}

/// Counts the kept `Instantaneous` replies that differ from the line the
/// oracle state produces for the same text.
fn mismatched_replies(
    world: &World,
    spec: &Spec,
    oracle: &Database,
    replies: &[(u64, u64, String)],
) -> usize {
    let mut expected: BTreeMap<String, String> = BTreeMap::new();
    replies
        .iter()
        .filter(|(conn, i, line)| {
            let text = world.query_text(*conn, *i, spec.shapes);
            let want = expected.entry(text).or_insert_with_key(|text| {
                let q = Query::parse(text).expect("scripted query parses");
                let answer = oracle.instantaneous_readonly(&q).expect("oracle evaluates");
                let mut line = encode_frame(&Response::Answer { now: oracle.now(), answer });
                line.pop();
                line
            });
            want != line
        })
        .count()
}

fn push_latency(out: &mut Outcome, name: &str, sorted_ms: &[f64]) {
    out.metrics.push(Metric {
        name: format!("{name}_p50_ms"),
        value: percentile(sorted_ms, 50.0),
        unit: "ms",
        samples: sorted_ms.len(),
    });
    out.diagnostics.push(Metric {
        name: format!("tail.{name}_p99_ms"),
        value: percentile(sorted_ms, 99.0),
        unit: "ms",
        samples: sorted_ms.len(),
    });
}

/// What a traced run needs from the wire: per-category latencies of one
/// measured phase and the server's fan-out counters.
pub struct WireSample {
    /// The measured phase's requests.
    pub tally: Tally,
    /// Delta frames the server produced, and dropped.
    pub deltas: (u64, u64),
    /// Highest drop count a `Lagged` frame reported to connection 2.
    pub lagged: u64,
}

/// One set-up and one measured phase over the wire, without probe phase,
/// recovery or gates.
pub fn wire_sample(spec: &Spec, seed: u64, seconds: f64, dirs: &mut WalDirs) -> Res<WireSample> {
    let mut live = Live::setup(spec, seed, &dirs.fresh())?;
    let (_, phase) = live.measure(spec, seconds)?;
    let stats = live.server.stats();
    let lagged = live.c2.lagged;
    live.stop();
    Ok(WireSample { tally: phase.tally, deltas: (stats.deltas, stats.dropped), lagged })
}

/// Runs one workload end to end and returns its six end-to-end metrics.
/// An `Err` is a harness failure (socket, set-up); gate failures are
/// reported in the outcome.
pub fn run(spec: &Spec, seed: u64, seconds: f64, out_dir: &Path) -> Res<Outcome> {
    let mut dirs = WalDirs::new(out_dir);
    let mut out = Outcome::default();

    // Set-up, SETUPS times on fresh state; the last one is measured.
    let mut setup_s = Vec::new();
    let mut live: Option<Live> = None;
    for _ in 0..SETUPS {
        if let Some(prev) = live.take() {
            prev.stop();
        }
        let t = Instant::now();
        live = Some(Live::setup(spec, seed, &dirs.fresh())?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut live = live.expect("at least one set-up");

    let (t0, measured) = live.measure(spec, seconds)?;

    // Probe phase: the request kinds the measured phase has none of.
    let mut probe = Phase::default();
    if spec.writer == Writer::Queries {
        if live.beacon.is_none() {
            live.register_and_subscribe(&beacon_cq())?;
        }
        let mut left = PROBE_UPDATES;
        probe = live.phase(spec, Writer::Batches, Reader::Passive, |_| {
            left -= 1;
            left == 0
        })?;
    } else if spec.reader == Reader::Passive {
        let Live { world, c2, reads: [_, r2], .. } = &mut live;
        let mut kept = Vec::new();
        for _ in 0..PROBE_READS {
            read_c2(world, c2, spec, r2, &mut probe.tally, &mut kept)?;
        }
        probe.replies = kept.into_iter().map(|(i, l)| (2, i, l)).collect();
    }

    // Final answers over the wire, for every distinct query text
    // connection 2 sent while writes were streaming in.
    let mut finals: Vec<(String, String)> = Vec::new();
    if spec.writer != Writer::Queries && spec.reader == Reader::Queries {
        let texts: BTreeSet<String> =
            (0..live.reads[1]).map(|i| live.world.query_text(2, i, spec.shapes)).collect();
        for text in texts {
            let (_, answer) =
                live.c1.instantaneous(&text).map_err(|e| format!("final `{text}`: {e}"))?;
            finals.push((text, to_json_string(&answer).map_err(|e| e.to_string())?));
        }
    }

    // Beacon delta `j` (0-based, counted from the subscription) belongs
    // to update batch `j + 1`: one per batch, in order.
    let pushed = std::mem::take(&mut live.c2.pushed);
    let beacon_arrivals: Vec<Instant> =
        pushed.iter().filter(|(_, d)| Some(d.cq) == live.beacon).map(|(at, _)| *at).collect();
    let (batches, subscribed) = (live.batches, live.beacon.is_some());
    let (dropped, lagged) = (live.server.stats().dropped, live.c2.lagged);
    let (world, engine) = live.stop();

    // Gates.
    let mut gate = |ok: bool, what: String| {
        if !ok {
            out.gate_failures.push(what);
        }
    };
    gate(
        dropped == 0 && lagged == 0,
        format!("server dropped {dropped} deltas, subscriber lagged {lagged}"),
    );
    if subscribed {
        gate(
            beacon_arrivals.len() as u64 == batches,
            format!("{} beacon deltas for {batches} update batches", beacon_arrivals.len()),
        );
    }
    for st in engine.epoch_stats() {
        gate(st.created == st.retired + st.live, format!("epoch accounting leaks: {st:?}"));
    }
    let final_state =
        oracle_state(&world, spec, if spec.writer == Writer::Queries { 0 } else { batches });
    let static_replies =
        if spec.writer == Writer::Queries { &measured.replies } else { &probe.replies };
    let wrong = mismatched_replies(&world, spec, &final_state, static_replies);
    gate(wrong == 0, format!("{wrong} of {} replies differ from the oracle", static_replies.len()));
    for (text, got) in &finals {
        let q = Query::parse(text).expect("scripted query parses");
        let want =
            to_json_string(&final_state.instantaneous_readonly(&q).expect("oracle evaluates"));
        gate(
            want.as_deref() == Ok(got),
            format!("final answer of `{text}` differs from the oracle"),
        );
    }
    if spec.cqs > 0 && spec.writer == Writer::Ticks {
        let want = oracle_deltas(&world, spec, ORACLE_TICKS.min(batches));
        let same = pushed.len() >= want.len()
            && want
                .iter()
                .zip(&pushed)
                .all(|(w, (_, g))| to_json_string(w).ok() == to_json_string(g).ok());
        gate(
            same,
            format!("delta stream differs from the oracle over the first {} deltas", want.len()),
        );
    }

    // Recovery: reopen the WAL directory, or — for engines without one —
    // rebuild from the generated world, the only recovery they have.
    let recover_s = match engine {
        Engine::Durable(durable, dir) => {
            gate(
                Arc::strong_count(&durable) == 1,
                "durable engine still shared after shutdown".into(),
            );
            drop(durable);
            let t = Instant::now();
            let (reopened, recovery) =
                DurableDb::open(&dir, Spec::wal_config()).map_err(|e| format!("recover: {e}"))?;
            let pin = reopened.pin();
            let took = t.elapsed().as_secs_f64();
            gate(
                !recovery.truncated_tail,
                "recovery found a torn tail after a clean shutdown".into(),
            );
            gate(
                state_digest(pin.db()) == state_digest(&final_state),
                "recovered state differs from the oracle".into(),
            );
            out.sizes.push(("records_replayed", recovery.records_replayed));
            (took, 1)
        }
        engine => {
            drop(engine);
            // At least 3 rebuilds; cheap ones repeat up to 15 times or 2 s.
            let (mut times, began) = (Vec::new(), Instant::now());
            while times.len() < MIN_REBUILDS
                || (times.len() < MAX_REBUILDS && began.elapsed().as_secs_f64() < 2.0)
            {
                let t = Instant::now();
                let world = spec.world(seed);
                let rebuilt = Engine::build(spec, &world, &dirs.fresh())?;
                for text in world.cq_texts(spec.cqs) {
                    rebuilt.register(&text)?;
                }
                rebuilt.pin_now();
                times.push(t.elapsed().as_secs_f64());
            }
            (median(&mut times), times.len())
        }
    };

    // Metrics.
    let mut done: Vec<f64> =
        measured.tally.samples.iter().map(|s| (s.end - t0).as_secs_f64()).collect();
    let throughput = window_rate_median(&mut done, WINDOWS);
    let lag_phase = if spec.cqs > 0 { &measured } else { &probe };
    let arrivals = beacon_arrivals.iter().skip((lag_phase.first_batch as usize).saturating_sub(1));
    let mut lags: Vec<f64> = lag_phase
        .sends
        .iter()
        .zip(arrivals)
        .map(|(sent, at)| at.saturating_duration_since(*sent).as_secs_f64() * 1e3)
        .collect();
    lags.sort_by(f64::total_cmp);
    let pick = |kind| {
        let primary = measured.tally.latencies_ms(kind);
        if primary.is_empty() {
            probe.tally.latencies_ms(kind)
        } else {
            primary
        }
    };
    let (queries, updates) = (pick(Kind::Query), pick(Kind::Update));
    out.metrics.push(Metric {
        name: "setup_s".into(),
        value: median(&mut setup_s),
        unit: "s",
        samples: SETUPS,
    });
    out.metrics.push(Metric {
        name: "throughput_rps".into(),
        value: throughput,
        unit: "req/s",
        samples: done.len(),
    });
    push_latency(&mut out, "query", &queries);
    push_latency(&mut out, "update_ack", &updates);
    out.metrics.push(Metric {
        name: "delta_lag_p50_ms".into(),
        value: percentile(&lags, 50.0),
        unit: "ms",
        samples: lags.len(),
    });
    out.metrics.push(Metric {
        name: "recover_s".into(),
        value: recover_s.0,
        unit: "s",
        samples: recover_s.1,
    });
    out.sizes.extend([
        ("cars", world.len() as u64),
        ("regions", world.regions.len() as u64),
        ("shards", spec.shards as u64),
        ("continuous_queries", spec.cqs as u64),
        ("update_batches", batches),
        ("measured_requests", done.len() as u64),
    ]);
    out.attempted = measured.tally.attempted + probe.tally.attempted;
    out.failed = measured.tally.failed + probe.tally.failed;
    if out.failed > 0 {
        out.gate_failures.push(format!("{} of {} requests failed", out.failed, out.attempted));
    }
    Ok(out)
}
