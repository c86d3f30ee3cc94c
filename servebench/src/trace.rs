//! The outside-in layer ledger (`--trace 1`).
//!
//! Nothing inside the crates is instrumented yet, so every layer is timed
//! from here, around calls to its public functions.  A traced run
//!
//! 1. takes one measured phase over the wire, for the mean latency of
//!    each request category;
//! 2. replays the same scripts in-process as an explicit chain of public
//!    calls — the chain `most-server` runs per request — with one span
//!    around each call;
//! 3. replays the same operations again without spans, for the tracing
//!    overhead.
//!
//! A layer's time is its spans' durations minus their child spans'; what
//! the chain does not cover (socket, session threads, the mutation-order
//! lock, delta fan-out) is `server.session`, the residual against the
//! wire mean.

use crate::run::{wire_sample, Kind, Metric, Outcome, Reader, Spec, WalDirs, Writer};
use crate::wire::Res;
use crate::world::World;
use most_core::wal::{recover, Wal, WalRecord};
use most_core::{Database, EpochDb, ShardedDb};
use most_ftl::Query;
use most_hist::{HistoryConfig, HistoryRecorder};
use most_server::protocol::{decode_request, encode_frame, WindowCounts};
use most_server::{Request, Response};
use most_temporal::Interval;
use most_testkit::ser::{to_json_string, FromJson, Json};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The layers of the ledger, in request order.
const LAYERS: [&str; 9] = [
    "server.protocol",
    "ftl.parse",
    "ftl.eval",
    "index",
    "core.database",
    "core.epoch",
    "core.wal",
    "hist",
    "core.sharded",
];

/// One timed call.
#[derive(Debug, Clone)]
struct Span {
    /// Layer name, or `request:<category>` for a request's root span.
    name: &'static str,
    /// Request the span belongs to (0: set-up and recovery).
    request: u32,
    /// Id (index + 1) of the span that caused it; 0 for a root.
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Spans held in memory; with `on == false` every call runs bare.
struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    request: u32,
    stack: Vec<u32>,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer { on, t0: Instant::now(), spans: Vec::new(), request: 0, stack: Vec::new() }
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.stack.last().copied().unwrap_or(0);
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, request: self.request, parent, start_ns, end_ns: start_ns });
        self.stack.push(id as u32 + 1);
        let r = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.t0.elapsed().as_nanos() as u64;
        r
    }

    /// A request's root span; its children are the chain's calls.
    fn request<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.request += 1;
        self.span(name, f)
    }

    /// Id of the span opened last.
    fn last(&self) -> u32 {
        self.spans.len() as u32
    }

    /// Runs `f` in a span recorded as a child of span `parent` although
    /// it runs after it: for a call repeated from outside because the
    /// parent makes it internally.
    fn repeat_under<R>(
        &mut self,
        parent: u32,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        self.stack.push(parent);
        let r = self.span(name, f);
        self.stack.pop();
        r
    }
}

/// The engine the chain runs against.
enum Engine {
    /// One epoch stream, optionally write-ahead logged, plus the history
    /// recorder the server would attach.
    Single { epochs: EpochDb, wal: Option<Wal>, hist: Arc<HistoryRecorder> },
    /// The sharded engine; the recorder rides its publish observer, so
    /// history folding is inside `core.sharded` here.
    Sharded(ShardedDb),
}

/// Counts taken at the layer boundaries during a replay.
#[derive(Debug, Default)]
struct Counts {
    requests: u64,
    bytes_in: u64,
    bytes_out: u64,
    parse_misses: u64,
    result_rows: u64,
    wal_appends: u64,
    checkpoints: u64,
    legs: u64,
    batches: u64,
}

struct Replay<'a> {
    spec: &'a Spec,
    world: &'a World,
    engine: Engine,
    parsed: BTreeMap<String, Query>,
    counts: Counts,
    batches: u64,
    reads: [u64; 2],
}

impl<'a> Replay<'a> {
    /// Builds the engine as set-up does and registers the continuous
    /// queries, timing the index build.
    fn new(spec: &'a Spec, world: &'a World, wal_dir: &Path, t: &mut Tracer) -> Res<Replay<'a>> {
        let hist = HistoryRecorder::new(HistoryConfig::default());
        let engine = if spec.shards > 1 {
            let db = world.sharded(spec.shards);
            for text in world.cq_texts(spec.cqs) {
                let q = Query::parse(&text).map_err(|e| e.to_string())?;
                db.register_continuous(&q).map_err(|e| e.to_string())?;
            }
            hist.attach_sharded(&db);
            Engine::Sharded(db)
        } else {
            let mut db = world.database();
            if spec.index {
                t.span("index", |_| db.enable_spatial_index(world.space()));
            }
            let mut wal = match spec.durable {
                true => Some(
                    Wal::create(wal_dir, &db, Spec::wal_config())
                        .map_err(|e| format!("wal: {e}"))?,
                ),
                false => None,
            };
            for text in world.cq_texts(spec.cqs) {
                if let Some(wal) = &mut wal {
                    wal.append(&WalRecord::Register { query: text.clone() })
                        .map_err(|e| format!("wal: {e}"))?;
                }
                let q = Query::parse(&text).map_err(|e| e.to_string())?;
                db.register_continuous(q).map_err(|e| e.to_string())?;
            }
            hist.record(&db);
            Engine::Single { epochs: EpochDb::new(db), wal, hist }
        };
        Ok(Replay {
            spec,
            world,
            engine,
            parsed: BTreeMap::new(),
            counts: Counts::default(),
            batches: 0,
            reads: [0; 2],
        })
    }

    /// `decode_request` on the request's wire line, the chain `f`, then
    /// `encode_frame` on its reply: the protocol layer around every
    /// request.
    fn serve(
        &mut self,
        t: &mut Tracer,
        name: &'static str,
        req: &Request,
        f: impl FnOnce(&mut Self, &mut Tracer, Request) -> Res<Response>,
    ) -> Res<()> {
        let mut line = encode_frame(req);
        self.counts.bytes_in += line.len() as u64;
        line.pop();
        t.request(name, |t| {
            let decoded = t
                .span("server.protocol", |_| decode_request(&line))
                .map_err(|e| format!("{e:?}"))?;
            let response = f(self, t, decoded)?;
            if let Response::Error { code, message } = &response {
                return Err(format!("replayed request failed: [{code:?}] {message}"));
            }
            let frame = t.span("server.protocol", |_| encode_frame(&response));
            self.counts.bytes_out += frame.len() as u64;
            self.counts.requests += 1;
            Ok(())
        })
    }

    /// The single engine's write path, call by call: log, copy-on-write
    /// clone, mutate (continuous-query refresh inside), index upkeep,
    /// history fold, publish, checkpoint when due.
    fn mutate(
        &mut self,
        t: &mut Tracer,
        record: WalRecord,
        apply: impl FnOnce(&mut Database) -> Res<()>,
    ) -> Res<()> {
        let Engine::Single { epochs, wal, hist } = &mut self.engine else {
            unreachable!("the sharded engine applies whole batches")
        };
        if let Some(wal) = wal {
            t.span("core.wal", |_| wal.append(&record)).map_err(|e| format!("wal append: {e}"))?;
            self.counts.wal_appends += 1;
        }
        t.span("core.epoch", |_| epochs.write(|_| ()));
        t.span("core.database", |_| epochs.write(apply))?;
        if self.spec.index {
            t.span("index", |_| epochs.write(|db| db.maintain_spatial_index()));
        }
        self.counts.legs += t.span("hist", |_| epochs.write(|db| hist.record(db)));
        t.span("core.epoch", |_| epochs.advance_epoch());
        if let Some(wal) = wal {
            if wal.appends_since_checkpoint() >= crate::run::CHECKPOINT_EVERY {
                let pin = epochs.pin();
                t.span("core.wal", |_| wal.checkpoint(pin.db()))
                    .map_err(|e| format!("checkpoint: {e}"))?;
                self.counts.checkpoints += 1;
            }
        }
        Ok(())
    }

    /// One write step: `AdvanceClock` (for tick writers) and `Update`.
    fn write_step(&mut self, t: &mut Tracer) -> Res<()> {
        if self.spec.writer == Writer::Ticks {
            self.serve(t, "request:advance", &Request::AdvanceClock { ticks: 1 }, |r, t, _| {
                r.mutate(t, WalRecord::Advance { ticks: 1 }, |db| {
                    db.advance_clock(1);
                    Ok(())
                })?;
                Ok(Response::Tick { now: 0 })
            })?;
        }
        self.batches += 1;
        self.counts.batches += 1;
        let req = Request::Update { ops: self.world.batch(self.batches, self.spec.batch) };
        self.serve(t, "request:update", &req, |r, t, decoded| {
            let Request::Update { ops } = decoded else { unreachable!("decoded what was encoded") };
            let count = ops.len() as u64;
            if let Engine::Sharded(db) = &r.engine {
                t.span("core.sharded", |_| db.apply_updates(&ops)).map_err(|e| e.to_string())?;
            } else {
                r.mutate(t, WalRecord::Batch { ops: ops.clone() }, |db| {
                    db.apply_updates(&ops).map_err(|e| e.to_string())
                })?;
            }
            Ok(Response::Applied { count })
        })
    }

    /// The parse-once cache of the server, re-enacted: `Query::parse`
    /// runs (and is timed) only for a text not seen before.
    fn parse(&mut self, t: &mut Tracer, text: &str) -> Res<Query> {
        if let Some(q) = self.parsed.get(text) {
            return Ok(q.clone());
        }
        self.counts.parse_misses += 1;
        let q = t.span("ftl.parse", |_| Query::parse(text)).map_err(|e| e.to_string())?;
        self.parsed.insert(text.to_owned(), q.clone());
        Ok(q)
    }

    /// One read request of connection `conn`.
    fn read_step(&mut self, t: &mut Tracer, conn: usize) -> Res<()> {
        let i = self.reads[conn - 1];
        self.reads[conn - 1] += 1;
        let history = conn == 2 && self.spec.history_reads;
        let req = self.world.read_request(conn as u64, i, self.spec.shapes, history);
        let probe = self.world.query_region(conn as u64, i, self.spec.shapes).copied();
        self.serve(t, "request:query", &req, |r, t, decoded| {
            let (text, origin) = match decoded {
                Request::Instantaneous { query } => (query, None),
                Request::Persistent { query, origin } => (query, Some(origin)),
                Request::Alibi { a, b, vmax, begin, end } => {
                    return r.alibi(t, a, b, vmax, begin, end)
                }
                Request::Aggregate { begin, end, k } => return r.aggregate(t, begin, end, k),
                other => return Err(format!("unscripted read {other:?}")),
            };
            let q = r.parse(t, &text)?;
            let (now, answer) = match &r.engine {
                Engine::Sharded(db) => {
                    let cut = t.span("core.sharded", |_| db.pin());
                    (cut.now(), t.span("core.sharded", |_| cut.instantaneous(&q)))
                }
                Engine::Single { epochs, .. } => {
                    let pin = t.span("core.epoch", |_| epochs.pin());
                    let answer = t.span("ftl.eval", |_| match origin {
                        None => pin.db().instantaneous_readonly(&q),
                        Some(origin) => pin.db().persistent_answer(&q, origin),
                    });
                    if let (true, Some(rect)) = (r.spec.index && origin.is_none(), probe) {
                        // The evaluation probed the index for this region
                        // from inside; the same probe again, from outside,
                        // is the share of `ftl.eval` the index accounts for.
                        t.repeat_under(t.last(), "index", |_| pin.db().objects_in_rect_at(&rect));
                    }
                    (pin.now(), answer)
                }
            };
            let answer = answer.map_err(|e| e.to_string())?;
            r.counts.result_rows += answer.len() as u64;
            Ok(Response::Answer { now, answer })
        })
    }

    fn history(&self) -> &HistoryRecorder {
        match &self.engine {
            Engine::Single { hist, .. } => hist,
            Engine::Sharded(_) => {
                unreachable!("history reads are scripted for single engines only")
            }
        }
    }

    fn alibi(
        &mut self,
        t: &mut Tracer,
        a: u64,
        b: u64,
        vmax: f64,
        begin: u64,
        end: u64,
    ) -> Res<Response> {
        let range = Interval::new(begin, end);
        let meets = t
            .span("hist", |_| self.history().with(|s| s.alibi(a, b, vmax, range).into_intervals()));
        Ok(Response::Alibi { now: 0, meets })
    }

    fn aggregate(&mut self, t: &mut Tracer, begin: u64, end: u64, k: u64) -> Res<Response> {
        let (window, tops) = t.span("hist", |_| {
            self.history().with(|s| {
                let agg = s.aggregates();
                let window = agg.window();
                let tops = agg
                    .window_starts()
                    .into_iter()
                    .filter(|&start| start <= end && start.saturating_add(window - 1) >= begin)
                    .map(|start| WindowCounts { start, counts: agg.top_k(start, k as usize) })
                    .collect();
                (window, tops)
            })
        });
        Ok(Response::Aggregate { now: 0, window, tops })
    }

    /// One cycle of the workload's request pattern.
    fn cycle(&mut self, t: &mut Tracer, writes: u64, reads: u64) -> Res<()> {
        for _ in 0..writes {
            self.write_step(t)?;
        }
        for _ in 0..reads {
            if self.spec.writer == Writer::Queries {
                self.read_step(t, 1)?;
            }
            self.read_step(t, 2)?;
        }
        Ok(())
    }

    /// The published single database (shard 0 of a sharded engine).
    fn with_db<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        match &self.engine {
            Engine::Single { epochs, .. } => f(epochs.pin().db()),
            Engine::Sharded(db) => f(db.pin().shard(0)),
        }
    }
}

/// `a / b`, and 0 when nothing was counted.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The obs counters the ledger reads, or `None` without the `obs`
/// feature (the metric is then absent, not 0).
fn obs_counters() -> Option<[u64; 5]> {
    most_obs::is_enabled().then(|| {
        [
            "ftl.candidates_evaluated",
            "ftl.plan.cache_hits",
            "ftl.plan.cache_misses",
            "wal.bytes",
            "wal.appends",
        ]
        .map(most_obs::counter_value)
    })
}

/// Self time per layer and request category: `(category, layer) →
/// (calls, nanoseconds)`, a span's children subtracted from it.
fn ledger(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), (u64, u64)> {
    let mut children = vec![0u64; spans.len() + 1];
    for s in spans {
        children[s.parent as usize] += s.end_ns - s.start_ns;
    }
    let mut category: BTreeMap<u32, &'static str> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent == 0 && s.request > 0) {
        category.insert(s.request, s.name);
    }
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let Some(cat) = category.get(&s.request) else {
            continue;
        };
        let own = (s.end_ns - s.start_ns).saturating_sub(children[i + 1]);
        let e = out.entry((*cat, s.name)).or_insert((0, 0));
        *e = (e.0 + 1, e.1 + own);
    }
    out
}

fn dump(out_dir: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let spans = spans
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("name".to_owned(), Json::Str(s.name.to_owned())),
                ("request".to_owned(), Json::Int(i64::from(s.request))),
                ("parent".to_owned(), Json::Int(i64::from(s.parent))),
                ("start_ns".to_owned(), Json::Int(s.start_ns as i64)),
                ("end_ns".to_owned(), Json::Int(s.end_ns as i64)),
            ])
        })
        .collect();
    let doc = Json::Obj(vec![
        ("workload".to_owned(), Json::Str(workload.to_owned())),
        ("spans".to_owned(), Json::Arr(spans)),
    ]);
    std::fs::create_dir_all(out_dir)?;
    std::fs::write(
        out_dir.join(format!("trace-{workload}.json")),
        doc.render().expect("spans render"),
    )
}

/// Runs the traced variant of one workload and returns the per-layer
/// metrics.
pub fn run(spec: &Spec, seed: u64, seconds: f64, out_dir: &Path) -> Res<Outcome> {
    let mut dirs = WalDirs::new(out_dir);
    let mut out = Outcome::default();

    // 1. The wire: mean latency per request category, fan-out counters.
    let wire = wire_sample(spec, seed, seconds * 0.4, &mut dirs)?;
    out.attempted = wire.tally.attempted;
    out.failed = wire.tally.failed;
    let categories = [
        ("request:query", Kind::Query),
        ("request:update", Kind::Update),
        ("request:advance", Kind::Advance),
    ];
    let wire_ns: BTreeMap<&str, (usize, f64)> = categories
        .iter()
        .map(|(name, kind)| {
            let ms = wire.tally.latencies_ms(*kind);
            (*name, (ms.len(), ratio(ms.iter().sum::<f64>() * 1e6, ms.len() as f64)))
        })
        .collect();

    // The replay interleaves reads and writes in the wire run's ratio.
    let (w, r) = (wire_ns["request:update"].0 as f64, wire_ns["request:query"].0 as f64);
    let (writes, reads) = match (spec.writer, spec.reader) {
        (Writer::Queries, _) => (0, 1),
        (_, Reader::Passive) => (1, 0),
        _ if r >= w => (1, (r / w).round() as u64),
        _ => ((w / r).round() as u64, 1),
    };

    // 2. The traced replay, for a share of the time; 3. the same cycles
    // bare.
    let world = spec.world(seed);
    let obs_before = obs_counters();
    let mut tracer = Tracer::new(true);
    let mut traced = Replay::new(spec, &world, &dirs.fresh(), &mut tracer)?;
    let refresh_before = traced.with_db(|db| (db.continuous_evaluations(), db.skipped_refreshes()));
    let shard_epochs_before: u64 = match &traced.engine {
        Engine::Sharded(db) => db.shard_stats().iter().map(|s| s.current).sum(),
        Engine::Single { .. } => 0,
    };
    let started = Instant::now();
    let mut cycles = 0u64;
    while cycles == 0 || started.elapsed().as_secs_f64() < seconds * 0.3 {
        traced.cycle(&mut tracer, writes, reads)?;
        cycles += 1;
    }
    let with_spans = started.elapsed().as_secs_f64();
    let obs_after = obs_counters();
    let mut bare_tracer = Tracer::new(false);
    let mut bare = Replay::new(spec, &world, &dirs.fresh(), &mut bare_tracer)?;
    let started = Instant::now();
    for _ in 0..cycles {
        bare.cycle(&mut bare_tracer, writes, reads)?;
    }
    let without_spans = started.elapsed().as_secs_f64();
    drop(bare);

    // Recovery of the traced replay's log, split into checkpoint decode
    // and record replay.
    let mut decode_share = 0.0;
    if let Engine::Single { wal: Some(wal), .. } = &traced.engine {
        let dir = wal.dir().to_path_buf();
        tracer.request = 0;
        let recovered =
            tracer.span("core.wal", |_| recover(&dir)).map_err(|e| format!("recover: {e}"))?;
        let whole = tracer.spans.last().map_or(0, |s| s.end_ns - s.start_ns);
        let parent = tracer.last();
        tracer.repeat_under(parent, "core.wal.checkpoint_decode", |_| -> Res<Database> {
            let text =
                std::fs::read_to_string(dir.join("checkpoint.json")).map_err(|e| e.to_string())?;
            let doc = Json::parse(&text).map_err(|e| e.to_string())?;
            Database::from_json(doc.field("db").map_err(|e| e.to_string())?)
                .map_err(|e| e.to_string())
        })?;
        let decode = tracer.spans.last().map_or(0, |s| s.end_ns - s.start_ns);
        decode_share = ratio(decode as f64, whole as f64);
        if recovered.db.fingerprint() != traced.with_db(Database::fingerprint) {
            out.gate_failures
                .push("the traced replay's log does not recover to its final state".into());
        }
    }

    // The ledger.
    let table = ledger(&tracer.spans);
    let replayed: BTreeMap<&str, u64> =
        categories.iter().map(|(c, _)| (*c, table.get(&(*c, *c)).map_or(0, |e| e.0))).collect();
    let total_requests: u64 = replayed.values().sum();
    let wire_mean_ns = ratio(
        categories.iter().map(|(c, _)| replayed[c] as f64 * wire_ns[c].1).sum(),
        total_requests as f64,
    );
    let mut covered = 0.0;
    out.notes.push(format!(
        "per-layer ledger: {cycles} cycles of {writes} write steps + {reads} reads, {total_requests} requests"
    ));
    out.notes.push(format!(
        "  {:<16} {:<16} {:>8} {:>14} {:>10}",
        "category", "layer", "calls", "mean ns/call", "of wire"
    ));
    for layer in LAYERS {
        let mut ns = 0u64;
        for (cat, _) in categories {
            let Some((calls, own)) = table.get(&(cat, layer)) else {
                continue;
            };
            ns += own;
            out.notes.push(format!(
                "  {:<16} {layer:<16} {calls:>8} {:>14.0} {:>9.1}%",
                cat.trim_start_matches("request:"),
                ratio(*own as f64, *calls as f64),
                100.0 * ratio(*own as f64 / replayed[cat] as f64, wire_ns[cat].1),
            ));
        }
        let per_request = ratio(ns as f64, total_requests as f64);
        covered += per_request;
        out.metrics.push(Metric {
            name: format!("{layer}_us"),
            value: per_request / 1e3,
            unit: "us",
            samples: total_requests as usize,
        });
    }
    for (cat, _) in categories {
        if replayed[cat] > 0 {
            let own: u64 = LAYERS.iter().filter_map(|l| table.get(&(cat, *l))).map(|e| e.1).sum();
            out.notes.push(format!(
                "  {:<16} coverage {:.3} of the wire mean {:.0} ns (n={})",
                cat.trim_start_matches("request:"),
                ratio(own as f64 / replayed[cat] as f64, wire_ns[cat].1),
                wire_ns[cat].1,
                wire_ns[cat].0
            ));
        }
    }
    let mut push = |name: &str, value: f64, unit: &'static str| {
        out.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            samples: total_requests as usize,
        });
    };
    push("server.session_us", (wire_mean_ns - covered) / 1e3, "us");
    push("wire_mean_us", wire_mean_ns / 1e3, "us");
    push("coverage", ratio(covered, wire_mean_ns), "ratio");
    push("trace_overhead", ratio(with_spans, without_spans) - 1.0, "ratio");
    let c = &traced.counts;
    push("protocol.bytes_in_per_req", ratio(c.bytes_in as f64, c.requests as f64), "B");
    push("protocol.bytes_out_per_req", ratio(c.bytes_out as f64, c.requests as f64), "B");
    push("ftl.parse_misses", c.parse_misses as f64, "count");
    let refresh_after = traced.with_db(|db| (db.continuous_evaluations(), db.skipped_refreshes()));
    let (evaluated, skipped) =
        ((refresh_after.0 - refresh_before.0) as f64, (refresh_after.1 - refresh_before.1) as f64);
    push("refresh.skipped_share", ratio(skipped, evaluated + skipped), "ratio");
    let state_bytes = traced.with_db(|db| (to_json_string(db).map_or(0, |s| s.len()), db.len()));
    push("epoch.bytes_per_object", ratio(state_bytes.0 as f64, state_bytes.1 as f64), "B");
    push("wal.fsyncs", (c.wal_appends + c.checkpoints) as f64, "count");
    push("wal.recover_decode_share", decode_share, "ratio");
    let hist_ns: u64 =
        categories.iter().filter_map(|(cat, _)| table.get(&(*cat, "hist"))).map(|e| e.1).sum();
    push("hist.legs_per_s", ratio(c.legs as f64, hist_ns as f64 / 1e9), "1/s");
    let shard_epochs: u64 = match &traced.engine {
        Engine::Sharded(db) => {
            db.shard_stats().iter().map(|s| s.current).sum::<u64>() - shard_epochs_before
        }
        Engine::Single { .. } => 0,
    };
    push("sharded.shards_per_batch", ratio(shard_epochs as f64, c.batches as f64), "ratio");
    push("session.deltas", wire.deltas.0 as f64, "count");
    push("session.dropped", wire.deltas.1 as f64, "count");
    push("session.lagged", wire.lagged as f64, "count");
    match (obs_before, obs_after) {
        (Some(b), Some(a)) => {
            let d: Vec<f64> = a.iter().zip(b).map(|(a, b)| (a - b) as f64).collect();
            push("ftl.candidates_per_row", ratio(d[0], c.result_rows as f64), "ratio");
            push("ftl.plan_cache_hit_share", ratio(d[1], d[1] + d[2]), "ratio");
            push("wal.bytes_per_record", ratio(d[3], d[4]), "B");
        }
        _ => out.notes.push(
            "  ftl.candidates_per_row, ftl.plan_cache_hit_share, wal.bytes_per_record: absent (built without `obs`)"
                .into(),
        ),
    }
    if wire.deltas.1 > 0 || wire.lagged > 0 || out.failed > 0 {
        out.gate_failures.push(format!(
            "{} requests failed, {} deltas dropped, lagged {}",
            out.failed, wire.deltas.1, wire.lagged
        ));
    }
    out.sizes.extend([
        ("cars", world.len() as u64),
        ("traced_requests", total_requests),
        ("spans", tracer.spans.len() as u64),
    ]);
    dump(out_dir, spec.name, &tracer.spans).map_err(|e| format!("trace dump: {e}"))?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_groups_by_request_category() {
        let mut t = Tracer::new(true);
        t.request("request:query", |t| {
            t.span("ftl.eval", |t| {
                t.span("index", |_| std::thread::sleep(std::time::Duration::from_millis(2)))
            });
        });
        t.request("request:update", |t| t.span("core.wal", |_| ()));
        assert_eq!(t.spans.len(), 5);
        assert_eq!((t.spans[2].parent, t.spans[2].request), (2, 1));
        let table = ledger(&t.spans);
        let eval = table[&("request:query", "ftl.eval")];
        let index = table[&("request:query", "index")];
        assert_eq!((eval.0, index.0), (1, 1));
        assert!(index.1 >= 2_000_000 && eval.1 < index.1, "eval {eval:?} index {index:?}");
        assert!(table.contains_key(&("request:update", "core.wal")));
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.request("request:query", |t| t.span("ftl.eval", |_| 7)), 7);
        assert!(t.spans.is_empty());
    }
}
