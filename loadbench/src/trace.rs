//! The traced run: separate from the timed runs, same seed, and it
//! reports the per-layer metrics. Layers are the workspace modules,
//! measured from outside:
//!
//! 1. over TCP, the workload through the router (latency against each
//!    reply's `elapsed_s`, shard `stats` before and after), then the
//!    same requests on a fresh fleet straight to each owning shard;
//! 2. in process, the same lines through the public calls in pipeline
//!    order (`Json::parse`, spec loading, `TenantRegistry::checkout`,
//!    the verb's solver entry point, response encoding), one span per
//!    call and `Engine::stats()` deltas per request, once traced and
//!    once untraced (their difference is the tracing overhead);
//! 3. the same lines through `Pool::submit` on the workload's schedule,
//!    for queue wait against execution time.
//!
//! Spans are kept in memory and written out when the run ends.

use crate::drive::{self, Phase, Sample};
use crate::fleet::{target_dir, ShardCounters, SHARDS};
use crate::gen::{Drive, Request, Stream, Workload, HI_RATE, RATE_LIMIT_MS};
use crate::oracle::registry;
use crate::report::{Metric, Outcome};
use crate::stats::{mean, median};
use crate::timed::{cache_dir, offer, set_up_once, verify};
use classifier::ClassifierStats;
use cq::EnumConfig;
use cqsep::{sep_cq, sep_cqm, sep_ghw};
use engine::{Ctx, EngineStats};
use relational::Delta;
use service::json::{escape, Json};
use service::{
    load_database, load_training, shard_for, ClassSpec, Job, Pool, Task, TenantRegistry,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// The traced request total the layer spans must cover (ROADMAP gate).
pub const MIN_COVERAGE: f64 = 0.95;

/// One timed call: a name, when it ran, the span that called it, and
/// the request it served.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; otherwise runs the calls bare.
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now();
        out
    }

    /// Self time per span name: each span's duration minus what its
    /// children cover.
    pub fn self_ns(&self) -> HashMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out = HashMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += s.ns().saturating_sub(c);
        }
        out
    }

    /// Share of the root spans' time that their layer spans cover.
    pub fn coverage(&self) -> f64 {
        let total: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::ns)
            .sum();
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].parent.is_none()))
            .map(Span::ns)
            .sum();
        if total == 0 {
            0.0
        } else {
            covered as f64 / total as f64
        }
    }

    fn to_json(&self) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":{},\"request\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                    escape(s.name),
                    s.request,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.start_ns,
                    s.end_ns
                )
            })
            .collect();
        format!("[{}]", spans.join(",\n"))
    }
}

/// Engine counters summed over the replayed requests.
#[derive(Default)]
struct Counters {
    requests: u64,
    engine: Vec<EngineStats>,
    trie: ClassifierStats,
}

impl Counters {
    fn sum(&self, f: impl Fn(&EngineStats) -> u64) -> f64 {
        self.engine.iter().map(f).sum::<u64>() as f64
    }

    fn per_request(&self, f: impl Fn(&EngineStats) -> u64) -> f64 {
        self.sum(f) / self.requests.max(1) as f64
    }

    fn ratio(
        &self,
        hits: impl Fn(&EngineStats) -> u64,
        misses: impl Fn(&EngineStats) -> u64,
    ) -> f64 {
        let h = self.sum(hits);
        let total = h + self.sum(misses);
        if total == 0.0 {
            0.0
        } else {
            h / total
        }
    }
}

/// Run one request through the layers' public calls, under spans.
fn replay_one(
    rec: &mut Recorder,
    registry: &TenantRegistry,
    request: &Request,
    output: &str,
    counters: &mut Counters,
) -> Result<(), String> {
    let id = request.id;
    let line = request.line();
    rec.span("request", id, |rec| {
        rec.span("json.parse", id, |_| black_box(Json::parse(&line)))?;
        let tenant = rec.span("tenant.checkout", id, |_| {
            registry.checkout(Some(&request.tenant))
        })?;
        let ctx = tenant.engine.ctx();
        let before = tenant.engine.stats();
        match &request.task {
            Task::Check { train, classes } => {
                let train = rec.span("relational.load", id, |_| load_training(train))?;
                check(rec, id, &ctx, &train, classes)?;
            }
            Task::Recheck { name, classes } => {
                let train = rec
                    .span("tenant.residents", id, |_| tenant.residents.get(name))
                    .ok_or_else(|| format!("no resident {name:?}"))?;
                check(rec, id, &ctx, &train, classes)?;
            }
            Task::Classify {
                train,
                eval,
                class: ClassSpec::Cq,
            } => {
                let (train, eval) = rec.span("relational.load", id, |_| {
                    Ok::<_, String>((load_training(train)?, load_database(eval)?))
                })?;
                rec.span("core.sep_cq", id, |_| {
                    sep_cq::cq_classify_in(&ctx, &train, &eval)
                })
                .map_err(|e| e.to_string())?
                .ok_or("not CQ-separable")?;
            }
            Task::ClassifyBatch {
                train,
                eval,
                class: ClassSpec::Cqm(m),
            } => {
                let (train, eval) = rec.span("relational.load", id, |_| {
                    Ok::<_, String>((load_training(train)?, load_database(eval)?))
                })?;
                let model = rec
                    .span("core.generate", id, |_| {
                        sep_cqm::cqm_generate_in(&ctx, &train, &EnumConfig::cqm(*m))
                    })
                    .map_err(|e| e.to_string())?
                    .ok_or("not CQ[m]-separable")?;
                let compiled = rec.span("classifier.compile", id, |_| {
                    classifier::Model::compile_separator(&model)
                });
                let (_, stats) = rec
                    .span("classifier.eval", id, |_| compiled.classify_in(&ctx, &eval))
                    .map_err(|e| e.to_string())?;
                counters.trie.merge(&stats);
            }
            Task::Append { name, base, delta } => {
                if let Some(base) = base {
                    let train = rec.span("relational.load", id, |_| load_training(base))?;
                    rec.span("tenant.residents", id, |_| {
                        tenant.residents.insert(name, train)
                    });
                }
                let mut train = rec
                    .span("tenant.residents", id, |_| tenant.residents.get(name))
                    .ok_or_else(|| format!("no resident {name:?}"))?;
                rec.span("relational.delta", id, |_| {
                    let delta = Delta::parse(delta).map_err(|e| e.to_string())?;
                    match ctx.apply_training_delta(&mut train, &delta) {
                        Ok(Ok(_)) => Ok(()),
                        Ok(Err(e)) => Err(e.to_string()),
                        Err(e) => Err(e.to_string()),
                    }
                })?;
                rec.span("tenant.residents", id, |_| {
                    tenant.residents.insert(name, train)
                });
            }
            other => {
                return Err(format!(
                    "the trace does not replay {:?} requests",
                    other.kind()
                ))
            }
        }
        counters.engine.push(tenant.engine.stats().since(&before));
        counters.requests += 1;
        rec.span("json.encode", id, |_| {
            let reply = Json::Obj(vec![
                ("id".to_string(), Json::Num(id as f64)),
                ("status".to_string(), Json::Str("ok".to_string())),
                ("elapsed_s".to_string(), Json::Num(0.001)),
                ("output".to_string(), Json::Str(output.to_string())),
            ]);
            black_box(reply.to_string());
        });
        Ok(())
    })
}

/// A check report's solver calls: each class's separability test, and
/// its witness search when the answer is no.
fn check(
    rec: &mut Recorder,
    id: u64,
    ctx: &Ctx,
    train: &relational::TrainingDb,
    classes: &[ClassSpec],
) -> Result<(), String> {
    for &class in classes {
        let run = |rec: &mut Recorder| -> Result<(), engine::Interrupted> {
            match class {
                ClassSpec::Cq => rec.span("core.sep_cq", id, |_| {
                    if !sep_cq::cq_separable_in(ctx, train)? {
                        sep_cq::cq_inseparability_witness_in(ctx, train)?;
                    }
                    Ok(())
                }),
                ClassSpec::Ghw(k) => rec.span("core.sep_ghw", id, |_| {
                    if !sep_ghw::ghw_separable_in(ctx, train, k)? {
                        sep_ghw::ghw_inseparability_witness_in(ctx, train, k)?;
                    }
                    Ok(())
                }),
                ClassSpec::Cqm(m) => rec.span("core.sep_cqm", id, |_| {
                    sep_cqm::cqm_separable_in(ctx, train, &EnumConfig::cqm(m)).map(|_| ())
                }),
            }
        };
        run(rec).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// One registry per shard, configured like the shards (snapshots under
/// `<root>/shard-<i>`).
fn registries(workload: Workload, root: &Option<PathBuf>) -> Vec<TenantRegistry> {
    (0..SHARDS)
        .map(|i| {
            let dir = root.as_ref().map(|d| d.join(format!("shard-{i}")));
            registry(workload, dir.as_deref())
        })
        .collect()
}

/// Replay set-up requests untimed, then `samples` under `rec`, on fresh
/// in-process registries shaped like the shards'. Returns the engine
/// counters and the per-request totals (ns).
fn replay(
    stream: &Stream,
    samples: &[Sample],
    rec: &mut Recorder,
) -> Result<(Counters, Vec<u64>, Vec<TenantRegistry>), String> {
    let snapshots = cache_dir(stream.workload)?;
    let regs = registries(stream.workload, &snapshots);
    let mut scratch = Counters::default();
    let mut off = Recorder::new(false);
    for r in stream.probes().into_iter().chain(stream.priming()) {
        replay_one(
            &mut off,
            &regs[shard_for(&r.tenant, SHARDS)],
            &r,
            "",
            &mut scratch,
        )?;
    }
    let mut counters = Counters::default();
    let mut totals = Vec::new();
    for s in samples {
        let reg = &regs[shard_for(&s.request.tenant, SHARDS)];
        let t = Instant::now();
        replay_one(
            rec,
            reg,
            &s.request,
            s.output().unwrap_or(""),
            &mut counters,
        )?;
        totals.push(t.elapsed().as_nanos() as u64);
    }
    if let Some(dir) = snapshots {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok((counters, totals, regs))
}

/// Queue wait and execution time (ms) of `samples` replayed through
/// one `Pool` per shard on the workload's schedule.
fn pool_replay(stream: &Stream, phase: &Phase) -> Result<(Vec<f64>, Vec<f64>, usize), String> {
    let snapshots = cache_dir(stream.workload)?;
    let pools: Vec<Pool> = registries(stream.workload, &snapshots)
        .into_iter()
        .map(|reg| Pool::with_tenants(Arc::new(reg), 2, 64))
        .collect();
    let job = |r: &Request| Job {
        id: r.id,
        task: r.task.clone(),
        timeout: None,
        priority: 0,
        tenant: Some(r.tenant.clone()),
    };
    let pool_of = |r: &Request| &pools[shard_for(&r.tenant, SHARDS)];
    // Set-up requests, one at a time, untimed.
    for r in stream.probes().into_iter().chain(stream.priming()) {
        let (tx, rx) = mpsc::channel();
        pool_of(&r).submit(job(&r), tx).map_err(|_| "pool closed")?;
        rx.recv().map_err(|_| "pool dropped a set-up job")?;
    }
    // (submitted, done, response) per sample.
    let results: Mutex<Vec<(Instant, Instant, service::Response)>> = Mutex::new(Vec::new());
    match stream.workload.drive() {
        Drive::Open { .. } => {
            let (tx, rx) = mpsc::channel();
            let started = Instant::now();
            let t0 = phase
                .samples
                .first()
                .map(|s| s.due)
                .unwrap_or(phase.started);
            let mut submitted = HashMap::new();
            std::thread::scope(|s| {
                let collector = s.spawn(move || {
                    rx.iter()
                        .map(|resp: service::Response| (Instant::now(), resp))
                        .collect::<Vec<_>>()
                });
                for sample in &phase.samples {
                    let due = started + (sample.due - t0);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    submitted.insert(sample.request.id, Instant::now());
                    let _ = pool_of(&sample.request).submit(job(&sample.request), tx.clone());
                }
                drop(tx);
                let got = collector.join().expect("collector panicked");
                let mut out = results.lock().expect("no panic");
                for (done, resp) in got {
                    out.push((submitted[&resp.id], done, resp));
                }
            });
        }
        Drive::Closed { conns } => {
            // As in the timed run: lanes of rounds stay on their shard in
            // order; other requests go to whichever client is free.
            let lanes = AtomicUsize::new(0);
            let next = AtomicUsize::new(0);
            let rounds = stream.workload.stateful();
            let client = || {
                let lane = lanes.fetch_add(1, Ordering::Relaxed);
                let mut mine = phase
                    .samples
                    .iter()
                    .filter(|s| shard_for(&s.request.tenant, SHARDS) == lane);
                loop {
                    let sample = if rounds {
                        mine.next()
                    } else {
                        phase.samples.get(next.fetch_add(1, Ordering::Relaxed))
                    };
                    let Some(sample) = sample else {
                        break;
                    };
                    let (tx, rx) = mpsc::channel();
                    let at = Instant::now();
                    if pool_of(&sample.request)
                        .submit(job(&sample.request), tx)
                        .is_err()
                    {
                        break;
                    }
                    if let Ok(resp) = rx.recv() {
                        results
                            .lock()
                            .expect("no panic")
                            .push((at, Instant::now(), resp));
                    }
                }
            };
            std::thread::scope(|s| {
                for _ in 1..conns {
                    s.spawn(client);
                }
                client();
            });
        }
    }
    for p in &pools {
        p.close();
        p.join();
    }
    if let Some(dir) = snapshots {
        let _ = std::fs::remove_dir_all(dir);
    }
    let results = results.into_inner().expect("no panic");
    let expected: HashMap<u64, &str> = phase
        .samples
        .iter()
        .map(|s| (s.request.id, s.output().unwrap_or("")))
        .collect();
    let mut wrong = phase.samples.len().saturating_sub(results.len());
    let mut waits = Vec::new();
    let mut execs = Vec::new();
    for (at, done, resp) in results {
        let exec = resp.elapsed.as_secs_f64() * 1e3;
        waits.push((done - at).as_secs_f64() * 1e3 - exec);
        execs.push(exec);
        match resp.outcome {
            service::Outcome::Success(out)
                if Some(&out.output.as_str()) == expected.get(&resp.id) => {}
            _ => wrong += 1,
        }
    }
    Ok((waits, execs, wrong))
}

fn ms(ns: u64, n: usize) -> f64 {
    ns as f64 / 1e6 / n.max(1) as f64
}

fn med(mut v: Vec<f64>) -> f64 {
    median(&mut v).unwrap_or(0.0)
}

pub fn run(
    router: &Path,
    workload: Workload,
    seed: u64,
    window: Duration,
) -> Result<Outcome, String> {
    let stream = Stream::new(workload, seed);
    let drive = workload.drive();
    let mut problems = Vec::new();

    // 1a. Through the router, for half the window: every later step
    // replays these requests again, and the solver's take as long again.
    let fleet = set_up_once(router, &stream)?;
    let before = fleet.shard_counters()?;
    let fwd_before = fleet.forwarded()?;
    let routed = offer(&fleet, &stream, window / 2);
    let after = fleet.shard_counters()?;
    let fwd_after = fleet.forwarded()?;
    // Open loop: climb the rate ladder from HI_RATE; its first rung is
    // the mix's latency under load.
    let rungs = match drive {
        Drive::Open { .. } => {
            let first = routed.samples.len() as u64;
            let to = 8.0 * HI_RATE;
            drive::ladder(fleet.addr, &stream, first, HI_RATE, to, 1.1, RATE_LIMIT_MS)
        }
        Drive::Closed { .. } => Vec::new(),
    };
    for r in &rungs {
        let verdict = if r.pass { "passes" } else { "fails" };
        eprintln!(
            "loadbench: ladder {:.0} req/s: p50 {:.2} ms, p99 {:.2} ms, {verdict}",
            r.rate, r.p50_ms, r.p99_ms
        );
    }
    if let Err(e) = fleet.stop() {
        problems.push(e);
    }
    let delta = ShardCounters::delta(&after, &before);
    let verdict = verify(&stream, &routed, &delta);
    problems.extend(verdict.problems);
    let mut failed = verdict.failed;

    // 1b. Straight to the owning shards, on a fresh fleet.
    let fleet = set_up_once(router, &stream)?;
    let direct = drive::direct(&fleet.shards, drive, &routed);
    if let Err(e) = fleet.stop() {
        problems.push(e);
    }
    for (d, r) in direct.samples.iter().zip(&routed.samples) {
        if d.status() != "ok" || d.output() != r.output() {
            failed += 1;
            if problems.len() < 5 {
                problems.push(format!("direct replay of request {} differs", d.request.id));
            }
        }
    }

    // 2. In process: untraced, traced, untraced again, so drift between
    // replays (warm-up, background load) cancels out of the overhead.
    let (_, before, _) = replay(&stream, &routed.samples, &mut Recorder::new(false))?;
    let mut rec = Recorder::new(true);
    let (counters, traced, regs) = replay(&stream, &routed.samples, &mut rec)?;
    let (_, after, _) = replay(&stream, &routed.samples, &mut Recorder::new(false))?;
    let coverage = rec.coverage();
    if coverage < MIN_COVERAGE {
        problems.push(format!(
            "layer spans cover {:.1}% of the traced request time (gate {:.0}%)",
            coverage * 100.0,
            MIN_COVERAGE * 100.0
        ));
    }
    let traced_ns: u64 = traced.iter().sum();
    let overhead = traced
        .iter()
        .zip(before.iter().zip(&after))
        .map(|(&t, (&b, &a))| 2.0 * t as f64 / (a + b).max(1) as f64 - 1.0)
        .collect();
    let overhead_pct = med(overhead) * 100.0;

    // 3. Through the worker pool, on the workload's schedule.
    let (waits, execs, pool_wrong) = pool_replay(&stream, &routed)?;
    if pool_wrong > 0 {
        failed += pool_wrong as u64;
        problems.push(format!(
            "{pool_wrong} pool replies differ from the routed ones"
        ));
    }

    let spans_path = write_spans(workload, seed, &rec)?;
    eprintln!("loadbench: spans written to {}", spans_path.display());

    let n = counters.requests as usize;
    let self_ns = rec.self_ns();
    let layer_ms = |name: &str| ms(self_ns.get(name).copied().unwrap_or(0), n);
    let ok: Vec<&Sample> = routed
        .samples
        .iter()
        .filter(|s| s.status() == "ok")
        .collect();
    let wire = |p: &Phase| med(p.samples.iter().filter_map(Sample::wire_ms).collect());
    let latencies = |write: bool| {
        med(ok
            .iter()
            .filter(|s| s.request.is_write() == write)
            .filter_map(|s| s.latency_ms())
            .collect())
    };
    let fwd: Vec<f64> = fwd_after
        .iter()
        .zip(&fwd_before)
        .map(|(a, b)| a - b)
        .collect();
    let fwd_total: f64 = fwd.iter().sum();
    let skew = fwd.iter().cloned().fold(0.0, f64::max) / (fwd_total / SHARDS as f64).max(1.0);
    let restored: u64 = regs.iter().map(TenantRegistry::restored_entries).sum();

    let m = |name: &'static str, unit: &'static str, value: f64| Metric { name, unit, value };
    let metrics = vec![
        m("gen.late_ms", "ms", routed.late_p99_ms()),
        m("gen.max_rate_rps", "1/s", drive::max_rate(&rungs)),
        m(
            "gen.hi_p50_ms",
            "ms",
            rungs.first().map_or(0.0, |r| r.p50_ms),
        ),
        m(
            "gen.hi_p99_ms",
            "ms",
            rungs.first().map_or(0.0, |r| r.p99_ms),
        ),
        m("verb.write_p50_ms", "ms", latencies(true)),
        m("verb.read_p50_ms", "ms", latencies(false)),
        m("router.hop_ms", "ms", wire(&routed) - wire(&direct)),
        m("router.forwarded", "count", fwd_total),
        m("router.shard_skew", "ratio", skew),
        m("server.wire_ms", "ms", wire(&routed)),
        m("json.parse_us", "us", layer_ms("json.parse") * 1e3),
        m("json.encode_us", "us", layer_ms("json.encode") * 1e3),
        m(
            "json.request_bytes",
            "bytes",
            mean(
                &routed
                    .samples
                    .iter()
                    .map(|s| s.request.line().len() as f64 + 1.0)
                    .collect::<Vec<_>>(),
            )
            .unwrap_or(0.0),
        ),
        m(
            "json.response_bytes",
            "bytes",
            mean(
                &routed
                    .samples
                    .iter()
                    .map(|s| s.reply_bytes as f64)
                    .collect::<Vec<_>>(),
            )
            .unwrap_or(0.0),
        ),
        m("pool.wait_ms", "ms", mean(&waits).unwrap_or(0.0)),
        m("pool.exec_ms", "ms", mean(&execs).unwrap_or(0.0)),
        m("pool.executed", "count", delta.executed),
        m("pool.failed", "count", delta.failed),
        m("tenant.checkout_ms", "ms", layer_ms("tenant.checkout")),
        m("tenant.residents_ms", "ms", layer_ms("tenant.residents")),
        m("tenant.evictions", "count", delta.evictions),
        m("tenant.warm_restores", "count", delta.warm_restores),
        m("tenant.restored_entries", "count", delta.restored_entries),
        m("relational.load_ms", "ms", layer_ms("relational.load")),
        m("relational.delta_ms", "ms", layer_ms("relational.delta")),
        m(
            "hom.searches",
            "count/req",
            counters.per_request(|s| s.hom.solves),
        ),
        m(
            "hom.nodes_expanded",
            "count/req",
            counters.per_request(|s| s.hom.nodes_expanded),
        ),
        m(
            "hom.backtracks",
            "count/req",
            counters.per_request(|s| s.hom.backtracks),
        ),
        m(
            "hom.cache_hit_ratio",
            "ratio",
            counters.ratio(|s| s.hom.cache_hits, |s| s.hom.cache_misses),
        ),
        m("core.sep_cq_ms", "ms", layer_ms("core.sep_cq")),
        m("core.sep_ghw_ms", "ms", layer_ms("core.sep_ghw")),
        m("core.sep_cqm_ms", "ms", layer_ms("core.sep_cqm")),
        m("core.generate_ms", "ms", layer_ms("core.generate")),
        m(
            "game.solved",
            "count/req",
            counters.per_request(|s| s.game.games_solved),
        ),
        m(
            "game.positions",
            "count/req",
            counters.per_request(|s| s.game.positions_explored),
        ),
        m(
            "game.sweeps",
            "count/req",
            counters.per_request(|s| s.game.fixpoint_sweeps),
        ),
        m(
            "game.cache_hit_ratio",
            "ratio",
            counters.ratio(|s| s.game.cache_hits, |s| s.game.cache_misses),
        ),
        m(
            "lp.solved",
            "count/req",
            counters.per_request(|s| s.lp.lps_solved),
        ),
        m(
            "lp.pivots",
            "count/req",
            counters.per_request(|s| s.lp.simplex_pivots + s.lp.sparse_pivots),
        ),
        m(
            "lp.perceptron_hits",
            "count/req",
            counters.per_request(|s| s.lp.perceptron_hits),
        ),
        m(
            "lp.conflict_prunes",
            "count/req",
            counters.per_request(|s| s.lp.conflict_prunes),
        ),
        m(
            "classifier.compile_ms",
            "ms",
            layer_ms("classifier.compile"),
        ),
        m("classifier.eval_ms", "ms", layer_ms("classifier.eval")),
        m(
            "trie.nodes_visited",
            "count/req",
            counters.trie.nodes_visited as f64 / n.max(1) as f64,
        ),
        m(
            "trie.prefix_prunes",
            "count/req",
            counters.trie.prefix_prunes as f64 / n.max(1) as f64,
        ),
        m(
            "trie.reuse_hits",
            "count/req",
            counters.trie.reuse_hits as f64 / n.max(1) as f64,
        ),
        m(
            "trie.hom_fallbacks",
            "count/req",
            counters.trie.hom_fallbacks as f64 / n.max(1) as f64,
        ),
        m(
            "sub.hom_hits",
            "count/req",
            counters.per_request(|s| s.sub.hom_subsumption_hits),
        ),
        m(
            "sub.game_hits",
            "count/req",
            counters.per_request(|s| s.sub.game_subsumption_hits),
        ),
        m(
            "lineage.registry_hits",
            "count/req",
            counters.per_request(|s| s.sub.lineage_registry_hits),
        ),
        m("engine.restored_entries", "count", restored as f64),
        m("trace.request_ms", "ms", ms(traced_ns, n)),
        m("trace.coverage", "ratio", coverage),
        m("trace.overhead_pct", "%", overhead_pct),
    ];
    Ok(Outcome {
        attempted: verdict.attempted,
        failed,
        metrics,
        problems,
    })
}

/// Write the traced replay's spans under the build directory.
fn write_spans(workload: Workload, seed: u64, rec: &Recorder) -> Result<PathBuf, String> {
    let dir = target_dir()?.join("loadbench-trace");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{seed}.json", workload.name()));
    let doc = format!(
        "{{\"workload\":{},\"seed\":{seed},\"spans\":{}}}\n",
        escape(workload.name()),
        rec.to_json()
    );
    std::fs::write(&path, doc).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}
