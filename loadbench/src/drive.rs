//! The load generator: open loop over one pipelined connection (a
//! writer and a reader thread) or closed loop over a few connections,
//! never more threads or connections than the host has cores.

use crate::fleet::{Conn, SHARDS};
use crate::gen::{Drive, Request, Stream};
use service::json::Json;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One request as the generator saw it.
pub struct Sample {
    pub request: Request,
    /// When the request was due: its scheduled time in an open loop,
    /// its send time in a closed loop. Latency is measured from here.
    pub due: Instant,
    pub sent: Instant,
    /// When its reply arrived, and the reply (or why there is none).
    pub done: Option<Instant>,
    pub reply: Result<Json, String>,
    pub reply_bytes: usize,
}

impl Sample {
    fn new(request: Request, due: Instant, sent: Instant) -> Sample {
        Sample {
            request,
            due,
            sent,
            done: None,
            reply: Err("no reply".to_string()),
            reply_bytes: 0,
        }
    }

    fn settle(&mut self, done: Instant, text: &str) {
        self.done = Some(done);
        self.reply_bytes = text.len() + 1;
        self.reply = Json::parse(text).map_err(|e| format!("bad reply {text:?}: {e}"));
    }

    pub fn latency_ms(&self) -> Option<f64> {
        Some(self.done?.duration_since(self.due).as_secs_f64() * 1e3)
    }

    pub fn status(&self) -> &str {
        match &self.reply {
            Ok(r) => r.get("status").and_then(Json::as_str).unwrap_or("?"),
            Err(_) => "missing",
        }
    }

    /// Server-side execution time the reply reports, in ms.
    pub fn elapsed_ms(&self) -> Option<f64> {
        let r = self.reply.as_ref().ok()?;
        Some(r.get("elapsed_s")?.as_f64()? * 1e3)
    }

    /// Latency not spent executing: transport, framing, JSON, queue.
    pub fn wire_ms(&self) -> Option<f64> {
        Some(self.latency_ms()? - self.elapsed_ms()?)
    }

    pub fn output(&self) -> Option<&str> {
        self.reply.as_ref().ok()?.get("output")?.as_str()
    }
}

/// What one timed phase produced.
pub struct Phase {
    pub samples: Vec<Sample>,
    pub started: Instant,
    pub window: Duration,
    /// Connections that could not be opened or died mid-phase.
    pub refused: usize,
}

impl Phase {
    /// Ok replies that landed inside the window, per second.
    pub fn throughput_rps(&self) -> f64 {
        let end = self.started + self.window;
        let ok = self
            .samples
            .iter()
            .filter(|s| s.status() == "ok" && s.done.is_some_and(|d| d <= end))
            .count();
        ok as f64 / self.window.as_secs_f64()
    }

    /// How late the writer sent, in ms, at the 99th percentile.
    pub fn late_p99_ms(&self) -> f64 {
        let mut late: Vec<f64> = self
            .samples
            .iter()
            .map(|s| s.sent.duration_since(s.due).as_secs_f64() * 1e3)
            .collect();
        crate::stats::percentile(&mut late, 0.99).unwrap_or(0.0)
    }
}

/// Closed loop: `conns` connections each send their next request when
/// the previous reply lands, until `window` has passed. They share the
/// stream's indices, except in workloads that run in rounds: there each
/// connection is one lane and finishes the round it started.
pub fn closed_loop(addr: SocketAddr, stream: &Stream, conns: usize, window: Duration) -> Phase {
    let next = AtomicU64::new(0);
    let lanes = AtomicU64::new(0);
    let samples = Mutex::new(Vec::new());
    let refused = AtomicU64::new(0);
    let started = Instant::now();
    let end = started + window;
    let rounds = stream.workload.stateful();
    let client = || {
        let lane = lanes.fetch_add(1, Ordering::Relaxed);
        let Ok(mut conn) = Conn::open(addr) else {
            refused.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let mut mine = Vec::new();
        for k in 0.. {
            let mid_round = rounds && k % 2 == 1;
            if !mid_round && Instant::now() >= end {
                break;
            }
            let i = if rounds {
                Stream::lane_index(lane, k)
            } else {
                next.fetch_add(1, Ordering::Relaxed)
            };
            let request = stream.request(i);
            let line = request.line();
            let sent = Instant::now();
            let mut sample = Sample::new(request, sent, sent);
            let reply = conn.send(&line).and_then(|_| conn.recv());
            let broken = reply.is_err();
            settle_matching(&mut sample, reply);
            mine.push(sample);
            if broken {
                refused.fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
        samples.lock().expect("no client panicked").extend(mine);
    };
    std::thread::scope(|s| {
        for _ in 1..conns {
            s.spawn(client);
        }
        client();
    });
    let mut samples = samples.into_inner().expect("no client panicked");
    samples.sort_by_key(|s| s.request.id);
    Phase {
        samples,
        started,
        window,
        refused: refused.into_inner() as usize,
    }
}

/// Record a synchronous reply, which must answer the sample's own id.
fn settle_matching(sample: &mut Sample, reply: Result<String, String>) {
    let done = Instant::now();
    match reply {
        Ok(text) => {
            sample.settle(done, &text);
            let id = sample
                .reply
                .as_ref()
                .ok()
                .and_then(|r| r.get("id")?.as_u64());
            if id != Some(sample.request.id) {
                sample.reply = Err(format!("reply id {id:?} to request {}", sample.request.id));
            }
        }
        Err(e) => sample.reply = Err(e),
    }
}

/// Open loop: request `first + k` is due `k / rate` seconds after the
/// start and is written on time however many replies are outstanding.
/// Latency counts from the due time, so a stall also charges the
/// requests queued behind it.
pub fn open_loop(
    addr: SocketAddr,
    stream: &Stream,
    first: u64,
    rate: f64,
    window: Duration,
) -> Phase {
    let count = (rate * window.as_secs_f64()).round() as u64;
    let requests = (first..first + count).map(|i| stream.request(i)).collect();
    let offsets = (0..count)
        .map(|k| Duration::from_secs_f64(k as f64 / rate))
        .collect();
    open_loop_at(addr, requests, offsets, window)
}

/// Open loop over explicit due offsets (ascending): the calling thread
/// writes each line when it is due, one reader thread collects replies.
pub fn open_loop_at(
    addr: SocketAddr,
    requests: Vec<Request>,
    offsets: Vec<Duration>,
    window: Duration,
) -> Phase {
    let lines: Vec<String> = requests.iter().map(Request::line).collect();
    let index: HashMap<u64, usize> = requests
        .iter()
        .enumerate()
        .map(|(k, r)| (r.id, k))
        .collect();
    let conn = Conn::open(addr);
    let started = Instant::now();
    let mut samples: Vec<Sample> = requests
        .into_iter()
        .zip(&offsets)
        .map(|(r, &off)| Sample::new(r, started + off, started + off))
        .collect();
    let mut conn = match conn {
        Ok(c) => c,
        Err(e) => {
            for s in &mut samples {
                s.reply = Err(e.clone());
            }
            return Phase {
                samples,
                started,
                window,
                refused: 1,
            };
        }
    };
    let reader = &mut conn.reader;
    let writer = &mut conn.writer;
    let (replies, write_error) = std::thread::scope(|s| {
        let collector = s.spawn(|| {
            let mut got: Vec<Vec<(Instant, String)>> = vec![Vec::new(); lines.len()];
            let mut outstanding = lines.len();
            let mut line = String::new();
            while outstanding > 0 {
                line.clear();
                match std::io::BufRead::read_line(reader, &mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
                let done = Instant::now();
                let text = line.trim_end().to_string();
                let id = Json::parse(&text).ok().and_then(|r| r.get("id")?.as_u64());
                let Some(&k) = id.and_then(|id| index.get(&id)) else {
                    break;
                };
                if got[k].is_empty() {
                    outstanding -= 1;
                }
                got[k].push((done, text));
            }
            got
        });
        let mut write_error = None;
        for (k, line) in lines.iter().enumerate() {
            let due = samples[k].due;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            samples[k].sent = Instant::now();
            let mut buf = Vec::with_capacity(line.len() + 1);
            buf.extend_from_slice(line.as_bytes());
            buf.push(b'\n');
            if let Err(e) = std::io::Write::write_all(writer, &buf) {
                write_error = Some(e.to_string());
                break;
            }
        }
        if write_error.is_some() {
            let _ = writer.shutdown(std::net::Shutdown::Both);
        }
        (
            collector.join().expect("reader thread panicked"),
            write_error,
        )
    });
    for (sample, got) in samples.iter_mut().zip(replies) {
        match got.as_slice() {
            [] => {}
            [(done, text)] => sample.settle(*done, text),
            [(done, _), ..] => {
                sample.done = Some(*done);
                sample.reply = Err(format!("{} replies to one request", got.len()));
            }
        }
    }
    Phase {
        samples,
        started,
        window,
        refused: usize::from(write_error.is_some()),
    }
}

/// Replay `phase`'s requests straight to each one's owning shard,
/// bypassing the router. Open loop: one shard after the other, each on
/// one connection at the requests' original due offsets. Closed loop:
/// one request at a time, in id order, on one connection per shard.
pub fn direct(shards: &[SocketAddr], drive: Drive, phase: &Phase) -> Phase {
    let owner = |r: &Request| service::shard_for(&r.tenant, SHARDS);
    match drive {
        Drive::Open { .. } => {
            let mut samples = Vec::new();
            let mut refused = 0;
            for (shard, &addr) in shards.iter().enumerate() {
                let mine: Vec<&Sample> = phase
                    .samples
                    .iter()
                    .filter(|s| owner(&s.request) == shard)
                    .collect();
                let Some(first_due) = mine.first().map(|s| s.due) else {
                    continue;
                };
                let requests = mine.iter().map(|s| s.request.clone()).collect();
                let offsets = mine.iter().map(|s| s.due - first_due).collect();
                let part = open_loop_at(addr, requests, offsets, phase.window);
                refused += part.refused;
                samples.extend(part.samples);
            }
            samples.sort_by_key(|s| s.request.id);
            Phase {
                samples,
                started: Instant::now(),
                window: phase.window,
                refused,
            }
        }
        Drive::Closed { .. } => {
            let started = Instant::now();
            let mut conns: Vec<Option<Conn>> = shards.iter().map(|&a| Conn::open(a).ok()).collect();
            let samples = phase
                .samples
                .iter()
                .map(|s| {
                    let line = s.request.line();
                    let sent = Instant::now();
                    let mut sample = Sample::new(s.request.clone(), sent, sent);
                    let reply = match &mut conns[owner(&s.request)] {
                        Some(conn) => conn.send(&line).and_then(|_| conn.recv()),
                        None => Err("shard connection refused".to_string()),
                    };
                    settle_matching(&mut sample, reply);
                    sample
                })
                .collect();
            Phase {
                samples,
                started,
                window: started.elapsed(),
                refused: conns.iter().filter(|c| c.is_none()).count(),
            }
        }
    }
}

/// One rung of the rate ladder.
pub struct Rung {
    pub rate: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// p99 within the limit, every reply ok, and no growing backlog.
    pub pass: bool,
}

/// Requests per ladder rung: enough that p99 has ten samples beyond it.
pub const RUNG_REQUESTS: f64 = 1000.0;

/// Open-loop rungs at `from`, `from·ratio`, … (stream indices from
/// `first`), climbing until two rungs in a row fail after one passed or
/// the rate passes `to`. A rung passes when its p99 latency is within
/// `limit_ms` and the last tenth of its requests are no slower than
/// that limit at the median (the backlog is not growing).
pub fn ladder(
    addr: SocketAddr,
    stream: &Stream,
    mut first: u64,
    from: f64,
    to: f64,
    ratio: f64,
    limit_ms: f64,
) -> Vec<Rung> {
    let mut rungs: Vec<Rung> = Vec::new();
    let mut rate = from;
    while rate <= to {
        let window = Duration::from_secs_f64(RUNG_REQUESTS / rate);
        let phase = open_loop(addr, stream, first, rate, window);
        first += phase.samples.len() as u64;
        let all_ok = phase.samples.iter().all(|s| s.status() == "ok");
        let mut lat: Vec<f64> = phase
            .samples
            .iter()
            .filter_map(Sample::latency_ms)
            .collect();
        let mut last: Vec<f64> = lat[lat.len() - lat.len() / 10..].to_vec();
        let p99 = crate::stats::percentile(&mut lat, 0.99).unwrap_or(f64::INFINITY);
        let last_p50 = crate::stats::median(&mut last).unwrap_or(f64::INFINITY);
        rungs.push(Rung {
            rate,
            p50_ms: crate::stats::median(&mut lat).unwrap_or(f64::INFINITY),
            p99_ms: p99,
            pass: all_ok && p99 <= limit_ms && last_p50 <= limit_ms,
        });
        let n = rungs.len();
        let passed_once = rungs.iter().any(|r| r.pass);
        if passed_once && n >= 2 && !rungs[n - 1].pass && !rungs[n - 2].pass {
            break;
        }
        // Let a failed rung's backlog drain before the next one.
        if !rungs[n - 1].pass {
            std::thread::sleep(Duration::from_millis(500));
        }
        rate *= ratio;
    }
    rungs
}

/// The highest passing rung's rate (0 when none passed).
pub fn max_rate(rungs: &[Rung]) -> f64 {
    rungs
        .iter()
        .filter(|r| r.pass)
        .map(|r| r.rate)
        .fold(0.0, f64::max)
}
