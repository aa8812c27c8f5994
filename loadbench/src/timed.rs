//! The timed (untraced) run: set up the fleet a few times, offer the
//! workload's load for the window, check every reply, and report the
//! end-to-end metrics.

use crate::drive::{closed_loop, open_loop, Phase, Sample};
use crate::fleet::{target_dir, Fleet, ShardCounters};
use crate::gen::{Drive, Request, Stream, Workload};
use crate::oracle;
use crate::report::{Metric, Outcome};
use crate::stats;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// An open-loop run whose writer sent later than this (p99, ms) than
/// the schedule measured the generator, not the server: it is refused.
pub const LATE_BOUND_MS: f64 = 10.0;
/// The tail percentile every workload reports. Not p90: `interactive`
/// latencies fall on the 20 ms steps of the delayed-ACK timer (60, 80,
/// 100 ms), and 8–12% of its requests take the 100 ms step, so p90 sits
/// on the edge between two steps and jumps by a quarter between runs;
/// p85 lies inside the 80 ms step.
pub const TAIL: f64 = 0.85;

/// A fresh snapshot root for workloads whose shards persist tenants,
/// inside the build directory of the checkout.
pub fn cache_dir(workload: Workload) -> Result<Option<PathBuf>, String> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    if workload.tenant_capacity().is_none() {
        return Ok(None);
    }
    let dir = target_dir()?.join("loadbench-tmp").join(format!(
        "{}-{}-{}",
        workload.name(),
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(Some(dir))
}

/// Start [`SETUPS`] fleets, stop all but the last, and return it with
/// the median set-up time.
pub fn set_up(router: &Path, stream: &Stream) -> Result<(Fleet, f64), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for k in 0..SETUPS {
        let dir = cache_dir(stream.workload)?;
        let (fleet, secs) = Fleet::start(router, stream, dir)?;
        times.push(secs);
        if k + 1 < SETUPS {
            fleet.stop()?;
        } else {
            kept = Some(fleet);
        }
    }
    let setup = stats::median(&mut times).expect("at least one set-up");
    Ok((kept.expect("the last fleet is kept"), setup))
}

/// Start one fleet (the traced run's set-up is not timed).
pub fn set_up_once(router: &Path, stream: &Stream) -> Result<Fleet, String> {
    let dir = cache_dir(stream.workload)?;
    Fleet::start(router, stream, dir).map(|(fleet, _)| fleet)
}

/// Offer the workload's load for `window`, from the stream's start.
pub fn offer(fleet: &Fleet, stream: &Stream, window: Duration) -> Phase {
    match stream.workload.drive() {
        Drive::Open { rate } => open_loop(fleet.addr, stream, 0, rate, window),
        Drive::Closed { conns } => closed_loop(fleet.addr, stream, conns, window),
    }
}

/// What checking a phase's replies found.
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

/// Check every reply of `phase` against the oracle (after replaying the
/// priming requests into it) and the shards' own counters: each request
/// got exactly one ok reply with the expected output, the shards
/// executed exactly the requests sent, and none failed.
pub fn verify(stream: &Stream, phase: &Phase, executed: &ShardCounters) -> Verdict {
    let mut problems = Vec::new();
    let setup: Vec<Request> = stream
        .probes()
        .into_iter()
        .chain(stream.priming())
        .collect();
    let requests: Vec<&Request> = phase.samples.iter().map(|s| &s.request).collect();
    let expected = oracle::expected(stream.workload, &setup, &requests).unwrap_or_else(|e| {
        problems.push(e.clone());
        vec![Err(e); requests.len()]
    });
    let mut failed = phase.refused as u64;
    for (s, expected) in phase.samples.iter().zip(expected) {
        let wrong = match (s.status(), expected) {
            ("ok", Ok(expected)) if s.output() == Some(expected.as_str()) => None,
            ("ok", Ok(expected)) => Some(first_difference(s.output().unwrap_or(""), &expected)),
            ("ok", Err(e)) => Some(format!("ok reply, but the oracle fails: {e}")),
            (status, _) => Some(match &s.reply {
                Ok(r) => format!("status {status}: {r}"),
                Err(e) => format!("no reply: {e}"),
            }),
        };
        if let Some(why) = wrong {
            failed += 1;
            if problems.len() < 5 {
                problems.push(format!(
                    "request {} ({}): {why}",
                    s.request.id,
                    s.request.verb()
                ));
            }
        }
    }
    let sent = phase.samples.len() as f64;
    if executed.executed != sent {
        problems.push(format!(
            "shards executed {} requests, the generator sent {sent}",
            executed.executed
        ));
    }
    if executed.failed != 0.0 || executed.interrupted != 0.0 {
        problems.push(format!(
            "shards counted {} failed and {} interrupted",
            executed.failed, executed.interrupted
        ));
    }
    Verdict {
        attempted: phase.samples.len() as u64 + phase.refused as u64,
        failed,
        problems,
    }
}

fn first_difference(got: &str, expected: &str) -> String {
    let (g, e) = got
        .lines()
        .chain(std::iter::repeat(""))
        .zip(expected.lines().chain(std::iter::repeat("")))
        .find(|(g, e)| g != e)
        .unwrap_or(("", ""));
    format!("output differs from the in-process oracle: got {g:?}, expected {e:?}")
}

/// Latency samples (ms): one per ok request, or, for workloads that
/// run in rounds, one per round whose `append` and `recheck` were both
/// ok, from the append's send to the recheck's reply. (A round's two
/// requests differ in cost, so per-request percentiles would sit on the
/// edge between two modes.)
pub fn latencies(workload: Workload, phase: &Phase) -> Vec<f64> {
    let ok = |s: &&Sample| s.status() == "ok";
    if !workload.stateful() {
        return phase
            .samples
            .iter()
            .filter(ok)
            .filter_map(Sample::latency_ms)
            .collect();
    }
    phase
        .samples
        .windows(2)
        .filter(|w| w[0].request.is_write() && w[1].request.id == w[0].request.id + 1)
        .filter(|w| w.iter().all(|s| ok(&s)))
        .filter_map(|w| Some(w[1].done?.duration_since(w[0].due).as_secs_f64() * 1e3))
        .collect()
}

pub fn run(
    router: &Path,
    workload: Workload,
    seed: u64,
    window: Duration,
) -> Result<Outcome, String> {
    let stream = Stream::new(workload, seed);
    let (fleet, setup_s) = set_up(router, &stream)?;
    let before = fleet.shard_counters()?;
    let phase = offer(&fleet, &stream, window);
    let after = fleet.shard_counters()?;
    let rss_mb = fleet.peak_rss_mb();
    let stopped = fleet.stop();
    let checking = Instant::now();
    let mut verdict = verify(&stream, &phase, &ShardCounters::delta(&after, &before));
    eprintln!(
        "loadbench: checked {} replies in {:.1} s",
        phase.samples.len(),
        checking.elapsed().as_secs_f64()
    );
    if let Err(e) = stopped {
        verdict.problems.push(e);
    }
    if matches!(workload.drive(), Drive::Open { .. }) && phase.late_p99_ms() > LATE_BOUND_MS {
        verdict.problems.push(format!(
            "generator ran late: p99 {:.2} ms behind schedule (bound {LATE_BOUND_MS} ms)",
            phase.late_p99_ms()
        ));
    }
    let mut lat = latencies(workload, &phase);
    if !stats::supports(lat.len(), TAIL) {
        verdict.problems.push(format!(
            "{} latency samples do not support p{:.0} (need {} beyond it)",
            lat.len(),
            TAIL * 100.0,
            stats::MIN_BEYOND
        ));
    }
    let metrics = vec![
        Metric {
            name: "setup_s",
            unit: "s",
            value: setup_s,
        },
        Metric {
            name: "p50_ms",
            unit: "ms",
            value: stats::percentile(&mut lat, 0.5).unwrap_or(0.0),
        },
        Metric {
            name: "p85_ms",
            unit: "ms",
            value: stats::percentile(&mut lat, TAIL).unwrap_or(0.0),
        },
        Metric {
            name: "throughput_rps",
            unit: "1/s",
            value: phase.throughput_rps(),
        },
        Metric {
            name: "rss_mb",
            unit: "MiB",
            value: rss_mb,
        },
    ];
    eprintln!(
        "loadbench: {} seed {seed}: {} requests, {} latency samples, late p99 {:.3} ms",
        workload.name(),
        phase.samples.len(),
        lat.len(),
        phase.late_p99_ms()
    );
    Ok(Outcome {
        attempted: verdict.attempted,
        failed: verdict.failed,
        metrics,
        problems: verdict.problems,
    })
}
