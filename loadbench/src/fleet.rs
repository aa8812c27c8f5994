//! The system under test: a real `cqsep-router --shards 2` built from
//! this checkout in release mode, its shard processes, and the
//! outside-in probes the benchmark takes of them (`stats` snapshots,
//! peak RSS from `/proc`).

use crate::gen::{Drive, Request, Stream};
use service::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

pub const SHARDS: usize = 2;
/// Solver threads per tenant engine (`--threads`). At most two requests
/// execute at once (two connections, or sub-millisecond requests on one),
/// so with one thread each the busy solver threads never outnumber the
/// two cores, and a run measures the solvers rather than the scheduler.
pub const ENGINE_THREADS: usize = 1;
/// A shard process's name as `/proc/<pid>/comm` shows it.
const SHARD_COMM: &str = "cqsep-serve";
/// How long any single reply may take before the run counts it missing.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// The checkout root (the parent of this package).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// Cargo's target directory for this run: the one holding this binary
/// (`<target>/release/loadbench`, or `<target>/release/deps/<test>`).
pub fn target_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut dir = exe.parent();
    if dir.and_then(Path::file_name).is_some_and(|n| n == "deps") {
        dir = dir.and_then(Path::parent);
    }
    dir.and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("cannot place {} in a target directory", exe.display()))
}

/// Build `cqsep-router` and `cqsep-serve` from source (release profile)
/// into this binary's target directory and return the router's path.
pub fn build_router() -> Result<PathBuf, String> {
    let target = target_dir()?;
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "service",
            "--bins",
        ])
        .arg("--manifest-path")
        .arg(repo_root().join("Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building cqsep-router failed ({status})"));
    }
    let router = target.join("release").join("cqsep-router");
    if !router.is_file() {
        return Err(format!("{} was not built", router.display()));
    }
    Ok(router)
}

/// One client connection speaking NDJSON.
pub(crate) struct Conn {
    pub(crate) reader: BufReader<TcpStream>,
    pub(crate) writer: TcpStream,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        // The client sends each line in one write and must not add a
        // Nagle delay of its own to the latencies it measures.
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer: stream,
        })
    }

    pub fn send(&mut self, line: &str) -> Result<(), String> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer
            .write_all(&buf)
            .map_err(|e| format!("send: {e}"))
    }

    pub fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed before the reply".to_string()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// One request, one reply, parsed.
    pub fn call(&mut self, line: &str) -> Result<Json, String> {
        self.send(line)?;
        let reply = self.recv()?;
        Json::parse(&reply).map_err(|e| format!("bad reply {reply:?}: {e}"))
    }

    /// Send every line, then read as many replies (any order).
    fn pipeline(&mut self, lines: &[String]) -> Result<Vec<Json>, String> {
        let mut all = String::new();
        for l in lines {
            all.push_str(l);
            all.push('\n');
        }
        self.writer
            .write_all(all.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        (0..lines.len())
            .map(|_| {
                let reply = self.recv()?;
                Json::parse(&reply).map_err(|e| format!("bad reply {reply:?}: {e}"))
            })
            .collect()
    }
}

/// A `stats` op's document (today JSON inside the reply's `output` string).
fn stats_doc(conn: &mut Conn) -> Result<Json, String> {
    let reply = conn.call("{\"op\":\"stats\",\"id\":0}")?;
    let text = reply
        .get("output")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("stats reply without output: {reply}"))?;
    Json::parse(text).map_err(|e| format!("stats output is not JSON: {e}"))
}

/// Read a number at a `/`-separated path of object keys.
fn num_at(doc: &Json, path: &str) -> f64 {
    path.split('/')
        .try_fold(doc, |v, key| v.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// The shard counters the benchmark reads from outside.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ShardCounters {
    pub executed: f64,
    pub failed: f64,
    pub interrupted: f64,
    pub evictions: f64,
    pub warm_restores: f64,
    pub restored_entries: f64,
}

impl ShardCounters {
    fn read(doc: &Json) -> ShardCounters {
        ShardCounters {
            executed: num_at(doc, "pool/executed"),
            failed: num_at(doc, "pool/failed"),
            interrupted: num_at(doc, "pool/interrupted"),
            evictions: num_at(doc, "tenants/evictions"),
            warm_restores: num_at(doc, "tenants/warm_restores"),
            restored_entries: num_at(doc, "tenants/restored_entries"),
        }
    }

    /// What all shards counted between two snapshots.
    pub fn delta(after: &[ShardCounters], before: &[ShardCounters]) -> ShardCounters {
        let sum = |f: fn(&ShardCounters) -> f64| -> f64 {
            after.iter().zip(before).map(|(a, b)| f(a) - f(b)).sum()
        };
        ShardCounters {
            executed: sum(|c| c.executed),
            failed: sum(|c| c.failed),
            interrupted: sum(|c| c.interrupted),
            evictions: sum(|c| c.evictions),
            warm_restores: sum(|c| c.warm_restores),
            restored_entries: sum(|c| c.restored_entries),
        }
    }
}

/// A running router with its shards.
pub struct Fleet {
    router: Child,
    pub addr: SocketAddr,
    pub shards: Vec<SocketAddr>,
    shard_pids: Vec<u32>,
    cache_dir: Option<PathBuf>,
}

impl Fleet {
    /// Spawn the router, wait for an ok reply through it from every
    /// shard, and send the priming requests. Returns the fleet and the
    /// set-up time in seconds.
    pub fn start(
        router_bin: &Path,
        stream: &Stream,
        cache_dir: Option<PathBuf>,
    ) -> Result<(Fleet, f64), String> {
        let workload = stream.workload;
        let started = Instant::now();
        let mut cmd = Command::new(router_bin);
        cmd.args(["--shards", &SHARDS.to_string()]);
        cmd.args(["--threads", &ENGINE_THREADS.to_string()]);
        if let Some(cap) = workload.tenant_capacity() {
            cmd.args(["--tenants", &cap.to_string()]);
        }
        if let Some(dir) = &cache_dir {
            cmd.arg("--cache-dir").arg(dir);
        }
        let mut router = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", router_bin.display()))?;
        let mut first = String::new();
        let stdout = router.stdout.take().expect("router stdout is piped");
        let read = BufReader::new(stdout).read_line(&mut first);
        let addr = read
            .ok()
            .and_then(|_| first.trim().rsplit("listening on ").next()?.parse().ok());
        let Some(addr) = addr else {
            let _ = router.kill();
            let _ = router.wait();
            return Err(format!("router did not report its address: {first:?}"));
        };
        let mut fleet = Fleet {
            router,
            addr,
            shards: Vec::new(),
            shard_pids: Vec::new(),
            cache_dir,
        };
        fleet.await_shards(&stream.probes())?;
        let mut conn = Conn::open(addr)?;
        let lines: Vec<String> = stream.priming().iter().map(Request::line).collect();
        // Closed-loop workloads prime the way they run: one request at a
        // time on one connection.
        let replies = match workload.drive() {
            Drive::Open { .. } => conn.pipeline(&lines)?,
            Drive::Closed { .. } => lines
                .iter()
                .map(|l| conn.call(l))
                .collect::<Result<_, _>>()?,
        };
        for reply in replies {
            if reply.get("status").and_then(Json::as_str) != Some("ok") {
                return Err(format!("priming request failed: {reply}"));
            }
        }
        Ok((fleet, started.elapsed().as_secs_f64()))
    }

    /// First ok reply through the router from every shard: a tiny check
    /// on a tenant each shard owns.
    fn await_shards(&mut self, probes: &[Request]) -> Result<(), String> {
        let mut conn = Conn::open(self.addr)?;
        for probe in probes {
            let reply = conn.call(&probe.line())?;
            if reply.get("status").and_then(Json::as_str) != Some("ok") {
                return Err(format!(
                    "shard probe {} did not answer ok: {reply}",
                    probe.tenant
                ));
            }
        }
        let doc = stats_doc(&mut conn)?;
        self.shards = doc
            .get("shards")
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|s| s.get("addr").and_then(Json::as_str)?.parse().ok())
            .collect();
        if self.shards.len() != SHARDS {
            return Err(format!(
                "router stats name {} shard addresses",
                self.shards.len()
            ));
        }
        self.shard_pids = child_pids(self.router.id());
        Ok(())
    }

    /// Every shard's counters, in shard order.
    pub fn shard_counters(&self) -> Result<Vec<ShardCounters>, String> {
        self.shards
            .iter()
            .map(|&a| Ok(ShardCounters::read(&stats_doc(&mut Conn::open(a)?)?)))
            .collect()
    }

    /// The router's per-shard forwarded counts.
    pub fn forwarded(&self) -> Result<Vec<f64>, String> {
        let doc = stats_doc(&mut Conn::open(self.addr)?)?;
        Ok(doc
            .get("shards")
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .map(|s| num_at(s, "forwarded"))
            .collect())
    }

    /// Peak resident set of the router plus its shards, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let kb: u64 = std::iter::once(self.router.id())
            .chain(self.shard_pids.iter().copied())
            .filter_map(vm_hwm_kb)
            .sum();
        kb as f64 / 1024.0
    }

    /// Ask the router to stop its shards and exit; kill whatever is left
    /// after a grace period, and wait for every process.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = Conn::open(self.addr).and_then(|mut c| c.send("{\"op\":\"shutdown\"}"));
        let deadline = Instant::now() + Duration::from_secs(15);
        let mut clean = asked.is_ok();
        loop {
            match self.router.try_wait() {
                Ok(Some(status)) => {
                    clean &= status.success();
                    break;
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                _ => {
                    clean = false;
                    break;
                }
            }
        }
        self.kill_all();
        if clean {
            Ok(())
        } else {
            Err("router did not shut down cleanly".to_string())
        }
    }

    fn kill_all(&mut self) {
        let _ = self.router.kill();
        let _ = self.router.wait();
        for &pid in &self.shard_pids {
            // Shards are the router's children; once it is gone, kill any
            // survivor by pid (it is not ours to wait for). A pid whose
            // process is no longer a shard has been reused: leave it be.
            let comm = std::fs::read_to_string(format!("/proc/{pid}/comm")).unwrap_or_default();
            if comm.trim_end() == SHARD_COMM {
                let _ = Command::new("kill").arg("-9").arg(pid.to_string()).status();
            }
        }
        self.shard_pids.clear();
        if let Some(dir) = self.cache_dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        if matches!(self.router.try_wait(), Ok(None)) {
            if let Ok(mut c) = Conn::open(self.addr) {
                let _ = c.send("{\"op\":\"shutdown\"}");
            }
            std::thread::sleep(Duration::from_millis(300));
        }
        self.kill_all();
    }
}

/// Children of `pid`, from `/proc/<pid>/stat` parent fields.
fn child_pids(pid: u32) -> Vec<u32> {
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&p| {
            std::fs::read_to_string(format!("/proc/{p}/stat"))
                .ok()
                .and_then(|s| {
                    // Fields after the parenthesised command: state, ppid.
                    let rest = &s[s.rfind(')')? + 1..];
                    rest.split_whitespace().nth(1)?.parse::<u32>().ok()
                })
                == Some(pid)
        })
        .collect()
}

fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
