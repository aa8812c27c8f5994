//! The result line the benchmark prints last, and the machine facts
//! recorded once per result.

use crate::fleet::target_dir;
use crate::gen::Workload;
use service::json::{escape, Json};
use std::path::{Path, PathBuf};
use std::process::Command;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Why the run is not correct (empty when it is).
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    escape(m.name),
                    number(m.value),
                    escape(m.unit)
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// Every digit of a finite value; non-finite values become 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// Commit (or, outside a git checkout, a fingerprint of the sources),
/// core count and compiler: what a result needs to be compared.
pub fn facts(root: &Path) -> Json {
    let commit = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    let rustc = Command::new(std::env::var_os("RUSTC").unwrap_or_else(|| "rustc".into()))
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_default();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::Obj(vec![
        (
            "commit".to_string(),
            Json::Str(commit.unwrap_or_else(|| "none (not a git checkout)".to_string())),
        ),
        (
            "source_fingerprint".to_string(),
            Json::Str(format!("{:016x}", source_fingerprint(&root.join("crates")))),
        ),
        ("available_parallelism".to_string(), Json::Num(cores as f64)),
        ("rustc".to_string(), Json::Str(rustc)),
    ])
}

/// Keep one result with the facts it was measured under, in the build
/// directory: `loadbench-results/<workload>-seed<n>-trace<0|1>.json`.
pub fn record(
    facts: &Json,
    workload: Workload,
    seed: u64,
    trace: bool,
    result: &str,
) -> Result<PathBuf, String> {
    let dir = target_dir()?.join("loadbench-results");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{}-seed{seed}-trace{}.json",
        workload.name(),
        u8::from(trace)
    ));
    let doc = format!(
        "{{\"facts\":{facts},\"workload\":{},\"seed\":{seed},\"trace\":{trace},\"result\":{result}}}\n",
        escape(workload.name())
    );
    std::fs::write(&path, doc).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// FNV-1a over every file under `dir`, in path order.
fn source_fingerprint(dir: &Path) -> u64 {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else {
                files.push(p);
            }
        }
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let name = f
            .strip_prefix(dir)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        let bytes = std::fs::read(&f).unwrap_or_default();
        for &b in name.as_bytes().iter().chain(&bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}
