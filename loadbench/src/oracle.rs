//! The correctness oracle: every reply's `output` must equal what
//! `service::run_task_res_in` produces in process on the request's own
//! tenant engine, fed the tenant's requests in the order the server
//! received them.
//!
//! Tenants are checked out of one in-process `TenantRegistry` per shard
//! (same placement, LRU capacity and snapshot root as the shard's), so
//! a tenant the shard evicted and warm-restored is evicted and restored
//! here too. That matters: a resident read back from a snapshot is
//! re-interned from spec text, so the fingerprints an `append` reports
//! after a restore differ from those of a resident never evicted.

use crate::fleet::{ENGINE_THREADS, SHARDS};
use crate::gen::{Request, Workload};
use crate::timed::cache_dir;
use service::{run_task_res_in, shard_for, Task, TenantConfig, TenantRegistry};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// A tenant registry configured like a shard's (LRU capacity, solver
/// threads; snapshots under `snapshots` when the workload persists
/// tenants).
pub fn registry(workload: Workload, snapshots: Option<&Path>) -> TenantRegistry {
    let mut config = TenantConfig::default();
    config.threads = Some(ENGINE_THREADS);
    if let Some(cap) = workload.tenant_capacity() {
        config.capacity = cap;
    }
    config.cache_dir = snapshots.map(Path::to_path_buf);
    TenantRegistry::new(config)
}

/// A request's output, or the error it must produce.
pub type Expected = Result<String, String>;

/// One shard's worth of oracle.
struct Oracle {
    registry: TenantRegistry,
    /// Outputs of requests that read no resident state, by body.
    memo: HashMap<String, Expected>,
    snapshots: Option<PathBuf>,
}

impl Oracle {
    fn new(workload: Workload) -> Result<Oracle, String> {
        let snapshots = cache_dir(workload)?;
        Ok(Oracle {
            registry: registry(workload, snapshots.as_deref()),
            memo: HashMap::new(),
            snapshots,
        })
    }

    fn expect(&mut self, request: &Request) -> Expected {
        let tenant = self.registry.checkout(Some(&request.tenant))?;
        let stateless = !matches!(request.task, Task::Append { .. } | Task::Recheck { .. });
        if stateless {
            if let Some(hit) = self.memo.get(&request.body) {
                return hit.clone();
            }
        }
        let out = match run_task_res_in(&tenant.engine.ctx(), &tenant.residents, &request.task) {
            Ok(Ok(out)) => Ok(out.output),
            Ok(Err(e)) => Err(e),
            Err(interrupted) => Err(format!("interrupted: {}", interrupted.reason)),
        };
        if stateless {
            self.memo.insert(request.body.clone(), out.clone());
        }
        out
    }
}

impl Drop for Oracle {
    fn drop(&mut self) {
        if let Some(dir) = &self.snapshots {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// The expected output (or error) of every request in `requests`, after
/// replaying `setup`, on one thread per shard. Requests that touch
/// residents stay with their shard, in order; the others are dealt out
/// evenly, since their output depends on nothing but the request. The
/// outer error is a set-up request failing in process.
pub fn expected(
    workload: Workload,
    setup: &[Request],
    requests: &[&Request],
) -> Result<Vec<Expected>, String> {
    let part = |k: usize, r: &Request| {
        if workload.stateful() {
            shard_for(&r.tenant, SHARDS)
        } else {
            k % SHARDS
        }
    };
    let per_shard: Vec<Result<Vec<(usize, Expected)>, String>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..SHARDS)
            .map(|shard| {
                s.spawn(move || {
                    let mut oracle = Oracle::new(workload)?;
                    for (k, r) in setup.iter().enumerate() {
                        if part(k, r) == shard {
                            oracle.expect(r).map_err(|e| {
                                format!("set-up request {} fails in process: {e}", r.id)
                            })?;
                        }
                    }
                    Ok(requests
                        .iter()
                        .enumerate()
                        .filter(|(k, r)| part(*k, r) == shard)
                        .map(|(k, r)| (k, oracle.expect(r)))
                        .collect())
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("oracle thread panicked"))
            .collect()
    });
    let mut out: Vec<Expected> = vec![Err(String::new()); requests.len()];
    for part in per_shard {
        for (k, result) in part? {
            out[k] = result;
        }
    }
    Ok(out)
}
