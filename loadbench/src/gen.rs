//! The request streams. Every workload's NDJSON lines are a pure
//! function of the seed: request `i` of a stream is the same bytes on
//! every run, and the program receives only the generated inline spec
//! text (planted databases from `workloads::planted`).

use crate::fleet::SHARDS;
use relational::spec::DatabaseSpec;
use relational::TrainingDb;
use service::json::Json;
use service::{ClassSpec, Task};
use workloads::planted::{families, sample_labeled, PlantedFamily};

/// Offered rate of `interactive`: light load, one request every 20 ms.
pub const LO_RATE: f64 = 50.0;
/// The traced run's loaded rate for the `interactive` mix: about half
/// of the highest rate whose p99 stays within [`RATE_LIMIT_MS`] (about
/// 1400 req/s on a 2-core host at the commit that introduced this
/// benchmark). The rate ladder starts here.
pub const HI_RATE: f64 = 700.0;
/// Latency limit of the `max_rate_rps` ladder (on its p99).
pub const RATE_LIMIT_MS: f64 = 50.0;

/// Resident databases are rebuilt from their base text every this many
/// appends, so their size (and the cost of a recheck) stays in a fixed
/// band however many rounds a fast server completes in a run.
pub const REBASE_EVERY: u64 = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Interactive,
    Solver,
    Incremental,
    TenantChurn,
}

/// How the generator offers load.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Drive {
    /// One pipelined connection; request `i` is due at `i / rate` s.
    Open { rate: f64 },
    /// `conns` connections, each sending its next request when the
    /// previous reply lands.
    Closed { conns: usize },
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Interactive,
        Workload::Solver,
        Workload::Incremental,
        Workload::TenantChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Interactive => "interactive",
            Workload::Solver => "solver",
            Workload::Incremental => "incremental",
            Workload::TenantChurn => "tenant_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn drive(self) -> Drive {
        match self {
            Workload::Interactive => Drive::Open { rate: LO_RATE },
            Workload::Solver => Drive::Closed { conns: 2 },
            Workload::Incremental | Workload::TenantChurn => Drive::Closed {
                conns: LANES as usize,
            },
        }
    }

    /// Per-shard tenant LRU capacity, when the workload sets one.
    pub fn tenant_capacity(self) -> Option<usize> {
        match self {
            Workload::TenantChurn => Some(2),
            _ => None,
        }
    }

    /// Whether requests come in rounds (an `append`, then a `recheck`
    /// of the same resident): a latency sample is then a whole round.
    pub fn stateful(self) -> bool {
        matches!(self, Workload::Incremental | Workload::TenantChurn)
    }
}

/// One request: its id, its tenant, the typed task the line encodes
/// (for the in-process oracle and replays), and the line's fields after
/// the id (equal bodies ask for equal work).
#[derive(Clone, Debug)]
pub struct Request {
    pub id: u64,
    pub tenant: String,
    pub task: Task,
    pub body: String,
}

impl Request {
    fn new(id: u64, tenant: &str, task: Task, fields: Vec<(&str, Json)>) -> Request {
        let mut all = vec![
            ("task".to_string(), Json::Str(task.kind().to_string())),
            ("tenant".to_string(), Json::Str(tenant.to_string())),
        ];
        all.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
        let obj = Json::Obj(all).to_string();
        Request {
            id,
            tenant: tenant.to_string(),
            task,
            body: obj[1..obj.len() - 1].to_string(),
        }
    }

    /// The NDJSON line, without its newline.
    pub fn line(&self) -> String {
        format!("{{\"id\":{},{}}}", self.id, self.body)
    }

    pub fn verb(&self) -> &'static str {
        self.task.kind()
    }

    /// `append` is the one verb that writes.
    pub fn is_write(&self) -> bool {
        matches!(self.task, Task::Append { .. })
    }
}

/// splitmix64: the stream's only source of randomness.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn spec_text(train: &TrainingDb, labeled: bool) -> String {
    let labeling = labeled.then_some(&train.labeling);
    DatabaseSpec::from_database(&train.db, labeling).to_text()
}

fn classes(list: &[ClassSpec]) -> Json {
    Json::Arr(
        list.iter()
            .map(|c| {
                Json::Str(match c {
                    ClassSpec::Cq => "cq".to_string(),
                    ClassSpec::Ghw(k) => format!("ghw{k}"),
                    ClassSpec::Cqm(m) => format!("cqm{m}"),
                })
            })
            .collect(),
    )
}

/// A planted database of `family` with about `degree` out-edges per
/// vertex, whatever its size.
fn planted(family: &PlantedFamily, n: usize, seed: u64) -> TrainingDb {
    let degree = family.default_density * 12.0;
    sample_labeled(family, n, (degree / n as f64).min(1.0), seed)
}

const INTERACTIVE_DBS: usize = 16;
const INTERACTIVE_TENANTS: usize = 8;
const INTERACTIVE_N: usize = 12;
const SOLVER_TENANTS: u64 = 4;
const INCREMENTAL_TENANTS: u64 = 4;
const SOLVER_N: usize = 20;
const INCREMENTAL_N: usize = 8;
const CHURN_TENANTS: u64 = 24;
const CHURN_N: usize = 8;
/// Name of the one resident database each stateful tenant holds.
const RESIDENT: &str = "r";
/// Timed requests have ids from 1; set-up requests from these.
const PROBE_ID_BASE: u64 = 1 << 41;
const PRIMING_ID_BASE: u64 = 1 << 40;

/// A workload's request stream for one seed.
pub struct Stream {
    pub workload: Workload,
    seed: u64,
    /// `interactive`: the training databases; stateful workloads: the
    /// resident base texts, one per tenant.
    dbs: Vec<String>,
    /// `interactive`: the unlabeled evaluation databases.
    evals: Vec<String>,
    /// Stateful workloads: the tenant of each resident, lane-major.
    tenants: Vec<String>,
}

/// Stateful workloads run one closed-loop lane per shard, each visiting
/// only tenants its shard owns, so every shard serves one request at a
/// time and keeps each tenant's rounds in order.
pub const LANES: u64 = SHARDS as u64;

/// `count` tenant names, lane-major: the `count / LANES` names of lane
/// `c` all belong to shard `c`.
fn lane_tenants(count: u64) -> Vec<String> {
    let per_lane = (count / LANES) as usize;
    let mut lanes = vec![Vec::new(); SHARDS];
    for j in 0.. {
        if lanes.iter().all(|l: &Vec<String>| l.len() == per_lane) {
            break;
        }
        let name = format!("t{j}");
        let lane = &mut lanes[service::shard_for(&name, SHARDS)];
        if lane.len() < per_lane {
            lane.push(name);
        }
    }
    lanes.concat()
}

impl Stream {
    pub fn new(workload: Workload, seed: u64) -> Stream {
        let fams = families();
        let mut dbs = Vec::new();
        let mut evals = Vec::new();
        match workload {
            Workload::Interactive => {
                for j in 0..INTERACTIVE_DBS as u64 {
                    let family = &fams[j as usize % fams.len()];
                    let train = planted(family, INTERACTIVE_N, mix(seed, 2 * j));
                    let eval = planted(family, INTERACTIVE_N, mix(seed, 2 * j + 1));
                    dbs.push(spec_text(&train, true));
                    evals.push(spec_text(&eval, false));
                }
            }
            Workload::Solver => {}
            Workload::Incremental | Workload::TenantChurn => {
                let (tenants, n) = if workload == Workload::Incremental {
                    (INCREMENTAL_TENANTS, INCREMENTAL_N)
                } else {
                    (CHURN_TENANTS, CHURN_N)
                };
                for t in 0..tenants {
                    let family = &fams[t as usize % fams.len()];
                    dbs.push(spec_text(&planted(family, n, mix(seed, t)), true));
                }
            }
        }
        let tenants = lane_tenants(dbs.len() as u64);
        Stream {
            workload,
            seed,
            dbs,
            evals,
            tenants,
        }
    }

    /// Requests sent during set-up, before timing starts: they warm the
    /// caches `interactive` relies on and create the residents of the
    /// stateful workloads.
    pub fn priming(&self) -> Vec<Request> {
        let id = |j: usize| PRIMING_ID_BASE + j as u64;
        match self.workload {
            Workload::Interactive => (0..INTERACTIVE_DBS)
                .flat_map(|d| [self.interactive(0, d, false), self.interactive(0, d, true)])
                .enumerate()
                .map(|(j, mut r)| {
                    r.id = id(j);
                    r
                })
                .collect(),
            Workload::Solver => (0..2)
                .map(|j| self.solver(id(j), mix(self.seed, u64::MAX - j as u64), 3 * j as u64))
                .collect(),
            Workload::Incremental | Workload::TenantChurn => (0..self.dbs.len())
                .map(|t| {
                    let task = Task::Append {
                        name: RESIDENT.to_string(),
                        base: Some(self.dbs[t].clone()),
                        delta: String::new(),
                    };
                    let fields = vec![
                        ("name", Json::Str(RESIDENT.to_string())),
                        ("base", Json::Str(self.dbs[t].clone())),
                        ("delta", Json::Str(String::new())),
                    ];
                    Request::new(id(t), &self.tenants[t], task, fields)
                })
                .collect(),
        }
    }

    /// One tiny check per shard, on a tenant that shard owns: set-up
    /// waits for an ok reply to each through the router.
    pub fn probes(&self) -> Vec<Request> {
        (0..SHARDS)
            .map(|shard| {
                let tenant = (0..)
                    .map(|j| format!("probe{j}"))
                    .find(|t| service::shard_for(t, SHARDS) == shard)
                    .expect("some probe tenant lands on every shard");
                let train = "rel E/2\nfact E(a,b)\nentity a +\nentity b -\n".to_string();
                let list = vec![ClassSpec::Cq];
                let fields = vec![
                    ("train", Json::Str(train.clone())),
                    ("classes", classes(&list)),
                ];
                let task = Task::Check {
                    train,
                    classes: list,
                };
                Request::new(PROBE_ID_BASE + shard as u64, &tenant, task, fields)
            })
            .collect()
    }

    /// Timed request `i` (0-based); its id is `i + 1`.
    pub fn request(&self, i: u64) -> Request {
        let h = mix(self.seed ^ 0x7E57_0000, i);
        match self.workload {
            Workload::Interactive => {
                let db = (h % INTERACTIVE_DBS as u64) as usize;
                self.interactive(i + 1, db, (h >> 20).is_multiple_of(3))
            }
            Workload::Solver => self.solver(i + 1, h, i),
            Workload::Incremental | Workload::TenantChurn => self.stateful(i),
        }
    }

    fn interactive(&self, id: u64, db: usize, classify: bool) -> Request {
        let tenant = format!("t{}", db % INTERACTIVE_TENANTS);
        let train = self.dbs[db].clone();
        if classify {
            let eval = self.evals[db].clone();
            let task = Task::Classify {
                train: train.clone(),
                eval: eval.clone(),
                class: ClassSpec::Cq,
            };
            let fields = vec![
                ("train", Json::Str(train)),
                ("eval", Json::Str(eval)),
                ("class", Json::Str("cq".to_string())),
            ];
            Request::new(id, &tenant, task, fields)
        } else {
            let list = vec![ClassSpec::Cq, ClassSpec::Cqm(1)];
            let fields = vec![
                ("train", Json::Str(train.clone())),
                ("classes", classes(&list)),
            ];
            let task = Task::Check {
                train,
                classes: list,
            };
            Request::new(id, &tenant, task, fields)
        }
    }

    /// A fresh planted database per request, so every verdict cache
    /// misses and the solvers do the work. Slot `k` fixes the request's
    /// kind and family in rotation (every fourth is a batch), so each
    /// run draws the same mix and only the sampled graphs vary. Checks
    /// use one size, [`SOLVER_N`]: the cover game's cost grows about
    /// 2.5-fold per four vertices here, so a size range would dominate
    /// the run-to-run spread, and at 24 vertices its long tail did.
    fn solver(&self, id: u64, h: u64, k: u64) -> Request {
        let fams = families();
        let tenant = format!("s{}", k % SOLVER_TENANTS);
        let group = k / 4;
        if k % 4 == 3 {
            // Families whose target has at most two atoms: CQ[2] fits them.
            let family = &fams[group as usize % 3];
            let train = spec_text(&planted(family, 28, mix(h, 1)), true);
            let eval = spec_text(&planted(family, 600, mix(h, 2)), false);
            let task = Task::ClassifyBatch {
                train: train.clone(),
                eval: eval.clone(),
                class: ClassSpec::Cqm(2),
            };
            let fields = vec![
                ("train", Json::Str(train)),
                ("eval", Json::Str(eval)),
                ("class", Json::Str("cqm2".to_string())),
            ];
            Request::new(id, &tenant, task, fields)
        } else {
            let family = &fams[(3 * group + k % 4) as usize % fams.len()];
            let train = spec_text(&planted(family, SOLVER_N, mix(h, 3)), true);
            let list = vec![ClassSpec::Cq, ClassSpec::Ghw(1), ClassSpec::Cqm(2)];
            let fields = vec![
                ("train", Json::Str(train.clone())),
                ("classes", classes(&list)),
            ];
            let task = Task::Check {
                train,
                classes: list,
            };
            Request::new(id, &tenant, task, fields)
        }
    }

    /// Stream index of lane `lane`'s `k`-th request (stateful workloads).
    pub fn lane_index(lane: u64, k: u64) -> u64 {
        2 * (lane + LANES * (k / 2)) + k % 2
    }

    /// Round `i / 2` visits one tenant of lane `round % LANES`, in turn:
    /// an insert-only `append` (even `i`), then a `recheck` of the same
    /// resident (odd `i`).
    fn stateful(&self, i: u64) -> Request {
        let per_lane = self.tenants.len() as u64 / LANES;
        let round = i / 2;
        let (lane, k) = (round % LANES, round / LANES);
        let t = (lane * per_lane + k % per_lane) as usize;
        let visit = k / per_lane;
        let tenant = &self.tenants[t];
        let incremental = self.workload == Workload::Incremental;
        if i % 2 == 1 {
            let list = if incremental {
                vec![ClassSpec::Cq, ClassSpec::Ghw(1)]
            } else {
                vec![ClassSpec::Cq]
            };
            let fields = vec![
                ("name", Json::Str(RESIDENT.to_string())),
                ("classes", classes(&list)),
            ];
            let task = Task::Recheck {
                name: RESIDENT.to_string(),
                classes: list,
            };
            return Request::new(i + 1, tenant, task, fields);
        }
        let h = mix(self.seed ^ 0xDE17A, i);
        let n = if incremental { INCREMENTAL_N } else { CHURN_N };
        let x = format!("x{visit}");
        let label = if h.is_multiple_of(2) { '+' } else { '-' };
        let mut delta = format!("add-entity {x} {label}\n");
        delta.push_str(&format!("add-fact E({x},v{})\n", (h >> 8) % n as u64));
        if incremental {
            delta.push_str(&format!("add-fact E(v{},{x})\n", (h >> 16) % n as u64));
        }
        let rebase = visit > 0 && visit.is_multiple_of(REBASE_EVERY);
        let base = rebase.then(|| self.dbs[t].clone());
        let mut fields = vec![("name", Json::Str(RESIDENT.to_string()))];
        if let Some(b) = &base {
            fields.push(("base", Json::Str(b.clone())));
        }
        fields.push(("delta", Json::Str(delta.clone())));
        let task = Task::Append {
            name: RESIDENT.to_string(),
            base,
            delta,
        };
        Request::new(i + 1, tenant, task, fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
