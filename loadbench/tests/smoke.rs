//! A tiny run of every workload through a real `cqsep-router`: every
//! reply checked against the oracle and the shards' own counters.
//! Run with `--release` (the oracle replays solver requests in process).

use loadbench::fleet::{build_router, ShardCounters};
use loadbench::gen::{Stream, Workload};
use loadbench::timed::{offer, set_up_once, verify};
use std::time::Duration;

#[test]
fn every_workload_round_trips_through_the_router() {
    let router = build_router().expect("cqsep-router builds");
    for w in Workload::ALL {
        let stream = Stream::new(w, 11);
        let fleet = set_up_once(&router, &stream).expect("fleet starts");
        let before = fleet.shard_counters().expect("shard stats");
        let phase = offer(&fleet, &stream, Duration::from_millis(1500));
        let after = fleet.shard_counters().expect("shard stats");
        fleet.stop().expect("fleet stops");
        let verdict = verify(&stream, &phase, &ShardCounters::delta(&after, &before));
        assert!(verdict.attempted > 0, "{}", w.name());
        assert_eq!(verdict.failed, 0, "{}: {:?}", w.name(), verdict.problems);
        assert!(
            verdict.problems.is_empty(),
            "{}: {:?}",
            w.name(),
            verdict.problems
        );
    }
}
