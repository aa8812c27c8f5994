//! The request stream is a pure function of the seed.

use loadbench::fleet::SHARDS;
use loadbench::gen::{Stream, Workload, LANES};
use service::json::Json;
use service::shard_for;

fn lines(workload: Workload, seed: u64) -> Vec<String> {
    let stream = Stream::new(workload, seed);
    let setup = stream.probes().into_iter().chain(stream.priming());
    setup
        .chain((0..48).map(|i| stream.request(i)))
        .map(|r| r.line())
        .collect()
}

#[test]
fn a_seed_fixes_every_byte_of_the_stream() {
    for w in Workload::ALL {
        assert_eq!(lines(w, 7), lines(w, 7), "{}", w.name());
        assert_ne!(lines(w, 7), lines(w, 8), "{}", w.name());
    }
}

#[test]
fn lines_carry_their_id_verb_and_tenant() {
    for w in Workload::ALL {
        let stream = Stream::new(w, 3);
        for i in 0..16 {
            let r = stream.request(i);
            let line = Json::parse(&r.line()).expect("every line is one JSON object");
            assert_eq!(line.get("id").and_then(Json::as_u64), Some(i + 1));
            assert_eq!(line.get("task").and_then(Json::as_str), Some(r.verb()));
            assert_eq!(
                line.get("tenant").and_then(Json::as_str),
                Some(r.tenant.as_str())
            );
        }
    }
}

#[test]
fn rounds_pair_an_append_with_a_recheck_on_one_lane_s_shard() {
    for w in [Workload::Incremental, Workload::TenantChurn] {
        let stream = Stream::new(w, 3);
        for lane in 0..LANES {
            for k in (0..64).step_by(2) {
                let append = stream.request(Stream::lane_index(lane, k));
                let recheck = stream.request(Stream::lane_index(lane, k + 1));
                assert_eq!((append.verb(), recheck.verb()), ("append", "recheck"));
                assert_eq!(recheck.id, append.id + 1);
                assert_eq!(append.tenant, recheck.tenant);
                assert_eq!(shard_for(&append.tenant, SHARDS) as u64, lane);
            }
        }
    }
}
