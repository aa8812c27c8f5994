//! The traced run: its layer spans cover the traced request time
//! (ROADMAP gate: within 5%), and it reports the tracing overhead.
//! Run with `--release`.

use loadbench::fleet::build_router;
use loadbench::gen::Workload;
use loadbench::trace::{self, Recorder, MIN_COVERAGE};
use std::time::Duration;

#[test]
fn self_time_subtracts_children() {
    let mut rec = Recorder::new(true);
    rec.span("request", 1, |rec| {
        rec.span("a", 1, |_| std::thread::sleep(Duration::from_millis(20)));
        rec.span("b", 1, |rec| {
            rec.span("c", 1, |_| std::thread::sleep(Duration::from_millis(10)))
        });
    });
    let own = rec.self_ns();
    assert!(own["a"] >= 20_000_000);
    assert!(own["c"] >= 10_000_000);
    assert!(own["b"] < own["c"], "b's self time excludes c");
    assert!(rec.coverage() > 0.9);
    assert_eq!(rec.spans[1].parent, Some(0));
    assert_eq!(rec.spans[3].parent, Some(2));
}

#[test]
fn traced_runs_cover_the_request_time() {
    let router = build_router().expect("cqsep-router builds");
    for w in [Workload::Solver, Workload::TenantChurn] {
        let out = trace::run(&router, w, 5, Duration::from_secs(1)).expect("traced run");
        assert!(out.correct(), "{}: {:?}", w.name(), out.problems);
        let coverage = out.metric("trace.coverage").expect("coverage reported");
        assert!(coverage >= MIN_COVERAGE, "{}: {coverage}", w.name());
        assert!(out.metric("trace.overhead_pct").is_some());
        assert!(out.metric("trace.request_ms").unwrap_or(0.0) > 0.0);
    }
}
