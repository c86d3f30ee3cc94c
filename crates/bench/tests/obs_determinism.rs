//! Observability must be *observationally* inert: running an experiment
//! with the metrics registry enabled and with it runtime-disabled must
//! produce byte-identical answers, and the counters it does collect must
//! satisfy the refresh-pass conservation law.
//!
//! Everything lives in one `#[test]` because `most_obs` is a
//! process-global registry: concurrent test threads toggling
//! `set_enabled` would race each other.

use most_bench::experiments::run_one;
use most_bench::Scale;
use most_testkit::ser::to_json_string;

/// One experiment run reduced to its deterministic answer content:
/// measured wall-clock cells blanked, the metrics snapshot dropped
/// (it is *supposed* to differ between enabled and disabled runs).
fn answers_only(id: &str) -> String {
    let mut t = run_one(id, Scale::Quick).expect("known experiment id");
    t.stabilize();
    t.metrics.clear();
    to_json_string(&t).expect("table serializes")
}

#[test]
fn instrumentation_is_observationally_inert_and_counters_conserve() {
    // E4 exercises the FTL evaluation pipeline, E10 the continuous-query
    // refresh engine, E15 the WAL/recovery/replication path, and E17 the
    // trajectory history recorder — together they cover every layer the
    // observability hooks touch on the query, durability and history
    // paths.
    for id in ["e4", "e10", "e15", "e17"] {
        most_obs::set_enabled(true);
        let instrumented = answers_only(id);
        most_obs::set_enabled(false);
        let disabled = answers_only(id);
        most_obs::set_enabled(true);
        assert_eq!(
            instrumented, disabled,
            "{id}: enabling observability must not change any answer byte"
        );
    }

    // Conservation: every continuous query seen by a refresh pass is
    // either filtered out or evaluated — never both, never neither.
    let t = run_one("e10", Scale::Quick).expect("e10 exists");
    let get = |key: &str| {
        t.metrics
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    };
    assert!(get("refresh.total") > 0, "e10 must drive the refresh engine");
    assert_eq!(
        get("refresh.evaluated") + get("refresh.skipped"),
        get("refresh.total"),
        "refresh counter conservation: evaluated + skipped == total"
    );
    assert_eq!(
        get("refresh.query_nanos.count"),
        get("refresh.evaluated"),
        "every evaluated refresh contributes one latency sample"
    );
    assert!(
        get("refresh.delta") <= get("refresh.evaluated"),
        "a same-tick delta refresh is an evaluated refresh"
    );
}
