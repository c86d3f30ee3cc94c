//! The experiments, one module per DESIGN.md §3 row.

pub mod e1_update_cost;
pub mod e2_index_access;
pub mod e3_continuous;
pub mod e4_ftl;
pub mod e5_rewrite;
pub mod e6_distributed;
pub mod e6b_transmission;
pub mod e7_index_ablation;
pub mod e8_rebuild_period;
pub mod e9_index_pruning;
pub mod e10_refresh;
pub mod e11_reliability;
pub mod e12_server;
pub mod e13_epochs;
pub mod e15_durability;
pub mod e16_sharding;
pub mod e17_history;
pub mod fig1_query_types;
pub mod micro;

use crate::{Scale, Table};
use std::sync::{Mutex, PoisonError};

/// One experiment at a time per process.  The `most_obs` registry is
/// process-global: a running experiment's adds would leak into another's
/// snapshot, so concurrent `run_all`/`run_one` callers (the root
/// `experiments_smoke` tests) must not interleave.
static EXPERIMENT_LOCK: Mutex<()> = Mutex::new(());

/// Runs an experiment with a clean observability registry and snapshots
/// the counters into the table's deterministic `metrics` block, holding
/// [`EXPERIMENT_LOCK`] across reset → run → snapshot.
///
/// Counter values are pure functions of the workload (seeded, no
/// wall-clock-derived counts), so the snapshot is byte-identical across
/// same-seed runs — CI diffs it.  Histograms contribute only their
/// sample *counts*, never timings.
fn with_metrics(run: impl FnOnce() -> Table) -> Table {
    // An experiment that panicked (a failed in-run gate) leaves nothing
    // behind the lock to be inconsistent: the next run resets first.
    let _exclusive = EXPERIMENT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    most_obs::reset();
    let mut t = run();
    t.metrics = most_obs::metrics_kv();
    t
}

/// Like [`with_metrics`] but drops `.peak` gauges from the snapshot.
///
/// Peak gauges (high-water marks like `server.outbox.peak`) depend on
/// thread scheduling even when every *count* is deterministic, so
/// experiments that exercise real concurrency (E12) exclude them from the
/// CI-diffed block.
fn with_filtered_metrics(run: impl FnOnce() -> Table) -> Table {
    let mut t = with_metrics(run);
    t.metrics.retain(|(k, _)| !k.ends_with(".peak"));
    t
}

/// E3 with its in-run gate, read from the counters the lock kept every
/// other experiment out of: every refresh that did not renew a window
/// re-evaluated only the objects its batch touched (DESIGN.md §6).
fn e3(scale: Scale) -> Table {
    let t = with_metrics(|| e3_continuous::run(scale));
    let get = |name: &str| t.metrics.iter().find(|m| m.0 == name).map_or(0, |m| m.1);
    let renewals = get("refresh.horizon_renewals");
    assert_eq!(get("refresh.delta") + renewals, get("refresh.evaluated"), "E3: a full refresh");
    t
}

/// Runs every experiment, in report order.
pub fn run_all(scale: Scale) -> Vec<Table> {
    vec![
        with_metrics(fig1_query_types::run),
        with_metrics(|| e1_update_cost::run(scale)),
        with_metrics(|| e2_index_access::run(scale)),
        e3(scale),
        with_metrics(|| e4_ftl::run(scale)),
        with_metrics(|| e4_ftl::run_ablation(scale)),
        with_metrics(|| e5_rewrite::run(scale)),
        with_metrics(|| e6_distributed::run(scale)),
        with_metrics(|| e6b_transmission::run(scale)),
        with_metrics(|| e7_index_ablation::run(scale)),
        with_metrics(|| e8_rebuild_period::run(scale)),
        with_metrics(|| e9_index_pruning::run(scale)),
        with_metrics(|| e10_refresh::run(scale)),
        with_metrics(|| e11_reliability::run(scale)),
        with_filtered_metrics(|| e12_server::run(scale)),
        with_filtered_metrics(|| e13_epochs::run(scale)),
        with_filtered_metrics(|| e15_durability::run(scale)),
        with_filtered_metrics(|| e16_sharding::run(scale)),
        with_filtered_metrics(|| e17_history::run(scale)),
        with_metrics(|| micro::run(scale)),
    ]
}

/// Runs one experiment by id (`fig1`, `e1` ... `e17`); `None` for an
/// unknown id.
pub fn run_one(id: &str, scale: Scale) -> Option<Table> {
    Some(match id.to_ascii_lowercase().as_str() {
        "fig1" => with_metrics(fig1_query_types::run),
        "e1" => with_metrics(|| e1_update_cost::run(scale)),
        "e2" => with_metrics(|| e2_index_access::run(scale)),
        "e3" => e3(scale),
        "e4" => with_metrics(|| e4_ftl::run(scale)),
        "e4b" => with_metrics(|| e4_ftl::run_ablation(scale)),
        "e5" => with_metrics(|| e5_rewrite::run(scale)),
        "e6" => with_metrics(|| e6_distributed::run(scale)),
        "e6b" => with_metrics(|| e6b_transmission::run(scale)),
        "e7" => with_metrics(|| e7_index_ablation::run(scale)),
        "e8" => with_metrics(|| e8_rebuild_period::run(scale)),
        "e9" => with_metrics(|| e9_index_pruning::run(scale)),
        "e10" => with_metrics(|| e10_refresh::run(scale)),
        "e11" => with_metrics(|| e11_reliability::run(scale)),
        "e12" => with_filtered_metrics(|| e12_server::run(scale)),
        "e13" => with_filtered_metrics(|| e13_epochs::run(scale)),
        "e15" => with_filtered_metrics(|| e15_durability::run(scale)),
        "e16" => with_filtered_metrics(|| e16_sharding::run(scale)),
        "e17" => with_filtered_metrics(|| e17_history::run(scale)),
        "micro" => with_metrics(|| micro::run(scale)),
        _ => return None,
    })
}
