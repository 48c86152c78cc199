//! Integration tests for the `quorum-mc` bounded explorer.
//!
//! The model checker drives the engine's real `ProtocolCore` through
//! every reachable interleaving of a scripted universe. These tests pin
//! the three headline claims of the checker:
//!
//! 1. Exploration of the standard bug-hunting universe is *exhaustive*
//!    within its bounds (nothing depth-truncated, nothing state-capped),
//!    and the fixed engine has **zero** violations in every reachable
//!    state.
//! 2. The `mix_epoch_votes` ablation — the pre-fix retry behavior —
//!    makes the same checker find cross-epoch vote mixing, so the
//!    checker demonstrably *can* catch the bug it certifies the absence
//!    of.
//! 3. The search is deterministic, and the soundness-critical reduction
//!    and symmetry options change cost, never verdicts.
//!
//! The full standard universe (partition toggles enabled) runs ~2.5M
//! states in release; debug-mode tests trim it to the fully-connected
//! mode (`max_net_changes = 0`, ~600k states), which still reaches the
//! mixing bug through both of its channels. CI's `model-check` job runs
//! the untrimmed universe through the release binary.

use quorum_mc::{explore, ExploreOptions, Universe};

/// The standard universe with partition toggles disabled: small enough
/// for debug-mode exhaustion, still containing the install/retry races.
fn trimmed_standard() -> Universe {
    let mut u = Universe::standard();
    u.max_net_changes = 0;
    u
}

#[test]
fn fixed_engine_certifies_clean_exhaustively() {
    let report = explore(&trimmed_standard(), &ExploreOptions::default());
    assert!(
        report.exhaustive(),
        "exploration must be exhaustive: {report:?}"
    );
    assert_eq!(report.violations(), 0, "fixed engine violated: {report:?}");
    // The space is non-trivial: the certificate quantifies over a real
    // state count, not a degenerate handful.
    assert!(
        report.states_explored > 100_000,
        "suspiciously small space: {report:?}"
    );
}

#[test]
fn ablation_is_caught_by_the_checker() {
    let opts = ExploreOptions {
        mix_epoch_votes: true,
        ..ExploreOptions::default()
    };
    let report = explore(&trimmed_standard(), &opts);
    assert!(report.exhaustive(), "{report:?}");
    assert!(
        report.cross_epoch_violations >= 1,
        "ablated engine must exhibit cross-epoch mixing: {report:?}"
    );
    assert!(
        report.first_cross_epoch_depth.is_some(),
        "violation depth must be recorded: {report:?}"
    );
    // The bug needs an install racing a retry; it cannot fire at the
    // root or within the first couple of protocol steps.
    assert!(report.first_cross_epoch_depth.unwrap() >= 3);
}

#[test]
fn exploration_is_deterministic_across_runs() {
    let u = Universe::symmetric();
    let a = explore(&u, &ExploreOptions::default());
    let b = explore(&u, &ExploreOptions::default());
    assert_eq!(a, b, "identical inputs must produce identical reports");
}

#[test]
fn reduction_changes_cost_not_verdicts() {
    let u = Universe::symmetric();
    let reduced = explore(&u, &ExploreOptions::default());
    let full = explore(
        &u,
        &ExploreOptions {
            reduction: false,
            ..ExploreOptions::default()
        },
    );
    assert!(reduced.exhaustive() && full.exhaustive());
    assert_eq!(reduced.violations(), 0);
    assert_eq!(full.violations(), 0);
    assert!(
        reduced.states_explored <= full.states_explored,
        "reduction must not enlarge the space: {} vs {}",
        reduced.states_explored,
        full.states_explored
    );
    assert!(reduced.por_skips > 0, "reduction should actually prune");
}

#[test]
fn reduction_preserves_the_ablation_verdict() {
    // Soundness both ways: the pruned search must still find the bug.
    let u = Universe::symmetric();
    let mut std_small = trimmed_standard();
    // Single access keeps the unreduced search affordable in debug.
    std_small.accesses.truncate(1);
    for universe in [&u, &std_small] {
        let ablate_reduced = explore(
            universe,
            &ExploreOptions {
                mix_epoch_votes: true,
                ..ExploreOptions::default()
            },
        );
        let ablate_full = explore(
            universe,
            &ExploreOptions {
                mix_epoch_votes: true,
                reduction: false,
                ..ExploreOptions::default()
            },
        );
        assert!(ablate_reduced.exhaustive() && ablate_full.exhaustive());
        assert_eq!(
            ablate_reduced.cross_epoch_violations > 0,
            ablate_full.cross_epoch_violations > 0,
            "reduction flipped the {} verdict: reduced {:?} vs full {:?}",
            universe.name,
            ablate_reduced.cross_epoch_violations,
            ablate_full.cross_epoch_violations
        );
    }
}

#[test]
fn symmetry_shrinks_but_never_lies() {
    let u = Universe::symmetric();
    let quotient = explore(&u, &ExploreOptions::default());
    let full = explore(
        &u,
        &ExploreOptions {
            symmetry: false,
            ..ExploreOptions::default()
        },
    );
    assert!(quotient.exhaustive() && full.exhaustive());
    assert!(quotient.symmetry_perms > 1, "group should be non-trivial");
    assert!(
        quotient.states_explored < full.states_explored,
        "quotient must shrink the space: {} vs {}",
        quotient.states_explored,
        full.states_explored
    );
    assert_eq!(quotient.violations(), full.violations());
}

#[test]
fn report_counters_flow_into_the_registry() {
    let report = explore(&Universe::symmetric(), &ExploreOptions::default());
    let registry = quorum_obs::Registry::new();
    report.observe_into(&registry);
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter(quorum_obs::keys::MC_STATES_EXPLORED),
        report.states_explored
    );
    assert_eq!(snap.counter(quorum_obs::keys::MC_VIOLATIONS), 0);
    assert_eq!(snap.counter(quorum_obs::keys::MC_TRUNCATED), 0);
    assert_eq!(snap.counter(quorum_obs::keys::MC_CAPPED), 0);
}

#[test]
fn model_check_manifest_records_time_and_memory() {
    let u = Universe::symmetric();
    let report = explore(&u, &ExploreOptions::default());
    let wall = std::time::Duration::from_millis(250);
    let m = quorum_bench::manifest::model_check_manifest(&u.votes, false, &report, wall);
    let explore_phase: Vec<_> = m
        .phases
        .iter()
        .filter(|p| p.phase == quorum_obs::keys::MC_EXPLORE.as_str())
        .collect();
    assert_eq!(explore_phase.len(), 1);
    assert_eq!(explore_phase[0].activations, 1);
    assert!((explore_phase[0].seconds - 0.25).abs() < 1e-9);
    assert_eq!(
        m.counter(quorum_obs::keys::MC_STATES_EXPLORED),
        report.states_explored
    );
    let peak = m.metrics.get(quorum_obs::keys::MC_PEAK_RSS_MB.as_str());
    if std::path::Path::new("/proc/self/status").exists() {
        assert!(peak.is_some_and(|&mb| mb > 0.0), "{peak:?}");
    } else {
        assert!(peak.is_none());
    }
}
