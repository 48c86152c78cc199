//! Golden pin of the model checker's complete reports.
//!
//! Every exploration below compares the whole `McReport` — every field —
//! against committed values. The explorer's bookkeeping (state keys, the
//! visited set, state copies, the protocol core's session table) may be
//! rewritten for speed, but the search must stay the same search: the
//! same canonical quotient, the same BFS order, the same reductions, and
//! therefore the same counts. A key encoding that merges two distinct
//! states shrinks `states_explored`; one that splits a state grows it.
//!
//! The cases cover:
//! * the symmetric universe (a two-element symmetry group) under the
//!   default options, without the symmetry quotient, and without the
//!   reduction, each with the fix and with the `mix_epoch_votes`
//!   ablation;
//! * the standard universe at one partition change and no retries, fixed
//!   and ablated;
//! * a one-access standard universe with retries, where the ablation
//!   really does find cross-epoch mixing, reduced and unreduced;
//! * a depth-truncated and a state-capped run.

use quorum_mc::{explore, ExploreOptions, McReport, Universe};

#[expect(
    clippy::too_many_arguments,
    reason = "one positional argument per report counter keeps each table row on one line"
)]
fn report(
    states_explored: u64,
    transitions: u64,
    cross_epoch_violations: u64,
    first_cross_epoch_depth: Option<u32>,
    truncated: u64,
    capped: bool,
    por_skips: u64,
    noop_skips: u64,
    symmetry_perms: u64,
    max_depth_seen: u32,
) -> McReport {
    McReport {
        states_explored,
        transitions,
        cross_epoch_violations,
        stale_read_violations: 0,
        multi_write_violations: 0,
        first_violation_depth: first_cross_epoch_depth,
        first_cross_epoch_depth,
        truncated,
        capped,
        por_skips,
        noop_skips,
        symmetry_perms,
        max_depth_seen,
    }
}

fn opts(mix_epoch_votes: bool, symmetry: bool, reduction: bool) -> ExploreOptions {
    ExploreOptions {
        mix_epoch_votes,
        symmetry,
        reduction,
        ..ExploreOptions::default()
    }
}

/// The standard universe at one partition change and no retries: the
/// perfbench `mc_standard_nc1_r0` workload.
fn standard_nc1_r0() -> Universe {
    let mut u = Universe::standard();
    u.max_net_changes = 1;
    u.max_retries = 0;
    u
}

/// The standard universe cut to its first access (the write from site
/// 0), keeping the install and the retry that let the ablation mix
/// epochs.
fn standard_one_access(max_net_changes: u32) -> Universe {
    let mut u = Universe::standard();
    u.max_net_changes = max_net_changes;
    u.accesses.truncate(1);
    u
}

#[test]
fn symmetric_universe_reports_are_pinned() {
    let u = Universe::symmetric();
    // (symmetry, reduction) → expected report. The symmetric universe
    // has no installs, so the ablation cannot fire and must not change
    // a single count.
    let cases = [
        (
            true,
            true,
            report(349, 676, 0, None, 0, false, 281, 249, 2, 12),
        ),
        (
            false,
            true,
            report(618, 1196, 0, None, 0, false, 498, 452, 1, 12),
        ),
        (
            true,
            false,
            report(2242, 13315, 0, None, 0, false, 0, 0, 2, 12),
        ),
    ];
    for (symmetry, reduction, expected) in cases {
        for mix in [false, true] {
            assert_eq!(
                explore(&u, &opts(mix, symmetry, reduction)),
                expected,
                "symmetric universe, symmetry={symmetry} reduction={reduction} mix={mix}"
            );
        }
    }
}

#[test]
fn standard_nc1_r0_reports_are_pinned() {
    let u = standard_nc1_r0();
    let expected = report(25_024, 50_897, 0, None, 0, false, 15_930, 19_401, 1, 17);
    for mix in [false, true] {
        assert_eq!(
            explore(&u, &opts(mix, true, true)),
            expected,
            "standard nc=1 r=0, mix={mix}"
        );
    }
}

#[test]
fn one_access_standard_reports_are_pinned() {
    let cases = [
        // (max_net_changes, reduction, mix) → expected report.
        (
            1,
            true,
            false,
            report(7827, 15_356, 0, None, 0, false, 5269, 5895, 1, 16),
        ),
        (
            1,
            true,
            true,
            report(8287, 16_274, 93, Some(6), 0, false, 5591, 6258, 1, 16),
        ),
        (
            0,
            false,
            false,
            report(26_694, 200_599, 0, None, 0, false, 0, 0, 1, 15),
        ),
        (
            0,
            false,
            true,
            report(31_150, 240_065, 308, Some(6), 0, false, 0, 0, 1, 15),
        ),
    ];
    for (nc, reduction, mix, expected) in cases {
        assert_eq!(
            explore(&standard_one_access(nc), &opts(mix, true, reduction)),
            expected,
            "one-access standard, nc={nc} reduction={reduction} mix={mix}"
        );
    }
}

#[test]
fn bounded_runs_are_pinned() {
    let u = Universe::symmetric();
    let truncated = explore(
        &u,
        &ExploreOptions {
            max_depth: Some(4),
            ..ExploreOptions::default()
        },
    );
    let capped = explore(
        &u,
        &ExploreOptions {
            max_states: Some(100),
            ..ExploreOptions::default()
        },
    );
    assert_eq!(truncated, report(28, 41, 0, None, 15, false, 21, 4, 2, 4));
    assert_eq!(capped, report(100, 148, 0, None, 0, true, 83, 24, 2, 5));
}
