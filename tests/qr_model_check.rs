//! Bounded exhaustive model check of the QR protocol.
//!
//! Random simulation finds bugs with luck; this explores *every* reachable
//! protocol state on a small universe (4 sites, uniform votes, two quorum
//! specs, version numbers bounded) under an adversarial scheduler that may
//! partition the up sites arbitrarily between steps. Verified invariants:
//!
//! 1. **Fresh reads** — every granted read reaches a current copy;
//! 2. **Aware writes** — every granted write reaches a current copy;
//! 3. **Refreshable installs** — every permitted reassignment finds a
//!    current copy inside the installing component (the premise of the
//!    install-time value refresh).
//!
//! Under the corrected joint-quorum install rule (`max(q_w_old, q_w_new)`)
//! no violation is reachable; under the paper's literal rule (old `q_w`
//! only) the checker exhaustively *finds* the stale-read state — turning
//! the simulation-discovered bug into a verified property.

#![expect(
    clippy::disallowed_types,
    reason = "test-only visited sets, queried for membership; the determinism rules cover crate code"
)]

use std::collections::{HashSet, VecDeque};

const N: usize = 5;
const MAX_VERSION: u8 = 4;

/// Spec table: (q_r, q_w) over T = 5 votes, all satisfying §2.1. Three
/// distinct write quorums (3, 4, 5) make partial-component installs
/// possible under the joint rule — e.g. (3,3) → (2,4) from a 4-site
/// group leaves one site on the old version, so the checker explores
/// genuinely diverged assignment states.
const SPECS: [(u8, u8); 3] = [(3, 3), (2, 4), (1, 5)];

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct State {
    version: [u8; N],
    spec: [u8; N], // index into SPECS
    current: [bool; N],
}

impl State {
    fn initial() -> Self {
        State {
            version: [1; N],
            spec: [0; N],
            current: [true; N],
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Violation {
    StaleRead,
    BlindWrite,
    RefreshWithoutCurrentCopy,
}

/// All ways to split the site set into disjoint non-empty groups (down
/// sites simply belong to no group). Encoded as: each site gets a label in
/// 0..=N (N = down); groups are label equivalence classes.
fn partitions() -> Vec<Vec<Vec<usize>>> {
    let mut out = Vec::new();
    let mut labels = [0usize; N];
    #[allow(clippy::needless_range_loop)]
    fn rec(i: usize, labels: &mut [usize; N], out: &mut Vec<Vec<Vec<usize>>>) {
        if i == N {
            let mut groups: Vec<Vec<usize>> = Vec::new();
            let mut seen: Vec<usize> = Vec::new();
            for s in 0..N {
                if labels[s] == N {
                    continue; // down
                }
                match seen.iter().position(|&l| l == labels[s]) {
                    Some(g) => groups[g].push(s),
                    None => {
                        seen.push(labels[s]);
                        groups.push(vec![s]);
                    }
                }
            }
            out.push(groups);
            return;
        }
        for l in 0..=N {
            labels[i] = l;
            rec(i + 1, labels, out);
        }
    }
    rec(0, &mut labels, &mut out);
    // Dedup structurally identical partitions (label symmetry).
    let mut seen = HashSet::new();
    out.retain(|groups| {
        let mut key: Vec<Vec<usize>> = groups.clone();
        for g in &mut key {
            g.sort_unstable();
        }
        key.sort();
        seen.insert(key)
    });
    out
}

fn effective(state: &State, group: &[usize]) -> (u8, u8) {
    let v = group
        .iter()
        .map(|&s| state.version[s])
        .max()
        .expect("groups enumerated by the model checker are non-empty");
    let spec = group
        .iter()
        .filter(|&&s| state.version[s] == v)
        .map(|&s| state.spec[s])
        .next()
        .expect("some site carries the maximum version by construction");
    (v, spec)
}

fn synced(mut state: State, group: &[usize]) -> State {
    let (v, spec) = effective(&state, group);
    for &s in group {
        state.version[s] = v;
        state.spec[s] = spec;
    }
    state
}

/// Explores all reachable states; returns the violations found.
fn explore(joint_rule: bool) -> HashSet<Violation> {
    let parts = partitions();
    let mut violations = HashSet::new();
    let mut visited: HashSet<State> = HashSet::new();
    let mut queue = VecDeque::new();
    visited.insert(State::initial());
    queue.push_back(State::initial());

    while let Some(state) = queue.pop_front() {
        for groups in &parts {
            for group in groups {
                let votes = group.len() as u8;
                let base = synced(state, group);
                let (eff_v, eff_spec) = effective(&base, group);
                let (q_r, q_w) = SPECS[eff_spec as usize];
                let has_current = group.iter().any(|&s| base.current[s]);

                // READ
                if votes >= q_r && !has_current {
                    violations.insert(Violation::StaleRead);
                }
                // WRITE
                if votes >= q_w {
                    if !has_current {
                        violations.insert(Violation::BlindWrite);
                    }
                    let mut next = base;
                    for s in 0..N {
                        next.current[s] = group.contains(&s);
                    }
                    if visited.insert(next) {
                        queue.push_back(next);
                    }
                }
                // REASSIGN to each other spec.
                for (idx, &(_, new_q_w)) in SPECS.iter().enumerate() {
                    if idx as u8 == eff_spec || eff_v >= MAX_VERSION {
                        continue;
                    }
                    let need = if joint_rule { q_w.max(new_q_w) } else { q_w };
                    if votes < need {
                        continue;
                    }
                    if !has_current {
                        violations.insert(Violation::RefreshWithoutCurrentCopy);
                    }
                    let mut next = base;
                    for &s in group {
                        next.version[s] = eff_v + 1;
                        next.spec[s] = idx as u8;
                        // Install refreshes the current value onto every
                        // member (when a current copy is present).
                        if has_current {
                            next.current[s] = true;
                        }
                    }
                    if visited.insert(next) {
                        queue.push_back(next);
                    }
                }
                // Plain sync (join without access) also changes state.
                if visited.insert(base) {
                    queue.push_back(base);
                }
            }
        }
    }
    violations
}

#[test]
fn joint_rule_has_no_reachable_violations() {
    let v = explore(true);
    assert!(
        v.is_empty(),
        "joint-quorum QR must be safe in every reachable state, found {v:?}"
    );
}

#[test]
fn paper_rule_violation_is_reachable() {
    let v = explore(false);
    assert!(
        v.contains(&Violation::StaleRead),
        "the literal §2.2 rule should admit a stale read; found only {v:?}"
    );
}

#[test]
fn partition_enumeration_is_exhaustive() {
    // Σ_{k=0..5} C(5,k)·Bell(k) = 1 + 5 + 20 + 50 + 75 + 52 = 203.
    assert_eq!(partitions().len(), 203);
}

#[test]
fn state_space_is_modest() {
    // Sanity on the exploration size (documents the bound for reviewers).
    let parts = partitions();
    let mut visited: HashSet<State> = HashSet::new();
    let mut queue = VecDeque::from([State::initial()]);
    visited.insert(State::initial());
    while let Some(state) = queue.pop_front() {
        for groups in &parts {
            for group in groups {
                let base = synced(state, group);
                let votes = group.len() as u8;
                let (eff_v, eff_spec) = effective(&base, group);
                let (_q_r, q_w) = SPECS[eff_spec as usize];
                if votes >= q_w {
                    let mut next = base;
                    for s in 0..N {
                        next.current[s] = group.contains(&s);
                    }
                    if visited.insert(next) {
                        queue.push_back(next);
                    }
                }
                for (idx, &(_, new_q_w)) in SPECS.iter().enumerate() {
                    if idx as u8 == eff_spec || eff_v >= MAX_VERSION {
                        continue;
                    }
                    if votes < q_w.max(new_q_w) {
                        continue;
                    }
                    let has_current = group.iter().any(|&s| base.current[s]);
                    let mut next = base;
                    for &s in group {
                        next.version[s] = eff_v + 1;
                        next.spec[s] = idx as u8;
                        if has_current {
                            next.current[s] = true;
                        }
                    }
                    if visited.insert(next) {
                        queue.push_back(next);
                    }
                }
                if visited.insert(base) {
                    queue.push_back(base);
                }
            }
        }
    }
    assert!(
        visited.len() < 2_000_000,
        "state space blew up: {}",
        visited.len()
    );
    // The joint install rule is restrictive by design, so the reachable
    // space is small (≈200 states with three specs on five sites):
    // version divergence only arises from the (3,3) → (2,4) install out
    // of a 4-site component. The paper's looser rule reaches more states —
    // including the violating ones `paper_rule_violation_is_reachable`
    // exhibits.
    assert!(
        visited.len() > 150,
        "exploration too shallow: {} (version divergence unreachable?)",
        visited.len()
    );
}
