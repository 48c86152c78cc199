//! Bounded exhaustive model check of Jajodia–Mutchler dynamic voting.
//!
//! Companion to `qr_model_check.rs`: explores every reachable
//! `(vn, sc, current)` state of the dynamic voting protocol on a small
//! universe under an adversarial partition scheduler, verifying that no
//! reachable state admits a stale read or a blind write — and that the
//! strictness of the majority test is load-bearing (weakening `>` to `≥`
//! makes a violation reachable).

#![expect(
    clippy::disallowed_types,
    reason = "test-only visited sets, queried for membership; the determinism rules cover crate code"
)]

use std::collections::{HashSet, VecDeque};

const N: usize = 4;
const MAX_VN: u8 = 5;

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct State {
    vn: [u8; N],
    sc: [u8; N],
    current: [bool; N],
}

impl State {
    fn initial() -> Self {
        State {
            vn: [1; N],
            sc: [N as u8; N],
            current: [true; N],
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Violation {
    StaleRead,
    BlindWrite,
}

/// All partitions of subsets of `0..N` into disjoint non-empty groups.
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
                    continue;
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

/// Evaluates the dynamic-voting access condition for `group`.
fn granted(state: &State, group: &[usize], strict: bool) -> (bool, u8) {
    let max_vn = group
        .iter()
        .map(|&s| state.vn[s])
        .max()
        .expect("groups enumerated by the model checker are non-empty");
    let holders: Vec<usize> = group
        .iter()
        .copied()
        .filter(|&s| state.vn[s] == max_vn)
        .collect();
    let electorate = state.sc[holders[0]];
    let ok = if strict {
        2 * holders.len() as u8 > electorate
    } else {
        2 * holders.len() as u8 >= electorate
    };
    (ok, max_vn)
}

fn explore(strict: bool) -> (HashSet<Violation>, usize) {
    let parts = partitions();
    let mut violations = HashSet::new();
    let mut visited: HashSet<State> = HashSet::new();
    let mut queue = VecDeque::from([State::initial()]);
    visited.insert(State::initial());
    while let Some(state) = queue.pop_front() {
        for groups in &parts {
            for group in groups {
                let (ok, max_vn) = granted(&state, group, strict);
                if !ok {
                    continue;
                }
                let has_current = group.iter().any(|&s| state.current[s]);
                // READ: granted; must see the latest value.
                if !has_current {
                    violations.insert(Violation::StaleRead);
                }
                // WRITE: must be aware; installs a new epoch.
                if !has_current {
                    violations.insert(Violation::BlindWrite);
                }
                if max_vn < MAX_VN {
                    let mut next = state;
                    for &s in group {
                        next.vn[s] = max_vn + 1;
                        next.sc[s] = group.len() as u8;
                    }
                    for s in 0..N {
                        next.current[s] = group.contains(&s);
                    }
                    if visited.insert(next) {
                        queue.push_back(next);
                    }
                }
            }
        }
    }
    (violations, visited.len())
}

#[test]
fn strict_majority_has_no_reachable_violations() {
    let (v, states) = explore(true);
    assert!(
        v.is_empty(),
        "dynamic voting must be safe in every reachable state, found {v:?}"
    );
    assert!(
        states > 50,
        "exploration too shallow ({states} states) to be meaningful"
    );
}

#[test]
fn non_strict_majority_is_unsafe() {
    // Weakening the strict `>` to `≥` lets two halves of an even
    // electorate both act: the split-brain the strictness exists for.
    let (v, _) = explore(false);
    assert!(
        v.contains(&Violation::StaleRead) || v.contains(&Violation::BlindWrite),
        "the ≥ variant should reach a violation, found {v:?}"
    );
}

#[test]
fn partition_count_matches_formula() {
    // Σ_{k=0..4} C(4,k)·Bell(k) = 52.
    assert_eq!(partitions().len(), 52);
}
