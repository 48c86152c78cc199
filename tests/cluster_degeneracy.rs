//! Degeneracy: the message-level cluster engine with an ideal network
//! (zero latency, zero loss, no retries) must reproduce the
//! instantaneous simulator **exactly** — same RNG streams, same failure
//! sample paths, same per-access decisions — on every topology family,
//! including the weighted bus (where the hub carries no votes and no
//! workload). This is the contract that lets the cluster's latency/loss
//! results extend the paper's §5 numbers instead of contradicting them.

use quorum_cluster::{run_cluster, ClusterConfig, ClusterEngine, Outcome};
use quorum_core::{Access, Decision, QuorumConsensus, QuorumSpec, VoteAssignment};
use quorum_des::SimParams;
use quorum_graph::Topology;
use quorum_obs::Registry;
use quorum_replica::{run_static_observed, AccessObserver, RunConfig, Simulation, Workload};

fn quick_params() -> SimParams {
    SimParams {
        warmup_accesses: 500,
        batch_accesses: 6_000,
        min_batches: 3,
        max_batches: 5,
        ci_half_width: 0.02,
        ..SimParams::paper()
    }
}

/// The three families the degeneracy contract covers: uniform ring,
/// uniform fully-connected, and the bus whose hub (node 0) is pure
/// wiring — zero votes, zero workload weight.
fn families() -> Vec<(Topology, VoteAssignment, Workload)> {
    let mut out = vec![
        (
            Topology::ring(9),
            VoteAssignment::uniform(9),
            Workload::uniform(9, 0.7),
        ),
        (
            Topology::fully_connected(9),
            VoteAssignment::uniform(9),
            Workload::uniform(9, 0.7),
        ),
    ];
    let bus = Topology::bus(8);
    let mut votes = vec![1u64; 9];
    votes[0] = 0;
    let mut weights = vec![1.0; 9];
    weights[0] = 0.0;
    out.push((
        bus,
        VoteAssignment::weighted(votes),
        Workload::weighted(0.7, &weights, &weights),
    ));
    out
}

/// Records the instantaneous simulator's per-access decisions by
/// measured index.
#[derive(Default)]
struct Recorder {
    decisions: Vec<Option<(Access, Decision)>>,
}

impl AccessObserver for Recorder {
    fn on_access(
        &mut self,
        _site: usize,
        _members: &[usize],
        _votes: u64,
        kind: Access,
        decision: Decision,
        measured_index: Option<u64>,
    ) {
        if let Some(i) = measured_index {
            let i = i as usize;
            if self.decisions.len() <= i {
                self.decisions.resize(i + 1, None);
            }
            self.decisions[i] = Some((kind, decision));
        }
    }
}

/// With an ideal network, every measured access must resolve to exactly
/// the decision the instantaneous simulator makes for the same seed:
/// `Committed ↔ Granted`, `TimedOut`/`Unavailable` ↔ `Denied`.
#[test]
fn ideal_cluster_decisions_match_instantaneous_per_access() {
    for (topo, votes, workload) in families() {
        for seed in [3u64, 41] {
            let params = quick_params();
            let total = votes.total();
            let spec = QuorumSpec::majority(total);

            let mut cfg = ClusterConfig::ideal(params);
            cfg.record_outcomes = true;
            let mut engine =
                ClusterEngine::with_votes(&topo, cfg, spec, votes.clone(), workload.clone(), seed);
            let stats = engine.run_indexed_batch(0);
            assert_eq!(stats.freshness_violations, 0, "{}", topo.name());

            let mut sim =
                Simulation::with_votes(&topo, params, votes.clone(), workload.clone(), seed);
            let mut proto = QuorumConsensus::new(votes.clone(), spec);
            let mut rec = Recorder::default();
            sim.run_indexed_batch(&mut proto, &mut rec, 0);

            assert_eq!(
                stats.outcomes.len(),
                rec.decisions.len(),
                "{} seed {seed}: measured-access counts differ",
                topo.name()
            );
            for (i, (cluster, instant)) in stats.outcomes.iter().zip(&rec.decisions).enumerate() {
                let (c_kind, outcome) = cluster.unwrap_or_else(|| {
                    panic!("{} seed {seed}: access {i} never resolved", topo.name())
                });
                let (s_kind, decision) = instant.unwrap_or_else(|| {
                    panic!("{} seed {seed}: access {i} never observed", topo.name())
                });
                assert_eq!(c_kind, s_kind, "{} seed {seed}: kind at {i}", topo.name());
                let expected = match decision {
                    Decision::Granted => Outcome::Committed,
                    Decision::Denied => {
                        if outcome == Outcome::Unavailable {
                            Outcome::Unavailable
                        } else {
                            Outcome::TimedOut
                        }
                    }
                };
                assert_eq!(
                    outcome,
                    expected,
                    "{} seed {seed}: access {i} diverged (instantaneous said {decision:?})",
                    topo.name()
                );
                if decision == Decision::Granted {
                    assert_eq!(outcome, Outcome::Committed);
                } else {
                    assert_ne!(outcome, Outcome::Committed);
                }
            }
        }
    }
}

/// Batch-level check at the runner layer: the converged ideal-cluster
/// ACC must land within the instantaneous runner's 95% confidence
/// interval on the same seed (the per-access test above makes the two
/// batch sequences identical, so this also guards the runner plumbing).
#[test]
fn ideal_cluster_acc_within_ci_of_instantaneous_runner() {
    for (topo, votes, workload) in families() {
        let params = quick_params();
        let seed = 7u64;
        let spec = QuorumSpec::majority(votes.total());

        let cluster = run_cluster(
            &topo,
            &ClusterConfig::ideal(params),
            spec,
            votes.clone(),
            workload.clone(),
            seed,
        );
        let instant = run_static_observed(
            &topo,
            votes.clone(),
            spec,
            workload.clone(),
            RunConfig {
                params,
                seed,
                threads: 1,
            },
            &Registry::new(),
        );

        let ci = instant
            .interval()
            .expect("instantaneous run produced an interval");
        let delta = (cluster.availability() - instant.availability()).abs();
        assert!(
            delta <= ci.half_width.max(1e-9),
            "{}: cluster ACC {:.5} vs instantaneous {:.5} (95% half-width {:.5})",
            topo.name(),
            cluster.availability(),
            instant.availability(),
            ci.half_width
        );
        assert!(cluster.is_fresh(), "{}: stale read", topo.name());
    }
}
