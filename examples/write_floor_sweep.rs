//! Guaranteeing a minimum write throughput (§5.4 of Johnson & Raab).
//!
//!     cargo run -p quorum-examples --release --bin write_floor_sweep
//!
//! Scenario: a 21-site metropolitan ring carrying a read-dominated
//! workload (α = 0.9). The unconstrained optimum is read-one/write-all —
//! great availability on paper, but writes succeed only when *all* copies
//! are reachable, which on a flaky ring is almost never. We sweep the
//! write-availability floor `A_w` and show the availability the operator
//! gives up for each guarantee level.

use quorum_core::{QuorumSpec, SearchStrategy, VoteAssignment};
use quorum_des::SimParams;
use quorum_graph::Topology;
use quorum_replica::{run_static, CurveSet, RunConfig, Workload};

fn main() {
    let n = 21usize;
    let alpha = 0.90;
    let topology = Topology::ring(n);
    let total = n as u64;

    // Measure the component-vote distribution once.
    let results = run_static(
        &topology,
        VoteAssignment::uniform(n),
        QuorumSpec::from_read_quorum(total / 2, total).expect("valid"),
        Workload::uniform(n, alpha),
        RunConfig {
            params: SimParams {
                warmup_accesses: 3_000,
                batch_accesses: 50_000,
                min_batches: 4,
                max_batches: 8,
                ci_half_width: 0.01,
                ..SimParams::paper()
            },
            seed: 11,
            threads: 4,
        },
    );
    let curves = CurveSet::from_run(&results);

    let unconstrained = curves.optimal(alpha, SearchStrategy::Exhaustive);
    println!(
        "unconstrained optimum on {}: q_r={}, q_w={}, A={:.1}%, but writes succeed {:.2}% of the time\n",
        topology.name(),
        unconstrained.spec.q_r(),
        unconstrained.spec.q_w(),
        100.0 * unconstrained.availability,
        100.0 * unconstrained.write_availability,
    );

    println!("A_w floor   q_r   q_w   overall A   write A   cost vs unconstrained");
    for floor in [0.0, 0.30, 0.55, 0.60, 0.65, 0.70, 0.80] {
        match curves.optimal_with_write_floor(alpha, floor, SearchStrategy::Exhaustive) {
            Some(c) => println!(
                "{:>6.0}%    {:>3}   {:>3}   {:>6.1}%    {:>6.1}%   {:>6.1} pts",
                100.0 * floor,
                c.spec.q_r(),
                c.spec.q_w(),
                100.0 * c.availability,
                100.0 * c.write_availability,
                100.0 * (unconstrained.availability - c.availability),
            ),
            None => println!(
                "{:>6.0}%    unachievable on this network (even q_w = ⌈T/2⌉+1 misses it)",
                100.0 * floor
            ),
        }
    }
}
