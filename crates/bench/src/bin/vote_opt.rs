//! Joint vote/quorum optimization in the non-partitionable model —
//! reproducing the shape of Cheung–Ahamad–Ammar \[7\], the related work the
//! paper extends (§1). \[7\] exhaustively searches networks of up to seven
//! sites; so do we, then cross-check the winning assignment against the
//! *partitionable* simulator to show where the no-partition assumption
//! breaks down.
//!
//! Usage: cargo run -p quorum-bench --release --bin vote_opt
//!        [-- --alpha 0.5 --max-votes 3]

use quorum_bench::{pct, Args};
use quorum_core::{
    check_max_votes, optimal_votes_exhaustive, optimal_votes_hill_climb, QuorumConsensus,
    QuorumSpec, VoteAssignment,
};
use quorum_des::SimParams;
use quorum_graph::Topology;
use quorum_replica::{NullObserver, Simulation, Workload};

fn simulate_assignment(
    topo: &Topology,
    votes: &[u64],
    spec: QuorumSpec,
    alpha: f64,
    seed: u64,
) -> f64 {
    let n = topo.num_sites();
    let va = VoteAssignment::weighted(votes.to_vec());
    let mut sim = Simulation::with_votes(
        topo,
        SimParams {
            warmup_accesses: 2_000,
            batch_accesses: 60_000,
            ..SimParams::paper()
        },
        va.clone(),
        Workload::uniform(n, alpha),
        seed,
    );
    let mut proto = QuorumConsensus::new(va, spec);
    sim.run_batch(&mut proto, &mut NullObserver).availability()
}

fn main() {
    let args = Args::parse();
    let alpha = args
        .get_checked("alpha", |&a| Workload::check_alpha(a))
        .unwrap_or(0.5);
    let max_votes: u64 = args
        .get_checked("max-votes", |&m| check_max_votes(m))
        .unwrap_or(3);
    let seed: u64 = args.get_or("seed", 88);

    println!("# Joint vote/quorum optimization (related work [7]) | alpha={alpha}");
    println!("\n## Non-partitionable model (exact DP), n <= 7, votes 0..={max_votes}");
    println!("reliabilities\topt_votes\t(q_r,q_w)\tA_opt\tA_uniform_best\tgain");
    let cases: Vec<Vec<f64>> = vec![
        vec![0.9; 5],
        vec![0.99, 0.9, 0.9, 0.9, 0.9],
        vec![0.99, 0.99, 0.7, 0.7, 0.7],
        vec![0.95, 0.9, 0.85, 0.8, 0.75],
        vec![0.99, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5],
    ];
    for rel in &cases {
        let opt = optimal_votes_exhaustive(rel, alpha, max_votes);
        // Best uniform-vote assignment for comparison.
        let uni_votes = vec![1u64; rel.len()];
        let uni_model = quorum_core::model_uniform_access(&uni_votes, rel);
        let hi = (rel.len() as u64 / 2).max(1);
        let uni_best = (1..=hi)
            .map(|q| uni_model.availability(alpha, q))
            .fold(f64::MIN, f64::max);
        println!(
            "{rel:?}\t{:?}\t({},{})\t{}\t{}\t{:+.2}pts",
            opt.votes,
            opt.spec.q_r(),
            opt.spec.q_w(),
            pct(opt.availability),
            pct(uni_best),
            100.0 * (opt.availability - uni_best),
        );
    }

    println!("\n## Hill-climb at n = 15 (beyond [7]'s exhaustive reach)");
    let rel15: Vec<f64> = (0..15).map(|i| 0.75 + 0.015 * i as f64).collect();
    let hc = optimal_votes_hill_climb(&rel15, alpha, max_votes);
    println!(
        "votes {:?} (q_r={}, q_w={}) A={} after {} evaluations",
        hc.votes,
        hc.spec.q_r(),
        hc.spec.q_w(),
        pct(hc.availability),
        hc.evaluations
    );

    println!("\n## Does the no-partition optimum survive partitions? (star topology)");
    // A star's hub is a cut vertex: the non-partitionable model sees all
    // sites as equal, but the partitionable simulator knows leaf sites are
    // useless without the hub. Compare uniform vs hub-weighted votes on a
    // simulated 7-site star.
    let topo = Topology::star(7);
    let uniform = vec![1u64; 7];
    let hub_heavy = vec![3u64, 1, 1, 1, 1, 1, 1];
    for (label, votes) in [("uniform", &uniform), ("hub-weighted", &hub_heavy)] {
        let total: u64 = votes.iter().sum();
        let spec = QuorumSpec::majority(total);
        let a = simulate_assignment(&topo, votes, spec, alpha, seed);
        println!(
            "{label:<13} votes={votes:?} majority spec ({},{}) → simulated A = {}",
            spec.q_r(),
            spec.q_w(),
            pct(a)
        );
    }
    println!("# expected: hub-weighted votes win on the star — the partitionable");
    println!("# simulator credits the hub's structural importance, which the");
    println!("# non-partitionable model cannot see. This is the gap the paper's");
    println!("# on-line method (measure f_i, don't assume it) was built to close.");
}
