//! Capacity-planning walkthrough: how many replicas, which votes, which
//! quorums?
//!
//!     cargo run -p quorum-examples --release --bin cluster_planner
//!
//! An operator has machines of mixed reliability inside one datacenter
//! (non-partitionable: switch fabric is effectively perfect) and wants the
//! replication setup maximizing availability for a 70 %-read workload.
//! Uses the exact DP availability of the Ahamad–Ammar model plus the
//! Cheung–Ahamad–Ammar joint vote/quorum search, then shows the marginal
//! value of each extra replica.

use quorum_core::optimal::{optimal_quorum, SearchStrategy};
use quorum_core::{
    model_uniform_access, optimal_votes_exhaustive, optimal_votes_hill_climb, up_vote_distribution,
};

fn main() {
    let alpha = 0.70;

    // Fleet: two good machines, a mediocre one, and flaky spot instances.
    let fleet = [0.999, 0.995, 0.98, 0.90, 0.90, 0.85, 0.85];
    println!("machine reliabilities: {fleet:?}");
    println!("workload: {:.0}% reads\n", alpha * 100.0);

    // 1. How much does each replica buy? Uniform votes, optimal quorums.
    //    Two views (§3 of the paper): ACC averages over the submitting
    //    machine too — adding flaky replicas *lowers* it, because the
    //    average submitter gets flakier — while SURV ("can anyone reach a
    //    quorum?") shows the durability that replication actually buys.
    println!("replicas  ACC (avg submitter)  (q_r, q_w)   SURV (some submitter)");
    for k in 1..=fleet.len() {
        let votes = vec![1u64; k];
        let rel = &fleet[..k];
        let model = model_uniform_access(&votes, rel);
        let opt = optimal_quorum(&model, alpha, SearchStrategy::Exhaustive);
        let surv_dist = up_vote_distribution(&votes, rel);
        let surv = alpha * surv_dist.tail_sum(opt.spec.q_r() as usize)
            + (1.0 - alpha) * surv_dist.tail_sum(opt.spec.q_w() as usize);
        println!(
            "{k:>8}  {:>6.3}%              ({}, {})       {:>6.3}%",
            100.0 * opt.availability,
            opt.spec.q_r(),
            opt.spec.q_w(),
            100.0 * surv,
        );
    }
    println!("(ACC falls as flaky spot machines join the submitter pool; SURV — the");
    println!(" chance the data is reachable at all — is what replication improves.)");

    // 2. Let votes float: the joint search (exhaustive — 7 sites is
    //    exactly the reach of the classic analyses).
    let joint = optimal_votes_exhaustive(&fleet, alpha, 3);
    println!(
        "\njoint vote/quorum optimum: votes {:?}, (q_r, q_w) = ({}, {}), A = {:.3}%",
        joint.votes,
        joint.spec.q_r(),
        joint.spec.q_w(),
        100.0 * joint.availability
    );
    println!("({} combinations evaluated)", joint.evaluations);

    // 3. Same question for a 12-machine fleet — exhaustive search is out
    //    of reach, multi-start hill climbing takes over.
    let big_fleet: Vec<f64> = (0..12).map(|i| 0.85 + 0.0125 * i as f64).collect();
    let hc = optimal_votes_hill_climb(&big_fleet, alpha, 3);
    println!(
        "\n12-machine fleet: votes {:?} (q_r={}, q_w={}), A = {:.3}% ({} evaluations)",
        hc.votes,
        hc.spec.q_r(),
        hc.spec.q_w(),
        100.0 * hc.availability,
        hc.evaluations
    );

    println!("\nnote: inside a partitionable WAN these answers change — run the");
    println!("topology_survey example, or estimate f_i on-line (§4.2 of the paper)");
    println!("instead of assuming every pair of up machines can talk.");
}
