//! Quickstart: find the optimal quorum assignment for a small replicated
//! database, entirely analytically (no simulation).
//!
//!     cargo run -p quorum-examples --bin quickstart
//!
//! Scenario: nine database replicas on a fully-connected cluster network
//! whose machines are 95 % reliable and whose links are 99 % reliable.
//! Workload: 80 % reads. We build the exact component-size density with
//! Gilbert's recursion (§4.2 of Johnson & Raab), run the Figure-1
//! optimizer, and compare the result against the classic baselines.

use quorum_core::analytic::fully_connected_density;
use quorum_core::{AvailabilityModel, QuorumSpec, SearchStrategy};

fn main() {
    let n = 9usize;
    let site_reliability = 0.95;
    let link_reliability = 0.99;
    let alpha = 0.80; // fraction of accesses that are reads

    // Step 1 (Figure 1): the density f(v) — here exact, since the cluster
    // is fully connected and symmetric.
    let density = fully_connected_density(n, site_reliability, link_reliability);
    println!("component-vote density f(v) for {n} replicas:");
    for v in 0..=n {
        println!("  P[component holds {v} votes] = {:.4}", density.pmf(v));
    }

    // Steps 2-3: uniform access, so r(v) = w(v) = f(v).
    let model = AvailabilityModel::from_mixtures(&density, &density);

    // Step 4: maximize A(α, q_r).
    let opt = quorum_core::optimal::optimal_quorum(&model, alpha, SearchStrategy::Exhaustive);
    println!("\noptimal assignment for α = {alpha}:");
    println!(
        "  q_r = {}, q_w = {}  →  A = {:.2}%  (reads {:.2}%, writes {:.2}%)",
        opt.spec.q_r(),
        opt.spec.q_w(),
        100.0 * opt.availability,
        100.0 * opt.read_availability,
        100.0 * opt.write_availability
    );

    // Baselines the paper positions against (§2.1).
    println!("\nbaselines:");
    for (name, spec) in [
        ("majority consensus", QuorumSpec::majority(n as u64)),
        (
            "read-one/write-all",
            QuorumSpec::read_one_write_all(n as u64),
        ),
    ] {
        let a = alpha * model.read_availability(spec.q_r())
            + (1.0 - alpha) * model.write_availability(spec.q_w());
        println!(
            "  {name:<20} (q_r={}, q_w={})  →  A = {:.2}%",
            spec.q_r(),
            spec.q_w(),
            100.0 * a
        );
    }

    // The §5.4 enhancement: demand that at least half of writes succeed.
    match quorum_core::optimal::optimal_with_write_floor(
        &model,
        alpha,
        0.50,
        SearchStrategy::Exhaustive,
    ) {
        Some(c) => println!(
            "\nwith a 50% write-availability floor: q_r = {}, q_w = {}, A = {:.2}% (W = {:.2}%)",
            c.spec.q_r(),
            c.spec.q_w(),
            100.0 * c.availability,
            100.0 * c.write_availability
        ),
        None => println!("\na 50% write floor is infeasible on this network"),
    }
}
