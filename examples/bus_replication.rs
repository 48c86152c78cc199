//! Replication over a shared bus (§4.2's single-bus architecture).
//!
//!     cargo run -p quorum-examples --release --bin bus_replication
//!
//! A factory floor runs nine controllers on one field bus. Two designs are
//! on the table: controllers that halt when the bus dies ("fail with
//! bus") versus controllers that keep running isolated ("independent").
//! We compute the exact §4.2 densities for both, pick optimal quorums for
//! a 90 %-read workload, and confirm with the discrete-event simulator.

use quorum_core::analytic::{bus_density_sites_fail, bus_density_sites_independent};
use quorum_core::{AvailabilityModel, QuorumConsensus, QuorumSpec, SearchStrategy};
use quorum_des::SimParams;
use quorum_graph::BusFailureMode;
use quorum_replica::bus_sim::BusSimulation;
use quorum_replica::Workload;

fn main() {
    let n = 9usize;
    let p = 0.97; // controller reliability
    let r = 0.99; // bus reliability
    let alpha = 0.90; // read-heavy: the designs differ at loose read quorums

    println!(
        "nine controllers, p = {p}, bus r = {r}, {:.0}% reads\n",
        alpha * 100.0
    );

    for (label, mode, density) in [
        (
            "fail-with-bus",
            BusFailureMode::SitesFailWithBus,
            bus_density_sites_fail(n, p, r),
        ),
        (
            "independent",
            BusFailureMode::SitesIndependent,
            bus_density_sites_independent(n, p, r),
        ),
    ] {
        let model = AvailabilityModel::from_mixtures(&density, &density);
        let opt = quorum_core::optimal::optimal_quorum(&model, alpha, SearchStrategy::Exhaustive);
        println!(
            "{label:<14} analytic: optimal (q_r={}, q_w={}), predicted A = {:.2}%  [A(q_r=1) = {:.2}%]",
            opt.spec.q_r(),
            opt.spec.q_w(),
            100.0 * opt.availability,
            100.0 * model.availability(alpha, 1),
        );

        // Confirm with the simulator at the chosen assignment.
        let mut sim = BusSimulation::new(
            n,
            mode,
            SimParams {
                warmup_accesses: 3_000,
                batch_accesses: 80_000,
                reliability: p, // sites and bus share p here? see below
                ..SimParams::paper()
            },
            Workload::uniform(n, alpha),
            77,
        );
        // NOTE: the simulator's single `reliability` knob drives both the
        // sites and the bus; we set it to the controller value and accept
        // the (tiny) difference from the bus's 0.99 for this walkthrough.
        let mut proto = QuorumConsensus::new(
            quorum_core::VoteAssignment::uniform(n),
            QuorumSpec::from_read_quorum(opt.spec.q_r(), n as u64)
                .expect("optimizer only emits consistent quorums"),
        );
        let stats = sim.run_batch(&mut proto);
        println!(
            "{label:<14} simulated (p for all components): A = {:.2}%, 1SR: {}",
            100.0 * stats.availability(),
            stats.stale_reads == 0 && stats.write_conflicts == 0
        );
    }

    println!("\ntakeaway: the 'independent' design keeps reads at isolated controllers");
    println!("alive through bus outages, which raises the availability of small read");
    println!(
        "quorums (A(q_r=1) above); at {:.0}% reads that does not move the optimum,",
        alpha * 100.0
    );
    println!("and both designs pick the same assignment.");
}
