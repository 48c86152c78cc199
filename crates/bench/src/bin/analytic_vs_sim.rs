//! Cross-validates the §4.2 closed-form densities against simulation.
//!
//! For the ring and the fully-connected network the paper gives exact
//! `f_i(v)`; a correct simulator must reproduce them. Caveat on the
//! comparison: the closed forms describe *independent* steady-state
//! component states, while the simulator samples at access instants of an
//! evolving alternating-renewal process — the marginals agree because each
//! site/link process is in steady state at (Poisson) access times. The bus
//! variants are printed analytically (no graph simulation applies).
//!
//! Usage: cargo run -p quorum-bench --release --bin analytic_vs_sim
//!        [-- --sites 31 --medium-scale --seed 7]

use quorum_bench::{default_threads, Args, Scale};
use quorum_core::analytic::{
    bus_density_sites_fail, bus_density_sites_independent, fully_connected_density, ring_density,
};
use quorum_core::{QuorumSpec, VoteAssignment};
use quorum_graph::Topology;
use quorum_replica::{run_static, RunConfig, Workload};
use quorum_stats::VoteHistogram;

fn compare(name: &str, topo: &Topology, analytic: &quorum_stats::DiscreteDist, cfg: RunConfig) {
    let n = topo.num_sites();
    let results = run_static(
        topo,
        VoteAssignment::uniform(n),
        QuorumSpec::from_read_quorum((n as u64) / 2, n as u64).expect("valid"),
        Workload::uniform(n, 0.5),
        cfg,
    );
    let access_votes = results.combined.access_votes();
    let empirical = access_votes.estimate();
    let tv = empirical.total_variation(analytic);
    println!(
        "{name}: n={n} observations={} TV(analytic, simulated)={tv:.4} mean_analytic={:.2} mean_sim={:.2}",
        access_votes.observations(),
        analytic.mean(),
        empirical.mean()
    );
    println!("  v\tanalytic\tsimulated");
    // Print the head of both densities plus the tail mass.
    let show = 12.min(n);
    for v in 0..=show {
        println!("  {v}\t{:.4}\t{:.4}", analytic.pmf(v), empirical.pmf(v));
    }
    if show < n {
        println!(
            "  >{show}\t{:.4}\t{:.4}",
            analytic.tail_sum(show + 1),
            empirical.tail_sum(show + 1)
        );
    }
}

fn main() {
    let args = Args::parse();
    let scale = Scale::from_args(&args);
    let seed: u64 = args.get_or("seed", 4);
    let threads = args.get_or("threads", default_threads());
    let n = args
        .get_checked("sites", |&n| Topology::check_ring(n))
        .unwrap_or(31);
    let p = 0.96;
    let r = 0.96;

    println!(
        "# Analytic f_i(v) vs simulation (paper §4.2) | n={n} p={p} r={r} scale={}",
        scale.label()
    );
    let cfg = RunConfig {
        params: scale.params(),
        seed,
        threads,
    };

    compare("ring", &Topology::ring(n), &ring_density(n, p, r), cfg);
    compare(
        "fully-connected",
        &Topology::fully_connected(n),
        &fully_connected_density(n, p, r),
        cfg,
    );

    println!("\n# bus closed forms (analytic only; both §4.2 variants):");
    let bus_fail = bus_density_sites_fail(n, p, r);
    let bus_ind = bus_density_sites_independent(n, p, r);
    println!(
        "bus(sites-fail):        P[v=0]={:.4} mean={:.2} mass={:.6}",
        bus_fail.pmf(0),
        bus_fail.mean(),
        bus_fail.total_mass()
    );
    println!(
        "bus(sites-independent): P[v=0]={:.4} P[v=1]={:.4} mean={:.2} mass={:.6}",
        bus_ind.pmf(0),
        bus_ind.pmf(1),
        bus_ind.mean(),
        bus_ind.total_mass()
    );
}
