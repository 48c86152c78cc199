//! Dynamic quorum reassignment on a wide-area ring under a workload whose
//! read/write mix shifts over time (a day/night pattern: OLTP-style writes
//! by day, analytics reads by night).
//!
//!     cargo run -p quorum-examples --release --bin adaptive_quorums
//!
//! Demonstrates the §2.2/§4.3 machinery of Johnson & Raab: the adaptive
//! controller estimates the component-vote density and the read ratio
//! on-line, re-runs the Figure-1 optimizer periodically, and installs new
//! assignments through the version-numbered QR protocol — never violating
//! one-copy serializability along the way.

use quorum_core::{QuorumConsensus, QuorumSpec};
use quorum_des::SimParams;
use quorum_graph::Topology;
use quorum_replica::{run_adaptive, run_phased, AdaptiveConfig, Phase};

fn main() {
    let n = 31;
    let topology = Topology::ring_with_chords(n, 2);
    let total = n as u64;
    let params = SimParams {
        warmup_accesses: 2_000,
        ..SimParams::paper()
    };
    // Day (write-heavy) / night (read-heavy), two days.
    let phases = [
        Phase::new(0.15, 25_000),
        Phase::new(0.95, 25_000),
        Phase::new(0.15, 25_000),
        Phase::new(0.95, 25_000),
    ];

    println!(
        "workload phases (read ratio): {:?}",
        phases.map(|p| p.alpha)
    );
    println!(
        "network: {} ({} links)\n",
        topology.name(),
        topology.num_links()
    );

    // Static majority baseline.
    let mut static_proto = QuorumConsensus::majority(n);
    let static_runs = run_phased(&topology, params, &phases, &mut static_proto, 7);

    // Adaptive QR.
    // A 20% write floor (§5.4) keeps every installed assignment
    // *re-assignable*: a near-ROWA q_w would freeze the QR protocol,
    // because the next change needs a component holding the old q_w.
    let adaptive = run_adaptive(
        &topology,
        params,
        &phases,
        QuorumSpec::majority(total),
        AdaptiveConfig {
            write_floor: Some(0.20),
            ..AdaptiveConfig::default()
        },
        7,
    );

    println!("phase  α     static-majority  adaptive-QR  installed-assignment");
    let (mut s_sum, mut a_sum) = (0.0, 0.0);
    for (i, (st, ad)) in static_runs.iter().zip(&adaptive).enumerate() {
        let s = st.1.availability();
        let a = ad.stats.availability();
        s_sum += s;
        a_sum += a;
        println!(
            "{i}      {:<4}  {:>6.1}%          {:>6.1}%      (q_r={}, q_w={}), {} reassignments so far",
            ad.phase.alpha,
            100.0 * s,
            100.0 * a,
            ad.final_spec.q_r(),
            ad.final_spec.q_w(),
            ad.reassignments,
        );
        assert_eq!(ad.stats.stale_reads, 0, "QR preserved 1SR");
    }
    let k = phases.len() as f64;
    println!(
        "\nmean availability: static {:.1}%  vs  adaptive {:.1}%",
        100.0 * s_sum / k,
        100.0 * a_sum / k
    );
    println!("(every granted read saw the most recent write — checked)");
}
