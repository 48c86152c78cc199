//! Vote-optimal vs. structurally-optimal quorum systems, head to head.
//!
//! The paper optimizes vote assignments; this driver quantifies what
//! voting *cannot* express. On nine-site versions of the paper's seven
//! topology shapes (ring + 0/1/2/4 chords, full, star, bus) it
//! evaluates four systems through `quorum-algebra`:
//!
//! * `vote-majority` — uniform votes, majority quorums (§2.1);
//! * `vote-best-f2` — the load-optimal *valid* uniform-vote pair with
//!   resilience ≥ 2, found by exact scan (closed-form loads);
//! * `grid-3x3` — reads cross every column, writes take a full column
//!   plus a cover (resilience 2, not vote-realizable);
//! * `hier-3x3` — recursive majority over three groups of three
//!   (resilience 3, not vote-realizable).
//!
//! Every system is certified by the intersection checker before it is
//! reported (counted in `algebra.intersection_checks`; any failure
//! aborts the run). Per system the driver reports exact f-resilience,
//! the multiplicative-weights load (upper bound + certified lower
//! bound), and the simulated partition-model ACC on each topology via
//! the same kernel-read grant machinery the vote protocol uses.
//! The headline claim — a structural system achieves strictly lower
//! load than the *exact* optimum over all uniform-vote pairs at equal
//! resilience — is asserted at the default α and solver budget (the
//! configuration CI runs) and gated in CI from the manifest
//! (`structural_beats_votes`, `load.*` metrics). At other settings a
//! failed claim prints `# check structural beats votes: false` and
//! records the metric as 0.
//!
//! Usage: cargo run -p quorum-bench --release --bin compare_systems
//!        [-- --quick --threads 2 --seed 7 --alpha 0.5
//!            --iterations 2000 --manifest results/ALGEBRA_PR.json]

use quorum_algebra::{
    check_iterations, optimize_load, uniform_threshold_load, AlgebraProtocol, QuorumSystem,
};
use quorum_bench::{manifest, print_table, Args, Scale};
use quorum_core::{QuorumSpec, VoteAssignment};
use quorum_graph::Topology;
use quorum_obs::{keys, Registry, RunManifest};
use quorum_replica::{run_protocol_observed, RunConfig, Workload};
use std::collections::BTreeSet;

/// Exact load-optimal uniform-vote pair on `n` sites with resilience at
/// least `min_f`, by scanning every valid `(q_r, q_w)`: the load of a
/// uniform threshold pair is closed-form, so this is the true vote
/// optimum the structural systems must beat — no solver slack on the
/// vote side of the comparison.
fn vote_best_exact(n: usize, min_f: u32, alpha: f64) -> (u64, u64, f64) {
    let t = n as u64;
    let mut best: Option<(u64, u64, f64)> = None;
    for q_r in 1..=t {
        for q_w in 1..=t {
            if QuorumSpec::new(q_r, q_w, t).is_err() {
                continue;
            }
            // Uniform votes: the read family survives until n−q_r+1
            // failures, the write family until n−q_w+1.
            let resilience = (t - q_r.max(q_w)) as u32;
            if resilience < min_f {
                continue;
            }
            let load = uniform_threshold_load(n, q_r, q_w, alpha);
            let better = match best {
                None => true,
                Some((_, _, b)) => load < b - 1e-15,
            };
            if better {
                best = Some((q_r, q_w, load));
            }
        }
    }
    best.expect("some valid pair exists")
}

/// The read fraction and solver budget CI runs at. The loads compared
/// depend on these two alone, and the headline claim is asserted only
/// here: it is a property of this configuration, not of every α.
const DEFAULT_ALPHA: f64 = 0.5;
const DEFAULT_ITERATIONS: usize = 2_000;

fn main() {
    let args = Args::parse();
    manifest::check_requested(&args);
    let seed: u64 = args.get_or("seed", 7);
    let threads: usize = args.get_or("threads", quorum_bench::default_threads());
    let alpha = args
        .get_checked("alpha", |&a| Workload::check_alpha(a))
        .unwrap_or(DEFAULT_ALPHA);
    let iterations = args
        .get_checked("iterations", |&i| check_iterations(i))
        .unwrap_or(DEFAULT_ITERATIONS);
    let scale = Scale::from_args(&args);
    let params = scale.params();
    let registry = Registry::new();

    println!(
        "# Compare systems | scale={} alpha={alpha} iterations={iterations} \
         threads={threads} seed={seed}",
        scale.label()
    );

    // Nine database sites everywhere; the bus adds the medium as node 0
    // with zero votes and zero workload weight, shifting systems by one.
    let shapes: Vec<(String, Topology, usize, usize)> = vec![
        ("ring-9-c0".into(), Topology::ring_with_chords(9, 0), 0, 0),
        ("ring-9-c1".into(), Topology::ring_with_chords(9, 1), 1, 0),
        ("ring-9-c2".into(), Topology::ring_with_chords(9, 2), 2, 0),
        ("ring-9-c4".into(), Topology::ring_with_chords(9, 4), 4, 0),
        ("full-9".into(), Topology::fully_connected(9), 0, 0),
        ("star-9".into(), Topology::star(9), 0, 0),
        ("bus-9".into(), Topology::bus(9), 0, 1),
    ];

    let (f2_qr, f2_qw, f2_load) = vote_best_exact(9, 2, alpha);
    let (f3_qr, f3_qw, f3_load) = vote_best_exact(9, 3, alpha);
    println!(
        "# exact vote optima: f>=2 -> ({f2_qr},{f2_qw}) load {f2_load:.4}; \
         f>=3 -> ({f3_qr},{f3_qw}) load {f3_load:.4}"
    );

    let mut m = RunManifest::new("compare_systems", seed);
    m.params = manifest::sim_params_record(&params);
    m.set_metric(keys::ALPHA, alpha);
    m.set_metric(keys::LOAD_VOTE_BEST_EXACT_F2, f2_load);
    m.set_metric(keys::LOAD_VOTE_BEST_EXACT_F3, f3_load);

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut grid_load = f64::INFINITY;
    let mut hier_load = f64::INFINITY;
    let mut recorded = BTreeSet::new();

    for (label, topo, chords, offset) in &shapes {
        let n = topo.num_sites();
        let db_sites = n - offset;
        let mut vote_vec = vec![1u64; n];
        let mut weight_vec = vec![1.0f64; n];
        for s in 0..*offset {
            vote_vec[s] = 0;
            weight_vec[s] = 0.0;
        }
        let votes = VoteAssignment::weighted(vote_vec);
        let workload = Workload::weighted(alpha, &weight_vec, &weight_vec);
        let t = db_sites as u64;

        let systems = vec![
            QuorumSystem::from_spec("vote-majority", &votes, QuorumSpec::majority(t)),
            QuorumSystem::from_spec(
                "vote-best-f2",
                &votes,
                QuorumSpec::new(f2_qr, f2_qw, t).expect("scanned pair is valid"),
            ),
            QuorumSystem::grid(3, 3, *offset),
            QuorumSystem::hierarchical(3, 3, 2, 2, *offset),
        ];

        for sys in systems {
            let cert = {
                let _t = registry.scoped_timer(keys::ALGEBRA_CERTIFY);
                sys.certify()
            };
            registry.add(keys::ALGEBRA_SYSTEMS_EVALUATED, 1);
            registry.add(keys::ALGEBRA_INTERSECTION_CHECKS, 1);
            if !cert.ok() {
                registry.add(keys::ALGEBRA_INTERSECTION_FAILURES, 1);
            }
            let failure = cert.failure.map(|f| f.to_string()).unwrap_or_default();
            assert!(cert.ok(), "{} failed certification: {failure}", sys.name());
            registry.add(
                keys::ALGEBRA_QUORUMS_ENUMERATED,
                (sys.reads().len() + sys.writes().len()) as u64,
            );

            let resilience = sys.resilience();
            let profile = {
                let _t = registry.scoped_timer(keys::ALGEBRA_OPTIMIZE);
                optimize_load(&sys, alpha, iterations)
            };
            registry.add(keys::ALGEBRA_STRATEGY_ITERATIONS, profile.iterations);

            let res = run_protocol_observed(
                topo,
                votes.clone(),
                workload.clone(),
                RunConfig {
                    params,
                    seed,
                    threads,
                },
                &registry,
                keys::ALGEBRA_SIMULATE,
                || AlgebraProtocol::new(sys.clone()),
            );
            let acc = res.availability();

            // Load and resilience are system properties (topology-free):
            // record them once, at the first instance of each system;
            // instances on the shifted bus universe produce identical
            // values by symmetry.
            if recorded.insert(sys.name().to_string()) {
                m.set_labeled_metric(keys::LOAD, sys.name(), profile.load);
                m.set_labeled_metric(keys::LOAD_LOWER, sys.name(), profile.lower_bound);
                m.set_labeled_metric(keys::RESILIENCE, sys.name(), f64::from(resilience));
            }
            m.set_labeled_metric(keys::ACC, &format!("{label}.{}", sys.name()), acc);

            if sys.name() == "grid-3x3" {
                grid_load = grid_load.min(profile.load);
            }
            if sys.name().starts_with("hier-") {
                hier_load = hier_load.min(profile.load);
            }

            rows.push(vec![
                label.clone(),
                sys.name().to_string(),
                format!("{}", sys.reads().len() + sys.writes().len()),
                format!("{resilience}"),
                format!("{:.4}", profile.load),
                format!("{:.4}", profile.lower_bound),
                format!("{acc:.4}"),
            ]);
        }
        let _ = chords;
    }

    print_table(
        &[
            "topology", "system", "quorums", "f", "load", "load_lb", "acc",
        ],
        &rows,
    );

    // The headline: at equal resilience floors, the structural systems'
    // *achieved* loads beat the *exact* vote optima — strictly. At the
    // configuration CI runs this must hold; elsewhere (α near 0 or 1,
    // a small solver budget) it may not, and the run reports that.
    let beats = grid_load < f2_load && hier_load < f3_load;
    if alpha == DEFAULT_ALPHA && iterations == DEFAULT_ITERATIONS {
        assert!(
            grid_load < f2_load,
            "grid load {grid_load:.4} must beat the f>=2 vote optimum {f2_load:.4}"
        );
        assert!(
            hier_load < f3_load,
            "hier load {hier_load:.4} must beat the f>=3 vote optimum {f3_load:.4}"
        );
    }
    if beats {
        println!(
            "# structural beats votes: grid {grid_load:.4} < {f2_load:.4} (f>=2), \
             hier {hier_load:.4} < {f3_load:.4} (f>=3)"
        );
    } else {
        println!("# check structural beats votes: false");
        println!(
            "# loads: grid {grid_load:.4} vs {f2_load:.4} (f>=2), \
             hier {hier_load:.4} vs {f3_load:.4} (f>=3)"
        );
    }
    m.set_metric(keys::STRUCTURAL_BEATS_VOTES, f64::from(u8::from(beats)));

    m.absorb_snapshot(&registry.snapshot());
    manifest::write_requested(&args, &m);
}
