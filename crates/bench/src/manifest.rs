//! Run-manifest assembly for the experiment binaries.
//!
//! Every driver that accepts `--manifest <path>` funnels through here:
//! the helpers translate simulator-side types ([`SimParams`],
//! [`Topology`], [`quorum_replica::RunResults`]) into the
//! dependency-free records `quorum-obs` serialises, and
//! [`check_requested`] (before the run) and [`write_requested`] (after
//! it) handle the flag itself so the binaries stay thin.

use crate::{or_usage_exit, Args};
use quorum_core::VoteAssignment;
use quorum_des::SimParams;
use quorum_graph::Topology;
use quorum_mc::McReport;
use quorum_obs::{keys, Registry, RunManifest, SimParamsRecord, TopologyRecord};
use quorum_replica::RunResults;
use std::path::Path;
use std::time::Duration;

/// Converts live simulation parameters into the manifest record.
pub fn sim_params_record(p: &SimParams) -> SimParamsRecord {
    SimParamsRecord {
        mu_access: p.mu_access,
        rho: p.rho,
        reliability: p.reliability,
        warmup_accesses: p.warmup_accesses,
        batch_accesses: p.batch_accesses,
        min_batches: p.min_batches,
        max_batches: p.max_batches,
        confidence: p.confidence,
        ci_half_width: p.ci_half_width,
    }
}

/// Describes a topology for the manifest.
pub fn topology_record(label: &str, chords: usize, topo: &Topology) -> TopologyRecord {
    TopologyRecord {
        label: label.to_string(),
        sites: topo.num_sites() as u64,
        links: topo.num_links() as u64,
        chords: chords as u64,
    }
}

/// Assembles a manifest from one observed run: parameters, topology,
/// vote assignment, batch count, CI-convergence trace, headline
/// availability metrics, and every counter/timer/gauge in `registry`.
#[allow(clippy::too_many_arguments)]
pub fn manifest_for_run(
    bin: &str,
    seed: u64,
    params: &SimParams,
    label: &str,
    chords: usize,
    topo: &Topology,
    votes: &VoteAssignment,
    results: &RunResults,
    registry: &Registry,
) -> RunManifest {
    let mut m = RunManifest::new(bin, seed);
    m.params = sim_params_record(params);
    m.topology = topology_record(label, chords, topo);
    m.votes = votes.as_slice().to_vec();
    m.batches = results.batches;
    m.ci_trace = results.ci_trace.clone();
    m.absorb_snapshot(&registry.snapshot());
    m.set_metric(keys::AVAILABILITY, results.availability());
    m.set_metric(
        keys::READ_AVAILABILITY,
        results.combined.read_availability(),
    );
    m.set_metric(
        keys::WRITE_AVAILABILITY,
        results.combined.write_availability(),
    );
    if let Some(ci) = results.interval() {
        m.set_metric(keys::CI_HALF_WIDTH, ci.half_width);
    }
    m
}

/// Records one run's stopping point under `label`: its batch count, its
/// CI half-width (if it ran two batches or more), and `converged`, 1 if
/// the CI reached the target and 0 if the batch cap stopped the run.
pub fn record_convergence(m: &mut RunManifest, label: &str, results: &RunResults) {
    m.set_labeled_metric(keys::BATCHES, label, results.batches as f64);
    if let Some(ci) = results.interval() {
        m.set_labeled_metric(keys::CI_HALF_WIDTH, label, ci.half_width);
    }
    let converged = results.acc.is_converged();
    m.set_labeled_metric(keys::CONVERGED, label, f64::from(u8::from(converged)));
}

/// The `model_check` manifest of one exploration: the report's `mc.*`
/// counters and gauges, the universe's votes, whether the ablation ran,
/// the exploration's wall time `explore_wall` as phase `mc.explore`, and
/// the process's peak resident set as metric `mc.peak_rss_mb` where
/// `/proc/self/status` reports it.
pub fn model_check_manifest(
    votes: &VoteAssignment,
    ablate: bool,
    report: &McReport,
    explore_wall: Duration,
) -> RunManifest {
    let registry = Registry::new();
    report.observe_into(&registry);
    registry.record_duration(keys::MC_EXPLORE, explore_wall);
    let mut m = RunManifest::new("model_check", 0);
    m.votes = votes.as_slice().to_vec();
    m.set_metric(keys::MC_ABLATE, f64::from(ablate));
    m.absorb_snapshot(&registry.snapshot());
    if let Some(mb) = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| vm_hwm_mib(&status))
    {
        m.set_metric(keys::MC_PEAK_RSS_MB, mb);
    }
    m
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` text,
/// in MiB; `None` if the line is missing or malformed.
fn vm_hwm_mib(status: &str) -> Option<f64> {
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib as f64 / 1024.0)
}

/// Checks `--manifest` before the run, so a run whose manifest could not
/// be written never starts: the flag needs a path, and the path's parent
/// must be an existing directory. A bad value is a usage error (status
/// 2, see [`or_usage_exit`]); the manifest-writing binaries call this
/// before any other work.
pub fn check_requested(args: &Args) {
    or_usage_exit(try_check_requested(args));
}

/// [`check_requested`], returning the usage error instead of exiting.
fn try_check_requested(args: &Args) -> Result<(), String> {
    let Some(path) = requested_path(args)? else {
        return Ok(());
    };
    let parent = match Path::new(&path).parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    if parent.is_dir() {
        Ok(())
    } else {
        Err(format!(
            "--manifest {path:?}: {} is not an existing directory",
            parent.display()
        ))
    }
}

/// The path given by `--manifest <path>`, if any; a bare `--manifest` is
/// the usage error.
fn requested_path(args: &Args) -> Result<Option<String>, String> {
    match args.get::<String>("manifest") {
        None if args.flag("manifest") => {
            Err("--manifest: needs a path (e.g. --manifest run.json)".to_string())
        }
        path => Ok(path),
    }
}

/// Writes `manifest` to the path given by `--manifest <path>`, if any.
///
/// Returns `true` when a manifest was written. The extension picks the
/// format (`.csv` → flat CSV, anything else → pretty JSON). A bare
/// `--manifest` or a path that cannot be written is a usage error
/// (status 2, see [`or_usage_exit`]).
pub fn write_requested(args: &Args, manifest: &RunManifest) -> bool {
    or_usage_exit(try_write_requested(args, manifest))
}

/// [`write_requested`], returning the usage error instead of exiting.
fn try_write_requested(args: &Args, manifest: &RunManifest) -> Result<bool, String> {
    let Some(path) = requested_path(args)? else {
        return Ok(false);
    };
    manifest
        .write_to(Path::new(&path))
        .map_err(|e| format!("--manifest {path:?}: cannot write: {e}"))?;
    println!("# wrote manifest {path}");
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_in_mib_and_absent_without_its_line() {
        let status =
            "Name:\tmodel_check\nVmPeak:\t  2048 kB\nVmHWM:\t  1536 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(vm_hwm_mib(status), Some(1.5));
        assert_eq!(vm_hwm_mib("Name:\tmodel_check\nVmRSS:\t 1024 kB\n"), None);
        assert_eq!(vm_hwm_mib("VmHWM:\t  lots\n"), None);
    }

    #[test]
    fn assembled_manifest_round_trips() {
        use quorum_core::QuorumSpec;
        use quorum_replica::{run_static_observed, RunConfig, Workload};

        let topo = Topology::ring(9);
        let votes = VoteAssignment::uniform(9);
        let registry = Registry::new();
        let params = SimParams {
            warmup_accesses: 200,
            batch_accesses: 2_000,
            min_batches: 2,
            max_batches: 2,
            ..SimParams::paper()
        };
        let res = run_static_observed(
            &topo,
            votes.clone(),
            QuorumSpec::majority(9),
            Workload::uniform(9, 0.5),
            RunConfig {
                params,
                seed: 3,
                threads: 1,
            },
            &registry,
        );
        let mut m = manifest_for_run(
            "unit", 3, &params, "ring-9", 0, &topo, &votes, &res, &registry,
        );
        record_convergence(&mut m, "topology_0", &res);
        assert_eq!(m.batches, res.batches);
        assert_eq!(m.topology.sites, 9);
        assert_eq!(m.votes.len(), 9);
        assert_eq!(m.counter(keys::DES_EVENTS), res.combined.events_processed);
        assert!(m.phase_secs(keys::REPLICA_RUN_STATIC) > 0.0);
        let back = RunManifest::parse(&m.to_json().to_string_pretty()).expect("round-trip");
        assert_eq!(back.counters, m.counters);
        // The run's stopping point reads back under its label: two
        // batches at the cap, a CI wider than the default 0.5 % target.
        let metric = |prefix: keys::Key| back.metrics[&format!("{prefix}.topology_0")];
        assert_eq!(metric(keys::BATCHES), 2.0);
        let half_width = res.interval().expect("two batches give a CI").half_width;
        assert_eq!(metric(keys::CI_HALF_WIDTH), half_width);
        assert!(half_width > params.ci_half_width);
        assert_eq!(metric(keys::CONVERGED), 0.0);
    }

    #[test]
    fn bad_manifest_path_is_a_usage_error() {
        let m = RunManifest::new("unit", 1);
        let args = |a: &[&str]| Args::from_args(a.iter().map(|s| s.to_string()));
        assert_eq!(try_write_requested(&args(&[]), &m), Ok(false));
        assert_eq!(
            try_write_requested(&args(&["--manifest"]), &m),
            Err("--manifest: needs a path (e.g. --manifest run.json)".to_string())
        );
        // A path under a regular file cannot be created.
        let file = std::env::temp_dir().join(format!(
            "quorum_bench_manifest_not_a_dir_{}",
            std::process::id()
        ));
        std::fs::write(&file, "").unwrap();
        let path = file.join("m.json").display().to_string();
        let err = try_write_requested(&args(&["--manifest", &path]), &m).unwrap_err();
        assert!(
            err.starts_with(&format!("--manifest {path:?}: cannot write: ")),
            "{err}"
        );
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn bad_manifest_flag_is_rejected_before_the_run() {
        let args = |a: &[&str]| Args::from_args(a.iter().map(|s| s.to_string()));
        assert_eq!(try_check_requested(&args(&[])), Ok(()));
        assert_eq!(
            try_check_requested(&args(&["--manifest"])),
            Err("--manifest: needs a path (e.g. --manifest run.json)".to_string())
        );
        // A bare file name lands in the working directory.
        assert_eq!(
            try_check_requested(&args(&["--manifest", "m.json"])),
            Ok(())
        );
        let dir = std::env::temp_dir();
        let in_dir = dir.join("m.json").display().to_string();
        assert_eq!(try_check_requested(&args(&["--manifest", &in_dir])), Ok(()));
        // A parent that is a regular file, or that does not exist, is not
        // a directory the manifest could be written into.
        let file = dir.join(format!(
            "quorum_bench_manifest_check_not_a_dir_{}",
            std::process::id()
        ));
        std::fs::write(&file, "").unwrap();
        for parent in [file.clone(), file.join("missing")] {
            let path = parent.join("m.json").display().to_string();
            let err = try_check_requested(&args(&["--manifest", &path])).unwrap_err();
            assert_eq!(
                err,
                format!(
                    "--manifest {path:?}: {} is not an existing directory",
                    parent.display()
                )
            );
        }
        let _ = std::fs::remove_file(&file);
    }
}
