//! Shared harness for the experiment binaries.
//!
//! Each binary in `src/bin/` regenerates one artifact of the paper's
//! evaluation (see DESIGN.md §4 for the index and EXPERIMENTS.md for the
//! recorded outcomes). This library provides the tiny argument parser,
//! table formatting, the scale presets, and a scoped-thread parallel
//! driver for sweeping many simulation configurations with dynamic load
//! balancing (paper topologies differ by 50× in link count, so static
//! partitioning wastes workers).

#![warn(missing_docs)]

use quorum_des::SimParams;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

pub mod manifest;
pub mod validate;

/// Minimal `--key value` / `--flag` argument parser.
///
/// Values live in a `BTreeMap` (DESIGN.md §9 bars hash maps): today only
/// keyed lookup happens here, but argument maps are exactly the kind of
/// state that later grows a "dump all options into the manifest" loop,
/// and that loop must be ordered from day one.
///
/// Bad input is a usage error, not a panic: `Args::from_args`,
/// [`Args::get`], [`Args::get_checked`] and [`Args::one_of`] print
/// `error: …` and exit with status 2 (see [`or_usage_exit`]).
#[derive(Debug, Clone, Default)]
pub struct Args {
    flags: Vec<String>,
    values: BTreeMap<String, String>,
}

impl Args {
    /// Parses `std::env::args()` (skipping the binary name).
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parses an explicit argument list; exits with status 2 on a
    /// positional argument.
    pub(crate) fn from_args(args: impl IntoIterator<Item = String>) -> Self {
        or_usage_exit(Self::try_from_args(args))
    }

    /// Parses an explicit argument list, rejecting positional arguments.
    fn try_from_args(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = Args::default();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected positional argument {arg:?}"));
            };
            match iter.next_if(|next| !next.starts_with("--")) {
                Some(v) => {
                    out.values.insert(name.to_string(), v);
                }
                None => out.flags.push(name.to_string()),
            }
        }
        Ok(out)
    }

    /// True if `--name` was passed as a bare flag.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Value of `--name <value>`, parsed; exits with status 2 if it does
    /// not parse.
    pub fn get<T: std::str::FromStr>(&self, name: &str) -> Option<T>
    where
        T::Err: std::fmt::Display,
    {
        or_usage_exit(self.try_get(name))
    }

    /// Value of `--name <value>`, parsed, or the usage error.
    fn try_get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        self.values
            .get(name)
            .map(|v| v.parse().map_err(|e| format!("--{name} {v:?}: {e}")))
            .transpose()
    }

    /// Value of `--name <value>`, parsed and passed through `check` (a
    /// library's own parameter check, so the flag is held to exactly the
    /// rule the library would assert); exits with status 2, naming the
    /// flag, if either step fails.
    pub fn get_checked<T: std::str::FromStr>(
        &self,
        name: &str,
        check: impl FnOnce(&T) -> Result<(), String>,
    ) -> Option<T>
    where
        T::Err: std::fmt::Display,
    {
        or_usage_exit(self.try_get_checked(name, check))
    }

    /// Value of `--name <value>`, parsed and checked, or the usage error.
    fn try_get_checked<T: std::str::FromStr>(
        &self,
        name: &str,
        check: impl FnOnce(&T) -> Result<(), String>,
    ) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        let Some(value) = self.try_get::<T>(name)? else {
            return Ok(None);
        };
        check(&value).map_err(|rule| format!("--{name} {:?}: {rule}", self.values[name]))?;
        Ok(Some(value))
    }

    /// Value of `--name <value>`, which must be one of `choices`; the
    /// first choice is the default. Exits with status 2 on any other
    /// value.
    pub fn one_of<'c>(&self, name: &str, choices: &[&'c str]) -> &'c str {
        or_usage_exit(self.try_one_of(name, choices))
    }

    /// Value of `--name <value>` checked against `choices`, or the usage
    /// error.
    fn try_one_of<'c>(&self, name: &str, choices: &[&'c str]) -> Result<&'c str, String> {
        match self.values.get(name) {
            None => choices
                .first()
                .copied()
                .ok_or_else(|| format!("--{name}: no choices")),
            Some(v) => {
                choices.iter().copied().find(|c| c == v).ok_or_else(|| {
                    format!("--{name} {v:?}: expected one of {}", choices.join(", "))
                })
            }
        }
    }

    /// Value with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> T
    where
        T::Err: std::fmt::Display,
    {
        self.get(name).unwrap_or(default)
    }
}

/// Unwraps a parse of command-line input (flags, or files they name), or
/// prints the usage error (`error: …`) and exits with status 2.
pub fn or_usage_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2)
    })
}

/// Checks a batch count flag (at least one batch), returning the
/// violated rule.
pub fn check_batches(batches: u64) -> Result<(), String> {
    if batches >= 1 {
        Ok(())
    } else {
        Err("need at least one batch".to_string())
    }
}

/// Checks a replay length flag (at least one event), returning the
/// violated rule.
pub fn check_events(events: usize) -> Result<(), String> {
    if events >= 1 {
        Ok(())
    } else {
        Err("need at least one event to replay".to_string())
    }
}

/// Simulation scale preset chosen on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CI-friendly: 30 k-access batches (default).
    Quick,
    /// Intermediate: 150 k-access batches.
    Medium,
    /// The paper's §5.2 parameters: 100 k warm-up, 1 M-access batches,
    /// 5–18 batches, CI ±0.5 %.
    Paper,
}

impl Scale {
    /// Reads `--paper-scale` / `--medium-scale` / `--quick` flags
    /// (`--quick` is the default and accepted explicitly so CI recipes
    /// can spell out the scale they run at).
    pub fn from_args(args: &Args) -> Self {
        if args.flag("paper-scale") {
            Scale::Paper
        } else if args.flag("medium-scale") {
            Scale::Medium
        } else {
            Scale::Quick
        }
    }

    /// The corresponding simulation parameters.
    pub fn params(self) -> SimParams {
        match self {
            Scale::Quick => SimParams::quick(),
            Scale::Medium => SimParams {
                warmup_accesses: 20_000,
                batch_accesses: 150_000,
                min_batches: 4,
                max_batches: 8,
                ci_half_width: 0.01,
                ..SimParams::paper()
            },
            Scale::Paper => SimParams::paper(),
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Medium => "medium",
            Scale::Paper => "paper",
        }
    }
}

/// Runs `jobs` closures across `threads` workers with dynamic load
/// balancing, returning results in job order.
///
/// Workers claim the next unstarted job through a shared atomic index:
/// paper topologies range from 101 to 5050 links, so equal-sized static
/// chunks would leave most workers idle while one grinds the
/// fully-connected case.
pub fn run_jobs<T: Send>(threads: usize, jobs: Vec<Box<dyn FnOnce() -> T + Send + '_>>) -> Vec<T> {
    const UNPOISONED: &str = "no slot lock is held across a job";
    let n = jobs.len();
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 || n <= 1 {
        return jobs.into_iter().map(|j| j()).collect();
    }
    // Each slot is locked once to take its job and once to store its
    // result, so the locks are never contended. A job runs outside the
    // lock, so a panicking job (re-raised by the scope) poisons none.
    let slots: Vec<_> = jobs
        .into_iter()
        .map(|job| Mutex::new((Some(job), None::<T>)))
        .collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = slots.get(i) else { break };
                let job = slot.lock().expect(UNPOISONED).0.take();
                let out = job.expect("each job is claimed once")();
                slot.lock().expect(UNPOISONED).1 = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            let (_, out) = slot.into_inner().expect(UNPOISONED);
            out.expect("every job ran")
        })
        .collect()
}

/// Formats a fraction as the paper prints availabilities (percent).
pub fn pct(x: f64) -> String {
    format!("{:5.1}%", 100.0 * x)
}

/// Prints a TSV header + rows to stdout.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    println!("{}", header.join("\t"));
    for row in rows {
        println!("{}", row.join("\t"));
    }
}

/// Default thread count for experiment drivers.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorum_algebra::check_iterations;
    use quorum_cluster::{ClusterConfig, LatencyDist, NetConfig};
    use quorum_core::analytic::{check_reliability, check_ring_sites, check_sites};
    use quorum_core::check_max_votes;
    use quorum_graph::Topology;
    use quorum_replica::scenario::PaperScenario;
    use quorum_replica::Workload;
    use quorum_shard::{FailureTimeline, ObjectCatalog};

    fn argv(s: &str) -> Args {
        Args::try_from_args(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn parse_flags_and_values() {
        let a = argv("--topology 16 --paper-scale --seed 42");
        assert_eq!(a.get::<usize>("topology"), Some(16));
        assert!(a.flag("paper-scale"));
        assert!(!a.flag("medium-scale"));
        assert_eq!(a.get_or::<u64>("seed", 1), 42);
        assert_eq!(a.get_or::<u64>("missing", 7), 7);
    }

    #[test]
    fn bad_input_is_a_usage_error() {
        let a = argv("--threads x --seed 42");
        assert_eq!(
            a.try_get::<usize>("threads").unwrap_err(),
            "--threads \"x\": invalid digit found in string"
        );
        assert_eq!(a.try_get::<u64>("seed"), Ok(Some(42)));
        assert_eq!(a.try_get::<u64>("missing"), Ok(None));
        let choices = ["ring", "full", "bus"];
        assert_eq!(argv("").try_one_of("topology", &choices), Ok("ring"));
        assert_eq!(
            argv("--topology bus").try_one_of("topology", &choices),
            Ok("bus")
        );
        assert_eq!(
            argv("--topology x").try_one_of("topology", &choices),
            Err("--topology \"x\": expected one of ring, full, bus".to_string())
        );
        let err = Args::try_from_args(["quick".to_string()]).unwrap_err();
        assert_eq!(err, "unexpected positional argument \"quick\"");

        // The checks `cluster_sim`, `shard_throughput`, `compare_systems`,
        // `optimize`, `analytic_vs_sim`, `kernel_replay`, `dynamic_qr`,
        // `vote_opt` and the paper-topology bins hand to
        // `get_checked`: each is the one the engine, topology constructor,
        // scenario or closed form would assert.
        let latency = |s| {
            argv(s).try_get_checked("latency", |&mean| LatencyDist::Exponential { mean }.check())
        };
        let loss = |s| {
            argv(s).try_get_checked("loss", |&loss| {
                NetConfig {
                    loss,
                    ..NetConfig::ideal()
                }
                .check()
            })
        };
        let timeout = |s| {
            argv(s).try_get_checked("timeout", |&session_timeout| {
                ClusterConfig {
                    session_timeout,
                    ..ClusterConfig::new(SimParams::quick())
                }
                .check()
            })
        };
        let objects =
            |s| argv(s).try_get_checked("objects", |&o| ObjectCatalog::check_size(101, o));
        let horizon =
            |s| argv(s).try_get_checked("horizon", |&h| FailureTimeline::check_horizon(h));
        let alpha = |s| argv(s).try_get_checked("alpha", |&a| Workload::check_alpha(a));
        let ring_sites = |s| argv(s).try_get_checked("sites", |&n| Topology::check_ring(n));
        let bus_sites = |s| argv(s).try_get_checked("sites", |&n| Topology::check_bus(n));
        let full_sites = |s| argv(s).try_get_checked("sites", |&n| Topology::check_nonempty(n));
        let buckets =
            |s| argv(s).try_get_checked("alpha-buckets", |&b| ObjectCatalog::check_buckets(b));
        let spread =
            |s| argv(s).try_get_checked("alpha-spread", |&x| ObjectCatalog::check_spread(x));
        let iterations = |s| argv(s).try_get_checked("iterations", |&i| check_iterations(i));
        let model_ring_sites = |s| argv(s).try_get_checked("sites", |&n| check_ring_sites(n));
        let model_sites = |s| argv(s).try_get_checked("sites", |&n| check_sites(n));
        let site_rel = |s| argv(s).try_get_checked("site-rel", |&p| check_reliability(p));
        let link_rel = |s| argv(s).try_get_checked("link-rel", |&r| check_reliability(r));
        let batches = |s| argv(s).try_get_checked("batches", |&b| check_batches(b));
        let events = |s| argv(s).try_get_checked("events", |&e| check_events(e));
        let accesses =
            |s| argv(s).try_get_checked("accesses", |&a| SimParams::check_batch_accesses(a));
        let max_votes = |s| argv(s).try_get_checked("max-votes", |&m| check_max_votes(m));
        let chords = |s| argv(s).try_get_checked("topology", |&c| PaperScenario::check_chords(c));
        let cases = [
            (
                loss("--loss 2.0"),
                "--loss \"2.0\": loss probability must lie in [0, 1)",
            ),
            (
                loss("--loss -0.5"),
                "--loss \"-0.5\": loss probability must lie in [0, 1)",
            ),
            (
                latency("--latency -1"),
                "--latency \"-1\": mean latency must be non-negative",
            ),
            (
                timeout("--timeout 0"),
                "--timeout \"0\": session timeout must be positive",
            ),
            (
                horizon("--horizon 0"),
                "--horizon \"0\": horizon must be positive and finite",
            ),
            (
                horizon("--horizon -1"),
                "--horizon \"-1\": horizon must be positive and finite",
            ),
            (alpha("--alpha 1.5"), "--alpha \"1.5\": α must lie in [0,1]"),
            (
                alpha("--alpha -0.2"),
                "--alpha \"-0.2\": α must lie in [0,1]",
            ),
            (alpha("--alpha NaN"), "--alpha \"NaN\": α must lie in [0,1]"),
            (
                spread("--alpha-spread -0.1"),
                "--alpha-spread \"-0.1\": spread must be non-negative and finite",
            ),
            (
                spread("--alpha-spread NaN"),
                "--alpha-spread \"NaN\": spread must be non-negative and finite",
            ),
            (
                site_rel("--site-rel 1.5"),
                "--site-rel \"1.5\": reliability must lie in [0,1]",
            ),
            (
                site_rel("--site-rel nan"),
                "--site-rel \"nan\": reliability must lie in [0,1]",
            ),
            (
                link_rel("--link-rel -1"),
                "--link-rel \"-1\": reliability must lie in [0,1]",
            ),
        ];
        for (got, want) in cases {
            assert_eq!(got, Err(want.to_string()));
        }
        assert_eq!(
            objects("--objects 0"),
            Err("--objects \"0\": need at least one object".to_string())
        );
        let site_cases = [
            (
                ring_sites("--sites 0"),
                "--sites \"0\": a ring needs at least 3 sites",
            ),
            (
                ring_sites("--sites 2"),
                "--sites \"2\": a ring needs at least 3 sites",
            ),
            (
                ring_sites("--sites 1"),
                "--sites \"1\": a ring needs at least 3 sites",
            ),
            (
                model_ring_sites("--sites 0"),
                "--sites \"0\": a ring needs at least 3 sites",
            ),
            (
                model_ring_sites("--sites 1"),
                "--sites \"1\": a ring needs at least 3 sites",
            ),
            (
                model_ring_sites("--sites 2"),
                "--sites \"2\": a ring needs at least 3 sites",
            ),
            (
                model_sites("--sites 0"),
                "--sites \"0\": need at least one site",
            ),
            (
                bus_sites("--sites 1"),
                "--sites \"1\": a bus needs at least 2 sites",
            ),
            (
                full_sites("--sites 0"),
                "--sites \"0\": topology needs at least one site",
            ),
            (
                buckets("--alpha-buckets 0"),
                "--alpha-buckets \"0\": need at least one alpha bucket",
            ),
            (
                iterations("--iterations 0"),
                "--iterations \"0\": need at least one iteration",
            ),
        ];
        for (got, want) in site_cases {
            assert_eq!(got, Err(want.to_string()));
        }
        let count_cases = [
            (
                batches("--batches 0"),
                "--batches \"0\": need at least one batch",
            ),
            (
                accesses("--accesses 0"),
                "--accesses \"0\": batches must measure at least one access",
            ),
            (
                max_votes("--max-votes 0"),
                "--max-votes \"0\": need at least one vote per site",
            ),
        ];
        for (got, want) in count_cases {
            assert_eq!(got, Err(want.to_string()));
        }
        assert_eq!(
            events("--events 0"),
            Err("--events \"0\": need at least one event to replay".to_string())
        );
        assert_eq!(
            chords("--topology 3"),
            Err(
                "--topology \"3\": paper topologies use chords in [0, 1, 2, 4, 16, 256, 4949]"
                    .to_string()
            )
        );
        assert_eq!(chords("--topology 4949"), Ok(Some(4949)));
        assert_eq!(batches("--batches 1"), Ok(Some(1)));
        assert_eq!(events("--events 1"), Ok(Some(1)));
        assert_eq!(accesses("--accesses 1"), Ok(Some(1)));
        assert_eq!(max_votes("--max-votes 1"), Ok(Some(1)));
        // A value that fails to parse is reported before any check runs.
        assert_eq!(
            loss("--loss x"),
            Err("--loss \"x\": invalid float literal".to_string())
        );
        assert_eq!(loss("--loss 0.02"), Ok(Some(0.02)));
        assert_eq!(latency(""), Ok(None));
        assert_eq!(timeout("--timeout 0.25"), Ok(Some(0.25)));
        assert_eq!(objects("--objects 1000000"), Ok(Some(1_000_000)));
        assert_eq!(horizon("--horizon 2.0"), Ok(Some(2.0)));
        assert_eq!(alpha("--alpha 0.7"), Ok(Some(0.7)));
        assert_eq!(ring_sites("--sites 3"), Ok(Some(3)));
        assert_eq!(model_ring_sites("--sites 3"), Ok(Some(3)));
        assert_eq!(model_sites("--sites 1"), Ok(Some(1)));
        assert_eq!(site_rel("--site-rel 1"), Ok(Some(1.0)));
        assert_eq!(link_rel("--link-rel 0"), Ok(Some(0.0)));
        assert_eq!(bus_sites("--sites 2"), Ok(Some(2)));
        assert_eq!(buckets("--alpha-buckets 1"), Ok(Some(1)));
        assert_eq!(iterations("--iterations 1"), Ok(Some(1)));
        assert_eq!(spread("--alpha-spread 0"), Ok(Some(0.0)));
    }

    #[test]
    fn scale_selection() {
        assert_eq!(Scale::from_args(&argv("")), Scale::Quick);
        assert_eq!(Scale::from_args(&argv("--quick")), Scale::Quick);
        assert_eq!(
            Scale::from_args(&argv("--quick --manifest /tmp/m.json")),
            Scale::Quick
        );
        assert_eq!(Scale::from_args(&argv("--paper-scale")), Scale::Paper);
        assert_eq!(Scale::from_args(&argv("--medium-scale")), Scale::Medium);
        assert_eq!(Scale::Paper.params().batch_accesses, 1_000_000);
    }

    #[test]
    fn run_jobs_preserves_order() {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..20usize)
            .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        let out = run_jobs(4, jobs);
        assert_eq!(out, (0..20).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn run_jobs_single_thread() {
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![Box::new(|| 1), Box::new(|| 2)];
        assert_eq!(run_jobs(1, jobs), vec![1, 2]);
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(0.721), " 72.1%");
    }

    #[test]
    #[should_panic(expected = "positional")]
    fn positional_args_rejected() {
        argv("topology");
    }
}
