//! Shared harness for the experiment binaries.
//!
//! Each binary in `src/bin/` regenerates one artifact of the paper's
//! evaluation (see DESIGN.md §4 for the index and EXPERIMENTS.md for the
//! recorded outcomes). This library provides the tiny argument parser,
//! table formatting, the scale presets, and a crossbeam-based parallel
//! driver for sweeping many simulation configurations with dynamic load
//! balancing (paper topologies differ by 50× in link count, so static
//! partitioning wastes workers).

#![warn(missing_docs)]

use parking_lot::Mutex;
use quorum_des::SimParams;
use std::collections::BTreeMap;

pub mod manifest;
pub mod validate;

/// Minimal `--key value` / `--flag` argument parser.
///
/// Values live in a `BTreeMap` (DESIGN.md §9 bars hash maps): today only
/// keyed lookup happens here, but argument maps are exactly the kind of
/// state that later grows a "dump all options into the manifest" loop,
/// and that loop must be ordered from day one.
///
/// Bad input is a usage error, not a panic: [`Args::from_args`],
/// [`Args::get`] and [`Args::one_of`] print `error: …` and exit with
/// status 2 (see [`or_usage_exit`]).
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
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Self {
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

/// Runs `jobs` closures across `threads` workers with dynamic (queue-based)
/// load balancing, returning results in job order.
///
/// Uses a crossbeam channel as the work queue: paper topologies range from
/// 101 to 5050 links, so equal-sized static chunks would leave most
/// workers idle while one grinds the fully-connected case.
pub fn run_jobs<T: Send>(threads: usize, jobs: Vec<Box<dyn FnOnce() -> T + Send + '_>>) -> Vec<T> {
    let n = jobs.len();
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 || n <= 1 {
        return jobs.into_iter().map(|j| j()).collect();
    }
    let (tx, rx) = crossbeam::channel::unbounded::<(usize, Box<dyn FnOnce() -> T + Send + '_>)>();
    for (i, j) in jobs.into_iter().enumerate() {
        tx.send((i, j)).expect("queue open");
    }
    drop(tx);
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let rx = rx.clone();
            let results = &results;
            scope.spawn(move || {
                while let Ok((i, job)) = rx.recv() {
                    let out = job();
                    results.lock()[i] = Some(out);
                }
            });
        }
    });
    results
        .into_inner()
        .into_iter()
        .map(|o| o.expect("every job ran"))
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
