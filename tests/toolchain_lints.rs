//! The checks rustc and clippy cannot make on their own.
//!
//! The determinism and safety rules of DESIGN.md §9 live in the
//! workspace lint table, in `clippy.toml` and in the `quorum_obs::Key`
//! type. Those only hold if every crate opts in to the lint table, if a
//! crate's own `clippy.toml` does not silently drop a root rule, and if
//! the metric-key registry stays one-to-one with its uses and with the
//! keys CI gates read. This file checks exactly that, over the files on
//! disk.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

use quorum_obs::keys;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("tests/ sits in the workspace root")
        .to_path_buf()
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The entries of `dir`, in path order.
fn list_dir(dir: &Path) -> Vec<PathBuf> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .and_then(|it| it.map(|e| e.map(|e| e.path())).collect())
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    entries.sort();
    entries
}

/// Directories holding the crates listed in the root `members` globs.
fn member_dirs() -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = list_dir(&root().join("crates"))
        .into_iter()
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    dirs.push(root().join("examples"));
    dirs.push(root().join("tests"));
    dirs
}

/// Every `.rs` file under `dir`, recursively, in path order.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for path in list_dir(dir) {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn every_member_opts_in_to_the_workspace_lints() {
    let root_manifest = read(&root().join("Cargo.toml"));
    assert!(
        root_manifest.contains("members = [\"crates/*\", \"examples\", \"tests\"]"),
        "the member list changed; update member_dirs() to match"
    );
    assert!(root_manifest.contains("[workspace.lints.rust]\nunsafe_code = \"forbid\""));
    for dir in member_dirs() {
        let manifest = read(&dir.join("Cargo.toml"));
        assert!(
            manifest.contains("\n[lints]\nworkspace = true\n"),
            "{}/Cargo.toml lacks `[lints] workspace = true`",
            dir.display()
        );
    }
}

/// The rules of one `clippy.toml`: scalar settings by name, and the
/// `path` of every entry of each list setting.
fn clippy_rules(text: &str) -> (BTreeMap<String, String>, BTreeSet<(String, String)>) {
    let mut scalars = BTreeMap::new();
    let mut entries = BTreeSet::new();
    let mut list: Option<String> = None;
    for line in text.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = &list {
            if line == "]" {
                list = None;
            } else {
                let path = line
                    .split("path = \"")
                    .nth(1)
                    .and_then(|rest| rest.split('"').next())
                    .unwrap_or_else(|| panic!("list entry without a path: {line}"));
                entries.insert((name.clone(), path.to_string()));
            }
        } else if let Some(name) = line.strip_suffix(" = [") {
            list = Some(name.to_string());
        } else {
            let (name, value) = line
                .split_once(" = ")
                .unwrap_or_else(|| panic!("unrecognized clippy.toml line: {line}"));
            scalars.insert(name.to_string(), value.to_string());
        }
    }
    (scalars, entries)
}

#[test]
fn crate_clippy_configs_restate_every_root_rule() {
    let (root_scalars, root_entries) = clippy_rules(&read(&root().join("clippy.toml")));
    assert!(root_entries.contains(&(
        "disallowed-methods".to_string(),
        "std::time::Instant::now".to_string()
    )));
    let mut crate_configs = 0;
    for dir in member_dirs() {
        let path = dir.join("clippy.toml");
        if !path.is_file() {
            continue;
        }
        crate_configs += 1;
        let (scalars, entries) = clippy_rules(&read(&path));
        for (name, value) in &root_scalars {
            assert_eq!(
                scalars.get(name),
                Some(value),
                "{} drops or changes root setting {name}",
                path.display()
            );
        }
        for (list, rule) in &root_entries {
            assert!(
                entries.contains(&(list.clone(), rule.clone())),
                "{} drops root {list} entry {rule}",
                path.display()
            );
        }
    }
    assert!(crate_configs >= 2, "shard and cluster carry their own");
}

/// `(NAME, value)` of every key declared in `keys.rs`, in order.
fn declared_keys() -> Vec<(String, String)> {
    let text = read(&root().join("crates/obs/src/keys.rs"));
    let body = text
        .split("keys! {\n")
        .nth(1)
        .expect("keys.rs declares its keys in one keys! block");
    body.lines()
        .filter_map(|line| {
            let (name, rest) = line.trim().split_once(" = \"")?;
            let value = rest.strip_suffix("\";")?;
            Some((name.to_string(), value.to_string()))
        })
        .collect()
}

#[test]
fn key_values_are_unique() {
    let mut seen = BTreeSet::new();
    for key in keys::ALL {
        assert!(seen.insert(key.as_str()), "two keys spell {key}");
    }
    let declared = declared_keys();
    let values: Vec<&str> = declared.iter().map(|(_, v)| v.as_str()).collect();
    let all: Vec<&str> = keys::ALL.iter().map(|k| k.as_str()).collect();
    assert_eq!(values, all, "declared_keys() no longer parses keys.rs");
}

#[test]
fn every_key_is_referenced_outside_the_registry() {
    let mut files = Vec::new();
    for dir in ["crates", "examples", "tests"] {
        rust_files(&root().join(dir), &mut files);
    }
    let registry = root().join("crates/obs/src/keys.rs");
    let sources: Vec<String> = files
        .iter()
        .filter(|p| **p != registry)
        .map(|p| read(p))
        .collect();
    let referenced = |name: &str| {
        let needle = format!("keys::{name}");
        sources.iter().any(|src| {
            src.match_indices(&needle).any(|(at, _)| {
                !src[at + needle.len()..]
                    .starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_')
            })
        })
    };
    let dead: Vec<String> = declared_keys()
        .into_iter()
        .map(|(name, _)| name)
        .filter(|name| !referenced(name))
        .collect();
    assert!(dead.is_empty(), "declared but never used: {dead:?}");
}

/// Keys a CI jq gate reads that are built per system name with
/// `RunManifest::set_labeled_metric`, so no constant spells them.
const LABELED_GATE_KEYS: &[&str] = &["load.grid-3x3", "load.hier-3x3-2/2"];

/// Every manifest key the CI workflow reads, in either jq spelling:
/// `.metrics["key"]` or `.metrics.key` (likewise for counters), and
/// every phase it selects with `.phase == "key"`.
fn ci_gate_keys() -> BTreeSet<String> {
    let ci = read(&root().join(".github/workflows/ci.yml"));
    let mut found = BTreeSet::new();
    for table in [".counters", ".metrics"] {
        for (at, _) in ci.match_indices(table) {
            let rest = &ci[at + table.len()..];
            if let Some(quoted) = rest.strip_prefix("[\"") {
                let end = quoted.find("\"]").expect("unterminated jq key");
                found.insert(quoted[..end].to_string());
            } else if let Some(dotted) = rest.strip_prefix('.') {
                let end = dotted
                    .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                    .unwrap_or(dotted.len());
                found.insert(dotted[..end].to_string());
            }
        }
    }
    for (at, pattern) in ci.match_indices(".phase == \"") {
        let quoted = &ci[at + pattern.len()..];
        let end = quoted.find('"').expect("unterminated jq phase");
        found.insert(quoted[..end].to_string());
    }
    found
}

#[test]
fn ci_gates_read_only_declared_keys() {
    let gate_keys = ci_gate_keys();
    // The bracket form with '-' and digits used to slip past the check.
    assert!(gate_keys.contains("load.vote-best-exact.f2"));
    assert!(gate_keys.contains("mc.states_explored"));
    // The model-check summaries print each run's explore phase and peak
    // memory.
    assert!(gate_keys.contains("mc.explore"));
    assert!(gate_keys.contains("mc.peak_rss_mb"));
    let declared: BTreeSet<&str> = keys::ALL.iter().map(|k| k.as_str()).collect();
    let missing: Vec<&String> = gate_keys
        .iter()
        .filter(|k| !declared.contains(k.as_str()) && !LABELED_GATE_KEYS.contains(&k.as_str()))
        .collect();
    assert!(
        missing.is_empty(),
        "CI gates read keys not declared in crates/obs/src/keys.rs: {missing:?}"
    );
    for key in LABELED_GATE_KEYS {
        assert!(gate_keys.contains(*key), "stale exemption {key}");
    }
}

/// The documents that tell a reader which bins to run.
const BIN_DOCS: &[&str] = &[
    "README.md",
    "EXPERIMENTS.md",
    "DESIGN.md",
    "ROADMAP.md",
    "results/README.md",
    ".github/workflows/ci.yml",
    ".claude/skills/verify/SKILL.md",
];

/// Every name that follows a `--bin` flag in `text`. Placeholders
/// (`<name>`, a quoted shell variable) start with a character no bin
/// name has and are skipped, as is `--bins`.
fn bin_flag_names(text: &str) -> Vec<String> {
    let is_name_char = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut names = Vec::new();
    for (at, flag) in text.match_indices("--bin") {
        let rest = &text[at + flag.len()..];
        if rest.starts_with(|c: char| is_name_char(c) || c == '-') {
            continue;
        }
        let rest = rest.trim_start();
        let end = rest.find(|c: char| !is_name_char(c)).unwrap_or(rest.len());
        if end > 0 {
            names.push(rest[..end].to_string());
        }
    }
    names
}

#[test]
fn docs_name_only_existing_bins() {
    assert_eq!(
        bin_flag_names("--bin figures -- --bins --bin \"$x\" --bin <name> --bin\n  optimize"),
        ["figures", "optimize"]
    );
    let bench_bins = root().join("crates/bench/src/bin");
    let examples = root().join("examples");
    let mut stale = Vec::new();
    for doc in BIN_DOCS {
        for name in bin_flag_names(&read(&root().join(doc))) {
            let file = format!("{name}.rs");
            if !bench_bins.join(&file).is_file() && !examples.join(&file).is_file() {
                stale.push(format!("{doc}: --bin {name}"));
            }
        }
    }
    assert!(
        stale.is_empty(),
        "docs name bins that do not exist: {stale:?}"
    );
}

/// Whether `name` matches a `results/README.md` entry: the file name
/// itself, or a pattern with one `*` (`rw_ratio_*.txt`).
fn covers(entry: &str, name: &str) -> bool {
    match entry.split_once('*') {
        None => entry == name,
        Some((head, tail)) => {
            name.len() >= head.len() + tail.len() && name.starts_with(head) && name.ends_with(tail)
        }
    }
}

#[test]
fn every_results_text_file_has_a_readme_row() {
    let readme = read(&root().join("results/README.md"));
    let rows: Vec<&str> = readme.lines().filter(|l| l.starts_with("| `")).collect();
    let entries: Vec<&str> = rows
        .iter()
        .flat_map(|row| {
            row.split('|')
                .nth(1)
                .unwrap_or("")
                .split('`')
                .skip(1)
                .step_by(2)
        })
        .collect();
    assert!(covers("rw_ratio_*.txt", "rw_ratio_quick.txt"));
    assert!(!covers("rw_ratio_*.txt", "rw_ratio.csv"));
    let missing: Vec<String> = list_dir(&root().join("results"))
        .into_iter()
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .map(|p| {
            p.file_name()
                .expect("file name")
                .to_string_lossy()
                .into_owned()
        })
        .filter(|name| !entries.iter().any(|entry| covers(entry, name)))
        .collect();
    assert!(
        missing.is_empty(),
        "results files without a row in results/README.md: {missing:?}"
    );
}
