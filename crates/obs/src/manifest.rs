//! The run manifest: a self-describing record of one benchmark or
//! simulation run, sufficient to reproduce it (seed + parameters +
//! topology + votes) and to compare it against another run (timings,
//! event counts, cache behavior, CI-convergence trace).
//!
//! Manifests serialize to pretty JSON (deterministic key order, so two
//! manifests diff cleanly) and to a flattened `key,value` CSV. Parsing
//! is supported so CI smoke checks and tests can assert on emitted
//! fields without regex scraping.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use crate::json::{self, JsonValue};
use crate::keys::Key;
use crate::registry::Snapshot;

/// Version stamp written into every manifest; bump on breaking schema
/// changes so downstream tooling can dispatch.
pub(crate) const SCHEMA_VERSION: u32 = 1;

/// Flat mirror of the simulator's `SimParams` (§5.2 of the paper).
///
/// `quorum-obs` sits below every other crate, so this record holds plain
/// values; the producing crate converts its own `SimParams` into it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimParamsRecord {
    /// Mean time between accesses submitted by one site (`μ_t`).
    pub mu_access: f64,
    /// Ratio `ρ = μ_t / μ_f`.
    pub rho: f64,
    /// Long-run per-component reliability.
    pub reliability: f64,
    /// Accesses discarded before measurement.
    pub warmup_accesses: u64,
    /// Accesses measured per batch.
    pub batch_accesses: u64,
    /// Minimum batches per run.
    pub min_batches: u64,
    /// Maximum batches per run.
    pub max_batches: u64,
    /// Confidence level for the availability interval.
    pub confidence: f64,
    /// Target CI half-width.
    pub ci_half_width: f64,
}

/// Shape of the simulated network.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TopologyRecord {
    /// Human-readable label, e.g. `"paper-topology-16"`.
    pub label: String,
    /// Number of sites.
    pub sites: u64,
    /// Number of links.
    pub links: u64,
    /// Chords added beyond the ring (the paper's topology index).
    pub chords: u64,
}

/// One point of the batch-means convergence trace: after `batches`
/// batches the availability estimate was `mean ± half_width`.
#[derive(Debug, Clone, PartialEq)]
pub struct CiPoint {
    /// Batches accumulated so far.
    pub batches: u64,
    /// Point estimate after those batches.
    pub mean: f64,
    /// 95 % CI half-width after those batches.
    pub half_width: f64,
}

/// A named bucketed histogram, e.g. a session-latency distribution from
/// the message-level cluster engine.
///
/// Buckets are defined by `bounds` (ascending upper edges): `counts[i]`
/// observations fell in `[bounds[i-1], bounds[i])` (with `bounds[-1] = 0`),
/// and `counts` has one extra trailing entry for the overflow bucket
/// `[bounds.last(), ∞)`, so `counts.len() == bounds.len() + 1`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistogramRecord {
    /// Histogram name, e.g. `"cluster.read_latency"`.
    pub name: String,
    /// Ascending bucket upper edges.
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts (one more than `bounds`).
    pub counts: Vec<u64>,
}

impl HistogramRecord {
    /// Total observations across all buckets.
    pub fn observations(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Wall-clock spent in one named phase of the run.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTiming {
    /// Phase name, e.g. `"simulate"`, `"curves"`, `"optimize"`.
    pub phase: String,
    /// Total seconds spent in the phase.
    pub seconds: f64,
    /// Times the phase was entered.
    pub activations: u64,
}

/// Everything needed to reproduce and compare one run.
///
/// Ownership convention for [`RunManifest::counters`]: the registry
/// snapshot is the **single source** — producers publish totals into a
/// [`crate::Registry`] and the driver calls [`RunManifest::absorb_snapshot`]
/// exactly once. Result-struct `fill_manifest` helpers must write only
/// metrics, histograms, batch counts, and CI traces, never counters;
/// writing a counter from both paths silently doubles it in the emitted
/// manifest (absorption *adds*, to allow multi-registry merges).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunManifest {
    /// Name of the producing binary (e.g. `"validate_curves"`).
    pub bin: String,
    /// Base RNG seed for the run.
    pub seed: u64,
    /// Simulation parameters.
    pub params: SimParamsRecord,
    /// Network shape.
    pub topology: TopologyRecord,
    /// Vote assignment, one entry per site (empty if not applicable).
    pub votes: Vec<u64>,
    /// Batches executed (summed over jobs for multi-run benches).
    pub batches: u64,
    /// Batch-means convergence trace (possibly from a representative job).
    pub ci_trace: Vec<CiPoint>,
    /// Per-phase wall-clock timings.
    pub phases: Vec<PhaseTiming>,
    /// Named bucketed histograms (latency distributions and the like).
    /// Absent in manifests written before this field existed; parsing
    /// treats a missing key as empty.
    pub histograms: Vec<HistogramRecord>,
    /// Counter values (DES events, cache hits/recomputes, …), keyed by
    /// the [`crate::keys`] names.
    pub counters: BTreeMap<String, u64>,
    /// Free-form numeric results (availabilities, speedups, rates).
    pub metrics: BTreeMap<String, f64>,
}

impl RunManifest {
    /// Creates an empty manifest for binary `bin` with `seed`.
    pub fn new(bin: &str, seed: u64) -> Self {
        Self {
            bin: bin.to_string(),
            seed,
            ..Self::default()
        }
    }

    /// Copies every counter and timer out of a registry snapshot:
    /// counters land in [`RunManifest::counters`], timers become
    /// `PhaseTiming` entries (appended in name order).
    pub fn absorb_snapshot(&mut self, snap: &Snapshot) {
        for (name, value) in &snap.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, &(nanos, activations)) in &snap.timers {
            self.phases.push(PhaseTiming {
                phase: name.clone(),
                seconds: nanos as f64 / 1e9,
                activations,
            });
        }
        for (name, &value) in &snap.gauges {
            self.metrics.insert(name.clone(), value);
        }
    }

    /// Records a free-form numeric metric.
    pub fn set_metric(&mut self, key: Key, value: f64) {
        self.metrics.insert(key.as_str().to_string(), value);
    }

    /// Records a metric under `"{prefix}.{label}"`, for results keyed by
    /// a run-time name (a quorum system, a topology, a kernel).
    pub fn set_labeled_metric(&mut self, prefix: Key, label: &str, value: f64) {
        self.metrics.insert(format!("{prefix}.{label}"), value);
    }

    /// Counter value by key (0 if absent).
    pub fn counter(&self, key: Key) -> u64 {
        self.counters.get(key.as_str()).copied().unwrap_or(0)
    }

    /// Total seconds recorded for phase `key`, or 0.
    pub fn phase_secs(&self, key: Key) -> f64 {
        self.phases
            .iter()
            .filter(|p| p.phase == key.as_str())
            .map(|p| p.seconds)
            .sum()
    }

    /// Serializes to the JSON document model.
    pub fn to_json(&self) -> JsonValue {
        let mut root = JsonValue::object();
        root.insert("schema_version", JsonValue::Int(SCHEMA_VERSION as u64));
        root.insert("bin", JsonValue::Str(self.bin.clone()));
        root.insert("seed", JsonValue::Int(self.seed));

        let mut params = JsonValue::object();
        params.insert("mu_access", JsonValue::Num(self.params.mu_access));
        params.insert("rho", JsonValue::Num(self.params.rho));
        params.insert("reliability", JsonValue::Num(self.params.reliability));
        params.insert(
            "warmup_accesses",
            JsonValue::Int(self.params.warmup_accesses),
        );
        params.insert("batch_accesses", JsonValue::Int(self.params.batch_accesses));
        params.insert("min_batches", JsonValue::Int(self.params.min_batches));
        params.insert("max_batches", JsonValue::Int(self.params.max_batches));
        params.insert("confidence", JsonValue::Num(self.params.confidence));
        params.insert("ci_half_width", JsonValue::Num(self.params.ci_half_width));
        root.insert("params", params);

        let mut topo = JsonValue::object();
        topo.insert("label", JsonValue::Str(self.topology.label.clone()));
        topo.insert("sites", JsonValue::Int(self.topology.sites));
        topo.insert("links", JsonValue::Int(self.topology.links));
        topo.insert("chords", JsonValue::Int(self.topology.chords));
        root.insert("topology", topo);

        root.insert(
            "votes",
            JsonValue::Array(self.votes.iter().map(|&v| JsonValue::Int(v)).collect()),
        );
        root.insert("batches", JsonValue::Int(self.batches));

        root.insert(
            "ci_trace",
            JsonValue::Array(
                self.ci_trace
                    .iter()
                    .map(|p| {
                        let mut o = JsonValue::object();
                        o.insert("batches", JsonValue::Int(p.batches));
                        o.insert("mean", JsonValue::Num(p.mean));
                        o.insert("half_width", JsonValue::Num(p.half_width));
                        o
                    })
                    .collect(),
            ),
        );

        root.insert(
            "phases",
            JsonValue::Array(
                self.phases
                    .iter()
                    .map(|p| {
                        let mut o = JsonValue::object();
                        o.insert("phase", JsonValue::Str(p.phase.clone()));
                        o.insert("seconds", JsonValue::Num(p.seconds));
                        o.insert("activations", JsonValue::Int(p.activations));
                        o
                    })
                    .collect(),
            ),
        );

        root.insert(
            "histograms",
            JsonValue::Array(
                self.histograms
                    .iter()
                    .map(|h| {
                        let mut o = JsonValue::object();
                        o.insert("name", JsonValue::Str(h.name.clone()));
                        o.insert(
                            "bounds",
                            JsonValue::Array(h.bounds.iter().map(|&b| JsonValue::Num(b)).collect()),
                        );
                        o.insert(
                            "counts",
                            JsonValue::Array(h.counts.iter().map(|&c| JsonValue::Int(c)).collect()),
                        );
                        o
                    })
                    .collect(),
            ),
        );

        let mut counters = JsonValue::object();
        for (name, &value) in &self.counters {
            counters.insert(name, JsonValue::Int(value));
        }
        root.insert("counters", counters);

        let mut metrics = JsonValue::object();
        for (name, &value) in &self.metrics {
            metrics.insert(name, JsonValue::Num(value));
        }
        root.insert("metrics", metrics);

        root
    }

    /// Reconstructs a manifest from its JSON form.
    pub(crate) fn from_json(doc: &JsonValue) -> Result<Self, String> {
        let get = |key: &str| doc.get(key).ok_or_else(|| format!("missing '{key}'"));
        let version = get("schema_version")?
            .as_u64()
            .ok_or("schema_version not an integer")?;
        if version != SCHEMA_VERSION as u64 {
            return Err(format!("unsupported schema_version {version}"));
        }
        let str_field = |v: &JsonValue, key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string '{key}'"))
        };
        let u64_field = |v: &JsonValue, key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("missing integer '{key}'"))
        };
        let f64_field = |v: &JsonValue, key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("missing number '{key}'"))
        };

        let p = get("params")?;
        let params = SimParamsRecord {
            mu_access: f64_field(p, "mu_access")?,
            rho: f64_field(p, "rho")?,
            reliability: f64_field(p, "reliability")?,
            warmup_accesses: u64_field(p, "warmup_accesses")?,
            batch_accesses: u64_field(p, "batch_accesses")?,
            min_batches: u64_field(p, "min_batches")?,
            max_batches: u64_field(p, "max_batches")?,
            confidence: f64_field(p, "confidence")?,
            ci_half_width: f64_field(p, "ci_half_width")?,
        };

        let t = get("topology")?;
        let topology = TopologyRecord {
            label: str_field(t, "label")?,
            sites: u64_field(t, "sites")?,
            links: u64_field(t, "links")?,
            chords: u64_field(t, "chords")?,
        };

        let votes = get("votes")?
            .as_array()
            .ok_or("votes not an array")?
            .iter()
            .map(|v| v.as_u64().ok_or("vote not an integer"))
            .collect::<Result<Vec<_>, _>>()?;

        let ci_trace = get("ci_trace")?
            .as_array()
            .ok_or("ci_trace not an array")?
            .iter()
            .map(|p| {
                Ok(CiPoint {
                    batches: u64_field(p, "batches")?,
                    mean: f64_field(p, "mean")?,
                    half_width: f64_field(p, "half_width")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;

        let phases = get("phases")?
            .as_array()
            .ok_or("phases not an array")?
            .iter()
            .map(|p| {
                Ok(PhaseTiming {
                    phase: str_field(p, "phase")?,
                    seconds: f64_field(p, "seconds")?,
                    activations: u64_field(p, "activations")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;

        // Tolerant: manifests written before this field existed parse as
        // having no histograms.
        let histograms = match doc.get("histograms") {
            None => Vec::new(),
            Some(v) => v
                .as_array()
                .ok_or("histograms not an array")?
                .iter()
                .map(|h| {
                    let bounds = h
                        .get("bounds")
                        .and_then(JsonValue::as_array)
                        .ok_or("histogram missing 'bounds'")?
                        .iter()
                        .map(|b| b.as_f64().ok_or("bound not a number"))
                        .collect::<Result<Vec<_>, _>>()?;
                    let counts = h
                        .get("counts")
                        .and_then(JsonValue::as_array)
                        .ok_or("histogram missing 'counts'")?
                        .iter()
                        .map(|c| c.as_u64().ok_or("count not an integer"))
                        .collect::<Result<Vec<_>, _>>()?;
                    Ok(HistogramRecord {
                        name: str_field(h, "name")?,
                        bounds,
                        counts,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
        };

        let counters = match get("counters")? {
            JsonValue::Object(map) => map
                .iter()
                .map(|(k, v)| {
                    v.as_u64()
                        .map(|v| (k.clone(), v))
                        .ok_or_else(|| format!("counter '{k}' not an integer"))
                })
                .collect::<Result<BTreeMap<_, _>, _>>()?,
            _ => return Err("counters not an object".into()),
        };

        let metrics = match get("metrics")? {
            JsonValue::Object(map) => map
                .iter()
                .map(|(k, v)| {
                    v.as_f64()
                        .map(|v| (k.clone(), v))
                        .ok_or_else(|| format!("metric '{k}' not a number"))
                })
                .collect::<Result<BTreeMap<_, _>, _>>()?,
            _ => return Err("metrics not an object".into()),
        };

        Ok(Self {
            bin: str_field(doc, "bin")?,
            seed: u64_field(doc, "seed")?,
            params,
            topology,
            votes,
            batches: u64_field(doc, "batches")?,
            ci_trace,
            phases,
            histograms,
            counters,
            metrics,
        })
    }

    /// Parses a manifest from JSON text.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = JsonValue::parse(text).map_err(|e| e.to_string())?;
        Self::from_json(&doc)
    }

    /// Writes the manifest as pretty JSON to `path`. If `path` ends in
    /// `.csv` the flattened CSV form is written instead, so one
    /// `--manifest` flag serves both formats.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        let doc = self.to_json();
        let text = if path.extension().is_some_and(|e| e == "csv") {
            json::to_csv(&doc)
        } else {
            doc.to_string_pretty()
        };
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample() -> RunManifest {
        let mut m = RunManifest::new("validate_curves", 12_345);
        m.params = SimParamsRecord {
            mu_access: 1.0,
            rho: 1.0 / 128.0,
            reliability: 0.96,
            warmup_accesses: 5_000,
            batch_accesses: 30_000,
            min_batches: 3,
            max_batches: 6,
            confidence: 0.95,
            ci_half_width: 0.02,
        };
        m.topology = TopologyRecord {
            label: "paper-topology-16".into(),
            sites: 101,
            links: 117,
            chords: 16,
        };
        m.votes = vec![1; 101];
        m.batches = 4;
        m.ci_trace = vec![
            CiPoint {
                batches: 3,
                mean: 0.94,
                half_width: 0.03,
            },
            CiPoint {
                batches: 4,
                mean: 0.945,
                half_width: 0.015,
            },
        ];
        m.phases = vec![PhaseTiming {
            phase: "simulate".into(),
            seconds: 1.25,
            activations: 1,
        }];
        m.histograms = vec![HistogramRecord {
            name: "cluster.read_latency".into(),
            bounds: vec![0.5, 1.0, 2.0],
            counts: vec![10, 25, 7, 1],
        }];
        m.counters
            .insert(crate::keys::DES_EVENTS.as_str().into(), 1_000);
        m.counters
            .insert(crate::keys::CACHE_HITS.as_str().into(), 900);
        m.metrics.insert("availability".into(), 0.945);
        m
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let m = sample();
        let text = m.to_json().to_string_pretty();
        let back = RunManifest::parse(&text).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn compact_round_trip_is_lossless_too() {
        let m = sample();
        let back = RunManifest::parse(&m.to_json().to_string_compact()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn absorb_snapshot_moves_counters_timers_gauges() {
        let r = Registry::new();
        r.add(crate::keys::DES_EVENTS, 7);
        r.record_duration(
            crate::keys::REPLICA_RUN_STATIC,
            std::time::Duration::from_millis(250),
        );
        r.set_gauge(crate::keys::REPLICA_THREAD_UTILIZATION, 0.8);
        let mut m = RunManifest::new("test", 1);
        m.counters
            .insert(crate::keys::DES_EVENTS.as_str().into(), 3);
        m.absorb_snapshot(&r.snapshot());
        assert_eq!(m.counter(crate::keys::DES_EVENTS), 10);
        assert!((m.phase_secs(crate::keys::REPLICA_RUN_STATIC) - 0.25).abs() < 1e-9);
        assert_eq!(m.phases[0].activations, 1);
        assert_eq!(
            m.metrics[crate::keys::REPLICA_THREAD_UTILIZATION.as_str()],
            0.8
        );
    }

    #[test]
    fn manifests_without_histograms_still_parse() {
        // Backwards compatibility: pre-histogram manifests omit the key.
        let mut doc = sample().to_json();
        if let JsonValue::Object(map) = &mut doc {
            map.remove("histograms");
        }
        let back = RunManifest::from_json(&doc).unwrap();
        assert!(back.histograms.is_empty());
        let mut expected = sample();
        expected.histograms.clear();
        assert_eq!(back, expected);
    }

    #[test]
    fn histogram_observations_sum_counts() {
        let h = sample().histograms[0].clone();
        assert_eq!(h.observations(), 43);
        assert_eq!(h.counts.len(), h.bounds.len() + 1);
    }

    #[test]
    fn missing_fields_are_reported_by_name() {
        let mut doc = sample().to_json();
        if let JsonValue::Object(map) = &mut doc {
            map.remove("seed");
        }
        let err = RunManifest::from_json(&doc).unwrap_err();
        assert!(err.contains("seed"), "{err}");
    }

    #[test]
    fn schema_version_is_checked() {
        let mut doc = sample().to_json();
        doc.insert("schema_version", JsonValue::Int(999));
        assert!(RunManifest::from_json(&doc).unwrap_err().contains("999"));
    }

    #[test]
    fn write_to_csv_flattens() {
        let dir = std::env::temp_dir();
        let path = dir.join("quorum_obs_manifest_test.csv");
        sample().write_to(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("key,value\n"));
        assert!(text.contains("seed,12345\n"));
        assert!(text.contains("topology.chords,16\n"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn write_to_json_parses_back() {
        let dir = std::env::temp_dir();
        let path = dir.join("quorum_obs_manifest_test.json");
        sample().write_to(&path).unwrap();
        let back = RunManifest::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back, sample());
        let _ = std::fs::remove_file(&path);
    }
}
