//! Per-object quorum/workload catalog.
//!
//! A catalog maps each object id to an **object class** — a (vote
//! assignment, quorum spec, read ratio, base access rate) tuple — plus a
//! deterministic per-object rate jitter, so a million objects don't need
//! a million stored records. Class and rate assignment are pure hashes
//! of the object id (fixed salts, independent of the run seed), so the
//! same object keeps the same quorum configuration across seeds and the
//! workload composition is stable for baseline comparisons.
//!
//! On top of the classes sits the **assignment table**: every object
//! resolves (again by pure hash) to an [`AssignmentProfile`] — the
//! (vote table, quorum spec) pair the timeline grants against. In the
//! plain [`ObjectCatalog::paper_mix`] the table is one profile per
//! class; [`ObjectCatalog::with_optimized_assignments`] expands it to
//! **per-object** assignments: objects of one class spread over a set
//! of read-ratio buckets, and the paper's optimizer
//! ([`quorum_core::optimal`]) picks each bucket's `q_r` for that
//! bucket's α. The engine then simulates a population where no two
//! objects need share a quorum spec — the regime the paper's
//! optimization exists for.

use quorum_core::optimal::{optimal_quorum, SearchStrategy};
use quorum_core::{AvailabilityModel, QuorumSpec, VoteAssignment};
use quorum_stats::rng::derive_seed;
use quorum_stats::DiscreteDist;

/// Salt for the object → class hash (fixed: workload shape is part of
/// the benchmark definition, not of the run seed).
const CLASS_SALT: u64 = 0x5348_4152_445f_434c; // "SHARD_CL"
/// Salt for the object → rate-jitter hash.
const RATE_SALT: u64 = 0x5348_4152_445f_5254; // "SHARD_RT"
/// Salt for the object → α-bucket hash (per-object assignments).
const BUCKET_SALT: u64 = 0x5348_4152_445f_4142; // "SHARD_AB"

/// One equivalence class of objects: how they vote and how they are
/// accessed.
#[derive(Debug, Clone)]
pub struct ObjectClass {
    /// Human-readable label (manifest/debug only).
    pub name: &'static str,
    /// Votes per site for objects of this class.
    pub votes: VoteAssignment,
    /// Read/write quorum thresholds over those votes.
    pub spec: QuorumSpec,
    /// Probability an access is a read (class baseline; per-object α
    /// may spread around it under bucketed assignments).
    pub alpha: f64,
    /// Base Poisson access rate (events per unit simulated time),
    /// before per-object jitter.
    pub base_rate: f64,
}

/// One entry of the assignment table: the (vote table, spec) pair a set
/// of objects is granted quorums under. The timeline precomputes one
/// grant row per profile per epoch.
#[derive(Debug, Clone)]
pub struct AssignmentProfile {
    /// Human-readable label (manifest/debug only).
    pub name: String,
    /// Index into [`ObjectCatalog::vote_tables`] — profiles sharing a
    /// vote table share the per-component vote sums the timeline
    /// computes per epoch.
    pub votes_key: usize,
    /// Read/write quorum thresholds over that vote table.
    pub spec: QuorumSpec,
}

/// The full object population: classes, the assignment table, and the
/// object → class / α-bucket maps.
#[derive(Debug, Clone)]
pub struct ObjectCatalog {
    classes: Vec<ObjectClass>,
    /// Distinct vote assignments referenced by the profiles.
    vote_tables: Vec<VoteAssignment>,
    /// The assignment table (≥ 1 profile per class).
    profiles: Vec<AssignmentProfile>,
    /// `class * buckets + bucket` → profile index.
    slot_profile: Vec<usize>,
    /// `class * buckets + bucket` → per-object read ratio.
    slot_alpha: Vec<f64>,
    /// α-buckets per class (1 = per-class assignments).
    buckets: usize,
    objects: u64,
    /// Objective evaluations the optimizer spent building the table.
    optimizer_evaluations: u64,
}

impl ObjectCatalog {
    /// Checks the size of a [`ObjectCatalog::paper_mix`] population,
    /// returning the violated rule.
    pub fn check_size(n_sites: usize, objects: u64) -> Result<(), String> {
        if n_sites < 2 {
            Err("need at least two sites".to_string())
        } else if objects == 0 {
            Err("need at least one object".to_string())
        } else {
            Ok(())
        }
    }

    /// Checks the α-bucket count of
    /// [`ObjectCatalog::with_optimized_assignments`], returning the
    /// violated rule.
    pub fn check_buckets(buckets: usize) -> Result<(), String> {
        if buckets >= 1 {
            Ok(())
        } else {
            Err("need at least one alpha bucket".to_string())
        }
    }

    /// Checks the α spread of
    /// [`ObjectCatalog::with_optimized_assignments`], returning the
    /// violated rule.
    pub fn check_spread(spread: f64) -> Result<(), String> {
        if spread >= 0.0 && spread.is_finite() {
            Ok(())
        } else {
            Err("spread must be non-negative and finite".to_string())
        }
    }

    /// A heterogeneous population over `n_sites` sites in the spirit of
    /// the paper's §5 study: majority voting as the baseline, a
    /// read-optimized assignment (small read quorum), a write-heavy
    /// majority class, a weighted "core sites carry 3 votes" class, and
    /// read-one/write-all for the almost-never-written tail.
    ///
    /// # Panics
    /// Panics if `n_sites < 2` or `objects == 0`.
    pub fn paper_mix(n_sites: usize, objects: u64) -> Self {
        if let Err(rule) = Self::check_size(n_sites, objects) {
            panic!("{rule}");
        }
        let n = n_sites as u64;
        let core = n_sites.min(5);
        let mut weighted = vec![1u64; n_sites];
        for w in weighted.iter_mut().take(core) {
            *w = 3;
        }
        let weighted_total: u64 = weighted.iter().sum();
        let classes = vec![
            ObjectClass {
                name: "maj-balanced",
                votes: VoteAssignment::uniform(n_sites),
                spec: QuorumSpec::majority(n),
                alpha: 0.70,
                base_rate: 1.0,
            },
            ObjectClass {
                name: "read-mostly",
                votes: VoteAssignment::uniform(n_sites),
                spec: QuorumSpec::from_read_quorum((n / 4).max(1), n)
                    .expect("1 <= n/4 <= n/2 for n >= 2"),
                alpha: 0.95,
                base_rate: 2.0,
            },
            ObjectClass {
                name: "write-heavy",
                votes: VoteAssignment::uniform(n_sites),
                spec: QuorumSpec::majority(n),
                alpha: 0.30,
                base_rate: 0.5,
            },
            ObjectClass {
                name: "weighted-core",
                votes: VoteAssignment::weighted(weighted),
                spec: QuorumSpec::majority(weighted_total),
                alpha: 0.70,
                base_rate: 1.0,
            },
            ObjectClass {
                name: "rowa",
                votes: VoteAssignment::uniform(n_sites),
                spec: QuorumSpec::read_one_write_all(n),
                alpha: 0.99,
                base_rate: 4.0,
            },
        ];
        // One profile per class; vote tables deduped structurally so the
        // timeline computes per-component vote sums once per table, not
        // once per class.
        let mut vote_tables: Vec<VoteAssignment> = Vec::new();
        let mut profiles = Vec::with_capacity(classes.len());
        let mut slot_alpha = Vec::with_capacity(classes.len());
        for class in &classes {
            let votes_key = intern_votes(&mut vote_tables, &class.votes);
            profiles.push(AssignmentProfile {
                name: class.name.to_string(),
                votes_key,
                spec: class.spec,
            });
            slot_alpha.push(class.alpha);
        }
        Self {
            slot_profile: (0..classes.len()).collect(),
            classes,
            vote_tables,
            profiles,
            slot_alpha,
            buckets: 1,
            objects,
            optimizer_evaluations: 0,
        }
    }

    /// Expands the assignment table to **per-object** assignments:
    /// objects of each class spread (by pure hash) over `buckets`
    /// read-ratio buckets whose α values fan `± spread` around the
    /// class α, and each uniform-vote bucket's quorum spec is chosen by
    /// the paper's optimizer over `density` — the component-vote
    /// distribution of the deployment's topology (for uniform votes,
    /// component votes = component sites, so any analytic site-count
    /// density from [`quorum_core::analytic`] fits directly).
    ///
    /// Non-uniform classes (weighted-core) keep their engineered spec in
    /// every bucket: the availability model quantifies over exchangeable
    /// vote densities, which a weighted table does not satisfy.
    /// Profiles that optimize to the same spec are deduplicated, so the
    /// timeline's grant table only grows by the number of *distinct*
    /// optimal assignments.
    ///
    /// # Panics
    /// Panics if `buckets == 0`, `spread` is negative/non-finite, or
    /// `density`'s vote domain disagrees with the uniform classes'
    /// vote totals.
    pub fn with_optimized_assignments(
        mut self,
        density: &DiscreteDist,
        buckets: usize,
        spread: f64,
    ) -> Self {
        if let Err(rule) = Self::check_buckets(buckets).and(Self::check_spread(spread)) {
            panic!("{rule}");
        }
        let model = AvailabilityModel::from_mixtures(density, density);
        let mut profiles: Vec<AssignmentProfile> = Vec::new();
        let mut slot_profile = Vec::with_capacity(self.classes.len() * buckets);
        let mut slot_alpha = Vec::with_capacity(self.classes.len() * buckets);
        let mut evaluations = 0u64;
        for class in &self.classes {
            let votes_key = intern_votes(&mut self.vote_tables, &class.votes);
            if class.votes.is_uniform() {
                assert_eq!(
                    model.total_votes(),
                    class.votes.total(),
                    "density domain must match the uniform vote total"
                );
            }
            for b in 0..buckets {
                let alpha = bucket_alpha(class.alpha, b, buckets, spread);
                let spec = if class.votes.is_uniform() {
                    let opt = optimal_quorum(&model, alpha, SearchStrategy::EndpointGolden);
                    evaluations += opt.evaluations as u64;
                    opt.spec
                } else {
                    class.spec
                };
                let profile = profiles
                    .iter()
                    .position(|p| {
                        p.votes_key == votes_key
                            && p.spec.q_r() == spec.q_r()
                            && p.spec.q_w() == spec.q_w()
                    })
                    .unwrap_or_else(|| {
                        profiles.push(AssignmentProfile {
                            name: format!("{}/qr{}", class.name, spec.q_r()),
                            votes_key,
                            spec,
                        });
                        profiles.len() - 1
                    });
                slot_profile.push(profile);
                slot_alpha.push(alpha);
            }
        }
        self.profiles = profiles;
        self.slot_profile = slot_profile;
        self.slot_alpha = slot_alpha;
        self.buckets = buckets;
        self.optimizer_evaluations = evaluations;
        self
    }

    /// Number of object classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Number of objects in the population.
    pub(crate) fn num_objects(&self) -> u64 {
        self.objects
    }

    /// The classes, indexed by class id.
    pub fn classes(&self) -> &[ObjectClass] {
        &self.classes
    }

    /// The class definition for index `k`.
    #[cfg(test)]
    fn class(&self, k: usize) -> &ObjectClass {
        &self.classes[k]
    }

    /// The assignment table, indexed by assignment profile id.
    pub fn profiles(&self) -> &[AssignmentProfile] {
        &self.profiles
    }

    /// Number of assignment profiles (grant rows per timeline epoch).
    pub fn num_assignments(&self) -> usize {
        self.profiles.len()
    }

    /// Distinct vote assignments referenced by
    /// [`AssignmentProfile::votes_key`].
    pub fn vote_tables(&self) -> &[VoteAssignment] {
        &self.vote_tables
    }

    /// α-buckets per class (1 = per-class assignments).
    #[cfg(test)]
    fn alpha_buckets(&self) -> usize {
        self.buckets
    }

    /// Objective evaluations spent building the assignment table (0 for
    /// the per-class [`Self::paper_mix`]).
    pub fn optimizer_evaluations(&self) -> u64 {
        self.optimizer_evaluations
    }

    /// Class index of one object (pure hash of the id).
    pub(crate) fn class_of(&self, object: u64) -> usize {
        (derive_seed(CLASS_SALT, object) % self.classes.len() as u64) as usize
    }

    /// α-bucket of one object (pure hash of the id; always 0 when the
    /// table is per-class).
    fn bucket_of(&self, object: u64) -> usize {
        if self.buckets == 1 {
            0
        } else {
            (derive_seed(BUCKET_SALT, object) % self.buckets as u64) as usize
        }
    }

    /// Assignment-profile index of one object.
    #[inline]
    pub(crate) fn assignment_of(&self, object: u64) -> usize {
        self.slot_profile[self.class_of(object) * self.buckets + self.bucket_of(object)]
    }

    /// Read ratio of one object (the class α, or its bucket's α under
    /// per-object assignments).
    #[inline]
    pub(crate) fn alpha_of(&self, object: u64) -> f64 {
        self.slot_alpha[self.class_of(object) * self.buckets + self.bucket_of(object)]
    }

    /// Poisson access rate of one object: the class base rate scaled by
    /// a deterministic jitter uniform in `[0.5, 1.5)`, so arrival gaps
    /// differ across objects of the same class.
    pub(crate) fn rate_of(&self, object: u64) -> f64 {
        self.classes[self.class_of(object)].base_rate * rate_jitter(object)
    }

    /// Everything the walk needs of one object, hashing its class and
    /// α-bucket once: equal, field for field and bit for bit, to
    /// [`Self::class_of`], [`Self::assignment_of`], [`Self::alpha_of`]
    /// and [`Self::rate_of`].
    #[inline]
    pub(crate) fn params_of(&self, object: u64) -> ObjectParams {
        let class = self.class_of(object);
        let slot = class * self.buckets + self.bucket_of(object);
        ObjectParams {
            class,
            assignment: self.slot_profile[slot],
            alpha: self.slot_alpha[slot],
            rate: self.classes[class].base_rate * rate_jitter(object),
        }
    }
}

/// One object's class, assignment profile, read ratio and access rate
/// ([`ObjectCatalog::params_of`]).
#[derive(Clone, Copy)]
pub(crate) struct ObjectParams {
    pub(crate) class: usize,
    pub(crate) assignment: usize,
    pub(crate) alpha: f64,
    pub(crate) rate: f64,
}

/// Rate multiplier of one object: uniform in `[0.5, 1.5)` (pure hash of
/// the id).
fn rate_jitter(object: u64) -> f64 {
    let u = (derive_seed(RATE_SALT, object) >> 11) as f64 / (1u64 << 53) as f64;
    0.5 + u
}

/// Index of `votes` in `tables`, interning it if new.
fn intern_votes(tables: &mut Vec<VoteAssignment>, votes: &VoteAssignment) -> usize {
    tables
        .iter()
        .position(|t| t.as_slice() == votes.as_slice())
        .unwrap_or_else(|| {
            tables.push(votes.clone());
            tables.len() - 1
        })
}

/// α of bucket `b` of `buckets`: the class α shifted linearly across
/// `[-spread, +spread]`, clamped to `[0.01, 0.99]` so both access kinds
/// keep nonzero probability.
fn bucket_alpha(class_alpha: f64, b: usize, buckets: usize, spread: f64) -> f64 {
    let offset = if buckets == 1 {
        0.0
    } else {
        spread * (2.0 * b as f64 / (buckets - 1) as f64 - 1.0)
    };
    (class_alpha + offset).clamp(0.01, 0.99)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorum_core::Access;

    #[test]
    fn paper_mix_has_five_classes_and_all_are_hit() {
        let c = ObjectCatalog::paper_mix(13, 1000);
        assert_eq!(c.num_classes(), 5);
        let mut seen = vec![0u64; c.num_classes()];
        for o in 0..c.num_objects() {
            seen[c.class_of(o)] += 1;
        }
        assert!(
            seen.iter().all(|&n| n > 0),
            "hash should spread objects over every class: {seen:?}"
        );
    }

    #[test]
    fn rates_are_jittered_within_half_to_threehalves_of_base() {
        let c = ObjectCatalog::paper_mix(7, 500);
        let mut distinct = std::collections::BTreeSet::new();
        for o in 0..c.num_objects() {
            let base = c.class(c.class_of(o)).base_rate;
            let r = c.rate_of(o);
            assert!(r >= 0.5 * base && r < 1.5 * base, "rate {r} vs base {base}");
            distinct.insert(r.to_bits());
        }
        assert!(
            distinct.len() > 100,
            "jitter should be near-unique per object"
        );
    }

    #[test]
    fn class_and_rate_are_deterministic_and_seed_free() {
        let a = ObjectCatalog::paper_mix(9, 64);
        let b = ObjectCatalog::paper_mix(9, 64);
        for o in 0..64 {
            assert_eq!(a.class_of(o), b.class_of(o));
            assert_eq!(a.rate_of(o).to_bits(), b.rate_of(o).to_bits());
        }
    }

    #[test]
    fn specs_are_internally_consistent() {
        let c = ObjectCatalog::paper_mix(101, 1);
        for class in c.classes() {
            assert_eq!(class.spec.total(), class.votes.total(), "{}", class.name);
            assert!(class.spec.threshold(Access::Read) >= 1);
            assert!((0.0..=1.0).contains(&class.alpha));
            assert!(class.base_rate > 0.0);
        }
    }

    #[test]
    fn weighted_core_concentrates_votes() {
        let c = ObjectCatalog::paper_mix(101, 1);
        let weighted = &c.classes()[3];
        assert_eq!(weighted.votes.votes_of(0), 3);
        assert_eq!(weighted.votes.votes_of(100), 1);
        assert_eq!(weighted.votes.total(), 5 * 3 + 96);
    }

    #[test]
    fn tiny_population_still_valid() {
        let c = ObjectCatalog::paper_mix(2, 3);
        for class in c.classes() {
            assert!(class.spec.q_r() >= 1);
        }
    }

    #[test]
    fn paper_mix_assignment_table_is_one_profile_per_class() {
        let c = ObjectCatalog::paper_mix(13, 100);
        assert_eq!(c.num_assignments(), c.num_classes());
        assert_eq!(c.alpha_buckets(), 1);
        assert_eq!(c.optimizer_evaluations(), 0);
        // Four uniform classes share one table; weighted-core has its own.
        assert_eq!(c.vote_tables().len(), 2);
        for o in 0..c.num_objects() {
            assert_eq!(c.assignment_of(o), c.class_of(o));
            let k = c.class_of(o);
            assert!((c.alpha_of(o) - c.class(k).alpha).abs() < 1e-15);
            let p = &c.profiles()[c.assignment_of(o)];
            assert_eq!(p.spec.q_r(), c.class(k).spec.q_r());
            assert_eq!(
                c.vote_tables()[p.votes_key].as_slice(),
                c.class(k).votes.as_slice()
            );
        }
    }

    fn optimized_fixture(n_sites: usize, objects: u64, buckets: usize) -> ObjectCatalog {
        let density = quorum_core::analytic::ring_density(n_sites, 0.96, 0.96);
        ObjectCatalog::paper_mix(n_sites, objects)
            .with_optimized_assignments(&density, buckets, 0.2)
    }

    #[test]
    #[should_panic(expected = "need at least one alpha bucket")]
    fn optimized_assignments_reject_zero_buckets() {
        optimized_fixture(13, 400, 0);
    }

    #[test]
    #[should_panic(expected = "spread must be non-negative and finite")]
    fn optimized_assignments_reject_nan_spread() {
        let density = quorum_core::analytic::ring_density(13, 0.96, 0.96);
        ObjectCatalog::paper_mix(13, 400).with_optimized_assignments(&density, 4, f64::NAN);
    }

    #[test]
    fn optimized_assignments_spread_alpha_and_specs_per_object() {
        let c = optimized_fixture(13, 400, 5);
        assert_eq!(c.alpha_buckets(), 5);
        assert!(c.optimizer_evaluations() > 0);
        // More profiles than classes: the buckets produced distinct
        // optimizer picks somewhere in the mix.
        assert!(
            c.num_assignments() > c.num_classes(),
            "{} profiles",
            c.num_assignments()
        );
        // Two objects of the same class in different buckets can carry
        // different α and different assignments.
        let mut alphas_per_class = vec![std::collections::BTreeSet::new(); c.num_classes()];
        for o in 0..c.num_objects() {
            alphas_per_class[c.class_of(o)].insert(c.alpha_of(o).to_bits());
            let p = &c.profiles()[c.assignment_of(o)];
            assert!(p.spec.q_r() >= 1);
            // Vote table matches the object's class table.
            assert_eq!(
                c.vote_tables()[p.votes_key].as_slice(),
                c.class(c.class_of(o)).votes.as_slice()
            );
        }
        assert!(alphas_per_class.iter().any(|s| s.len() > 1));
    }

    #[test]
    fn optimized_weighted_class_keeps_engineered_spec() {
        let c = optimized_fixture(13, 100, 3);
        let weighted_key = c
            .vote_tables()
            .iter()
            .position(|t| !t.is_uniform())
            .expect("weighted table interned");
        for p in c.profiles().iter().filter(|p| p.votes_key == weighted_key) {
            assert_eq!(p.spec.q_r(), c.class(3).spec.q_r());
            assert_eq!(p.spec.q_w(), c.class(3).spec.q_w());
        }
    }

    #[test]
    fn optimizer_favors_looser_reads_for_read_heavy_buckets() {
        let c = optimized_fixture(13, 100, 5);
        // The rowa class at α ≈ 0.99: optimal q_r should sit at the loose
        // end, strictly below majority.
        let rowa_profiles: Vec<_> = (0..c.num_objects())
            .filter(|&o| c.class_of(o) == 4)
            .map(|o| c.profiles()[c.assignment_of(o)].spec.q_r())
            .collect();
        assert!(!rowa_profiles.is_empty());
        assert!(
            rowa_profiles.iter().all(|&q| q < 7),
            "read-heavy objects must not pay majority reads: {rowa_profiles:?}"
        );
    }

    #[test]
    fn params_of_matches_the_per_field_lookups() {
        for c in [
            ObjectCatalog::paper_mix(13, 10_000),
            optimized_fixture(13, 10_000, 4),
        ] {
            for o in 0..c.num_objects() {
                let p = c.params_of(o);
                assert_eq!(p.class, c.class_of(o), "object {o}");
                assert_eq!(p.assignment, c.assignment_of(o), "object {o}");
                assert_eq!(p.alpha.to_bits(), c.alpha_of(o).to_bits(), "object {o}");
                assert_eq!(p.rate.to_bits(), c.rate_of(o).to_bits(), "object {o}");
            }
        }
    }

    #[test]
    fn bucket_alpha_is_clamped_and_centered() {
        assert!((bucket_alpha(0.5, 0, 1, 0.2) - 0.5).abs() < 1e-15);
        assert!((bucket_alpha(0.5, 0, 3, 0.2) - 0.3).abs() < 1e-15);
        assert!((bucket_alpha(0.5, 2, 3, 0.2) - 0.7).abs() < 1e-15);
        assert!(bucket_alpha(0.99, 4, 5, 0.3) <= 0.99);
        assert!(bucket_alpha(0.01, 0, 5, 0.3) >= 0.01);
    }
}
