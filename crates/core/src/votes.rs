//! Vote assignments (Gifford's weighted voting, §2.1).

/// An assignment of non-negative integer votes to each copy/site.
///
/// The paper's experiments use the uniform assignment (one vote per copy,
/// §5.1) because its access distributions and reliabilities are uniform and
/// its topologies roughly symmetric; weighted assignments are supported for
/// the general protocol (e.g. the primary-copy reduction gives all votes to
/// one site).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoteAssignment {
    votes: Vec<u64>,
    total: u64,
}

impl VoteAssignment {
    /// One vote per site.
    pub fn uniform(n_sites: usize) -> Self {
        Self::weighted(vec![1; n_sites])
    }

    /// Arbitrary per-site votes.
    ///
    /// # Panics
    /// Panics if empty or if the total is zero.
    pub fn weighted(votes: Vec<u64>) -> Self {
        assert!(!votes.is_empty(), "need at least one site");
        let total: u64 = votes.iter().sum();
        assert!(total > 0, "total votes must be positive");
        Self { votes, total }
    }

    /// The primary-copy reduction: all `T` votes at `primary`, zero
    /// elsewhere. With `q_r = q_w = 1` (relative to `T = 1`), access is
    /// possible exactly in the component containing the primary site
    /// (§2.1's reduction to the primary copy protocol \[2\]).
    pub fn primary_copy(n_sites: usize, primary: usize) -> Self {
        assert!(primary < n_sites, "primary {primary} out of range");
        let mut votes = vec![0; n_sites];
        votes[primary] = 1;
        Self::weighted(votes)
    }

    /// Number of sites.
    pub fn num_sites(&self) -> usize {
        self.votes.len()
    }

    /// Votes held by `site`.
    pub fn votes_of(&self, site: usize) -> u64 {
        self.votes[site]
    }

    /// Total votes `T`.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Per-site votes as a slice (used by the connectivity layer to weight
    /// components).
    pub fn as_slice(&self) -> &[u64] {
        &self.votes
    }

    /// Sum of votes over a set of sites.
    pub fn votes_in(&self, sites: impl IntoIterator<Item = usize>) -> u64 {
        sites.into_iter().map(|s| self.votes[s]).sum()
    }

    /// True if every site holds exactly one vote.
    pub fn is_uniform(&self) -> bool {
        self.votes.iter().all(|&v| v == 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_assignment() {
        let va = VoteAssignment::uniform(101);
        assert_eq!(va.total(), 101);
        assert_eq!(va.num_sites(), 101);
        assert!(va.is_uniform());
        assert_eq!(va.votes_of(50), 1);
    }

    #[test]
    fn weighted_assignment() {
        let va = VoteAssignment::weighted(vec![3, 0, 2]);
        assert_eq!(va.total(), 5);
        assert_eq!(va.votes_of(1), 0);
        assert!(!va.is_uniform());
        assert_eq!(va.votes_in([0, 2]), 5);
    }

    #[test]
    fn primary_copy_assignment() {
        let va = VoteAssignment::primary_copy(5, 2);
        assert_eq!(va.total(), 1);
        assert_eq!(va.votes_of(2), 1);
        assert_eq!(va.votes_of(0), 0);
    }

    #[test]
    fn votes_in_subset() {
        let va = VoteAssignment::uniform(10);
        assert_eq!(va.votes_in(0..4), 4);
        assert_eq!(va.votes_in(std::iter::empty()), 0);
    }

    #[test]
    #[should_panic(expected = "total votes must be positive")]
    fn all_zero_votes_rejected() {
        VoteAssignment::weighted(vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "at least one site")]
    fn empty_rejected() {
        VoteAssignment::weighted(vec![]);
    }
}
