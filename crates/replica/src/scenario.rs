//! The paper's evaluation scenario (§5.1–5.2).

use quorum_graph::Topology;

/// Chord counts of the paper's seven topologies (101-site ring + k chords;
/// 4949 chords = fully connected).
pub(crate) const PAPER_CHORDS: [usize; 7] = [0, 1, 2, 4, 16, 256, 4949];

/// Read ratios plotted in Figures 2–7.
pub const PAPER_ALPHAS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// Number of sites in every paper topology.
pub(crate) const PAPER_SITES: usize = 101;

/// One of the paper's evaluation configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaperScenario {
    /// Number of chords added to the 101-ring.
    pub chords: usize,
}

impl PaperScenario {
    /// Checks a chord count against the paper's seven topologies,
    /// returning the violated rule.
    pub fn check_chords(chords: usize) -> Result<(), String> {
        if PAPER_CHORDS.contains(&chords) {
            Ok(())
        } else {
            Err(format!("paper topologies use chords in {PAPER_CHORDS:?}"))
        }
    }

    /// Scenario for "Topology `chords`".
    ///
    /// # Panics
    /// Panics if `chords` is not one of the paper's seven values.
    pub fn new(chords: usize) -> Self {
        if let Err(rule) = Self::check_chords(chords) {
            panic!("{rule}, got {chords}");
        }
        Self { chords }
    }

    /// All seven scenarios in paper order.
    pub fn all() -> Vec<PaperScenario> {
        PAPER_CHORDS.iter().map(|&c| Self::new(c)).collect()
    }

    /// The figure number (2–7) that plots this topology, if any; the
    /// fully-connected case is omitted from the paper's figures because
    /// its curves coincide with topology 256.
    pub fn figure(&self) -> Option<u32> {
        match self.chords {
            0 => Some(2),
            1 => Some(3),
            2 => Some(4),
            4 => Some(5),
            16 => Some(6),
            256 => Some(7),
            _ => None,
        }
    }

    /// Builds the topology.
    pub fn topology(&self) -> Topology {
        Topology::ring_with_chords(PAPER_SITES, self.chords)
    }

    /// Display label ("Topology 16").
    pub fn label(&self) -> String {
        format!("Topology {}", self.chords)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_scenarios_build() {
        for s in PaperScenario::all() {
            let t = s.topology();
            assert_eq!(t.num_sites(), 101);
            assert_eq!(t.num_links(), 101 + s.chords);
        }
    }

    #[test]
    fn figure_mapping() {
        assert_eq!(PaperScenario::new(0).figure(), Some(2));
        assert_eq!(PaperScenario::new(256).figure(), Some(7));
        assert_eq!(PaperScenario::new(4949).figure(), None);
    }

    #[test]
    fn labels() {
        assert_eq!(PaperScenario::new(16).label(), "Topology 16");
    }

    #[test]
    #[should_panic(expected = "paper topologies")]
    fn unknown_chord_count_rejected() {
        PaperScenario::new(3);
    }
}
