//! Availability metrics (§3).

/// The two data-availability metrics from the literature.
///
/// * **Survivability (SURV)** — the probability that, at an arbitrary
///   time, *some* site can access the data object (a distinguished
///   component exists). Upper-bounded below by single-site reliability
///   (one unreplicated copy achieves it).
/// * **Accessibility (ACC)** — the probability that an *arbitrary* site
///   can access the object at an arbitrary time. Upper-bounded by the
///   reliability of the submitting site. The paper reports ACC, arguing it
///   reflects the experience of a user who cannot hop between sites.
///
/// Footnote 3: the Figure-1 algorithm optimizes SURV instead of ACC by
/// substituting the distribution of the *largest* component's votes for
/// the submitting site's component votes — the simulator exposes both
/// observations, so either metric can drive the optimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AvailabilityMetric {
    /// Probability that an arbitrary site can access the object.
    Accessibility,
    /// Probability that at least one site can access the object.
    Survivability,
}

impl AvailabilityMetric {
    /// Short display label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            AvailabilityMetric::Accessibility => "ACC",
            AvailabilityMetric::Survivability => "SURV",
        }
    }
}

impl std::fmt::Display for AvailabilityMetric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(AvailabilityMetric::Accessibility.label(), "ACC");
        assert_eq!(AvailabilityMetric::Survivability.to_string(), "SURV");
    }
}
