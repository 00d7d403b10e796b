//! GRED protocol configuration.

use gred_geometry::CRegulationConfig;

/// Tunables of a [`crate::GredNetwork`].
///
/// The defaults reproduce the paper's standard configuration: C-regulation
/// with `T = 50` iterations and 1000 samples each, automatic range
/// extension on server overload, and no replication.
#[derive(Debug, Clone, PartialEq)]
pub struct GredConfig {
    /// C-regulation (CVT refinement) settings. Use
    /// [`GredConfig::no_cvt`] for the paper's GRED-NoCVT variant.
    pub regulation: CRegulationConfig,
    /// Seed for the C-regulation sampler (and any other randomized
    /// control-plane step), so networks are reproducible.
    pub seed: u64,
    /// When true, placing onto a server that is at capacity automatically
    /// triggers a range extension to a neighbor switch's server
    /// (Section V-B). When false the caller manages extensions explicitly.
    pub auto_extend: bool,
    /// How many members M-position embeds by classical MDS (the
    /// landmarks); the rest are trilaterated against them. `Some(k)`
    /// picks `k` seeded max-min landmarks, with BFS from those `k` only
    /// and a `k × k` eigendecomposition. `None` (the default) makes every
    /// member a landmark: the exact embedding, as does any
    /// `k >= members`.
    pub landmarks: Option<usize>,
}

impl Default for GredConfig {
    fn default() -> Self {
        GredConfig {
            regulation: CRegulationConfig::default(),
            seed: 0xC0FFEE,
            auto_extend: true,
            landmarks: None,
        }
    }
}

impl GredConfig {
    /// The paper's GRED-NoCVT variant: M-position coordinates used as-is,
    /// no C-regulation refinement.
    pub fn no_cvt() -> Self {
        GredConfig {
            regulation: CRegulationConfig::with_iterations(0),
            ..GredConfig::default()
        }
    }

    /// GRED with `t` C-regulation iterations (the paper sweeps `T` in
    /// Fig. 11(c)).
    pub fn with_iterations(t: usize) -> Self {
        GredConfig {
            regulation: CRegulationConfig::with_iterations(t),
            ..GredConfig::default()
        }
    }

    /// Same configuration with a different seed.
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Same configuration embedding with `k` landmarks instead of every
    /// member.
    pub fn landmarks(mut self, k: usize) -> Self {
        self.landmarks = Some(k);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = GredConfig::default();
        assert_eq!(c.regulation.iterations, 50);
        assert_eq!(c.regulation.samples_per_iteration, 1000);
        assert!(c.auto_extend);
        assert_eq!(c.landmarks, None, "exact embedding by default");
    }

    #[test]
    fn no_cvt_runs_zero_iterations() {
        assert_eq!(GredConfig::no_cvt().regulation.iterations, 0);
    }

    #[test]
    fn builders_compose() {
        let c = GredConfig::with_iterations(10).seeded(7).landmarks(32);
        assert_eq!(c.regulation.iterations, 10);
        assert_eq!(c.seed, 7);
        assert_eq!(c.landmarks, Some(32));
    }
}
