//! The live workloads' input generator: seeded user-days.
//!
//! A user-day is what one simulated user browses in a day: 5–30 visits,
//! each a page drawn by the public [`VisitSynthesizer::sample_indexed`]
//! with a reading time drawn by [`DwellModel::sample`] from the user's
//! per-site interest. Only the corpus is needed to build them — no
//! profile capture, no predictor — so a live workload's set-up never
//! pays for either.

use ewb_core::simcore::Xoshiro256;
use ewb_core::traces::{DwellModel, FeatureVector, VisitSynthesizer};

/// A seed no figure in the benchmark's documentation was tuned on.
/// A claimed gain must also hold when the benchmark runs with it.
pub const HELD_OUT_SEED: u64 = 9_417_263;

/// Fewest visits in a user-day.
pub const VISITS_MIN: u64 = 5;
/// Most visits in a user-day.
pub const VISITS_MAX: u64 = 30;

/// Per-site interest bounds (the range `UserProfile::generate` draws).
const INTEREST_LO: f64 = 0.15;
const INTEREST_HI: f64 = 0.85;

/// One planned visit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedVisit {
    /// Page index in synthesizer-base (= profile-table) order.
    pub page_idx: usize,
    /// The synthesized feature vector the predictor sees.
    pub features: FeatureVector,
    /// Reading time after the page opens, seconds.
    pub reading_s: f64,
}

/// A stratified pool of user-days from the population seeded by `seed`.
///
/// Users are drawn in id order, each from its own forks of the root
/// stream (0: interests, 1: visits), exactly as a population member
/// would be. A drawn visit is kept only while its page has fewer than
/// `per_page` visits in the pool, and drawing stops once every page has
/// exactly `per_page`. Every pool therefore carries the same page mix —
/// the population's expected, uniform one — so the host work of a pass
/// does not depend on the seed, while reading times, features and the
/// order of visits do. The last user-day may be cut short.
pub fn stratified_pool(
    synth: &VisitSynthesizer,
    sites: usize,
    seed: u64,
    per_page: usize,
) -> Vec<Vec<PlannedVisit>> {
    let mut left = vec![per_page; synth.len()];
    let mut remaining = per_page * synth.len();
    let mut days = Vec::new();
    let mut user = 0u64;
    while remaining > 0 {
        let user_rng = Xoshiro256::seed_from_u64(seed).fork(user);
        let mut interest_rng = user_rng.fork(0);
        let interests: Vec<f64> = (0..sites)
            .map(|_| interest_rng.f64_range(INTEREST_LO, INTEREST_HI))
            .collect();
        let mut visit_rng = user_rng.fork(1);
        let n = visit_rng.u64_range_inclusive(VISITS_MIN, VISITS_MAX) as usize;
        let mut day = Vec::with_capacity(n);
        while day.len() < n && remaining > 0 {
            let (page_idx, features, latents) = synth.sample_indexed(&mut visit_rng);
            // Two versions (mobile, full) per site.
            let reading_s = DwellModel.sample(latents, interests[page_idx / 2], &mut visit_rng);
            if left[page_idx] > 0 {
                left[page_idx] -= 1;
                remaining -= 1;
                day.push(PlannedVisit {
                    page_idx,
                    features,
                    reading_s,
                });
            }
        }
        days.push(day);
        user += 1;
    }
    days
}

#[cfg(test)]
mod tests {
    use super::*;
    use ewb_core::webpage::benchmark_corpus;

    #[test]
    fn pools_are_seeded_and_stratified() {
        let corpus = benchmark_corpus(1);
        let synth = VisitSynthesizer::from_corpus(&corpus);
        let sites = corpus.sites().len();
        let a = stratified_pool(&synth, sites, 5, 3);
        assert_eq!(a, stratified_pool(&synth, sites, 5, 3));
        assert_ne!(a, stratified_pool(&synth, sites, 6, 3));
        let mut per_page = vec![0; synth.len()];
        for (i, day) in a.iter().enumerate() {
            assert!(!day.is_empty());
            assert!(day.len() as u64 <= VISITS_MAX);
            assert!(i + 1 == a.len() || day.len() as u64 >= VISITS_MIN);
            for v in day {
                per_page[v.page_idx] += 1;
                assert!(v.reading_s >= 0.0);
            }
        }
        assert!(per_page.iter().all(|&n| n == 3), "{per_page:?}");
    }
}
