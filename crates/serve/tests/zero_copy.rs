//! Differential fuzz: owned vs zero-copy serving over the same bytes.
//!
//! A randomly generated dictionary is written to canonical EFDB bytes,
//! then served two ways — decoded into an owned [`Snapshot`] and mapped
//! in place by [`EfdbSnapshot`] — and both must answer every random
//! query exactly like the single-threaded [`EfdDictionary`] oracle
//! (modulo [`Recognition::normalized`] ordering, the engine API's answer
//! contract). Any divergence is a bug in one of the two [`KeyStore`]
//! implementations or in the binary format's ordering guarantees that
//! the zero-copy binary search relies on.

use efd_core::{binfmt, EfdDictionary, LabeledObservation, Query, Recognition, RoundingDepth};
use efd_serve::{EfdbSnapshot, Recognize, Snapshot, VoteScratch};
use efd_telemetry::catalog::small_catalog;
use efd_telemetry::{AppLabel, Interval, MetricId};
use efd_util::SplitMix64;

const NODES: usize = 4;
fn intervals() -> [Interval; 2] {
    [Interval::PAPER_DEFAULT, Interval::new(60, 120)]
}

/// A random corpus spread over every metric in the small catalog, two
/// intervals, and app levels close enough that collisions happen.
fn corpus(apps: usize, reps: usize, metrics: usize, seed: u64) -> Vec<LabeledObservation> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::new();
    for a in 0..apps {
        let base = 3000.0 + 400.0 * a as f64;
        for r in 0..reps {
            let metric = MetricId((rng.next_u64() % metrics as u64) as u32);
            let interval = intervals()[(rng.next_u64() % 2) as usize];
            let input = ["X", "Y", "Z"][r % 3];
            let means: Vec<f64> = (0..NODES)
                .map(|_| base + (rng.next_f64() - 0.5) * 300.0)
                .collect();
            out.push(LabeledObservation {
                label: AppLabel::new(format!("app{a:02}"), input),
                query: Query::from_node_means(metric, interval, &means),
            });
        }
    }
    out
}

/// Random queries: near-corpus levels, unknown levels, unknown metrics,
/// and unknown intervals, all mixed.
fn random_queries(apps: usize, metrics: usize, count: usize, seed: u64) -> Vec<Query> {
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|_| {
            // +2 on each axis: levels/metrics the corpus never learned.
            let a = (rng.next_u64() % (apps as u64 + 2)) as f64;
            let metric = MetricId((rng.next_u64() % (metrics as u64 + 2)) as u32);
            let interval = if rng.next_u64().is_multiple_of(8) {
                Interval::new(0, 30)
            } else {
                intervals()[(rng.next_u64() % 2) as usize]
            };
            let base = 3000.0 + 400.0 * a;
            let means: Vec<f64> = (0..NODES)
                .map(|_| base + (rng.next_f64() - 0.5) * 400.0)
                .collect();
            Query::from_node_means(metric, interval, &means)
        })
        .collect()
}

#[test]
fn owned_and_zero_copy_agree_with_the_oracle_on_random_queries() {
    let catalog = small_catalog();
    let metrics = catalog.len();
    for seed in [0x5EED_0001u64, 0x5EED_0002, 0x5EED_0003] {
        let observations = corpus(24, 5, metrics, seed);
        let mut oracle = EfdDictionary::new(RoundingDepth::new(2));
        oracle.learn_all(&observations);

        let bytes = binfmt::write(&oracle.to_parts(), &catalog);
        let owned = Snapshot::from_efdb(&binfmt::read(&bytes).unwrap(), &catalog, 8).unwrap();
        let zero_copy = EfdbSnapshot::load(bytes, &catalog).unwrap();
        assert_eq!(zero_copy.len(), oracle.len(), "seed {seed:#x}: key count");

        let mut scratch = VoteScratch::default();
        let mut matched = 0usize;
        for (i, q) in random_queries(24, metrics, 1000, !seed).iter().enumerate() {
            let expected: Recognition = oracle.recognize(q).normalized();
            let via_owned = owned.recognize_into(q, &mut scratch);
            let via_bytes = zero_copy.recognize_into(q, &mut scratch);
            assert_eq!(via_owned, expected, "seed {seed:#x}, query #{i}: owned");
            assert_eq!(via_bytes, expected, "seed {seed:#x}, query #{i}: zero-copy");
            matched += usize::from(expected.matched_points > 0);
        }
        assert!(matched > 100, "seed {seed:#x}: degenerate query mix ({matched} hits)");
    }
}
