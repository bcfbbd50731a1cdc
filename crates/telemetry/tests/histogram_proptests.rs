//! Property tests for histogram bucket boundaries: every observation lands
//! in exactly one bucket, bucket choice respects the inclusive (`le`)
//! bound semantics, and the cumulative renders agree with the raw counts.

#![cfg(feature = "on")]

use iotsan_telemetry::metrics::{Metrics, Value, GROUP_SIZE_BOUNDS};
use proptest::prelude::*;

/// Reference bucketing: index of the first bound `v <= bound`, or the
/// overflow slot.
fn expected_slot(v: u64) -> usize {
    GROUP_SIZE_BOUNDS.iter().position(|&b| v <= b).unwrap_or(GROUP_SIZE_BOUNDS.len())
}

proptest! {
    #[test]
    fn every_observation_lands_in_exactly_one_bucket(values in collection::vec(0u64..200, 1..40)) {
        let m = Metrics::new();
        let mut expected = vec![0u64; GROUP_SIZE_BOUNDS.len() + 1];
        let mut sum = 0u64;
        for &v in &values {
            m.planner_group_size.observe(v);
            expected[expected_slot(v)] += 1;
            sum += v;
        }
        prop_assert_eq!(m.planner_group_size.bucket_counts(), expected);
        prop_assert_eq!(m.planner_group_size.count(), values.len() as u64);
        prop_assert_eq!(m.planner_group_size.sum(), sum);
    }

    #[test]
    fn boundary_values_are_inclusive(bound_index in 0usize..7) {
        let m = Metrics::new();
        let bound = GROUP_SIZE_BOUNDS[bound_index];
        m.planner_group_size.observe(bound); // exactly on the bound: this bucket
        m.planner_group_size.observe(bound + 1); // one past: the next bucket
        let counts = m.planner_group_size.bucket_counts();
        prop_assert_eq!(counts[bound_index], 1);
        let next = expected_slot(bound + 1);
        prop_assert!(next > bound_index);
        prop_assert_eq!(counts[next], 1);
    }

    #[test]
    fn snapshot_buckets_are_cumulative_and_end_at_count(values in collection::vec(0u64..500, 0..30)) {
        let m = Metrics::new();
        for &v in &values {
            m.planner_group_size.observe(v);
        }
        let snap = m.capture();
        match snap.value("iotsan_planner_group_size") {
            Some(Value::Histogram { bounds, counts, .. }) => {
                prop_assert_eq!(*bounds, GROUP_SIZE_BOUNDS);
                // Non-cumulative counts sum to the observation count; the
                // rendered cumulative overflow bucket therefore equals it too.
                let total: u64 = counts.iter().sum();
                prop_assert_eq!(total, values.len() as u64);
            }
            other => prop_assert!(false, "unexpected value {:?}", other),
        }
        let n = values.len();
        let json = snap.render_json();
        prop_assert!(json.contains(&format!("[null,{n}]]}}")), "{}", json);
        prop_assert!(json.contains(&format!("\"count\":{n},")), "{}", json);
    }
}
