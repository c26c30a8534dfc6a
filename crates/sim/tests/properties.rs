//! Property tests for the fault-injection + repair round trip.
//!
//! The contract under test (ISSUE: robustness tentpole): for any seed,
//! fault rate, and repair policy, a faulted dataset repaired by
//! `hpcpower_trace::repair` satisfies every dataset invariant again; the
//! repair is idempotent; and the faulted pipeline stays byte-identical
//! across thread counts.

use hpcpower_sim::{simulate, FaultConfig, SimConfig};
use hpcpower_trace::repair::{repair, RepairConfig, RepairPolicy};
use hpcpower_trace::validate::{validate, violations};
use proptest::prelude::*;

/// A deliberately tiny cluster so each property case runs in well under
/// a second: 16 nodes, 2 days, 6 users.
fn tiny(seed: u64, rate: f64, threads: usize) -> SimConfig {
    let mut cfg = SimConfig::emmy(seed).scaled_down(16, 2 * 1440, 6);
    cfg.faults = FaultConfig::at_rate(rate);
    cfg.threads = threads;
    cfg
}

const POLICIES: [RepairPolicy; 3] = [
    RepairPolicy::DropJob,
    RepairPolicy::HoldLast,
    RepairPolicy::Linear,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Fault → repair → validate round trip, for every policy.
    #[test]
    fn fault_then_repair_satisfies_every_invariant(
        seed in 0u64..10_000,
        rate in 0.01f64..0.20,
        policy_idx in 0usize..3,
    ) {
        let policy = POLICIES[policy_idx];
        let mut repaired = simulate(tiny(seed, rate, 1));
        let quality = repair(&mut repaired, &RepairConfig::with_policy(policy));
        prop_assert_eq!(quality.violations_after, 0, "policy {}", policy);
        prop_assert!(
            validate(&repaired).is_ok(),
            "policy {} left violations: {:?}",
            policy,
            violations(&repaired)
        );
    }

    /// Repairing a repaired dataset is the identity.
    #[test]
    fn repair_is_idempotent_on_faulted_datasets(
        seed in 0u64..10_000,
        rate in 0.01f64..0.20,
        policy_idx in 0usize..3,
    ) {
        let policy = POLICIES[policy_idx];
        let mut repaired = simulate(tiny(seed, rate, 1));
        repair(&mut repaired, &RepairConfig::with_policy(policy));
        let once = format!("{:?}", repaired.jobs)
            + &format!("{:?}", repaired.summaries)
            + &format!("{:?}", repaired.system_series)
            + &format!("{:?}", repaired.instrumented);
        let second = repair(&mut repaired, &RepairConfig::with_policy(policy));
        let twice = format!("{:?}", repaired.jobs)
            + &format!("{:?}", repaired.summaries)
            + &format!("{:?}", repaired.system_series)
            + &format!("{:?}", repaired.instrumented);
        prop_assert_eq!(once, twice, "policy {} is not idempotent", policy);
        prop_assert_eq!(second.violations_before, 0);
        prop_assert_eq!(second.jobs_dropped, 0);
    }

    /// Same seed ⇒ byte-identical faulted datasets at 1 and 4 threads.
    ///
    /// JSON is the comparison medium because NaN (injected dropout)
    /// breaks `PartialEq`; the shim serializes non-finite floats as
    /// `null`, deterministically.
    #[test]
    fn faulted_pipeline_is_deterministic_across_threads(
        seed in 0u64..10_000,
        rate in 0.01f64..0.20,
    ) {
        let a = serde_json::to_string(&simulate(tiny(seed, rate, 1))).unwrap();
        let b = serde_json::to_string(&simulate(tiny(seed, rate, 4))).unwrap();
        prop_assert_eq!(a, b, "fault injection must not depend on thread count");
    }

    /// Repair on a clean dataset reports a clean bill and changes nothing.
    #[test]
    fn repair_is_identity_on_clean_datasets(seed in 0u64..10_000) {
        let clean = simulate(tiny(seed, 0.0, 1));
        let mut repaired = clean.clone();
        let quality = repair(&mut repaired, &RepairConfig::default());
        prop_assert!(quality.is_clean(), "clean data flagged dirty: {quality:?}");
        prop_assert_eq!(
            serde_json::to_string(&clean).unwrap(),
            serde_json::to_string(&repaired).unwrap(),
            "repair mutated a clean dataset"
        );
    }
}
