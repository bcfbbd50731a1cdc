//! # iotsan-attribution
//!
//! The Output Analyzer of IotSan-rs (the Rust reproduction of *IotSan:
//! Fortifying the Safety of IoT Systems*, CoNEXT 2018, §9).
//!
//! The Output Analyzer attributes a detected violation to either a
//! misconfiguration or a (potentially) malicious app using a two-phase,
//! heuristic algorithm:
//!
//! 1. **Phase 1** — when a new app is installed, every possible configuration
//!    of that app is verified *independently*.  If the proportion of violating
//!    configurations (the *violation ratio*) exceeds a threshold (the paper
//!    uses 90 %), the app is attributed as potentially **malicious**.
//! 2. **Phase 2** — otherwise the app is verified *in conjunction with* the
//!    previously installed apps, again across all configurations.  A violation
//!    ratio above the threshold attributes the app as a **bad app**; a lower
//!    but non-zero ratio is attributed to **misconfiguration** and safe
//!    configurations are suggested to the user; zero violations is a clean
//!    report.
//!
//! The module is deliberately generic over the configuration type and the
//! verification oracle so it can be unit-tested without the model checker and
//! reused by the pipeline in `iotsan-core`.
//!
//! Besides the configuration-enumeration oracle, the crate also attributes
//! violations **from counterexample traces**: [`trace::attribute_traces`]
//! consumes the checker's [`iotsan_checker::FoundViolation`]s directly and
//! ranks the apps of a verified group per violation (used by the fleet
//! planner in `iotsan-core`).
//!
//! ```
//! use iotsan_attribution::{attribute_app, AttributionThresholds, Verdict};
//!
//! // A toy oracle: configurations are integers, and every configuration of
//! // the "malicious" app violates a property.
//! let standalone: Vec<u32> = (0..10).collect();
//! let joint: Vec<u32> = (0..10).collect();
//! let report = attribute_app(
//!     "Fake Alarm",
//!     &standalone,
//!     |_| true,
//!     &joint,
//!     |_| true,
//!     &AttributionThresholds::default(),
//! );
//! assert!(matches!(report.verdict, Verdict::Malicious { .. }));
//! ```

#![deny(missing_docs)]

pub mod trace;

pub use trace::{attribute_traces, rank_suspects, SuspectScore, TraceAttribution};

use std::fmt;

/// Thresholds for the two attribution phases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttributionThresholds {
    /// Phase-1 violation ratio at or above which an app is flagged malicious
    /// (the paper suggests 90 %).
    pub malicious_ratio: f64,
    /// Phase-2 violation ratio at or above which an app is flagged as a bad
    /// app.
    pub bad_app_ratio: f64,
}

impl Default for AttributionThresholds {
    fn default() -> Self {
        AttributionThresholds { malicious_ratio: 0.9, bad_app_ratio: 0.9 }
    }
}

/// The outcome of attribution for one app.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Flagged in phase 1: the app violates properties in (nearly) every
    /// configuration on its own.
    Malicious {
        /// Phase-1 violation ratio.
        violation_ratio: f64,
    },
    /// Flagged in phase 2: the app violates properties in (nearly) every
    /// configuration when running alongside the already-installed apps.
    BadApp {
        /// Phase-2 violation ratio.
        violation_ratio: f64,
    },
    /// Some configurations violate properties but safe configurations exist;
    /// the violation is attributed to misconfiguration.
    Misconfiguration {
        /// Phase-2 violation ratio.
        violation_ratio: f64,
        /// Indices (into the joint configuration list) of configurations that
        /// did not violate any property — the suggestions offered to the user.
        safe_configurations: Vec<usize>,
    },
    /// No configuration violates any property.
    Clean,
}

impl Verdict {
    /// True when the verdict flags the app itself (malicious or bad).
    pub fn flags_app(&self) -> bool {
        matches!(self, Verdict::Malicious { .. } | Verdict::BadApp { .. })
    }

    /// Short label for tables and logs.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Malicious { .. } => "malicious",
            Verdict::BadApp { .. } => "bad app",
            Verdict::Misconfiguration { .. } => "misconfiguration",
            Verdict::Clean => "clean",
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Malicious { violation_ratio } => {
                write!(f, "malicious (violation ratio {:.0}%)", violation_ratio * 100.0)
            }
            Verdict::BadApp { violation_ratio } => {
                write!(f, "bad app (violation ratio {:.0}%)", violation_ratio * 100.0)
            }
            Verdict::Misconfiguration { violation_ratio, safe_configurations } => write!(
                f,
                "misconfiguration (violation ratio {:.0}%, {} safe configuration(s) available)",
                violation_ratio * 100.0,
                safe_configurations.len()
            ),
            Verdict::Clean => write!(f, "clean"),
        }
    }
}

/// The full attribution report for one app.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionReport {
    /// The analysed app.
    pub app: String,
    /// The verdict.
    pub verdict: Verdict,
    /// Phase-1 (standalone) violation ratio.
    pub standalone_ratio: f64,
    /// Phase-2 (joint) violation ratio, when phase 2 ran.
    pub joint_ratio: Option<f64>,
    /// Number of configurations verified in phase 1.
    pub standalone_configs: usize,
    /// Number of configurations verified in phase 2.
    pub joint_configs: usize,
}

/// Computes the violation ratio of `verify` over `configs`, together with the
/// indices of the configurations that did *not* violate anything.
pub fn violation_ratio<C>(configs: &[C], mut verify: impl FnMut(&C) -> bool) -> (f64, Vec<usize>) {
    if configs.is_empty() {
        return (0.0, Vec::new());
    }
    let mut violations = 0usize;
    let mut safe = Vec::new();
    for (i, config) in configs.iter().enumerate() {
        if verify(config) {
            violations += 1;
        } else {
            safe.push(i);
        }
    }
    (violations as f64 / configs.len() as f64, safe)
}

/// Runs the two-phase attribution algorithm of §9.
///
/// * `standalone_configs` / `verify_standalone` — phase 1: the app alone,
///   every enumerated configuration; the oracle returns `true` when the
///   configuration leads to a violation.
/// * `joint_configs` / `verify_joint` — phase 2: the app together with the
///   user's previously installed apps.
pub fn attribute_app<C, D>(
    app: &str,
    standalone_configs: &[C],
    verify_standalone: impl FnMut(&C) -> bool,
    joint_configs: &[D],
    verify_joint: impl FnMut(&D) -> bool,
    thresholds: &AttributionThresholds,
) -> AttributionReport {
    let (standalone_ratio, _) = violation_ratio(standalone_configs, verify_standalone);
    if !standalone_configs.is_empty() && standalone_ratio >= thresholds.malicious_ratio {
        return AttributionReport {
            app: app.to_string(),
            verdict: Verdict::Malicious { violation_ratio: standalone_ratio },
            standalone_ratio,
            joint_ratio: None,
            standalone_configs: standalone_configs.len(),
            joint_configs: 0,
        };
    }

    let (joint_ratio, safe_configurations) = violation_ratio(joint_configs, verify_joint);
    let verdict = if joint_configs.is_empty() {
        if standalone_ratio > 0.0 {
            Verdict::Misconfiguration {
                violation_ratio: standalone_ratio,
                safe_configurations: Vec::new(),
            }
        } else {
            Verdict::Clean
        }
    } else if joint_ratio >= thresholds.bad_app_ratio {
        Verdict::BadApp { violation_ratio: joint_ratio }
    } else if joint_ratio > 0.0 {
        Verdict::Misconfiguration { violation_ratio: joint_ratio, safe_configurations }
    } else {
        Verdict::Clean
    };

    AttributionReport {
        app: app.to_string(),
        verdict,
        standalone_ratio,
        joint_ratio: Some(joint_ratio),
        standalone_configs: standalone_configs.len(),
        joint_configs: joint_configs.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_counts_and_safe_indices() {
        let configs = vec![1, 2, 3, 4, 5];
        let (ratio, safe) = violation_ratio(&configs, |c| *c % 2 == 0);
        assert!((ratio - 0.4).abs() < 1e-9);
        assert_eq!(safe, vec![0, 2, 4]);
        let (ratio, safe) = violation_ratio::<u32>(&[], |_| true);
        assert_eq!(ratio, 0.0);
        assert!(safe.is_empty());
    }

    #[test]
    fn malicious_app_is_caught_in_phase_one() {
        let report = attribute_app(
            "Fake CO Alarm",
            &(0..20).collect::<Vec<_>>(),
            |_| true,
            &Vec::<u32>::new(),
            |_| false,
            &AttributionThresholds::default(),
        );
        assert!(
            matches!(report.verdict, Verdict::Malicious { violation_ratio } if violation_ratio == 1.0)
        );
        assert!(report.verdict.flags_app());
        assert_eq!(report.joint_ratio, None);
        assert_eq!(report.standalone_configs, 20);
    }

    #[test]
    fn bad_app_is_caught_in_phase_two() {
        // Standalone the app looks fine (20% violations), but combined with
        // the installed apps every configuration violates.
        let report = attribute_app(
            "Unlock Door",
            &(0..10).collect::<Vec<_>>(),
            |c| *c < 2,
            &(0..10).collect::<Vec<_>>(),
            |_| true,
            &AttributionThresholds::default(),
        );
        assert!(
            matches!(report.verdict, Verdict::BadApp { violation_ratio } if violation_ratio == 1.0)
        );
        assert_eq!(report.standalone_ratio, 0.2);
    }

    #[test]
    fn misconfiguration_suggests_safe_configs() {
        let report = attribute_app(
            "Virtual Thermostat",
            &(0..10).collect::<Vec<_>>(),
            |_| false,
            &(0..10).collect::<Vec<_>>(),
            |c| *c >= 7, // 30% of configurations violate
            &AttributionThresholds::default(),
        );
        let Verdict::Misconfiguration { violation_ratio, safe_configurations } = &report.verdict
        else {
            panic!("expected misconfiguration, got {:?}", report.verdict);
        };
        assert!((violation_ratio - 0.3).abs() < 1e-9);
        assert_eq!(safe_configurations.len(), 7);
        assert!(!report.verdict.flags_app());
    }

    #[test]
    fn clean_app_reports_clean() {
        let report = attribute_app(
            "Good Night",
            &(0..5).collect::<Vec<_>>(),
            |_| false,
            &(0..5).collect::<Vec<_>>(),
            |_| false,
            &AttributionThresholds::default(),
        );
        assert_eq!(report.verdict, Verdict::Clean);
        assert_eq!(report.verdict.label(), "clean");
    }

    #[test]
    fn threshold_is_respected() {
        // 85% standalone violations with a 90% threshold is NOT malicious...
        let thresholds = AttributionThresholds::default();
        let standalone: Vec<u32> = (0..20).collect();
        let report = attribute_app(
            "Borderline",
            &standalone,
            |c| *c < 17,
            &standalone.clone(),
            |_| false,
            &thresholds,
        );
        assert!(!matches!(report.verdict, Verdict::Malicious { .. }));
        // ...but with a 80% threshold it is.
        let relaxed = AttributionThresholds { malicious_ratio: 0.8, bad_app_ratio: 0.9 };
        let report = attribute_app(
            "Borderline",
            &standalone,
            |c| *c < 17,
            &standalone.clone(),
            |_| false,
            &relaxed,
        );
        assert!(matches!(report.verdict, Verdict::Malicious { .. }));
    }

    #[test]
    fn display_formats() {
        let v = Verdict::Malicious { violation_ratio: 1.0 };
        assert_eq!(v.to_string(), "malicious (violation ratio 100%)");
        let v = Verdict::Misconfiguration { violation_ratio: 0.5, safe_configurations: vec![1, 2] };
        assert!(v.to_string().contains("2 safe configuration"));
    }
}
