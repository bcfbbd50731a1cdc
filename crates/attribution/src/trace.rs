//! Trace-driven attribution: ranking suspect apps from counterexample traces.
//!
//! The two-phase algorithm of §9 ([`crate::attribute_app`]) treats the verifier as an opaque boolean oracle
//! over enumerated *configurations*.  Fleet verification (the
//! `VerificationPlanner` in `iotsan-core`) has richer evidence available:
//! the model checker's counterexample **traces**.  Every log line of a trace
//! step carries structured provenance —
//! [`LogLine::owner`](iotsan_checker::LogLine::owner) names the app
//! whose handler produced it, stamped by the model generator when the
//! counterexample is materialized from its structured log events — so the
//! Output Analyzer ranks the apps of a verified group by how strongly each
//! one is implicated in driving the system into the unsafe state, without
//! re-verifying a single configuration and without re-parsing formatted
//! `App.handler:` prefixes out of log text (which earlier revisions did).
//!
//! Scoring is deliberately simple and deterministic: every log line owned by
//! an app counts as one *mention*, weighted by how late in the counterexample
//! it occurs (`(line + 1) / total log lines`, so the handler whose activity
//! is closest to the unsafe state weighs most — a single external event can
//! dispatch a whole chain of handlers, so position is tracked per log line,
//! not per step), and acting in the final step is reported
//! separately as the strongest single signal.  Apps of the group that never
//! act on the counterexample path are still listed with a zero score, which
//! lets callers distinguish "exonerated by the trace" from "absent from the
//! group".

use iotsan_checker::{FoundViolation, Trace};
use std::collections::HashMap;
use std::sync::Arc;

/// How strongly one app of a verified group is implicated by a
/// counterexample trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SuspectScore {
    /// The app's display name, shared by every suspect list of its group.
    pub app: Arc<str>,
    /// Number of trace log lines produced by this app's handlers.
    pub mentions: usize,
    /// True when the app acted in the final step of the counterexample — the
    /// step that drove the system into the unsafe state.
    pub in_final_step: bool,
    /// Position-weighted evidence: the sum of `(line + 1) / total log lines`
    /// over the app's log lines.  Activity closer to the unsafe state weighs
    /// more; `0.0` means the app never acted on the counterexample path.
    pub score: f64,
}

/// The ranked suspects for one violated property.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceAttribution {
    /// The violated property's identifier.
    pub property: u32,
    /// The violated property's description (the failed assertion text).
    pub description: String,
    /// The group's apps ranked by [`SuspectScore::score`] (descending, ties
    /// broken by app name so the ranking is deterministic).
    pub suspects: Vec<SuspectScore>,
}

impl TraceAttribution {
    /// The prime suspect: the highest-ranked app that actually acted on the
    /// counterexample path, if any did.
    pub fn prime_suspect(&self) -> Option<&SuspectScore> {
        self.suspects.first().filter(|s| s.mentions > 0)
    }
}

/// Ranks the apps of a verified group by the evidence a single
/// counterexample trace holds against them.
///
/// Every app of `group_apps` appears exactly once in the result, sorted by
/// descending [`SuspectScore::score`] with ties broken by name.  One pass
/// over the trace credits each line to the apps named by its structured
/// owner ([`iotsan_checker::LogLine::owner`]), through an index from name
/// to positions in `group_apps`, so a name listed twice credits both copies.
pub fn rank_suspects(group_apps: &[String], trace: &Trace) -> Vec<SuspectScore> {
    rank_indexed(&shared_names(group_apps), &name_index(group_apps), trace)
}

/// The group's names, allocated once and shared by its suspect lists.
fn shared_names(group_apps: &[String]) -> Vec<Arc<str>> {
    group_apps.iter().map(|app| Arc::from(app.as_str())).collect()
}

/// Each name of `group_apps` with its positions there.
fn name_index(group_apps: &[String]) -> HashMap<&str, Vec<usize>> {
    let mut positions: HashMap<&str, Vec<usize>> = HashMap::with_capacity(group_apps.len());
    for (position, app) in group_apps.iter().enumerate() {
        positions.entry(app.as_str()).or_default().push(position);
    }
    positions
}

/// [`rank_suspects`] over the group's [`shared_names`] and [`name_index`]:
/// each suspect clones a shared name, never a string.
fn rank_indexed(
    names: &[Arc<str>],
    positions: &HashMap<&str, Vec<usize>>,
    trace: &Trace,
) -> Vec<SuspectScore> {
    let steps = trace.steps.len();
    let total_lines: usize = trace.steps.iter().map(|s| s.log.len()).sum();
    let mut scores: Vec<SuspectScore> = names
        .iter()
        .map(|app| SuspectScore {
            app: Arc::clone(app),
            mentions: 0,
            in_final_step: false,
            score: 0.0,
        })
        .collect();
    let lines = trace.steps.iter().enumerate().flat_map(|(i, step)| {
        step.log.iter().map(move |line| (i + 1 == steps, line.owner.as_deref()))
    });
    for (line_index, (final_step, owner)) in (1usize..).zip(lines) {
        let Some(owned) = owner.and_then(|owner| positions.get(owner)) else { continue };
        for &position in owned {
            let suspect = &mut scores[position];
            suspect.mentions += 1;
            suspect.score += line_index as f64 / total_lines as f64;
            suspect.in_final_step |= final_step;
        }
    }
    scores.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.app.cmp(&b.app)));
    scores
}

/// Attributes every violation of a verified group from its counterexample
/// trace: the trace-driven counterpart of [`crate::attribute_app`], consuming
/// [`FoundViolation`]s from the checker instead of opaque configuration
/// lists.  Returns one [`TraceAttribution`] per violation, in input order;
/// the group's names and name index are built once for all of them.
pub fn attribute_traces(
    group_apps: &[String],
    violations: &[FoundViolation],
) -> Vec<TraceAttribution> {
    let names = shared_names(group_apps);
    let positions = name_index(group_apps);
    violations
        .iter()
        .map(|found| TraceAttribution {
            property: found.violation.property,
            description: found.violation.description.to_string(),
            suspects: rank_indexed(&names, &positions, &found.trace),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotsan_checker::{LogLine, Violation};

    /// The scan [`rank_suspects`] replaced: the whole trace once per group
    /// app, crediting the lines that app owns.  The reference its one-pass
    /// index must reproduce exactly.
    fn rank_suspects_per_app(group_apps: &[String], trace: &Trace) -> Vec<SuspectScore> {
        let steps = trace.steps.len();
        let total_lines: usize = trace.steps.iter().map(|s| s.log.len()).sum();
        let mut scores: Vec<SuspectScore> = group_apps
            .iter()
            .map(|app| {
                let mut mentions = 0usize;
                let mut score = 0.0f64;
                let mut in_final_step = false;
                let mut line_index = 0usize;
                for (i, step) in trace.steps.iter().enumerate() {
                    for line in &step.log {
                        line_index += 1;
                        if line.owner.as_deref() == Some(app.as_str()) {
                            mentions += 1;
                            score += line_index as f64 / total_lines as f64;
                            if i + 1 == steps {
                                in_final_step = true;
                            }
                        }
                    }
                }
                SuspectScore { app: app.as_str().into(), mentions, in_final_step, score }
            })
            .collect();
        scores.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.app.cmp(&b.app)));
        scores
    }

    #[test]
    fn one_pass_ranking_equals_the_per_app_scan() {
        // Owners outside the group, unowned lines, an app listed twice, an
        // app that never acts, and an empty trace.
        let mut trace = unlock_trace();
        trace.push(
            "e".into(),
            vec![
                LogLine::owned("Stranger", "Stranger.h: handling x=1"),
                LogLine::owned("Auto Mode Change", "Auto Mode Change.h: handling x=1"),
                LogLine::new("plain"),
                LogLine::owned("Unlock Door", "Unlock Door.h: handling x=2"),
            ],
        );
        let mut apps = group();
        apps.push("Unlock Door".into());
        for trace in [trace, unlock_trace(), Trace::new()] {
            for apps in [&apps[..], &group()[..], &[][..]] {
                assert_eq!(rank_suspects(apps, &trace), rank_suspects_per_app(apps, &trace));
            }
        }
    }

    fn group() -> Vec<String> {
        vec!["Auto Mode Change".into(), "Unlock Door".into(), "Brighten My Path".into()]
    }

    fn unlock_trace() -> Trace {
        let mut t = Trace::new();
        t.push(
            "alicePresence/presence=not present [ok]".into(),
            vec![
                LogLine::owned(
                    "Auto Mode Change",
                    "Auto Mode Change.presenceHandler: handling presence=not present",
                ),
                LogLine::new("location.mode = Away"),
            ],
        );
        t.push(
            "location/mode=Away".into(),
            vec![
                LogLine::owned(
                    "Unlock Door",
                    "Unlock Door.changedLocationMode: handling mode=Away",
                ),
                LogLine::new("mainDoorLock.unlock()"),
                LogLine::new("mainDoorLock.lock = unlocked"),
            ],
        );
        t
    }

    #[test]
    fn final_step_app_ranks_first() {
        let suspects = rank_suspects(&group(), &unlock_trace());
        assert_eq!(suspects.len(), 3);
        assert_eq!(&*suspects[0].app, "Unlock Door");
        assert!(suspects[0].in_final_step);
        assert_eq!(suspects[0].mentions, 1);
        assert_eq!(&*suspects[1].app, "Auto Mode Change");
        assert!(!suspects[1].in_final_step);
        // The app that never acted is listed last with a zero score.
        assert_eq!(&*suspects[2].app, "Brighten My Path");
        assert_eq!(suspects[2].mentions, 0);
        assert_eq!(suspects[2].score, 0.0);
    }

    #[test]
    fn ownership_is_structural_not_textual() {
        // A line whose *text* looks like app activity but carries no owner is
        // never attributed; conversely, the owner field alone decides even if
        // the text never mentions the app.
        let mut t = Trace::new();
        t.push(
            "e".into(),
            vec![
                LogLine::new("Unlock Door.handler: handling x=1"),
                LogLine::owned("Unlock Door", "doorLock.unlock()"),
            ],
        );
        let suspects = rank_suspects(&["Unlock Door".into()], &t);
        assert_eq!(suspects[0].mentions, 1);
        // An app name that merely prefixes another owner never matches.
        let suspects = rank_suspects(&["Unlock".into()], &t);
        assert_eq!(suspects[0].mentions, 0);
    }

    #[test]
    fn attribute_traces_maps_violations_in_order() {
        let violations = vec![
            FoundViolation {
                violation: Violation { property: 6, description: "main door unlocked".into() },
                trace: Arc::new(unlock_trace()),
                depth: 2,
                path: vec![0, 0],
            },
            FoundViolation {
                violation: Violation { property: 9, description: "other".into() },
                trace: Arc::new(Trace::new()),
                depth: 0,
                path: Vec::new(),
            },
        ];
        let attributions = attribute_traces(&group(), &violations);
        assert_eq!(attributions.len(), 2);
        assert_eq!(attributions[0].property, 6);
        assert_eq!(&*attributions[0].prime_suspect().unwrap().app, "Unlock Door");
        // An empty trace implicates no one.
        assert_eq!(attributions[1].prime_suspect(), None);
        assert!(attributions[1].suspects.iter().all(|s| s.score == 0.0));
    }

    #[test]
    fn ranking_is_deterministic_under_ties() {
        // Neither app acts: equal zero scores, alphabetical order breaks the
        // tie so repeated runs render identically.
        let suspects = rank_suspects(&["B App".into(), "A App".into()], &unlock_trace());
        assert_eq!(&*suspects[0].app, "A App");
        assert_eq!(&*suspects[1].app, "B App");

        // Within one step, the later log line weighs more: the handler whose
        // activity is closest to the unsafe state ranks first.
        let mut t = Trace::new();
        t.push(
            "e".into(),
            vec![
                LogLine::owned("B App", "B App.h: handling x=1"),
                LogLine::owned("A App", "A App.h: handling x=1"),
            ],
        );
        let suspects = rank_suspects(&["A App".into(), "B App".into()], &t);
        assert_eq!(&*suspects[0].app, "A App");
        assert!(suspects[0].score > suspects[1].score);
        assert!(suspects[0].in_final_step && suspects[1].in_final_step);
    }
}
