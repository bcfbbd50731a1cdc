//! Soundness witnesses for the static analysis layer (`iotsan-analysis`).
//!
//! Two guarantees, each checked against the real market corpus rather than
//! hand-built fixtures:
//!
//! 1. **Dynamic containment** — running the interpreter with the effect log
//!    enabled on seeded random event sequences never observes a write outside
//!    the handler's static summary.
//! 2. **Depgraph containment** — the legacy subscription-derived event
//!    profile of every market handler is a subgraph-inducing subset of the
//!    effect-derived profile that now feeds the dependency analyzer.

use iotsan::analysis::{summarize_handler, EffectSummary, WriteEffect};
use iotsan::checker::StepLog;
use iotsan::config::{expert_configure, standard_household};
use iotsan::depgraph::{effect_profile, event_profile};
use iotsan::ir::{IrApp, IrHandler, Trigger, Value};
use iotsan::properties::StepObservation;
use iotsan::system::InstalledSystem;
use iotsan::{run_handler, translate_sources, DispatchedEvent, Frame, LogEvent};
use iotsan_apps::market;
use proptest::prelude::*;
use std::borrow::Cow;

fn named_market_apps() -> Vec<IrApp> {
    let apps = market::named_apps();
    let sources: Vec<&str> = apps.iter().map(|a| a.source.as_str()).collect();
    translate_sources(&sources).expect("named market apps translate")
}

/// A deterministic event for `handler` driven by the choice stream.
fn event_for(
    system: &InstalledSystem,
    app_index: usize,
    handler: &IrHandler,
    choice: usize,
) -> Option<DispatchedEvent> {
    const VALUES: [&str; 12] = [
        "open",
        "closed",
        "on",
        "off",
        "active",
        "inactive",
        "present",
        "not present",
        "locked",
        "unlocked",
        "75",
        "detected",
    ];
    let pick = |fallback: &Option<String>| {
        fallback.clone().unwrap_or_else(|| VALUES[choice % VALUES.len()].to_string())
    };
    match &handler.trigger {
        Trigger::Device { input, attribute, value } => {
            // Dead subscriptions may reference attributes that never reached
            // the interner; they cannot be dispatched in the real model.
            let attribute = system.symbols.lookup(attribute)?;
            let device = system.bound_slice(app_index, input).first().copied();
            Some(DispatchedEvent { device, attribute, value: Cow::Owned(Value::Str(pick(value))) })
        }
        Trigger::LocationMode { value } => Some(DispatchedEvent {
            device: None,
            attribute: system.mode_sym(),
            value: Cow::Owned(Value::Str(value.clone().unwrap_or_else(|| "Away".into()))),
        }),
        Trigger::LocationEvent { name } => Some(DispatchedEvent {
            device: None,
            attribute: system.symbols.lookup(name)?,
            value: Cow::Owned(Value::Str(name.clone())),
        }),
        Trigger::AppTouch => Some(DispatchedEvent {
            device: None,
            attribute: system.touch_sym(),
            value: Cow::Owned(Value::Str("touched".into())),
        }),
        Trigger::Timer { .. } => Some(DispatchedEvent {
            device: None,
            attribute: system.time_sym(),
            value: Cow::Owned(Value::Str("time".into())),
        }),
    }
}

/// Asserts one observed effect-log event is covered by the static summary.
fn assert_log_event_covered(
    system: &InstalledSystem,
    app_index: usize,
    summary: &EffectSummary,
    event: &LogEvent,
) -> Result<(), TestCaseError> {
    match event {
        LogEvent::Command { device, command, .. } => {
            let covered = summary.writes.iter().any(|w| match w {
                WriteEffect::Command { input, command: c } => {
                    c == command && system.bound_slice(app_index, input).contains(device)
                }
                _ => false,
            });
            prop_assert!(covered, "{summary}: command {command:?} to {device:?} not in summary");
        }
        LogEvent::AttrChange { attribute, .. } => {
            let name = system.attr_name(*attribute);
            prop_assert!(
                summary.written_channels().contains(name),
                "{summary}: attribute write {name:?} not in summary"
            );
        }
        LogEvent::ModeChange { .. } => {
            prop_assert!(
                summary.writes.iter().any(|w| matches!(w, WriteEffect::Mode { .. })),
                "{summary}: mode change not in summary"
            );
        }
        LogEvent::SendEvent { attribute, .. } => {
            let name = system.attr_name(*attribute);
            let covered = summary.writes.iter().any(
                |w| matches!(w, WriteEffect::FakeEvent { attribute, .. } if attribute == name),
            );
            prop_assert!(covered, "{summary}: fake event {name:?} not in summary");
        }
        LogEvent::SendSms { .. } => {
            prop_assert!(summary.writes.contains(&WriteEffect::Sms), "{summary}: sms missing");
        }
        LogEvent::SendPush => {
            prop_assert!(summary.writes.contains(&WriteEffect::Push), "{summary}: push missing");
        }
        LogEvent::HttpPost { .. } => {
            prop_assert!(
                summary.writes.contains(&WriteEffect::Network),
                "{summary}: network missing"
            );
        }
        LogEvent::Unsubscribe => {
            prop_assert!(
                summary.writes.contains(&WriteEffect::Unsubscribe),
                "{summary}: unsubscribe missing"
            );
        }
        LogEvent::Schedule { handler } => {
            let covered = summary
                .writes
                .iter()
                .any(|w| matches!(w, WriteEffect::Schedule { handler: h } if h == handler));
            prop_assert!(covered, "{summary}: schedule({handler}) not in summary");
        }
        // Banners, log lines and model-level events carry no handler write.
        _ => {}
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Soundness witness: every write the interpreter performs on a random
    /// event walk is contained in the handler's static effect summary.
    /// (Reads have no dynamic witness in the effect log, so only writes are
    /// checked.)
    #[test]
    fn dynamic_writes_are_contained_in_static_summaries(
        choices in proptest::collection::vec(0usize..1 << 16, 1..32),
    ) {
        let apps = named_market_apps();
        let config = expert_configure(&apps, &standard_household());
        let system = InstalledSystem::new(apps, config);
        let handlers: Vec<(usize, usize, IrHandler)> = system
            .apps
            .iter()
            .enumerate()
            .flat_map(|(i, a)| a.handlers.iter().enumerate().map(move |(j, h)| (i, j, h.clone())))
            .collect();
        prop_assert!(!handlers.is_empty());

        // Slot index -> (owning app name, state-var name), for the app-state
        // side of the write check (state writes produce no log event).
        let mut slot_owner = vec![None; system.state_slot_count()];
        for app in &system.apps {
            for var in &app.state_vars {
                if let Some(slot) = system.state_slot(&app.name, var) {
                    slot_owner[slot as usize] = Some((app.name.clone(), var.clone()));
                }
            }
        }

        let mut state = system.initial_state();
        for &choice in &choices {
            let (app_index, handler_index, handler) = &handlers[choice % handlers.len()];
            let Some(event) = event_for(&system, *app_index, handler, choice) else {
                continue;
            };
            let summary = summarize_handler(&system.apps[*app_index], handler);
            let before = state.app_state.clone();
            let mut observation = StepObservation::default();
            let mut events_out = Vec::new();
            let mut log = StepLog::enabled();
            run_handler(
                &system,
                *app_index,
                *handler_index,
                &event,
                &mut state,
                &mut observation,
                choice % 7 == 0,
                &mut events_out,
                &mut log,
                &mut Frame::default(),
            );
            for log_event in log.events() {
                assert_log_event_covered(&system, *app_index, &summary, log_event)?;
            }
            for (slot, (old, new)) in before.iter().zip(state.app_state.iter()).enumerate() {
                if old != new {
                    let (owner, var) =
                        slot_owner[slot].clone().expect("changed slot has an owner");
                    prop_assert!(
                        owner == system.apps[*app_index].name,
                        "state slot written by a foreign app"
                    );
                    prop_assert!(
                        summary.writes.contains(&WriteEffect::StateVar { name: var.clone() }),
                        "{}: state write {:?} not in summary", summary, var
                    );
                }
            }
        }
    }
}

/// Consistency: the legacy subscription-derived profile of every handler in
/// the full 150-app market corpus is contained in the effect-derived profile.
/// Edges are monotone in profiles, so containment here means the old
/// dependency graph is a subgraph of the new one — related sets can merge
/// (handlers that write attributes they never subscribe to now connect) but
/// never split.
#[test]
fn subscription_profiles_are_contained_in_effect_profiles() {
    let market = market::market_apps();
    let sources: Vec<&str> = market.iter().map(|a| a.source.as_str()).collect();
    let apps = translate_sources(&sources).expect("market corpus translates");
    let mut handlers = 0;
    for app in &apps {
        for handler in &app.handlers {
            let legacy = event_profile(app, handler);
            let effect = effect_profile(app, handler);
            for desc in &legacy.inputs {
                assert!(
                    effect.inputs.contains(desc),
                    "{}::{}: legacy input {desc} missing from effect profile",
                    app.name,
                    handler.name
                );
            }
            for desc in &legacy.outputs {
                assert!(
                    effect.outputs.contains(desc),
                    "{}::{}: legacy output {desc} missing from effect profile",
                    app.name,
                    handler.name
                );
            }
            handlers += 1;
        }
    }
    assert!(handlers > 100, "expected a real corpus, saw {handlers} handlers");
}

/// The effect-derived profiles add flows the subscription walk missed: at
/// least one market handler gains a mode-read input or a state channel.
#[test]
fn effect_profiles_add_flows_somewhere_in_the_corpus() {
    let apps = named_market_apps();
    let mut extras = 0;
    for app in &apps {
        for handler in &app.handlers {
            let legacy = event_profile(app, handler);
            let effect = effect_profile(app, handler);
            extras += effect.inputs.difference(&legacy.inputs).count();
            extras += effect.outputs.difference(&legacy.outputs).count();
        }
    }
    assert!(extras > 0, "effect profiles should extend the legacy extraction somewhere");
}
