//! Soundness witnesses for the static analysis layer (`iotsan-analysis`).
//!
//! Running the interpreter with the effect log enabled over the 150-app
//! market corpus, rather than hand-built fixtures, with seeded random event
//! values and handler orders, checks two guarantees:
//!
//! 1. **Dynamic containment** — no write falls outside the handler's static
//!    summary.
//! 2. **Depgraph edges** — every event a handler emits overlaps an output of
//!    its `effect_profile`, and every device or mode event dispatched to it
//!    overlaps an input, so the dependency graph has an edge for each flow
//!    the interpreter takes.

use iotsan::analysis::{summarize_handler, EffectSummary, WriteEffect};
use iotsan::checker::StepLog;
use iotsan::config::{expert_configure, standard_household};
use iotsan::depgraph::{effect_profile, EventDesc};
use iotsan::ir::{IrApp, IrHandler, Trigger, Value};
use iotsan::properties::StepObservation;
use iotsan::system::InstalledSystem;
use iotsan::{run_handler, translate_sources, DispatchedEvent, Frame, LogEvent};
use iotsan_apps::market;
use proptest::prelude::*;
use std::borrow::Cow;

fn translate(apps: &[market::MarketApp]) -> Vec<IrApp> {
    let sources: Vec<&str> = apps.iter().map(|a| a.source.as_str()).collect();
    translate_sources(&sources).expect("market apps translate")
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

    /// Soundness witness: every write the interpreter performs on a sweep
    /// of every handler is contained in the handler's static effect
    /// summary, and every event it emits or is dispatched lies on an edge of
    /// the dependency graph.  (Reads have no dynamic witness in the effect
    /// log, so only writes and the triggering event are checked.)
    #[test]
    fn dynamic_writes_are_contained_in_static_summaries(
        choices in proptest::collection::vec(0usize..1 << 16, 1..32),
    ) {
        let apps = translate(&market::market_apps());
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

        // Every handler runs once per case, from a start the choice stream
        // picks and with event values and failures drawn from it; the state
        // carries over, so each case reaches each handler in another state.
        let mut state = system.initial_state();
        for k in 0..handlers.len() {
            let choice = choices[k % choices.len()];
            let (app_index, handler_index, handler) =
                &handlers[(choices[0] + k) % handlers.len()];
            let Some(event) = event_for(&system, *app_index, handler, choice) else {
                continue;
            };
            let summary = summarize_handler(&system.apps[*app_index], handler);
            let profile = effect_profile(&system.apps[*app_index], handler);
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
            for emitted in &events_out {
                let desc = EventDesc::new(system.attr_name(emitted.attribute), emitted.value.as_string());
                prop_assert!(
                    profile.outputs.iter().any(|out| out.overlaps(&desc)),
                    "{}::{}: emitted {} overlaps no profile output {:?}",
                    handler.app, handler.name, desc, profile.outputs
                );
            }
            if matches!(handler.trigger, Trigger::Device { .. } | Trigger::LocationMode { .. }) {
                let desc = EventDesc::new(system.attr_name(event.attribute), event.value.as_string());
                prop_assert!(
                    profile.inputs.iter().any(|input| input.overlaps(&desc)),
                    "{}::{}: dispatched {} overlaps no profile input {:?}",
                    handler.app, handler.name, desc, profile.inputs
                );
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

/// Effect profiles carry flows beyond triggers and device reads: "Make It
/// So" arms its alarm only in Away mode, so its intrusion handler reads the
/// mode that the same app's other handler (and any mode-setting app) writes.
#[test]
fn effect_profiles_add_flows_somewhere_in_the_corpus() {
    let apps = translate(&market::named_apps());
    let app = apps.iter().find(|a| a.name == "Make It So").expect("Make It So is a named app");
    let handler = app.handlers.iter().find(|h| h.name == "intrusionHandler").expect("handler");
    let profile = effect_profile(app, handler);
    assert!(profile.inputs.contains(&EventDesc::any("mode")), "{:?}", profile.inputs);
    assert!(profile.inputs.contains(&EventDesc::new("motion", "active")), "{:?}", profile.inputs);
}
