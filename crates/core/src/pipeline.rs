//! The end-to-end IotSan pipeline (Figure 3).
//!
//! Apps' Groovy code → Translator → App Dependency Analyzer → Model Generator
//! → model checker → Output Analyzer.  The [`Pipeline`] ties the crates
//! together: it translates sources, computes related sets so only interacting
//! apps are verified jointly, verifies the independent groups concurrently
//! (merging their verdicts into one [`FleetReport`], sorted by app names),
//! and drives the attribution algorithm for newly installed apps.

use crate::model::{ModelOptions, SequentialModel};
use crate::planner::{FleetReport, VerificationCache, VerificationPlanner};
use crate::system::InstalledSystem;
use iotsan_attribution::{attribute_app, AttributionReport, AttributionThresholds};
use iotsan_checker::{Checker, SearchConfig, SearchReport};
use iotsan_config::{
    enumerate_app_configs, expert_configure, AppConfig, DeviceConfig, SystemConfig,
};
use iotsan_groovy::SmartApp;
use iotsan_ir::{lower_app, IrApp};
use iotsan_properties::PropertySet;
use std::borrow::{Borrow, Cow};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// An error produced while translating app source code.
#[derive(Debug, Clone, PartialEq)]
pub struct TranslateError {
    /// Which app failed (index or name when known).
    pub app: String,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "failed to translate {}: {}", self.app, self.message)
    }
}

impl std::error::Error for TranslateError {}

/// Translates a batch of Groovy sources into IR apps.  Apps that use dynamic
/// device discovery are still translated but flagged; the paper excludes them
/// from verification (§10.1) and the pipeline reports them separately.
pub fn translate_sources(sources: &[&str]) -> Result<Vec<IrApp>, TranslateError> {
    let mut apps = Vec::new();
    for (index, source) in sources.iter().enumerate() {
        let parsed = SmartApp::parse(source)
            .map_err(|e| TranslateError { app: format!("app #{index}"), message: e.to_string() })?;
        let app = lower_app(&parsed).map_err(|e| TranslateError {
            app: parsed.name().to_string(),
            message: e.to_string(),
        })?;
        apps.push(app);
    }
    Ok(apps)
}

/// The verification result for one related group of apps.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupResult {
    /// The apps verified together.
    pub apps: Vec<String>,
    /// The checker's report (violations + statistics).
    pub report: SearchReport,
}

impl GroupResult {
    /// The ids of properties violated in this group.
    pub fn violated_properties(&self) -> BTreeSet<u32> {
        self.report.violated_properties()
    }
}

/// A configuration indexed by app name and device label, so that restricting
/// it to one group ([`Pipeline::restrict_config`]) clones and scans only what
/// the group keeps.  The planner builds one per plan.
pub(crate) struct ConfigIndex<'c> {
    config: &'c SystemConfig,
    /// App name → positions of its entries in `config.apps`.
    apps: BTreeMap<&'c str, Vec<usize>>,
    /// Device label → positions of its entries in `config.devices`.
    devices: BTreeMap<&'c str, Vec<usize>>,
}

impl<'c> ConfigIndex<'c> {
    pub(crate) fn new(config: &'c SystemConfig) -> Self {
        let mut apps: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, app) in config.apps.iter().enumerate() {
            apps.entry(&app.app).or_default().push(i);
        }
        let mut devices: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, device) in config.devices.iter().enumerate() {
            devices.entry(&device.label).or_default().push(i);
        }
        ConfigIndex { config, apps, devices }
    }

    /// The rows of the configuration's `apps` that configure `name`, in
    /// configuration order.
    pub(crate) fn app_rows(&self, name: &str) -> &[usize] {
        self.apps.get(name).map_or(&[], Vec::as_slice)
    }

    /// The configuration restricted to `apps` ([`ConfigIndex::rows`]).
    pub(crate) fn restrict(&self, apps: &[impl Borrow<IrApp>]) -> SystemConfig {
        self.select(&self.rows(apps))
    }

    /// The rows the configuration restricted to `apps` keeps: every entry
    /// of each app, and every device that the app's first entry (the one
    /// [`SystemConfig::app`] finds) binds to one of its inputs, both in
    /// configuration order.
    pub(crate) fn rows(&self, apps: &[impl Borrow<IrApp>]) -> ConfigRows {
        let mut app_rows: Vec<usize> = Vec::new();
        let mut device_rows: Vec<usize> = Vec::new();
        for app in apps {
            let app = app.borrow();
            let rows = self.app_rows(&app.name);
            let Some(&first) = rows.first() else { continue };
            app_rows.extend(rows);
            let app_cfg = &self.config.apps[first];
            for input in &app.inputs {
                let labels = app_cfg.binding(&input.name).map_or(&[][..], |b| b.device_labels());
                for label in labels {
                    device_rows.extend(self.devices.get(label.as_str()).into_iter().flatten());
                }
            }
        }
        app_rows.sort_unstable();
        app_rows.dedup();
        device_rows.sort_unstable();
        device_rows.dedup();
        ConfigRows { apps: app_rows, devices: device_rows }
    }

    /// The configuration made of `rows`.
    pub(crate) fn select(&self, rows: &ConfigRows) -> SystemConfig {
        let config = self.config;
        SystemConfig {
            devices: rows.devices.iter().map(|&i| config.devices[i].clone()).collect(),
            apps: rows.apps.iter().map(|&i| config.apps[i].clone()).collect(),
            phone_numbers: config.phone_numbers.clone(),
            network_allowed_apps: config.network_allowed_apps.clone(),
            initial_mode: config.initial_mode.clone(),
            custom_properties: config.custom_properties.clone(),
        }
    }
}

/// The positions in a configuration's `apps` and `devices` that a
/// restricted configuration keeps ([`ConfigIndex::rows`]).
pub(crate) struct ConfigRows {
    pub(crate) apps: Vec<usize>,
    pub(crate) devices: Vec<usize>,
}

/// The IotSan verification pipeline.
#[derive(Debug, Clone)]
pub struct Pipeline {
    /// The safety properties to verify.
    pub properties: PropertySet,
    /// Model-generation options (event bound, failure policy).
    pub model_options: ModelOptions,
    /// Checker search configuration.
    pub search: SearchConfig,
}

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline {
            properties: PropertySet::all(),
            model_options: ModelOptions::default(),
            search: SearchConfig::with_depth(ModelOptions::default().max_events),
        }
    }
}

impl Pipeline {
    /// Creates a pipeline with the given number of external events.
    pub fn with_events(max_events: usize) -> Self {
        Pipeline {
            properties: PropertySet::all(),
            model_options: ModelOptions::with_events(max_events),
            search: SearchConfig::with_depth(max_events),
        }
    }

    /// Enables exhaustive device/communication failure injection.
    pub fn with_failures(mut self) -> Self {
        self.model_options = self.model_options.clone().with_failures();
        self
    }

    /// Replaces the property registry (e.g. a selection, or built-ins plus
    /// custom [`iotsan_properties::PropertySpec`]s).
    pub fn with_properties(mut self, properties: PropertySet) -> Self {
        self.properties = properties;
        self
    }

    /// The effective property registry for a run over `config`: the
    /// pipeline's own registry plus any [`SystemConfig::custom_properties`]
    /// not already registered.  Every verification entry point
    /// ([`Pipeline::verify`], [`Pipeline::verify_fleet`],
    /// [`Pipeline::verify_group`]) goes through this merge, so properties
    /// shipped inside a configuration are checked without any extra call.
    ///
    /// # Panics
    ///
    /// Panics when a config property reuses an id already bound to a
    /// *different* spec (an identical re-registration is fine).
    /// [`SystemConfig::from_json`] rejects such a configuration up front
    /// when the clash is with a built-in or another shipped property.
    pub fn properties_for(&self, config: &SystemConfig) -> PropertySet {
        self.effective_properties(config).into_owned()
    }

    /// [`Pipeline::properties_for`], borrowing the pipeline's own registry
    /// when `config` ships no custom property: every group model of a plan
    /// then compiles one shared set instead of a copy of every spec.
    pub(crate) fn effective_properties(&self, config: &SystemConfig) -> Cow<'_, PropertySet> {
        if config.custom_properties.is_empty() {
            return Cow::Borrowed(&self.properties);
        }
        let mut properties = self.properties.clone();
        for spec in &config.custom_properties {
            match properties.get(spec.property_id()) {
                Some(existing) if existing == spec => {}
                Some(existing) => panic!(
                    "config custom property {} ({}) conflicts with registered spec {}",
                    spec.property_id(),
                    spec.name,
                    existing.name
                ),
                None => {
                    properties.register(spec.clone()).expect("absence just checked");
                }
            }
        }
        Cow::Owned(properties)
    }

    /// Does nothing; kept so existing callers still compile.  Every search
    /// runs on one thread, and independent groups run concurrently (see
    /// [`VerificationPlanner::execute`]).
    pub fn with_workers(self, _workers: usize) -> Self {
        self
    }

    /// Restricts a configuration to the devices actually bound to the given
    /// apps' inputs.  The model checker then only enumerates physical events
    /// from sensors the verified apps can observe, mirroring how the paper
    /// verifies each related set against its own configuration rather than
    /// the entire household.
    pub fn restrict_config(
        &self,
        apps: &[impl Borrow<IrApp>],
        config: &SystemConfig,
    ) -> SystemConfig {
        ConfigIndex::new(config).restrict(apps)
    }

    /// Verifies one explicit group of apps (no dependency analysis).  Shared
    /// IR (`Arc<IrApp>`) is shared with the model; owned IR is copied once.
    pub fn verify_group<A>(&self, apps: &[A], config: &SystemConfig) -> GroupResult
    where
        A: Borrow<IrApp> + Clone + Into<Arc<IrApp>>,
    {
        let restricted = self.restrict_config(apps, config);
        let apps: Vec<Arc<IrApp>> = apps.iter().cloned().map(Into::into).collect();
        self.verify_group_restricted(&apps, restricted)
    }

    /// [`Pipeline::verify_group`] for a configuration that is already
    /// restricted to the group's devices — the planner restricts once at
    /// plan time, so execution must not pay (or depend on) a second pass.
    pub(crate) fn verify_group_restricted(
        &self,
        apps: &[Arc<IrApp>],
        config: SystemConfig,
    ) -> GroupResult {
        let model = self.group_model(apps, config);
        let report = Checker::new(self.search.clone()).verify(&model);
        GroupResult { apps: apps.iter().map(|a| a.name.clone()).collect(), report }
    }

    /// The model [`Pipeline::verify_group_restricted`] searches.  It shares
    /// `apps` and, unless `config` ships custom properties, the pipeline's
    /// property set: building it copies neither.
    pub(crate) fn group_model(&self, apps: &[Arc<IrApp>], config: SystemConfig) -> SequentialModel {
        let properties = self.effective_properties(&config);
        let system = InstalledSystem::new(apps.iter().cloned(), config);
        SequentialModel::compiling(system, &properties, self.model_options.clone())
    }

    /// A [`VerificationPlanner`] over this pipeline — the entry point for
    /// group-wise fleet checking with explicit plans and caches.
    pub fn planner(&self) -> VerificationPlanner<'_> {
        VerificationPlanner::new(self)
    }

    /// The full pipeline with a fresh cache: dependency analysis, then every
    /// related group model-checked, merged into the same [`FleetReport`]
    /// that [`Pipeline::verify_fleet`] returns (groups sorted by app names,
    /// each with its trace attributions, every group a cache miss).
    pub fn verify(&self, apps: &[IrApp], config: &SystemConfig) -> FleetReport {
        self.verify_fleet(apps, config, &mut VerificationCache::new())
    }

    /// Verifies a whole installed-app fleet group-wise with result caching:
    /// partitions `apps` into related groups, reuses every cached group whose
    /// [`crate::planner::Fingerprint`] matches, model-checks the rest, ranks
    /// suspect apps per violation from the counterexample traces, and merges
    /// everything into a deterministic [`FleetReport`].
    ///
    /// Re-verifying the same bundle with the same `cache` is pure cache
    /// replay; after changing one app, only the groups containing it are
    /// re-checked.
    ///
    /// ```
    /// use iotsan::{translate_sources, Pipeline, VerificationCache};
    /// use iotsan_config::{expert_configure, standard_household};
    ///
    /// let sources = [r#"
    /// definition(name: "Energy Saver", namespace: "st", author: "x", description: "d")
    /// preferences {
    ///     section("s") { input "motionSensor", "capability.motionSensor" }
    ///     section("s") { input "lights", "capability.switch", multiple: true }
    /// }
    /// def installed() { subscribe(motionSensor, "motion.inactive", onStill) }
    /// def onStill(evt) { lights.off() }
    /// "#];
    /// let apps = translate_sources(&sources).unwrap();
    /// let config = expert_configure(&apps, &standard_household());
    /// let mut cache = VerificationCache::new();
    /// let pipeline = Pipeline::with_events(1);
    ///
    /// let cold = pipeline.verify_fleet(&apps, &config, &mut cache);
    /// let warm = pipeline.verify_fleet(&apps, &config, &mut cache);
    /// assert!(warm.groups.iter().all(|g| g.from_cache));
    /// assert_eq!(warm.outcome(), cold.outcome());
    /// ```
    pub fn verify_fleet(
        &self,
        apps: &[IrApp],
        config: &SystemConfig,
        cache: &mut VerificationCache,
    ) -> FleetReport {
        let planner = self.planner();
        let plan = planner.plan(apps, config);
        planner.execute(&plan, cache)
    }

    /// Returns `true` when verifying `apps` under `config` violates at least
    /// one property — the oracle used by the attribution phases.
    pub fn violates(&self, apps: &[IrApp], config: &SystemConfig) -> bool {
        self.verify_group(apps, config).report.has_violations()
    }

    /// Runs the two-phase attribution of §9 for a newly installed app.
    ///
    /// Phase 1 verifies `new_app` alone under every enumerated configuration
    /// over `devices`; phase 2 verifies it together with `installed` apps
    /// (which keep their expert configuration).
    pub fn attribute_new_app(
        &self,
        new_app: &IrApp,
        installed: &[IrApp],
        devices: &[DeviceConfig],
        thresholds: &AttributionThresholds,
    ) -> AttributionReport {
        let config_limit = 24;
        let standalone_configs: Vec<AppConfig> =
            enumerate_app_configs(new_app, devices, config_limit);
        let joint_configs = standalone_configs.clone();

        let base_standalone = {
            let mut cfg = expert_configure(std::slice::from_ref(new_app), devices);
            cfg.apps.clear();
            cfg
        };
        let base_joint = expert_configure(installed, devices);

        let verify_standalone = |app_cfg: &AppConfig| {
            let mut config = base_standalone.clone();
            config.apps.push(app_cfg.clone());
            self.violates(std::slice::from_ref(new_app), &config)
        };
        let installed_and_new: Vec<IrApp> =
            installed.iter().cloned().chain(std::iter::once(new_app.clone())).collect();
        let verify_joint = |app_cfg: &AppConfig| {
            let mut config = base_joint.clone();
            config.apps.retain(|a| a.app != app_cfg.app);
            config.apps.push(app_cfg.clone());
            self.violates(&installed_and_new, &config)
        };
        attribute_app(
            &new_app.name,
            &standalone_configs,
            verify_standalone,
            &joint_configs,
            verify_joint,
            thresholds,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotsan_config::{standard_household, Binding};
    use iotsan_properties::PropertyId;

    const AUTO_MODE: &str = r#"
definition(name: "Auto Mode Change", namespace: "st", author: "a", description: "d")
preferences { section("s") { input "people", "capability.presenceSensor", multiple: true } }
def installed() { subscribe(people, "presence", presenceHandler) }
def presenceHandler(evt) {
    if (evt.value == "not present") { setLocationMode("Away") } else { setLocationMode("Home") }
}
"#;

    const UNLOCK_DOOR: &str = r#"
definition(name: "Unlock Door", namespace: "st", author: "a", description: "d")
preferences { section("s") { input "lock1", "capability.lock" } }
def installed() {
    subscribe(app, "touch", appTouch)
    subscribe(location, "mode", changedLocationMode)
}
def appTouch(evt) { lock1.unlock() }
def changedLocationMode(evt) { lock1.unlock() }
"#;

    const GOOD_NIGHT_LIGHT: &str = r#"
definition(name: "Brighten My Path", namespace: "st", author: "a", description: "d")
preferences {
    section("s") { input "motionSensor", "capability.motionSensor" }
    section("s") { input "lights", "capability.switch", multiple: true }
}
def installed() { subscribe(motionSensor, "motion.active", motionActiveHandler) }
def motionActiveHandler(evt) { lights.on() }
"#;

    fn household_config(apps: &[IrApp]) -> SystemConfig {
        expert_configure(apps, &standard_household())
    }

    #[test]
    fn translate_sources_reports_names() {
        let apps = translate_sources(&[AUTO_MODE, UNLOCK_DOOR]).unwrap();
        assert_eq!(apps.len(), 2);
        assert_eq!(apps[0].name, "Auto Mode Change");
        let err = translate_sources(&["def broken( {"]).unwrap_err();
        assert!(err.to_string().contains("app #0"));
    }

    #[test]
    fn pipeline_finds_interaction_violation() {
        let apps = translate_sources(&[AUTO_MODE, UNLOCK_DOOR]).unwrap();
        let config = household_config(&apps);
        let pipeline = Pipeline::with_events(2);
        let result = pipeline.verify(&apps, &config);
        assert!(result.has_violations());
        // The lock-related physical-state property must be among the violations.
        let by_class = result.violations_by_class(&pipeline.properties);
        assert!(by_class.get("Unsafe physical states").copied().unwrap_or(0) >= 1);
        // Both apps are needed, so they end up in the same group.
        let violating_group =
            result.groups.iter().find(|g| g.report.has_violations()).expect("a violating group");
        assert!(violating_group.apps.contains(&"Auto Mode Change".to_string()));
        assert!(violating_group.apps.contains(&"Unlock Door".to_string()));
    }

    #[test]
    fn with_workers_changes_no_report() {
        let apps = translate_sources(&[AUTO_MODE, UNLOCK_DOOR, GOOD_NIGHT_LIGHT]).unwrap();
        let config = household_config(&apps);
        let plain = Pipeline::with_events(2).verify(&apps, &config);
        let workers = Pipeline::with_events(2).with_workers(4).verify(&apps, &config);
        assert!(plain.has_violations());
        // Same groups, violations and counterexample traces.
        assert_eq!(plain.groups.len(), workers.groups.len());
        for (a, b) in plain.groups.iter().zip(&workers.groups) {
            assert_eq!(a.apps, b.apps);
            assert_eq!(a.report.violations, b.report.violations);
            assert_eq!(a.report.stats.states_stored, b.report.stats.states_stored);
        }
    }

    #[test]
    fn dependency_analysis_reduces_problem_size() {
        let apps = translate_sources(&[AUTO_MODE, UNLOCK_DOOR, GOOD_NIGHT_LIGHT]).unwrap();
        let config = household_config(&apps);
        let pipeline = Pipeline::with_events(1);
        let result = pipeline.verify(&apps, &config);
        assert!(result.original_handlers >= result.reduced_handlers);
        assert!(result.scale_ratio() >= 1.0);
        // Brighten My Path does not interact with the mode/lock chain, so at
        // least two groups exist.
        assert!(result.groups.len() >= 2);
    }

    #[test]
    fn safe_group_has_no_violations() {
        let apps = translate_sources(&[GOOD_NIGHT_LIGHT]).unwrap();
        // Bind the lights to a light outlet (no lock, no mode involvement).
        let config = household_config(&apps);
        let pipeline = Pipeline::with_events(2);
        let result = pipeline.verify(&apps, &config);
        assert!(!result.has_violations(), "violations: {:?}", result.violated_properties());
    }

    #[test]
    fn excluded_dynamic_apps_are_reported() {
        let spy = r#"
definition(name: "Spy", namespace: "st", author: "a", description: "d")
preferences { section("s") { input "trigger", "capability.motionSensor" } }
def installed() { subscribe(trigger, "motion.active", handler) }
def handler(evt) { getChildDevices() }
"#;
        let apps = translate_sources(&[spy, GOOD_NIGHT_LIGHT]).unwrap();
        let config = household_config(&apps);
        let result = Pipeline::with_events(1).verify(&apps, &config);
        assert_eq!(result.excluded_apps, vec!["Spy".to_string()]);
    }

    #[test]
    fn attribution_flags_malicious_fake_event_app() {
        // A ContexIoT-style malicious app: whenever motion is detected it
        // fakes a smoke event and silences the alarm — every configuration
        // violates a property, so phase 1 flags it.
        let malicious = r#"
definition(name: "Fake Smoke", namespace: "st", author: "evil", description: "d")
preferences {
    section("s") { input "motion1", "capability.motionSensor" }
    section("s") { input "alarm1", "capability.alarm" }
}
def installed() { subscribe(motion1, "motion.active", handler) }
def handler(evt) {
    sendEvent(name: "smoke", value: "detected")
    alarm1.off()
}
"#;
        let apps = translate_sources(&[malicious]).unwrap();
        let devices = standard_household();
        let pipeline = Pipeline::with_events(2);
        let report =
            pipeline.attribute_new_app(&apps[0], &[], &devices, &AttributionThresholds::default());
        assert!(report.verdict.flags_app(), "verdict was {:?}", report.verdict);
    }

    #[test]
    fn attribution_reports_clean_for_benign_app() {
        let apps = translate_sources(&[GOOD_NIGHT_LIGHT]).unwrap();
        let devices = standard_household();
        let pipeline = Pipeline::with_events(1);
        let report =
            pipeline.attribute_new_app(&apps[0], &[], &devices, &AttributionThresholds::default());
        assert!(!report.verdict.flags_app(), "verdict was {:?}", report.verdict);
    }

    #[test]
    fn verify_group_respects_explicit_binding() {
        let apps = translate_sources(&[UNLOCK_DOOR]).unwrap();
        let mut config = household_config(&apps);
        // Rebind the lock input to the back door (not the main door): the
        // main-door property can then no longer be violated by this app alone.
        if let Some(app_cfg) = config.apps.iter_mut().find(|a| a.app == "Unlock Door") {
            app_cfg.bindings.insert("lock1".into(), Binding::Devices(vec!["backDoorLock".into()]));
        }
        let pipeline = Pipeline::with_events(1);
        let result = pipeline.verify_group(&apps, &config);
        let violated = result.violated_properties();
        let main_door_violations: Vec<_> = violated
            .iter()
            .filter(|p| {
                pipeline
                    .properties
                    .get(PropertyId(**p))
                    .map(|prop| prop.name.contains("main door"))
                    .unwrap_or(false)
            })
            .collect();
        assert!(main_door_violations.is_empty());
    }
}
