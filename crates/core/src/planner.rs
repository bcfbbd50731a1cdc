//! Group-wise verification planning: depgraph-partitioned fleet checking
//! with content-addressed result caching.
//!
//! IotSan's scalability story (§5, Table 7a) is that the model checker never
//! sees the whole household at once: the App Dependency Analyzer partitions
//! the installed apps into *related groups*, each group is verified
//! independently, and the Output Analyzer attributes the violations.  The
//! [`VerificationPlanner`] turns that decomposition into an operational
//! subsystem:
//!
//! ```text
//!   installed bundle ──▶ plan() ────────────▶ FleetPlan (one GroupJob per
//!        │                 iotsan-depgraph        related app group, keyed by
//!        │                 related_sets           a content Fingerprint)
//!        ▼                                          │
//!   execute(plan, cache) ◀──────────────────────────┘
//!        │  1. claim and look up every fingerprint, in plan order
//!        │  2. the misses model-checked concurrently on scoped threads,
//!        │     largest first, one search per renaming class, the other
//!        │     members served by replaying its paths (verify_jobs)
//!        │  3. cache inserts in plan order, claims released; fingerprints
//!        │     another caller held are awaited and form the next round
//!        │  4. attribution and merge, in plan order
//!        ▼
//!   FleetReport — deterministically merged groups, cache statistics, and
//!   per-violation suspect rankings from the counterexample traces
//!   (iotsan-attribution).
//! ```
//!
//! The cache key ([`Fingerprint`]) covers the group's app IRs (one digest per
//! app, computed once per plan), its restricted device configuration, the
//! property set and the model/search options that can change a verdict — so
//! re-verifying a fleet after one app changes only re-checks the groups
//! containing that app.  Everything but the member names also forms the
//! group's *renaming class*: groups that are one system under different
//! app names share a class, and one search serves them all:
//!
//! ```
//! use iotsan::{translate_sources, Pipeline, VerificationCache};
//! use iotsan_config::{expert_configure, standard_household};
//!
//! let sources = [r#"
//! definition(name: "Brighten My Path", namespace: "st", author: "x", description: "d")
//! preferences {
//!     section("s") { input "motionSensor", "capability.motionSensor" }
//!     section("s") { input "lights", "capability.switch", multiple: true }
//! }
//! def installed() { subscribe(motionSensor, "motion.active", onMotion) }
//! def onMotion(evt) { lights.on() }
//! "#];
//! let apps = translate_sources(&sources).unwrap();
//! let config = expert_configure(&apps, &standard_household());
//! let pipeline = Pipeline::with_events(1);
//! let mut cache = VerificationCache::new();
//!
//! let cold = pipeline.verify_fleet(&apps, &config, &mut cache);
//! assert_eq!(cold.cache_misses, cold.groups.len());
//!
//! // Nothing changed: the warm rerun touches no model checker at all and
//! // reports exactly the same outcome.
//! let warm = pipeline.verify_fleet(&apps, &config, &mut cache);
//! assert!(warm.groups.iter().all(|g| g.from_cache));
//! assert_eq!(warm.outcome(), cold.outcome());
//! ```

use crate::pipeline::{ConfigIndex, ConfigRows, GroupResult, Pipeline};
use iotsan_attribution::{attribute_traces, TraceAttribution};
use iotsan_checker::{replay, FoundViolation, SearchConfig, SearchReport};
use iotsan_config::{AppConfig, SystemConfig};
use iotsan_depgraph::analyze;
use iotsan_ir::{IrApp, IrHandler};
use iotsan_properties::{ContentHasher, PropertyId, PropertySet};
use iotsan_telemetry::flight::{self, EventCode, Level};
use iotsan_telemetry::METRICS;
use std::borrow::{Borrow, Cow};
use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// A content hash identifying one group-verification task.
///
/// Two jobs with the same fingerprint verify the same sorted app IRs against
/// the same restricted device configuration, property set, model options and
/// search shape — so one job's [`SearchReport`] can stand in for the
/// other's.  The checker is deterministic, so equal inputs always produce
/// equal reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u64);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Computes the content fingerprint of one group-verification task.
///
/// The fingerprint is the group's renaming-class key plus its members'
/// names, in member order.  The class key covers everything else: each
/// member's IR up to its name (its shape digest), the device configuration
/// the group is verified under with member names replaced by member
/// positions, the property set, and the model/search options that can
/// change the verdict ([`crate::model::ModelOptions`] plus the
/// result-relevant [`SearchConfig`] fields — depth and caps).
/// The wall-clock budget is always excluded (a budget-truncated report is
/// never cached).
///
/// [`VerificationPlanner::plan`] computes the same key from digests it
/// computes once per plan.
pub fn fingerprint_group(
    pipeline: &Pipeline,
    apps: &[impl Borrow<IrApp>],
    config: &SystemConfig,
) -> Fingerprint {
    let basis = KeyBasis::new(pipeline, config);
    let index = ConfigIndex::new(config);
    let rows = index.rows(apps);
    let shapes: Vec<u64> = apps.iter().map(|app| app_digest(app.borrow())).collect();
    let class = basis.class_key(apps, &shapes, &index, &rows, &index.select(&rows));
    group_fingerprint(class, apps)
}

/// The *shape* digest of one app's IR: FNV-1a over the `Debug` rendering
/// of every field except the app's name, which the IR also carries in
/// each handler's `app`.  Two apps that differ only in name have equal
/// shapes.
fn app_digest(app: &IrApp) -> u64 {
    // Destructured, so a new field is a compile error here until it is
    // either hashed or shown to be a name.
    let IrApp { name: _, description, inputs, handlers, state_vars, dynamic_discovery } = app;
    let mut text = format!("{description:?} {inputs:?} {state_vars:?} {dynamic_discovery:?}");
    for handler in handlers {
        let IrHandler { app: _, name, trigger, body } = handler;
        write!(text, " {name:?} {trigger:?} {body:?}").expect("writing to a String");
    }
    let mut h = ContentHasher::new();
    h.write_str(&text);
    h.finish()
}

/// What every group key of one plan shares, digested at most once per
/// plan: each configuration row on its own, when a group first keeps it,
/// and everything that is the same for every group.
struct KeyBasis<'c> {
    config: &'c SystemConfig,
    /// Each row of the configuration's `apps`, without its app name.
    app_rows: Vec<OnceCell<u64>>,
    /// Each row of the configuration's `devices`.
    device_rows: Vec<OnceCell<u64>>,
    /// The configuration's other fields, the property set, the model
    /// options and the search shape.
    shared: u64,
}

impl<'c> KeyBasis<'c> {
    fn new(pipeline: &Pipeline, config: &'c SystemConfig) -> Self {
        let SystemConfig {
            devices,
            apps,
            phone_numbers,
            network_allowed_apps: _,
            initial_mode,
            custom_properties,
        } = config;
        let mut h = ContentHasher::new();
        h.write_str(&format!("{phone_numbers:?} {initial_mode:?} {custom_properties:?}"));
        // Spec content hash, not a Debug rendering: every property's id,
        // metadata and formula AST feeds the key, so adding or editing a
        // (custom) spec invalidates exactly the cached verdicts computed
        // under a different property set — and nothing else.
        h.write_u64(pipeline.properties.content_hash());
        h.write_str(&format!("{:?}", pipeline.model_options));
        // Destructured, so a new search option is a compile error here until
        // it is either keyed or shown not to change results.  The time limit
        // and the cancel token only truncate a search, and a truncated
        // report is never cached.
        let SearchConfig { max_depth, max_states, max_transitions, time_limit: _, cancel: _ } =
            &pipeline.search;
        // The constant `false` stands where the deleted stop-at-first flag
        // was hashed, so existing verdict logs keep hitting.
        h.write_str(&format!("{:?}", (max_depth, max_states, max_transitions, false)));
        KeyBasis {
            config,
            app_rows: vec![OnceCell::new(); apps.len()],
            device_rows: vec![OnceCell::new(); devices.len()],
            shared: h.finish(),
        }
    }

    /// The digest of the configuration's app row `row`, without its name.
    fn app_row(&self, row: usize) -> u64 {
        *self.app_rows[row].get_or_init(|| {
            let AppConfig { app: _, bindings } = &self.config.apps[row];
            let mut h = ContentHasher::new();
            h.write_str(&format!("{bindings:?}"));
            h.finish()
        })
    }

    /// The digest of the configuration's device row `row`.
    fn device_row(&self, row: usize) -> u64 {
        *self.device_rows[row].get_or_init(|| {
            let mut h = ContentHasher::new();
            h.write_str(&format!("{:?}", self.config.devices[row]));
            h.finish()
        })
    }

    /// The renaming-class key of the group `members` (in member order, with
    /// their `shapes`), whose restricted configuration keeps `rows` of the
    /// indexed configuration and is `restricted`.
    ///
    /// Members are installed and dispatched in member order, so the key
    /// covers the member sequence: each member's shape, then the
    /// configuration with each member's name replaced by its position — its
    /// app rows listed in member order, the devices in configuration order,
    /// and the positions the network allow-list names.  A group that
    /// installs one name twice shares that name's rows and state slots
    /// between two positions, so it keeps its names in the key.
    fn class_key(
        &self,
        members: &[impl Borrow<IrApp>],
        shapes: &[u64],
        index: &ConfigIndex,
        rows: &ConfigRows,
        restricted: &SystemConfig,
    ) -> u64 {
        let mut h = ContentHasher::new();
        h.write_u64(self.shared);
        h.write_u64(members.len() as u64);
        for (member, shape) in members.iter().map(Borrow::borrow).zip(shapes) {
            h.write_u64(*shape);
            let app_rows = index.app_rows(&member.name);
            h.write_u64(app_rows.len() as u64);
            for &row in app_rows {
                h.write_u64(self.app_row(row));
            }
            let allowed = restricted.network_allowed_apps.contains(&member.name);
            h.write_bytes(&[u8::from(allowed)]);
        }
        h.write_u64(rows.devices.len() as u64);
        for &row in &rows.devices {
            h.write_u64(self.device_row(row));
        }
        let mut names: Vec<&str> = members.iter().map(|m| m.borrow().name.as_str()).collect();
        names.sort_unstable();
        if names.windows(2).any(|pair| pair[0] == pair[1]) {
            h.write_str("names");
            for member in members {
                h.write_str(&member.borrow().name);
            }
        }
        h.finish()
    }
}

/// A group's fingerprint: its `class` key and its members' names, in
/// member order.
fn group_fingerprint(class: u64, members: &[impl Borrow<IrApp>]) -> Fingerprint {
    let mut h = ContentHasher::new();
    h.write_u64(class);
    for member in members {
        h.write_str(&member.borrow().name);
    }
    Fingerprint(h.finish())
}

/// One scheduled model-checking job: a related group of apps, the
/// configuration slice it observes, and its cache key.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupJob {
    /// The display names of the group's apps, sorted.
    pub apps: Vec<String>,
    /// The IR of the group's apps (same order as [`GroupJob::apps`]): the
    /// plan's one shared copy of each app, so an app in many groups is
    /// still one IR.
    pub members: Vec<Arc<IrApp>>,
    /// The system configuration restricted to the devices this group's apps
    /// actually observe (see [`Pipeline::restrict_config`]).
    pub config: SystemConfig,
    /// Total number of event handlers in the group — the cost estimate the
    /// scheduler orders jobs by.
    pub handler_count: usize,
    /// The content-addressed cache key of this job.
    pub fingerprint: Fingerprint,
    /// The job's renaming class: [`Fingerprint`] without the member names.
    /// `execute` searches one miss per class and serves the others from it.
    class: u64,
}

/// The verification schedule for one installed-app bundle.
///
/// Jobs are ordered largest-first (by handler count, ties broken by app
/// names), so the most expensive group starts first; the merged
/// [`FleetReport`] is sorted by app names regardless of schedule order.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPlan {
    /// The scheduled jobs, one per related app group.
    pub jobs: Vec<GroupJob>,
    /// Apps excluded from verification because they discover devices
    /// dynamically (§10.1).
    pub excluded_apps: Vec<String>,
    /// Total number of event handlers before dependency analysis.
    pub original_handlers: usize,
    /// Number of event handlers in the largest related set.
    pub reduced_handlers: usize,
}

impl FleetPlan {
    /// The jobs whose group contains `app`, in schedule order.
    pub fn jobs_for(&self, app: &str) -> Vec<&GroupJob> {
        self.jobs.iter().filter(|j| j.apps.iter().any(|a| a == app)).collect()
    }
}

/// A pluggable durable backing for the [`VerificationCache`].
///
/// The in-memory cache dies with the process; a persistence layer (such as
/// `iotsan-daemon`'s append-only `VerdictStore`) keeps complete group
/// verdicts across restarts.  The cache consults the backing on every
/// in-memory miss and writes through on every insert, so the backing sees
/// exactly the complete (never truncated) results the cache itself admits.
///
/// Implementations own their error handling: a backing that fails to load
/// must return `None` (the group is then re-verified — always sound), and a
/// failed store must not corrupt previously persisted verdicts.
///
/// ```
/// use iotsan::{Fingerprint, GroupResult, VerdictPersistence, VerificationCache};
/// use std::collections::BTreeMap;
/// use std::sync::{Arc, Mutex};
///
/// /// A toy persistence layer: a shared map standing in for a disk store.
/// #[derive(Debug, Clone, Default)]
/// struct Shared(Arc<Mutex<BTreeMap<Fingerprint, GroupResult>>>);
///
/// impl VerdictPersistence for Shared {
///     fn load(&mut self, fingerprint: Fingerprint) -> Option<GroupResult> {
///         self.0.lock().unwrap().get(&fingerprint).cloned()
///     }
///     fn store(&mut self, fingerprint: Fingerprint, result: &GroupResult) -> bool {
///         self.0.lock().unwrap().insert(fingerprint, result.clone());
///         true
///     }
/// }
///
/// let durable = Shared::default();
/// let mut first = VerificationCache::new().with_backing(Box::new(durable.clone()));
/// // ... verify_fleet populates `first`, writing through to `durable` ...
/// drop(first); // "process exit"
///
/// // A fresh cache over the same backing replays the persisted verdicts.
/// let mut restarted = VerificationCache::new().with_backing(Box::new(durable));
/// assert_eq!(restarted.backing_hits(), 0);
/// ```
pub trait VerdictPersistence: fmt::Debug + Send {
    /// Fetches the persisted result for `fingerprint`, or `None` when absent
    /// (or unreadable — re-verifying is always sound).
    fn load(&mut self, fingerprint: Fingerprint) -> Option<GroupResult>;

    /// Persists `result` under `fingerprint`, replacing any previous entry.
    ///
    /// Returns whether the entry was made durable.  `false` means the
    /// verdict lives only in memory — still sound (the group re-verifies
    /// after a restart), but the caller counts it
    /// ([`FleetReport::persist_failures`]) so a degraded persistence layer
    /// is visible instead of silent.
    fn store(&mut self, fingerprint: Fingerprint, result: &GroupResult) -> bool;
}

/// A content-addressed store of group verification results.
///
/// Keys are [`Fingerprint`]s; values are complete group reports.  Only
/// *complete* searches are ever inserted — a report truncated by a resource
/// cap or time budget depends on the budget that cut it off, so it is
/// recomputed every time.
///
/// Optionally backed by a [`VerdictPersistence`] layer: in-memory misses fall
/// through to the backing (counted by [`VerificationCache::backing_hits`]
/// when they succeed) and inserts write through, which is how
/// `iotsan-daemon` keeps verdicts warm across process restarts.
///
/// ```
/// use iotsan::{translate_sources, Pipeline, VerificationCache};
/// use iotsan_config::{expert_configure, standard_household};
///
/// let sources = [r#"
/// definition(name: "Light Follows Me", namespace: "st", author: "x", description: "d")
/// preferences {
///     section("s") { input "motionSensor", "capability.motionSensor" }
///     section("s") { input "lights", "capability.switch", multiple: true }
/// }
/// def installed() { subscribe(motionSensor, "motion.active", onMotion) }
/// def onMotion(evt) { lights.on() }
/// "#];
/// let apps = translate_sources(&sources).unwrap();
/// let config = expert_configure(&apps, &standard_household());
/// let mut cache = VerificationCache::new();
/// assert!(cache.is_empty());
///
/// Pipeline::with_events(1).verify_fleet(&apps, &config, &mut cache);
/// assert_eq!(cache.len(), 1);
/// assert_eq!((cache.hits(), cache.misses()), (0, 1));
///
/// Pipeline::with_events(1).verify_fleet(&apps, &config, &mut cache);
/// assert_eq!((cache.hits(), cache.misses()), (1, 1));
///
/// cache.clear();
/// assert!(cache.is_empty());
/// ```
#[derive(Debug, Default)]
pub struct VerificationCache {
    entries: BTreeMap<Fingerprint, GroupResult>,
    hits: usize,
    misses: usize,
    backing: Option<Box<dyn VerdictPersistence>>,
    backing_hits: usize,
}

impl VerificationCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached group results.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops every in-memory entry (the lifetime hit/miss counters and any
    /// durable backing are kept — a backed cache repopulates from disk).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Lifetime number of successful lookups.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Lifetime number of failed lookups.
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Attaches a durable backing (builder style); see
    /// [`VerdictPersistence`].  Replaces any previous backing.
    pub fn with_backing(mut self, backing: Box<dyn VerdictPersistence>) -> Self {
        self.backing = Some(backing);
        self
    }

    /// True when a durable backing is attached.
    pub fn has_backing(&self) -> bool {
        self.backing.is_some()
    }

    /// Lifetime number of lookups served by the durable backing (a subset of
    /// [`VerificationCache::hits`]): in-memory misses that the persistence
    /// layer answered.
    pub fn backing_hits(&self) -> usize {
        self.backing_hits
    }

    /// Looks up a group result by fingerprint, counting a hit or a miss.
    ///
    /// An in-memory miss falls through to the durable backing (when one is
    /// attached); a successful backing load is promoted into memory and
    /// counted as both a hit and a backing hit.  The result shares its
    /// counterexample traces with the stored entry; nothing is deep-copied.
    pub fn lookup(&mut self, fingerprint: Fingerprint) -> Option<GroupResult> {
        if let Some(result) = self.entries.get(&fingerprint) {
            self.hits += 1;
            METRICS.cache_hits.inc();
            return Some(result.clone());
        }
        if let Some(backing) = self.backing.as_mut() {
            if let Some(result) = backing.load(fingerprint) {
                self.hits += 1;
                self.backing_hits += 1;
                METRICS.cache_hits.inc();
                METRICS.cache_backing_hits.inc();
                self.entries.insert(fingerprint, result.clone());
                return Some(result);
            }
        }
        self.misses += 1;
        METRICS.cache_misses.inc();
        None
    }

    /// Stores a group result under its fingerprint, writing through to the
    /// durable backing when one is attached.  Returns `false` when the
    /// backing failed to persist it; the in-memory entry is kept either
    /// way, so lookups stay correct.
    pub fn insert(&mut self, fingerprint: Fingerprint, result: GroupResult) -> bool {
        let persisted = self.backing.as_mut().map_or(true, |b| b.store(fingerprint, &result));
        if !persisted {
            METRICS.cache_persist_failures.inc();
        }
        self.entries.insert(fingerprint, result);
        persisted
    }
}

/// Where [`VerificationPlanner::execute`] finds and files group verdicts.
///
/// A plan executor looks each fingerprint up, claims the ones it will
/// verify, and inserts their complete results.  In process the cache is a
/// plain `&mut` [`VerificationCache`] and a claim always succeeds; a cache
/// shared by concurrent executors (the `iotsan-daemon` worker pool) uses
/// claims so that no fingerprint is verified twice at once.
pub trait PlanCache {
    /// Proof that this caller is verifying one fingerprint; dropping it
    /// releases the fingerprint to other callers.
    type Claim;

    /// The stored result for `fingerprint`, if any.
    fn lookup(&mut self, fingerprint: Fingerprint) -> Option<GroupResult>;

    /// Claims `fingerprint` without blocking; `None` when another caller
    /// holds it.
    fn claim(&mut self, fingerprint: Fingerprint) -> Option<Self::Claim>;

    /// Blocks until no other caller holds `fingerprint`.  The executor calls
    /// it only while holding no claims of its own.  The default returns at
    /// once, for caches whose claims always succeed.
    fn wait(&mut self, _fingerprint: Fingerprint) {}

    /// Files a complete (never truncated) result.  Returns `false` when a
    /// durable backing failed to persist it (the verdict is still served
    /// from memory).
    fn insert(&mut self, fingerprint: Fingerprint, result: GroupResult) -> bool;
}

impl PlanCache for VerificationCache {
    type Claim = ();

    fn lookup(&mut self, fingerprint: Fingerprint) -> Option<GroupResult> {
        VerificationCache::lookup(self, fingerprint)
    }

    fn claim(&mut self, _fingerprint: Fingerprint) -> Option<()> {
        Some(())
    }

    fn insert(&mut self, fingerprint: Fingerprint, result: GroupResult) -> bool {
        VerificationCache::insert(self, fingerprint, result)
    }
}

/// The merged verdict for one group within a [`FleetReport`].
#[derive(Debug, Clone)]
pub struct FleetGroupReport {
    /// The group's apps, sorted by name.
    pub apps: Vec<String>,
    /// The group's cache key.
    pub fingerprint: Fingerprint,
    /// True when the report was served from the cache without running the
    /// model checker.
    pub from_cache: bool,
    /// The checker's report (violations + statistics).
    pub report: SearchReport,
    /// Per-violation suspect rankings derived from the counterexample traces
    /// (see [`iotsan_attribution::attribute_traces`]).
    pub attributions: Vec<TraceAttribution>,
}

impl FleetGroupReport {
    /// The ids of properties violated in this group.
    pub fn violated_properties(&self) -> BTreeSet<u32> {
        self.report.violated_properties()
    }

    /// The timing-free projection of this group's verdict.
    pub fn outcome(&self) -> GroupOutcome {
        GroupOutcome {
            apps: self.apps.clone(),
            violated_properties: self.violated_properties(),
            states_stored: self.report.stats.states_stored,
            transitions: self.report.stats.transitions,
        }
    }
}

/// The comparable (timing-free) projection of one group's verdict: a cached
/// replay and a cold run report different wall-clock times but must agree on
/// everything here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupOutcome {
    /// The group's apps, sorted by name.
    pub apps: Vec<String>,
    /// Ids of the properties the group violates.
    pub violated_properties: BTreeSet<u32>,
    /// Distinct states stored while verifying the group.
    pub states_stored: usize,
    /// Transitions applied while verifying the group.
    pub transitions: usize,
}

/// The deterministically merged result of verifying a whole fleet.
///
/// Groups are sorted by their app names, so two runs over the same bundle —
/// regardless of schedule order, worker count or cache warmth — render
/// identically.
#[derive(Debug, Clone, Default)]
pub struct FleetReport {
    /// Per-group verdicts, sorted by app names.
    pub groups: Vec<FleetGroupReport>,
    /// Apps excluded because they discover devices dynamically.
    pub excluded_apps: Vec<String>,
    /// Total number of event handlers before dependency analysis.
    pub original_handlers: usize,
    /// Number of event handlers in the largest related set.
    pub reduced_handlers: usize,
    /// Groups served from the cache in this run.
    pub cache_hits: usize,
    /// Groups that had to be model-checked in this run.
    pub cache_misses: usize,
    /// Groups verified in this run whose verdict the durable backing
    /// failed to persist (they re-verify after a restart): non-zero means
    /// the persistence layer ran degraded while this fleet was verified.
    pub persist_failures: usize,
}

impl FleetReport {
    /// The distinct properties violated anywhere in the fleet.
    pub fn violated_properties(&self) -> BTreeSet<u32> {
        self.groups.iter().flat_map(|g| g.violated_properties()).collect()
    }

    /// True when any group violated any property.
    pub fn has_violations(&self) -> bool {
        self.groups.iter().any(|g| g.report.has_violations())
    }

    /// Total number of `(property, group)` violation pairs.
    pub fn violation_count(&self) -> usize {
        self.groups.iter().map(|g| g.report.violations.len()).sum()
    }

    /// Violation counts per property class (the row structure of Tables
    /// 5/6), one per `(property, group)` pair.  Labels come from the
    /// property registry itself ([`iotsan_properties::PropertyClass::label`]),
    /// so user-defined classes render under their own names; violations
    /// whose id is not in the registry are reported under an explicit
    /// `unknown property PNN` bucket instead of being silently dropped.
    pub fn violations_by_class(&self, properties: &PropertySet) -> BTreeMap<String, usize> {
        let mut out: BTreeMap<String, usize> = BTreeMap::new();
        for property in self.groups.iter().flat_map(|g| g.violated_properties()) {
            let label = match properties.class_label(PropertyId(property)) {
                Some(label) => label.to_string(),
                None => format!("unknown property {}", PropertyId(property)),
            };
            *out.entry(label).or_insert(0) += 1;
        }
        out
    }

    /// This run's cache hit rate in `[0, 1]` (`0.0` for an empty fleet).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// The dependency-analysis scale ratio (original handler count over the
    /// largest related set's handler count); `1.0` for an empty fleet, same
    /// convention as [`iotsan_depgraph::RelatedSets::scale_ratio`].
    pub fn scale_ratio(&self) -> f64 {
        if self.reduced_handlers == 0 {
            1.0
        } else {
            self.original_handlers as f64 / self.reduced_handlers as f64
        }
    }

    /// The timing-free projection of the whole fleet verdict, for comparing
    /// a warm (cached) run against a cold one.
    pub fn outcome(&self) -> Vec<GroupOutcome> {
        self.groups.iter().map(|g| g.outcome()).collect()
    }

    /// The group reports whose group contains `app`.
    pub fn groups_containing(&self, app: &str) -> Vec<&FleetGroupReport> {
        self.groups.iter().filter(|g| g.apps.iter().any(|a| a == app)).collect()
    }
}

/// Plans and executes group-wise fleet verification for a [`Pipeline`].
///
/// Planning is deterministic: the same bundle yields the same jobs with the
/// same fingerprints, which is what makes the [`VerificationCache`] useful
/// across runs.
///
/// ```
/// use iotsan::{translate_sources, Pipeline, VerificationPlanner};
/// use iotsan_config::{expert_configure, standard_household};
///
/// // Two apps with no event-chain between them: two independent jobs.
/// let sources = [r#"
/// definition(name: "Brighten My Path", namespace: "st", author: "x", description: "d")
/// preferences {
///     section("s") { input "motionSensor", "capability.motionSensor" }
///     section("s") { input "lights", "capability.switch", multiple: true }
/// }
/// def installed() { subscribe(motionSensor, "motion.active", onMotion) }
/// def onMotion(evt) { lights.on() }
/// "#, r#"
/// definition(name: "Auto Mode Change", namespace: "st", author: "x", description: "d")
/// preferences { section("s") { input "people", "capability.presenceSensor", multiple: true } }
/// def installed() { subscribe(people, "presence", presenceHandler) }
/// def presenceHandler(evt) { setLocationMode("Away") }
/// "#];
/// let apps = translate_sources(&sources).unwrap();
/// let config = expert_configure(&apps, &standard_household());
/// let pipeline = Pipeline::with_events(1);
///
/// let plan = VerificationPlanner::new(&pipeline).plan(&apps, &config);
/// assert_eq!(plan.jobs.len(), 2);
/// assert_eq!(plan.jobs_for("Brighten My Path").len(), 1);
/// // Planning is a pure function of the bundle.
/// assert_eq!(plan, VerificationPlanner::new(&pipeline).plan(&apps, &config));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct VerificationPlanner<'a> {
    pipeline: &'a Pipeline,
}

impl<'a> VerificationPlanner<'a> {
    /// Creates a planner for `pipeline`.
    pub fn new(pipeline: &'a Pipeline) -> Self {
        VerificationPlanner { pipeline }
    }

    /// Partitions `apps` into related groups (via
    /// [`iotsan_depgraph::analyze`]) and schedules one fingerprinted
    /// model-checking job per group, largest first.
    ///
    /// Whatever every group shares is computed once per plan: each app's
    /// name lookup and shape digest, a digest of each configuration row,
    /// the property hash and an index of `config`.  The rest costs the
    /// group's own size, so a plan costs the analysis plus work
    /// proportional to groups × members.  Each verifiable app is copied
    /// once, into the [`Arc`] that every job containing it shares.
    pub fn plan(&self, apps: &[IrApp], config: &SystemConfig) -> FleetPlan {
        let excluded_apps: Vec<String> =
            apps.iter().filter(|a| a.dynamic_discovery).map(|a| a.name.clone()).collect();
        let verifiable: Cow<[IrApp]> = if excluded_apps.is_empty() {
            Cow::Borrowed(apps)
        } else {
            apps.iter().filter(|a| !a.dynamic_discovery).cloned().collect()
        };

        let (graph, sets) = analyze(&verifiable);
        let original_handlers = graph.handler_count();
        let reduced_handlers = sets.largest_handler_count(&graph);
        let verifiable: Vec<Arc<IrApp>> =
            verifiable.into_owned().into_iter().map(Arc::new).collect();

        // A name installed twice keeps both copies as members.
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, app) in verifiable.iter().enumerate() {
            by_name.entry(&app.name).or_default().push(i);
        }
        let shapes: Vec<u64> = verifiable.iter().map(|app| app_digest(app)).collect();
        let basis = KeyBasis::new(self.pipeline, config);
        let index = ConfigIndex::new(config);

        let groups = if sets.is_empty() { Vec::new() } else { sets.app_groups(&graph) };
        let mut jobs: Vec<GroupJob> = Vec::with_capacity(groups.len());
        for group in groups {
            // Group names are sorted, so the members are sorted by name,
            // copies of one name in bundle order.
            let positions: Vec<usize> =
                group.iter().flat_map(|name| &by_name[name.as_str()]).copied().collect();
            let members: Vec<Arc<IrApp>> =
                positions.iter().map(|&i| Arc::clone(&verifiable[i])).collect();
            let member_shapes: Vec<u64> = positions.iter().map(|&i| shapes[i]).collect();
            let rows = index.rows(&members);
            let restricted = index.select(&rows);
            let class = basis.class_key(&members, &member_shapes, &index, &rows, &restricted);
            METRICS.planner_group_size.observe(members.len() as u64);
            jobs.push(GroupJob {
                apps: members.iter().map(|a| a.name.clone()).collect(),
                handler_count: members.iter().map(|a| a.handlers.len()).sum(),
                fingerprint: group_fingerprint(class, &members),
                members,
                config: restricted,
                class,
            });
        }
        // Largest job first: `execute` hands the misses to its group threads
        // in plan order, so this is their longest-processing-time-first
        // schedule — the most expensive group starts first and cannot be the
        // one left running alone at the end.
        jobs.sort_by(|a, b| {
            b.handler_count.cmp(&a.handler_count).then_with(|| a.apps.cmp(&b.apps))
        });

        FleetPlan { jobs, excluded_apps, original_handlers, reduced_handlers }
    }

    /// Verifies a single planned job, bypassing the cache: translates the
    /// job's members and restricted configuration straight into one bounded
    /// model-checking run.
    ///
    /// [`VerificationPlanner::execute`] runs its cache misses through this
    /// on its group threads; the differential oracle
    /// (`iotsan-scenarios`) calls it in a serial loop as the reference.  A
    /// caller that caches the result follows the same discipline as
    /// `execute`: never insert a result whose report is truncated.
    pub fn verify_job(&self, job: &GroupJob) -> GroupResult {
        self.pipeline.verify_group_restricted(&job.members, job.config.clone())
    }

    /// Verifies `jobs` (one plan's cache misses, largest first), bypassing
    /// the cache, and returns their results in the same order, each with its
    /// trace attributions ranked on the thread that verified it.
    ///
    /// Its only caller is [`VerificationPlanner::execute`].  The jobs are
    /// grouped into renaming classes (equal [`GroupJob`] class keys), in the
    /// order of their first member.  A thread takes a whole class: it
    /// searches the first member and serves every other member from that
    /// search ([`VerificationPlanner::serve`]).  The classes run on
    /// `std::thread::scope` threads, each claiming the next unclaimed class
    /// from a shared counter, so the largest groups start first
    /// (longest-processing-time-first).  The thread count is the host's
    /// available parallelism, capped by the number of classes (each search
    /// is single-threaded); with one class or one thread the caller runs
    /// everything and nothing is spawned.  The calling thread claims the
    /// first (largest) class before any helper is spawned and works
    /// alongside them: each spawned thread allocates from its own malloc
    /// arena, so a caller that only waited would add an arena's peak memory
    /// without adding a core.
    fn verify_jobs(&self, jobs: &[&GroupJob]) -> Vec<(GroupResult, Vec<TraceAttribution>)> {
        // A scan costs jobs × classes comparisons, far below a search per
        // class.
        let mut classes: Vec<Vec<usize>> = Vec::new();
        for (index, job) in jobs.iter().enumerate() {
            match classes.iter_mut().find(|class| jobs[class[0]].class == job.class) {
                Some(class) => class.push(index),
                None => classes.push(vec![index]),
            }
        }
        let Some(largest) = classes.first() else { return Vec::new() };
        // Read once per process: `available_parallelism` re-reads the
        // cgroup quota files on every call (about 21 µs on a 2-vCPU Xeon),
        // which the daemon would otherwise pay on every job.
        static CORES: OnceLock<usize> = OnceLock::new();
        let cores =
            *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        let threads = cores.min(classes.len());
        // Index 0 is the caller's; the counter only publishes indices (the
        // results travel back through `join`), so `Relaxed` suffices.
        let next = AtomicUsize::new(1);
        let attributed = |result: GroupResult| {
            let attributions = attribute_traces(&result.apps, &result.report.violations);
            (result, attributions)
        };
        let verify = |class: &[usize], done: &mut Vec<(usize, _)>| {
            let (&first, rest) = class.split_first().expect("a class has a member");
            let searched = self.verify_job(jobs[first]);
            for &member in rest {
                done.push((member, attributed(self.serve(jobs[member], &searched))));
            }
            done.push((first, attributed(searched)));
        };
        let work = |mut done: Vec<(usize, _)>| loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(class) = classes.get(index) else { return done };
            verify(class, &mut done);
        };
        let mut done = std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(|| work(Vec::new()))).collect();
            let mut first = Vec::with_capacity(largest.len());
            verify(largest, &mut first);
            let mut done = work(first);
            for helper in helpers {
                done.extend(helper.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
            }
            done
        });
        done.sort_unstable_by_key(|(index, _)| *index);
        done.into_iter().map(|(_, result)| result).collect()
    }

    /// Serves `job` from `searched`, the search of another member of its
    /// renaming class: builds `job`'s own model and replays each of
    /// `searched`'s counterexample paths on it, which renders `job`'s own
    /// names and re-checks every violation.  Co-violations of one step
    /// share one replay, as they share one trace in a search.  The
    /// statistics are `searched`'s, except the trace bytes, which count the
    /// replayed traces.  A truncated search is served truncated.
    ///
    /// When a path does not replay, the class key merged groups that behave
    /// differently: a flight-recorder warning is recorded and `job` is
    /// searched itself.
    fn serve(&self, job: &GroupJob, searched: &GroupResult) -> GroupResult {
        let model = self.pipeline.group_model(&job.members, job.config.clone());
        let source = &searched.report.violations;
        let mut violations = Vec::with_capacity(source.len());
        let mut unserved = &source[..];
        while let Some(first) = unserved.first() {
            let (run, tail) =
                unserved.split_at(unserved.iter().take_while(|v| v.path == first.path).count());
            let properties: Vec<u32> = run.iter().map(|v| v.violation.property).collect();
            let trace = match replay(&model, &first.path, &properties) {
                Ok(trace) => Arc::new(trace),
                Err(error) => {
                    flight::record(
                        Level::Warn,
                        EventCode::Diagnostic,
                        &format!(
                            "group [{}] did not replay its renaming class's search ({error}); \
                             searching it directly",
                            job.apps.join(", ")
                        ),
                    );
                    return self.verify_job(job);
                }
            };
            violations.extend(run.iter().map(|found| FoundViolation {
                violation: found.violation.clone(),
                trace: Arc::clone(&trace),
                depth: found.depth,
                path: found.path.clone(),
            }));
            unserved = tail;
        }
        let trace_bytes = |found: &[FoundViolation]| -> usize {
            found.iter().map(|v| v.trace.memory_bytes()).sum()
        };
        let mut stats = searched.report.stats.clone();
        stats.peak_trace_bytes =
            stats.peak_trace_bytes.saturating_sub(trace_bytes(source)) + trace_bytes(&violations);
        METRICS.planner_served_by_renaming.inc();
        GroupResult { apps: job.apps.clone(), report: SearchReport { violations, stats } }
    }

    /// Runs every job of `plan`, reusing cached results where the
    /// fingerprint matches, and merges the verdicts deterministically.
    ///
    /// Each round claims every pending fingerprint without blocking and
    /// looks the claimed ones up; the misses are verified concurrently on
    /// scoped threads, one per free core, largest first, one search per
    /// renaming class and the class's other members served from it (a round
    /// with at most one class spawns nothing, and the calling thread takes
    /// the largest class itself).  Served members count as misses.  Then, in
    /// plan order on the calling thread, the complete results are inserted —
    /// so a durable backing sees its writes in the same order as a serial
    /// run would make them — and the round's claims are released.
    /// Fingerprints another caller held are waited for and become the next
    /// round; with [`VerificationCache`] every claim succeeds and one round
    /// does everything.
    ///
    /// No deadlock: the only blocking call, [`PlanCache::wait`], is made
    /// while this caller holds no claims, and a claim holder never waits
    /// before releasing — it verifies (a bounded search), inserts and
    /// drops its claims.  So every awaited claim is released in finite
    /// time.  A panic, here or on a group thread (re-raised by
    /// `resume_unwind`), unwinds through the round and drops every claim.
    ///
    /// Cache discipline: claiming before looking up means a result filed by
    /// the previous holder is always seen, so no fingerprint is verified
    /// twice by callers sharing a cache.  Only complete (non-truncated)
    /// reports are inserted; when a holder's report was truncated, the
    /// waiter verifies the group again under its own budget.  A hit replays
    /// the stored report without touching the model checker.  Violation
    /// traces are fed to [`iotsan_attribution::attribute_traces`] to rank
    /// each group's apps per violation: a fresh group's on the group thread
    /// that verified it, a hit's on the calling thread.
    pub fn execute<C: PlanCache>(&self, plan: &FleetPlan, cache: &mut C) -> FleetReport {
        debug_assert_eq!(
            plan.jobs.iter().map(|job| job.fingerprint).collect::<BTreeSet<_>>().len(),
            plan.jobs.len(),
            "fingerprints within one plan must be unique"
        );
        // Per job: the result, its attributions, and whether it was a hit.
        let mut results: Vec<Option<(GroupResult, Vec<TraceAttribution>, bool)>> =
            vec![None; plan.jobs.len()];
        let mut cache_misses = 0;
        let mut persist_failures = 0;
        let mut pending: Vec<usize> = (0..plan.jobs.len()).collect();
        while !pending.is_empty() {
            let mut owned = Vec::new();
            let mut busy = Vec::new();
            for index in pending {
                let fingerprint = plan.jobs[index].fingerprint;
                match cache.claim(fingerprint) {
                    None => busy.push(index),
                    Some(claim) => match cache.lookup(fingerprint) {
                        Some(hit) => {
                            let attributions = attribute_traces(&hit.apps, &hit.report.violations);
                            results[index] = Some((hit, attributions, true));
                        }
                        None => owned.push((index, claim)),
                    },
                }
            }
            let jobs: Vec<&GroupJob> = owned.iter().map(|(index, _)| &plan.jobs[*index]).collect();
            cache_misses += jobs.len();
            for (&(index, _), (fresh, attributions)) in owned.iter().zip(self.verify_jobs(&jobs)) {
                if !fresh.report.stats.truncated
                    && !cache.insert(plan.jobs[index].fingerprint, fresh.clone())
                {
                    persist_failures += 1;
                }
                results[index] = Some((fresh, attributions, false));
            }
            drop(owned); // releases this round's claims
            for &index in &busy {
                cache.wait(plan.jobs[index].fingerprint);
            }
            pending = busy;
        }

        let mut groups: Vec<FleetGroupReport> = plan
            .jobs
            .iter()
            .zip(results)
            .map(|(job, result)| {
                let (result, attributions, from_cache) =
                    result.expect("every round resolves its claims");
                FleetGroupReport {
                    apps: result.apps,
                    fingerprint: job.fingerprint,
                    from_cache,
                    report: result.report,
                    attributions,
                }
            })
            .collect();
        groups.sort_by(|a, b| a.apps.cmp(&b.apps));
        FleetReport {
            groups,
            excluded_apps: plan.excluded_apps.clone(),
            original_handlers: plan.original_handlers,
            reduced_handlers: plan.reduced_handlers,
            cache_hits: plan.jobs.len() - cache_misses,
            cache_misses,
            persist_failures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::translate_sources;
    use iotsan_config::{expert_configure, standard_household};

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

    const NIGHT_LIGHT: &str = r#"
definition(name: "Brighten My Path", namespace: "st", author: "a", description: "d")
preferences {
    section("s") { input "motionSensor", "capability.motionSensor" }
    section("s") { input "lights", "capability.switch", multiple: true }
}
def installed() { subscribe(motionSensor, "motion.active", motionActiveHandler) }
def motionActiveHandler(evt) { lights.on() }
"#;

    fn bundle() -> (Vec<IrApp>, SystemConfig) {
        let apps = translate_sources(&[AUTO_MODE, UNLOCK_DOOR, NIGHT_LIGHT]).unwrap();
        let config = expert_configure(&apps, &standard_household());
        (apps, config)
    }

    #[test]
    fn plan_partitions_and_orders_largest_first() {
        let (apps, config) = bundle();
        let pipeline = Pipeline::with_events(1);
        let plan = VerificationPlanner::new(&pipeline).plan(&apps, &config);
        assert!(plan.jobs.len() >= 2, "plan: {plan:?}");
        for pair in plan.jobs.windows(2) {
            assert!(pair[0].handler_count >= pair[1].handler_count);
        }
        // The mode/lock chain is one group; the night light is another.
        assert_eq!(plan.jobs_for("Brighten My Path").len(), 1);
        assert!(plan
            .jobs_for("Auto Mode Change")
            .iter()
            .all(|j| j.apps.contains(&"Unlock Door".to_string())));
        assert_eq!(plan.original_handlers, 4);
    }

    #[test]
    fn fingerprints_are_stable_and_content_sensitive() {
        let (apps, config) = bundle();
        let pipeline = Pipeline::with_events(2);
        let planner = VerificationPlanner::new(&pipeline);
        let a = planner.plan(&apps, &config);
        let b = planner.plan(&apps, &config);
        assert_eq!(a, b);

        // Mutating one app's IR (not its event profile) changes only the
        // fingerprints of the jobs containing it.
        let mut mutated = apps.clone();
        mutated[2].description = "patched".into();
        let c = planner.plan(&mutated, &config);
        assert_eq!(a.jobs.len(), c.jobs.len());
        for (old, new) in a.jobs.iter().zip(&c.jobs) {
            assert_eq!(old.apps, new.apps);
            if old.apps.contains(&"Brighten My Path".to_string()) {
                assert_ne!(old.fingerprint, new.fingerprint);
            } else {
                assert_eq!(old.fingerprint, new.fingerprint);
            }
        }

        // A different search depth is a different task.
        let deeper = Pipeline::with_events(3);
        let d = VerificationPlanner::new(&deeper).plan(&apps, &config);
        for (old, new) in a.jobs.iter().zip(&d.jobs) {
            assert_ne!(old.fingerprint, new.fingerprint);
        }

        // The no-op `with_workers` leaves the task identity alone.
        let workers = Pipeline::with_events(2).with_workers(4);
        let e = VerificationPlanner::new(&workers).plan(&apps, &config);
        for (old, new) in a.jobs.iter().zip(&e.jobs) {
            assert_eq!(old.fingerprint, new.fingerprint);
        }
    }

    #[test]
    fn custom_properties_invalidate_fingerprints_exactly() {
        use iotsan_properties::{Expr, PropertySet, PropertySpec};
        let (apps, config) = bundle();
        let base = Pipeline::with_events(1);
        let custom_spec =
            PropertySpec::builder(46, "No Night mode, ever").never(Expr::mode_is("Night"));
        let custom =
            Pipeline::with_events(1).with_properties(PropertySet::all().with(custom_spec.clone()));

        let a = VerificationPlanner::new(&base).plan(&apps, &config);
        let b = VerificationPlanner::new(&custom).plan(&apps, &config);
        // Every group verifies every property, so a new spec invalidates all
        // cached verdicts...
        for (old, new) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(old.apps, new.apps);
            assert_ne!(old.fingerprint, new.fingerprint);
        }
        // ...while re-registering an identical spec reproduces identical
        // fingerprints, keeping warmed caches valid across runs.
        let again = Pipeline::with_events(1).with_properties(PropertySet::all().with(custom_spec));
        let c = VerificationPlanner::new(&again).plan(&apps, &config);
        assert_eq!(b, c);
    }

    #[test]
    fn execute_caches_and_replays_identically() {
        let (apps, config) = bundle();
        let pipeline = Pipeline::with_events(2);
        let planner = VerificationPlanner::new(&pipeline);
        let plan = planner.plan(&apps, &config);
        let mut cache = VerificationCache::new();

        let cold = planner.execute(&plan, &mut cache);
        assert_eq!(cold.cache_misses, plan.jobs.len());
        assert_eq!(cold.cache_hits, 0);
        assert!(cold.has_violations());

        let warm = planner.execute(&plan, &mut cache);
        assert_eq!(warm.cache_hits, plan.jobs.len());
        assert_eq!(warm.cache_misses, 0);
        assert!((warm.cache_hit_rate() - 1.0).abs() < 1e-9);
        assert_eq!(warm.outcome(), cold.outcome());
        assert_eq!(warm.violated_properties(), cold.violated_properties());
    }

    #[test]
    fn truncated_reports_are_not_cached() {
        let (apps, config) = bundle();
        let mut pipeline = Pipeline::with_events(2);
        pipeline.search.max_transitions = 1; // guarantees truncation
        let planner = VerificationPlanner::new(&pipeline);
        let plan = planner.plan(&apps, &config);
        let mut cache = VerificationCache::new();
        let report = planner.execute(&plan, &mut cache);
        assert!(report.groups.iter().any(|g| g.report.stats.truncated));
        let truncated_groups = report.groups.iter().filter(|g| g.report.stats.truncated).count();
        assert_eq!(cache.len(), plan.jobs.len() - truncated_groups);
    }

    #[test]
    fn attributions_rank_the_final_actor_first() {
        let (apps, config) = bundle();
        let pipeline = Pipeline::with_events(2);
        let mut cache = VerificationCache::new();
        let report = pipeline.verify_fleet(&apps, &config, &mut cache);
        let group = report
            .groups_containing("Unlock Door")
            .into_iter()
            .find(|g| g.report.has_violations())
            .expect("the mode/lock group violates");
        assert_eq!(group.attributions.len(), group.report.violations.len());
        let unlock = group
            .attributions
            .iter()
            .find(|a| a.description.contains("main door"))
            .expect("a main-door attribution");
        // Unlock Door's handler performs the final unlock: prime suspect.
        assert_eq!(&*unlock.prime_suspect().unwrap().app, "Unlock Door");
    }

    #[test]
    fn empty_bundle_yields_empty_plan_and_report() {
        let pipeline = Pipeline::with_events(1);
        let config = SystemConfig::new();
        let planner = VerificationPlanner::new(&pipeline);
        let plan = planner.plan(&[], &config);
        assert!(plan.jobs.is_empty());
        let mut cache = VerificationCache::new();
        let report = planner.execute(&plan, &mut cache);
        assert!(report.groups.is_empty());
        assert!(!report.has_violations());
        assert_eq!(report.cache_hit_rate(), 0.0);
        assert_eq!(report.scale_ratio(), 1.0);
    }

    #[test]
    fn fingerprint_displays_as_hex() {
        let fp = Fingerprint(0xdead_beef);
        assert_eq!(fp.to_string(), "00000000deadbeef");
    }
}
