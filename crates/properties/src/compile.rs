//! Compilation of [`PropertySpec`](crate::PropertySpec)s into evaluators over
//! the model checker's state vector.
//!
//! The checker evaluates every open property once per explored transition,
//! so the interpreted [`crate::Expr::eval`] walk (selector matching,
//! attribute-name lookups, rendered values) is far too slow for the hot
//! path.  At install time the [`CompiledPropertySet`] resolves everything
//! that is fixed by the installed system against a [`CompileTarget`]:
//!
//! * every state atom becomes `(device, attribute, mask)` slots.  Bit `i` of
//!   the `u64` mask is set when the attribute's `i`-th domain value passes
//!   the atom's test (loose equality, a numeric threshold).  A
//!   [`DeviceState`] only ever holds domain indices, so an atom is a pure
//!   function of those indices and evaluating it is a bit test: no rendered
//!   value, no string compare, no float parse.  Mode tests are masks over
//!   [`LocationMode`] indices, offline tests read the online flag;
//! * constants fold: existence tests, empty selections, all-zero masks and
//!   mode masks covering no mode (or every mode) propagate through
//!   `Not`/`And`/`Or`.  A property whose violation condition folds to
//!   `false` can never fire and is dropped, and so is every atom that only
//!   dropped properties read;
//! * formulas become flat postfix programs over a shared, deduplicated atom
//!   table: each live atom is evaluated once per transition, then every
//!   property's program runs on a `u64` bit stack.  [`MAX_FORMULA_DEPTH`]
//!   bounds that stack; deeper specs are rejected wherever specs are
//!   checked.
//!
//! Evaluation reuses an [`EvalScratch`] (one bool per atom), so a
//! steady-state transition check performs no heap allocation.  Leads-to
//! obligations are tracked in caller-owned per-property monitor counters
//! that are part of the model-checker state identity.
//!
//! The checker reports each property once, with its first counterexample.
//! [`CompiledPropertySet::settle`] tells a scratch that a property is
//! reported: from then on that scratch skips the property's program, and
//! every atom only settled programs read.  A leads-to property with
//! `within > 0` is never settled, because its countdown is part of the
//! successor state.

use crate::registry::PropertySet;
use crate::snapshot::{
    has_conflicting_commands, has_repeated_commands, CommandCode, DeviceRole, StepObservation,
};
use crate::spec::{Atom, DeviceSelect, Expr, Modality, PropertyId, MAX_FORMULA_DEPTH};
use iotsan_devices::{AttrDomain, DeviceSpec, DeviceState, LocationMode};
use iotsan_ir::Value;

/// One installed device, as the compiler sees it: identity for selector
/// matching plus the spec that fixes its state-vector layout.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetDevice {
    /// The raw device id (`DeviceId.0`), used to match step command records.
    pub id: u32,
    /// User-facing label.
    pub label: String,
    /// User-assigned role.
    pub role: DeviceRole,
    /// The device's spec: its capability, and the attributes (in
    /// [`DeviceState`] order) with their value domains.
    pub spec: &'static DeviceSpec,
}

/// The installed-system layout properties are compiled against.  Device
/// positions must match the positions of the [`DeviceState`]s later passed
/// to [`CompiledPropertySet::check_transition`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompileTarget {
    /// The installed devices, in state-vector order.
    pub devices: Vec<TargetDevice>,
}

impl CompileTarget {
    /// A target over the given devices.
    pub fn new(devices: Vec<TargetDevice>) -> Self {
        CompileTarget { devices }
    }

    /// Positions of every selected device.
    fn selected<'a>(&'a self, select: &'a DeviceSelect) -> impl Iterator<Item = usize> + 'a {
        self.devices
            .iter()
            .enumerate()
            .filter(|(_, d)| select.matches(&d.label, d.spec.capability, d.role))
            .map(|(i, _)| i)
    }

    /// How many devices `select` picks, and one slot per picked device that
    /// has `attribute`, masking the domain values that pass `test`.
    fn attr_slots(
        &self,
        select: &DeviceSelect,
        attribute: &str,
        test: impl Fn(&Value) -> bool,
    ) -> (usize, Vec<Slot>) {
        let mut selected = 0;
        let mut slots = Vec::new();
        for di in self.selected(select) {
            selected += 1;
            let spec = self.devices[di].spec;
            if let Some(ai) = spec.attribute_index(attribute) {
                let mask = domain_mask(&spec.attributes[ai].domain, &test);
                slots.push(Slot { device: di as u16, attr: ai as u8, mask });
            }
        }
        (selected, slots)
    }

    /// Lowers one atom, folding what the installation fixes.
    fn lower(&self, atom: &Atom) -> Node {
        let lowered = match atom {
            Atom::ModeIs(name) => CAtom::mode(mode_mask(|m| m.name().eq_ignore_ascii_case(name))),
            Atom::AnyoneHome => {
                // With presence sensors installed, "anyone home" means some
                // sensor reports `present`; without any, the location mode
                // not being Away is the paper's proxy.
                let presence = DeviceSelect::capability("presenceSensor");
                let (_, slots) = self.attr_slots(&presence, "presence", |v| v.eq_str("present"));
                if slots.is_empty() {
                    CAtom::mode(mode_mask(|m| !m.name().eq_ignore_ascii_case("away")))
                } else {
                    CAtom::any(slots)
                }
            }
            Atom::AnyAttr(t) => {
                CAtom::any(self.attr_slots(&t.select, &t.attribute, |v| v.eq_str(&t.value)).1)
            }
            Atom::AllAttr(t) => {
                // A selected device *without* the attribute fails the test
                // (`attr_is` on a missing attribute is false).
                let (selected, mut slots) =
                    self.attr_slots(&t.select, &t.attribute, |v| v.eq_str(&t.value));
                if slots.len() < selected || slots.iter().any(|s| s.mask == 0) {
                    CAtom::Const(false)
                } else {
                    // Slots accepting every domain value always pass.
                    slots.retain(|s| {
                        let domain = &self.devices[s.device as usize].spec.attributes
                            [s.attr as usize]
                            .domain;
                        s.mask != domain_mask(domain, |_| true)
                    });
                    if slots.is_empty() {
                        CAtom::Const(true)
                    } else {
                        CAtom::All(slots)
                    }
                }
            }
            Atom::HasDevice(select) => CAtom::Const(self.selected(select).next().is_some()),
            Atom::AnyOffline(select) => {
                let devices: Vec<u16> = self.selected(select).map(|i| i as u16).collect();
                if devices.is_empty() {
                    CAtom::Const(false)
                } else {
                    CAtom::AnyOffline(devices)
                }
            }
            Atom::AnyBelow(t) => CAtom::any(
                self.attr_slots(&t.select, &t.attribute, |v| {
                    v.as_number().is_some_and(|n| n < t.threshold)
                })
                .1,
            ),
            Atom::AnyAbove(t) => CAtom::any(
                self.attr_slots(&t.select, &t.attribute, |v| {
                    v.as_number().is_some_and(|n| n > t.threshold)
                })
                .1,
            ),
            Atom::ConflictingCommands => CAtom::Conflicting,
            Atom::RepeatedCommands => CAtom::Repeated,
            Atom::DisallowedNetwork => CAtom::DisallowedNetwork,
            Atom::SmsRecipientMismatch => CAtom::SmsMismatch,
            Atom::UnsubscribeCalled => CAtom::Unsubscribe,
            Atom::FakeEventRaised => CAtom::FakeEvent,
            Atom::CommandFailed => CAtom::CommandFailed,
            Atom::UserNotified => CAtom::UserNotified,
            Atom::CommandIssued(t) if t.select.is_any() => CAtom::CommandIssued {
                code: CommandCode::of(&t.command),
                command: t.command.clone(),
                devices: None,
            },
            Atom::CommandIssued(t) => {
                let ids: Vec<u32> = self.selected(&t.select).map(|i| self.devices[i].id).collect();
                if ids.is_empty() {
                    CAtom::Const(false)
                } else {
                    CAtom::CommandIssued {
                        code: CommandCode::of(&t.command),
                        command: t.command.clone(),
                        devices: Some(ids),
                    }
                }
            }
        };
        match lowered {
            CAtom::Const(b) => Node::Const(b),
            atom => Node::Atom(atom),
        }
    }

    /// Lowers a formula and folds its constants.
    fn fold(&self, expr: &Expr) -> Node {
        match expr {
            Expr::Atom(atom) => self.lower(atom),
            Expr::Not(e) => Node::not(self.fold(e)),
            Expr::All(es) => Node::nary(es.iter().map(|e| self.fold(e)), true),
            Expr::AnyOf(es) => Node::nary(es.iter().map(|e| self.fold(e)), false),
        }
    }
}

/// Bit `i` set when the domain's `i`-th value passes `test`.
fn domain_mask(domain: &AttrDomain, test: impl Fn(&Value) -> bool) -> u64 {
    assert!(domain.len() <= 64, "attribute domains are limited to 64 values");
    (0..domain.len()).filter(|&i| test(&domain.value(i))).fold(0, |mask, i| mask | 1 << i)
}

/// Bit `m.index()` set for every location mode `m` passing `test`.
fn mode_mask(test: impl Fn(LocationMode) -> bool) -> u64 {
    LocationMode::ALL.into_iter().filter(|&m| test(m)).fold(0, |mask, m| mask | 1 << m.index())
}

/// One device attribute an atom reads, with the domain indices it accepts.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Slot {
    device: u16,
    attr: u8,
    mask: u64,
}

impl Slot {
    #[inline]
    fn accepts(&self, devices: &[DeviceState]) -> bool {
        devices[self.device as usize]
            .raw(self.attr as usize)
            .is_some_and(|v| self.mask.checked_shr(u32::from(v)).is_some_and(|m| m & 1 != 0))
    }
}

/// A compiled atom: every name resolved to state-vector slots and masks.
#[derive(Debug, Clone, PartialEq)]
enum CAtom {
    /// A constant; only ever the whole of a program (folding removes every
    /// other occurrence).
    Const(bool),
    /// The location mode's index is in the mask.
    Mode(u64),
    /// Some slot accepts its device's value.
    Any(Vec<Slot>),
    /// Every slot accepts its device's value.
    All(Vec<Slot>),
    /// Some listed device is offline.
    AnyOffline(Vec<u16>),
    /// Step detectors (see [`crate::snapshot`]).
    Conflicting,
    Repeated,
    DisallowedNetwork,
    SmsMismatch,
    Unsubscribe,
    FakeEvent,
    CommandFailed,
    UserNotified,
    /// A command with the given code (and, outside the code table, name)
    /// reached one of the listed device ids (`None` = any device).
    CommandIssued {
        code: CommandCode,
        command: String,
        devices: Option<Vec<u32>>,
    },
}

impl CAtom {
    fn mode(mask: u64) -> CAtom {
        match mask {
            0 => CAtom::Const(false),
            m if m == mode_mask(|_| true) => CAtom::Const(true),
            m => CAtom::Mode(m),
        }
    }

    /// An existential over `slots`; slots accepting nothing drop out.
    fn any(mut slots: Vec<Slot>) -> CAtom {
        slots.retain(|s| s.mask != 0);
        if slots.is_empty() {
            CAtom::Const(false)
        } else {
            CAtom::Any(slots)
        }
    }

    fn reads_state(&self) -> bool {
        matches!(self, CAtom::Mode(_) | CAtom::Any(_) | CAtom::All(_) | CAtom::AnyOffline(_))
    }

    /// Evaluates the atom over the device states and location mode.
    #[inline]
    fn eval(&self, devices: &[DeviceState], mode: LocationMode, step: &StepObservation) -> bool {
        match self {
            CAtom::Const(v) => *v,
            CAtom::Mode(mask) => mask >> mode.index() & 1 != 0,
            CAtom::Any(slots) => slots.iter().any(|s| s.accepts(devices)),
            CAtom::All(slots) => slots.iter().all(|s| s.accepts(devices)),
            CAtom::AnyOffline(ds) => ds.iter().any(|&d| !devices[d as usize].is_online()),
            CAtom::Conflicting => has_conflicting_commands(step),
            CAtom::Repeated => has_repeated_commands(step),
            CAtom::DisallowedNetwork => step.network.iter().any(|n| !n.allowed),
            CAtom::SmsMismatch => step.sms_recipient_mismatch(),
            CAtom::Unsubscribe => !step.unsubscribes.is_empty(),
            CAtom::FakeEvent => !step.fake_events.is_empty(),
            CAtom::CommandFailed => step.command_failures > 0,
            CAtom::UserNotified => !step.messages.is_empty(),
            CAtom::CommandIssued { code, command, devices } => step.commands.iter().any(|c| {
                c.code == *code
                    && (*code != CommandCode::OTHER || c.command == *command)
                    && devices.as_ref().map_or(true, |ids| ids.contains(&c.device.0))
            }),
        }
    }
}

/// A formula after lowering and constant folding.  `Const` survives only as
/// a whole formula: [`Node::not`] and [`Node::nary`] absorb it everywhere
/// else.
#[derive(Debug)]
enum Node {
    Const(bool),
    Atom(CAtom),
    Not(Box<Node>),
    And(Vec<Node>),
    Or(Vec<Node>),
}

impl Node {
    fn not(node: Node) -> Node {
        match node {
            Node::Const(b) => Node::Const(!b),
            Node::Not(inner) => *inner,
            node => Node::Not(Box::new(node)),
        }
    }

    /// The conjunction (`and`) or disjunction of `nodes`: the identity
    /// constant drops out, the absorbing one decides the whole.
    fn nary(nodes: impl Iterator<Item = Node>, and: bool) -> Node {
        let mut kept = Vec::new();
        for node in nodes {
            match node {
                Node::Const(b) if b == and => {}
                Node::Const(b) => return Node::Const(b),
                node => kept.push(node),
            }
        }
        match kept.len() {
            0 => Node::Const(and),
            1 => kept.pop().expect("one node kept"),
            _ if and => Node::And(kept),
            _ => Node::Or(kept),
        }
    }
}

/// One postfix program instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    /// Push the atom's value.
    Push(u16),
    /// Negate the top.
    Not,
    /// Pop two, push the conjunction.
    And,
    /// Pop two, push the disjunction.
    Or,
}

/// A program is a range into the shared op tape.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Program {
    start: u32,
    len: u32,
}

/// How a compiled property decides violations.
#[derive(Debug, Clone, PartialEq)]
enum CompiledKind {
    /// Violated when the program evaluates true.  `never`, `always` and
    /// same-step leads-to (`trigger && !response`) all compile to this.
    Check { program: Program },
    /// Bounded response: a trigger opens an obligation the response must
    /// discharge within `within` further evaluated steps; the countdown
    /// lives in the caller's monitor slot.
    LeadsTo { trigger: Program, response: Program, within: u8, monitor: u16 },
}

/// One property compiled against an installed system.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProperty {
    id: PropertyId,
    /// Position of the spec in the source [`PropertySet`]: what the checks
    /// report for a violation.
    index: usize,
    kind: CompiledKind,
    step_only: bool,
}

impl CompiledProperty {
    /// The property's id in the source [`PropertySet`].
    pub fn id(&self) -> PropertyId {
        self.id
    }

    /// True when the property reads only the step observation (and is
    /// therefore evaluated on non-quiescent steps too).
    pub fn step_only(&self) -> bool {
        self.step_only
    }
}

/// Reusable evaluation buffer: one bool per atom.  Per-worker, cleared
/// (never reallocated) on every transition.
///
/// A fresh scratch evaluates every property of whichever set it is passed
/// to.  Once [`CompiledPropertySet::settle`] has run on it, it holds what
/// that set still checks, and it must only be used with that set.
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    atoms: Vec<bool>,
    /// `None` until the first [`CompiledPropertySet::settle`].
    open: Option<OpenChecks>,
}

/// What a settled [`EvalScratch`] still evaluates.
#[derive(Debug, Clone)]
struct OpenChecks {
    /// Positions in [`CompiledPropertySet::properties`] of the properties
    /// not settled, ascending.
    props: Vec<u32>,
    /// The live atoms: those some open property's program reads, ascending.
    atoms: Vec<u16>,
}

/// A [`PropertySet`] compiled against one installed system.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPropertySet {
    atoms: Vec<CAtom>,
    ops: Vec<Op>,
    props: Vec<CompiledProperty>,
    /// Number of leads-to monitor slots the caller must carry in its state.
    monitor_count: usize,
}

impl CompiledPropertySet {
    /// Compiles every spec in `set` against the target layout, dropping the
    /// properties that can never be violated there.
    ///
    /// # Panics
    ///
    /// Panics on a spec that fails [`PropertySpec::validate`](crate::PropertySpec::validate)
    /// (a leads-to `within` above 255, a formula deeper than
    /// [`MAX_FORMULA_DEPTH`]).
    pub fn compile(set: &PropertySet, target: &CompileTarget) -> Self {
        let mut c = Compiler { atoms: Vec::new(), ops: Vec::new() };
        let mut props = Vec::new();
        let mut monitor_count = 0usize;
        for (index, spec) in set.specs().iter().enumerate() {
            if let Err(err) = spec.validate() {
                panic!("{err}");
            }
            let kind = match &spec.modality {
                Modality::Never(e) => c.check(target.fold(e)),
                Modality::Always(e) => c.check(Node::not(target.fold(e))),
                Modality::LeadsTo(l) if l.within == 0 => c.check(Node::nary(
                    [target.fold(&l.trigger), Node::not(target.fold(&l.response))].into_iter(),
                    true,
                )),
                Modality::LeadsTo(l) => {
                    let monitor = monitor_count as u16;
                    monitor_count += 1;
                    Some(CompiledKind::LeadsTo {
                        trigger: c.program(target.fold(&l.trigger)),
                        response: c.program(target.fold(&l.response)),
                        within: l.within as u8,
                        monitor,
                    })
                }
            };
            if let Some(kind) = kind {
                props.push(CompiledProperty {
                    id: spec.property_id(),
                    index,
                    kind,
                    step_only: spec.step_only(),
                });
            }
        }
        CompiledPropertySet { atoms: c.atoms, ops: c.ops, props, monitor_count }
    }

    /// The number of monitor slots leads-to properties with `within > 0`
    /// need; the model checker carries this many `u8` countdown counters in
    /// its state vector (all zero initially).
    pub fn monitor_count(&self) -> usize {
        self.monitor_count
    }

    /// The live compiled properties (those that survived folding), in set
    /// order.
    pub fn properties(&self) -> &[CompiledProperty] {
        &self.props
    }

    /// Number of distinct live atoms shared by all programs.
    pub fn atom_count(&self) -> usize {
        self.atoms.len()
    }

    /// Every `(device, attribute, mask)` a live atom tests: `device` and
    /// `attribute` are positions in the [`CompileTarget`] and its spec, and
    /// bit `i` of `mask` is set when the attribute's `i`-th domain value
    /// passes.  The properties read attribute values through these masks
    /// alone, so two values every mask puts on the same side are the same
    /// to every property.
    pub fn slot_masks(&self) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        self.atoms
            .iter()
            .flat_map(|atom| match atom {
                CAtom::Any(slots) | CAtom::All(slots) => slots.as_slice(),
                _ => &[],
            })
            .map(|slot| (slot.device as usize, slot.attr as usize, slot.mask))
    }

    /// Evaluates every live property at a quiescent point, reading the
    /// device states and location mode straight from the state vector and
    /// the step observation.  Appends the position in the source
    /// [`PropertySet`]'s specs of every violated property to `out` and
    /// updates leads-to monitors in place.
    ///
    /// A settled `scratch` evaluates only the live atoms and the open
    /// properties (see [`CompiledPropertySet::settle`]).
    pub fn check_transition(
        &self,
        devices: &[DeviceState],
        mode: LocationMode,
        step: &StepObservation,
        monitors: &mut [u8],
        scratch: &mut EvalScratch,
        out: &mut Vec<usize>,
    ) {
        let EvalScratch { atoms, open } = scratch;
        let Some(open) = open else {
            atoms.clear();
            atoms.extend(self.atoms.iter().map(|atom| atom.eval(devices, mode, step)));
            for prop in &self.props {
                self.check_one(prop, monitors, atoms, out);
            }
            return;
        };
        // Atoms off the live list keep stale values: no open program reads
        // them.
        for &atom in &open.atoms {
            atoms[atom as usize] = self.atoms[atom as usize].eval(devices, mode, step);
        }
        for &prop in &open.props {
            self.check_one(&self.props[prop as usize], monitors, atoms, out);
        }
    }

    /// Evaluates only the step-only properties (the strict-concurrency
    /// design's non-quiescent steps, where physical-state invariants are
    /// deferred until the pending-event queue drains).
    pub fn check_step_only(
        &self,
        step: &StepObservation,
        monitors: &mut [u8],
        scratch: &mut EvalScratch,
        out: &mut Vec<usize>,
    ) {
        // Step-only programs never read a state atom, so those stay unset.
        let eval = |atom: &CAtom| !atom.reads_state() && atom.eval(&[], LocationMode::Home, step);
        let EvalScratch { atoms, open } = scratch;
        let Some(open) = open else {
            atoms.clear();
            atoms.extend(self.atoms.iter().map(eval));
            for prop in self.props.iter().filter(|p| p.step_only) {
                self.check_one(prop, monitors, atoms, out);
            }
            return;
        };
        for &atom in &open.atoms {
            atoms[atom as usize] = eval(&self.atoms[atom as usize]);
        }
        for prop in open.props.iter().map(|&p| &self.props[p as usize]).filter(|p| p.step_only) {
            self.check_one(prop, monitors, atoms, out);
        }
    }

    /// Stops `scratch` from checking `property`: the caller has reported
    /// it and will discard every later violation of it.  The property's
    /// program is no longer run, and an atom only settled programs read is
    /// no longer evaluated.  A leads-to property with `within > 0` keeps
    /// running, since its countdown is part of the caller's state; settling
    /// never changes a monitor.
    ///
    /// From the first call on, `scratch` belongs to this set.
    pub fn settle(&self, scratch: &mut EvalScratch, property: PropertyId) {
        let open = scratch.open.get_or_insert_with(|| OpenChecks {
            props: (0..self.props.len() as u32).collect(),
            atoms: Vec::new(),
        });
        open.props.retain(|&p| {
            let prop = &self.props[p as usize];
            prop.id != property || matches!(prop.kind, CompiledKind::LeadsTo { .. })
        });
        let mut live = vec![false; self.atoms.len()];
        for &p in &open.props {
            let programs = match self.props[p as usize].kind {
                CompiledKind::Check { program } => [Some(program), None],
                CompiledKind::LeadsTo { trigger, response, .. } => [Some(trigger), Some(response)],
            };
            for op in programs.into_iter().flatten().flat_map(|program| self.ops_of(program)) {
                if let Op::Push(atom) = *op {
                    live[atom as usize] = true;
                }
            }
        }
        open.atoms = (0..live.len()).filter(|&a| live[a]).map(|a| a as u16).collect();
        scratch.atoms.resize(self.atoms.len(), false);
    }

    fn check_one(
        &self,
        prop: &CompiledProperty,
        monitors: &mut [u8],
        atoms: &[bool],
        out: &mut Vec<usize>,
    ) {
        match prop.kind {
            CompiledKind::Check { program } => {
                if self.run(program, atoms) {
                    out.push(prop.index);
                }
            }
            CompiledKind::LeadsTo { trigger, response, within, monitor } => {
                let triggered = self.run(trigger, atoms);
                let responded = self.run(response, atoms);
                let slot = &mut monitors[monitor as usize];
                if responded {
                    // A response discharges every open obligation at once.
                    *slot = 0;
                    return;
                }
                let mut violated = false;
                if *slot > 0 {
                    *slot -= 1;
                    violated = *slot == 0;
                }
                // The counter tracks the *earliest* open obligation — the
                // first deadline to expire.  A re-trigger while one is
                // pending must therefore never refresh the countdown (that
                // would silently extend the first obligation's deadline and
                // miss its violation); a new countdown starts only when no
                // obligation is open (including right after one just
                // expired — the new trigger stands on its own).
                if triggered && *slot == 0 {
                    *slot = within;
                }
                if violated {
                    out.push(prop.index);
                }
            }
        }
    }

    /// Runs a postfix program on a bit stack whose top is bit 0: a push
    /// shifts the stack left, a binary op folds bit 0 into bit 1 and shifts
    /// right.  Validation bounds every program by [`MAX_FORMULA_DEPTH`]
    /// live values, so nothing ever shifts out.
    #[inline]
    fn run(&self, program: Program, atoms: &[bool]) -> bool {
        let mut stack = 0u64;
        for op in self.ops_of(program) {
            stack = match *op {
                Op::Push(atom) => stack << 1 | u64::from(atoms[atom as usize]),
                Op::Not => stack ^ 1,
                Op::And => (stack >> 1) & (stack | !1),
                Op::Or => (stack >> 1) | (stack & 1),
            };
        }
        stack & 1 != 0
    }

    /// The program's ops on the shared tape.
    #[inline]
    fn ops_of(&self, program: Program) -> &[Op] {
        &self.ops[program.start as usize..(program.start + program.len) as usize]
    }
}

struct Compiler {
    atoms: Vec<CAtom>,
    ops: Vec<Op>,
}

impl Compiler {
    /// A `Check` over a property's violation condition, or `None` when the
    /// condition folded to `false` (the property can never fire here).
    fn check(&mut self, violated: Node) -> Option<CompiledKind> {
        match violated {
            Node::Const(false) => None,
            node => Some(CompiledKind::Check { program: self.program(node) }),
        }
    }

    fn program(&mut self, node: Node) -> Program {
        let start = self.ops.len() as u32;
        let depth = self.emit(node);
        // Folding only removes operands, so a validated spec's programs
        // stay within the bound.
        debug_assert!(depth <= MAX_FORMULA_DEPTH, "program depth {depth}");
        Program { start, len: self.ops.len() as u32 - start }
    }

    /// Appends `node`'s postfix ops and returns the stack depth they need.
    fn emit(&mut self, node: Node) -> usize {
        match node {
            Node::Const(b) => self.push(CAtom::Const(b)),
            Node::Atom(atom) => self.push(atom),
            Node::Not(inner) => {
                let depth = self.emit(*inner);
                self.ops.push(Op::Not);
                depth
            }
            Node::And(nodes) => self.emit_nary(nodes, Op::And),
            Node::Or(nodes) => self.emit_nary(nodes, Op::Or),
        }
    }

    fn emit_nary(&mut self, nodes: Vec<Node>, op: Op) -> usize {
        let mut depth = 0;
        for (i, node) in nodes.into_iter().enumerate() {
            depth = depth.max(self.emit(node) + usize::from(i > 0));
            if i > 0 {
                self.ops.push(op);
            }
        }
        depth
    }

    /// Pushes the atom, interning it in the shared table.
    fn push(&mut self, atom: CAtom) -> usize {
        let slot = match self.atoms.iter().position(|a| *a == atom) {
            Some(pos) => pos,
            None => {
                assert!(
                    self.atoms.len() <= u16::MAX as usize,
                    "property set exceeds {} distinct atoms",
                    u16::MAX as usize + 1
                );
                self.atoms.push(atom);
                self.atoms.len() - 1
            }
        };
        self.ops.push(Op::Push(slot as u16));
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{DeviceSnapshot, Snapshot};
    use crate::spec::PropertySpec;
    use iotsan_devices::{registry, DeviceId};

    /// A compile target with the matching state vector.
    struct Home {
        target: CompileTarget,
        devices: Vec<DeviceState>,
        mode: LocationMode,
    }

    impl Home {
        fn new(devices: &[(&str, DeviceRole)]) -> Home {
            let target = CompileTarget::new(
                devices
                    .iter()
                    .enumerate()
                    .map(|(i, (capability, role))| TargetDevice {
                        id: i as u32,
                        label: format!("d{i}"),
                        role: *role,
                        spec: registry().spec(capability).expect("built-in capability"),
                    })
                    .collect(),
            );
            let devices = target.devices.iter().map(|d| DeviceState::initial(d.spec)).collect();
            Home { target, devices, mode: LocationMode::Home }
        }

        /// Presence sensor, main door lock, smoke detector, heater outlet.
        fn household() -> Home {
            Home::new(&[
                ("presenceSensor", DeviceRole::Generic),
                ("lock", DeviceRole::MainDoorLock),
                ("smokeDetector", DeviceRole::Generic),
                ("switch", DeviceRole::Heater),
            ])
        }

        fn set(&mut self, device: usize, attribute: &str, value: &str) {
            let spec = self.target.devices[device].spec;
            self.devices[device].set(spec, attribute, &Value::Str(value.into()));
        }

        /// The interpreted reference's view of the same state.
        fn snapshot(&self) -> Snapshot {
            let devices = self
                .target
                .devices
                .iter()
                .zip(&self.devices)
                .map(|(d, state)| DeviceSnapshot {
                    id: DeviceId(d.id),
                    label: d.label.clone(),
                    capability: d.spec.capability.to_string(),
                    role: d.role,
                    attributes: d
                        .spec
                        .attributes
                        .iter()
                        .map(|a| (a.name.to_string(), state.get(d.spec, a.name)))
                        .collect(),
                    online: state.is_online(),
                })
                .collect();
            Snapshot { mode: self.mode.name().to_string(), devices, time_seconds: 0 }
        }

        fn compile(&self, set: &PropertySet) -> CompiledPropertySet {
            CompiledPropertySet::compile(set, &self.target)
        }

        /// Ids of the properties the compiled set reports violated.
        fn violated(
            &self,
            set: &PropertySet,
            compiled: &CompiledPropertySet,
            step: &StepObservation,
            monitors: &mut [u8],
        ) -> Vec<u32> {
            let mut out = Vec::new();
            let mut scratch = EvalScratch::default();
            compiled.check_transition(
                &self.devices,
                self.mode,
                step,
                monitors,
                &mut scratch,
                &mut out,
            );
            let mut ids: Vec<u32> = out.iter().map(|&i| set.specs()[i].id).collect();
            ids.sort_unstable();
            ids
        }

        /// Ids the interpreted reference reports violated.
        fn interpreted(&self, set: &PropertySet, step: &StepObservation) -> Vec<u32> {
            let mut ids: Vec<u32> =
                set.check_point(&self.snapshot(), step).into_iter().map(|id| id.0).collect();
            ids.sort_unstable();
            ids
        }

        /// Compiles `spec` alone and reports whether it is violated now.
        fn one(&self, spec: &PropertySpec) -> bool {
            let set = PropertySet::from_specs(vec![spec.clone()]);
            let compiled = self.compile(&set);
            let mut monitors = vec![0u8; compiled.monitor_count()];
            !self.violated(&set, &compiled, &StepObservation::default(), &mut monitors).is_empty()
        }
    }

    #[test]
    fn selectors_resolve_to_slots_and_constants_fold() {
        let mut home = Home::household();
        let set = PropertySet::from_specs(vec![PropertySpec::builder(1, "p").never(Expr::and([
            Expr::has_device(DeviceSelect::role("heater")),
            Expr::capability_attr("lock", "lock", "unlocked"),
        ]))]);
        let compiled = home.compile(&set);
        // `has_device` folded away; the lock test is the one atom left.
        assert_eq!(compiled.atom_count(), 1);
        assert!(!home.one(&set.specs()[0]));
        home.set(1, "lock", "unlocked");
        assert!(home.one(&set.specs()[0]));
    }

    #[test]
    fn anyone_home_compiles_to_presence_or_mode_fallback() {
        let spec = PropertySpec::builder(1, "p").always(Expr::anyone_home());
        let mut home = Home::household();
        assert!(!home.one(&spec));
        home.set(0, "presence", "not present");
        assert!(home.one(&spec));

        // No presence sensors: mode decides.
        let mut bare = Home::new(&[]);
        assert!(!bare.one(&spec));
        bare.mode = LocationMode::Away;
        assert!(bare.one(&spec));
    }

    #[test]
    fn numeric_thresholds_become_domain_masks() {
        // The temperature domain is {30, 50, 60, 68, 75, 85, 95}.
        let mut home = Home::new(&[("temperatureMeasurement", DeviceRole::Generic)]);
        let below = |t| {
            PropertySpec::builder(1, "cold").never(Expr::any_below(
                DeviceSelect::any(),
                "temperature",
                t,
            ))
        };
        // No domain value is below 20: the property folds away entirely.
        let compiled = home.compile(&PropertySet::from_specs(vec![below(20.0)]));
        assert!(compiled.properties().is_empty());
        assert_eq!(compiled.atom_count(), 0);
        assert!(!home.one(&below(50.0)));
        home.set(0, "temperature", "30");
        assert!(home.one(&below(50.0)));
        assert!(!home.one(&below(30.0)));
    }

    #[test]
    fn compiled_verdicts_match_interpreted_for_builtins() {
        // Every built-in property agrees with the interpreted reference on a
        // handful of hand-made situations.
        let set = PropertySet::all();
        let mut home = Home::household();
        home.mode = LocationMode::Night;
        home.set(1, "lock", "unlocked");
        home.set(2, "smoke", "detected");
        home.devices[2].set_online(false);
        home.set(3, "switch", "on");
        let step = StepObservation::default();
        let compiled = home.compile(&set);
        let want = home.interpreted(&set, &step);
        assert_eq!(home.violated(&set, &compiled, &step, &mut []), want);
        assert!(!want.is_empty());
    }

    #[test]
    fn folding_drops_only_properties_that_can_never_fire() {
        // An empty home: every property over devices folds away, and none
        // of the dropped ones fires in any mode under any step.
        let set = PropertySet::all();
        let mut home = Home::new(&[]);
        let compiled = home.compile(&set);
        let live: Vec<u32> = compiled.properties().iter().map(|p| p.id().0).collect();
        assert!(live.len() < set.len() / 2, "live: {live:?}");
        let busy = StepObservation {
            unsubscribes: vec!["A".into()],
            command_failures: 1,
            ..Default::default()
        };
        for mode in LocationMode::ALL {
            home.mode = mode;
            for step in [StepObservation::default(), busy.clone()] {
                let fired = home.interpreted(&set, &step);
                assert!(fired.iter().all(|id| live.contains(id)), "{fired:?} vs live {live:?}");
                assert_eq!(home.violated(&set, &compiled, &step, &mut []), fired);
            }
        }
    }

    #[test]
    fn deepest_legal_formula_runs_on_the_bit_stack() {
        // Alternating and/or nesting down the second operand: every level
        // holds one more value on the stack, up to the bound exactly.
        let modes = ["Home", "Away", "Night"];
        let expr = (1..MAX_FORMULA_DEPTH).fold(Expr::mode_is("Night"), |inner, level| {
            let atom = Expr::mode_is(modes[level % 3]);
            if level % 2 == 0 {
                Expr::and([Expr::not(atom), inner])
            } else {
                Expr::or([atom, inner])
            }
        });
        assert_eq!(expr.stack_depth(), MAX_FORMULA_DEPTH);
        let spec = PropertySpec::builder(1, "deep").never(expr);
        let set = PropertySet::from_specs(vec![spec]);
        let mut home = Home::new(&[]);
        for mode in LocationMode::ALL {
            home.mode = mode;
            let compiled = home.compile(&set);
            let step = StepObservation::default();
            assert_eq!(
                home.violated(&set, &compiled, &step, &mut []),
                home.interpreted(&set, &step)
            );
        }
    }

    #[test]
    #[should_panic(expected = "evaluation stack")]
    fn formulas_beyond_the_stack_bound_fail_compilation() {
        let deep = (0..MAX_FORMULA_DEPTH)
            .fold(Expr::mode_is("Night"), |inner, _| Expr::or([Expr::mode_is("Home"), inner]));
        let spec = PropertySpec {
            id: 9,
            name: "deep".into(),
            category: String::new(),
            class: crate::spec::PropertyClass::Custom("Custom".into()),
            modality: Modality::Never(deep),
            ltl: None,
        };
        let _ = CompiledPropertySet::compile(
            &PropertySet::from_specs(vec![spec]),
            &CompileTarget::default(),
        );
    }

    #[test]
    fn step_only_pass_skips_state_properties() {
        let home = Home::household();
        let set = PropertySet::all();
        let compiled = home.compile(&set);
        let step = StepObservation {
            unsubscribes: vec!["A".into()],
            command_failures: 1,
            ..Default::default()
        };
        let mut scratch = EvalScratch::default();
        let mut out = Vec::new();
        compiled.check_step_only(&step, &mut [], &mut scratch, &mut out);
        let ids: Vec<u32> = out.iter().map(|&i| set.specs()[i].id).collect();
        // Unsubscribe (43) and the same-step robustness response (45) fire;
        // no physical-state property can.
        assert_eq!(ids, vec![43, 45]);
    }

    fn notify_within_two() -> PropertySet {
        PropertySet::from_specs(vec![PropertySpec::builder(9, "failures notify within 2")
            .leads_to(Expr::atom(Atom::CommandFailed), Expr::atom(Atom::UserNotified), 2)])
    }

    #[test]
    fn leads_to_monitors_count_down_and_discharge() {
        let set = notify_within_two();
        let home = Home::new(&[]);
        let compiled = home.compile(&set);
        assert_eq!(compiled.monitor_count(), 1);
        let failing = StepObservation { command_failures: 1, ..Default::default() };
        let quiet = StepObservation::default();
        let notified = StepObservation {
            messages: vec![crate::snapshot::MessageRecord {
                app: "A".into(),
                channel: crate::snapshot::MessageChannel::Push,
                recipient: String::new(),
                body: "b".into(),
            }],
            ..Default::default()
        };

        // Trigger, silence, silence → violated exactly on the second
        // follow-up step.
        let mut monitors = vec![0u8];
        assert!(home.violated(&set, &compiled, &failing, &mut monitors).is_empty());
        assert_eq!(monitors, vec![2]);
        assert!(home.violated(&set, &compiled, &quiet, &mut monitors).is_empty());
        assert_eq!(home.violated(&set, &compiled, &quiet, &mut monitors), vec![9]);
        assert_eq!(monitors, vec![0]);

        // Trigger then notify → obligation discharged, never violated.
        let mut monitors = vec![0u8];
        for step in [&failing, &notified, &quiet] {
            assert!(home.violated(&set, &compiled, step, &mut monitors).is_empty());
        }
        assert_eq!(monitors, vec![0]);
    }

    #[test]
    fn leads_to_retrigger_keeps_the_earliest_deadline() {
        // The counter tracks the first deadline to expire: a second trigger
        // while an obligation is open must not extend it, or the first
        // obligation's violation would be missed entirely.
        let set = notify_within_two();
        let home = Home::new(&[]);
        let compiled = home.compile(&set);
        let failing = StepObservation { command_failures: 1, ..Default::default() };
        let quiet = StepObservation::default();
        let mut monitors = vec![0u8];
        // t0: trigger (deadline t2).  t1: trigger again — countdown must
        // keep counting the t0 obligation (slot 1, not refreshed to 2).
        assert!(home.violated(&set, &compiled, &failing, &mut monitors).is_empty());
        assert!(home.violated(&set, &compiled, &failing, &mut monitors).is_empty());
        assert_eq!(monitors, vec![1]);
        // t2: silence — the t0 deadline expires.
        assert_eq!(home.violated(&set, &compiled, &quiet, &mut monitors), vec![9]);
    }

    #[test]
    fn settling_skips_only_the_settled_checks() {
        let mut home = Home::household();
        home.mode = LocationMode::Night;
        home.set(1, "lock", "unlocked");
        home.set(2, "smoke", "detected");
        home.set(3, "switch", "on");
        let slack = PropertySpec::builder(99, "failures notify within 1").leads_to(
            Expr::atom(Atom::CommandFailed),
            Expr::atom(Atom::UserNotified),
            1,
        );
        let set = PropertySet::all().with(slack);
        let compiled = home.compile(&set);
        let failing = StepObservation { command_failures: 1, ..Default::default() };
        let check = |scratch: &mut EvalScratch, step: &StepObservation, monitors: &mut [u8]| {
            let mut out = Vec::new();
            compiled.check_transition(&home.devices, home.mode, step, monitors, scratch, &mut out);
            let mut ids: Vec<u32> = out.iter().map(|&i| set.specs()[i].id).collect();
            ids.sort_unstable();
            ids
        };
        // A scratch that was never settled checks everything, whichever set
        // it was used with before.
        let mut scratch = EvalScratch::default();
        Home::new(&[]).compile(&notify_within_two()).check_transition(
            &[],
            LocationMode::Home,
            &failing,
            &mut [0],
            &mut scratch,
            &mut Vec::new(),
        );
        let all = check(&mut scratch, &failing, &mut [0]);
        assert_eq!(all, home.interpreted(&set, &failing));
        assert!(all.len() >= 3, "{all:?}");

        // Settling the violated properties one by one drops exactly them.
        for (settled, &id) in all.iter().enumerate() {
            compiled.settle(&mut scratch, PropertyId(id));
            assert_eq!(check(&mut scratch, &failing, &mut [0]), all[settled + 1..]);
        }
        let open = scratch.open.as_ref().expect("settled");
        assert!(open.atoms.len() < compiled.atom_count(), "{} live atoms", open.atoms.len());

        // The leads-to property with slack keeps its countdown: it opens on
        // a failure and is violated one silent step later.
        compiled.settle(&mut scratch, PropertyId(99));
        let mut monitors = [0];
        let _ = check(&mut scratch, &failing, &mut monitors);
        assert_eq!(monitors, [1]);
        assert!(check(&mut scratch, &StepObservation::default(), &mut monitors).contains(&99));
        let step_only = |scratch: &mut EvalScratch| {
            let mut out = Vec::new();
            compiled.check_step_only(&failing, &mut [0], scratch, &mut out);
            out
        };
        assert!(step_only(&mut scratch).iter().all(|&i| !all.contains(&set.specs()[i].id)));
        assert!(!step_only(&mut EvalScratch::default()).is_empty());
    }

    #[test]
    #[should_panic(expected = "monitor bound is 255")]
    fn leads_to_within_beyond_the_monitor_bound_fails_compilation() {
        let spec = PropertySpec {
            id: 9,
            name: "huge".into(),
            category: String::new(),
            class: crate::spec::PropertyClass::Custom("Custom".into()),
            modality: crate::spec::Modality::LeadsTo(crate::spec::LeadsTo {
                trigger: Expr::atom(Atom::CommandFailed),
                response: Expr::atom(Atom::UserNotified),
                within: 1000,
            }),
            ltl: None,
        };
        let set = PropertySet::from_specs(vec![spec]);
        let _ = CompiledPropertySet::compile(&set, &CompileTarget::default());
    }

    #[test]
    fn builtin_corpus_needs_no_monitors() {
        // The paper corpus only uses same-step response (within = 0), so the
        // model-checker state vector stays byte-identical to the pre-spec
        // catalog.
        let compiled = Home::household().compile(&PropertySet::all());
        assert_eq!(compiled.monitor_count(), 0);
    }
}
