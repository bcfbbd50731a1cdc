//! Dependency-graph construction and related-set computation (§5).
//!
//! Vertices are event handlers; an edge `u → v` exists when an output event of
//! `u` overlaps an input event of `v`.  Strongly connected components are
//! merged into composite vertices.  The *related sets* — the groups of
//! handlers that must be verified together — are the ancestor closures of the
//! leaf vertices, merged across vertices with conflicting output events, with
//! redundant subsets removed (Tables 2 and 3, Figure 4 of the paper).

use crate::events::{effect_profile, EventProfile};
use iotsan_ir::IrApp;
use std::collections::BTreeSet;
use std::fmt;

/// Identifier of a vertex in the dependency graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VertexId(pub usize);

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// One handler (or a composite of handlers from a strongly connected
/// component) in the dependency graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Vertex {
    /// Vertex identifier.
    pub id: VertexId,
    /// The `(app, handler)` pairs represented by this vertex (more than one
    /// for composite vertices).
    pub members: Vec<(String, String)>,
    /// Union of the members' event profiles.
    pub profile: EventProfile,
}

impl Vertex {
    /// A short label such as `Unlock Door::changedLocationMode`.
    pub fn label(&self) -> String {
        self.members
            .iter()
            .map(|(app, handler)| format!("{app}::{handler}"))
            .collect::<Vec<_>>()
            .join(" + ")
    }

    /// Number of event handlers represented by the vertex.
    pub fn handler_count(&self) -> usize {
        self.members.len()
    }
}

/// The dependency graph over a group of apps.
#[derive(Debug, Clone, Default)]
pub struct DependencyGraph {
    vertices: Vec<Vertex>,
    /// children\[u\] = vertices v with an edge u → v.
    children: Vec<BTreeSet<usize>>,
    /// parents\[v\] = vertices u with an edge u → v.
    parents: Vec<BTreeSet<usize>>,
}

impl DependencyGraph {
    /// Builds the dependency graph for `apps`, merging strongly connected
    /// components into composite vertices.
    pub fn build(apps: &[IrApp]) -> Self {
        // 1. One base vertex per handler.
        let mut base: Vec<Vertex> = Vec::new();
        for app in apps {
            for handler in &app.handlers {
                base.push(Vertex {
                    id: VertexId(base.len()),
                    members: vec![(app.name.clone(), handler.name.clone())],
                    profile: effect_profile(app, handler),
                });
            }
        }
        let n = base.len();

        // 2. Edges: u → v when an output of u overlaps an input of v.
        let mut children: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        for u in 0..n {
            for v in 0..n {
                if u == v {
                    continue;
                }
                let connected = base[u]
                    .profile
                    .outputs
                    .iter()
                    .any(|out| base[v].profile.inputs.iter().any(|input| out.overlaps(input)));
                if connected {
                    children[u].insert(v);
                }
            }
        }

        // 3. Merge strongly connected components into composite vertices.
        let components = strongly_connected_components(n, &children);
        let mut component_of = vec![0usize; n];
        for (ci, comp) in components.iter().enumerate() {
            for &v in comp {
                component_of[v] = ci;
            }
        }
        let mut vertices: Vec<Vertex> = Vec::with_capacity(components.len());
        for (ci, comp) in components.iter().enumerate() {
            let mut members = Vec::new();
            let mut profile = EventProfile::default();
            for &v in comp {
                members.extend(base[v].members.clone());
                profile.inputs.extend(base[v].profile.inputs.iter().cloned());
                profile.outputs.extend(base[v].profile.outputs.iter().cloned());
            }
            vertices.push(Vertex { id: VertexId(ci), members, profile });
        }
        let mut merged_children: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); components.len()];
        let mut merged_parents: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); components.len()];
        for u in 0..n {
            for &v in &children[u] {
                let (cu, cv) = (component_of[u], component_of[v]);
                if cu != cv {
                    merged_children[cu].insert(cv);
                    merged_parents[cv].insert(cu);
                }
            }
        }

        DependencyGraph { vertices, children: merged_children, parents: merged_parents }
    }

    /// All vertices.
    pub fn vertices(&self) -> &[Vertex] {
        &self.vertices
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// True when the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Total number of event handlers across all vertices (the "Original
    /// Size" column of Table 7a).
    pub fn handler_count(&self) -> usize {
        self.vertices.iter().map(|v| v.handler_count()).sum()
    }

    /// Children (outgoing edges) of a vertex.
    pub fn children(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.children[v.0].iter().map(|i| VertexId(*i))
    }

    /// Parents (incoming edges) of a vertex.
    pub fn parents(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.parents[v.0].iter().map(|i| VertexId(*i))
    }

    /// Leaf vertices (no children).
    pub fn leaves(&self) -> Vec<VertexId> {
        (0..self.vertices.len()).filter(|v| self.children[*v].is_empty()).map(VertexId).collect()
    }

    /// All (transitive) ancestors of a vertex.
    pub fn ancestors(&self, v: VertexId) -> BTreeSet<VertexId> {
        let mut out = BTreeSet::new();
        let mut stack: Vec<usize> = self.parents[v.0].iter().copied().collect();
        while let Some(u) = stack.pop() {
            if out.insert(VertexId(u)) {
                stack.extend(self.parents[u].iter().copied());
            }
        }
        out
    }

    /// The related sets of the graph (Table 3c): ancestor closures of leaves,
    /// merged across conflicting outputs, with redundant subsets removed.
    ///
    /// Each vertex's closure (the vertex and its ancestors) is computed once,
    /// as a bitset, so a candidate set is one closure or the OR of two.  The
    /// distinct candidates are then kept largest first unless a kept set
    /// already contains them, which leaves exactly the maximal ones.
    pub fn related_sets(&self) -> RelatedSets {
        let closures = self.closures();

        // Initial related sets: one per leaf (Table 3a).
        let mut candidates: Vec<Vec<u64>> =
            self.leaves().into_iter().map(|leaf| closures[leaf.0].clone()).collect();

        // Conflicting-output sets (Table 3b): for every pair of vertices with
        // conflicting output events, the union of their ancestor closures.
        for u in 0..self.vertices.len() {
            for v in (u + 1)..self.vertices.len() {
                let conflict =
                    self.vertices[u].profile.outputs.iter().any(|a| {
                        self.vertices[v].profile.outputs.iter().any(|b| a.conflicts_with(b))
                    });
                if conflict {
                    candidates
                        .push(closures[u].iter().zip(&closures[v]).map(|(a, b)| a | b).collect());
                }
            }
        }

        // Remove duplicates and subsets (a subset is automatically verified
        // when its superset is verified).  A set dropped as a subset of a
        // larger candidate is a subset of whatever kept set contains that
        // candidate, so comparing against the kept sets suffices.
        candidates.sort_unstable();
        candidates.dedup();
        candidates.sort_by_key(|set| {
            std::cmp::Reverse(set.iter().map(|word| word.count_ones()).sum::<u32>())
        });
        let mut kept: Vec<Vec<u64>> = Vec::new();
        for set in candidates {
            let covered = kept.iter().any(|big| set.iter().zip(big).all(|(a, b)| a & !b == 0));
            if !covered {
                kept.push(set);
            }
        }
        let mut sets: Vec<BTreeSet<VertexId>> = kept.iter().map(|set| bit_members(set)).collect();
        sets.sort();
        RelatedSets { sets }
    }

    /// Every vertex's closure — the vertex and all its ancestors — as a
    /// bitset of vertex ids, in one pass.  Tarjan's algorithm emits each
    /// component after every component it reaches, so a parent's id is
    /// always larger than its child's: walking the ids downwards finishes
    /// each parent's closure before any child reads it.
    fn closures(&self) -> Vec<Vec<u64>> {
        let n = self.vertices.len();
        let words = n.div_ceil(64);
        let mut closures: Vec<Vec<u64>> = vec![Vec::new(); n];
        for v in (0..n).rev() {
            let mut closure = vec![0u64; words];
            closure[v / 64] |= 1 << (v % 64);
            for &parent in &self.parents[v] {
                assert!(parent > v, "vertex ids must be in reverse topological order");
                for (word, theirs) in closure.iter_mut().zip(&closures[parent]) {
                    *word |= theirs;
                }
            }
            closures[v] = closure;
        }
        closures
    }
}

/// The vertices of a bitset, in id order.
fn bit_members(set: &[u64]) -> BTreeSet<VertexId> {
    let mut out = BTreeSet::new();
    for (i, &word) in set.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            out.insert(VertexId(i * 64 + rest.trailing_zeros() as usize));
            rest &= rest - 1;
        }
    }
    out
}

/// Iterative Tarjan strongly-connected-components computation.  Components are
/// returned in reverse topological order; singleton components are included.
fn strongly_connected_components(n: usize, children: &[BTreeSet<usize>]) -> Vec<Vec<usize>> {
    #[derive(Clone, Copy)]
    struct NodeData {
        index: Option<usize>,
        lowlink: usize,
        on_stack: bool,
    }
    let mut data = vec![NodeData { index: None, lowlink: 0, on_stack: false }; n];
    let mut index = 0usize;
    let mut stack: Vec<usize> = Vec::new();
    let mut components: Vec<Vec<usize>> = Vec::new();

    // Iterative Tarjan with an explicit work stack of (node, child iterator position).
    for start in 0..n {
        if data[start].index.is_some() {
            continue;
        }
        let mut work: Vec<(usize, Vec<usize>, usize)> =
            vec![(start, children[start].iter().copied().collect(), 0)];
        data[start].index = Some(index);
        data[start].lowlink = index;
        data[start].on_stack = true;
        stack.push(start);
        index += 1;

        while let Some((node, kids, mut pos)) = work.pop() {
            let mut recursed = false;
            while pos < kids.len() {
                let child = kids[pos];
                pos += 1;
                match data[child].index {
                    None => {
                        // Recurse into child.
                        work.push((node, kids.clone(), pos));
                        data[child].index = Some(index);
                        data[child].lowlink = index;
                        data[child].on_stack = true;
                        stack.push(child);
                        index += 1;
                        work.push((child, children[child].iter().copied().collect(), 0));
                        recursed = true;
                        break;
                    }
                    Some(child_index) => {
                        if data[child].on_stack {
                            data[node].lowlink = data[node].lowlink.min(child_index);
                        }
                    }
                }
            }
            if recursed {
                continue;
            }
            // Node finished: pop component if it is a root.
            if data[node].lowlink == data[node].index.unwrap() {
                let mut component = Vec::new();
                loop {
                    let w = stack.pop().expect("tarjan stack underflow");
                    data[w].on_stack = false;
                    component.push(w);
                    if w == node {
                        break;
                    }
                }
                component.sort_unstable();
                components.push(component);
            }
            // Propagate lowlink to the parent frame.
            if let Some((parent, _, _)) = work.last() {
                let parent = *parent;
                data[parent].lowlink = data[parent].lowlink.min(data[node].lowlink);
            }
        }
    }
    components
}

/// The related sets of a dependency graph.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RelatedSets {
    /// Each set lists the vertices that must be verified jointly.
    pub sets: Vec<BTreeSet<VertexId>>,
}

impl RelatedSets {
    /// Number of related sets.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// True when there are no related sets (no handlers at all).
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// The number of **event handlers** in the largest related set (the "New
    /// Size" column of Table 7a).
    ///
    /// Units are handlers, not vertices: a composite vertex (a merged
    /// strongly connected component) contributes every handler it holds, so
    /// a single two-handler cycle counts as 2.  Returns `0` when there are
    /// no related sets at all (an empty graph); a graph with one
    /// single-handler vertex returns `1`.
    pub fn largest_handler_count(&self, graph: &DependencyGraph) -> usize {
        self.sets
            .iter()
            .map(|set| set.iter().map(|v| graph.vertices()[v.0].handler_count()).sum::<usize>())
            .max()
            .unwrap_or(0)
    }

    /// The scale ratio reported in Table 7a: original handler count divided
    /// by the largest related set's handler count
    /// ([`DependencyGraph::handler_count`] over
    /// [`RelatedSets::largest_handler_count`]).
    ///
    /// The ratio is dimensionless (handlers over handlers) and `>= 1.0` for
    /// any non-empty graph, since the largest related set can never hold
    /// more handlers than the whole graph.  **Empty-graph convention:** when
    /// there are no related sets (`largest_handler_count == 0`, which for a
    /// well-formed graph only happens when the graph itself is empty) the
    /// ratio is defined as `1.0` — "no reduction" — rather than dividing by
    /// zero; a singleton graph likewise reports exactly `1.0`.
    pub fn scale_ratio(&self, graph: &DependencyGraph) -> f64 {
        let original = graph.handler_count();
        let reduced = self.largest_handler_count(graph);
        if reduced == 0 {
            return 1.0;
        }
        original as f64 / reduced as f64
    }

    /// The apps appearing in each related set, in set order.
    pub fn apps_per_set(&self, graph: &DependencyGraph) -> Vec<BTreeSet<String>> {
        self.sets
            .iter()
            .map(|set| {
                set.iter()
                    .flat_map(|v| graph.vertices()[v.0].members.iter().map(|(app, _)| app.clone()))
                    .collect()
            })
            .collect()
    }

    /// Groups the apps of every related set and deduplicates identical app
    /// groups; these are the verification units handed to the model checker.
    pub fn app_groups(&self, graph: &DependencyGraph) -> Vec<BTreeSet<String>> {
        let mut groups: Vec<BTreeSet<String>> = Vec::new();
        for apps in self.apps_per_set(graph) {
            if !groups.contains(&apps) {
                groups.push(apps);
            }
        }
        groups
    }
}

/// Convenience: build the graph and related sets for a group of apps and
/// return `(graph, related_sets)`.
pub fn analyze(apps: &[IrApp]) -> (DependencyGraph, RelatedSets) {
    let graph = DependencyGraph::build(apps);
    let sets = graph.related_sets();
    (graph, sets)
}

/// Renders a Figure-4-style summary of the graph and its related sets.
pub fn render_summary(graph: &DependencyGraph, sets: &RelatedSets) -> String {
    let mut out = String::new();
    out.push_str("Dependency graph vertices:\n");
    for v in graph.vertices() {
        let inputs: Vec<String> = v.profile.inputs.iter().map(|e| e.to_string()).collect();
        let outputs: Vec<String> = v.profile.outputs.iter().map(|e| e.to_string()).collect();
        out.push_str(&format!(
            "  {}  {}\n    in:  [{}]\n    out: [{}]\n",
            v.id,
            v.label(),
            inputs.join(", "),
            outputs.join(", ")
        ));
    }
    out.push_str("Edges:\n");
    for v in graph.vertices() {
        let children: Vec<String> = graph.children(v.id).map(|c| c.to_string()).collect();
        if !children.is_empty() {
            out.push_str(&format!("  {} -> {}\n", v.id, children.join(", ")));
        }
    }
    out.push_str("Final related sets:\n");
    for (i, set) in sets.sets.iter().enumerate() {
        let members: Vec<String> = set.iter().map(|v| v.to_string()).collect();
        out.push_str(&format!("  set {}: {{{}}}\n", i + 1, members.join(", ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventDesc;
    use iotsan_ir::{AppInput, IrApp, IrHandler, IrStmt, Trigger};

    /// Builds the exact example of Table 2 / Figure 4: five apps, six handlers.
    fn paper_example() -> Vec<IrApp> {
        let app = |name: &str, inputs: Vec<AppInput>, handlers: Vec<IrHandler>| IrApp {
            name: name.into(),
            description: String::new(),
            inputs,
            handlers,
            state_vars: vec![],
            dynamic_discovery: false,
        };
        let h = |app: &str, name: &str, trigger: Trigger, body: Vec<IrStmt>| IrHandler {
            app: app.into(),
            name: name.into(),
            trigger,
            body,
        };
        let cmd = |input: &str, command: &str| IrStmt::DeviceCommand {
            input: input.into(),
            command: command.into(),
            args: vec![],
        };

        vec![
            // Vertex 0: Brighten Dark Places — contact/open + illuminance → switch/on
            app(
                "Brighten Dark Places",
                vec![
                    AppInput::device("contact1", "contactSensor"),
                    AppInput::device("lightSensor", "illuminanceMeasurement"),
                    AppInput::device("switches", "switch"),
                ],
                vec![h(
                    "Brighten Dark Places",
                    "contactOpenHandler",
                    Trigger::Device {
                        input: "contact1".into(),
                        attribute: "contact".into(),
                        value: Some("open".into()),
                    },
                    vec![IrStmt::If {
                        cond: iotsan_ir::IrExpr::binary(
                            iotsan_ir::IrBinOp::Lt,
                            iotsan_ir::IrExpr::DeviceAttr {
                                input: "lightSensor".into(),
                                attribute: "illuminance".into(),
                            },
                            iotsan_ir::IrExpr::int(30),
                        ),
                        then: vec![cmd("switches", "on")],
                        els: vec![],
                    }],
                )],
            ),
            // Vertex 1: Let There Be Dark! — contact/any → switch/on, switch/off
            app(
                "Let There Be Dark!",
                vec![
                    AppInput::device("contact1", "contactSensor"),
                    AppInput::device("switches", "switch"),
                ],
                vec![h(
                    "Let There Be Dark!",
                    "contactHandler",
                    Trigger::Device {
                        input: "contact1".into(),
                        attribute: "contact".into(),
                        value: None,
                    },
                    vec![IrStmt::If {
                        cond: iotsan_ir::IrExpr::bool(true),
                        then: vec![cmd("switches", "on")],
                        els: vec![cmd("switches", "off")],
                    }],
                )],
            ),
            // Vertex 2: Auto Mode Change — presence/any → location/mode
            app(
                "Auto Mode Change",
                vec![AppInput::device("people", "presenceSensor")],
                vec![h(
                    "Auto Mode Change",
                    "presenceHandler",
                    Trigger::Device {
                        input: "people".into(),
                        attribute: "presence".into(),
                        value: None,
                    },
                    vec![IrStmt::SetLocationMode(iotsan_ir::IrExpr::str("Away"))],
                )],
            ),
            // Vertices 3 and 4: Unlock Door — app/touch and location/mode → lock/unlocked
            app(
                "Unlock Door",
                vec![AppInput::device("lock1", "lock")],
                vec![
                    h("Unlock Door", "appTouch", Trigger::AppTouch, vec![cmd("lock1", "unlock")]),
                    h(
                        "Unlock Door",
                        "changedLocationMode",
                        Trigger::LocationMode { value: None },
                        vec![cmd("lock1", "unlock")],
                    ),
                ],
            ),
            // Vertices 5 and 6: Big Turn On — app/touch and location/mode → switch/on
            app(
                "Big Turn On",
                vec![AppInput::device("switches", "switch")],
                vec![
                    h("Big Turn On", "appTouch", Trigger::AppTouch, vec![cmd("switches", "on")]),
                    h(
                        "Big Turn On",
                        "changedLocationMode",
                        Trigger::LocationMode { value: None },
                        vec![cmd("switches", "on")],
                    ),
                ],
            ),
        ]
    }

    #[test]
    fn graph_has_seven_vertices_for_paper_example() {
        let apps = paper_example();
        let graph = DependencyGraph::build(&apps);
        assert_eq!(graph.len(), 7);
        assert_eq!(graph.handler_count(), 7);
    }

    #[test]
    fn edges_match_figure_4a() {
        let apps = paper_example();
        let graph = DependencyGraph::build(&apps);
        // Find the Auto Mode Change vertex (vertex "2" in the paper).
        let amc =
            graph.vertices().iter().find(|v| v.members[0].0 == "Auto Mode Change").unwrap().id;
        let children: BTreeSet<String> =
            graph.children(amc).map(|c| graph.vertices()[c.0].label()).collect();
        // Its children are Unlock Door::changedLocationMode (4) and
        // Big Turn On::changedLocationMode (6).
        assert!(children.iter().any(|l| l.contains("Unlock Door::changedLocationMode")));
        assert!(children.iter().any(|l| l.contains("Big Turn On::changedLocationMode")));
        assert_eq!(children.len(), 2);
    }

    #[test]
    fn related_sets_match_table_3c() {
        let apps = paper_example();
        let (graph, sets) = analyze(&apps);
        // The paper's final related sets: {3}, {2,4}, {0,1}, {1,5}, {1,2,6}.
        assert_eq!(sets.len(), 5, "{}", render_summary(&graph, &sets));
        let sizes: Vec<usize> = {
            let mut s: Vec<usize> = sets.sets.iter().map(|s| s.len()).collect();
            s.sort_unstable();
            s
        };
        assert_eq!(sizes, vec![1, 2, 2, 2, 3]);

        // The singleton set is Unlock Door::appTouch (vertex 3 in the paper).
        let singleton = sets.sets.iter().find(|s| s.len() == 1).unwrap();
        let label = graph.vertices()[singleton.iter().next().unwrap().0].label();
        assert_eq!(label, "Unlock Door::appTouch");

        // The 3-element set contains Let There Be Dark, Auto Mode Change and
        // Big Turn On::changedLocationMode (vertices 1, 2, 6).
        let triple = sets.sets.iter().find(|s| s.len() == 3).unwrap();
        let labels: BTreeSet<String> =
            triple.iter().map(|v| graph.vertices()[v.0].label()).collect();
        assert!(labels.iter().any(|l| l.contains("Let There Be Dark")));
        assert!(labels.iter().any(|l| l.contains("Auto Mode Change")));
        assert!(labels.iter().any(|l| l.contains("Big Turn On::changedLocationMode")));
    }

    #[test]
    fn scale_ratio_reduces_problem_size() {
        let apps = paper_example();
        let (graph, sets) = analyze(&apps);
        // 7 handlers total, largest related set has 3 handlers → ratio ≈ 2.3.
        assert_eq!(graph.handler_count(), 7);
        assert_eq!(sets.largest_handler_count(&graph), 3);
        let ratio = sets.scale_ratio(&graph);
        assert!(ratio > 2.0 && ratio < 2.5, "ratio = {ratio}");
    }

    #[test]
    fn app_groups_are_deduplicated() {
        let apps = paper_example();
        let (graph, sets) = analyze(&apps);
        let groups = sets.app_groups(&graph);
        assert!(!groups.is_empty());
        // Every group should contain at least one app.
        assert!(groups.iter().all(|g| !g.is_empty()));
        assert!(groups.iter().any(|g| g.contains("Unlock Door")));
    }

    #[test]
    fn scc_merges_cycles() {
        // Two handlers that trigger each other (A outputs switch/on which B
        // consumes; B outputs contact/open which A consumes) form one SCC.
        let a = IrApp {
            name: "A".into(),
            description: String::new(),
            inputs: vec![AppInput::device("c", "contactSensor"), AppInput::device("s", "switch")],
            handlers: vec![IrHandler {
                app: "A".into(),
                name: "onContact".into(),
                trigger: Trigger::Device {
                    input: "c".into(),
                    attribute: "contact".into(),
                    value: None,
                },
                body: vec![IrStmt::DeviceCommand {
                    input: "s".into(),
                    command: "on".into(),
                    args: vec![],
                }],
            }],
            state_vars: vec![],
            dynamic_discovery: false,
        };
        let b = IrApp {
            name: "B".into(),
            description: String::new(),
            inputs: vec![AppInput::device("s", "switch"), AppInput::device("d", "doorControl")],
            handlers: vec![IrHandler {
                app: "B".into(),
                name: "onSwitch".into(),
                trigger: Trigger::Device {
                    input: "s".into(),
                    attribute: "switch".into(),
                    value: Some("on".into()),
                },
                body: vec![IrStmt::SendEvent {
                    attribute: "contact".into(),
                    value: iotsan_ir::IrExpr::str("open"),
                }],
            }],
            state_vars: vec![],
            dynamic_discovery: false,
        };
        let graph = DependencyGraph::build(&[a, b]);
        // The two handlers form a cycle and must be merged into one composite
        // vertex holding both handlers.
        assert_eq!(graph.len(), 1);
        assert_eq!(graph.vertices()[0].handler_count(), 2);
    }

    #[test]
    fn empty_input_yields_empty_graph() {
        let (graph, sets) = analyze(&[]);
        assert!(graph.is_empty());
        assert!(sets.is_empty());
        assert_eq!(sets.scale_ratio(&graph), 1.0);
    }

    #[test]
    fn empty_graph_reports_zero_handlers_and_neutral_ratio() {
        // The documented empty-graph convention: no related sets, a largest
        // handler count of 0, and a scale ratio pinned to 1.0 ("no
        // reduction") instead of a 0/0 division.
        let (graph, sets) = analyze(&[]);
        assert_eq!(graph.handler_count(), 0);
        assert_eq!(sets.largest_handler_count(&graph), 0);
        assert_eq!(sets.scale_ratio(&graph), 1.0);
        // A detached RelatedSets against an empty graph behaves the same.
        let detached = RelatedSets::default();
        assert_eq!(detached.largest_handler_count(&graph), 0);
        assert_eq!(detached.scale_ratio(&graph), 1.0);
    }

    #[test]
    fn singleton_graph_reports_unit_handlers_and_unit_ratio() {
        // One app with one handler: one vertex, one related set, both counts
        // in handler units, ratio exactly 1.0 (no reduction possible).
        let app = IrApp {
            name: "Solo".into(),
            description: String::new(),
            inputs: vec![AppInput::device("m", "motionSensor"), AppInput::device("s", "switch")],
            handlers: vec![IrHandler {
                app: "Solo".into(),
                name: "onMotion".into(),
                trigger: Trigger::Device {
                    input: "m".into(),
                    attribute: "motion".into(),
                    value: Some("active".into()),
                },
                body: vec![IrStmt::DeviceCommand {
                    input: "s".into(),
                    command: "on".into(),
                    args: vec![],
                }],
            }],
            state_vars: vec![],
            dynamic_discovery: false,
        };
        let (graph, sets) = analyze(&[app]);
        assert_eq!(graph.len(), 1);
        assert_eq!(graph.handler_count(), 1);
        assert_eq!(sets.len(), 1);
        assert_eq!(sets.largest_handler_count(&graph), 1);
        assert_eq!(sets.scale_ratio(&graph), 1.0);
    }

    #[test]
    fn event_desc_ordering_is_stable_in_sets() {
        let a = EventDesc::new("switch", "on");
        let b = EventDesc::any("switch");
        let mut set = BTreeSet::new();
        set.insert(a.clone());
        set.insert(b.clone());
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn render_summary_mentions_all_vertices() {
        let apps = paper_example();
        let (graph, sets) = analyze(&apps);
        let text = render_summary(&graph, &sets);
        for v in graph.vertices() {
            assert!(text.contains(&v.label()));
        }
        assert!(text.contains("Final related sets"));
    }
}
