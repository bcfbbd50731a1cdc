//! `DependencyGraph::related_sets` against a reference written from the
//! paper's description (§5, Table 3) over the public graph API only.
//!
//! The reference is the direct, quadratic algorithm: a fresh `ancestors()`
//! walk per candidate set, then a pairwise subset pass over every candidate.
//! The library computes the same sets from ancestor bitsets; the two must
//! agree on every market prefix, on seeded orders of the whole corpus (vertex
//! ids follow app order, and `e2e`'s `market-cold` verifies the corpus in
//! seeded orders) and on the Figure 4 example.

use iotsan::depgraph::{DependencyGraph, RelatedSets, VertexId};
use iotsan::ir::IrApp;
use iotsan::translate_sources;
use iotsan_apps::{market, samples, MarketApp};
use std::collections::BTreeSet;

/// The related sets, computed the direct way: the ancestor closure of every
/// leaf (Table 3a) and the union of the closures of every pair of vertices
/// with conflicting outputs (Table 3b), keeping each distinct set that no
/// other candidate strictly contains (Table 3c).
fn reference_related_sets(graph: &DependencyGraph) -> RelatedSets {
    let closure = |v: VertexId| {
        let mut set = graph.ancestors(v);
        set.insert(v);
        set
    };
    let mut sets: Vec<BTreeSet<VertexId>> = graph.leaves().into_iter().map(closure).collect();
    let vertices = graph.vertices();
    for u in 0..vertices.len() {
        for v in (u + 1)..vertices.len() {
            let conflict = vertices[u]
                .profile
                .outputs
                .iter()
                .any(|a| vertices[v].profile.outputs.iter().any(|b| a.conflicts_with(b)));
            if conflict {
                let mut set = closure(VertexId(u));
                set.extend(closure(VertexId(v)));
                sets.push(set);
            }
        }
    }
    sets.sort_by_key(|s| s.len());
    let mut finals: Vec<BTreeSet<VertexId>> = Vec::new();
    'outer: for (i, set) in sets.iter().enumerate() {
        for other in sets.iter().skip(i + 1) {
            if set.is_subset(other) {
                continue 'outer;
            }
        }
        if !finals.contains(set) {
            finals.push(set.clone());
        }
    }
    finals.sort();
    RelatedSets { sets: finals }
}

fn translate(apps: &[MarketApp]) -> Vec<IrApp> {
    let sources: Vec<&str> = apps.iter().map(|a| a.source.as_str()).collect();
    translate_sources(&sources).expect("corpus apps translate")
}

fn assert_matches_reference(apps: &[IrApp], what: &str) {
    let graph = DependencyGraph::build(apps);
    let expected = reference_related_sets(&graph);
    assert_eq!(graph.related_sets(), expected, "{what}");
}

/// A seeded Fisher–Yates shuffle over splitmix64.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        items.swap(i, (next() % (i as u64 + 1)) as usize);
    }
}

#[test]
fn every_market_prefix_matches_the_reference() {
    let apps = translate(&market::market_apps());
    assert_eq!(apps.len(), 150);
    for n in 1..=apps.len() {
        assert_matches_reference(&apps[..n], &format!("first {n} market apps"));
    }
}

#[test]
fn seeded_orders_of_the_corpus_match_the_reference() {
    let apps = translate(&market::market_apps());
    for seed in 1001..=1020 {
        let mut order = apps.clone();
        shuffle(&mut order, seed);
        assert_matches_reference(&order, &format!("market corpus, seed {seed}"));
    }
}

#[test]
fn figure_4_matches_the_reference_and_the_paper() {
    let apps = translate(&samples::figure4_group());
    assert_matches_reference(&apps, "Figure 4");
    let sets = DependencyGraph::build(&apps).related_sets();
    let mut sizes: Vec<usize> = sets.sets.iter().map(|s| s.len()).collect();
    sizes.sort_unstable();
    assert_eq!(sizes, vec![1, 2, 2, 2, 3]);
}
