//! Criterion micro-benchmark for the state-representation hot path in
//! isolation: `SystemState::encode_into` (the flat fixed-layout write over
//! interned slots) followed by a visited-set probe (one FNV-1a pass keying
//! the exact store).
//!
//! This pair runs once per explored transition, so state-layout changes that
//! are invisible in end-to-end sweeps show up here.  The loop reuses one
//! encode buffer and probes an *already populated* store — the steady-state
//! shape — so a flat time profile across iterations doubles as evidence that
//! the path allocates nothing per probe.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use iotsan::checker::{ExactStore, StepLog, TransitionSystem};
use iotsan::model::{ModelOptions, SequentialModel};
use iotsan::properties::PropertySet;
use iotsan::system::{InstalledSystem, SystemState};
use iotsan_bench::fleet_workload;

/// A mid-size market-corpus state: 8 apps under their expert configuration,
/// with a few mutations applied so slots and device values are non-default.
fn mid_size_state() -> (InstalledSystem, SystemState) {
    let (apps, config) = fleet_workload(8);
    let system = InstalledSystem::new(apps, config);
    let mut state = system.initial_state();
    for (index, device) in system.devices.iter().enumerate() {
        if index % 2 == 0 {
            let spec = device.spec();
            if !spec.attributes.is_empty() {
                state.devices[index].set_index_at(spec, 0, spec.attributes[0].domain.len() - 1);
            }
        }
    }
    (system, state)
}

fn bench_state_encode(c: &mut Criterion) {
    let (system, state) = mid_size_state();
    let model = SequentialModel::new(system, PropertySet::all(), ModelOptions::with_events(3));
    // The probed store holds real encodings: every successor of `state`.
    let (mut actions, mut scratch, mut log) = (Vec::new(), Default::default(), StepLog::disabled());
    model.actions(&state, &mut actions);
    let states: Vec<SystemState> =
        actions.iter().map(|a| model.apply(&state, a, &mut scratch, &mut log).state).collect();

    let mut group = c.benchmark_group("state_encode");
    group.sample_size(20);

    // Encode alone: the flat fixed-layout write into a reused buffer.
    group.bench_with_input(BenchmarkId::new("encode", "market8"), &state, |b, state| {
        let mut buf = Vec::new();
        b.iter(|| {
            buf.clear();
            state.encode_into(&mut buf);
            black_box(buf.len())
        })
    });

    // Encode + visited-set probe, probing each stored successor in turn.
    group.bench_with_input(BenchmarkId::new("encode_probe", "exact"), &states, |b, states| {
        let mut store = ExactStore::new();
        let mut buf = Vec::new();
        for state in states {
            buf.clear();
            state.encode_into(&mut buf);
            store.insert(&buf);
        }
        let mut next = 0;
        b.iter(|| {
            buf.clear();
            states[next].encode_into(&mut buf);
            next = (next + 1) % states.len();
            black_box(store.contains(&buf))
        })
    });

    // One full transition for scale: encode+probe should be a small fraction.
    group.bench_with_input(BenchmarkId::new("full_transition", "market8"), &state, |b, state| {
        let action = actions[0];
        b.iter(|| black_box(model.apply(state, &action, &mut scratch, &mut log).state))
    });

    group.finish();
}

criterion_group!(benches, bench_state_encode);
criterion_main!(benches);
