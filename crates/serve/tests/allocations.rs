//! Heap allocations per request are a tested number.
//!
//! A counting wrapper over the system allocator tallies every
//! allocation the calling thread makes. After one warm-up call, each
//! test counts the allocations of one `FrozenModel::recommend` for a
//! user, a voting group and a fast-average group, at 256 and at 2,560
//! catalog items, and asserts the count stays at or under a pinned
//! bound. A change that adds allocations to the scoring path fails
//! here; one that removes some should lower the bound.

use groupsa_core::{DataContext, GroupMode, GroupSa, GroupSaConfig, ScoreAggregation};
use groupsa_data::synthetic::{generate, SyntheticConfig};
use groupsa_serve::protocol::Target;
use groupsa_serve::FrozenModel;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: a thread being torn down may still allocate after its
    // locals are gone; those allocations are simply not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A tiny-config model over `num_items` catalog items, frozen.
fn frozen(num_items: usize) -> FrozenModel {
    let cfg = GroupSaConfig::tiny();
    let dataset = generate(&SyntheticConfig {
        name: format!("serve-allocations-{num_items}"),
        seed: 91,
        num_users: 60,
        num_items,
        num_groups: 25,
        num_topics: 4,
        latent_dim: 4,
        avg_items_per_user: 8.0,
        avg_friends_per_user: 5.0,
        avg_items_per_group: 1.5,
        mean_group_size: 3.5,
        zipf_exponent: 0.8,
        homophily: 0.8,
        social_influence: 0.3,
        expertise_sharpness: 2.0,
        taste_temperature: 0.3,
        consensus_blend: 0.5,
        connectedness_boost: 1.0,
    });
    let ctx = DataContext::from_train_view(&dataset, &cfg);
    let model = GroupSa::new(cfg, dataset.num_users, dataset.num_items);
    FrozenModel::freeze(model, ctx)
}

/// Allocations of one full-catalog `recommend` (every item scored),
/// measured after a warm-up call of the same request.
fn count(frozen: &FrozenModel, target: Target, mode: GroupMode) -> u64 {
    let run = || frozen.recommend(target, 10, false, mode).expect("valid target");
    drop(run());
    let before = allocations();
    let recs = run();
    let used = allocations() - before;
    assert_eq!(recs.len(), 10);
    used
}

/// Group-mode counts are taken for the first group of the fixture
/// world with this many members, so both catalog sizes score the same
/// voting width.
const GROUP_SIZE: usize = 3;

/// Checks `(user, voting group, fast-average group)` allocation counts
/// at `items` catalog items against `bounds`. The bounds are the counts
/// measured at the time they were pinned: the voting path makes 9
/// allocations per candidate, the user and fast paths none per
/// candidate.
fn check(items: usize, bounds: [u64; 3]) {
    let frozen = frozen(items);
    let members = &frozen.context().members;
    let group = (0..members.len()).find(|&g| members[g].len() == GROUP_SIZE).expect("fixture has a group of three");
    let counts = [
        count(&frozen, Target::User { id: 0 }, GroupMode::Voting),
        count(&frozen, Target::Group { id: group }, GroupMode::Voting),
        count(&frozen, Target::Group { id: group }, GroupMode::Fast(ScoreAggregation::Average)),
    ];
    eprintln!("allocations at {items} items (user, voting, fast): {counts:?}");
    for ((what, got), bound) in ["user", "voting group", "fast-average group"].iter().zip(counts).zip(bounds) {
        assert!(got <= bound, "{what} at {items} items: {got} allocations, bound {bound}");
    }
}

#[test]
fn recommend_allocations_at_256_items() {
    check(256, [12, 2308, 35]);
}

#[test]
fn recommend_allocations_at_2560_items() {
    check(2560, [102, 23062, 314]);
}
