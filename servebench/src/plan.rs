//! Seeded inputs: each workload's request pool, open-loop schedule and
//! closed-loop shape. Everything here is generated before set-up, so
//! the server only ever receives these requests.

use crate::wire::{ClosedPlan, Control, OpenPlan, Pool, Spec, K};
use crate::world::{universe, Workload};
use groupsa_serve::{ServeMode, Target};
use std::time::Duration;

/// Distinct request specs per run; the drivers cycle through them.
const POOL_SIZE: usize = 8192;

/// Deadline on the snapshot workload's requests: generous, so the
/// shedding check runs on every request but refuses none.
const WIRE_DEADLINE_MS: u64 = 2_000;

/// Control requests ride the snapshot workload every 500 ms; every
/// fourth is a `Reload` (one hot-swap every two seconds).
const CONTROL_EVERY: Duration = Duration::from_millis(500);

/// SplitMix64: a small, fixed, seedable generator, so the inputs depend
/// on nothing but `--seed`.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and input stream `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Rounds per pass: each is a latency phase (serial closed loop, or the
/// open loop in the traced pass) then a windowed closed-loop phase, and
/// each end-to-end timing is the second-best round's.
pub const ROUNDS: usize = 7;

/// Untimed windowed warm-up before the first round.
pub const WARMUP: Duration = Duration::from_secs(1);

/// The load shape of one workload.
pub struct Shape {
    /// Offered rate of the open-loop phase, requests per second.
    pub open_rate: f64,
    /// Share of each round given to its latency phase (serial closed
    /// loop, or open loop in the traced pass).
    pub probe_share: f64,
    /// Requests in flight per connection in the closed-loop phase.
    pub window: usize,
    /// Whether control requests (polls and hot-swaps) ride along.
    pub controls: bool,
}

/// Each workload's load shape. Catalog open-loop rates keep each worker
/// busy well under a fifth of the time, so a request rarely waits
/// behind another. Catalog windows keep both workers' queues non-empty,
/// so batch composition (and with it coalescing) does not hinge on
/// arrival timing.
pub fn shape(workload: Workload) -> Shape {
    match workload {
        Workload::UserCatalog => Shape { open_rate: 28.0, probe_share: 0.5, window: 8, controls: false },
        Workload::GroupCatalog => Shape { open_rate: 12.0, probe_share: 0.5, window: 8, controls: false },
        Workload::WireSnapshot => Shape { open_rate: 2000.0, probe_share: 0.5, window: 32, controls: true },
    }
}

fn group_mode(rng: &mut Rng) -> ServeMode {
    // Half voting; the rest split across the three fast aggregations.
    match rng.below(6) {
        0..=2 => ServeMode::Voting,
        3 => ServeMode::FastAverage,
        4 => ServeMode::FastLeastMisery,
        _ => ServeMode::FastMaxSatisfaction,
    }
}

/// Groups in one block of the group-catalog pool (each with all six
/// mode slots, so a block is 96 requests); the user-catalog block holds
/// four times as many users, each twice.
const CATALOG_TARGETS: usize = 16;

/// The workload's request pool for `seed`.
///
/// Catalog requests cost tens of milliseconds and their cost depends on
/// the target (a group's size sets its γ and fast-path work), so a
/// phase sees only a few hundred of them. Their pool is therefore
/// *stratified*: blocks that each hold a fixed set of targets spread
/// over the id space, with the mode and `exclude_seen` mixes exactly
/// balanced, each block shuffled by the seed. The seed changes the
/// order and pairing of requests; it cannot tilt the cost mix. The
/// snapshot workload sends thousands of cheap requests and draws each
/// one independently.
pub fn pool(workload: Workload, seed: u64) -> Result<Pool, String> {
    let (users, _, groups) = universe(workload);
    let mut rng = Rng::new(seed, 1);
    let mut specs = Vec::with_capacity(POOL_SIZE);
    let spec = |target, exclude_seen, mode, deadline_ms| Spec { target, k: K, exclude_seen, mode, deadline_ms };
    match workload {
        Workload::UserCatalog | Workload::GroupCatalog => {
            let block: Vec<(Target, ServeMode)> = match workload {
                Workload::UserCatalog => (0..CATALOG_TARGETS * 8)
                    .map(|i| (Target::User { id: (i / 2) * users / (CATALOG_TARGETS * 4) }, ServeMode::Voting))
                    .collect(),
                _ => (0..CATALOG_TARGETS)
                    .flat_map(|i| {
                        let target = Target::Group { id: i * groups / CATALOG_TARGETS };
                        [
                            ServeMode::Voting,
                            ServeMode::Voting,
                            ServeMode::Voting,
                            ServeMode::FastAverage,
                            ServeMode::FastLeastMisery,
                            ServeMode::FastMaxSatisfaction,
                        ]
                        .map(|mode| (target, mode))
                    })
                    .collect(),
            };
            while specs.len() < POOL_SIZE {
                let mut shuffled = block.clone();
                for i in (1..shuffled.len()).rev() {
                    shuffled.swap(i, rng.below(i + 1));
                }
                // Alternate exclude_seen over the shuffled block: an
                // exact half of each block, paired with random targets.
                specs.extend(shuffled.into_iter().enumerate().map(|(i, (t, m))| spec(t, i % 2 == 1, m, 0)));
            }
        }
        Workload::WireSnapshot => {
            for _ in 0..POOL_SIZE {
                let exclude_seen = rng.below(2) == 1;
                let target = if rng.below(2) == 0 {
                    Target::User { id: rng.below(users) }
                } else {
                    Target::Group { id: rng.below(groups) }
                };
                specs.push(spec(target, exclude_seen, group_mode(&mut rng), WIRE_DEADLINE_MS));
            }
        }
    }
    Pool::new(specs)
}

/// The control cycle: polls, with a `Reload` onto the other snapshot
/// copy every fourth slot (so the served copy alternates b, a, b, …).
pub fn control_cycle(dirs: &(String, String)) -> Vec<Control> {
    vec![
        Control::Stats,
        Control::MetricsDump,
        Control::Stats,
        Control::Reload(dirs.1.clone()),
        Control::Stats,
        Control::MetricsDump,
        Control::Stats,
        Control::Reload(dirs.0.clone()),
    ]
}

/// One arrival schedule per round at the workload's rate over
/// `seconds`, with the control cycle (if any) at its fixed cadence.
///
/// Gaps are the mean gap times a seeded factor uniform in [0.5, 1.5),
/// not exponential: a catalog phase sees only a few hundred requests,
/// and Poisson bursts (which one worker's batch drain then runs back to
/// back) made its latency percentiles swing by a fifth to a third
/// between seeds.
pub fn open_plans(workload: Workload, seed: u64, seconds: f64, cycle: &[Control]) -> Vec<OpenPlan> {
    (0..ROUNDS).map(|r| open_plan(workload, Rng::new(seed, 2 + r as u64), seconds, cycle)).collect()
}

fn open_plan(workload: Workload, mut rng: Rng, seconds: f64, cycle: &[Control]) -> OpenPlan {
    let gap = 1.0 / shape(workload).open_rate;
    let mut at = Vec::new();
    let mut t = 0.0;
    loop {
        t += gap * (0.5 + rng.unit());
        if t >= seconds {
            break;
        }
        at.push(Duration::from_secs_f64(t));
    }
    let controls = if cycle.is_empty() {
        Vec::new()
    } else {
        let n = (seconds / CONTROL_EVERY.as_secs_f64()) as usize;
        (1..n).map(|i| (CONTROL_EVERY * i as u32, cycle[(i - 1) % cycle.len()].clone())).collect()
    };
    OpenPlan { at, controls }
}

/// The serial phase of `seconds`: two connections, one request in
/// flight on each, no controls.
pub fn serial_plan(seconds: f64) -> ClosedPlan {
    ClosedPlan { window: 1, duration: Duration::from_secs_f64(seconds), control_every: None, controls: Vec::new() }
}

/// The closed-loop phase of `seconds`.
pub fn closed_plan(workload: Workload, seconds: f64, cycle: &[Control]) -> ClosedPlan {
    let s = shape(workload);
    ClosedPlan {
        window: s.window,
        duration: Duration::from_secs_f64(seconds),
        control_every: (!cycle.is_empty()).then_some(CONTROL_EVERY),
        controls: cycle.to_vec(),
    }
}
