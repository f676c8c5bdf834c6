//! The benchmark's one clock read. Every timing in the benchmark goes
//! through [`now`], so the workspace linter's `clock-scope` rule has a
//! single, justified site to accept.

use std::time::Instant;

/// The current monotonic instant.
pub fn now() -> Instant {
    Instant::now() // lint: allow(clock-scope) — timing wall-clock work is this benchmark's purpose
}
