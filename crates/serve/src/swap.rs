//! Atomic snapshot hot-swap: the one mutable cell in the serving path.
//!
//! [`ModelSlot`] holds the *current* [`FrozenModel`] behind a
//! `Mutex<Arc<..>>` (std-only; the ArcSwap idea without the crate).
//! Readers take the lock only long enough to clone the `Arc` — a few
//! nanoseconds, once per popped job, next to milliseconds of scoring —
//! and then score against their pinned snapshot with zero further
//! synchronisation. Publishing a retrained model is one pointer store
//! under the same lock, so a swap is atomic from every reader's point
//! of view:
//!
//! * a job popped before the swap finishes scoring against the old
//!   snapshot (its `Arc` keeps the old tables alive until the last
//!   in-flight job drops it);
//! * a job popped after the swap scores entirely against the new one;
//! * no job ever observes a half-published model, and no request is
//!   dropped or re-queued by a reload.
//!
//! Nothing in this module can panic while holding the lock (clone and
//! pointer store only), so poison is unreachable; it is still handled
//! by recovering the value rather than unwrapping, because this file
//! is on the serve request path (`groupsa-lint` panic-safety scope).

use crate::frozen::FrozenModel;
use std::sync::{Arc, Mutex, PoisonError};

/// The swappable handle to the currently-published frozen model.
pub(crate) struct ModelSlot {
    current: Mutex<Arc<FrozenModel>>,
}

impl ModelSlot {
    /// A slot initially publishing `frozen`.
    pub(crate) fn new(frozen: Arc<FrozenModel>) -> Self {
        Self { current: Mutex::new(frozen) }
    }

    /// Pins the currently-published snapshot: clones the `Arc` under
    /// the lock and releases it immediately.
    pub(crate) fn load(&self) -> Arc<FrozenModel> {
        Arc::clone(&self.current.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Atomically publishes `frozen`; readers that already pinned the
    /// old snapshot keep it alive until they finish their job.
    pub(crate) fn store(&self, frozen: Arc<FrozenModel>) {
        *self.current.lock().unwrap_or_else(PoisonError::into_inner) = frozen;
    }
}
