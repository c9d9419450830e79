//! Epoch-guarded slot: the concurrency half of the bound-index freshness
//! protocol, factored out so it can be model-checked in isolation.
//!
//! The protocol (see `DESIGN.md`, "Appendix: the mutation-epoch protocol"):
//! the storage engine bumps a monotone epoch on every catalog mutation; an
//! index value is stamped with the epoch captured *before* the catalog
//! snapshot it was built from was read; a reader serves the value only when
//! its stamp equals the engine's current epoch. A mutation racing the
//! snapshot leaves the stamp *behind* the real epoch (never ahead), so the
//! worst case is a spurious re-sync — a stale value is never served.
//!
//! [`EpochSlot`] packages that invariant: the only serving read is
//! [`EpochSlot::serve_fresh`], which runs the closure exactly when the
//! stamp matches the epoch the caller observed. Writers go through
//! [`EpochSlot::write`], which holds the slot exclusively for the whole
//! capture-epoch → read-catalog → install sequence.
//!
//! The slot is built on the `mmdb_conc::sync` facade, so
//! `crates/conc/tests/model_boundidx.rs` can exhaustively interleave
//! readers and writers and assert the no-stale-serve invariant.

use mmdb_conc::sync::{RwLock, RwLockWriteGuard};

/// A value stamped with the storage epoch of the catalog snapshot it
/// reflects.
pub trait EpochStamped {
    /// The epoch this value was last reconciled to.
    fn stamp(&self) -> u64;
}

/// A shared slot holding at most one epoch-stamped value, readable only
/// while fresh.
#[derive(Debug, Default)]
pub struct EpochSlot<T> {
    inner: RwLock<Option<T>>,
}

impl<T: EpochStamped> EpochSlot<T> {
    /// An empty slot.
    pub fn new() -> Self {
        EpochSlot {
            inner: RwLock::new(None),
        }
    }

    /// Runs `f` on the slot's value when its stamp equals `epoch` (the
    /// engine epoch the caller just observed); returns `None` without
    /// calling `f` when the slot is empty or stale. The read lock is held
    /// for the duration of `f`, so a concurrent re-sync cannot swap the
    /// value out from under the closure — it can only run after, stamping
    /// a newer epoch.
    pub fn serve_fresh<R>(&self, epoch: u64, f: impl FnOnce(&T) -> R) -> Option<R> {
        let guard = self.inner.read();
        guard.as_ref().filter(|v| v.stamp() == epoch).map(f)
    }

    /// Runs `f` over the slot's current contents **regardless of
    /// freshness** — the stamp is not checked. For observability only
    /// (staleness accounting must read a stale value to measure its lag);
    /// never a substitute for [`EpochSlot::serve_fresh`] when serving.
    pub fn peek<R>(&self, f: impl FnOnce(Option<&T>) -> R) -> R {
        f(self.inner.read().as_ref())
    }

    /// Exclusive access for build / re-sync. Callers must capture the engine
    /// epoch *before* reading any catalog state they install, so the stamp
    /// can only lag a racing mutation, never lead it.
    pub fn write(&self) -> RwLockWriteGuard<'_, Option<T>> {
        self.inner.write()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Stamped(u64);
    impl EpochStamped for Stamped {
        fn stamp(&self) -> u64 {
            self.0
        }
    }

    #[test]
    fn empty_slot_serves_nothing() {
        let slot: EpochSlot<Stamped> = EpochSlot::new();
        assert_eq!(slot.serve_fresh(0, |v| v.0), None);
    }

    #[test]
    fn fresh_value_served_stale_value_refused() {
        let slot = EpochSlot::new();
        *slot.write() = Some(Stamped(3));
        assert_eq!(slot.serve_fresh(3, |v| v.0), Some(3));
        // Engine moved on: the stamped value is stale and must be refused.
        assert_eq!(slot.serve_fresh(4, |v| v.0), None);
    }

    #[test]
    fn resync_restores_service() {
        let slot = EpochSlot::new();
        *slot.write() = Some(Stamped(1));
        assert_eq!(slot.serve_fresh(2, |v| v.0), None);
        if let Some(v) = slot.write().as_mut() {
            v.0 = 2;
        }
        assert_eq!(slot.serve_fresh(2, |v| v.0), Some(2));
    }
}
