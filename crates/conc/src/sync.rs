//! Drop-in synchronization facade.
//!
//! In normal builds every type here is a thin wrapper over the `std::sync`
//! primitive of the same name (with `parking_lot`-style non-poisoning
//! guards). With the `model` cargo feature, any operation executed *inside a
//! `model::Model::check` run* becomes a scheduling point of the
//! model checker instead; outside a model run the facade still behaves
//! exactly like std, so production crates compiled with the feature keep
//! working in ordinary tests.
//!
//! Atomic locations are identified by the address of the facade object, so
//! facade objects must stay put for the duration of a model run (they
//! always do: protocols allocate them in `Arc`s up front).

use std::sync::PoisonError;

pub use std::sync::Arc;

#[cfg(feature = "model")]
use crate::model::current_ctx;
#[cfg(feature = "model")]
use crate::model::exec::Op;

/// Atomic integer and boolean facade types.
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    #[cfg(feature = "model")]
    use crate::model::current_ctx;
    #[cfg(feature = "model")]
    use crate::model::exec::{Op, Ord as MOrd, Rmw};

    macro_rules! int_atomic {
        ($(#[$doc:meta])* $name:ident, $std:ident, $ty:ty) => {
            $(#[$doc])*
            pub struct $name {
                inner: std::sync::atomic::$std,
                #[cfg(feature = "model")]
                init: u64,
            }

            impl $name {
                /// An atomic with the given initial value (usable in
                /// statics, like the std constructor).
                pub const fn new(v: $ty) -> $name {
                    $name {
                        inner: std::sync::atomic::$std::new(v),
                        #[cfg(feature = "model")]
                        init: v as u64,
                    }
                }

                #[cfg(feature = "model")]
                fn loc(&self) -> usize {
                    self as *const $name as usize
                }

                /// Loads the value.
                pub fn load(&self, ord: Ordering) -> $ty {
                    #[cfg(feature = "model")]
                    if let Some(ctx) = current_ctx() {
                        return ctx.exp.schedule_point(
                            ctx.tid,
                            Op::Load {
                                loc: self.loc(),
                                ord: MOrd::from_std(ord),
                                init: self.init,
                            },
                        ) as $ty;
                    }
                    self.inner.load(ord)
                }

                /// Stores a value.
                pub fn store(&self, val: $ty, ord: Ordering) {
                    #[cfg(feature = "model")]
                    if let Some(ctx) = current_ctx() {
                        ctx.exp.schedule_point(
                            ctx.tid,
                            Op::Store {
                                loc: self.loc(),
                                ord: MOrd::from_std(ord),
                                val: val as u64,
                                init: self.init,
                            },
                        );
                        return;
                    }
                    self.inner.store(val, ord);
                }

                #[cfg(feature = "model")]
                fn model_rmw(&self, rmw: Rmw, ord: Ordering) -> Option<$ty> {
                    current_ctx().map(|ctx| {
                        ctx.exp.schedule_point(
                            ctx.tid,
                            Op::Rmw {
                                loc: self.loc(),
                                ord: MOrd::from_std(ord),
                                rmw,
                                init: self.init,
                            },
                        ) as $ty
                    })
                }

                /// Adds to the value, returning the previous value.
                pub fn fetch_add(&self, val: $ty, ord: Ordering) -> $ty {
                    #[cfg(feature = "model")]
                    if let Some(old) = self.model_rmw(Rmw::Add(val as u64), ord) {
                        return old;
                    }
                    self.inner.fetch_add(val, ord)
                }

                /// Subtracts from the value, returning the previous value.
                pub fn fetch_sub(&self, val: $ty, ord: Ordering) -> $ty {
                    #[cfg(feature = "model")]
                    if let Some(old) = self.model_rmw(Rmw::Sub(val as u64), ord) {
                        return old;
                    }
                    self.inner.fetch_sub(val, ord)
                }

                /// Maximum of the value and `val`, returning the previous
                /// value.
                pub fn fetch_max(&self, val: $ty, ord: Ordering) -> $ty {
                    #[cfg(feature = "model")]
                    if let Some(old) = self.model_rmw(Rmw::Max(val as u64), ord) {
                        return old;
                    }
                    self.inner.fetch_max(val, ord)
                }

                /// Bitwise-or, returning the previous value.
                pub fn fetch_or(&self, val: $ty, ord: Ordering) -> $ty {
                    #[cfg(feature = "model")]
                    if let Some(old) = self.model_rmw(Rmw::Or(val as u64), ord) {
                        return old;
                    }
                    self.inner.fetch_or(val, ord)
                }

                /// Bitwise-and, returning the previous value.
                pub fn fetch_and(&self, val: $ty, ord: Ordering) -> $ty {
                    #[cfg(feature = "model")]
                    if let Some(old) = self.model_rmw(Rmw::And(val as u64), ord) {
                        return old;
                    }
                    self.inner.fetch_and(val, ord)
                }

                /// Swaps in a new value, returning the previous value.
                pub fn swap(&self, val: $ty, ord: Ordering) -> $ty {
                    #[cfg(feature = "model")]
                    if let Some(old) = self.model_rmw(Rmw::Swap(val as u64), ord) {
                        return old;
                    }
                    self.inner.swap(val, ord)
                }

                /// Compare-and-exchange; `Ok(previous)` on success,
                /// `Err(actual)` on failure.
                pub fn compare_exchange(
                    &self,
                    current: $ty,
                    new: $ty,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$ty, $ty> {
                    #[cfg(feature = "model")]
                    if let Some(old) = self.model_rmw(
                        Rmw::Cas {
                            expect: current as u64,
                            new: new as u64,
                        },
                        success,
                    ) {
                        let _ = failure;
                        return if old == current { Ok(old) } else { Err(old) };
                    }
                    self.inner.compare_exchange(current, new, success, failure)
                }
            }

            impl std::fmt::Debug for $name {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                    f.debug_tuple(stringify!($name))
                        .field(&self.load(Ordering::Relaxed))
                        .finish()
                }
            }

            impl Default for $name {
                fn default() -> $name {
                    $name::new(0)
                }
            }
        };
    }

    int_atomic!(
        /// Facade over [`std::sync::atomic::AtomicU64`].
        AtomicU64,
        AtomicU64,
        u64
    );
    int_atomic!(
        /// Facade over [`std::sync::atomic::AtomicUsize`].
        AtomicUsize,
        AtomicUsize,
        usize
    );
    int_atomic!(
        /// Facade over [`std::sync::atomic::AtomicU32`].
        AtomicU32,
        AtomicU32,
        u32
    );

    /// Facade over [`std::sync::atomic::AtomicBool`] (modeled as a 0/1
    /// atomic word).
    pub struct AtomicBool {
        inner: std::sync::atomic::AtomicBool,
        #[cfg(feature = "model")]
        init: u64,
    }

    impl AtomicBool {
        /// An atomic with the given initial value.
        pub const fn new(v: bool) -> AtomicBool {
            AtomicBool {
                inner: std::sync::atomic::AtomicBool::new(v),
                #[cfg(feature = "model")]
                init: v as u64,
            }
        }

        #[cfg(feature = "model")]
        fn loc(&self) -> usize {
            self as *const AtomicBool as usize
        }

        /// Loads the value.
        pub fn load(&self, ord: Ordering) -> bool {
            #[cfg(feature = "model")]
            if let Some(ctx) = current_ctx() {
                return ctx.exp.schedule_point(
                    ctx.tid,
                    Op::Load {
                        loc: self.loc(),
                        ord: MOrd::from_std(ord),
                        init: self.init,
                    },
                ) != 0;
            }
            self.inner.load(ord)
        }

        /// Stores a value.
        pub fn store(&self, val: bool, ord: Ordering) {
            #[cfg(feature = "model")]
            if let Some(ctx) = current_ctx() {
                ctx.exp.schedule_point(
                    ctx.tid,
                    Op::Store {
                        loc: self.loc(),
                        ord: MOrd::from_std(ord),
                        val: val as u64,
                        init: self.init,
                    },
                );
                return;
            }
            self.inner.store(val, ord);
        }

        /// Swaps in a new value, returning the previous value.
        pub fn swap(&self, val: bool, ord: Ordering) -> bool {
            #[cfg(feature = "model")]
            if let Some(ctx) = current_ctx() {
                return ctx.exp.schedule_point(
                    ctx.tid,
                    Op::Rmw {
                        loc: self.loc(),
                        ord: MOrd::from_std(ord),
                        rmw: Rmw::Swap(val as u64),
                        init: self.init,
                    },
                ) != 0;
            }
            self.inner.swap(val, ord)
        }

        /// Bitwise-or, returning the previous value.
        pub fn fetch_or(&self, val: bool, ord: Ordering) -> bool {
            #[cfg(feature = "model")]
            if let Some(ctx) = current_ctx() {
                return ctx.exp.schedule_point(
                    ctx.tid,
                    Op::Rmw {
                        loc: self.loc(),
                        ord: MOrd::from_std(ord),
                        rmw: Rmw::Or(val as u64),
                        init: self.init,
                    },
                ) != 0;
            }
            self.inner.fetch_or(val, ord)
        }

        /// Compare-and-exchange; `Ok(previous)` on success, `Err(actual)`
        /// on failure.
        pub fn compare_exchange(
            &self,
            current: bool,
            new: bool,
            success: Ordering,
            failure: Ordering,
        ) -> Result<bool, bool> {
            #[cfg(feature = "model")]
            if let Some(ctx) = current_ctx() {
                let _ = failure;
                let old = ctx.exp.schedule_point(
                    ctx.tid,
                    Op::Rmw {
                        loc: self.loc(),
                        ord: MOrd::from_std(success),
                        rmw: Rmw::Cas {
                            expect: current as u64,
                            new: new as u64,
                        },
                        init: self.init,
                    },
                ) != 0;
                return if old == current { Ok(old) } else { Err(old) };
            }
            self.inner.compare_exchange(current, new, success, failure)
        }
    }

    impl std::fmt::Debug for AtomicBool {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_tuple("AtomicBool")
                .field(&self.load(Ordering::Relaxed))
                .finish()
        }
    }

    impl Default for AtomicBool {
        fn default() -> AtomicBool {
            AtomicBool::new(false)
        }
    }
}

/// A mutual-exclusion lock with a non-poisoning, `parking_lot`-style API.
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// A new mutex holding `value`.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    #[cfg(feature = "model")]
    fn loc(&self) -> usize {
        self as *const Mutex<T> as usize
    }

    fn phys_lock(&self) -> std::sync::MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquires the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(feature = "model")]
        if let Some(ctx) = current_ctx() {
            ctx.exp
                .schedule_point(ctx.tid, Op::MutexLock { loc: self.loc() });
            return MutexGuard {
                lock: self,
                inner: Some(self.phys_lock()),
                #[cfg(feature = "model")]
                model: true,
            };
        }
        MutexGuard {
            lock: self,
            inner: Some(self.phys_lock()),
            #[cfg(feature = "model")]
            model: false,
        }
    }

    /// Attempts the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        #[cfg(feature = "model")]
        if let Some(ctx) = current_ctx() {
            let got = ctx
                .exp
                .schedule_point(ctx.tid, Op::MutexTryLock { loc: self.loc() });
            if got == 0 {
                return None;
            }
            return Some(MutexGuard {
                lock: self,
                inner: Some(self.phys_lock()),
                model: true,
            });
        }
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard {
                lock: self,
                inner: Some(g),
                #[cfg(feature = "model")]
                model: false,
            }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(MutexGuard {
                lock: self,
                inner: Some(p.into_inner()),
                #[cfg(feature = "model")]
                model: false,
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

/// RAII guard for [`Mutex`]; releases on drop.
pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
    #[cfg(feature = "model")]
    model: bool,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds the lock")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard holds the lock")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.take().is_some() {
            #[cfg(feature = "model")]
            if self.model {
                if let Some(ctx) = current_ctx() {
                    ctx.exp.mutex_unlock(ctx.tid, self.lock.loc());
                }
            }
            let _ = self.lock;
        }
    }
}

/// A condition variable paired with [`Mutex`].
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// A new condition variable.
    pub const fn new() -> Condvar {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    #[cfg(feature = "model")]
    fn loc(&self) -> usize {
        self as *const Condvar as usize
    }

    /// Atomically releases the guard's mutex and waits for a notification,
    /// then re-acquires before returning. As with the real primitive,
    /// callers must re-check their predicate in a loop.
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        #[cfg(feature = "model")]
        if guard.model {
            let ctx = current_ctx().expect("model guard outlived its model run");
            let lock = guard.lock;
            // Disarm the guard: the model releases the mutex itself as the
            // first half of the wait.
            drop(guard.inner.take());
            guard.model = false;
            drop(guard);
            ctx.exp.cv_wait(ctx.tid, self.loc(), lock.loc());
            return MutexGuard {
                lock,
                inner: Some(lock.phys_lock()),
                model: true,
            };
        }
        let lock = guard.lock;
        let phys = guard.inner.take().expect("guard holds the lock");
        #[cfg(feature = "model")]
        {
            guard.model = false;
        }
        drop(guard);
        let phys = self
            .inner
            .wait(phys)
            .unwrap_or_else(PoisonError::into_inner);
        MutexGuard {
            lock,
            inner: Some(phys),
            #[cfg(feature = "model")]
            model: false,
        }
    }

    /// Wakes one waiting thread.
    pub fn notify_one(&self) {
        #[cfg(feature = "model")]
        if let Some(ctx) = current_ctx() {
            ctx.exp.cv_notify(ctx.tid, self.loc(), false);
            return;
        }
        self.inner.notify_one();
    }

    /// Wakes all waiting threads.
    pub fn notify_all(&self) {
        #[cfg(feature = "model")]
        if let Some(ctx) = current_ctx() {
            ctx.exp.cv_notify(ctx.tid, self.loc(), true);
            return;
        }
        self.inner.notify_all();
    }
}

impl Default for Condvar {
    fn default() -> Condvar {
        Condvar::new()
    }
}

/// A reader-writer lock with a non-poisoning, `parking_lot`-style API.
pub struct RwLock<T> {
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// A new lock holding `value`.
    pub const fn new(value: T) -> RwLock<T> {
        RwLock {
            inner: std::sync::RwLock::new(value),
        }
    }

    #[cfg(feature = "model")]
    fn loc(&self) -> usize {
        self as *const RwLock<T> as usize
    }

    /// Acquires shared read access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(feature = "model")]
        if let Some(ctx) = current_ctx() {
            ctx.exp
                .schedule_point(ctx.tid, Op::RwRead { loc: self.loc() });
            return RwLockReadGuard {
                lock: self,
                inner: Some(self.inner.read().unwrap_or_else(PoisonError::into_inner)),
                model: true,
            };
        }
        RwLockReadGuard {
            lock: self,
            inner: Some(self.inner.read().unwrap_or_else(PoisonError::into_inner)),
            #[cfg(feature = "model")]
            model: false,
        }
    }

    /// Acquires exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(feature = "model")]
        if let Some(ctx) = current_ctx() {
            ctx.exp
                .schedule_point(ctx.tid, Op::RwWrite { loc: self.loc() });
            return RwLockWriteGuard {
                lock: self,
                inner: Some(self.inner.write().unwrap_or_else(PoisonError::into_inner)),
                model: true,
            };
        }
        RwLockWriteGuard {
            lock: self,
            inner: Some(self.inner.write().unwrap_or_else(PoisonError::into_inner)),
            #[cfg(feature = "model")]
            model: false,
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> RwLock<T> {
        RwLock::new(T::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RwLock").finish_non_exhaustive()
    }
}

/// RAII shared-read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T> {
    lock: &'a RwLock<T>,
    inner: Option<std::sync::RwLockReadGuard<'a, T>>,
    #[cfg(feature = "model")]
    model: bool,
}

impl<T> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds the lock")
    }
}

impl<T> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.take().is_some() {
            #[cfg(feature = "model")]
            if self.model {
                if let Some(ctx) = current_ctx() {
                    ctx.exp.rw_read_unlock(ctx.tid, self.lock.loc());
                }
            }
            let _ = self.lock;
        }
    }
}

/// RAII exclusive-write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T> {
    lock: &'a RwLock<T>,
    inner: Option<std::sync::RwLockWriteGuard<'a, T>>,
    #[cfg(feature = "model")]
    model: bool,
}

impl<T> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds the lock")
    }
}

impl<T> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard holds the lock")
    }
}

impl<T> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.take().is_some() {
            #[cfg(feature = "model")]
            if self.model {
                if let Some(ctx) = current_ctx() {
                    ctx.exp.rw_write_unlock(ctx.tid, self.lock.loc());
                }
            }
            let _ = self.lock;
        }
    }
}
