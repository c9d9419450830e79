//! Ctrl-C / SIGTERM handling without a libc dependency: one `extern "C"`
//! declaration of the POSIX `signal` entry point (already linked into every
//! std binary on unix) installs a handler that flips a process-global
//! `AtomicBool` — the only async-signal-safe thing a handler may do.
//!
//! [`ShutdownSignal`] is the drain primitive both network servers share:
//! the query server's accept loop and `mmdbctl serve`'s foreground wait
//! poll [`ShutdownSignal::is_triggered`] and then run their drain sequence
//! (stop accepting, finish in-flight work, close) instead of dying mid-write
//! to a kill.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

// Relaxed everywhere on TRIGGERED is deliberate: it is a standalone boolean
// flag — no observer infers the state of any other memory from it, and the
// signal-handler store must stay a bare atomic write (async-signal-safe).
// Kept on `std::sync::atomic` rather than the mmdb-conc facade for the same
// reason: the facade's model path takes locks, which a handler must not.
static TRIGGERED: AtomicBool = AtomicBool::new(false);
static INSTALLED: AtomicBool = AtomicBool::new(false);

mod sys {
    pub const SIGINT: i32 = 2;
    pub const SIGTERM: i32 = 15;

    // `sighandler_t` is a function pointer on every unix libc; declaring the
    // symbol directly keeps the workspace free of a libc crate dependency.
    extern "C" {
        pub fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub extern "C" fn on_signal(_signum: i32) {
        // Only async-signal-safe operation: a relaxed atomic store.
        super::TRIGGERED.store(true, std::sync::atomic::Ordering::Relaxed);
    }
}

/// A handle to the process-wide shutdown flag. All handles observe the same
/// flag; installing twice is a no-op.
#[derive(Clone, Copy, Debug)]
pub struct ShutdownSignal;

impl ShutdownSignal {
    /// Installs SIGINT + SIGTERM handlers (first call only) and returns a
    /// handle.
    pub fn install() -> ShutdownSignal {
        if !INSTALLED.swap(true, Ordering::SeqCst) {
            unsafe {
                sys::signal(sys::SIGINT, sys::on_signal);
                sys::signal(sys::SIGTERM, sys::on_signal);
            }
        }
        ShutdownSignal
    }

    /// A handle that observes the flag without installing any handler
    /// (tests, embedders with their own signal strategy).
    pub fn uninstalled() -> ShutdownSignal {
        ShutdownSignal
    }

    /// Whether shutdown has been requested.
    pub fn is_triggered(&self) -> bool {
        TRIGGERED.load(Ordering::Relaxed)
    }

    /// Raises the flag programmatically (tests, admin endpoints).
    pub fn trigger(&self) {
        TRIGGERED.store(true, Ordering::Relaxed);
    }

    /// Clears the flag (test isolation).
    pub fn reset(&self) {
        TRIGGERED.store(false, Ordering::Relaxed);
    }

    /// Blocks the calling thread until the flag is raised, polling every
    /// `interval`. A signal interrupting the sleep only shortens the wait.
    pub fn wait(&self, interval: Duration) {
        while !self.is_triggered() {
            std::thread::sleep(interval);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn programmatic_trigger_and_wait() {
        let sig = ShutdownSignal::uninstalled();
        sig.reset();
        assert!(!sig.is_triggered());
        let waiter = std::thread::spawn(move || {
            sig.wait(Duration::from_millis(5));
            true
        });
        std::thread::sleep(Duration::from_millis(20));
        sig.trigger();
        assert!(waiter.join().unwrap());
        assert!(sig.is_triggered());
        sig.reset();
    }
}
