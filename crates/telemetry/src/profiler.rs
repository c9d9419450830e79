//! A dependency-free in-process sampling wall-clock profiler.
//!
//! There is no `libc` in the dependency tree, so signal-based stack capture
//! (the `perf`/`pprof` approach) is unavailable. Instead the profiler is
//! *cooperative*: instrumented threads publish their current logical stack —
//! a fixed-size array of interned frame ids updated by cheap RAII guards —
//! and a sampler thread reads every published stack at a fixed rate,
//! aggregating identical stacks into collapsed-stack text
//! (`thread;frame;frame count`, the format flamegraph tooling consumes).
//!
//! Publishing a frame is two relaxed/release atomic stores (push) and one
//! store (pop); unprofiled code pays nothing. Samples are racy by design —
//! a sampler may observe a stack mid-update — which is fine for a
//! statistical profile and keeps the hot path lock-free.
//!
//! Usage: a worker thread calls [`register_profiler_thread`] once (keeping
//! the guard alive for its lifetime), then brackets interesting regions
//! with [`profile_frame`]. [`collect_profile`] blocks for the requested
//! window and returns the rendered profile; it is wired to
//! `/debug/profile?seconds=N` on the exposition server.

use mmdb_conc::sync::RwLock;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Maximum logical stack depth captured per thread; deeper frames are
/// silently dropped (the shallow frames are the interesting attribution).
pub const MAX_PROFILE_DEPTH: usize = 16;

/// Default sampling rate. 97Hz (prime) avoids lockstep with millisecond-
/// periodic work, the same reason `perf` defaults to 99Hz.
pub const DEFAULT_SAMPLE_HZ: u32 = 97;

struct Interner {
    names: RwLock<Vec<&'static str>>,
}

impl Interner {
    fn intern(&self, name: &'static str) -> u32 {
        {
            let names = self.names.read();
            if let Some(idx) = names
                .iter()
                .position(|n| std::ptr::eq(*n, name) || *n == name)
            {
                return idx as u32;
            }
        }
        let mut names = self.names.write();
        if let Some(idx) = names.iter().position(|n| *n == name) {
            return idx as u32;
        }
        names.push(name);
        (names.len() - 1) as u32
    }

    fn resolve(&self, id: u32) -> &'static str {
        self.names.read().get(id as usize).copied().unwrap_or("?")
    }
}

fn interner() -> &'static Interner {
    static INTERNER: OnceLock<Interner> = OnceLock::new();
    INTERNER.get_or_init(|| Interner {
        names: RwLock::new(Vec::new()),
    })
}

/// One thread's published stack. Frames below `depth` are valid; the
/// sampler tolerates torn reads (push stores the frame id *before*
/// releasing the new depth, so it never reads an unwritten slot).
struct ThreadStack {
    name: &'static str,
    alive: AtomicBool,
    depth: AtomicUsize,
    frames: [AtomicU32; MAX_PROFILE_DEPTH],
}

impl ThreadStack {
    fn new(name: &'static str) -> Arc<Self> {
        Arc::new(ThreadStack {
            name,
            alive: AtomicBool::new(true),
            depth: AtomicUsize::new(0),
            frames: std::array::from_fn(|_| AtomicU32::new(0)),
        })
    }

    /// Snapshot as resolved frame names, outermost first.
    fn sample(&self) -> Vec<&'static str> {
        let depth = self.depth.load(Ordering::Acquire).min(MAX_PROFILE_DEPTH);
        (0..depth)
            .map(|i| interner().resolve(self.frames[i].load(Ordering::Relaxed)))
            .collect()
    }
}

fn registry() -> &'static RwLock<Vec<Arc<ThreadStack>>> {
    static REGISTRY: OnceLock<RwLock<Vec<Arc<ThreadStack>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(Vec::new()))
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<ThreadStack>>> = const { RefCell::new(None) };
}

/// Registration guard: keeps the calling thread visible to the sampler
/// until dropped.
pub struct ProfiledThread {
    stack: Arc<ThreadStack>,
}

impl Drop for ProfiledThread {
    fn drop(&mut self) {
        self.stack.alive.store(false, Ordering::Release);
        CURRENT.with(|c| c.borrow_mut().take());
        registry()
            .write()
            .retain(|s| s.alive.load(Ordering::Acquire));
    }
}

/// Registers the calling thread with the profiler under `name` (a role
/// label such as `"worker"`; threads sharing a role aggregate into the same
/// collapsed stacks). Keep the returned guard alive for the thread's
/// lifetime; frames pushed before registration (or after the guard drops)
/// are no-ops.
pub fn register_profiler_thread(name: &'static str) -> ProfiledThread {
    let stack = ThreadStack::new(name);
    registry().write().push(Arc::clone(&stack));
    CURRENT.with(|c| *c.borrow_mut() = Some(Arc::clone(&stack)));
    ProfiledThread { stack }
}

/// RAII frame: pops itself from the published stack on drop.
pub struct FrameGuard {
    stack: Option<Arc<ThreadStack>>,
}

impl Drop for FrameGuard {
    fn drop(&mut self) {
        if let Some(stack) = &self.stack {
            let depth = stack.depth.load(Ordering::Relaxed);
            if depth > 0 {
                stack.depth.store(depth - 1, Ordering::Release);
            }
        }
    }
}

/// Pushes `name` onto the calling thread's published stack; the frame pops
/// when the returned guard drops. No-op (and allocation-free) on threads
/// that never called [`register_profiler_thread`].
pub fn profile_frame(name: &'static str) -> FrameGuard {
    let stack = CURRENT.with(|c| c.borrow().clone());
    if let Some(stack) = &stack {
        let depth = stack.depth.load(Ordering::Relaxed);
        if depth < MAX_PROFILE_DEPTH {
            let id = interner().intern(name);
            stack.frames[depth].store(id, Ordering::Relaxed);
            // Publish the frame before the new depth so the sampler never
            // reads a slot that hasn't been written.
            stack.depth.store(depth + 1, Ordering::Release);
        } else {
            // Stack overflowed the fixed capacity: don't publish, and make
            // the guard a no-op so pops stay balanced.
            return FrameGuard { stack: None };
        }
    }
    FrameGuard { stack }
}

/// Number of currently registered (alive) profiled threads.
pub fn profiled_thread_count() -> usize {
    registry()
        .read()
        .iter()
        .filter(|s| s.alive.load(Ordering::Acquire))
        .count()
}

/// Samples every registered thread at `hz` for `window`, blocking the
/// caller, and returns the aggregate as collapsed-stack text: one line per
/// distinct stack, `role;frame;frame count`, sorted by stack name. A thread
/// observed between frames contributes its bare role line, so the output is
/// non-empty whenever at least one thread is registered.
pub fn collect_profile(window: Duration, hz: u32) -> String {
    let hz = hz.clamp(1, 1000);
    let interval = Duration::from_nanos(1_000_000_000 / u64::from(hz));
    let deadline = Instant::now() + window;
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut samples_taken: u64 = 0;
    loop {
        {
            let threads = registry().read();
            for stack in threads.iter() {
                if !stack.alive.load(Ordering::Acquire) {
                    continue;
                }
                let mut key = String::from(stack.name);
                for frame in stack.sample() {
                    key.push(';');
                    key.push_str(frame);
                }
                *counts.entry(key).or_insert(0) += 1;
            }
        }
        samples_taken += 1;
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        std::thread::sleep(interval.min(deadline - now));
    }
    let mut out = String::new();
    for (stack, count) in &counts {
        let _ = writeln!(out, "{stack} {count}");
    }
    let _ = writeln!(
        out,
        "# samples={samples_taken} hz={hz} window_ms={}",
        window.as_millis()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unregistered_threads_are_noops() {
        let before = profiled_thread_count();
        let _g = profile_frame("ignored");
        assert_eq!(profiled_thread_count(), before);
    }

    #[test]
    fn frames_publish_and_pop() {
        std::thread::spawn(|| {
            let _reg = register_profiler_thread("test-role");
            {
                let _a = profile_frame("outer");
                let _b = profile_frame("inner");
                let snapshot: Vec<_> = registry()
                    .read()
                    .iter()
                    .filter(|s| s.name == "test-role")
                    .flat_map(|s| s.sample())
                    .collect();
                assert_eq!(snapshot, vec!["outer", "inner"]);
            }
            let empty: Vec<_> = registry()
                .read()
                .iter()
                .filter(|s| s.name == "test-role")
                .flat_map(|s| s.sample())
                .collect();
            assert!(empty.is_empty());
        })
        .join()
        .unwrap();
    }

    #[test]
    fn collect_profile_sees_registered_threads() {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let worker = std::thread::spawn(move || {
            let _reg = register_profiler_thread("prof-test-worker");
            let _frame = profile_frame("busy_loop");
            while !thread_stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let profile = collect_profile(Duration::from_millis(60), 200);
        stop.store(true, Ordering::Relaxed);
        worker.join().unwrap();
        assert!(
            profile.contains("prof-test-worker;busy_loop"),
            "profile missing expected stack:\n{profile}"
        );
        assert!(profile.contains("# samples="));
    }

    #[test]
    fn deregistration_removes_thread() {
        let handle = std::thread::spawn(|| {
            let reg = register_profiler_thread("ephemeral");
            drop(reg);
        });
        handle.join().unwrap();
        assert!(registry().read().iter().all(|s| s.name != "ephemeral"));
    }

    #[test]
    fn depth_overflow_is_safe() {
        std::thread::spawn(|| {
            let _reg = register_profiler_thread("deep");
            let mut guards = Vec::new();
            for _ in 0..(MAX_PROFILE_DEPTH + 4) {
                guards.push(profile_frame("f"));
            }
            let sampled = registry()
                .read()
                .iter()
                .find(|s| s.name == "deep")
                .map_or(0, |s| s.sample().len());
            assert_eq!(sampled, MAX_PROFILE_DEPTH);
            drop(guards);
            let after = registry()
                .read()
                .iter()
                .find(|s| s.name == "deep")
                .map_or(0, |s| s.sample().len());
            assert_eq!(after, 0);
        })
        .join()
        .unwrap();
    }
}
