//! One model execution: the serialized-thread scheduler, the weak-memory
//! atomic model, and the vector-clock race detector.
//!
//! Execution model (CHESS-style replay exploration): every facade operation
//! is a *scheduling point*. The thread about to perform one parks, a
//! successor is chosen (replaying a recorded prefix, extending it
//! depth-first, or sampling randomly), and exactly one thread runs at a
//! time — so each execution is a total interleaving of facade operations,
//! recorded as a decision sequence that can be replayed verbatim.
//!
//! Atomics are *not* modeled sequentially consistent: each location keeps a
//! history of stores, and a `Relaxed`/`Acquire` load may read any store the
//! coherence and happens-before rules still permit. Which store it reads is
//! itself a recorded decision, so downgrading an `Acquire` to `Relaxed`
//! opens real failing executions the DFS will find.

use super::rng::Rng;
use super::vclock::VClock;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex};

/// Panic payload used to unwind controlled threads once the execution has
/// failed or finished exploring. Never reported as a user failure.
pub(crate) struct ModelAbort;

/// The memory-ordering subset the model distinguishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Ord {
    Relaxed,
    Acquire,
    Release,
    AcqRel,
    SeqCst,
}

impl Ord {
    pub(crate) fn from_std(o: Ordering) -> Ord {
        match o {
            Ordering::Relaxed => Ord::Relaxed,
            Ordering::Acquire => Ord::Acquire,
            Ordering::Release => Ord::Release,
            Ordering::AcqRel => Ord::AcqRel,
            Ordering::SeqCst => Ord::SeqCst,
            _ => Ord::SeqCst,
        }
    }

    fn acquires(self) -> bool {
        matches!(self, Ord::Acquire | Ord::AcqRel | Ord::SeqCst)
    }

    fn releases(self) -> bool {
        matches!(self, Ord::Release | Ord::AcqRel | Ord::SeqCst)
    }
}

/// Read-modify-write flavors the facade atomics need.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Rmw {
    Add(u64),
    Sub(u64),
    Max(u64),
    Or(u64),
    And(u64),
    Swap(u64),
    /// `compare_exchange(expect, new)`; stores only on match.
    Cas {
        expect: u64,
        new: u64,
    },
}

impl Rmw {
    /// `(new_value_to_store, performed_store)`.
    fn apply(self, old: u64) -> (u64, bool) {
        match self {
            Rmw::Add(n) => (old.wrapping_add(n), true),
            Rmw::Sub(n) => (old.wrapping_sub(n), true),
            Rmw::Max(n) => (old.max(n), true),
            Rmw::Or(n) => (old | n, true),
            Rmw::And(n) => (old & n, true),
            Rmw::Swap(n) => (n, true),
            Rmw::Cas { expect, new } => {
                if old == expect {
                    (new, true)
                } else {
                    (old, false)
                }
            }
        }
    }
}

/// The operation a thread is parked on, pending scheduling.
#[derive(Clone, Debug)]
pub(crate) enum Op {
    /// Thread creation: runs once before the spawned closure body.
    Start,
    Load {
        loc: usize,
        ord: Ord,
        init: u64,
    },
    Store {
        loc: usize,
        ord: Ord,
        val: u64,
        init: u64,
    },
    Rmw {
        loc: usize,
        ord: Ord,
        rmw: Rmw,
        init: u64,
    },
    MutexLock {
        loc: usize,
    },
    MutexTryLock {
        loc: usize,
    },
    RwRead {
        loc: usize,
    },
    RwWrite {
        loc: usize,
    },
    /// Re-acquisition half of a condvar wait (enabled once notified and the
    /// mutex is free).
    CvReacquire {
        mutex: usize,
    },
    Join {
        tid: usize,
    },
    Yield,
    CellRead {
        loc: usize,
        what: &'static str,
    },
    CellWrite {
        loc: usize,
        what: &'static str,
    },
}

impl Op {
    fn describe(&self) -> String {
        match self {
            Op::Start => "start".to_string(),
            Op::Load { ord, .. } => format!("load({ord:?})"),
            Op::Store { ord, val, .. } => format!("store({ord:?}, {val})"),
            Op::Rmw { ord, rmw, .. } => format!("rmw({ord:?}, {rmw:?})"),
            Op::MutexLock { .. } => "mutex.lock".to_string(),
            Op::MutexTryLock { .. } => "mutex.try_lock".to_string(),
            Op::RwRead { .. } => "rwlock.read".to_string(),
            Op::RwWrite { .. } => "rwlock.write".to_string(),
            Op::CvReacquire { .. } => "condvar.reacquire".to_string(),
            Op::Join { tid } => format!("join(t{tid})"),
            Op::Yield => "yield".to_string(),
            Op::CellRead { what, .. } => format!("cell.read({what})"),
            Op::CellWrite { what, .. } => format!("cell.write({what})"),
        }
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Status {
    /// Executing user code between scheduling points (at most one thread).
    Running,
    /// Parked at a scheduling point with `pending` set.
    Ready,
    /// Parked in a condvar wait; schedulable once `notified`.
    Waiting {
        notified: bool,
    },
    Finished,
}

struct ThreadSt {
    status: Status,
    pending: Option<Op>,
    clock: VClock,
    name: String,
}

#[derive(Default)]
struct MutexSt {
    owner: Option<usize>,
    /// Release clock of the last unlock.
    clock: VClock,
}

#[derive(Default)]
struct RwSt {
    writer: Option<usize>,
    readers: Vec<usize>,
    /// Release clock of the last write unlock.
    write_clock: VClock,
    /// Join of release clocks of all read unlocks since the last write.
    reader_clock: VClock,
}

#[derive(Default)]
struct CvSt {
    /// Waiting tids in arrival order (notify_one wakes the oldest).
    waiters: Vec<usize>,
}

struct StoreEv {
    seq: u64,
    val: u64,
    writer: usize,
    /// The writer's own clock component at the store (hb test: the store
    /// happens-before thread T iff `T.clock[writer] >= stamp`).
    stamp: u32,
    /// Release clock carried to acquire loads; `None` for relaxed stores
    /// that head no release sequence.
    release: Option<VClock>,
}

struct Location {
    stores: Vec<StoreEv>,
    next_seq: u64,
    /// Per-thread coherence floor: a thread never reads a store older than
    /// one it already read or wrote.
    read_floor: HashMap<usize, u64>,
}

/// Retained store-history depth per atomic location. Older stores are
/// almost always happens-before-superseded anyway; capping keeps long
/// counter loops linear. (Documented approximation: behaviors reading
/// ≥16-generation-stale values are not explored.)
const STORE_HISTORY: usize = 16;

struct CellSt {
    last_write: Option<(usize, VClock)>,
    reads: HashMap<usize, VClock>,
}

/// Why an execution failed, with everything needed to reproduce it.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Human-readable description (panic message, deadlock, race, …).
    pub message: String,
    /// The decision sequence; feed to [`crate::model::Model::replay`].
    pub schedule: Vec<usize>,
    /// One line per executed operation, in order.
    pub trace: Vec<String>,
}

impl Failure {
    /// Renders the failure with its full schedule trace.
    pub fn render(&self) -> String {
        let mut out = format!(
            "model failure: {}\nschedule: {:?}\n",
            self.message, self.schedule
        );
        out.push_str("trace:\n");
        for (i, line) in self.trace.iter().enumerate() {
            out.push_str(&format!("  {i:4}  {line}\n"));
        }
        out
    }
}

/// Scheduling strategy for choice points beyond the replay prefix.
pub(crate) enum Mode {
    /// First-alternative default; exploration backtracks over the recorded
    /// decisions.
    Dfs,
    /// Seeded-random sampling.
    Random(Rng),
}

pub(crate) struct ExecState {
    threads: Vec<ThreadSt>,
    running: Option<usize>,
    last_running: Option<usize>,
    /// Decisions replayed verbatim before new choices are made.
    prefix: Vec<usize>,
    /// `(n_alternatives, chosen)` per decision point, in order.
    pub(crate) decisions: Vec<(usize, usize)>,
    mode: Mode,
    preemption_bound: Option<usize>,
    preemptions: usize,
    locations: HashMap<usize, Location>,
    mutexes: HashMap<usize, MutexSt>,
    rwlocks: HashMap<usize, RwSt>,
    condvars: HashMap<usize, CvSt>,
    cells: HashMap<usize, CellSt>,
    trace: Vec<String>,
    pub(crate) failure: Option<Failure>,
    aborting: bool,
    ops_executed: usize,
    op_budget: usize,
}

impl ExecState {
    fn fail(&mut self, message: String) {
        if self.failure.is_none() {
            self.failure = Some(Failure {
                message,
                schedule: self.decisions.iter().map(|&(_, c)| c).collect(),
                trace: self.trace.clone(),
            });
        }
        self.aborting = true;
    }

    /// One nondeterministic choice among `n` alternatives.
    fn choose(&mut self, n: usize) -> usize {
        let idx = self.decisions.len();
        let chosen = if idx < self.prefix.len() {
            let c = self.prefix[idx];
            if c >= n {
                // Replay divergence: the program under test is not a pure
                // function of the schedule (e.g. it consulted wall-clock
                // time to branch). Surface it instead of exploring garbage.
                self.fail(format!(
                    "replay divergence at decision {idx}: prefix chose {c} of {n} alternatives"
                ));
                0
            } else {
                c
            }
        } else {
            match &mut self.mode {
                Mode::Dfs => 0,
                Mode::Random(rng) => rng.below(n),
            }
        };
        self.decisions.push((n, chosen));
        chosen
    }

    fn all_finished(&self) -> bool {
        self.threads.iter().all(|t| t.status == Status::Finished)
    }

    fn op_enabled(&self, tid: usize) -> bool {
        let t = &self.threads[tid];
        match t.status {
            Status::Waiting { notified } => {
                if !notified {
                    return false;
                }
                match t.pending {
                    Some(Op::CvReacquire { mutex }) => {
                        self.mutexes.get(&mutex).map_or(true, |m| m.owner.is_none())
                    }
                    _ => false,
                }
            }
            Status::Ready => match t.pending {
                Some(Op::MutexLock { loc }) => {
                    self.mutexes.get(&loc).map_or(true, |m| m.owner.is_none())
                }
                // std's futex `RwLock` prefers writers: once a writer is
                // blocked on a lock that readers hold, a new reader queues
                // behind it (so a thread reading two locks nested, or one
                // lock twice, can deadlock with two writers). A reader that
                // arrives while the lock is free still races the writer.
                Some(Op::RwRead { loc }) => self.rwlocks.get(&loc).map_or(true, |rw| {
                    rw.writer.is_none() && (rw.readers.is_empty() || !self.writer_pending(loc))
                }),
                Some(Op::RwWrite { loc }) => self
                    .rwlocks
                    .get(&loc)
                    .map_or(true, |rw| rw.writer.is_none() && rw.readers.is_empty()),
                Some(Op::Join { tid: target }) => self.threads[target].status == Status::Finished,
                Some(_) => true,
                None => false,
            },
            _ => false,
        }
    }

    /// True when some thread is parked at `rwlock.write` on `loc`.
    fn writer_pending(&self, loc: usize) -> bool {
        self.threads.iter().any(|t| {
            t.status == Status::Ready
                && matches!(t.pending, Some(Op::RwWrite { loc: wanted }) if wanted == loc)
        })
    }

    /// Picks the next thread to run. Called with no thread running and
    /// every live thread parked.
    fn schedule_next(&mut self) {
        if self.aborting {
            return;
        }
        let enabled: Vec<usize> = (0..self.threads.len())
            .filter(|&t| self.op_enabled(t))
            .collect();
        if enabled.is_empty() {
            if !self.all_finished() {
                let stuck: Vec<String> = self
                    .threads
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.status != Status::Finished)
                    .map(|(i, t)| {
                        format!(
                            "t{i} ({}) {:?} at {}",
                            t.name,
                            t.status,
                            t.pending.as_ref().map_or("-".to_string(), Op::describe)
                        )
                    })
                    .collect();
                self.fail(format!(
                    "deadlock: no enabled thread [{}]",
                    stuck.join("; ")
                ));
            }
            return;
        }
        // Alternatives ordered: keep running the previous thread first
        // (cheapest, no preemption), then ascending tid.
        let mut alts = Vec::with_capacity(enabled.len());
        if let Some(last) = self.last_running {
            if enabled.contains(&last) {
                alts.push(last);
            }
        }
        for &t in &enabled {
            if Some(t) != self.last_running {
                alts.push(t);
            }
        }
        // Preemption bound: once spent, a still-enabled previous thread
        // must keep running (CHESS-style context bounding).
        let bounded = match (self.preemption_bound, self.last_running) {
            (Some(bound), Some(last)) if self.preemptions >= bound && enabled.contains(&last) => {
                vec![last]
            }
            _ => alts,
        };
        let k = if bounded.len() == 1 {
            0
        } else {
            self.choose(bounded.len())
        };
        let chosen = bounded[k];
        if let Some(last) = self.last_running {
            if chosen != last && enabled.contains(&last) {
                self.preemptions += 1;
            }
        }
        self.running = Some(chosen);
        self.last_running = Some(chosen);
    }

    fn location(&mut self, loc: usize, init: u64) -> &mut Location {
        self.locations.entry(loc).or_insert_with(|| Location {
            stores: vec![StoreEv {
                seq: 0,
                val: init,
                writer: 0,
                stamp: 0, // hb-before every thread: clock[0] >= 0 always
                release: Some(VClock::new()),
            }],
            next_seq: 1,
            read_floor: HashMap::new(),
        })
    }

    /// Executes the pending op of `tid`. Returns the op's value result
    /// (load value, rmw old value, try_lock success as 0/1).
    fn execute(&mut self, tid: usize) -> u64 {
        self.ops_executed += 1;
        if self.ops_executed > self.op_budget {
            self.fail(format!(
                "op budget ({}) exceeded: livelock or unbounded loop under model",
                self.op_budget
            ));
            return 0;
        }
        let op = self.threads[tid]
            .pending
            .take()
            .expect("scheduled thread has a pending op");
        self.threads[tid].clock.tick(tid);
        let desc = op.describe();
        let mut outcome = String::new();
        let result: u64 = match op {
            Op::Start | Op::Yield => 0,
            Op::Load { loc, ord, init } => self.atomic_load(tid, loc, ord, init, &mut outcome),
            Op::Store {
                loc,
                ord,
                val,
                init,
            } => {
                self.atomic_store(tid, loc, ord, val, init);
                0
            }
            Op::Rmw {
                loc,
                ord,
                rmw,
                init,
            } => {
                let old = self.atomic_rmw(tid, loc, ord, rmw, init);
                outcome = format!(" -> old {old}");
                old
            }
            Op::MutexLock { loc } => {
                let clock = {
                    let m = self.mutexes.entry(loc).or_default();
                    debug_assert!(m.owner.is_none());
                    m.owner = Some(tid);
                    m.clock.clone()
                };
                self.threads[tid].clock.join(&clock);
                0
            }
            Op::MutexTryLock { loc } => {
                let m = self.mutexes.entry(loc).or_default();
                if m.owner.is_none() {
                    m.owner = Some(tid);
                    let clock = m.clock.clone();
                    self.threads[tid].clock.join(&clock);
                    outcome = " -> acquired".to_string();
                    1
                } else {
                    outcome = " -> busy".to_string();
                    0
                }
            }
            Op::RwRead { loc } => {
                let clock = {
                    let rw = self.rwlocks.entry(loc).or_default();
                    debug_assert!(rw.writer.is_none());
                    rw.readers.push(tid);
                    rw.write_clock.clone()
                };
                self.threads[tid].clock.join(&clock);
                0
            }
            Op::RwWrite { loc } => {
                let (wc, rc) = {
                    let rw = self.rwlocks.entry(loc).or_default();
                    debug_assert!(rw.writer.is_none() && rw.readers.is_empty());
                    rw.writer = Some(tid);
                    (rw.write_clock.clone(), rw.reader_clock.clone())
                };
                self.threads[tid].clock.join(&wc);
                self.threads[tid].clock.join(&rc);
                0
            }
            Op::CvReacquire { mutex } => {
                let clock = {
                    let m = self.mutexes.entry(mutex).or_default();
                    debug_assert!(m.owner.is_none());
                    m.owner = Some(tid);
                    m.clock.clone()
                };
                self.threads[tid].clock.join(&clock);
                self.threads[tid].status = Status::Running;
                0
            }
            Op::Join { tid: target } => {
                let clock = self.threads[target].clock.clone();
                self.threads[tid].clock.join(&clock);
                0
            }
            Op::CellRead { loc, what } => {
                self.cell_access(tid, loc, what, false);
                0
            }
            Op::CellWrite { loc, what } => {
                self.cell_access(tid, loc, what, true);
                0
            }
        };
        self.threads[tid].status = Status::Running;
        let name = self.threads[tid].name.clone();
        self.trace.push(format!("t{tid} ({name}): {desc}{outcome}"));
        result
    }

    fn atomic_load(
        &mut self,
        tid: usize,
        loc: usize,
        ord: Ord,
        init: u64,
        outcome: &mut String,
    ) -> u64 {
        let clock = self.threads[tid].clock.clone();
        let (candidates, floor) = {
            let l = self.location(loc, init);
            let hb_floor = l
                .stores
                .iter()
                .filter(|s| clock.get(s.writer) >= s.stamp)
                .map(|s| s.seq)
                .max()
                .unwrap_or(0);
            let floor = hb_floor.max(l.read_floor.get(&tid).copied().unwrap_or(0));
            let mut cands: Vec<u64> = l
                .stores
                .iter()
                .filter(|s| s.seq >= floor)
                .map(|s| s.seq)
                .collect();
            cands.sort_unstable_by(|a, b| b.cmp(a)); // newest first
            if ord == Ord::SeqCst {
                // Approximation: an SC load reads the newest store. This
                // under-explores some mixed-SC behaviors but never invents
                // impossible ones.
                cands.truncate(1);
            }
            (cands, floor)
        };
        let _ = floor;
        let pick = if candidates.len() > 1 {
            candidates[self.choose(candidates.len())]
        } else {
            candidates[0]
        };
        let (val, release) = {
            let l = self.location(loc, init);
            l.read_floor.insert(tid, pick);
            let s = l
                .stores
                .iter()
                .find(|s| s.seq == pick)
                .expect("picked store exists");
            (s.val, s.release.clone())
        };
        if ord.acquires() {
            if let Some(rel) = release {
                self.threads[tid].clock.join(&rel);
            }
        }
        *outcome = format!(" -> {val} (store #{pick})");
        val
    }

    fn atomic_store(&mut self, tid: usize, loc: usize, ord: Ord, val: u64, init: u64) {
        let clock = self.threads[tid].clock.clone();
        let stamp = clock.get(tid);
        let l = self.location(loc, init);
        let seq = l.next_seq;
        l.next_seq += 1;
        l.read_floor.insert(tid, seq);
        let release = if ord.releases() { Some(clock) } else { None };
        l.stores.push(StoreEv {
            seq,
            val,
            writer: tid,
            stamp,
            release,
        });
        if l.stores.len() > STORE_HISTORY {
            l.stores.remove(0);
        }
    }

    fn atomic_rmw(&mut self, tid: usize, loc: usize, ord: Ord, rmw: Rmw, init: u64) -> u64 {
        // An atomic RMW always reads the newest store in modification order.
        let (old, prev_release) = {
            let l = self.location(loc, init);
            let s = l.stores.last().expect("location has stores");
            (s.val, s.release.clone())
        };
        if ord.acquires() {
            if let Some(rel) = &prev_release {
                let rel = rel.clone();
                self.threads[tid].clock.join(&rel);
            }
        }
        let (new, stored) = rmw.apply(old);
        if stored {
            let clock = self.threads[tid].clock.clone();
            let stamp = clock.get(tid);
            // Release sequence: the RMW store carries the previous release
            // clock forward even when itself relaxed.
            let release = if ord.releases() {
                let mut c = clock;
                if let Some(prev) = &prev_release {
                    c.join(prev);
                }
                Some(c)
            } else {
                prev_release
            };
            let l = self.location(loc, init);
            let seq = l.next_seq;
            l.next_seq += 1;
            l.read_floor.insert(tid, seq);
            l.stores.push(StoreEv {
                seq,
                val: new,
                writer: tid,
                stamp,
                release,
            });
            if l.stores.len() > STORE_HISTORY {
                l.stores.remove(0);
            }
        }
        old
    }

    fn cell_access(&mut self, tid: usize, loc: usize, what: &'static str, write: bool) {
        let clock = self.threads[tid].clock.clone();
        let name = self.threads[tid].name.clone();
        let cell = self.cells.entry(loc).or_insert_with(|| CellSt {
            last_write: None,
            reads: HashMap::new(),
        });
        let mut race: Option<String> = None;
        if let Some((wt, wc)) = &cell.last_write {
            if *wt != tid && !wc.le(&clock) {
                race = Some(format!(
                    "data race on {what}: {}-access by t{tid} ({name}) is concurrent with write by t{wt}",
                    if write { "write" } else { "read" }
                ));
            }
        }
        if write && race.is_none() {
            for (rt, rc) in &cell.reads {
                if *rt != tid && !rc.le(&clock) {
                    race = Some(format!(
                        "data race on {what}: write by t{tid} ({name}) is concurrent with read by t{rt}"
                    ));
                    break;
                }
            }
        }
        if write {
            cell.last_write = Some((tid, clock));
            cell.reads.clear();
        } else {
            cell.reads.insert(tid, clock);
        }
        if let Some(msg) = race {
            self.fail(msg);
        }
    }
}

/// One execution's shared coordination block: controlled threads park on
/// `cv` until the scheduler hands them the token.
pub(crate) struct Exploration {
    state: StdMutex<ExecState>,
    cv: StdCondvar,
}

impl Exploration {
    pub(crate) fn new(
        prefix: Vec<usize>,
        mode: Mode,
        preemption_bound: Option<usize>,
        op_budget: usize,
    ) -> Arc<Exploration> {
        let threads = vec![ThreadSt {
            status: Status::Running,
            pending: None,
            clock: VClock::new(),
            name: "main".to_string(),
        }];
        Arc::new(Exploration {
            state: StdMutex::new(ExecState {
                threads,
                running: Some(0),
                last_running: Some(0),
                prefix,
                decisions: Vec::new(),
                mode,
                preemption_bound,
                preemptions: 0,
                locations: HashMap::new(),
                mutexes: HashMap::new(),
                rwlocks: HashMap::new(),
                condvars: HashMap::new(),
                cells: HashMap::new(),
                trace: Vec::new(),
                failure: None,
                aborting: false,
                ops_executed: 0,
                op_budget,
            }),
            cv: StdCondvar::new(),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ExecState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Parks at a scheduling point and executes `op` once scheduled.
    /// Panics with [`ModelAbort`] when the execution is being torn down.
    pub(crate) fn schedule_point(&self, tid: usize, op: Op) -> u64 {
        let mut st = self.lock();
        if st.aborting {
            drop(st);
            std::panic::panic_any(ModelAbort);
        }
        st.threads[tid].pending = Some(op);
        st.threads[tid].status = Status::Ready;
        st.running = None;
        st.schedule_next();
        self.cv.notify_all();
        loop {
            if st.aborting {
                drop(st);
                std::panic::panic_any(ModelAbort);
            }
            if st.running == Some(tid) {
                break;
            }
            st = self
                .cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        let r = st.execute(tid);
        if st.aborting {
            drop(st);
            std::panic::panic_any(ModelAbort);
        }
        r
    }

    /// A non-blocking state mutation executed by the running thread without
    /// giving up the token (unlocks, notifies — operations that only ever
    /// *enable* other threads; interleavings around them are equivalent to
    /// interleavings at the neighbouring scheduling points).
    fn direct<R>(&self, f: impl FnOnce(&mut ExecState) -> R) -> Option<R> {
        let mut st = self.lock();
        if st.aborting {
            return None;
        }
        Some(f(&mut st))
    }

    pub(crate) fn mutex_unlock(&self, tid: usize, loc: usize) {
        self.direct(|st| {
            let clock = {
                st.threads[tid].clock.tick(tid);
                st.threads[tid].clock.clone()
            };
            let m = st.mutexes.entry(loc).or_default();
            debug_assert_eq!(m.owner, Some(tid));
            m.owner = None;
            m.clock = clock;
            st.trace.push(format!("t{tid}: mutex.unlock"));
        });
        self.cv.notify_all();
    }

    pub(crate) fn rw_read_unlock(&self, tid: usize, loc: usize) {
        self.direct(|st| {
            st.threads[tid].clock.tick(tid);
            let clock = st.threads[tid].clock.clone();
            let rw = st.rwlocks.entry(loc).or_default();
            rw.readers.retain(|&r| r != tid);
            rw.reader_clock.join(&clock);
            st.trace.push(format!("t{tid}: rwlock.read_unlock"));
        });
        self.cv.notify_all();
    }

    pub(crate) fn rw_write_unlock(&self, tid: usize, loc: usize) {
        self.direct(|st| {
            st.threads[tid].clock.tick(tid);
            let clock = st.threads[tid].clock.clone();
            let rw = st.rwlocks.entry(loc).or_default();
            debug_assert_eq!(rw.writer, Some(tid));
            rw.writer = None;
            rw.write_clock = clock.clone();
            rw.reader_clock = clock;
            st.trace.push(format!("t{tid}: rwlock.write_unlock"));
        });
        self.cv.notify_all();
    }

    pub(crate) fn cv_notify(&self, tid: usize, cv_loc: usize, all: bool) {
        self.direct(|st| {
            st.threads[tid].clock.tick(tid);
            let waiters = st.condvars.entry(cv_loc).or_default().waiters.clone();
            let mut woken = 0usize;
            for w in waiters {
                if let Status::Waiting { notified: false } = st.threads[w].status {
                    st.threads[w].status = Status::Waiting { notified: true };
                    woken += 1;
                    if !all {
                        break;
                    }
                }
            }
            st.trace.push(format!(
                "t{tid}: condvar.notify_{} (woke {woken})",
                if all { "all" } else { "one" }
            ));
        });
        self.cv.notify_all();
    }

    /// The full condvar wait cycle: atomically release the mutex and park;
    /// once notified and the mutex is free, re-acquire and return.
    pub(crate) fn cv_wait(&self, tid: usize, cv_loc: usize, mutex: usize) {
        let mut st = self.lock();
        if st.aborting {
            drop(st);
            std::panic::panic_any(ModelAbort);
        }
        // Release the mutex (release clock as in mutex_unlock).
        st.threads[tid].clock.tick(tid);
        let clock = st.threads[tid].clock.clone();
        {
            let m = st.mutexes.entry(mutex).or_default();
            debug_assert_eq!(m.owner, Some(tid));
            m.owner = None;
            m.clock = clock;
        }
        st.condvars.entry(cv_loc).or_default().waiters.push(tid);
        st.threads[tid].status = Status::Waiting { notified: false };
        st.threads[tid].pending = Some(Op::CvReacquire { mutex });
        st.trace
            .push(format!("t{tid}: condvar.wait (released mutex)"));
        st.running = None;
        st.schedule_next();
        self.cv.notify_all();
        loop {
            if st.aborting {
                drop(st);
                std::panic::panic_any(ModelAbort);
            }
            if st.running == Some(tid) {
                break;
            }
            st = self
                .cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        st.condvars
            .entry(cv_loc)
            .or_default()
            .waiters
            .retain(|&w| w != tid);
        let r = st.execute(tid); // CvReacquire
        let _ = r;
        if st.aborting {
            drop(st);
            std::panic::panic_any(ModelAbort);
        }
    }

    /// Registers a child thread spawned by `parent`; returns its tid.
    pub(crate) fn register_thread(&self, parent: usize, name: String) -> usize {
        let mut st = self.lock();
        st.threads[parent].clock.tick(parent);
        let mut clock = st.threads[parent].clock.clone();
        let tid = st.threads.len();
        clock.tick(tid);
        st.threads.push(ThreadSt {
            status: Status::Ready,
            pending: Some(Op::Start),
            clock,
            name: name.clone(),
        });
        st.trace.push(format!("t{parent}: spawn t{tid} ({name})"));
        tid
    }

    /// First act of a controlled child thread: park until first scheduled.
    pub(crate) fn initial_wait(&self, tid: usize) {
        let mut st = self.lock();
        loop {
            if st.aborting {
                drop(st);
                std::panic::panic_any(ModelAbort);
            }
            if st.running == Some(tid) {
                break;
            }
            st = self
                .cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        st.execute(tid); // Op::Start
    }

    /// Marks `tid` finished (normally or by panic) and hands the token on.
    pub(crate) fn thread_finished(&self, tid: usize, panic_msg: Option<String>) {
        let mut st = self.lock();
        if let Some(msg) = panic_msg {
            let name = st.threads[tid].name.clone();
            st.fail(format!("thread t{tid} ({name}) panicked: {msg}"));
        }
        st.threads[tid].status = Status::Finished;
        st.threads[tid].pending = None;
        if st.running == Some(tid) {
            st.running = None;
            st.schedule_next();
        }
        self.cv.notify_all();
    }

    /// Blocks the caller (tid 0, already finished) until every controlled
    /// thread has finished, tearing stragglers down on failure.
    pub(crate) fn wait_all_finished(&self) {
        let mut st = self.lock();
        loop {
            if st.all_finished() {
                return;
            }
            if st.aborting {
                // Wake parked threads so they can unwind with ModelAbort.
                self.cv.notify_all();
            }
            st = self
                .cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Records a failure from outside an op (used by the main wrapper when
    /// the closure body panics).
    pub(crate) fn record_failure(&self, message: String) {
        let mut st = self.lock();
        st.fail(message);
        self.cv.notify_all();
    }

    pub(crate) fn take_outcome(&self) -> (Vec<(usize, usize)>, Option<Failure>, usize) {
        let mut st = self.lock();
        let decisions = std::mem::take(&mut st.decisions);
        let failure = st.failure.take();
        (decisions, failure, st.ops_executed)
    }
}
