//! Query-heat accounting: a lock-free, exponentially-decayed per-(bin,
//! plan) activity table.
//!
//! Every executed range query bumps one fixed-point slot chosen by its
//! quantizer bin and query plan. Slots live in a small number of shards
//! so concurrent recorders touch different cache lines;
//! recording is one relaxed `fetch_add` on a thread-pinned shard — no
//! allocation, no locks, no branches beyond the bounds clamp.
//!
//! Heat decays exponentially: a periodic tick multiplies every slot by a
//! constant factor derived from the configured half-life, so the table
//! ranks *recent* demand rather than lifetime totals (a parallel
//! non-decayed `total` array keeps the lifetime count for context). The
//! tick is opportunistic — any observer (`/heat`, the `/metrics`
//! prerender hook, `snapshot`) claims the elapsed whole ticks via a CAS
//! on a last-tick timestamp and applies the compound factor; there is no
//! mandatory background thread, and because decay multiplies every slot
//! by the *same* factor, a late tick never changes the relative ranking.
//!
//! Both the add and the decay step are monotone in the slot value
//! (`fetch_add` by a constant; `floor(v * f)` with `0 < f < 1`), so if
//! slot A has received a superset of slot B's records, `heat(A) >=
//! heat(B)` holds at every instant regardless of how ticks interleave
//! with records — the property the proptest in this module's test suite
//! pins down, and the reason `mmdbctl top --sort heat` can trust the
//! ordering without freezing the table.
//!
//! Atomics come from the `mmdb_conc` facade so the sharded table can be
//! model-checked under racing recorders (`crates/conc/tests/model_heat.rs`).

use mmdb_conc::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use mmdb_conc::sync::Mutex;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Plan labels, indexed by the `plan` argument of [`HeatTable::record`].
/// Order matches `QueryPlan`'s variants as spelled on metric labels.
pub const HEAT_PLANS: [&str; 4] = ["instantiate", "rbm", "bwm", "indexed"];

/// Bins `0..HEAT_MAX_BINS` get their own slot; anything larger shares one
/// overflow slot (reported as bin `HEAT_MAX_BINS`). The default quantizer
/// has 64 bins, so in practice the overflow slot stays cold.
pub const HEAT_MAX_BINS: usize = 256;

/// Default half-life of recorded heat.
pub const DEFAULT_HEAT_HALF_LIFE: Duration = Duration::from_secs(60);

/// Decay-tick granularity: elapsed wall-clock is quantized to whole ticks
/// so the compound factor is deterministic for a given tick count.
const TICK_MS: u64 = 1000;

/// Fixed-point scale: one recorded query adds `SCALE` to its slot, so a
/// slot value of `SCALE` means "one query's worth of heat".
const SCALE: u64 = 1 << 20;

/// Slots per shard: every (bin, plan) combination plus the overflow bin.
const SLOTS: usize = (HEAT_MAX_BINS + 1) * HEAT_PLANS.len();

const DEFAULT_SHARDS: usize = 8;

#[inline]
fn slot_index(bin: u32, plan: usize) -> usize {
    let bin = (bin as usize).min(HEAT_MAX_BINS);
    bin * HEAT_PLANS.len() + plan
}

/// One shard: a decayed fixed-point heat array and a parallel lifetime
/// total array, both indexed by [`slot_index`].
struct Shard {
    heat: Box<[AtomicU64]>,
    total: Box<[AtomicU64]>,
}

impl Shard {
    fn new() -> Self {
        Shard {
            heat: (0..SLOTS).map(|_| AtomicU64::new(0)).collect(),
            total: (0..SLOTS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// One ranked entry of a heat [`snapshot`](HeatTable::snapshot).
#[derive(Clone, Debug, PartialEq)]
pub struct HeatEntry {
    /// Quantizer bin (`HEAT_MAX_BINS` is the shared overflow slot).
    pub bin: u32,
    /// Plan label from [`HEAT_PLANS`].
    pub plan: &'static str,
    /// Decayed heat in query units (1.0 = one just-recorded query).
    pub heat: f64,
    /// Lifetime (non-decayed) query count for the same slot.
    pub total: u64,
}

/// The sharded, exponentially-decayed heat table. See the module docs for
/// the design; construct via [`heat`] for the process-wide instance or
/// [`HeatTable::with_shards`] in tests.
pub struct HeatTable {
    shards: Vec<Shard>,
    /// Per-tick decay factor as `f64::to_bits` (atomics hold no floats).
    factor_bits: AtomicU64,
    /// Millis since `epoch` of the last applied decay tick.
    last_tick_ms: AtomicU64,
    /// Round-robin assignment of recorder threads to shards.
    next_shard: AtomicUsize,
    epoch: Instant,
}

impl Default for HeatTable {
    fn default() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }
}

impl HeatTable {
    /// A table with `shards` independent slot arrays (at least one).
    pub fn with_shards(shards: usize) -> Self {
        let table = HeatTable {
            shards: (0..shards.max(1)).map(|_| Shard::new()).collect(),
            factor_bits: AtomicU64::new(0),
            last_tick_ms: AtomicU64::new(0),
            next_shard: AtomicUsize::new(0),
            epoch: Instant::now(),
        };
        table.set_half_life(DEFAULT_HEAT_HALF_LIFE);
        table
    }

    /// Sets the heat half-life: after this long without new queries a
    /// slot's heat halves. Takes effect from the next decay tick.
    pub fn set_half_life(&self, half_life: Duration) {
        let secs = half_life.as_secs_f64().max(1e-3);
        let factor = 0.5f64.powf(TICK_MS as f64 / 1e3 / secs);
        self.factor_bits.store(factor.to_bits(), Ordering::Relaxed);
    }

    /// The per-tick decay factor currently in effect.
    fn factor(&self) -> f64 {
        f64::from_bits(self.factor_bits.load(Ordering::Relaxed))
    }

    /// The shard this thread records into, assigned round-robin on first
    /// use and cached in TLS so steady-state recording never touches
    /// shared shard-selection state.
    fn shard(&self) -> &Shard {
        thread_local! {
            static SHARD_SEED: std::cell::Cell<usize> =
                const { std::cell::Cell::new(usize::MAX) };
        }
        let seed = SHARD_SEED.with(|s| {
            if s.get() == usize::MAX {
                s.set(self.next_shard.fetch_add(1, Ordering::Relaxed));
            }
            s.get()
        });
        &self.shards[seed % self.shards.len()]
    }

    /// Records one query against `(bin, plan)`. `plan` indexes
    /// [`HEAT_PLANS`] (an out-of-range value clamps to the last label rather
    /// than panicking — the hot path must never unwind). Two relaxed
    /// `fetch_add`s, no allocation.
    #[inline]
    pub fn record(&self, bin: u32, plan: usize) {
        let idx = slot_index(bin, plan.min(HEAT_PLANS.len() - 1));
        let shard = self.shard();
        // Relaxed is deliberate: each slot is an independent statistic and
        // RMWs lose no increments regardless of ordering (same argument as
        // registry::Counter).
        shard.heat[idx].fetch_add(SCALE, Ordering::Relaxed);
        shard.total[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Applies `ticks` decay ticks to every slot immediately. The test
    /// and model-checking entry point; production decay goes through
    /// [`maybe_decay`](Self::maybe_decay).
    pub fn decay_ticks(&self, ticks: u32) {
        if ticks == 0 {
            return;
        }
        let compound = self.factor().powi(ticks.min(10_000) as i32);
        for shard in &self.shards {
            for slot in &shard.heat {
                // CAS loop so a racing `record` is never lost: the decay
                // multiply retries on top of the new value.
                let mut cur = slot.load(Ordering::Relaxed);
                loop {
                    if cur == 0 {
                        break;
                    }
                    let next = (cur as f64 * compound) as u64;
                    match slot.compare_exchange(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                        Ok(_) => break,
                        Err(now) => cur = now,
                    }
                }
            }
        }
    }

    /// Claims and applies any whole decay ticks elapsed since the last
    /// tick. Lock-free: one CAS on the tick timestamp elects the thread
    /// that decays; losers (and sub-tick callers) return immediately.
    pub fn maybe_decay(&self) {
        let now_ms = self.epoch.elapsed().as_millis().min(u64::MAX as u128) as u64;
        let last = self.last_tick_ms.load(Ordering::Relaxed);
        let elapsed_ticks = now_ms.saturating_sub(last) / TICK_MS;
        if elapsed_ticks == 0 {
            return;
        }
        // Advance by whole ticks (not to `now_ms`) so fractional remainders
        // carry over instead of being dropped.
        let claimed = last + elapsed_ticks * TICK_MS;
        if self
            .last_tick_ms
            .compare_exchange(last, claimed, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            self.decay_ticks(elapsed_ticks.min(u64::from(u32::MAX)) as u32);
        }
    }

    /// Decayed heat of one slot, in query units, summed across shards.
    pub fn heat_of(&self, bin: u32, plan: usize) -> f64 {
        let idx = slot_index(bin, plan);
        let raw: u64 = self
            .shards
            .iter()
            .map(|s| s.heat[idx].load(Ordering::Relaxed))
            .sum();
        raw as f64 / SCALE as f64
    }

    /// Lifetime query count of one slot, summed across shards.
    pub fn total_of(&self, bin: u32, plan: usize) -> u64 {
        let idx = slot_index(bin, plan);
        self.shards
            .iter()
            .map(|s| s.total[idx].load(Ordering::Relaxed))
            .sum()
    }

    /// Applies pending decay, then returns every non-zero slot ranked by
    /// decayed heat (hottest first; ties broken by lifetime total then by
    /// slot identity, so the order is deterministic).
    pub fn snapshot(&self) -> Vec<HeatEntry> {
        self.maybe_decay();
        let mut entries = Vec::new();
        for idx in 0..SLOTS {
            let (mut raw, mut total) = (0u64, 0u64);
            for shard in &self.shards {
                raw += shard.heat[idx].load(Ordering::Relaxed);
                total += shard.total[idx].load(Ordering::Relaxed);
            }
            if raw == 0 && total == 0 {
                continue;
            }
            entries.push(HeatEntry {
                bin: (idx / HEAT_PLANS.len()) as u32,
                plan: HEAT_PLANS[idx % HEAT_PLANS.len()],
                heat: raw as f64 / SCALE as f64,
                total,
            });
        }
        entries.sort_by(|a, b| {
            b.heat
                .total_cmp(&a.heat)
                .then(b.total.cmp(&a.total))
                .then(a.bin.cmp(&b.bin))
                .then(a.plan.cmp(b.plan))
        });
        entries
    }

    /// Zeroes every slot and resets the tick clock. Test/bench helper so
    /// measured runs start cold.
    pub fn clear(&self) {
        for shard in &self.shards {
            for slot in &shard.heat {
                slot.store(0, Ordering::Relaxed);
            }
            for slot in &shard.total {
                slot.store(0, Ordering::Relaxed);
            }
        }
        let now_ms = self.epoch.elapsed().as_millis().min(u64::MAX as u128) as u64;
        self.last_tick_ms.store(now_ms, Ordering::Relaxed);
    }
}

static HEAT: OnceLock<HeatTable> = OnceLock::new();

/// The process-wide heat table every query layer records into.
pub fn heat() -> &'static HeatTable {
    HEAT.get_or_init(HeatTable::default)
}

/// Series names currently published as `mmdb_heat` gauges, so entries that
/// cool out of the top set are zeroed rather than left frozen at their
/// last value. Cold path only (publishing, not recording).
static PUBLISHED: Mutex<Option<BTreeSet<String>>> = Mutex::new(None);

/// Refreshes the `mmdb_heat{bin,plan}` gauge series from the top
/// `limit` snapshot entries (gauge value = heat rounded to the nearest
/// whole query unit). Called by the `/metrics` prerender hook.
pub fn publish_heat_gauges(limit: usize) {
    let entries = heat().snapshot();
    let mut published = PUBLISHED.lock();
    let previous = published.take().unwrap_or_default();
    let mut current = BTreeSet::new();
    for e in entries.iter().take(limit) {
        let name = format!("mmdb_heat{{bin=\"{}\",plan=\"{}\"}}", e.bin, e.plan);
        crate::global().gauge(&name).set(e.heat.round() as u64);
        current.insert(name);
    }
    for stale in previous.difference(&current) {
        crate::global().gauge(stale).set(0);
    }
    *published = Some(current);
}

/// The `/heat` endpoint body: ranked entries as a JSON array, hottest
/// first, truncated to `limit`.
pub fn heat_json(limit: usize) -> String {
    let entries = heat().snapshot();
    let mut out = String::from("[");
    for (i, e) in entries.iter().take(limit).enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n  {{\"bin\": {}, \"plan\": \"{}\", \"heat\": {:.3}, \"total\": {}}}",
            e.bin, e.plan, e.heat, e.total
        );
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_rank() {
        let t = HeatTable::with_shards(2);
        for _ in 0..5 {
            t.record(3, 1);
        }
        t.record(7, 2);
        assert_eq!(t.total_of(3, 1), 5);
        assert!((t.heat_of(3, 1) - 5.0).abs() < 1e-9);
        let snap = t.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].bin, 3);
        assert_eq!(snap[0].plan, "rbm");
        assert_eq!(snap[1].bin, 7);
        assert_eq!(snap[1].plan, "bwm");
    }

    #[test]
    fn decay_halves_at_half_life() {
        let t = HeatTable::with_shards(1);
        t.set_half_life(Duration::from_secs(10));
        for _ in 0..1000 {
            t.record(0, 0);
        }
        t.decay_ticks(10); // 10 one-second ticks = one half-life
        let h = t.heat_of(0, 0);
        assert!(
            (h - 500.0).abs() < 1.0,
            "expected ~500 after half-life, got {h}"
        );
        // Lifetime totals never decay.
        assert_eq!(t.total_of(0, 0), 1000);
    }

    #[test]
    fn overflow_bin_shared() {
        let t = HeatTable::with_shards(1);
        t.record(HEAT_MAX_BINS as u32 + 5, 0);
        t.record(u32::MAX, 0);
        assert_eq!(t.total_of(HEAT_MAX_BINS as u32, 0), 2);
    }

    #[test]
    fn out_of_range_plan_clamps() {
        let t = HeatTable::with_shards(1);
        t.record(1, 99);
        assert_eq!(t.total_of(1, HEAT_PLANS.len() - 1), 1);
    }

    #[test]
    fn clear_resets() {
        let t = HeatTable::with_shards(2);
        t.record(1, 0);
        t.clear();
        assert!(t.snapshot().is_empty());
    }

    #[test]
    fn json_shape() {
        let t = heat();
        t.clear();
        t.record(4, 3);
        let json = heat_json(10);
        assert!(json.contains("\"bin\": 4"));
        assert!(json.contains("\"plan\": \"indexed\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        t.clear();
    }

    /// Both mutation steps are monotone, so a slot that receives a
    /// superset of another's records stays at least as hot through any
    /// interleaving of records and decay ticks. The full randomized
    /// property lives in `tests/heat_prop.rs`; this pins one deterministic
    /// interleaving.
    #[test]
    fn decayed_heat_order_preserving_deterministic() {
        let t = HeatTable::with_shards(1);
        t.set_half_life(Duration::from_secs(5));
        for step in 0..60u32 {
            match step % 3 {
                0 => t.record(0, 0), // A-only record
                1 => {
                    // Paired record: A stays a superset of B.
                    t.record(0, 0);
                    t.record(1, 0);
                }
                _ => t.decay_ticks(1 + step % 3),
            }
            let (a, b) = (t.heat_of(0, 0), t.heat_of(1, 0));
            assert!(a >= b, "step {step}: superset slot {a} < subset slot {b}");
        }
    }
}
