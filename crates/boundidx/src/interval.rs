//! Per-bin sorted-endpoint interval lists with galloping overlap search.
//!
//! For one histogram bin, every image contributes a fraction interval
//! `[lo, hi]` (exact histogram value for binary images, BOUNDS range for
//! edited ones). A range query `[pct_min, pct_max]` must emit exactly the
//! intervals that overlap it: `lo <= pct_max && hi >= pct_min`. Keeping two
//! orderings of the same entries — ascending by `lo` and descending by
//! `hi` — turns each half of that conjunction into a *prefix*:
//!
//! * the entries with `lo <= pct_max` are a prefix of `by_lo`;
//! * the entries with `hi >= pct_min` are a prefix of `by_hi`.
//!
//! The overlap set is the intersection of the two prefixes, so scanning the
//! *smaller* prefix and filtering on the other endpoint visits
//! `min(|prefix_lo|, |prefix_hi|)` entries instead of all `N`. Prefix
//! lengths are found by galloping (exponential probe + binary search), which
//! costs `O(log p)` for a prefix of length `p` — selective queries never pay
//! a full `O(log N)` let alone `O(N)`.

use mmdb_editops::ImageId;
use std::cmp::Ordering;

/// One image's fraction interval in one bin.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IntervalEntry {
    /// Lower fraction bound (`BOUNDmin / imagesize`).
    pub lo: f64,
    /// Upper fraction bound (`BOUNDmax / imagesize`).
    pub hi: f64,
    /// The image owning this interval.
    pub id: ImageId,
}

fn lo_order(a: &IntervalEntry, b: &IntervalEntry) -> Ordering {
    a.lo.total_cmp(&b.lo).then_with(|| a.id.cmp(&b.id))
}

fn hi_order(a: &IntervalEntry, b: &IntervalEntry) -> Ordering {
    b.hi.total_cmp(&a.hi).then_with(|| a.id.cmp(&b.id))
}

/// Length of the leading run of indices for which `pred` holds, found by
/// galloping. `pred` must be prefix-monotone: once false, false forever.
fn gallop_prefix(len: usize, pred: impl Fn(usize) -> bool) -> usize {
    if len == 0 || !pred(0) {
        return 0;
    }
    // Exponential probe: find a false index (or run off the end).
    let mut bound = 1;
    while bound < len && pred(bound) {
        bound <<= 1;
    }
    if bound >= len && pred(len - 1) {
        return len;
    }
    // Invariant: pred(lo) is true, pred(hi) is false.
    let mut lo = bound >> 1;
    let mut hi = bound.min(len - 1);
    if pred(hi) {
        return hi + 1;
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// Sorts `batch` under `cmp` and merges it into the sorted `list` in
/// place, back to front: the list grows by the batch's length once, then
/// each batch entry, largest first, finds its place among the resident
/// entries not yet moved by binary search, and the run above that place
/// moves up in one block. A one-entry batch costs `log n` compares and one
/// memmove. Keys are unique, so the result is the one order `cmp` defines.
fn merge_batch(
    list: &mut Vec<IntervalEntry>,
    batch: &mut [IntervalEntry],
    cmp: fn(&IntervalEntry, &IntervalEntry) -> Ordering,
) {
    batch.sort_unstable_by(cmp);
    let mut resident = list.len();
    list.extend_from_slice(batch);
    for (before, &entry) in batch.iter().enumerate().rev() {
        let at = list[..resident].partition_point(|e| cmp(e, &entry) == Ordering::Less);
        // `before` batch entries order ahead of `entry`; the run above
        // `at` has `before + 1` slots to move up by.
        list.copy_within(at..resident, at + before + 1);
        list[at + before] = entry;
        resident = at;
    }
}

/// Drops entries from the sorted `list` in place, front to back:
/// `next_drop(rest)` gives the offset in `rest`, the entries not yet
/// moved, of the next entry to drop (`None` when no more go), and the run
/// before it moves down in one block.
fn drop_runs(
    list: &mut Vec<IntervalEntry>,
    mut next_drop: impl FnMut(&[IntervalEntry]) -> Option<usize>,
) {
    let (mut kept, mut next) = (0, 0);
    while let Some(off) = next_drop(&list[next..]) {
        let at = next + off;
        list.copy_within(next..at, kept);
        kept += at - next;
        next = at + 1;
    }
    let len = kept + list.len() - next;
    list.copy_within(next.., kept);
    list.truncate(len);
}

/// The interval set of one histogram bin, maintained in both endpoint
/// orders.
#[derive(Clone, Debug, Default)]
pub struct BinIntervals {
    by_lo: Vec<IntervalEntry>,
    by_hi: Vec<IntervalEntry>,
}

impl BinIntervals {
    /// Bulk construction from an unordered set: sorts once per ordering.
    pub fn from_entries(entries: Vec<IntervalEntry>) -> Self {
        let mut by_lo = entries;
        let mut by_hi = by_lo.clone();
        by_lo.sort_unstable_by(lo_order);
        by_hi.sort_unstable_by(hi_order);
        BinIntervals { by_lo, by_hi }
    }

    /// Number of intervals stored.
    pub fn len(&self) -> usize {
        self.by_lo.len()
    }

    /// True when no interval is stored.
    pub fn is_empty(&self) -> bool {
        self.by_lo.is_empty()
    }

    /// Merges a batch of intervals into both orders: `O(m log(n + m))`
    /// compares and at most `n` moves for `n` resident and `m` new
    /// entries, in place, so a one-entry batch builds no second vector.
    /// The one way intervals enter a bin — a build, a sync and a load all
    /// end here.
    pub fn insert_batch(&mut self, mut batch: Vec<IntervalEntry>) {
        merge_batch(&mut self.by_lo, &mut batch, lo_order);
        merge_batch(&mut self.by_hi, &mut batch, hi_order);
    }

    /// Drops every interval whose image is in `gone` (ascending ids).
    pub fn remove_batch(&mut self, gone: &[ImageId]) {
        debug_assert!(gone.windows(2).all(|w| w[0] < w[1]), "gone ids ascend");
        // Nothing records where an image's interval sits in `by_lo`, so a
        // scan finds it, stopping once every gone image is found.
        let mut removed = Vec::new();
        drop_runs(&mut self.by_lo, |rest| {
            if removed.len() == gone.len() {
                return None;
            }
            let off = rest
                .iter()
                .position(|e| gone.binary_search(&e.id).is_ok())?;
            removed.push(rest[off]);
            Some(off)
        });
        // Their `(hi, id)` keys then find them in `by_hi` by binary search.
        removed.sort_unstable_by(hi_order);
        let mut keys = removed.iter();
        drop_runs(&mut self.by_hi, |rest| {
            let key = keys.next()?;
            let off = rest.partition_point(|e| hi_order(e, key) == Ordering::Less);
            debug_assert_eq!(rest.get(off).map(|e| e.id), Some(key.id), "orders diverged");
            Some(off)
        });
    }

    /// The stored intervals, ascending by `lo`.
    pub(crate) fn entries(&self) -> &[IntervalEntry] {
        &self.by_lo
    }

    /// Emits the ids of every interval overlapping `[pct_min, pct_max]`
    /// into `out` and returns how many entries were scanned (the smaller
    /// prefix length) — the index-hit count for telemetry.
    pub fn overlapping(&self, pct_min: f64, pct_max: f64, out: &mut Vec<ImageId>) -> usize {
        let n_lo = gallop_prefix(self.by_lo.len(), |i| self.by_lo[i].lo <= pct_max);
        let n_hi = gallop_prefix(self.by_hi.len(), |i| self.by_hi[i].hi >= pct_min);
        if n_lo.min(n_hi) == 0 {
            return 0;
        }
        if n_lo <= n_hi {
            for e in &self.by_lo[..n_lo] {
                if e.hi >= pct_min {
                    out.push(e.id);
                }
            }
            n_lo
        } else {
            for e in &self.by_hi[..n_hi] {
                if e.lo <= pct_max {
                    out.push(e.id);
                }
            }
            n_hi
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::SizeRange;
    use proptest::prelude::*;

    fn entry(lo: f64, hi: f64, id: u64) -> IntervalEntry {
        IntervalEntry {
            lo,
            hi,
            id: ImageId::new(id),
        }
    }

    fn brute_force(entries: &[IntervalEntry], pct_min: f64, pct_max: f64) -> Vec<ImageId> {
        let mut v: Vec<ImageId> = entries
            .iter()
            .filter(|e| e.lo <= pct_max && e.hi >= pct_min)
            .map(|e| e.id)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn gallop_prefix_matches_linear_scan() {
        for len in 0..40usize {
            for cut in 0..=len {
                let got = gallop_prefix(len, |i| i < cut);
                assert_eq!(got, cut, "len={len} cut={cut}");
            }
        }
    }

    #[test]
    fn overlap_agrees_with_brute_force() {
        // Deterministic xorshift interval soup, including exact (lo == hi)
        // and full-width intervals.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut entries = Vec::new();
        for id in 0..200u64 {
            let a = next();
            let b = next();
            let (lo, hi) = if id % 5 == 0 {
                (a, a) // exact interval
            } else {
                (a.min(b), a.max(b))
            };
            entries.push(entry(lo, hi, id));
        }
        let bin = BinIntervals::from_entries(entries.clone());
        for _ in 0..200 {
            let a = next();
            let b = next();
            let (qmin, qmax) = (a.min(b), a.max(b));
            let mut got = Vec::new();
            let scanned = bin.overlapping(qmin, qmax, &mut got);
            got.sort_unstable();
            let want = brute_force(&entries, qmin, qmax);
            assert_eq!(got, want, "query [{qmin}, {qmax}]");
            assert!(scanned >= got.len());
            assert!(scanned <= entries.len());
        }
        // Degenerate queries.
        let mut got = Vec::new();
        bin.overlapping(0.0, 1.0, &mut got);
        got.sort_unstable();
        assert_eq!(got, brute_force(&entries, 0.0, 1.0));
    }

    #[test]
    fn incremental_insert_remove_matches_bulk() {
        let entries = vec![
            entry(0.1, 0.4, 1),
            entry(0.0, 0.0, 2),
            entry(0.35, 0.9, 3),
            entry(0.2, 0.2, 4),
            entry(0.5, 1.0, 5),
        ];
        let bulk = BinIntervals::from_entries(entries.clone());
        let mut inc = BinIntervals::default();
        for &e in &entries {
            inc.insert_batch(vec![e]);
        }
        assert_eq!(inc.by_lo, bulk.by_lo);
        assert_eq!(inc.by_hi, bulk.by_hi);
        let mut a = Vec::new();
        let mut b = Vec::new();
        bulk.overlapping(0.15, 0.45, &mut a);
        inc.overlapping(0.15, 0.45, &mut b);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);

        let gone = [ImageId::new(3)];
        inc.remove_batch(&gone);
        assert_eq!(inc.len(), 4);
        inc.remove_batch(&gone);
        assert_eq!(inc.len(), 4, "double remove");
        let mut after = Vec::new();
        inc.overlapping(0.0, 1.0, &mut after);
        assert!(!after.contains(&ImageId::new(3)));
    }

    #[test]
    fn batch_insert_matches_entry_by_entry() {
        // Deterministic soup split into a resident set and a batch; the
        // merged bin must answer queries identically to one built by
        // one-entry batches (and to bulk construction).
        let mut state = 0x0dd5_eed5_1234_4321u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut entries = Vec::new();
        for id in 0..150u64 {
            let a = next();
            let b = next();
            entries.push(entry(a.min(b), a.max(b), id));
        }
        for split in [0usize, 1, 2, 75, 148, 150] {
            let (resident, batch) = entries.split_at(split);
            let mut merged = BinIntervals::from_entries(resident.to_vec());
            merged.insert_batch(batch.to_vec());
            let mut serial = BinIntervals::from_entries(resident.to_vec());
            for &e in batch {
                serial.insert_batch(vec![e]);
            }
            assert_eq!(merged.len(), serial.len(), "split={split}");
            assert_eq!(merged.by_lo, serial.by_lo, "split={split}");
            assert_eq!(merged.by_hi, serial.by_hi, "split={split}");
            for _ in 0..50 {
                let a = next();
                let b = next();
                let (qmin, qmax) = (a.min(b), a.max(b));
                let mut got = Vec::new();
                merged.overlapping(qmin, qmax, &mut got);
                got.sort_unstable();
                assert_eq!(got, brute_force(&entries, qmin, qmax), "split={split}");
            }
        }
    }

    #[test]
    fn scanned_is_smaller_prefix() {
        // Many low intervals, one high: a high selective query must scan
        // only the short prefix.
        let mut entries: Vec<IntervalEntry> = (0..100).map(|i| entry(0.0, 0.1, i)).collect();
        entries.push(entry(0.95, 1.0, 100));
        let bin = BinIntervals::from_entries(entries);
        let mut got = Vec::new();
        let scanned = bin.overlapping(0.9, 1.0, &mut got);
        assert_eq!(got, vec![ImageId::new(100)]);
        assert!(
            scanned <= 2,
            "scanned {scanned} entries, wanted the short prefix"
        );
    }

    fn cases(default: u32) -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Intervals on a coarse grid of eighths, so `lo` and `hi` ties are
    /// common and the id tie-break decides the order.
    fn arb_intervals(len: impl Into<SizeRange>) -> impl Strategy<Value = Vec<(u8, u8)>> {
        proptest::collection::vec((0u8..9, 0u8..9), len)
    }

    /// `(lo, hi)` grid points as entries with ids `first..`.
    fn entries_from(first: u64, grid: &[(u8, u8)]) -> Vec<IntervalEntry> {
        grid.iter()
            .zip(first..)
            .map(|(&(a, b), id)| entry(f64::from(a.min(b)) / 8.0, f64::from(a.max(b)) / 8.0, id))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases(64)))]

        /// Merging a batch into a resident set and then dropping a random
        /// set of ids (resident or new; all stored, or some never stored)
        /// leaves both orders exactly as a bulk build of the surviving
        /// intervals would.
        #[test]
        fn batch_insert_and_remove_match_bulk(
            resident in arb_intervals(0..60),
            batch in prop_oneof![arb_intervals(1), arb_intervals(0..=40)],
            drop in proptest::collection::vec(any::<bool>(), 101),
            only_stored in any::<bool>(),
        ) {
            let resident = entries_from(0, &resident);
            let batch = entries_from(resident.len() as u64, &batch);
            let mut bin = BinIntervals::from_entries(resident.clone());
            bin.insert_batch(batch.clone());
            let ids = if only_stored { bin.len() } else { drop.len() };
            let gone: Vec<ImageId> = (0..ids as u64)
                .filter(|&id| drop[id as usize])
                .map(ImageId::new)
                .collect();
            bin.remove_batch(&gone);

            let survivors: Vec<IntervalEntry> = resident
                .into_iter()
                .chain(batch)
                .filter(|e| !gone.contains(&e.id))
                .collect();
            let bulk = BinIntervals::from_entries(survivors);
            prop_assert_eq!(&bin.by_lo, &bulk.by_lo);
            prop_assert_eq!(&bin.by_hi, &bulk.by_hi);
        }
    }
}
