//! Per-bin interval lists, sorted by lower endpoint, with a width-bounded
//! overlap search.
//!
//! For one histogram bin, every image contributes a fraction interval
//! `[lo, hi]` (exact histogram value for binary images, BOUNDS range for
//! edited ones). A range query `[pct_min, pct_max]` must emit exactly the
//! intervals that overlap it: `lo <= pct_max && hi >= pct_min`. Sorted by
//! `lo`, the entries with `lo <= pct_max` are a prefix of the list.
//!
//! A bound index lists in a bin only the images whose interval there is
//! not `[0, 0]`; an image it holds but does not list has `[0, 0]`, which
//! only a query that reaches 0 matches, and the index answers such a query
//! from its resident ids and [`BinIntervals::lo_above`]. The `lo` prefix can
//! still hold most of the bin: every image with little of the colour sits
//! in it. So each bin also keeps its largest `hi - lo`, whose `next_up` is
//! `width`, an upper bound on every interval's width (the S-tree's node
//! signature reduced to one number). An interval that reaches `pct_min`
//! starts no lower than `pct_min - width`, so the overlap set lies in the
//! window of the list between that point and `pct_max`, found by one binary
//! search and one gallop. A lookup scans that window once, without a
//! branch per entry; on narrow intervals it is a small multiple of the
//! answer's own size.

use mmdb_editops::ImageId;
use std::cmp::Ordering;

/// One image's fraction interval in one bin.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct IntervalEntry {
    /// Lower fraction bound (`BOUNDmin / imagesize`).
    pub(crate) lo: f64,
    /// Upper fraction bound (`BOUNDmax / imagesize`).
    pub(crate) hi: f64,
    /// The image owning this interval.
    pub(crate) id: ImageId,
}

fn lo_order(a: &IntervalEntry, b: &IntervalEntry) -> Ordering {
    a.lo.total_cmp(&b.lo).then_with(|| a.id.cmp(&b.id))
}

/// Length of the leading run of indices for which `pred` holds, found by
/// galloping. `pred` must be prefix-monotone: once false, false forever.
pub(crate) fn gallop_prefix(len: usize, pred: impl Fn(usize) -> bool) -> usize {
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
/// `cmp` is generic, not a `fn` pointer, so the sort and the searches
/// inline it.
pub(crate) fn merge_batch<T: Copy>(
    list: &mut Vec<T>,
    batch: &mut [T],
    cmp: impl Fn(&T, &T) -> Ordering + Copy,
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

/// The interval set of one histogram bin, ascending by `lo`.
#[derive(Clone, Debug, Default)]
pub(crate) struct BinIntervals {
    by_lo: Vec<IntervalEntry>,
    /// The largest rounded `hi - lo` stored (`0.0` in an empty bin); its
    /// `next_up` bounds every interval's exact width. Derived from the
    /// entries, never persisted.
    widest: f64,
    /// How many stored intervals have the `widest` rounded width: a removal
    /// rescans the bin only when the last of them leaves.
    at_widest: usize,
}

/// The largest rounded `hi - lo` in `entries` and how many entries have
/// it; `(0.0, 0)` for none.
fn widest(entries: &[IntervalEntry]) -> (f64, usize) {
    entries.iter().fold((0.0, 0), |(widest, count), e| {
        let width = e.hi - e.lo;
        if width > widest {
            (width, 1)
        } else if width == widest {
            (widest, count + 1)
        } else {
            (widest, count)
        }
    })
}

impl BinIntervals {
    /// Merges a batch of intervals into the `lo` order: `O(m log(n + m))`
    /// compares and at most `n` moves for `n` resident and `m` new
    /// entries, in place, so a one-entry batch builds no second vector.
    /// The one way intervals enter a bin — a build, a sync and a load all
    /// end here.
    pub(crate) fn insert_batch(&mut self, mut batch: Vec<IntervalEntry>) {
        let (widest, count) = widest(&batch);
        if widest > self.widest {
            (self.widest, self.at_widest) = (widest, count);
        } else if widest == self.widest {
            self.at_widest += count;
        }
        merge_batch(&mut self.by_lo, &mut batch, lo_order);
    }

    /// Drops every interval whose image is in `gone` (ascending ids), front
    /// to back: nothing records where an image's interval sits, so a scan
    /// finds each, stopping once every gone image is found, and the run
    /// before each moves down in one block.
    pub(crate) fn remove_batch(&mut self, gone: &[ImageId]) {
        debug_assert!(gone.windows(2).all(|w| w[0] < w[1]), "gone ids ascend");
        let list = &mut self.by_lo;
        let (mut kept, mut next, mut found) = (0, 0, 0);
        while found < gone.len() {
            let Some(off) = list[next..]
                .iter()
                .position(|e| gone.binary_search(&e.id).is_ok())
            else {
                break;
            };
            let at = next + off;
            self.at_widest -= usize::from(list[at].hi - list[at].lo == self.widest);
            list.copy_within(next..at, kept);
            kept += at - next;
            next = at + 1;
            found += 1;
        }
        let len = kept + list.len() - next;
        list.copy_within(next.., kept);
        list.truncate(len);
        if self.at_widest == 0 {
            (self.widest, self.at_widest) = widest(&self.by_lo);
        }
    }

    /// The stored intervals, ascending by `lo`.
    pub(crate) fn entries(&self) -> &[IntervalEntry] {
        &self.by_lo
    }

    /// The stored intervals with `lo > pct_max`, a suffix of the `lo`
    /// order found by one gallop.
    pub(crate) fn lo_above(&self, pct_max: f64) -> &[IntervalEntry] {
        let n = gallop_prefix(self.by_lo.len(), |i| self.by_lo[i].lo <= pct_max);
        &self.by_lo[n..]
    }

    /// Appends the ids of every interval overlapping `[pct_min, pct_max]`
    /// to `out`, in no particular order, and returns how many entries were
    /// scanned — the index-hit count for telemetry.
    ///
    /// The scan is the window of `by_lo` from the first `lo` at or above
    /// `floor = pct_min - width` (as computed) to the last `lo <= pct_max`,
    /// where `width = next_up(widest)`. No entry before the window
    /// overlaps the query:
    ///
    /// * `widest` is the largest `hi - lo` as computed. Rounding to nearest
    ///   leaves an exact difference at most halfway to the `next_up` of its
    ///   computed value, so every stored interval has `hi - lo < width`
    ///   exactly — even one whose difference rounded down, such as
    ///   `[0.6 * 2^-53, 0.75]`.
    /// * An overlapping interval has `hi >= pct_min`, so exactly
    ///   `lo > hi - width >= pct_min - width`. Rounding to nearest is
    ///   monotone and `lo` is a float, so `lo` is also at least the
    ///   computed `floor`: the subtraction needs no `next_down`.
    ///
    /// Entries after the window have `lo > pct_max`. Within it, most
    /// entries match on paper-shaped data, so `out` grows by the window's
    /// length, every id is written, and a cursor moves past the ones with
    /// `hi >= pct_min` before `out` is cut back to it: no branch per
    /// entry for the predictor to miss.
    pub(crate) fn overlapping(&self, pct_min: f64, pct_max: f64, out: &mut Vec<ImageId>) -> usize {
        let floor = pct_min - self.widest.next_up();
        let window = &self.by_lo[self.by_lo.partition_point(|e| e.lo < floor)..];
        let window = &window[..gallop_prefix(window.len(), |i| window[i].lo <= pct_max)];
        let mut end = out.len();
        out.resize(end + window.len(), ImageId::default());
        for e in window {
            out[end] = e.id;
            end += usize::from(e.hi >= pct_min);
        }
        out.truncate(end);
        window.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{BoundIndex, Staged};
    use mmdb_rules::ColorRangeQuery;
    use proptest::collection::SizeRange;
    use proptest::prelude::*;

    impl BinIntervals {
        /// Bulk construction from an unordered set, the reference the
        /// merges and removals are checked against: one sort.
        fn from_entries(mut entries: Vec<IntervalEntry>) -> Self {
            entries.sort_unstable_by(lo_order);
            let (widest, at_widest) = widest(&entries);
            BinIntervals {
                by_lo: entries,
                widest,
                at_widest,
            }
        }
    }

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
        let mut a = Vec::new();
        let mut b = Vec::new();
        bulk.overlapping(0.15, 0.45, &mut a);
        inc.overlapping(0.15, 0.45, &mut b);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);

        let gone = [ImageId::new(3)];
        inc.remove_batch(&gone);
        assert_eq!(inc.by_lo.len(), 4);
        inc.remove_batch(&gone);
        assert_eq!(inc.by_lo.len(), 4, "double remove");
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
            assert_eq!(merged.by_lo, serial.by_lo, "split={split}");
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

    #[test]
    fn narrow_scan_stays_near_its_hits_and_returns_after_a_wide_interval_leaves() {
        // A selective-shaped bin: 900 images without the colour, and 100
        // with narrow intervals spread over [0, 1].
        let mut entries: Vec<IntervalEntry> = (0..900).map(|i| entry(0.0, 0.0, i)).collect();
        for i in 0..100u64 {
            let lo = i as f64 / 100.0;
            entries.push(entry(lo, lo + 0.004, 900 + i));
        }
        let mut bin = BinIntervals::from_entries(entries.clone());
        let narrow = |bin: &BinIntervals| {
            let mut got = Vec::new();
            let scanned = bin.overlapping(0.5, 0.52, &mut got);
            got.sort_unstable();
            (got, scanned)
        };
        let (hits, scanned) = narrow(&bin);
        assert_eq!(hits, brute_force(&entries, 0.5, 0.52));
        assert_eq!(hits.len(), 3);
        assert!(
            scanned <= hits.len() + 2,
            "scanned {scanned} for {} hits",
            hits.len()
        );

        // One [0, 1] interval widens the bin: the window then reaches back
        // below 0, so the scan reads every `lo <= 0.52` — the 900 zeros,
        // the 53 narrow intervals from 0 to 0.52 and the wide one.
        bin.insert_batch(vec![entry(0.0, 1.0, 1000)]);
        let (wide_hits, wide_scanned) = narrow(&bin);
        assert_eq!(wide_hits.len(), 4);
        assert_eq!(wide_scanned, 900 + 53 + 1);

        // Removing it makes the width exact again, and the narrow scan
        // comes back.
        bin.remove_batch(&[ImageId::new(1000)]);
        assert_eq!(narrow(&bin), (hits, scanned));
    }

    #[test]
    fn width_bound_covers_a_difference_that_rounds_down() {
        // 0.75 - 0.6 * 2^-53 lies 0.6 of a step above 0.75's lower
        // neighbour, so it rounds down to that neighbour: the computed
        // width is below the exact one, and only its `next_up` bounds it.
        let (lo, hi) = (0.6 / (1u64 << 53) as f64, 0.75);
        assert_eq!(hi - lo, hi.next_down());
        let bin = BinIntervals::from_entries(vec![entry(lo, hi, 1)]);
        let mut got = Vec::new();
        bin.overlapping(hi, hi, &mut got);
        assert_eq!(got, vec![ImageId::new(1)]);
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
        /// leaves the `lo` order and the width bound exactly as a bulk
        /// build of the surviving intervals would.
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
            let ids = if only_stored { bin.by_lo.len() } else { drop.len() };
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
            prop_assert_eq!(bin.widest.to_bits(), bulk.widest.to_bits());
            prop_assert_eq!(bin.at_widest, bulk.at_widest);
        }

        /// After a random build, batch insert and batch removal, a lookup
        /// appends exactly the brute-force overlap set behind what `out`
        /// held and scans exactly the width window, on floats that sit on
        /// the query's edges or one ulp either side, and on zero-width,
        /// `[0, 1]` and at most 2^-50-wide intervals. An index holding the
        /// same intervals in one bin, beside `zeros` more images at
        /// `[0, 0]`, answers as brute force over all of them does, at-most
        /// queries from `0.0` and `-0.0` included.
        #[test]
        fn overlapping_is_exact_and_bounded_on_edge_floats(
            (a, b) in arb_query(),
            resident in prop_oneof![arb_edge_specs(0..4), arb_edge_specs(0..50)],
            batch in prop_oneof![arb_edge_specs(0..3), arb_edge_specs(0..30)],
            drop in proptest::collection::vec(any::<bool>(), 80),
            zeros in prop_oneof![0u64..3, 40u64..200],
        ) {
            let resident = edge_entries(0, &resident, a, b);
            let batch = edge_entries(resident.len() as u64, &batch, a, b);
            let mut bin = BinIntervals::from_entries(resident.clone());
            bin.insert_batch(batch.clone());
            let gone: Vec<ImageId> = (0..drop.len() as u64)
                .filter(|&id| drop[id as usize])
                .map(ImageId::new)
                .collect();
            bin.remove_batch(&gone);
            let survivors: Vec<IntervalEntry> = resident
                .into_iter()
                .chain(batch)
                .filter(|e| !gone.contains(&e.id))
                .collect();

            // Shards share one result vector: what it held stays in front.
            let sentinels = [u64::MAX, 7, u64::MAX - 1].map(ImageId::new);
            let mut got = sentinels.to_vec();
            let scanned = bin.overlapping(a, b, &mut got);
            prop_assert_eq!(&got[..sentinels.len()], &sentinels[..]);
            let mut got = got.split_off(sentinels.len());
            got.sort_unstable();
            prop_assert_eq!(got, brute_force(&survivors, a, b), "query [{:e}, {:e}]", a, b);
            let floor = a - widest(&survivors).0.next_up();
            let window = survivors
                .iter()
                .filter(|e| e.lo >= floor && e.lo <= b)
                .count();
            prop_assert_eq!(scanned, window, "query [{:e}, {:e}]", a, b);

            let dense: Vec<IntervalEntry> = survivors
                .into_iter()
                .chain((1000..1000 + zeros).map(|id| entry(0.0, 0.0, id)))
                .collect();
            let mut staged = Staged::with_capacity(1, dense.len());
            for e in &dense {
                staged.push(e.id, [(0, e.lo, e.hi)]);
            }
            let mut index = BoundIndex::new(1);
            index.admit(staged, 1);
            for (pct_min, pct_max) in [(a, b), (0.0, a), (0.0, b), (-0.0, a), (-0.0, b)] {
                let q = ColorRangeQuery { bin: 0, pct_min, pct_max };
                let mut got = index.lookup(&q).ids;
                got.sort_unstable();
                prop_assert_eq!(
                    got,
                    brute_force(&dense, pct_min, pct_max),
                    "index query [{:e}, {:e}]", pct_min, pct_max
                );
            }
        }
    }

    /// A query `[a, b]`: a grid or random lower edge, and an upper edge
    /// equal to it, one ulp above, at most 2^-50 above, or anywhere above.
    fn arb_query() -> impl Strategy<Value = (f64, f64)> {
        (
            prop_oneof![(0u8..9).prop_map(|g| f64::from(g) / 8.0), 0.0f64..1.0],
            0u8..4,
            0.0f64..1.0,
        )
            .prop_map(|(a, shape, r)| {
                let b = match shape {
                    0 => a,
                    1 => a.next_up(),
                    2 => a + r * TINY,
                    _ => a + r * (1.0 - a),
                };
                (a, b.min(1.0))
            })
    }

    /// At most 2^-50: narrower than any width a 64-bin histogram of a
    /// real image produces.
    const TINY: f64 = 1.0 / (1u64 << 50) as f64;

    /// `(anchor, other, shape, r)` per interval, resolved against the query
    /// by [`edge_entries`].
    fn arb_edge_specs(len: impl Into<SizeRange>) -> impl Strategy<Value = Vec<(u8, u8, u8, f64)>> {
        proptest::collection::vec((0u8..9, 0u8..9, 0u8..6, 0.0f64..1.0), len)
    }

    /// A point on or next to an edge of `[a, b]`: each edge, one ulp
    /// either side of it, 0, 1 or `r`, clamped into `[0, 1]`.
    fn anchor(which: u8, a: f64, b: f64, r: f64) -> f64 {
        let x = match which {
            0 => a.next_down(),
            1 => a,
            2 => a.next_up(),
            3 => b.next_down(),
            4 => b,
            5 => b.next_up(),
            6 => 0.0,
            7 => 1.0,
            _ => r,
        };
        x.clamp(0.0, 1.0)
    }

    /// Intervals with ids `first..` from `(anchor, other, shape, r)`
    /// specs: a point at the anchor, `[0, 1]`, a at most 2^-50-wide
    /// interval starting or ending at the anchor, one from just above 0
    /// to the anchor (whose `hi - lo` rounds, half the time below the
    /// exact width), or the hull of two anchors.
    fn edge_entries(first: u64, specs: &[(u8, u8, u8, f64)], a: f64, b: f64) -> Vec<IntervalEntry> {
        specs
            .iter()
            .zip(first..)
            .map(|(&(x, y, shape, r), id)| {
                let x = anchor(x, a, b, r);
                let (lo, hi) = match shape {
                    0 => (x, x),
                    1 => (0.0, 1.0),
                    2 => (x, (x + r * TINY).min(1.0)),
                    3 => ((x - r * TINY).max(0.0), x),
                    4 => ((r * TINY).min(x), x),
                    _ => {
                        let y = anchor(y, a, b, 1.0 - r);
                        (x.min(y), x.max(y))
                    }
                };
                entry(lo, hi, id)
            })
            .collect()
    }
}
