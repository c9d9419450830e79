//! Incremental maintenance against a fresh build: whatever order images
//! enter and leave the catalog in, a synced index answers every lookup the
//! way a bulk build of the same catalog does, the staleness backlog is the
//! next sync's work, and a sync that fails changes nothing.

use mmdb_boundidx::{BoundIndex, StalenessReport};
use mmdb_editops::{EditSequence, ImageId};
use mmdb_histogram::{ColorHistogram, RgbQuantizer};
use mmdb_imaging::{draw, RasterImage, Rect, Rgb};
use mmdb_rules::{ColorRangeQuery, ImageInfo, MapInfoResolver, RuleProfile};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

struct Universe {
    resolver: MapInfoResolver,
    store: HashMap<ImageId, Arc<EditSequence>>,
    quant: RgbQuantizer,
    binary: Vec<ImageId>,
    edited: Vec<ImageId>,
}

/// Six bases (a red band of height 1–6 over white, blue or green) and
/// twelve edited images over them: blurs, recolorings and merges.
fn universe() -> Universe {
    let quant = RgbQuantizer::default_64();
    let mut resolver = MapInfoResolver::new();
    let grounds = [Rgb::WHITE, Rgb::BLUE, Rgb::GREEN];
    for b in 1..=6u64 {
        let mut img = RasterImage::filled(10, 10, grounds[b as usize % 3]).unwrap();
        draw::fill_rect(&mut img, &Rect::new(0, 0, 10, b as i64), Rgb::RED);
        let histogram = ColorHistogram::extract(&img, &quant);
        resolver.insert(ImageId::new(b), ImageInfo::new(histogram, 10, 10));
    }
    let mut store: HashMap<ImageId, Arc<EditSequence>> = HashMap::new();
    for e in 0..12u64 {
        let side = 2 + (e % 5) as i64;
        let seq =
            EditSequence::builder(ImageId::new(1 + e % 6)).define(Rect::new(0, 0, side, side));
        let seq = match e % 3 {
            0 => seq.blur(),
            1 => seq.modify(Rgb::RED, Rgb::BLUE),
            _ => seq.merge_into(ImageId::new(1 + (e + 1) % 6), 0, 0),
        };
        store.insert(ImageId::new(10 + e), Arc::new(seq.build()));
    }
    Universe {
        resolver,
        store,
        quant,
        binary: (1..=6).map(ImageId::new).collect(),
        edited: (10..22).map(ImageId::new).collect(),
    }
}

fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Both indexes hold the same ids and answer every bin over a grid of
/// ranges with the same set.
fn same_answers(got: &BoundIndex, want: &BoundIndex) -> Result<(), proptest::TestCaseError> {
    prop_assert_eq!(got.len(), want.len());
    for bin in 0..want.bin_count() {
        for (pmin, pmax) in [(0.0, 1.0), (0.0, 0.0), (0.05, 0.2), (0.3, 0.6), (0.9, 1.0)] {
            let q = ColorRangeQuery::new(bin, pmin, pmax);
            let (mut a, mut b) = (got.lookup(&q).ids, want.lookup(&q).ids);
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b, "bin {} [{}, {}]", bin, pmin, pmax);
        }
    }
    Ok(())
}

/// The catalog of the `listed` images of `u`: binary and edited ids, each
/// ascending.
fn catalog(u: &Universe, listed: &[bool]) -> (Vec<ImageId>, Vec<ImageId>) {
    let on = |ids: &[ImageId], listed: &[bool]| -> Vec<ImageId> {
        let ids = ids.iter().zip(listed).filter(|(_, &on)| on);
        ids.map(|(&id, _)| id).collect()
    };
    (
        on(&u.binary, listed),
        on(&u.edited, &listed[u.binary.len()..]),
    )
}

fn build(u: &Universe, (binary, edited): &(Vec<ImageId>, Vec<ImageId>), epoch: u64) -> BoundIndex {
    BoundIndex::build(
        RuleProfile::Conservative,
        &u.quant,
        Rgb::WHITE,
        binary,
        edited,
        &u.resolver,
        &u.store,
        epoch,
        2,
    )
    .unwrap()
}

fn sync(
    u: &Universe,
    idx: &mut BoundIndex,
    epoch: u64,
    (binary, edited): &(Vec<ImageId>, Vec<ImageId>),
) -> mmdb_rules::Result<mmdb_boundidx::SyncStats> {
    idx.sync(
        epoch,
        binary,
        edited,
        &u.quant,
        Rgb::WHITE,
        &u.resolver,
        &u.store,
    )
}

/// A listing out of id order is a caller's bug, refused before anything
/// is diffed.
#[test]
#[should_panic(expected = "a catalog listing must ascend by id")]
fn a_listing_that_does_not_ascend_is_refused() {
    let u = universe();
    let mut idx = build(&u, &(u.binary.clone(), u.edited.clone()), 1);
    let mut binary = u.binary.clone();
    binary.swap(0, 1);
    let _ = sync(&u, &mut idx, 2, &(binary, u.edited.clone()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(32)))]

    /// Over any interleaving, the backlog a staleness scrape reports is the
    /// work the next sync does, and a synced index reports none.
    #[test]
    fn staleness_backlog_is_the_next_syncs_work(
        start in proptest::collection::vec(any::<bool>(), 18),
        // `Some(i)` lists or unlists image `i`; `None` syncs.
        steps in proptest::collection::vec(
            prop_oneof![3 => (0usize..18).prop_map(Some), 1 => Just(None)],
            0..40,
        ),
    ) {
        let u = universe();
        let mut listed = start;
        let mut idx = build(&u, &catalog(&u, &listed), 0);
        let mut epoch = 0;
        for step in steps.into_iter().chain([None]) {
            let Some(i) = step else {
                epoch += 1;
                let now = catalog(&u, &listed);
                let stale = StalenessReport::compute(Some(&idx), epoch, &now.0, &now.1);
                let stats = sync(&u, &mut idx, epoch, &now).unwrap();
                prop_assert_eq!(stale.epoch_lag, 1);
                prop_assert_eq!(stale.resync_backlog, (stats.added + stats.removed) as u64);
                let fresh = StalenessReport::compute(Some(&idx), epoch, &now.0, &now.1);
                prop_assert_eq!((fresh.epoch_lag, fresh.resync_backlog), (0, 0));
                continue;
            };
            listed[i] = !listed[i];
        }
    }

    /// A sync that would drop a resident image but lists a new one no
    /// resolver or store holds fails, and leaves every lookup, the size
    /// and the stamp as they were.
    #[test]
    fn a_failed_sync_changes_nothing(
        start in proptest::collection::vec(any::<bool>(), 18),
        gone in 0usize..18,
        unknown_is_binary in any::<bool>(),
    ) {
        let u = universe();
        let mut listed = start;
        listed[gone] = true;
        let mut idx = build(&u, &catalog(&u, &listed), 1);
        let before = idx.clone();
        listed[gone] = false;
        let (mut binary, mut edited) = catalog(&u, &listed);
        // Above every stored id, so both listings still ascend.
        let unknown = ImageId::new(99);
        if unknown_is_binary {
            binary.push(unknown);
        } else {
            edited.push(unknown);
        }
        prop_assert!(sync(&u, &mut idx, 2, &(binary, edited)).is_err());
        prop_assert_eq!(idx.synced_epoch(), 1);
        same_answers(&idx, &before)?;
    }

    /// Any interleaving of inserts, deletes and syncs looks up the same
    /// ids as a fresh build of the catalog each sync saw.
    #[test]
    fn interleaved_syncs_match_a_fresh_build(
        start in proptest::collection::vec(any::<bool>(), 18),
        // `Some(i)` lists or unlists image `i`; `None` syncs.
        steps in proptest::collection::vec(
            prop_oneof![3 => (0usize..18).prop_map(Some), 1 => Just(None)],
            0..40,
        ),
    ) {
        let u = universe();
        let all: Vec<ImageId> = u.binary.iter().chain(&u.edited).copied().collect();
        let mut listed = start;
        let catalog = |listed: &[bool]| {
            let ids = all.iter().zip(listed).filter(|(_, &on)| on).map(|(&id, _)| id);
            ids.partition::<Vec<ImageId>, _>(|id| u.binary.contains(id))
        };
        let fresh = |(binary, edited): &(Vec<ImageId>, Vec<ImageId>), epoch| {
            BoundIndex::build(
                RuleProfile::Conservative,
                &u.quant,
                Rgb::WHITE,
                binary,
                edited,
                &u.resolver,
                &u.store,
                epoch,
                2,
            )
            .unwrap()
        };
        let mut idx = fresh(&catalog(&listed), 0);
        let mut epoch = 0;
        for step in steps.into_iter().chain([None]) {
            let Some(i) = step else {
                epoch += 1;
                let (binary, edited) = catalog(&listed);
                idx.sync(epoch, &binary, &edited, &u.quant, Rgb::WHITE, &u.resolver, &u.store)
                    .unwrap();
                same_answers(&idx, &fresh(&(binary, edited), epoch))?;
                continue;
            };
            listed[i] = !listed[i];
        }
    }
}
