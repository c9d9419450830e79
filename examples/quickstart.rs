//! Quickstart: store images conventionally and as edit sequences, then
//! answer a color range query without instantiating the edited images.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use mmdbms::prelude::*;

fn main() {
    // A database over the classic 64-bin (4×4×4) RGB histogram space.
    let db = MultimediaDatabase::in_memory(Box::new(RgbQuantizer::default_64()));

    // ── 1. Store a base image conventionally ───────────────────────────
    // A simple "flag": top half red, bottom half white.
    let red = Rgb::new(0xCE, 0x11, 0x26);
    let mut flag = RasterImage::filled(90, 60, Rgb::WHITE).unwrap();
    mmdbms::imaging::draw::fill_rect(&mut flag, &Rect::new(0, 0, 90, 30), red);
    let base = db.insert_image(&flag).unwrap();
    println!(
        "stored base image {base} ({}x{})",
        flag.width(),
        flag.height()
    );

    // ── 2. Store edited versions as sequences of editing operations ────
    // A "dusk" variant: darken the red field.
    let dusk = EditSequence::builder(base)
        .define(Rect::new(0, 0, 90, 30))
        .modify(red, Rgb::new(0x40, 0x05, 0x09))
        .build();
    let dusk_id = db.insert_edited(dusk).unwrap();

    // A cropped variant: just the red field.
    let crop = EditSequence::builder(base)
        .define(Rect::new(0, 0, 90, 30))
        .crop_to_region()
        .build();
    let crop_id = db.insert_edited(crop).unwrap();
    println!("stored edited images {dusk_id} (recolor) and {crop_id} (crop)");

    let stats = db.stats();
    println!(
        "storage: {} binary bytes vs {} edit-sequence bytes (saving factor {:.0}x)",
        stats.binary_bytes,
        stats.edited_bytes,
        stats.space_saving_factor().unwrap_or(f64::NAN)
    );

    // ── 3. Query: "at least 40% red" ────────────────────────────────────
    let query = ColorRangeQuery::at_least(db.bin_of(red), 0.40);
    for plan in [QueryPlan::Bwm, QueryPlan::Rbm, QueryPlan::Instantiate] {
        let outcome = db.query_range_with_plan(&query, plan).unwrap();
        println!(
            "{plan:<12} -> {:?}  (BOUNDS computed: {})",
            outcome.sorted_results(),
            outcome.stats.bounds_computed
        );
    }
    // Ground truth keeps the base (50% red) and the crop (100% red) and
    // rejects the dusk variant (its red was recolored away). RBM/BWM keep
    // the dusk variant as a *candidate* — its rule-derived red range is
    // [0%, 50%], which overlaps the query — illustrating §2's trade: no
    // false negatives, at the price of some false positives.

    // ── 4. Similarity search over the whole database ────────────────────
    // Binary and edited images alike; edited ones are pruned by their
    // Table 1 bounds unless they might be the nearest.
    let mut probe = RasterImage::filled(90, 60, Rgb::WHITE).unwrap();
    mmdbms::imaging::draw::fill_rect(&mut probe, &Rect::new(0, 0, 90, 27), red);
    let nn = db.similar_to_augmented(&probe, 1).unwrap().neighbours;
    println!(
        "nearest neighbour of the probe: {} (L1 distance {:.4})",
        nn[0].1, nn[0].0
    );
}
