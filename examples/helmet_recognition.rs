//! Helmet recognition: the paper's second evaluation scenario, and a
//! demonstration of *why databases are augmented* (§2).
//!
//! A query photo of a known helmet taken "under varying lighting
//! conditions" fails to match the stored original's histogram — but it does
//! match a stored *edited variant* (the original with its colors modified),
//! and the base↔variant connection returns the right helmet anyway.
//!
//! ```text
//! cargo run --release --example helmet_recognition
//! ```

use mmdbms::datagen::helmets::HelmetGenerator;
use mmdbms::histogram::l1_distance;
use mmdbms::prelude::*;

fn main() {
    let db = MultimediaDatabase::in_memory(Box::new(RgbQuantizer::default_64()));
    let generator = HelmetGenerator::with_seed(77);

    // ── Store 30 team helmets conventionally ───────────────────────────
    let mut helmet_ids = Vec::new();
    for i in 0..30 {
        helmet_ids.push(db.insert_image(&generator.generate(i)).unwrap());
    }
    let team7 = helmet_ids[7];
    let team7_img = db.image(team7).unwrap();

    // ── Augment team 7 with a "night game" variant ─────────────────────
    // Find team 7's shell color — the dominant histogram bin once the studio
    // backdrop is excluded — and store a darkened version of the helmet as
    // an edit sequence.
    let hist = ColorHistogram::extract(&team7_img, db.quantizer());
    let backdrop_bin = db.bin_of(mmdbms::datagen::palette::HELMET_BACKDROP);
    let shell_bin = hist
        .nonzero()
        .filter(|&(bin, _)| bin != backdrop_bin)
        .max_by_key(|&(_, count)| count)
        .map(|(bin, _)| bin)
        .expect("helmet has foreground colors");
    let shell_color = dominant_color(&team7_img, shell_bin, db.quantizer());
    let dark = darken(shell_color);
    let night_variant = EditSequence::builder(team7)
        .modify(shell_color, dark)
        .blur()
        .build();
    let variant_id = db.insert_edited(night_variant).unwrap();
    println!(
        "stored night-game variant {variant_id} of helmet {team7} (shell {shell_color:?} -> {dark:?})"
    );

    // ── The query photo: the same helmet, shot at night ────────────────
    let mut photo = (*team7_img).clone();
    photo.map_in_place(|c| if c == shell_color { dark } else { c });

    // Direct histogram match against the stored originals fails: the photo's
    // shell color moved to a different bin.
    let photo_hist = ColorHistogram::extract(&photo, db.quantizer());
    let d_original = l1_distance(&photo_hist, &hist);
    println!(
        "L1 distance photo <-> stored original: {d_original:.3} (a poor match — different lighting)"
    );

    // ── Retrieval through the augmented database ───────────────────────
    // Query: images with at least as much of the *dark* color as the photo
    // shows.
    let dark_bin = db.bin_of(dark);
    let needed = photo_hist.fraction(dark_bin) * 0.8;
    let query = ColorRangeQuery::at_least(dark_bin, needed);
    let outcome = db.query_range(&query).unwrap();
    println!(
        "range query (>= {:.0}% of the dark shell color): candidates {:?}",
        needed * 100.0,
        outcome.sorted_results()
    );
    assert!(
        outcome.results.contains(&variant_id),
        "the stored variant must match the night photo's colors"
    );

    // §2: "this connection can be used to determine that x should also be
    // returned ... even though their respective features do not sufficiently
    // match."
    let expanded = db
        .storage()
        .base_of(variant_id)
        .expect("variant has a base");
    println!("provenance: variant {variant_id} -> base helmet {expanded}");
    assert_eq!(expanded, team7);
    println!("recognized the correct helmet ({team7}) despite the lighting change ✓");

    // For contrast, histogram similarity alone: the L1 nearest neighbour
    // over the whole database, the stored variant included.
    let nn = db.similar_to_augmented(&photo, 1).unwrap().neighbours;
    println!(
        "for contrast, L1 nearest neighbour over all images returns {} (distance {:.3})",
        nn[0].1, nn[0].0
    );
}

/// The most common exact color of `img` that falls in `bin`.
fn dominant_color(
    img: &RasterImage,
    bin: usize,
    quantizer: &dyn mmdbms::histogram::Quantizer,
) -> Rgb {
    use std::collections::HashMap;
    let mut counts: HashMap<Rgb, u64> = HashMap::new();
    for &p in img.pixels() {
        if quantizer.bin_of(p) == bin {
            *counts.entry(p).or_default() += 1;
        }
    }
    counts
        .into_iter()
        .max_by_key(|&(_, n)| n)
        .map(|(c, _)| c)
        .expect("bin is populated")
}

/// A strong darkening — guaranteed to move saturated colors across 64-bin
/// boundaries.
fn darken(c: Rgb) -> Rgb {
    Rgb::new(c.r / 4, c.g / 4, c.b / 4)
}
