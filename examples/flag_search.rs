//! Flag retrieval: the paper's first evaluation scenario.
//!
//! Builds a synthetic world-flag collection, augments it with edited
//! variants stored as operation sequences, and runs the paper's example
//! query shape — "Retrieve all images that are at least 25% blue" — under
//! both RBM (§3) and BWM (§4), reporting the work each method did.
//!
//! ```text
//! cargo run --release --example flag_search
//! ```

use mmdbms::datagen::{Collection, DatasetBuilder, VariantConfig};
use mmdbms::prelude::*;
use mmdbms::query::QueryProcessor;
use std::time::Instant;

fn main() {
    // ── Build the augmented flag database ──────────────────────────────
    // 80 flags stored conventionally, 320 edited variants stored as edit
    // sequences (1/4 of which contain a Merge into another flag — the
    // non-bound-widening case).
    let (db, info) = DatasetBuilder::new(Collection::Flags)
        .total_images(400)
        .pct_edited(0.8)
        .seed(2006)
        .variant_config(VariantConfig {
            min_ops: 4,
            max_ops: 9,
            p_merge_target: 0.25,
        })
        .build();
    println!("flag database:");
    for (desc, value) in info.table2_rows() {
        println!("  {desc:<68} {value:>6}");
    }

    let qp = QueryProcessor::new(&db);
    let bwm = db.bwm_snapshot();
    println!(
        "BWM structure: {} clusters, {} classified, {} unclassified",
        bwm.cluster_count(),
        bwm.classified_count(),
        bwm.unclassified_count()
    );

    // ── "Retrieve all images that are at least 25% blue" ───────────────
    let navy = Rgb::new(0x00, 0x28, 0x68);
    let query = ColorRangeQuery::at_least(db.quantizer().bin_of(navy), 0.25);

    let t = Instant::now();
    let rbm = qp.range_rbm(&query).unwrap();
    let rbm_time = t.elapsed();
    let t = Instant::now();
    let bwm_out = qp.range_bwm(&query).unwrap();
    let bwm_time = t.elapsed();

    println!("\nquery: at least 25% navy blue");
    println!(
        "  RBM:  {} results, {} BOUNDS computations, {} ops processed, {:?}",
        rbm.results.len(),
        rbm.stats.bounds_computed,
        rbm.stats.ops_processed,
        rbm_time
    );
    println!(
        "  BWM:  {} results, {} BOUNDS computations, {} ops processed, {:?}",
        bwm_out.results.len(),
        bwm_out.stats.bounds_computed,
        bwm_out.stats.ops_processed,
        bwm_time
    );
    println!(
        "  BWM shortcut: {} clusters hit, {} edited images emitted without touching an operation",
        bwm_out.stats.base_hits, bwm_out.stats.shortcut_emissions
    );
    assert_eq!(
        rbm.sorted_results(),
        bwm_out.sorted_results(),
        "both methods must return identical result sets"
    );

    // ── No false negatives: compare against the instantiation ground truth
    let truth = qp.range_instantiate(&query).unwrap();
    let missing: Vec<_> = truth
        .sorted_results()
        .into_iter()
        .filter(|id| !rbm.results.contains(id))
        .collect();
    println!(
        "\nground truth: {} true matches; RBM/BWM candidates: {}; false negatives: {}",
        truth.results.len(),
        rbm.results.len(),
        missing.len()
    );
    assert!(missing.is_empty(), "the rules guarantee no false negatives");

    // ── Provenance expansion (§2) ────────────────────────────────────────
    let expanded = qp.expand_with_bases(&bwm_out.results);
    println!(
        "after §2 provenance expansion (edited hit -> base also returned): {} results",
        expanded.len()
    );
}
