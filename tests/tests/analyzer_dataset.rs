//! Dataset-scale static analysis: over realistically generated augmented
//! databases (flags and helmets), `StorageEngine::lint` finds no error-level
//! diagnostics, and the bound-soundness audit runs — and comes back clean —
//! on **every** stored sequence. This is the acceptance gate behind
//! `mmdbctl lint` in CI.

use mmdb_analysis::{LintCode, Severity};
use mmdb_datagen::{Collection, DatasetBuilder};

fn check(collection: Collection, seed: u64) {
    let (db, info) = DatasetBuilder::new(collection)
        .total_images(60)
        .pct_edited(0.7)
        .seed(seed)
        .build();
    let report = db.lint();

    assert_eq!(report.sequences_analyzed, info.edited_ids.len());
    let errors: Vec<String> = report
        .diagnostics
        .iter()
        .filter(|d| d.severity() == Severity::Error)
        .map(ToString::to_string)
        .collect();
    assert!(
        errors.is_empty(),
        "generated dataset must lint clean: {errors:?}"
    );

    // The soundness audit must run on every sequence (all references in a
    // generated dataset resolve) and confirm the guaranteed invariants:
    // widening monotonicity plus per-op Combine containment (the literal
    // Table 1 row never moves bounds, the conservative rule only widens —
    // i.e. Conservative ⊇ PaperTable1 at every Combine).
    assert_eq!(report.audited, report.sequences_analyzed);
    assert_eq!(
        report.audits_clean, report.audited,
        "every audited sequence must be clean"
    );
    assert!(report.audited > 0, "dataset has edited images");

    // The generators blur real regions, so the Table 1 Combine caveat must
    // have concrete witnesses in the dataset.
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.code == LintCode::CombineCaveat),
        "expected at least one W109 Combine-caveat witness"
    );
}

#[test]
fn flags_dataset_lints_clean_and_audits_sound() {
    check(Collection::Flags, 201);
}

#[test]
fn helmets_dataset_lints_clean_and_audits_sound() {
    check(Collection::Helmets, 202);
}
