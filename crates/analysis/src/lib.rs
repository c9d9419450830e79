//! Static analysis over stored editing-operation programs.
//!
//! An `EditSequence` is a small program — a base image reference plus
//! Define/Combine/Modify/Mutate/Merge operations — and the paper's RBM/BWM
//! machinery is an abstract interpretation of it. This crate hardens the
//! catalog by checking those programs *statically*, in three passes:
//!
//! 1. [`wellformed`] — structural and geometric validity of a single
//!    sequence (non-finite parameters, degenerate regions, empty crops,
//!    canvas overflow, projective matrices, …).
//! 2. [`deadops`] — redundancy detection and a safe dead-op-elimination
//!    rewrite whose proof obligation (the instantiated raster, hence the
//!    histogram, is unchanged) is enforced by property test.
//! 3. [`soundness`] — a bound-soundness audit over the per-op traces of
//!    both rule profiles: widening monotonicity, per-op `Combine`
//!    containment, and the Table 1 `Combine` caveat flag.
//!
//! Every finding is a [`Diagnostic`] with a stable [`LintCode`] and a
//! [`Severity`]; [`analyze_catalog`] runs all passes over a catalog's stored
//! sequences into the [`AnalysisReport`] behind `mmdbctl lint`. References
//! are not linted: the storage catalog refuses a sequence whose base or merge
//! targets are not its own binary images, so none is ever stored.

#![warn(missing_docs)]

pub mod deadops;
pub mod diagnostics;
pub mod report;
pub mod soundness;
pub mod wellformed;

pub use deadops::{find_dead_ops, simplify, DeadOp, Simplified};
pub use diagnostics::{Diagnostic, LintCode, Severity};
pub use report::AnalysisReport;
pub use soundness::{audit_sequence, SoundnessAudit};

use mmdb_editops::{EditSequence, ImageId};
use mmdb_histogram::Quantizer;
use mmdb_imaging::Rgb;
use mmdb_rules::{InfoResolver, RuleError};
use mmdb_telemetry::counter;
use std::sync::Arc;
use std::time::Instant;

/// The configured analyzer: quantizer + instantiation background (for the
/// soundness audit's rule engines) and the resolver that supplies the
/// dimensions and histograms of the images a sequence names.
pub struct Analyzer<'a> {
    quantizer: &'a dyn Quantizer,
    background: Rgb,
    resolver: &'a dyn InfoResolver,
}

/// Everything the analyzer found out about one sequence.
#[derive(Debug)]
pub struct SequenceAnalysis {
    /// Findings from all passes, in pass order.
    pub diagnostics: Vec<Diagnostic>,
    /// Removable operations ([`deadops`] pass).
    pub dead_ops: Vec<DeadOp>,
    /// The soundness audit, when all references resolved and the sequence
    /// was boundable.
    pub audit: Option<SoundnessAudit>,
}

impl SequenceAnalysis {
    /// Whether any Error-level diagnostic was raised.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity() == Severity::Error)
    }
}

impl<'a> Analyzer<'a> {
    /// An analyzer over a catalog: full geometric precision plus the
    /// soundness audit.
    pub fn with_resolver(
        quantizer: &'a dyn Quantizer,
        background: Rgb,
        resolver: &'a dyn InfoResolver,
    ) -> Self {
        Analyzer {
            quantizer,
            background,
            resolver,
        }
    }

    /// Runs all per-sequence passes. The soundness audit runs only when the
    /// sequence's base and merge targets resolve: the catalog guarantees
    /// that while the sequence is stored, but a catalog lint lists the
    /// sequences under one read and analyzes them after it, so a delete
    /// can land in between.
    pub fn analyze_sequence(&self, seq: &EditSequence) -> SequenceAnalysis {
        let resolver = self.resolver;
        let mut diagnostics = wellformed::check(seq, resolver);
        let dead_ops = find_dead_ops(seq);
        diagnostics.extend(
            dead_ops
                .iter()
                .map(|d| Diagnostic::new(d.code, d.reason.clone()).at_op(d.index)),
        );
        let mut audit = None;
        let already_errored = diagnostics.iter().any(|d| d.severity() == Severity::Error);
        let refs_ok = resolver.info(seq.base).is_some()
            && seq
                .merge_targets()
                .iter()
                .all(|&t| resolver.info(t).is_some());
        if refs_ok && !already_errored {
            match audit_sequence(self.quantizer, self.background, seq, resolver) {
                Ok(a) => {
                    diagnostics.extend(a.diagnostics.iter().cloned());
                    audit = Some(a);
                }
                // The well-formedness pass stepped the same frame the rule
                // engine walks, so this is not geometry: a count that does
                // not fit a bound-program word, or a catalog entry that
                // changed between the two passes.
                Err(e) => diagnostics.push(unboundable(&e)),
            }
        }
        SequenceAnalysis {
            diagnostics,
            dead_ops,
            audit,
        }
    }
}

/// `E010`: sound geometry, yet no bounds.
fn unboundable(err: &RuleError) -> Diagnostic {
    let message = format!("bound computation failed: {err}");
    Diagnostic::new(LintCode::Unboundable, message)
}

/// Why `RuleEngine::compile` refused `seq` with `err`, as the analyzer's
/// error-level findings word it: pass 1's errors (`E005`–`E008`), or `E010`
/// when it finds none. What ingest refuses a sequence with.
pub fn compile_refusal(
    seq: &EditSequence,
    resolver: &dyn InfoResolver,
    err: &RuleError,
) -> Vec<Diagnostic> {
    let mut errors = wellformed::check(seq, resolver);
    errors.retain(|d| d.severity() == Severity::Error);
    if errors.is_empty() {
        errors.push(unboundable(err));
    }
    errors
}

/// Analyzes a catalog's edited images, given as `(id, sequence)` pairs,
/// recording run counts, latency, and per-lint counters in the global
/// telemetry registry.
pub fn analyze_catalog(
    sequences: impl IntoIterator<Item = (ImageId, Arc<EditSequence>)>,
    analyzer: &Analyzer<'_>,
) -> AnalysisReport {
    let start = Instant::now();
    counter!("mmdb_analysis_runs_total").inc();
    let mut report = AnalysisReport::default();
    for (id, seq) in sequences {
        report.sequences_analyzed += 1;
        let analysis = analyzer.analyze_sequence(&seq);
        if let Some(audit) = &analysis.audit {
            report.audited += 1;
            if audit.is_clean() {
                report.audits_clean += 1;
            }
        }
        report
            .diagnostics
            .extend(analysis.diagnostics.into_iter().map(|d| d.for_image(id)));
    }
    report.sort();
    counter!("mmdb_analysis_sequence_checks_total").add(report.sequences_analyzed as u64);
    record_diagnostics(&report.diagnostics);
    let elapsed = start.elapsed();
    mmdb_telemetry::global()
        .histogram("mmdb_analysis_latency_seconds")
        .observe(elapsed);
    if mmdb_telemetry::instrumentation_enabled() {
        mmdb_telemetry::recorder().record(
            mmdb_telemetry::EventKind::LintRun,
            format!(
                "{} sequence(s) in {}",
                report.sequences_analyzed,
                mmdb_telemetry::format_duration(elapsed)
            ),
            &[
                ("sequences", report.sequences_analyzed as u64),
                ("errors", report.error_count() as u64),
                ("warnings", report.warn_count() as u64),
                ("notes", report.note_count() as u64),
            ],
        );
    }
    report
}

/// The §4 classification of a sequence, with the evidence: is every
/// operation's rule bound-widening (`EditSequence::all_bound_widening`, which
/// is all Figure 1 asks), and if not, where does it stop being so?
/// `mmdbctl analyze` prints it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WideningVerdict {
    /// True when every op is bound-widening (BWM Main eligibility).
    pub all_widening: bool,
    /// Index of the first non-widening op (a `Merge` with a target), when
    /// any.
    pub first_non_widening: Option<usize>,
    /// How many non-widening ops the sequence carries.
    pub non_widening_count: usize,
}

/// Classifies `seq` as Figure 1 would.
pub fn widening_verdict(seq: &EditSequence) -> WideningVerdict {
    let mut first = None;
    let mut count = 0usize;
    for (i, op) in seq.ops.iter().enumerate() {
        if !op.is_bound_widening() {
            if first.is_none() {
                first = Some(i);
            }
            count += 1;
        }
    }
    WideningVerdict {
        all_widening: first.is_none(),
        first_non_widening: first,
        non_widening_count: count,
    }
}

/// The per-lint counter series name for `code`.
fn diagnostic_counter_name(code: LintCode) -> String {
    format!(
        r#"mmdb_analysis_diagnostics_total{{code="{}"}}"#,
        code.code()
    )
}

/// Bumps the per-lint counters for a batch of findings. Called by
/// [`analyze_catalog`], and by ingest with the [`compile_refusal`] it
/// refuses a sequence with.
pub fn record_diagnostics(diags: &[Diagnostic]) {
    let registry = mmdb_telemetry::global();
    for d in diags {
        registry.counter(&diagnostic_counter_name(d.code)).inc();
    }
}

/// Pre-registers this crate's metric series so `mmdbctl metrics` shows them
/// at zero before the first analyzer run.
pub fn register_metrics() {
    let registry = mmdb_telemetry::global();
    registry.counter("mmdb_analysis_runs_total");
    registry.counter("mmdb_analysis_sequence_checks_total");
    registry.histogram("mmdb_analysis_latency_seconds");
    for code in LintCode::ALL {
        registry.counter(&diagnostic_counter_name(code));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_histogram::{ColorHistogram, RgbQuantizer};
    use mmdb_imaging::{RasterImage, Rect};
    use mmdb_rules::{ImageInfo, MapInfoResolver};

    fn setup() -> (MapInfoResolver, RgbQuantizer) {
        let q = RgbQuantizer::default_64();
        let img = RasterImage::filled(10, 10, Rgb::WHITE).unwrap();
        let hist = ColorHistogram::extract(&img, &q);
        let mut r = MapInfoResolver::new();
        r.insert(ImageId::new(1), ImageInfo::new(hist, 10, 10));
        (r, q)
    }

    /// A sequence over base 1 with a dead `Define` (W101).
    fn dead_define() -> Arc<EditSequence> {
        Arc::new(
            EditSequence::builder(ImageId::new(1))
                .define(Rect::new(0, 0, 2, 2))
                .define(Rect::new(0, 0, 4, 4))
                .blur()
                .build(),
        )
    }

    #[test]
    fn clean_sequence_full_analysis() {
        let (r, q) = setup();
        let analyzer = Analyzer::with_resolver(&q, Rgb::BLACK, &r);
        let seq = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(0, 0, 4, 4))
            .modify(Rgb::WHITE, Rgb::RED)
            .build();
        let a = analyzer.analyze_sequence(&seq);
        assert!(!a.has_errors(), "{:?}", a.diagnostics);
        assert!(a.dead_ops.is_empty());
        let audit = a.audit.expect("audit should run");
        assert!(audit.is_clean());
    }

    #[test]
    fn audit_skipped_on_error() {
        let (r, q) = setup();
        let analyzer = Analyzer::with_resolver(&q, Rgb::BLACK, &r);
        // Error-level finding (empty crop) suppresses the audit.
        let seq = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(3, 3, 3, 3))
            .crop_to_region()
            .build();
        let a = analyzer.analyze_sequence(&seq);
        assert!(a.has_errors());
        assert!(a.audit.is_none());
    }

    #[test]
    fn analyze_catalog_combines_graph_and_sequence_passes() {
        let (r, q) = setup();
        // Crop of a statically empty region (E005).
        let empty_crop = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(3, 3, 3, 3))
            .crop_to_region()
            .build();
        let sequences = [
            (ImageId::new(2), dead_define()),
            (ImageId::new(3), Arc::new(empty_crop)),
        ];
        let analyzer = Analyzer::with_resolver(&q, Rgb::BLACK, &r);
        let report = analyze_catalog(sequences, &analyzer);
        assert_eq!(report.sequences_analyzed, 2);
        assert!(report.has_errors());
        let found: Vec<(LintCode, Option<ImageId>)> = report
            .diagnostics
            .iter()
            .map(|d| (d.code, d.image))
            .collect();
        assert!(found.contains(&(LintCode::EmptyCrop, Some(ImageId::new(3)))));
        assert!(found.contains(&(LintCode::DeadDefine, Some(ImageId::new(2)))));
        // The dead-define sequence audits clean; the erroring one skips.
        assert_eq!(report.audited, 1);
        assert_eq!(report.audits_clean, 1);
        // Errors sort before warnings.
        assert_eq!(report.diagnostics[0].severity(), Severity::Error);
    }

    #[test]
    fn widening_verdict_matches_sequence_classification() {
        let seq = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(0, 0, 4, 4))
            .blur()
            .build();
        let v = widening_verdict(&seq);
        assert!(v.all_widening);
        assert_eq!(v.first_non_widening, None);
        assert_eq!(seq.all_bound_widening(), v.all_widening);
        let seq = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(0, 0, 4, 4))
            .merge_into(ImageId::new(2), 0, 0)
            .blur()
            .build();
        let v = widening_verdict(&seq);
        assert!(!v.all_widening);
        assert_eq!(v.first_non_widening, Some(1));
        assert_eq!(v.non_widening_count, 1);
        assert_eq!(seq.all_bound_widening(), v.all_widening);
    }

    #[test]
    fn telemetry_counters_recorded() {
        register_metrics();
        let (r, q) = setup();
        let analyzer = Analyzer::with_resolver(&q, Rgb::BLACK, &r);
        let w101 = mmdb_telemetry::global().counter(&diagnostic_counter_name(LintCode::DeadDefine));
        let before = w101.get();
        let _ = analyze_catalog([(ImageId::new(2), dead_define())], &analyzer);
        assert!(w101.get() > before, "the dead Define is counted");
        let text = mmdb_telemetry::global().render_prometheus();
        assert!(text.contains("mmdb_analysis_runs_total"), "{text}");
        assert!(
            text.contains(r#"mmdb_analysis_diagnostics_total{code="W101"}"#),
            "{text}"
        );
    }
}
