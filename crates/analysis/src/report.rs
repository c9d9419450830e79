//! Catalog-level analysis report plus the text and JSON renderers behind
//! `mmdbctl lint`.

use crate::diagnostics::{Diagnostic, Severity};
use mmdb_telemetry::json_escape;
use std::fmt::Write as _;

/// The result of analyzing a whole catalog.
#[derive(Clone, Debug, Default)]
pub struct AnalysisReport {
    /// Number of edit sequences analyzed.
    pub sequences_analyzed: usize,
    /// Sequences the soundness audit could run on (all references
    /// resolved).
    pub audited: usize,
    /// Audited sequences whose guaranteed invariants held (monotone
    /// widening + `Combine` containment).
    pub audits_clean: usize,
    /// All findings, sorted by severity, image, op index, and code.
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == severity)
            .count()
    }

    /// Number of Error-level findings.
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of Warn-level findings.
    pub fn warn_count(&self) -> usize {
        self.count(Severity::Warn)
    }

    /// Number of Note-level findings.
    pub fn note_count(&self) -> usize {
        self.count(Severity::Note)
    }

    /// Whether any Error-level finding exists — the CI gate.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity() == Severity::Error)
    }

    /// Sorts diagnostics into the canonical report order.
    pub(crate) fn sort(&mut self) {
        self.diagnostics
            .sort_by_key(|d| (d.severity(), d.image, d.op_index, d.code));
    }

    /// Human-readable report: one line per diagnostic plus a summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(out, "{d}");
        }
        let _ = writeln!(
            out,
            "{} sequence(s) analyzed, {} audited ({} clean): {} error(s), {} warning(s), {} \
             note(s)",
            self.sequences_analyzed,
            self.audited,
            self.audits_clean,
            self.error_count(),
            self.warn_count(),
            self.note_count(),
        );
        out
    }

    /// Machine-readable report for `mmdbctl lint --format json`.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"sequences_analyzed\":{},\"audited\":{},\"audits_clean\":{},\"errors\":{},\
             \"warnings\":{},\"notes\":{},\"diagnostics\":[",
            self.sequences_analyzed,
            self.audited,
            self.audits_clean,
            self.error_count(),
            self.warn_count(),
            self.note_count(),
        );
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"code\":\"{}\",\"name\":\"{}\",\"severity\":\"{}\",\"image\":{},\"op\":{},\
                 \"message\":\"{}\"}}",
                d.code.code(),
                d.code.name(),
                d.severity(),
                d.image
                    .map_or_else(|| "null".to_string(), |id| id.0.to_string()),
                d.op_index
                    .map_or_else(|| "null".to_string(), |i| i.to_string()),
                json_escape(&d.message),
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::LintCode;
    use mmdb_editops::ImageId;

    fn sample() -> AnalysisReport {
        let mut r = AnalysisReport {
            sequences_analyzed: 3,
            audited: 2,
            audits_clean: 2,
            diagnostics: vec![
                Diagnostic::new(LintCode::DeadDefine, "never read")
                    .for_image(ImageId::new(5))
                    .at_op(1),
                Diagnostic::new(LintCode::EmptyCrop, "crop of img#9 \"gone\"")
                    .for_image(ImageId::new(4))
                    .at_op(2),
            ],
        };
        r.sort();
        r
    }

    #[test]
    fn counts_and_gate() {
        let r = sample();
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warn_count(), 1);
        assert_eq!(r.note_count(), 0);
        assert!(r.has_errors());
        // Errors sort first.
        assert_eq!(r.diagnostics[0].code, LintCode::EmptyCrop);
    }

    #[test]
    fn text_render() {
        let text = sample().render_text();
        assert!(text.contains("error[E005]"), "{text}");
        assert!(text.contains("warn[W101]"), "{text}");
        assert!(text.contains("3 sequence(s) analyzed"), "{text}");
    }

    #[test]
    fn json_render_escapes() {
        let json = sample().render_json();
        assert!(json.contains("\"errors\":1"), "{json}");
        assert!(json.contains("\"code\":\"E005\""), "{json}");
        assert!(json.contains("img#9 \\\"gone\\\""), "{json}");
        assert!(json.contains("\"image\":4"), "{json}");
        // Balanced braces as a crude well-formedness check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
    }

    #[test]
    fn escape_handles_controls() {
        assert_eq!(json_escape("a\nb\\c\"d\u{1}"), "a\\nb\\\\c\\\"d\\u0001");
    }
}
