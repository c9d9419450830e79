//! Stable lint codes, severities, and the diagnostic record every pass
//! emits.
//!
//! Codes are stable identifiers (`E…`/`W…`/`N…`) that CI configs, telemetry
//! series and tests key on; messages are free-form prose and may change.

use mmdb_editops::ImageId;
use std::fmt;

/// How serious a diagnostic is.
///
/// `Error` means the sequence cannot be soundly bounded or instantiated;
/// `Warn` means it is executable but wasteful or semantically suspicious;
/// `Note` is informational.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Malformed or unsound: ingest refuses `E005`–`E008` and `E010`.
    Error,
    /// Executable, but redundant or suspicious.
    Warn,
    /// Purely informational.
    Note,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warn => "warn",
            Severity::Note => "note",
        })
    }
}

/// Every lint the analyzer can raise. The numeric code (`E005`, `W101`,
/// `N201`, …) is part of the stable interface. `E001`–`E004` are retired
/// and never reused: a dangling, non-binary or cyclic reference is refused
/// by the catalog itself, so no stored sequence can carry one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCode {
    /// `E005` — `Merge(NULL)` (crop) with a provably empty defined region;
    /// the executor rejects this.
    EmptyCrop,
    /// `E006` — an operation would grow the canvas past the executor's
    /// pixel cap.
    CanvasOverflow,
    /// `E007` — a `Mutate` matrix with a projective last row; only affine
    /// transforms are executable.
    NonAffineMutate,
    /// `E008` — NaN or infinite `Combine` weights or `Mutate` matrix
    /// entries; the executor rejects these too.
    NonFiniteParams,
    /// `E009` — the soundness audit caught a widening rule narrowing a
    /// bound, or a `Combine` containment failure: a rule-engine bug.
    MonotonicityViolation,
    /// `E010` — the bound computation failed on a sequence whose geometry
    /// the executor accepts: a pixel or operation count that does not fit a
    /// bound-program word (a base image over 2³² pixels), or a catalog entry
    /// that changed while the sequence was being analyzed. Ingest refuses
    /// a sequence that does not compile with it when pass 1 finds no error.
    Unboundable,
    /// `W101` — a `Define` whose region is never read before the next
    /// `Define` (or the end of the sequence).
    DeadDefine,
    /// `W102` — a `Modify` with `from == to`.
    SelfModify,
    /// `W103` — a `Mutate` with the identity matrix.
    IdentityMutate,
    /// `W104` — a `Combine` whose kernel passes each pixel through
    /// unchanged (only the centre weight is nonzero).
    IdentityCombine,
    /// `W105` — a `Combine` whose weights sum to zero; the executor leaves
    /// pixels unchanged.
    ZeroCombine,
    /// `W106` — a `Define` region that is empty as written or clips to
    /// empty on the current canvas.
    DegenerateRegion,
    /// `W107` — a singular (but affine) `Mutate` matrix; the region
    /// collapses and the transform is not invertible.
    SingularMutate,
    /// `W108` — a `Merge` paste landing entirely outside the target image;
    /// only background gap fill connects them.
    DisjointPaste,
    /// `W109` — the literal Table 1 `Combine` row ("no change") is provably
    /// unsound for this sequence: a blur here can move pixels across bins.
    CombineCaveat,
    /// `W110` — the `PaperTable1` fractional whole-image scale rule
    /// narrowed a bin's fraction interval.
    FractionNarrowing,
    /// `W111` — a pixel-editing op (`Combine`/`Modify`) whose effect is
    /// discarded by a later full-raster-overwrite: a `Merge` into a target
    /// whose defined region is statically certain to be empty pastes
    /// nothing, so the canvas it produces is independent of every pixel
    /// edit before it.
    DeadPrefix,
    /// `N201` — pixel-touching operations before any `Define`; they edit
    /// the implicit whole-image region.
    EditBeforeDefine,
    /// `N202` — the final `Conservative` bounds do not contain the final
    /// `PaperTable1` bounds (benign per-profile precision differences).
    ProfileDivergence,
}

impl LintCode {
    /// Every code, in code order. Telemetry registers one counter per
    /// entry.
    pub const ALL: [LintCode; 19] = [
        LintCode::EmptyCrop,
        LintCode::CanvasOverflow,
        LintCode::NonAffineMutate,
        LintCode::NonFiniteParams,
        LintCode::MonotonicityViolation,
        LintCode::Unboundable,
        LintCode::DeadDefine,
        LintCode::SelfModify,
        LintCode::IdentityMutate,
        LintCode::IdentityCombine,
        LintCode::ZeroCombine,
        LintCode::DegenerateRegion,
        LintCode::SingularMutate,
        LintCode::DisjointPaste,
        LintCode::CombineCaveat,
        LintCode::FractionNarrowing,
        LintCode::DeadPrefix,
        LintCode::EditBeforeDefine,
        LintCode::ProfileDivergence,
    ];

    /// The stable short code, e.g. `"E005"`.
    pub fn code(self) -> &'static str {
        match self {
            LintCode::EmptyCrop => "E005",
            LintCode::CanvasOverflow => "E006",
            LintCode::NonAffineMutate => "E007",
            LintCode::NonFiniteParams => "E008",
            LintCode::MonotonicityViolation => "E009",
            LintCode::Unboundable => "E010",
            LintCode::DeadDefine => "W101",
            LintCode::SelfModify => "W102",
            LintCode::IdentityMutate => "W103",
            LintCode::IdentityCombine => "W104",
            LintCode::ZeroCombine => "W105",
            LintCode::DegenerateRegion => "W106",
            LintCode::SingularMutate => "W107",
            LintCode::DisjointPaste => "W108",
            LintCode::CombineCaveat => "W109",
            LintCode::FractionNarrowing => "W110",
            LintCode::DeadPrefix => "W111",
            LintCode::EditBeforeDefine => "N201",
            LintCode::ProfileDivergence => "N202",
        }
    }

    /// The stable kebab-case name, e.g. `"empty-crop"`.
    pub fn name(self) -> &'static str {
        match self {
            LintCode::EmptyCrop => "empty-crop",
            LintCode::CanvasOverflow => "canvas-overflow",
            LintCode::NonAffineMutate => "non-affine-mutate",
            LintCode::NonFiniteParams => "non-finite-params",
            LintCode::MonotonicityViolation => "monotonicity-violation",
            LintCode::Unboundable => "unboundable",
            LintCode::DeadDefine => "dead-define",
            LintCode::SelfModify => "self-modify",
            LintCode::IdentityMutate => "identity-mutate",
            LintCode::IdentityCombine => "identity-combine",
            LintCode::ZeroCombine => "zero-combine",
            LintCode::DegenerateRegion => "degenerate-region",
            LintCode::SingularMutate => "singular-mutate",
            LintCode::DisjointPaste => "disjoint-paste",
            LintCode::CombineCaveat => "combine-caveat",
            LintCode::FractionNarrowing => "fraction-narrowing",
            LintCode::DeadPrefix => "dead-prefix",
            LintCode::EditBeforeDefine => "edit-before-define",
            LintCode::ProfileDivergence => "profile-divergence",
        }
    }

    /// The severity class the code prefix encodes.
    pub fn severity(self) -> Severity {
        match self.code().as_bytes()[0] {
            b'E' => Severity::Error,
            b'W' => Severity::Warn,
            _ => Severity::Note,
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code(), self.name())
    }
}

/// One finding: a stable code plus where it was raised and a human
/// explanation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// The lint that fired.
    pub code: LintCode,
    /// The catalog image the sequence belongs to, when analyzed in catalog
    /// context.
    pub image: Option<ImageId>,
    /// The offending operation index within the sequence, when applicable.
    pub op_index: Option<usize>,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic with no location information.
    pub fn new(code: LintCode, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            image: None,
            op_index: None,
            message: message.into(),
        }
    }

    /// Attaches an operation index.
    pub fn at_op(mut self, index: usize) -> Self {
        self.op_index = Some(index);
        self
    }

    /// Attaches the owning catalog image.
    pub fn for_image(mut self, id: ImageId) -> Self {
        self.image = Some(id);
        self
    }

    /// The diagnostic's severity (derived from its code).
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}",
            self.severity(),
            self.code.code(),
            self.code.name()
        )?;
        if let Some(id) = self.image {
            write!(f, " {id}")?;
        }
        if let Some(i) = self.op_index {
            write!(f, " op {i}")?;
        }
        write!(f, ": {}", self.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_prefixed() {
        let mut seen = std::collections::HashSet::new();
        for code in LintCode::ALL {
            assert!(seen.insert(code.code()), "duplicate code {}", code.code());
            let prefix = code.code().as_bytes()[0];
            match code.severity() {
                Severity::Error => assert_eq!(prefix, b'E'),
                Severity::Warn => assert_eq!(prefix, b'W'),
                Severity::Note => assert_eq!(prefix, b'N'),
            }
        }
        assert_eq!(seen.len(), LintCode::ALL.len());
    }

    #[test]
    fn display_format() {
        let d = Diagnostic::new(LintCode::EmptyCrop, "crop of an empty region")
            .for_image(ImageId::new(7))
            .at_op(3);
        let s = d.to_string();
        assert!(s.contains("error[E005]"), "{s}");
        assert!(s.contains("empty-crop"), "{s}");
        assert!(s.contains("img#7"), "{s}");
        assert!(s.contains("op 3"), "{s}");
    }

    #[test]
    fn severity_ordering_errors_first() {
        assert!(Severity::Error < Severity::Warn);
        assert!(Severity::Warn < Severity::Note);
    }
}
