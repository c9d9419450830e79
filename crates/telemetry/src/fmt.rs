//! Human-readable duration formatting shared by `mmdbctl explain`,
//! `mmdbctl top`, and the slow-query log; and the JSON string escaping the
//! trace and flight-recorder renderers share.

use std::fmt::Write as _;
use std::time::Duration;

/// Formats `d` with a stable unit ladder (µs below 1 ms, ms below 1 s,
/// seconds above) and two decimals: `0.50µs`, `17.25µs`, `123.46ms`,
/// `2.50s`. Unlike `Duration`'s `{:?}` this never emits nine-digit
/// fractions, so trace trees and dashboards stay scannable.
pub fn format_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000_000 {
        format!("{:.2}µs", nanos as f64 / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.2}ms", nanos as f64 / 1e6)
    } else {
        format!("{:.2}s", nanos as f64 / 1e9)
    }
}

/// Escapes `s` for use inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_ladder() {
        assert_eq!(format_duration(Duration::ZERO), "0.00µs");
        assert_eq!(format_duration(Duration::from_nanos(500)), "0.50µs");
        assert_eq!(format_duration(Duration::from_micros(17)), "17.00µs");
        assert_eq!(format_duration(Duration::from_nanos(17_250)), "17.25µs");
        assert_eq!(format_duration(Duration::from_micros(999)), "999.00µs");
        assert_eq!(format_duration(Duration::from_micros(1000)), "1.00ms");
        assert_eq!(
            format_duration(Duration::from_nanos(123_456_789)),
            "123.46ms"
        );
        assert_eq!(format_duration(Duration::from_millis(999)), "999.00ms");
        assert_eq!(format_duration(Duration::from_millis(2500)), "2.50s");
        assert_eq!(format_duration(Duration::from_secs(90)), "90.00s");
    }
}
