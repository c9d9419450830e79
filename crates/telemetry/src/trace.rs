//! Per-query traces: a tree of timed stages with structured counters and
//! events, rendered as an `explain`-style tree.

use crate::fmt::json_escape;
use std::fmt::Write as _;
use std::time::Duration;

/// One timed stage of a query, possibly with nested sub-stages.
#[derive(Clone, Debug, Default)]
pub struct Span {
    pub name: String,
    pub duration: Duration,
    /// Structured counters observed during this stage, in insertion order.
    pub counters: Vec<(String, u64)>,
    pub children: Vec<Span>,
}

impl Span {
    pub fn new(name: impl Into<String>, duration: Duration) -> Self {
        Span {
            name: name.into(),
            duration,
            counters: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Records a counter on this span (builder-style).
    pub fn counter(&mut self, name: impl Into<String>, value: u64) -> &mut Self {
        self.counters.push((name.into(), value));
        self
    }

    /// Nests a child stage (builder-style); returns the child for further
    /// decoration.
    pub fn child(&mut self, span: Span) -> &mut Span {
        self.children.push(span);
        self.children.last_mut().expect("just pushed")
    }

    /// Breadth-first counter lookup: the shallowest span carrying `counter`
    /// wins, with left-to-right order breaking ties at equal depth. This is
    /// deterministic regardless of how deep child stages duplicate a name.
    fn find(&self, counter: &str) -> Option<u64> {
        let mut queue = std::collections::VecDeque::from([self]);
        while let Some(span) = queue.pop_front() {
            if let Some((_, v)) = span.counters.iter().find(|(n, _)| n == counter) {
                return Some(*v);
            }
            queue.extend(span.children.iter());
        }
        None
    }

    /// This span's counters with repeated names removed (first occurrence
    /// wins) — layers occasionally re-report a counter when retrying a
    /// stage, and rendering both would just be noise.
    fn deduped_counters(&self) -> Vec<&(String, u64)> {
        let mut seen = std::collections::BTreeSet::new();
        self.counters
            .iter()
            .filter(|(n, _)| seen.insert(n.as_str()))
            .collect()
    }

    fn render_into(&self, out: &mut String, prefix: &str, last: bool, root: bool) {
        let (branch, next_prefix) = if root {
            (String::new(), String::new())
        } else if last {
            (format!("{prefix}└─ "), format!("{prefix}   "))
        } else {
            (format!("{prefix}├─ "), format!("{prefix}│  "))
        };
        let _ = write!(
            out,
            "{branch}{} [{}]",
            self.name,
            crate::format_duration(self.duration)
        );
        let counters = self.deduped_counters();
        if !counters.is_empty() {
            let rendered: Vec<String> = counters.iter().map(|(n, v)| format!("{n}={v}")).collect();
            let _ = write!(out, "  {}", rendered.join(" "));
        }
        out.push('\n');
        let n = self.children.len();
        for (i, child) in self.children.iter().enumerate() {
            child.render_into(out, &next_prefix, i + 1 == n, false);
        }
    }

    fn render_json_into(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"name\": \"{}\", \"duration_nanos\": {}, \"duration\": \"{}\", \"counters\": {{",
            json_escape(&self.name),
            self.duration.as_nanos(),
            crate::format_duration(self.duration)
        );
        for (i, (name, value)) in self.deduped_counters().iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{}\": {value}", json_escape(name));
        }
        out.push_str("}, \"children\": [");
        for (i, child) in self.children.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            child.render_json_into(out);
        }
        out.push_str("]}");
    }
}

/// A completed (or in-progress) query trace: query-level events plus the
/// stage tree.
#[derive(Clone, Debug, Default)]
pub struct QueryTrace {
    root: Span,
    /// Query-level key/value events (plan chosen, thresholds, …), in
    /// insertion order.
    pub events: Vec<(String, String)>,
}

impl QueryTrace {
    pub fn new(name: impl Into<String>) -> Self {
        QueryTrace {
            root: Span::new(name, Duration::ZERO),
            events: Vec::new(),
        }
    }

    /// Records a query-level event such as `plan=bwm`.
    pub fn event(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.events.push((key.into(), value.into()));
    }

    /// Adds a top-level stage; returns it for counters/children.
    pub fn stage(&mut self, name: impl Into<String>, duration: Duration) -> &mut Span {
        self.root.child(Span::new(name, duration))
    }

    /// Moves the top-level stages from index `from` on under one new
    /// top-level stage and returns it — how a scatter-gather query groups
    /// the stages one shard's slice recorded.
    pub fn nest(&mut self, from: usize, name: impl Into<String>, duration: Duration) -> &mut Span {
        let moved = self.root.children.split_off(from);
        let stage = self.root.child(Span::new(name, duration));
        stage.children = moved;
        stage
    }

    /// Records a query-level counter on the root span.
    pub fn counter(&mut self, name: impl Into<String>, value: u64) {
        self.root.counter(name, value);
    }

    /// Sets the total query duration.
    pub fn finish(&mut self, total: Duration) {
        self.root.duration = total;
    }

    /// The root span of the stage tree.
    pub fn root(&self) -> &Span {
        &self.root
    }

    /// Looks a counter up anywhere in the tree, breadth first: the
    /// shallowest span carrying `name` wins, ties at equal depth resolve
    /// left-to-right. Handy for asserting trace contents in tests.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.root.find(name)
    }

    /// Finds a span by name anywhere in the tree, breadth first (shallowest
    /// match wins, left-to-right at equal depth). Used by trace consumers
    /// to pull out well-known stages such as `queue_wait`.
    pub fn span(&self, name: &str) -> Option<&Span> {
        let mut queue = std::collections::VecDeque::from([&self.root]);
        while let Some(span) = queue.pop_front() {
            if span.name == name {
                return Some(span);
            }
            queue.extend(span.children.iter());
        }
        None
    }

    /// Renders the trace as an indented tree, events first:
    ///
    /// ```text
    /// plan=bwm
    /// range_query [1.2ms]  results=42
    /// ├─ main_component [800µs]  clusters_visited=30
    /// └─ unclassified [150µs]  scanned=15
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.events {
            let _ = writeln!(out, "{k}={v}");
        }
        self.root.render_into(&mut out, "", true, true);
        out
    }

    /// Serializes the whole trace — events plus the span tree, counters
    /// included — as a JSON document suitable for diffing and archiving:
    ///
    /// ```json
    /// {"events": [["plan", "bwm"]],
    ///  "root": {"name": "bwm_range", "duration_nanos": 1200000,
    ///           "duration": "1.20ms", "counters": {"results": 42},
    ///           "children": [...]}}
    /// ```
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"events\": [");
        for (i, (k, v)) in self.events.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "[\"{}\", \"{}\"]", json_escape(k), json_escape(v));
        }
        out.push_str("], \"root\": ");
        self.root.render_json_into(&mut out);
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_renders_tree() {
        let mut t = QueryTrace::new("range_query");
        t.event("plan", "bwm");
        t.counter("results", 42);
        t.stage("main_component", Duration::from_micros(800))
            .counter("clusters_visited", 30)
            .counter("bounds_computed", 25);
        t.stage("unclassified", Duration::from_micros(150))
            .counter("scanned", 15);
        t.finish(Duration::from_millis(1));

        assert_eq!(t.counter_value("results"), Some(42));
        assert_eq!(t.counter_value("clusters_visited"), Some(30));
        assert_eq!(t.counter_value("scanned"), Some(15));
        assert_eq!(t.counter_value("nope"), None);

        let text = t.render();
        assert!(text.starts_with("plan=bwm\n"));
        assert!(text.contains("range_query"));
        assert!(text.contains("├─ main_component"));
        assert!(text.contains("└─ unclassified"));
        assert!(text.contains("clusters_visited=30"));
    }

    #[test]
    fn find_prefers_shallowest_match() {
        let mut t = QueryTrace::new("q");
        // The same counter name appears at depth 1 (twice) and depth 2;
        // breadth-first search must return the first depth-1 value.
        let a = t.stage("a", Duration::from_micros(1));
        a.child(Span::new("a_deep", Duration::from_micros(1)))
            .counter("dup", 999);
        t.stage("b", Duration::from_micros(1)).counter("dup", 7);
        t.stage("c", Duration::from_micros(1)).counter("dup", 8);
        assert_eq!(t.counter_value("dup"), Some(7));
        // A root-level counter beats any child.
        t.counter("dup", 1);
        assert_eq!(t.counter_value("dup"), Some(1));
    }

    #[test]
    fn span_lookup_finds_nested_stages() {
        let mut t = QueryTrace::new("request");
        t.stage("queue_wait", Duration::from_micros(40));
        let exec = t.stage("execute", Duration::from_micros(500));
        exec.child(Span::new("index_lookup", Duration::from_micros(300)));
        assert_eq!(t.span("request").unwrap().name, "request");
        assert_eq!(
            t.span("queue_wait").unwrap().duration,
            Duration::from_micros(40)
        );
        assert_eq!(
            t.span("index_lookup").unwrap().duration,
            Duration::from_micros(300)
        );
        assert!(t.span("nope").is_none());
    }

    #[test]
    fn render_dedupes_repeated_counter_names() {
        let mut t = QueryTrace::new("q");
        t.stage("s", Duration::from_micros(5))
            .counter("hits", 3)
            .counter("hits", 9)
            .counter("misses", 1);
        let text = t.render();
        // First occurrence wins; the duplicate is not printed.
        assert!(text.contains("hits=3"));
        assert!(!text.contains("hits=9"));
        assert!(text.contains("misses=1"));
    }

    #[test]
    fn renders_human_durations() {
        let mut t = QueryTrace::new("q");
        t.stage("s", Duration::from_nanos(22_400));
        t.finish(Duration::from_millis(2));
        let text = t.render();
        assert!(text.contains("q [2.00ms]"), "{text}");
        assert!(text.contains("s [22.40µs]"), "{text}");
    }

    #[test]
    fn render_json_roundtrips_structure() {
        let mut t = QueryTrace::new("bwm_range");
        t.event("plan", "bwm");
        t.counter("results", 42);
        t.stage("main_component", Duration::from_micros(800))
            .counter("clusters_visited", 30);
        t.finish(Duration::from_micros(1200));
        let json = t.render_json();
        assert!(json.contains("\"events\": [[\"plan\", \"bwm\"]]"));
        assert!(json.contains("\"name\": \"bwm_range\""));
        assert!(json.contains("\"duration_nanos\": 1200000"));
        assert!(json.contains("\"duration\": \"1.20ms\""));
        assert!(json.contains("\"results\": 42"));
        assert!(json.contains("\"clusters_visited\": 30"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn nested_children_render_with_guides() {
        let mut t = QueryTrace::new("q");
        let stage = t.stage("outer", Duration::from_micros(10));
        stage.child(Span::new("inner_a", Duration::from_micros(4)));
        stage.child(Span::new("inner_b", Duration::from_micros(5)));
        let text = t.render();
        assert!(text.contains("   ├─ inner_a"));
        assert!(text.contains("   └─ inner_b"));
    }
}
