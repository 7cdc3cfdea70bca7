//! Layer spans recorded from outside the program: each span times one
//! call into a crate's public API, and nested spans are subtracted from
//! their parent so every nanosecond is charged to exactly one layer.

use std::collections::BTreeMap;
use std::time::Instant;

/// Accumulated self time and call count of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    /// Span time minus the time of spans nested inside it, in ns.
    pub self_ns: u64,
    /// Spans recorded.
    pub calls: u64,
}

/// In-memory span recorder. Spans are closures, so nesting follows the
/// call structure and no span can be left open.
#[derive(Debug, Default)]
pub struct Spans {
    layers: BTreeMap<&'static str, LayerTotal>,
    /// Time covered by completed child spans of the innermost open span.
    child_ns: u64,
}

impl Spans {
    /// Runs `f` inside a span charged to `layer`.
    pub fn time<R>(&mut self, layer: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        let outer_children = std::mem::take(&mut self.child_ns);
        let start = Instant::now();
        let result = f(self);
        let ns = start.elapsed().as_nanos() as u64;
        let inner_children = std::mem::replace(&mut self.child_ns, outer_children + ns);
        let total = self.layers.entry(layer).or_default();
        total.self_ns += ns.saturating_sub(inner_children);
        total.calls += 1;
        result
    }

    /// Charges `ns` to `layer` as `calls` spans, for tests that need
    /// exact totals.
    #[cfg(test)]
    pub fn charge(&mut self, layer: &'static str, ns: u64, calls: u64) {
        let total = self.layers.entry(layer).or_default();
        total.self_ns += ns;
        total.calls += calls;
    }

    /// The totals of `layer` (zero when it never ran).
    pub fn get(&self, layer: &str) -> LayerTotal {
        self.layers.get(layer).copied().unwrap_or_default()
    }

    /// Self time of `layer` in milliseconds.
    pub fn ms(&self, layer: &str) -> f64 {
        self.get(layer).self_ns as f64 / 1e6
    }

    /// Every layer with its totals, by name.
    pub fn layers(&self) -> impl Iterator<Item = (&'static str, LayerTotal)> + '_ {
        self.layers.iter().map(|(name, total)| (*name, *total))
    }

    /// Sum of every layer's self time, in ms.
    pub fn attributed_ms(&self) -> f64 {
        self.layers.values().map(|t| t.self_ns as f64).sum::<f64>() / 1e6
    }
}

/// Traced wall time not covered by any layer's self time.
pub fn unattributed_ms(traced_wall_ms: f64, spans: &Spans) -> f64 {
    traced_wall_ms - spans.attributed_ms()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_charge_self_time_only() {
        let mut spans = Spans::default();
        spans.time("outer", |s| {
            s.time("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
        });
        let outer = spans.get("outer");
        let inner = spans.get("inner");
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!(inner.self_ns >= 20_000_000);
        assert!(outer.self_ns >= 10_000_000);
        assert!(outer.self_ns < 20_000_000, "inner time leaked into outer");
    }

    #[test]
    fn unattributed_is_wall_minus_summed_self_times() {
        let mut spans = Spans::default();
        spans.charge("a", 2_500_000, 1);
        spans.charge("b", 1_000_000, 4);
        spans.charge("a", 500_000, 1);
        assert_eq!(
            spans.get("a"),
            LayerTotal {
                self_ns: 3_000_000,
                calls: 2
            }
        );
        assert_eq!(spans.attributed_ms(), 4.0);
        assert_eq!(unattributed_ms(10.0, &spans), 6.0);
        assert_eq!(unattributed_ms(4.0, &Spans::default()), 4.0);
    }

    #[test]
    fn sibling_spans_do_not_subtract_from_each_other() {
        let mut spans = Spans::default();
        spans.time("parent", |s| {
            s.time("x", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            s.time("y", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        assert!(spans.get("x").self_ns >= 5_000_000);
        assert!(spans.get("y").self_ns >= 5_000_000);
        assert!(spans.get("parent").self_ns < 5_000_000);
    }
}
