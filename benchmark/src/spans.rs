//! The outside-in layer trace: spans recorded by the benchmark's own
//! code around its calls into each crate.
//!
//! Spans live in memory and are folded to per-name self time when the
//! run ends. The drivers are generic over [`Tracer`], in the shape of
//! `rlb_core::TraceSink`: with [`NoTrace`] every span site inlines to
//! nothing, so the end-to-end numbers are taken by the same driver code
//! with tracing off.

use std::collections::BTreeMap;
use std::time::Instant;

/// Where the drivers report span boundaries.
pub trait Tracer {
    /// Opens a span under the innermost open one; `id` is the request,
    /// tick or step it belongs to.
    fn enter(&mut self, name: &'static str, id: u64) -> u32;
    /// Closes the span `enter` returned.
    fn exit(&mut self, handle: u32);
}

/// Tracing off.
pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn enter(&mut self, _name: &'static str, _id: u64) -> u32 {
        0
    }
    #[inline(always)]
    fn exit(&mut self, _handle: u32) {}
}

/// Marks a span with no parent.
pub const ROOT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`ROOT`].
    pub parent: u32,
    /// Request, tick or step identifier shared by one unit of work.
    pub id: u64,
    /// How many calls this span stands for: 1, or `N` when the call
    /// site records one call in `N`.
    pub weight: u32,
}

/// In-memory span recorder.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// Cost of one back-to-back clock-read pair, subtracted from
    /// sampled leaf spans (their bodies are tens of nanoseconds, the
    /// same order as the clock read itself).
    clock_pair_ns: u64,
}

impl SpanLog {
    pub fn new() -> Self {
        let mut log = Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            clock_pair_ns: 0,
        };
        // Median of many empty pairs, read the way spans read the
        // clock; interference only lengthens a pair, so the median of
        // 1001 is safely the undisturbed cost.
        let mut pairs: Vec<u64> = (0..1001)
            .map(|_| {
                let a = log.now_ns();
                log.now_ns() - a
            })
            .collect();
        pairs.sort_unstable();
        log.clock_pair_ns = pairs[pairs.len() / 2];
        log
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records an already-timed leaf call standing for `weight` calls,
    /// under the innermost open span. The clock-pair cost is taken off
    /// its duration.
    pub fn sampled(
        &mut self,
        name: &'static str,
        id: u64,
        start_ns: u64,
        end_ns: u64,
        weight: u32,
    ) {
        let end_ns = end_ns.saturating_sub(self.clock_pair_ns).max(start_ns);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied().unwrap_or(ROOT),
            id,
            weight,
        });
    }

    /// Forgets every closed span (warm-up is not part of the trace).
    pub fn clear(&mut self) {
        debug_assert!(self.open.is_empty(), "clear with a span still open");
        self.spans.clear();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

impl Tracer for SpanLog {
    fn enter(&mut self, name: &'static str, id: u64) -> u32 {
        let handle = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(ROOT);
        self.open.push(handle);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
            weight: 1,
        });
        handle
    }

    fn exit(&mut self, handle: u32) {
        let end_ns = self.now_ns();
        self.spans[handle as usize].end_ns = end_ns;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(handle), "spans must close innermost first");
    }
}

/// Per-name totals after folding.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Calls the spans stand for (sampling weights applied).
    pub calls: u64,
    /// Time inside the spans, children included (weights applied).
    pub total_ns: u64,
    /// `total_ns` minus the time covered by *direct* child spans.
    pub self_ns: u64,
}

/// Folds spans to per-name totals. A span's self time is its duration
/// minus its direct children's (weighted) durations; a grandchild is
/// already inside its parent's duration and is taken off exactly once,
/// from that parent.
pub fn fold(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child_ns[s.parent as usize] += (s.end_ns - s.start_ns) * u64::from(s.weight);
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, &children) in spans.iter().zip(&child_ns) {
        let total = (s.end_ns - s.start_ns) * u64::from(s.weight);
        let e = out.entry(s.name).or_default();
        e.calls += u64::from(s.weight);
        e.total_ns += total;
        e.self_ns += total.saturating_sub(children);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32, weight: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            id: 0,
            weight,
        }
    }

    #[test]
    fn child_time_is_subtracted_once() {
        // root [0,100) > mid [10,70) > leaf [20,50)
        let spans = [
            span("root", 0, 100, ROOT, 1),
            span("mid", 10, 70, 0, 1),
            span("leaf", 20, 50, 1, 1),
        ];
        let f = fold(&spans);
        assert_eq!(f["leaf"].self_ns, 30);
        assert_eq!(f["mid"].self_ns, 30, "mid loses only its own child");
        assert_eq!(
            f["root"].self_ns, 40,
            "the grandchild is not taken off again"
        );
        let total_self: u64 = f.values().map(|l| l.self_ns).sum();
        assert_eq!(
            total_self, f["root"].total_ns,
            "self times partition the root"
        );
    }

    #[test]
    fn sampled_children_stand_for_their_weight() {
        // One call in four recorded, 5 ns each: the parent loses 20 ns.
        let spans = [span("run", 0, 100, ROOT, 1), span("route", 10, 15, 0, 4)];
        let f = fold(&spans);
        assert_eq!(f["route"].calls, 4);
        assert_eq!(f["route"].total_ns, 20);
        assert_eq!(f["run"].self_ns, 80);
    }

    #[test]
    fn same_name_spans_accumulate_and_overdrawn_parents_clamp() {
        let spans = [
            span("tick", 0, 10, ROOT, 1),
            span("tick", 10, 30, ROOT, 1),
            span("est", 11, 21, 1, 3), // 30 ns of estimated child time in a 20 ns parent
        ];
        let f = fold(&spans);
        assert_eq!(f["tick"].calls, 2);
        assert_eq!(f["tick"].total_ns, 30);
        assert_eq!(f["tick"].self_ns, 10, "first tick 10, second clamps to 0");
    }

    #[test]
    fn log_nests_by_open_order_and_notrace_is_inert() {
        let mut log = SpanLog::new();
        let a = log.enter("a", 7);
        let b = log.enter("b", 7);
        let s = log.now_ns();
        let e = s + log.clock_pair_ns + 5;
        log.sampled("c", 7, s, e, 8);
        log.exit(b);
        log.exit(a);
        let spans = log.spans();
        assert_eq!(spans[0].parent, ROOT);
        assert_eq!(spans[1].parent, a);
        assert_eq!(spans[2].parent, b);
        assert_eq!(
            spans[2].end_ns - spans[2].start_ns,
            5,
            "clock pair taken off"
        );
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(spans.iter().all(|s| s.id == 7));

        let mut off = NoTrace;
        let h = off.enter("x", 1);
        off.exit(h);
    }
}
