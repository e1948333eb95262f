//! Span recorder and the two self-time calculations built on it.
//!
//! The driver records one span around every public call it makes (name,
//! start, end, the span that caused it, and the operation it belongs to).
//! Spans stay in a per-client `Vec` while the run measures and are written
//! out when the run ends. Two calculations read them:
//!
//! * [`self_times`]: a span's self time is its duration minus the part of
//!   that interval its child spans cover;
//! * [`ladder_self_times`]: the same transfer replayed at each lower API
//!   gives one time per rung; a layer's self time is its rung minus the
//!   rung below, so the self times telescope back to the top rung.

use std::time::Instant;

/// "No parent": the span is the root of its operation.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index into the recorder's name table.
    pub name: u16,
    /// Index of the causing span in the same recorder, or [`NO_PARENT`].
    pub parent: u32,
    /// Operation identifier shared by every span of one request.
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-client span buffer. When `on` is false every method is a no-op
/// around the wrapped call, so the untraced run pays one branch per call.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// The open operation's root span, if any.
    current: u32,
    next_op: u32,
}

impl Recorder {
    /// `epoch` is shared by all clients of a run so their spans line up.
    pub fn new(on: bool, epoch: Instant) -> Recorder {
        Recorder {
            on,
            epoch,
            spans: Vec::new(),
            current: NO_PARENT,
            next_op: 0,
        }
    }

    /// Switch recording on or off between operations.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open the root span of a new operation; calls made until
    /// [`op_end`](Self::op_end) become its children.
    pub fn op_begin(&mut self, name: u16) {
        if !self.on {
            return;
        }
        let start = self.now_ns();
        self.current = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            parent: NO_PARENT,
            op: self.next_op,
            start_ns: start,
            end_ns: start,
        });
    }

    /// Close the operation's root span.
    pub fn op_end(&mut self) {
        if !self.on || self.current == NO_PARENT {
            return;
        }
        let end = self.now_ns();
        self.spans[self.current as usize].end_ns = end;
        self.current = NO_PARENT;
        self.next_op += 1;
    }

    /// Run `f` inside a span named `name`, child of the open operation.
    #[inline]
    pub fn call<T>(&mut self, name: u16, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        let op = match self.current {
            NO_PARENT => self.next_op,
            root => self.spans[root as usize].op,
        };
        self.spans.push(Span {
            name,
            parent: self.current,
            op,
            start_ns: start,
            end_ns: end,
        });
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, each clipped to the parent. Overlapping children (parallel
/// parts) are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            if let Some(p) = spans.get(s.parent as usize) {
                let lo = s.start_ns.max(p.start_ns);
                let hi = s.end_ns.min(p.end_ns);
                if hi > lo {
                    children[s.parent as usize].push((lo, hi));
                }
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration_ns().saturating_sub(covered(kids)))
        .collect()
}

/// Length of the union of intervals.
fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for &(lo, hi) in intervals.iter() {
        let lo = lo.max(reach);
        if hi > lo {
            total += hi - lo;
            reach = hi;
        }
    }
    total
}

/// One rung of the layer ladder: the per-operation time of the transfer
/// replayed at `layer`'s public API (which includes everything below it).
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    pub layer: &'static str,
    pub us_per_op: f64,
}

/// Self time per layer from rungs ordered top to bottom: each rung minus
/// the rung below it; the bottom rung keeps its whole time. A lower rung
/// that measures slower than the one above it (noise) yields a negative
/// self time rather than being hidden, so the values always sum to the
/// top rung.
pub fn ladder_self_times(rungs: &[Rung]) -> Vec<(&'static str, f64)> {
    rungs
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let below = rungs.get(i + 1).map_or(0.0, |b| b.us_per_op);
            (r.layer, r.us_per_op - below)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: u16, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            op: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_is_duration_minus_child_cover() {
        // root 0..100 with children 10..30 and 50..80, and a grandchild
        // 55..60 under the second child.
        let spans = [
            span(0, NO_PARENT, 0, 100),
            span(1, 0, 10, 30),
            span(2, 0, 50, 80),
            span(3, 2, 55, 60),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 25, 5]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Children 10..40 and 30..60 overlap by 10; a third child hangs
        // past the parent's end and is clipped to it.
        let spans = [
            span(0, NO_PARENT, 0, 100),
            span(1, 0, 10, 40),
            span(1, 0, 30, 60),
            span(1, 0, 90, 130),
        ];
        // cover = (10..60) + (90..100) = 60
        assert_eq!(self_times(&spans)[0], 40);
        // A child entirely outside its parent covers nothing.
        let outside = [span(0, NO_PARENT, 0, 10), span(1, 0, 20, 30)];
        assert_eq!(self_times(&outside)[0], 10);
    }

    #[test]
    fn self_times_of_a_tree_sum_to_the_root() {
        let spans = [
            span(0, NO_PARENT, 0, 1000),
            span(1, 0, 100, 400),
            span(2, 1, 150, 250),
            span(2, 1, 300, 380),
            span(1, 0, 500, 900),
        ];
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn rungs_telescope_to_the_top() {
        let rungs = [
            Rung {
                layer: "remote",
                us_per_op: 620.0,
            },
            Rung {
                layer: "session",
                us_per_op: 61.0,
            },
            Rung {
                layer: "collection",
                us_per_op: 58.5,
            },
            Rung {
                layer: "object",
                us_per_op: 40.0,
            },
            Rung {
                layer: "chunk",
                us_per_op: 22.0,
            },
            Rung {
                layer: "platform",
                us_per_op: 0.5,
            },
        ];
        let selfs = ladder_self_times(&rungs);
        assert_eq!(selfs[0], ("remote", 559.0));
        assert_eq!(selfs[5], ("platform", 0.5));
        let sum: f64 = selfs.iter().map(|s| s.1).sum();
        assert!((sum - 620.0).abs() < 1e-9);
        // A noisy inversion stays visible and still telescopes.
        let noisy = [
            Rung {
                layer: "a",
                us_per_op: 10.0,
            },
            Rung {
                layer: "b",
                us_per_op: 12.0,
            },
        ];
        let selfs = ladder_self_times(&noisy);
        assert_eq!(selfs, vec![("a", -2.0), ("b", 12.0)]);
    }

    #[test]
    fn recorder_links_calls_to_their_operation() {
        let mut rec = Recorder::new(true, Instant::now());
        rec.op_begin(7);
        assert_eq!(rec.call(1, || 41 + 1), 42);
        rec.call(2, || ());
        rec.op_end();
        rec.op_begin(7);
        rec.call(1, || ());
        rec.op_end();
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 5);
        assert_eq!((spans[0].parent, spans[0].op), (NO_PARENT, 0));
        assert_eq!((spans[1].parent, spans[1].op), (0, 0));
        assert_eq!((spans[2].parent, spans[2].op), (0, 0));
        assert_eq!((spans[3].parent, spans[3].op), (NO_PARENT, 1));
        assert_eq!((spans[4].parent, spans[4].op), (3, 1));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);

        let mut off = Recorder::new(false, Instant::now());
        off.op_begin(7);
        assert_eq!(off.call(1, || 5), 5);
        off.op_end();
        assert!(off.into_spans().is_empty());
    }
}
