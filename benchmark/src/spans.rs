//! Wall-clock spans recorded from the benchmark's own files, around the
//! calls into each layer. Kept in memory; written out when the run ends.

use std::time::Instant;
use tlt_obs::JsonValue;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

const NO_PARENT: usize = usize::MAX;

/// One closed (or still open) span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-prefixed name, e.g. `rollout.gen`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created (`start_ns` while open).
    pub end_ns: u64,
    /// The span that caused this one, or `usize::MAX` for a root.
    pub parent: SpanId,
    /// Traced rep the span belongs to.
    pub rep: u32,
    /// RL step, or 1%-of-requests chunk, or grid row, inside the rep.
    pub unit: u32,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span recorder with a parent stack.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
    rep: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            rep: 0,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts rep `rep`: stamps its id on spans opened from now on, and makes
    /// room for `spans` of them so that recording does not allocate inside
    /// the counted window.
    pub fn start_rep(&mut self, rep: u32, spans: usize) {
        self.rep = rep;
        self.spans.reserve(spans);
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str, unit: u32) -> SpanId {
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            rep: self.rep,
            unit,
        });
        self.stack.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`, and returns its
    /// duration in seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].secs()
    }

    /// Runs `f` inside a span and returns its result and the seconds it took.
    pub fn time<T>(&mut self, name: &'static str, unit: u32, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name, unit);
        let out = f();
        let secs = self.close(id);
        (out, secs)
    }

    /// Records an aggregate child of the innermost open span: `busy_ns` of
    /// per-request calls summed over one chunk, laid from `offset_ns` after
    /// the parent's start so the chunk's aggregates sit back to back.
    pub fn aggregate(&mut self, name: &'static str, unit: u32, offset_ns: u64, busy_ns: u64) {
        let parent = *self.stack.last().expect("aggregate needs an open parent");
        let start_ns = self.spans[parent].start_ns + offset_ns;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + busy_ns,
            parent,
            rep: self.rep,
            unit,
        });
    }

    /// Share of rep `rep`'s root span covered by leaf spans (spans with no
    /// child): the part of the traced wall the layers account for.
    pub fn leaf_cover(&self, rep: u32) -> f64 {
        let mut has_child = vec![false; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                has_child[s.parent] = true;
            }
        }
        let root: f64 = self
            .spans
            .iter()
            .filter(|s| s.rep == rep && s.parent == NO_PARENT)
            .map(Span::secs)
            .sum();
        let leaves: f64 = self
            .spans
            .iter()
            .enumerate()
            .filter(|(i, s)| s.rep == rep && s.parent != NO_PARENT && !has_child[*i])
            .map(|(_, s)| s.secs())
            .sum();
        if root > 0.0 {
            leaves / root
        } else {
            0.0
        }
    }

    /// The span file: one object per span, in recording order.
    pub fn to_json(&self, workload: &str) -> JsonValue {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                JsonValue::object(vec![
                    ("id", JsonValue::Number(id as f64)),
                    ("name", JsonValue::string(s.name)),
                    ("start_ns", JsonValue::Number(s.start_ns as f64)),
                    ("end_ns", JsonValue::Number(s.end_ns as f64)),
                    (
                        "parent",
                        if s.parent == NO_PARENT {
                            JsonValue::Null
                        } else {
                            JsonValue::Number(s.parent as f64)
                        },
                    ),
                    ("rep", JsonValue::Number(f64::from(s.rep))),
                    ("unit", JsonValue::Number(f64::from(s.unit))),
                ])
            })
            .collect();
        JsonValue::object(vec![
            ("workload", JsonValue::string(workload)),
            (
                "clock",
                JsonValue::string("host monotonic, ns since trace start"),
            ),
            ("spans", JsonValue::Array(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parents_and_cover_follow_nesting() {
        let mut tr = Tracer::default();
        let root = tr.open("bench.rep", 0);
        let step = tr.open("rl.step", 0);
        let (_, secs) = tr.time("rollout.gen", 0, || std::hint::black_box(1 + 1));
        tr.close(step);
        tr.close(root);
        assert!(secs >= 0.0);
        assert_eq!(tr.spans[2].parent, step);
        assert_eq!(tr.spans[1].parent, root);
        let cover = tr.leaf_cover(0);
        assert!((0.0..=1.0).contains(&cover), "cover {cover}");
    }
}
