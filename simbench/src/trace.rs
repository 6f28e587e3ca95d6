//! In-memory span recorder for the traced run.
//!
//! The harness opens a span around each call into a simulator layer's
//! public API (name, start, end, parent). Spans stay in memory while the
//! run measures and are written out once at exit. A layer's self time is
//! its span's duration minus the part of that interval its child spans
//! cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one; returns its id.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn close(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.open(name);
        let r = f(self);
        self.close(id);
        r
    }

    /// Number of spans recorded so far: pass it to [`Tracer::layer_times`]
    /// to aggregate only what was recorded after this point.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Per span name: (span count, summed self time in ns) over the spans
    /// recorded since `from` (which must not split a parent from its
    /// children).
    pub fn layer_times(&self, from: usize) -> BTreeMap<&'static str, (u64, u64)> {
        layer_times(&self.spans[from..], from)
    }

    /// Tab-separated dump: id, parent, name, start, end, self time (ns).
    pub fn to_tsv(&self) -> String {
        let selfs = self_times(&self.spans, 0);
        let mut out = String::from("id\tparent\tname\tstart_ns\tend_ns\tself_ns\n");
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{self_ns}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Length of `[start, end)` not covered by any of `children` (intervals
/// may overlap each other and stick out of the parent; both are clipped).
pub fn self_time(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start) - covered
}

/// Self time of every span in `spans`, whose ids start at `base`.
fn self_times(spans: &[Span], base: usize) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p >= base) {
            children[p - base].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| self_time(s.start_ns, s.end_ns, kids))
        .collect()
}

fn layer_times(spans: &[Span], base: usize) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans, base)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        // No children: the whole interval.
        assert_eq!(self_time(10, 50, &mut []), 40);
        // Disjoint children.
        assert_eq!(self_time(0, 100, &mut [(10, 20), (50, 70)]), 70);
        // Overlapping children count their union, in any order.
        assert_eq!(self_time(0, 100, &mut [(30, 60), (10, 40), (35, 45)]), 50);
        // Children sticking out of the parent are clipped.
        assert_eq!(self_time(20, 80, &mut [(0, 30), (70, 200)]), 40);
        // A child covering everything leaves no self time.
        assert_eq!(self_time(5, 9, &mut [(0, 10)]), 0);
    }

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn layer_times_sum_self_time_per_name() {
        // pass [0,100) > gemm [10,90) > {loc [10,30), kernel [30,80)};
        // a second kernel span elsewhere under the pass.
        let spans = [
            span("pass", 0, 100, None),
            span("gemm", 10, 90, Some(0)),
            span("loc", 10, 30, Some(1)),
            span("kernel", 30, 80, Some(1)),
            span("kernel", 92, 97, Some(0)),
        ];
        let t = layer_times(&spans, 0);
        assert_eq!(t["pass"], (1, 100 - 80 - 5));
        assert_eq!(t["gemm"], (1, 80 - 20 - 50));
        assert_eq!(t["loc"], (1, 20));
        assert_eq!(t["kernel"], (2, 55));
        // Self times partition the root interval.
        let total: u64 = t.values().map(|v| v.1).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn layer_times_from_a_mark_ignore_earlier_parents() {
        let spans = [
            span("setup", 0, 10, None),
            span("pass", 20, 40, None),
            span("kernel", 25, 35, Some(1)),
        ];
        let t = layer_times(&spans[1..], 1);
        assert_eq!(t["pass"], (1, 10));
        assert_eq!(t["kernel"], (1, 10));
        assert!(!t.contains_key("setup"));
    }

    #[test]
    fn tracer_nests_and_closes_in_order() {
        let mut tr = Tracer::default();
        let v = tr.span("outer", |tr| tr.span("inner", |_| 7));
        assert_eq!(v, 7);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert!(tr.spans[0].end_ns >= tr.spans[1].end_ns);
        assert_eq!(tr.to_tsv().lines().count(), 3);
    }
}
