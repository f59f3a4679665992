//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records a name (`<layer>.<call>`), start and end, the span
//! that was open when it began (its parent), and a request id shared by
//! every span of one request. Spans are only kept on the traced pass;
//! on the untraced pass every method is a no-op, so the end-to-end
//! numbers never pay for them.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. Times are seconds since the recorder's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Span recorder for one pass.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle to an open span (`None` when recording is off).
#[must_use]
pub struct Open(Option<usize>);

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.epoch.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes a span; spans close in reverse order of opening.
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end = self.epoch.elapsed().as_secs_f64();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time summed per layer (the name up to its first `.`).
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (i, secs) in self_times(&self.spans).into_iter().enumerate() {
            let name = self.spans[i].name;
            let layer = name.split('.').next().unwrap_or(name);
            *out.entry(layer).or_insert(0.0) += secs;
        }
        out
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for (a, b) in kids {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            ((s.end - s.start) - covered).max(0.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let spans = vec![
            span("bench.root", 0.0, 10.0, None),
            span("cluster.a", 1.0, 3.0, Some(0)),
            // Overlaps the first child: the union [1, 4] is covered once.
            span("cluster.b", 2.0, 4.0, Some(0)),
            span("modeling.c", 6.0, 7.0, Some(0)),
            // A grandchild only reduces its own parent.
            span("modeling.d", 6.5, 7.0, Some(3)),
        ];
        let st = self_times(&spans);
        assert_eq!(st, vec![6.0, 2.0, 2.0, 0.5, 0.5]);
    }

    #[test]
    fn child_outside_parent_is_clipped() {
        let spans = vec![
            span("bench.root", 0.0, 2.0, None),
            span("cluster.a", 1.5, 3.0, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![1.5, 1.5]);
    }

    #[test]
    fn recorder_nests_and_groups_by_layer() {
        let mut s = Spans::new(true);
        let root = s.enter("bench.cell", 7);
        let child = s.enter("cluster.step", 7);
        s.exit(child);
        s.exit(root);
        assert_eq!(s.spans()[1].parent, Some(0));
        assert_eq!(s.spans()[1].request, 7);
        let layers = s.self_time_by_layer();
        assert!(layers.contains_key("bench") && layers.contains_key("cluster"));

        let mut off = Spans::new(false);
        let o = off.enter("bench.cell", 0);
        off.exit(o);
        assert!(off.spans().is_empty());
    }
}
