//! In-memory spans recorded by the phase replay, around each call into a layer's public
//! functions. Kept in memory while measuring; aggregated and written out at exit.

use std::time::Instant;

/// One timed call: which layer function, when, inside which span, in which round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the tracer's list.
    pub parent: Option<usize>,
    /// Round the span belongs to; [`SETUP_ROUND`] for set-up work.
    pub round: usize,
}

/// Round id of spans recorded before the first round.
pub const SETUP_ROUND: usize = usize::MAX;

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans on the calling thread. The replay is single-threaded, so the open spans
/// form a stack and a new span's parent is the top of it.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    round: usize,
}

impl Tracer {
    /// Space for `capacity` spans is reserved up front so that recording one does not
    /// allocate inside the region whose allocations are being counted.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
            round: SETUP_ROUND,
        }
    }

    /// Sets the round id given to spans opened from now on.
    pub fn set_round(&mut self, round: usize) {
        self.round = round;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Times `f` as a span named `name`, nested inside whichever span is open.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            round: self.round,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of span `id`: its duration minus the part of its interval that its direct
/// children cover (overlapping children are counted once).
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let parent = &spans[id];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| {
            (
                s.start_ns.clamp(parent.start_ns, parent.end_ns),
                s.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .collect();
    children.sort_unstable();
    let mut covered = 0u64;
    let mut reach = parent.start_ns;
    for (start, end) in children {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    parent.duration_ns() - covered
}

/// One span per line as JSON objects (`name`, `start_ns`, `end_ns`, `self_ns`, `parent`,
/// `round`), the form written next to the executable at exit.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let round = if s.round == SETUP_ROUND {
            "null".to_string()
        } else {
            s.round.to_string()
        };
        out.push_str(&format!(
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{parent},\"round\":{round}}}\n",
            s.name,
            s.start_ns,
            s.end_ns,
            self_time_ns(spans, id),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            round: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(40, 70, Some(0)),
            // A grandchild covers part of a child, not of the root.
            span(45, 60, Some(2)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 20 - 30);
        assert_eq!(self_time_ns(&spans, 1), 20);
        assert_eq!(self_time_ns(&spans, 2), 30 - 15);
        assert_eq!(self_time_ns(&spans, 3), 15);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped_to_the_parent() {
        let spans = [
            span(100, 200, None),
            span(110, 150, Some(0)),
            span(140, 170, Some(0)),
            span(190, 260, Some(0)),
        ];
        // Union of [110,150] ∪ [140,170] ∪ [190,200] = 60 + 10.
        assert_eq!(self_time_ns(&spans, 0), 100 - 70);
    }

    #[test]
    fn tracer_nests_spans_and_tags_rounds() {
        let mut t = Tracer::with_capacity(8);
        t.span("setup", |_| ());
        t.set_round(3);
        let value = t.span("round", |t| t.span("plan", |_| 7));
        assert_eq!(value, 7);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].name, s[0].parent, s[0].round),
            ("setup", None, SETUP_ROUND)
        );
        assert_eq!((s[1].name, s[1].parent, s[1].round), ("round", None, 3));
        assert_eq!((s[2].name, s[2].parent, s[2].round), ("plan", Some(1), 3));
        assert!(s[1].start_ns <= s[2].start_ns && s[2].end_ns <= s[1].end_ns);
    }
}
