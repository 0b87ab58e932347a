//! Trace analysis: rebuilds the span tree from the recorder's events
//! and derives self times and coverage ratios.
//!
//! Spans nest per thread by depth. A kernel span that opens at depth 0
//! on a parallel worker thread is attached to the deepest span on
//! another (non-worker) thread whose interval contains it, since that
//! caller waits for it. A span's self time is its duration minus the
//! union of its children's intervals.

use dlbench_trace::{Category, Event, EventKind};
use std::collections::{BTreeMap, HashMap};

struct Span {
    name: String,
    cat: Category,
    start: u64,
    end: u64,
    depth: u32,
    flops: u64,
    parent: Option<usize>,
    covered_ns: u64,
}

/// Totals over every span with one `(category, name)`.
#[derive(Default, Clone, Copy)]
pub struct OpStat {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub flops: u64,
}

pub struct Analysis {
    spans: Vec<Span>,
    intervals: Vec<(String, u64)>,
    ops: BTreeMap<(Category, String), OpStat>,
}

impl Analysis {
    pub fn new(events: Vec<Event>) -> Self {
        let mut spans = Vec::new();
        let mut tids = Vec::new();
        let mut intervals = Vec::new();
        for e in events {
            match e.kind {
                EventKind::Span { start_ns, dur_ns, depth, flops } => {
                    tids.push(e.tid);
                    spans.push(Span {
                        name: e.name.into_owned(),
                        cat: e.cat,
                        start: start_ns,
                        end: start_ns + dur_ns,
                        depth,
                        flops,
                        parent: None,
                        covered_ns: 0,
                    });
                }
                EventKind::Interval { dur_ns, .. } => intervals.push((e.name.into_owned(), dur_ns)),
                EventKind::Counter { .. } => {}
            }
        }
        let mut analysis = Self { spans, intervals, ops: BTreeMap::new() };
        analysis.link(&tids);
        analysis.cover();
        analysis
    }

    /// Assigns parents: same-thread nesting first, then worker roots.
    fn link(&mut self, tids: &[u64]) {
        let mut by_tid: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, &tid) in tids.iter().enumerate() {
            by_tid.entry(tid).or_default().push(i);
        }
        let spans = &mut self.spans;
        for list in by_tid.values_mut() {
            list.sort_by_key(|&i| (spans[i].start, spans[i].depth));
            let mut open: Vec<usize> = Vec::new();
            for &i in list.iter() {
                let d = spans[i].depth as usize;
                open.truncate(d);
                if d > 0 {
                    spans[i].parent = open.last().copied();
                }
                open.push(i);
            }
        }
        // Threads whose every root is a kernel are parallel workers.
        let worker: HashMap<u64, bool> = by_tid
            .iter()
            .map(|(&tid, list)| {
                let all_kernel = list
                    .iter()
                    .filter(|&&i| spans[i].depth == 0)
                    .all(|&i| spans[i].cat == Category::Kernel);
                (tid, all_kernel)
            })
            .collect();
        let callers: Vec<&Vec<usize>> =
            by_tid.iter().filter(|(tid, _)| !worker[tid]).map(|(_, list)| list).collect();
        for (&tid, list) in &by_tid {
            if !worker[&tid] {
                continue;
            }
            let roots: Vec<usize> = list.iter().copied().filter(|&i| spans[i].depth == 0).collect();
            for i in roots {
                let (start, end) = (spans[i].start, spans[i].end);
                let mut best: Option<usize> = None;
                for caller in &callers {
                    let pos = caller.partition_point(|&j| spans[j].start <= start);
                    let mut cand = pos.checked_sub(1).map(|p| caller[p]);
                    while let Some(c) = cand {
                        if spans[c].end >= end {
                            break;
                        }
                        cand = spans[c].parent;
                    }
                    if let Some(c) = cand {
                        if best.is_none_or(|b| spans[c].depth > spans[b].depth) {
                            best = Some(c);
                        }
                    }
                }
                spans[i].parent = best;
            }
        }
    }

    /// Computes each span's child-covered time and the per-op totals.
    fn cover(&mut self) {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        for (i, kids) in children.iter_mut().enumerate() {
            if kids.is_empty() {
                continue;
            }
            let (lo, hi) = (self.spans[i].start, self.spans[i].end);
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = lo;
            for &(s, e) in kids.iter() {
                let (s, e) = (s.max(cursor), e.min(hi));
                if e > s {
                    covered += e - s;
                    cursor = e;
                }
            }
            self.spans[i].covered_ns = covered;
        }
        for s in &self.spans {
            let dur = s.end - s.start;
            let op = self.ops.entry((s.cat, s.name.clone())).or_default();
            op.calls += 1;
            op.total_ns += dur;
            op.self_ns += dur - s.covered_ns.min(dur);
            op.flops += s.flops;
        }
    }

    pub fn op(&self, cat: Category, name: &str) -> OpStat {
        self.ops.get(&(cat, name.to_string())).copied().unwrap_or_default()
    }

    /// Mean duration per call in milliseconds (0 when never called).
    pub fn mean_ms(&self, cat: Category, name: &str) -> f64 {
        let op = self.op(cat, name);
        if op.calls == 0 {
            0.0
        } else {
            op.total_ns as f64 / op.calls as f64 / 1e6
        }
    }

    pub fn durations_ms(&self, cat: Category, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.cat == cat && s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e6)
            .collect()
    }

    pub fn interval_ms(&self, name: &str) -> Vec<f64> {
        self.intervals.iter().filter(|(n, _)| n == name).map(|&(_, d)| d as f64 / 1e6).collect()
    }

    /// Share of all `cat` spans' time that their children cover.
    pub fn child_coverage(&self, cat: Category) -> f64 {
        let (mut covered, mut total) = (0u64, 0u64);
        for s in self.spans.iter().filter(|s| s.cat == cat) {
            covered += s.covered_ns;
            total += s.end - s.start;
        }
        ratio(covered, total)
    }

    /// Share of the time of spans named `parent` that their direct
    /// children of category `cat` account for.
    pub fn direct_child_share(&self, parent: &str, cat: Category) -> f64 {
        let mut inside = vec![0u64; self.spans.len()];
        for s in self.spans.iter().filter(|s| s.cat == cat) {
            if let Some(p) = s.parent {
                inside[p] += s.end - s.start;
            }
        }
        let (mut covered, mut total) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| s.name == parent) {
            covered += inside[i];
            total += s.end - s.start;
        }
        ratio(covered, total)
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}
