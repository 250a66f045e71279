//! Benchmark-side spans: one per call into a layer, kept in memory and
//! written out when the run ends.
//!
//! The program's own trace (`plan` / `call` / `service` / `traversal` /
//! `verify` / `aggregate`) carries durations only, so [`SpanLog::attach_trace`]
//! lays it out under the benchmark's request span: `plan` at the start,
//! `aggregate` at the end, the `call`s list-scheduled onto the engine's
//! worker lanes in between, and each source's `service` (and within it
//! `traversal` then `verify`) at the end of its call.  The request span's
//! self time is then the request time that no program span accounts for —
//! the engine residual.

use std::collections::HashMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// Below this many shard tasks the engine runs a request on the calling
/// thread (its `MIN_PARALLEL_TASKS`), so the calls form a single chain.
const ENGINE_MIN_PARALLEL_TASKS: usize = 8;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// The request (or set-up round, or replay) the span belongs to.
    pub request: u64,
    /// Layer boundary name.
    pub name: String,
    /// The source a per-source span talks to.
    pub source: Option<u16>,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only span buffer; one per thread, merged when the run ends.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    next_id: u64,
    /// Recorded spans, in recording order.
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// A log whose span ids start at `lane << 40`, so logs kept by
    /// different threads never share an id.
    pub fn new(epoch: Instant, lane: u64) -> Self {
        Self {
            epoch,
            next_id: (lane << 40) + 1,
            spans: Vec::new(),
        }
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span measured by the benchmark and returns its id.
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let (start_ns, end_ns) = (self.offset_ns(start), self.offset_ns(end));
        self.push(name, parent, request, None, start_ns, end_ns)
    }

    fn push(
        &mut self,
        name: &str,
        parent: Option<u64>,
        request: u64,
        source: Option<u16>,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent,
            request,
            name: name.to_string(),
            source,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Lays the program's trace out under the request span `parent` (see
    /// the module docs); `workers` is the engine's worker count.
    pub fn attach_trace(&mut self, parent: &Span, trace: &obs::Trace, workers: usize) {
        let ns = |d: Duration| d.as_nanos() as u64;
        let (start, end, request) = (parent.start_ns, parent.end_ns, parent.request);
        let plan = trace.span("plan").map_or(0, |s| ns(s.elapsed));
        self.push("plan", Some(parent.id), request, None, start, start + plan);

        let calls: Vec<&obs::Span> = trace.spans_named("call").collect();
        let mut lanes = vec![start + plan; lanes_for(calls.len(), workers)];
        // Per source, the placed calls and services in trace order: the
        // engine pushes a call's spans together, and the trace's stable sort
        // keeps that order within one source, so the k-th service of a
        // source belongs to its k-th call.
        let mut placed_calls: HashMap<Option<u16>, Vec<(u64, u64, u64)>> = HashMap::new();
        for call in calls {
            let lane = (0..lanes.len()).min_by_key(|&l| lanes[l]).unwrap_or(0);
            let call_start = lanes[lane];
            let call_end = call_start + ns(call.elapsed);
            lanes[lane] = call_end;
            let id = self.push(
                "call",
                Some(parent.id),
                request,
                call.source,
                call_start,
                call_end,
            );
            placed_calls
                .entry(call.source)
                .or_default()
                .push((id, call_start, call_end));
        }
        let mut placed_services: HashMap<Option<u16>, Vec<(u64, u64)>> = HashMap::new();
        for (k, service) in indexed_by_source(trace, "service") {
            let Some(&(call_id, call_start, call_end)) =
                placed_calls.get(&service.source).and_then(|c| c.get(k))
            else {
                continue;
            };
            let svc_start = call_end.saturating_sub(ns(service.elapsed)).max(call_start);
            let id = self.push(
                "service",
                Some(call_id),
                request,
                service.source,
                svc_start,
                call_end,
            );
            placed_services
                .entry(service.source)
                .or_default()
                .push((id, svc_start));
        }
        let mut traversal_ends: HashMap<(Option<u16>, usize), u64> = HashMap::new();
        for phase in ["traversal", "verify"] {
            for (k, span) in indexed_by_source(trace, phase) {
                let Some(&(svc_id, svc_start)) =
                    placed_services.get(&span.source).and_then(|s| s.get(k))
                else {
                    continue;
                };
                let from = *traversal_ends.get(&(span.source, k)).unwrap_or(&svc_start);
                let to = from + ns(span.elapsed);
                self.push(phase, Some(svc_id), request, span.source, from, to);
                traversal_ends.insert((span.source, k), to);
            }
        }

        let aggregate = trace.span("aggregate").map_or(0, |s| ns(s.elapsed));
        let agg_start = end.saturating_sub(aggregate).max(start);
        self.push("aggregate", Some(parent.id), request, None, agg_start, end);
    }

    /// Appends another log's spans.
    pub fn merge(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }
}

/// The spans named `name`, each with its index among the same source's
/// spans of that name.
fn indexed_by_source<'a>(
    trace: &'a obs::Trace,
    name: &'a str,
) -> impl Iterator<Item = (usize, &'a obs::Span)> + 'a {
    let mut seen: HashMap<Option<u16>, usize> = HashMap::new();
    trace.spans_named(name).map(move |span| {
        let k = seen.entry(span.source).or_insert(0);
        *k += 1;
        (*k - 1, span)
    })
}

/// How many worker lanes a request with `calls` shard calls runs on.
pub fn lanes_for(calls: usize, workers: usize) -> usize {
    if calls < ENGINE_MIN_PARALLEL_TASKS {
        1
    } else {
        workers.clamp(1, calls)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let covered = children
                .get_mut(&span.id)
                .map_or(0, |c| covered_ns(c, span.start_ns, span.end_ns));
            (span.id, span.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[from, to]`.
fn covered_ns(intervals: &mut [(u64, u64)], from: u64, to: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = from;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(to));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Writes spans as tab-separated rows, with each span's self time.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let self_ns = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "id\tparent\trequest\tname\tsource\tstart_ns\tend_ns\tself_ns"
    )?;
    for span in spans {
        let opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            span.id,
            opt(span.parent),
            span.request,
            span.name,
            opt(span.source.map(u64::from)),
            span.start_ns,
            span.end_ns,
            self_ns.get(&span.id).copied().unwrap_or(0),
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name: "s".into(),
            source: None,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, 0, 100),
            // Overlapping children count once; the part of a child outside
            // its parent does not count at all.
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 50),
            span(4, Some(1), 90, 130),
            // A grandchild reduces its own parent only.
            span(5, Some(2), 10, 20),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 40 - 10);
        assert_eq!(st[&2], 30 - 10);
        assert_eq!(st[&3], 20);
        assert_eq!(st[&4], 40);
        assert_eq!(st[&5], 10);
    }

    fn trace(calls: &[(u16, u64)], plan: u64, aggregate: u64) -> obs::Trace {
        let mut t = obs::Trace::new(7);
        t.push("plan", None, Duration::from_nanos(plan));
        for &(source, ns) in calls {
            t.push("call", Some(source), Duration::from_nanos(ns));
            t.push("service", Some(source), Duration::from_nanos(ns / 2));
            t.push("traversal", Some(source), Duration::from_nanos(ns / 8));
            t.push("verify", Some(source), Duration::from_nanos(ns / 4));
        }
        t.push("aggregate", None, Duration::from_nanos(aggregate));
        t.canonicalize();
        t
    }

    fn residual(request_ns: u64, t: &obs::Trace, workers: usize) -> u64 {
        let mut log = SpanLog::new(Instant::now(), 0);
        let parent = span(999, None, 1_000, 1_000 + request_ns);
        log.spans.push(parent.clone());
        log.attach_trace(&parent, t, workers);
        self_times(&log.spans)[&999]
    }

    #[test]
    fn residual_is_request_minus_plan_chain_and_aggregate() {
        // Fewer than eight calls: one chain, whatever the worker count.
        let t = trace(&[(0, 30), (1, 20)], 10, 10);
        assert_eq!(residual(100, &t, 2), 100 - 10 - 50 - 10);
        // Eight calls on two lanes: the longest lane is the chain.
        let calls: Vec<(u16, u64)> = (0..8).map(|s| (s, 10)).collect();
        let t = trace(&calls, 5, 5);
        assert_eq!(residual(100, &t, 2), 100 - 5 - 40 - 5);
        assert_eq!(residual(100, &t, 1), 100 - 5 - 80 - 5);
        // Spans that cover more than the request leave no residual.
        assert_eq!(residual(50, &t, 1), 0);
    }

    #[test]
    fn program_spans_nest_under_their_call() {
        let t = trace(&[(3, 40), (3, 20)], 0, 0);
        let mut log = SpanLog::new(Instant::now(), 0);
        let parent = span(999, None, 0, 100);
        log.attach_trace(&parent, &t, 1);
        let st = self_times(&log.spans);
        let calls: Vec<&Span> = log.spans.iter().filter(|s| s.name == "call").collect();
        assert_eq!(calls.len(), 2);
        for call in calls {
            // call − service is the transport's own time.
            assert_eq!(st[&call.id], call.duration_ns() / 2);
            let service = log
                .spans
                .iter()
                .find(|s| s.name == "service" && s.parent == Some(call.id))
                .expect("service under its call");
            assert_eq!(service.end_ns, call.end_ns);
            let phases: u64 = log
                .spans
                .iter()
                .filter(|s| s.parent == Some(service.id))
                .map(Span::duration_ns)
                .sum();
            assert_eq!(phases, call.duration_ns() * 3 / 8);
        }
    }

    #[test]
    fn lanes_follow_the_engine_rule() {
        assert_eq!(lanes_for(7, 2), 1);
        assert_eq!(lanes_for(8, 2), 2);
        assert_eq!(lanes_for(80, 0), 1);
        assert_eq!(lanes_for(9, 16), 9);
    }
}
