//! The two workloads and the load that drives them.
//!
//! * `interactive` — independent users: open-loop Poisson arrivals of
//!   single-query requests over the pooled transport to a spawned fleet.
//! * `analytic` — one batch caller: a closed loop of 16-query batches
//!   through the in-process framework.
//!
//! Both follow the read window with a maintenance probe (see [`run_probe`]).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dits::{MaintenanceStats, SearchStats};
use multisource::{CommStats, SearchRequest, SearchResponse, SearchResults};
use rand::prelude::*;
use spatial::SpatialDataset;

use crate::deploy::{Deployment, Timed};
use crate::maint::{Batch, UpdatePlan};
use crate::spans::{self, SpanLog};

/// Results per query.
pub const K: usize = 10;
/// Query datasets every workload cycles through.
pub const QUERIES: usize = 64;
/// A run whose generator sent later than this at p99, once a client
/// thread was free, is invalid: the generator, not the program, was slow.
pub const LAG_LIMIT_MS: f64 = 25.0;
/// Kind names, in kind-index order.
pub const KINDS: [&str; 3] = ["ojsp", "cjsp", "knn"];

/// How a workload offers load.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Poisson arrivals of single-query requests at `rate` per second,
    /// served by `threads` client threads.
    Open { rate: f64, threads: usize },
    /// One client sending `batch`-query requests back to back.
    Closed { batch: usize },
}

/// A workload's fixed shape; only the seed varies between runs.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// `ExperimentEnv` scale divisor (the paper's sizes divided by this).
    pub divisor: u32,
    /// Spawned `source-server` fleet, or the in-process framework.
    pub fleet: bool,
    pub load: Load,
    /// Latency limit of one request.
    pub limit_ms: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

/// The workloads, by name.
pub fn spec(name: &str) -> Option<Spec> {
    let client_threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    match name {
        "interactive" => Some(Spec {
            name: "interactive",
            divisor: 400,
            fleet: true,
            load: Load::Open {
                rate: 50.0,
                threads: client_threads,
            },
            limit_ms: 50.0,
            setups: 9,
        }),
        "analytic" => Some(Spec {
            name: "analytic",
            divisor: 25,
            fleet: false,
            load: Load::Closed { batch: 16 },
            limit_ms: 1500.0,
            setups: 3,
        }),
        _ => None,
    }
}

impl Spec {
    /// Queries per request.
    pub fn batch(&self) -> usize {
        match self.load {
            Load::Open { .. } => 1,
            Load::Closed { batch } => batch,
        }
    }
}

/// One request of the corpus, untraced and traced.
pub struct Entry {
    pub kind: usize,
    pub queries: Vec<SpatialDataset>,
    pub plain: SearchRequest,
    pub traced: SearchRequest,
}

/// A request for `kind` over `queries`, engine defaults otherwise.
pub fn request(kind: usize, queries: Vec<SpatialDataset>) -> SearchRequest {
    match kind {
        0 => SearchRequest::ojsp_batch(queries),
        1 => SearchRequest::cjsp_batch(queries),
        _ => SearchRequest::knn_batch(queries),
    }
    .k(K)
}

/// Every request a workload sends, kinds interleaved: entry `j` is kind
/// `j % 3` over query group `j / 3`.
pub fn corpus(queries: &[SpatialDataset], batch: usize) -> Vec<Entry> {
    let groups: Vec<&[SpatialDataset]> = queries.chunks(batch.max(1)).collect();
    (0..groups.len() * 3)
        .map(|j| {
            let kind = j % 3;
            let queries = groups[j / 3].to_vec();
            let plain = request(kind, queries.clone());
            Entry {
                kind,
                traced: plain.clone().with_trace(true),
                plain,
                queries,
            }
        })
        .collect()
}

/// One scheduled open-loop arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub at: Duration,
    /// The corpus entry it sends.
    pub entry: usize,
}

/// At least `rate × window` arrivals, rounded up to whole passes over the
/// corpus, at sorted uniform times: a Poisson process conditioned on its
/// count.  Every seed sends each corpus entry equally often, so the seed
/// moves only the timing and where the cycle starts, never the request mix.
pub fn open_schedule(rate: f64, window: Duration, corpus_len: usize, seed: u64) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4F50_454E);
    let corpus_len = corpus_len.max(1);
    let n = (rate * window.as_secs_f64() / corpus_len as f64).ceil() as usize * corpus_len;
    let mut times: Vec<f64> = (0..n).map(|_| rng.random::<f64>()).collect();
    times.sort_by(f64::total_cmp);
    let offset = rng.random_range(0..corpus_len);
    times
        .into_iter()
        .enumerate()
        .map(|(i, t)| Arrival {
            at: window.mul_f64(t),
            entry: (offset + i) % corpus_len,
        })
        .collect()
}

/// What the answer to one corpus entry must be.
pub type Expected = (SearchResults, CommStats);

/// One sent query request.
#[derive(Debug, Clone)]
pub struct Sample {
    pub kind: usize,
    /// Scheduled offset from the window start.
    pub at_ms: f64,
    /// How late the generator sent it once a client thread was free: its
    /// own timer and scheduling error, which no program change should move.
    pub lag_ms: f64,
    /// How long it waited for a free client thread (the open-loop backlog).
    pub wait_ms: f64,
    /// From the scheduled send to the answer; `None` when it failed.
    pub latency_ms: Option<f64>,
    pub traced: bool,
    pub queries: usize,
    pub comm: CommStats,
}

/// One sent maintenance batch.
#[derive(Debug, Clone)]
pub struct UpdateSample {
    /// The probe round it belongs to.
    pub round: usize,
    /// The `apply_updates` call; `None` when it failed.
    pub latency_ms: Option<f64>,
    pub traced: bool,
    pub stats: MaintenanceStats,
}

/// Each probe round's latency: the sum of its batches' `apply_updates`
/// calls, without the pauses between them.  A round with a failed batch
/// has no latency.
pub fn round_latencies(updates: &[UpdateSample]) -> Vec<f64> {
    let mut rounds: BTreeMap<usize, Option<f64>> = BTreeMap::new();
    for u in updates {
        let total = rounds.entry(u.round).or_insert(Some(0.0));
        *total = total.zip(u.latency_ms).map(|(a, b)| a + b);
    }
    rounds.into_values().flatten().collect()
}

/// Per-kind layer totals over traced requests.
#[derive(Debug, Default, Clone)]
pub struct KindLayers {
    pub requests: usize,
    pub queries: usize,
    pub plan_ns: f64,
    pub aggregate_ns: f64,
    pub traversal_ns: f64,
    pub verify_ns: f64,
    pub search: SearchStats,
    pub answers: usize,
    pub reply_bytes: usize,
    pub service_us: Vec<f64>,
}

/// Layer numbers gathered from traced requests.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub kinds: [KindLayers; 3],
    pub residual_us: Vec<f64>,
    pub shards: usize,
    pub call_us: Vec<f64>,
    pub overhead_us: Vec<f64>,
    pub contacted: usize,
}

impl Layers {
    fn absorb(&mut self, kind: usize, response: &SearchResponse, residual_ns: u64) {
        let ns = |d: Duration| d.as_nanos() as f64;
        let per_kind = &mut self.kinds[kind];
        per_kind.requests += 1;
        per_kind.queries += response.results.len();
        if let Some(trace) = &response.trace {
            per_kind.plan_ns += ns(trace.total_named("plan"));
            per_kind.aggregate_ns += ns(trace.total_named("aggregate"));
            per_kind.traversal_ns += ns(trace.total_named("traversal"));
            per_kind.verify_ns += ns(trace.total_named("verify"));
            self.shards += trace.spans_named("call").count();
        }
        if let Some(stats) = &response.search {
            per_kind.search.merge(stats);
        }
        per_kind.answers += match &response.results {
            SearchResults::Overlap(v) => v.iter().map(|a| a.results.len()).sum::<usize>(),
            SearchResults::Coverage(v) => v.iter().map(|a| a.selected.len()).sum(),
            SearchResults::Knn(v) => v.iter().map(|a| a.neighbors.len()).sum(),
        };
        per_kind.reply_bytes += response.comm.bytes_to_center;
        for timing in &response.per_source {
            let calls = timing.requests.max(1) as u32;
            let us = |d: Duration| d.as_secs_f64() * 1e6;
            self.call_us.push(us(timing.elapsed / calls));
            self.overhead_us
                .push(us(timing.elapsed.saturating_sub(timing.service) / calls));
            per_kind.service_us.push(us(timing.service / calls));
        }
        self.contacted += response.comm.sources_contacted;
        self.residual_us.push(residual_ns as f64 / 1e3);
    }

    fn merge(&mut self, other: Layers) {
        for (mine, theirs) in self.kinds.iter_mut().zip(other.kinds) {
            mine.requests += theirs.requests;
            mine.queries += theirs.queries;
            mine.plan_ns += theirs.plan_ns;
            mine.aggregate_ns += theirs.aggregate_ns;
            mine.traversal_ns += theirs.traversal_ns;
            mine.verify_ns += theirs.verify_ns;
            mine.search.merge(&theirs.search);
            mine.answers += theirs.answers;
            mine.reply_bytes += theirs.reply_bytes;
            mine.service_us.extend(theirs.service_us);
        }
        self.residual_us.extend(other.residual_us);
        self.shards += other.shards;
        self.call_us.extend(other.call_us);
        self.overhead_us.extend(other.overhead_us);
        self.contacted += other.contacted;
    }
}

/// What one client thread (or the whole window, once merged) brings home.
#[derive(Debug)]
pub struct Tally {
    pub samples: Vec<Sample>,
    pub updates: Vec<UpdateSample>,
    pub layers: Layers,
    pub mismatches: Vec<String>,
    pub spans: SpanLog,
    /// When the last request of the window finished.
    pub last_end: Option<Instant>,
}

impl Tally {
    pub fn new(epoch: Instant, lane: u64) -> Self {
        Self {
            samples: Vec::new(),
            updates: Vec::new(),
            layers: Layers::default(),
            mismatches: Vec::new(),
            spans: SpanLog::new(epoch, lane),
            last_end: None,
        }
    }

    /// Query requests and maintenance batches sent.
    pub fn attempted(&self) -> usize {
        self.samples.len() + self.updates.len()
    }

    /// Those of them that failed or were refused.
    pub fn failed(&self) -> usize {
        self.samples
            .iter()
            .filter(|s| s.latency_ms.is_none())
            .count()
            + self
                .updates
                .iter()
                .filter(|u| u.latency_ms.is_none())
                .count()
    }

    pub fn merge(&mut self, other: Tally) {
        self.samples.extend(other.samples);
        self.updates.extend(other.updates);
        self.layers.merge(other.layers);
        self.mismatches.extend(other.mismatches);
        self.spans.merge(other.spans);
        self.last_end = self.last_end.max(other.last_end);
    }
}

/// Everything a request's processing needs to see.
pub struct Ctx<'a> {
    pub deployment: &'a Deployment,
    pub corpus: &'a [Entry],
    /// The answer each corpus entry must give.
    pub expected: &'a [Expected],
    /// The engine's resolved worker count.
    pub workers: usize,
}

/// Compares an answer with its expected value; a description on mismatch.
pub fn check(entry: usize, response: &SearchResponse, expected: &Expected) -> Option<String> {
    if response.results != expected.0 {
        Some(format!("corpus entry {entry}: answers differ"))
    } else if response.comm != expected.1 {
        Some(format!(
            "corpus entry {entry}: CommStats {:?} != expected {:?}",
            response.comm, expected.1
        ))
    } else {
        None
    }
}

/// Sends one corpus entry and records it.
fn send(
    ctx: &Ctx,
    tally: &mut Tally,
    entry_idx: usize,
    (due, free): (Instant, Instant),
    window_start: Instant,
    traced: bool,
    request_id: u64,
) {
    let entry = &ctx.corpus[entry_idx];
    let sent = Instant::now();
    let timed: Timed<SearchResponse> =
        ctx.deployment
            .search(if traced { &entry.traced } else { &entry.plain });
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut sample = Sample {
        kind: entry.kind,
        at_ms: ms(due.saturating_duration_since(window_start)),
        lag_ms: ms(sent.saturating_duration_since(due.max(free))),
        wait_ms: ms(free.saturating_duration_since(due)),
        latency_ms: None,
        traced,
        queries: entry.queries.len(),
        comm: CommStats::new(),
    };
    tally.last_end = tally.last_end.max(Some(timed.end));
    if let Ok(response) = &timed.result {
        sample.latency_ms = Some(ms(timed.end.saturating_duration_since(due)));
        sample.comm = response.comm;
        if let Some(problem) = ctx
            .expected
            .get(entry_idx)
            .and_then(|expected| check(entry_idx, response, expected))
        {
            tally.mismatches.push(problem);
        }
        if traced {
            let log = &mut tally.spans;
            let first = log.spans.len();
            let id = log.record("request", None, request_id, timed.start, timed.end);
            if let (Some(parent), Some(trace)) = (log.spans.last().cloned(), &response.trace) {
                log.attach_trace(&parent, trace, ctx.workers);
            }
            let residual = spans::self_times(&log.spans[first..])
                .get(&id)
                .copied()
                .unwrap_or(0);
            tally.layers.absorb(entry.kind, response, residual);
        }
    }
    tally.samples.push(sample);
}

/// Applies one maintenance batch and records it.
fn send_update(
    deployment: &mut Deployment,
    tally: &mut Tally,
    batch: &Batch,
    round: usize,
    traced: bool,
    request_id: u64,
) {
    let timed = deployment.apply(batch.0, &batch.1);
    if traced {
        tally
            .spans
            .record("center.apply", None, request_id, timed.start, timed.end);
    }
    let (latency_ms, stats) = match &timed.result {
        Ok(outcome) => (
            Some((timed.end - timed.start).as_secs_f64() * 1e3),
            outcome.stats,
        ),
        Err(_) => (None, MaintenanceStats::default()),
    };
    tally.updates.push(UpdateSample {
        round,
        latency_ms,
        traced,
        stats,
    });
}

/// Request ids: reads count up from 1, maintenance-probe batches from here.
const UPDATE_IDS: u64 = 1 << 32;

/// The measured window.  The second half is traced when `trace` is set, so
/// one run yields both the untraced and the traced request latency.
pub struct Window {
    pub tally: Tally,
    pub elapsed: Duration,
    pub in_flight_peak: f64,
}

/// Runs the window: open- or closed-loop reads for `window`.
pub fn run_window(
    ctx: &Ctx,
    spec: &Spec,
    seed: u64,
    window: Duration,
    trace: bool,
    epoch: Instant,
) -> Window {
    let traced_from = if trace { window / 2 } else { window * 2 };
    let schedule = match spec.load {
        Load::Open { rate, .. } => open_schedule(rate, window, ctx.corpus.len(), seed),
        Load::Closed { .. } => Vec::new(),
    };
    let cursor = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let peak = Mutex::new(0.0f64);
    let start = Instant::now();
    let mut tally = Tally::new(epoch, 0);
    std::thread::scope(|scope| {
        let sampler = (trace && ctx.deployment.pool_metrics().is_some()).then(|| {
            scope.spawn(|| {
                let mut max = 0.0f64;
                while !done.load(Ordering::Relaxed) {
                    if let Some(m) = ctx.deployment.pool_metrics() {
                        max = max.max(m.in_flight.get());
                    }
                    std::thread::sleep(Duration::from_micros(500));
                }
                *peak.lock().expect("peak lock") = max;
            })
        });
        let clients: Vec<_> = match spec.load {
            Load::Open { threads, .. } => (0..threads)
                .map(|lane| {
                    let (schedule, cursor) = (&schedule, &cursor);
                    scope.spawn(move || {
                        let mut tally = Tally::new(epoch, 1 + lane as u64);
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(arrival) = schedule.get(i) else {
                                break;
                            };
                            let (due, free) = (start + arrival.at, Instant::now());
                            if let Some(wait) = due.checked_duration_since(free) {
                                std::thread::sleep(wait);
                            }
                            send(
                                ctx,
                                &mut tally,
                                arrival.entry,
                                (due, free),
                                start,
                                arrival.at >= traced_from,
                                1 + i as u64,
                            );
                        }
                        tally
                    })
                })
                .collect(),
            Load::Closed { .. } => {
                // Whole passes over the corpus, so every request is sent
                // equally often and the per-kind medians sit at fixed ranks.
                let mut i = 0usize;
                while !i.is_multiple_of(ctx.corpus.len()) || start.elapsed() < window {
                    let traced = start.elapsed() >= traced_from;
                    let due = Instant::now();
                    send(
                        ctx,
                        &mut tally,
                        i % ctx.corpus.len(),
                        (due, due),
                        start,
                        traced,
                        1 + i as u64,
                    );
                    i += 1;
                }
                Vec::new()
            }
        };
        for client in clients {
            tally.merge(client.join().expect("client thread panicked"));
        }
        done.store(true, Ordering::Relaxed);
        if let Some(sampler) = sampler {
            sampler.join().expect("sampler thread panicked");
        }
    });
    let elapsed = tally
        .last_end
        .map_or(start.elapsed(), |end| end.saturating_duration_since(start));
    let in_flight_peak = *peak.lock().expect("peak lock");
    Window {
        tally,
        elapsed,
        in_flight_peak,
    }
}

/// Longest pause between two maintenance-probe batches.
const PROBE_MAX_PAUSE: Duration = Duration::from_millis(30);

/// Sends every round of `plan` in turn: the maintenance probe that follows
/// the read window, with no reads beside it.  Each batch waits a seeded
/// pause of up to [`PROBE_MAX_PAUSE`] first.  On the fleet, back-to-back
/// sends would fall into step with the servers' periodic accept loop and
/// measure its phase.  In process, back-to-back rounds finish within a
/// second, and the host's speed changes by a fifth from one second to the
/// next; the pauses spread the probe over about ten seconds.
pub fn run_probe(
    deployment: &mut Deployment,
    plan: &UpdatePlan,
    seed: u64,
    trace: bool,
    tally: &mut Tally,
) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5052_4F42);
    let mut id = UPDATE_IDS;
    for (round, batches) in plan.rounds.iter().enumerate() {
        for batch in batches {
            std::thread::sleep(PROBE_MAX_PAUSE.mul_f64(rng.random::<f64>()));
            send_update(deployment, tally, batch, round, trace, id);
            id += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_change_times_but_not_sizes_or_kind_shares() {
        let window = Duration::from_secs(25);
        let a = open_schedule(50.0, window, 192, 1);
        let b = open_schedule(50.0, window, 192, 2);
        // 1250 wanted, rounded up to seven passes over the corpus.
        assert_eq!(a.len(), 7 * 192);
        assert_eq!(a.len(), b.len());
        assert_ne!(a, b);
        let counts = |s: &[Arrival]| {
            let mut by_entry = vec![0usize; 192];
            for arrival in s {
                by_entry[arrival.entry] += 1;
            }
            by_entry
        };
        assert_eq!(counts(&a), vec![7; 192]);
        assert_eq!(counts(&a), counts(&b));
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(a.iter().all(|x| x.at < window));
        assert_eq!(a, open_schedule(50.0, window, 192, 1));
    }

    #[test]
    fn rounds_sum_their_batches_and_a_failure_drops_the_round() {
        let batch = |round, latency_ms| UpdateSample {
            round,
            latency_ms,
            traced: false,
            stats: MaintenanceStats::default(),
        };
        let updates = [
            batch(0, Some(1.0)),
            batch(0, Some(2.5)),
            batch(1, Some(4.0)),
            batch(1, None),
            batch(2, Some(0.5)),
        ];
        assert_eq!(round_latencies(&updates), vec![3.5, 0.5]);
    }

    #[test]
    fn corpus_interleaves_kinds_over_query_groups() {
        let queries: Vec<SpatialDataset> = (0..64)
            .map(|i| SpatialDataset::new(i, vec![spatial::Point::new(f64::from(i), 0.0)]))
            .collect();
        let single = corpus(&queries, 1);
        assert_eq!(single.len(), 192);
        assert_eq!(single[4].kind, 1);
        assert_eq!(single[4].queries[0].id, 1);
        let batched = corpus(&queries, 16);
        assert_eq!(batched.len(), 12);
        assert!(batched.iter().all(|e| e.queries.len() == 16));
        assert!(batched[3].traced.wants_trace() && !batched[3].plain.wants_trace());
    }
}
