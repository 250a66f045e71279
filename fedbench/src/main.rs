//! `fedbench` — the federation benchmark.
//!
//! Drives the federation from outside the program, through its public API
//! and the real `source-server` binary, on one of two workloads
//! (`interactive`, `analytic`; see `workload.rs` and the README).
//! Checks every answer it can, measures for `--seconds`, and prints every
//! metric by name, unit and sample count; the last stdout line is one JSON
//! object.  `--trace 0` prints the end-to-end metrics, `--trace 1` the
//! per-layer ones.  Exits non-zero on a wrong answer or an invalid run.
//!
//! ```text
//! fedbench --workload interactive --seed 1 --seconds 25 --trace 0 \
//!     --server-bin <target>/release/source-server --out fedbench/out
//! ```

mod deploy;
mod fleet;
mod maint;
mod parity;
mod replay;
mod spans;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use bench::ExperimentEnv;
use dits::MaintenanceStats;
use multisource::{
    CommStats, FrameworkConfig, MultiSourceFramework, SearchResponse, SearchResults,
};
use spatial::SpatialDataset;

use deploy::{Deployment, SetupTimes};
use parity::Parity;
use stats::{percentile_of, ratio, supports_percentile, Outcome};
use workload::{Ctx, Entry, Expected, Spec, Tally, KINDS, QUERIES};

/// Rounds of the maintenance probe that follows the read window (each one
/// batch per source).  100 would leave the ten samples beyond p90 that the
/// tail needs; 120 leave 12.
const PROBE_ROUNDS: usize = 120;
/// Queries of the post-maintenance parity probe.
const PARITY_QUERIES: usize = 8;

const USAGE: &str = "usage: fedbench --workload interactive|analytic --seed N \
--seconds S --trace 0|1 --server-bin PATH --out DIR [--data-seed N]";

struct Opts {
    spec: Spec,
    seed: u64,
    data_seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut data_seed = 7;
    let mut seconds = None;
    let mut trace = None;
    let mut server_bin = None;
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(number(&value)?),
            "--data-seed" => data_seed = number(&value)?,
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| format!("--seconds: {value:?} is not positive"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: {other:?} is not 0 or 1")),
                })
            }
            "--server-bin" => server_bin = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    let missing = |what: &str| format!("{what} is required\n{USAGE}");
    let name = workload.ok_or_else(|| missing("--workload"))?;
    Ok(Opts {
        spec: workload::spec(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        data_seed,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        server_bin: server_bin.ok_or_else(|| missing("--server-bin"))?,
        out: out.ok_or_else(|| missing("--out"))?,
    })
}

/// One printed metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        samples,
    }
}

/// What a run concluded.
struct Report {
    metrics: Vec<Metric>,
    attempted: usize,
    failed: usize,
    mismatches: Vec<String>,
    invalid: Vec<String>,
    ties: Vec<String>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The latencies (ms) of completed samples.
fn latencies<'a>(samples: impl Iterator<Item = &'a workload::Sample>) -> Vec<f64> {
    samples.filter_map(|s| s.latency_ms).collect()
}

/// Everything the run needs besides the deployment: data, corpus, plan.
struct Inputs {
    env: ExperimentEnv,
    queries: Vec<SpatialDataset>,
    corpus: Vec<Entry>,
    plan: maint::UpdatePlan,
}

fn inputs(spec: &Spec, seed: u64, data_seed: u64) -> Inputs {
    let env = ExperimentEnv::new(spec.divisor, data_seed);
    let queries = env.query_datasets(QUERIES);
    let corpus = workload::corpus(&queries, spec.batch());
    let plan = maint::plan_updates(&env.source_data, PROBE_ROUNDS, seed);
    Inputs {
        env,
        queries,
        corpus,
        plan,
    }
}

/// Runs every corpus entry once (the warm-up pass).
fn pass(deployment: &Deployment, corpus: &[Entry]) -> Vec<Result<SearchResponse, String>> {
    corpus
        .iter()
        .map(|e| {
            deployment
                .search(&e.plain)
                .result
                .map_err(|err| err.to_string())
        })
        .collect()
}

fn expected_of(responses: &[Result<SearchResponse, String>]) -> Result<Vec<Expected>, String> {
    responses
        .iter()
        .enumerate()
        .map(|(i, r)| match r {
            Ok(r) => Ok((r.results.clone(), r.comm)),
            Err(e) => Err(format!("corpus entry {i} failed: {e}")),
        })
        .collect()
}

/// The kept deployment, every set-up's timings and the last warm-up pass.
type SetUp = (
    Deployment,
    Vec<SetupTimes>,
    Vec<Result<SearchResponse, String>>,
);

/// Sets up `spec.setups` times (each launch after the previous deployment
/// is shut down), keeping the last deployment and its warm-up answers.
fn set_up(opts: &Opts, inputs: &Inputs, log: &mut spans::SpanLog) -> Result<SetUp, String> {
    let data_files = if opts.spec.fleet {
        let dir = opts.out.join(format!("data-{}", std::process::id()));
        fleet::write_data_files(&dir, &inputs.env.source_data)
            .map_err(|e| format!("write data files: {e}"))?
    } else {
        Vec::new()
    };
    let mut current: Option<Deployment> = None;
    let mut times = Vec::new();
    let mut warm = Vec::new();
    for round in 0..opts.spec.setups {
        if let Some(previous) = current.take() {
            previous.shutdown();
        }
        let launched = Instant::now();
        let (deployment, mut t) = if opts.spec.fleet {
            Deployment::start_fleet(&opts.server_bin, &data_files)?
        } else {
            Deployment::start_in_process(&inputs.env.source_data)
        };
        let warm_start = Instant::now();
        warm = pass(&deployment, &inputs.corpus);
        t.warmup = warm_start.elapsed();
        let id = (1 << 48) + round as u64;
        let root = log.record("setup", None, id, launched, Instant::now());
        let mid = launched + t.source_start;
        log.record("setup.source_start", Some(root), id, launched, mid);
        log.record("setup.bootstrap", Some(root), id, mid, mid + t.bootstrap);
        log.record("setup.warmup", Some(root), id, warm_start, Instant::now());
        times.push(t);
        current = Some(deployment);
    }
    if let Some(dir) = data_files.first().and_then(|f| f.parent()) {
        let _ = std::fs::remove_dir_all(dir);
    }
    let deployment = current.ok_or("no set-up ran")?;
    Ok((deployment, times, warm))
}

/// Query `i` of a batch answer, as the answer to a batch of one.
fn nth(results: &SearchResults, i: usize) -> Option<SearchResults> {
    Some(match results {
        SearchResults::Overlap(v) => SearchResults::Overlap(vec![v.get(i)?.clone()]),
        SearchResults::Coverage(v) => SearchResults::Coverage(vec![v.get(i)?.clone()]),
        SearchResults::Knn(v) => SearchResults::Knn(vec![v.get(i)?.clone()]),
    })
}

/// The analytic gate: every batch of the corpus must equal its queries sent
/// one at a time, answers and summed CommStats alike.
fn batch_gate(deployment: &Deployment, corpus: &[Entry], warm: &[Expected]) -> Vec<String> {
    let mut problems = Vec::new();
    for (b, (entry, (batched, batched_comm))) in corpus.iter().zip(warm).enumerate() {
        let kind = KINDS[entry.kind];
        let mut comm = CommStats::new();
        let mut all_same = true;
        for (i, q) in entry.queries.iter().enumerate() {
            let single = workload::request(entry.kind, vec![q.clone()]);
            let problem = match deployment.search(&single).result {
                Ok(r) if Some(&r.results) == nth(batched, i).as_ref() => {
                    comm.merge(&r.comm);
                    continue;
                }
                Ok(_) => format!("batch {b} ({kind}) query {i} differs when sent alone"),
                Err(e) => format!("batch {b} ({kind}) query {i} sent alone failed: {e}"),
            };
            problems.push(problem);
            all_same = false;
        }
        if all_same && comm != *batched_comm {
            problems.push(format!(
                "batch {b} ({kind}) CommStats {batched_comm:?} != sum of singles {comm:?}"
            ));
        }
    }
    problems
}

/// After maintenance: probe queries on the mutated deployment must answer
/// like a framework rebuilt from the benchmark's own record.  Returns the
/// wrong answers and, separately, the answers that differ only in tie order
/// (see `parity.rs`).
fn parity_after_updates(
    deployment: &Deployment,
    plan: &maint::UpdatePlan,
    queries: &[SpatialDataset],
) -> (Vec<String>, Vec<String>) {
    let mut record = plan.record.clone();
    for (_, datasets) in &mut record {
        datasets.sort_by_key(|d| d.id);
    }
    let rebuilt = MultiSourceFramework::build(&record, FrameworkConfig::default());
    let mut probes: Vec<SpatialDataset> = queries.iter().take(PARITY_QUERIES).cloned().collect();
    // The most recently inserted dataset of each source, too.
    probes.extend(plan.record.iter().filter_map(|(_, d)| d.last().cloned()));
    let (mut wrong, mut ties) = (Vec::new(), Vec::new());
    for (kind, name) in KINDS.iter().enumerate() {
        for (i, q) in probes.iter().enumerate() {
            let request = workload::request(kind, vec![q.clone()]);
            let what = format!("after updates, {name} probe {i}");
            match (deployment.search(&request).result, rebuilt.search(&request)) {
                (Ok(got), Ok(want)) => match parity::compare_response(
                    (&got.results, &got.comm),
                    (&want.results, &want.comm),
                ) {
                    Parity::Same => {}
                    Parity::TieOrder => ties.push(format!(
                        "{what}: tied datasets fill the last places differently"
                    )),
                    Parity::Differs => wrong.push(format!(
                        "{what}: answers or CommStats differ from the rebuilt framework \
                         ({:?} vs {:?})",
                        got.comm, want.comm
                    )),
                },
                (got, want) => wrong.push(format!(
                    "{what}: deployment {:?} vs rebuilt {:?}",
                    got.err(),
                    want.err()
                )),
            }
        }
    }
    (wrong, ties)
}

fn run(opts: &Opts) -> Result<Report, String> {
    let spec = &opts.spec;
    let window = Duration::from_secs_f64(opts.seconds);
    std::fs::create_dir_all(&opts.out).map_err(|e| format!("create {:?}: {e}", opts.out))?;
    let epoch = Instant::now();
    let mut log = spans::SpanLog::new(epoch, 1 << 20);
    let inputs = inputs(spec, opts.seed, opts.data_seed);
    let initial_datasets = inputs.env.dataset_count();
    eprintln!(
        "fedbench: {} seed={} data-seed={}: {} datasets, {} queries, {} corpus requests, {} update batches",
        spec.name,
        opts.seed,
        opts.data_seed,
        initial_datasets,
        inputs.queries.len(),
        inputs.corpus.len(),
        inputs.plan.rounds.iter().map(Vec::len).sum::<usize>()
    );

    let mut mismatches = Vec::new();
    let mut invalid = Vec::new();

    // The fleet's answers must match the in-process framework on the same
    // data; this copy also feeds the kernel replays.
    let reference =
        MultiSourceFramework::build(&inputs.env.source_data, FrameworkConfig::default());
    let reference_answers: Option<Vec<Expected>> = if spec.fleet {
        Some(expected_of(
            &inputs
                .corpus
                .iter()
                .map(|e| reference.search(&e.plain).map_err(|err| err.to_string()))
                .collect::<Vec<_>>(),
        )?)
    } else {
        None
    };

    let (mut deployment, setups, warm) = set_up(opts, &inputs, &mut log)?;
    let warm = expected_of(&warm)?;
    let expected: Vec<Expected> = match reference_answers {
        Some(reference_answers) => {
            for (i, (got, want)) in warm.iter().zip(&reference_answers).enumerate() {
                if got != want {
                    mismatches.push(format!(
                        "corpus entry {i}: fleet answer or CommStats differs from in-process"
                    ));
                }
            }
            reference_answers
        }
        None => {
            mismatches.extend(batch_gate(&deployment, &inputs.corpus, &warm));
            warm
        }
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let registered = deployment.global().source_count();

    // The measured window; every answer is checked against `expected`.
    let ctx = Ctx {
        deployment: &deployment,
        corpus: &inputs.corpus,
        expected: &expected,
        workers,
    };
    let steal_before = fleet::cpu_steal_ticks();
    let measured = workload::run_window(&ctx, spec, opts.seed, window, opts.trace, epoch);
    let steal_ratio = match (steal_before, fleet::cpu_steal_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) => {
            ratio(s1.saturating_sub(s0) as f64, t1.saturating_sub(t0) as f64)
        }
        _ => 0.0,
    };
    let mut tally = measured.tally;
    let mut probe = Tally::new(epoch, 200);
    workload::run_probe(
        &mut deployment,
        &inputs.plan,
        opts.seed,
        opts.trace,
        &mut probe,
    );
    tally.merge(probe);
    mismatches.append(&mut tally.mismatches);
    // Nothing is meant to fail on a healthy deployment: a failed read or
    // maintenance batch makes the run invalid, however rare.
    if tally.failed() > 0 {
        invalid.push(format!(
            "{} of {} requests failed ({} of them maintenance batches)",
            tally.failed(),
            tally.attempted(),
            tally
                .updates
                .iter()
                .filter(|u| u.latency_ms.is_none())
                .count()
        ));
    }
    let rss_mib = deployment.peak_rss_mib();

    // Post-maintenance checks.
    match deployment.dataset_count() {
        Ok(n) if n == initial_datasets => {}
        Ok(n) => invalid.push(format!(
            "dataset count drifted from {initial_datasets} to {n}"
        )),
        Err(e) => invalid.push(format!("dataset count poll failed: {e}")),
    }
    let mut maintenance = MaintenanceStats::default();
    for u in &tally.updates {
        maintenance.merge(&u.stats);
    }
    if maintenance.rejected > 0 {
        invalid.push(format!(
            "{} update operations were rejected",
            maintenance.rejected
        ));
    }
    let (wrong, ties) = parity_after_updates(&deployment, &inputs.plan, &inputs.queries);
    mismatches.extend(wrong);

    // Validity of the generator and of the tail figures.
    let lags: Vec<f64> = tally.samples.iter().map(|s| s.lag_ms).collect();
    let lag_p99 = percentile_of(&lags, 99.0);
    if lag_p99 > workload::LAG_LIMIT_MS {
        invalid.push(format!(
            "generator fell behind: send lag p99 {lag_p99:.3} ms > {} ms",
            workload::LAG_LIMIT_MS
        ));
    }
    if matches!(spec.load, workload::Load::Open { .. }) {
        let points: Vec<(f64, f64)> = tally.samples.iter().map(|s| (s.at_ms, s.wait_ms)).collect();
        if stats::backlog_growing(&points, ms(window)) {
            invalid.push("open-loop backlog still growing at the end of the run".into());
        }
    }
    let rounds = workload::round_latencies(&tally.updates).len();
    if !supports_percentile(rounds, 90.0) {
        invalid.push(format!(
            "{rounds} maintenance rounds leave fewer than {} beyond p90",
            stats::MIN_SAMPLES_BEYOND
        ));
    }

    let metrics = if opts.trace {
        let datasets: Vec<SpatialDataset> = inputs
            .env
            .source_data
            .iter()
            .flat_map(|(_, d)| d.iter().cloned())
            .collect();
        let replays = replay::run(
            &mut log,
            1 << 50,
            &deployment.global(),
            reference.sources(),
            &inputs.queries,
            &datasets,
        );
        per_layer(
            &tally,
            &setups,
            &replays,
            &deployment,
            registered,
            &Gauges {
                in_flight_peak: measured.in_flight_peak,
                lag_p99,
                steal_ratio,
            },
        )
    } else {
        end_to_end(
            spec,
            &tally,
            measured.elapsed,
            &setups,
            rss_mib,
            &mut invalid,
        )
    };
    deployment.shutdown();

    if opts.trace {
        log.merge(std::mem::replace(
            &mut tally.spans,
            spans::SpanLog::new(epoch, 1 << 21),
        ));
        let path = opts
            .out
            .join(format!("spans-{}-seed{}.tsv", spec.name, opts.seed));
        spans::write_tsv(&path, &log.spans).map_err(|e| format!("write {path:?}: {e}"))?;
        eprintln!(
            "fedbench: wrote {} spans to {}",
            log.spans.len(),
            path.display()
        );
    }

    Ok(Report {
        metrics,
        attempted: tally.attempted(),
        failed: tally.failed(),
        mismatches,
        invalid,
        ties,
    })
}

fn end_to_end(
    spec: &Spec,
    tally: &Tally,
    elapsed: Duration,
    setups: &[SetupTimes],
    rss_mib: f64,
    invalid: &mut Vec<String>,
) -> Vec<Metric> {
    let samples = &tally.samples;
    let all = latencies(samples.iter());
    let kind = |k: usize| latencies(samples.iter().filter(|s| s.kind == k));
    let done: Vec<_> = samples.iter().filter(|s| s.latency_ms.is_some()).collect();
    let queries: usize = done.iter().map(|s| s.queries).sum();
    let mut comm = CommStats::new();
    for s in &done {
        comm.merge(&s.comm);
    }
    let outcomes: Vec<Outcome> = samples
        .iter()
        .map(|s| s.latency_ms.map_or(Outcome::Failed, Outcome::Done))
        .collect();
    let (attempted, failed) = (tally.attempted(), tally.failed());
    let setup: Vec<f64> = setups.iter().map(|t| t.total().as_secs_f64()).collect();

    if matches!(spec.load, workload::Load::Open { .. }) && !supports_percentile(all.len(), 99.0) {
        invalid.push(format!(
            "{} latency samples leave fewer than {} beyond p99",
            all.len(),
            stats::MIN_SAMPLES_BEYOND
        ));
    }

    let per_query = |total: usize| ratio(total as f64, queries as f64);
    vec![
        metric("setup_s", percentile_of(&setup, 50.0), "s", setup.len()),
        metric("rss_mb", rss_mib, "MiB", 1),
        metric(
            "throughput_qps",
            ratio(queries as f64, elapsed.as_secs_f64()),
            "1/s",
            queries,
        ),
        metric("latency_p50_ms", percentile_of(&all, 50.0), "ms", all.len()),
        metric("latency_p99_ms", percentile_of(&all, 99.0), "ms", all.len()),
        metric(
            "ojsp_p50_ms",
            percentile_of(&kind(0), 50.0),
            "ms",
            kind(0).len(),
        ),
        metric(
            "cjsp_p50_ms",
            percentile_of(&kind(1), 50.0),
            "ms",
            kind(1).len(),
        ),
        metric(
            "knn_p50_ms",
            percentile_of(&kind(2), 50.0),
            "ms",
            kind(2).len(),
        ),
        metric(
            "within_limit_ratio",
            stats::within_limit_ratio(&outcomes, spec.limit_ms),
            "ratio",
            outcomes.len(),
        ),
        metric(
            "success_ratio",
            ratio((attempted - failed) as f64, attempted as f64),
            "ratio",
            attempted,
        ),
        metric(
            "bytes_per_query",
            per_query(comm.total_bytes()),
            "B",
            queries,
        ),
        metric(
            "messages_per_query",
            per_query(comm.total_messages()),
            "count",
            queries,
        ),
        metric(
            "sources_per_query",
            per_query(comm.sources_contacted),
            "count",
            queries,
        ),
    ]
}

/// Single figures of the window that no span or counter carries.
struct Gauges {
    /// Pool requests in flight at once, sampled every 0.5 ms.
    in_flight_peak: f64,
    /// The generator's send lag p99, in milliseconds.
    lag_p99: f64,
    /// Share of CPU time stolen by the host during the window.
    steal_ratio: f64,
}

fn per_layer(
    tally: &Tally,
    setups: &[SetupTimes],
    replays: &replay::Replays,
    deployment: &Deployment,
    registered: usize,
    gauges: &Gauges,
) -> Vec<Metric> {
    let layers = &tally.layers;
    let traced_requests: usize = layers.kinds.iter().map(|k| k.requests).sum();
    let traced_queries: usize = layers.kinds.iter().map(|k| k.queries).sum();
    let median_setup = |f: fn(&SetupTimes) -> Duration| {
        let v: Vec<f64> = setups.iter().map(|t| f(t).as_secs_f64()).collect();
        percentile_of(&v, 50.0)
    };
    let p50_untraced = percentile_of(&latencies(tally.samples.iter().filter(|s| !s.traced)), 50.0);
    let p50_traced = percentile_of(&latencies(tally.samples.iter().filter(|s| s.traced)), 50.0);
    let plan_ns: f64 = layers.kinds.iter().map(|k| k.plan_ns).sum();

    let mut m = vec![
        metric(
            "setup.source_start_s",
            median_setup(|t| t.source_start),
            "s",
            setups.len(),
        ),
        metric(
            "setup.bootstrap_s",
            median_setup(|t| t.bootstrap),
            "s",
            setups.len(),
        ),
        metric(
            "setup.warmup_s",
            median_setup(|t| t.warmup),
            "s",
            setups.len(),
        ),
        metric(
            "engine.plan_us",
            ratio(plan_ns, traced_requests as f64) / 1e3,
            "us",
            traced_requests,
        ),
        metric("dits.route_us", replays.route_us, "us", 1),
    ];
    for (k, name) in KINDS.iter().enumerate() {
        let kl = &layers.kinds[k];
        m.push(metric(
            format!("engine.aggregate_us.{name}"),
            ratio(kl.aggregate_ns, kl.requests as f64) / 1e3,
            "us",
            kl.requests,
        ));
    }
    m.push(metric(
        "engine.residual_us",
        percentile_of(&layers.residual_us, 50.0),
        "us",
        layers.residual_us.len(),
    ));
    m.push(metric(
        "engine.shards_per_request",
        ratio(layers.shards as f64, traced_requests as f64),
        "count",
        traced_requests,
    ));
    m.push(metric(
        "dits.sources_pruned_ratio",
        1.0 - ratio(
            layers.contacted as f64,
            (traced_queries * registered) as f64,
        ),
        "ratio",
        traced_queries,
    ));
    for (k, name) in KINDS.iter().enumerate() {
        let kl = &layers.kinds[k];
        let q = kl.queries as f64;
        let s = &kl.search;
        let per_q = |v: f64| ratio(v, q);
        m.push(metric(
            format!("dits.traversal_us.{name}"),
            per_q(kl.traversal_ns) / 1e3,
            "us",
            kl.queries,
        ));
        m.push(metric(
            format!("dits.verify_us.{name}"),
            per_q(kl.verify_ns) / 1e3,
            "us",
            kl.queries,
        ));
        m.push(metric(
            format!("dits.nodes_visited.{name}"),
            per_q(s.nodes_visited as f64),
            "count",
            kl.queries,
        ));
        m.push(metric(
            format!("dits.nodes_pruned.{name}"),
            per_q(s.nodes_pruned as f64),
            "count",
            kl.queries,
        ));
        m.push(metric(
            format!("dits.leaves_pruned_by_bounds.{name}"),
            per_q(s.leaves_pruned_by_bounds as f64),
            "count",
            kl.queries,
        ));
        m.push(metric(
            format!("dits.exact_computations.{name}"),
            per_q(s.exact_computations as f64),
            "count",
            kl.queries,
        ));
        m.push(metric(
            format!("dits.candidates.{name}"),
            per_q(s.candidates as f64),
            "count",
            kl.queries,
        ));
        m.push(metric(
            format!("dits.verify_yield.{name}"),
            ratio(kl.answers as f64, s.exact_computations as f64),
            "ratio",
            kl.queries,
        ));
        m.push(metric(
            format!("message.reply_bytes.{name}"),
            per_q(kl.reply_bytes as f64),
            "B",
            kl.queries,
        ));
        m.push(metric(
            format!("source.service_us.{name}"),
            percentile_of(&kl.service_us, 50.0),
            "us",
            kl.service_us.len(),
        ));
    }
    m.extend([
        metric("spatial.intersection_ns", replays.intersection_ns, "ns", 1),
        metric("spatial.distance_ns", replays.distance_ns, "ns", 1),
        metric("spatial.grid_us", replays.grid_us, "us", 1),
        metric(
            "message.encode_ns_per_kb",
            replays.encode_ns_per_kib,
            "ns/KiB",
            1,
        ),
        metric(
            "message.decode_ns_per_kb",
            replays.decode_ns_per_kib,
            "ns/KiB",
            1,
        ),
        metric(
            "transport.call_us_p50",
            percentile_of(&layers.call_us, 50.0),
            "us",
            layers.call_us.len(),
        ),
        metric(
            "transport.overhead_us_p50",
            percentile_of(&layers.overhead_us, 50.0),
            "us",
            layers.overhead_us.len(),
        ),
    ]);
    let pool = deployment.pool_metrics();
    let counter = |f: fn(&net::PoolMetrics) -> u64| pool.map_or(0.0, |p| f(p) as f64);
    m.extend([
        metric("net.retries", counter(|p| p.retries.get()), "count", 1),
        metric("net.timeouts", counter(|p| p.timeouts.get()), "count", 1),
        metric(
            "net.backpressure",
            counter(|p| p.backpressure.get()),
            "count",
            1,
        ),
        metric("net.in_flight_peak", gauges.in_flight_peak, "count", 1),
    ]);
    let traced_updates: Vec<_> = tally.updates.iter().filter(|u| u.traced).collect();
    let applies: Vec<f64> = traced_updates.iter().filter_map(|u| u.latency_ms).collect();
    m.push(metric(
        "center.apply_ms",
        percentile_of(&applies, 50.0),
        "ms",
        applies.len(),
    ));
    let rounds = workload::round_latencies(&tally.updates);
    for p in [50.0, 90.0] {
        m.push(metric(
            format!("center.update_round_p{p}_ms"),
            percentile_of(&rounds, p),
            "ms",
            rounds.len(),
        ));
    }
    let n = traced_updates.len() as f64;
    let per_batch = |f: fn(&MaintenanceStats) -> usize| {
        ratio(traced_updates.iter().map(|u| f(&u.stats) as f64).sum(), n)
    };
    type Count = fn(&MaintenanceStats) -> usize;
    let counts: [(&str, Count); 9] = [
        ("inserts", |s| s.inserts),
        ("updates", |s| s.updates),
        ("deletes", |s| s.deletes),
        ("rejected", |s| s.rejected),
        ("reinserts", |s| s.reinserts),
        ("leaf_splits", |s| s.leaf_splits),
        ("leaf_collapses", |s| s.leaf_collapses),
        ("summary_refreshes", |s| s.summary_refreshes),
        ("global_rebuilds", |s| s.global_rebuilds),
    ];
    for (name, f) in counts {
        m.push(metric(
            format!("dits.update.{name}"),
            per_batch(f),
            "count",
            traced_updates.len(),
        ));
    }
    m.push(metric(
        "loadgen.send_lag_p99_ms",
        gauges.lag_p99,
        "ms",
        tally.samples.len(),
    ));
    m.push(metric(
        "trace.overhead_ms",
        p50_traced - p50_untraced,
        "ms",
        tally.samples.len(),
    ));
    m.push(metric(
        "env.cpu_steal_ratio",
        gauges.steal_ratio,
        "ratio",
        1,
    ));
    m
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Prints the first few findings of one kind and how many more there were.
fn print_findings(tag: &str, findings: &[String]) {
    const SHOWN: usize = 10;
    for finding in findings.iter().take(SHOWN) {
        println!("# {tag} {finding}");
    }
    if findings.len() > SHOWN {
        println!("# {tag} ... and {} more", findings.len() - SHOWN);
    }
}

fn print_report(report: &Report) {
    print_findings("MISMATCH", &report.mismatches);
    print_findings("INVALID", &report.invalid);
    print_findings("TIE-ORDER", &report.ties);
    println!("# {:<36} {:>16} {:<7} samples", "metric", "value", "unit");
    for m in &report.metrics {
        println!(
            "# {:<36} {:>16.6} {:<7} {}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_escape(&m.name),
                m.value,
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.mismatches.is_empty(),
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("fedbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(report) => {
            print_report(&report);
            if report.mismatches.is_empty() && report.invalid.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("fedbench: {e}");
            ExitCode::FAILURE
        }
    }
}
