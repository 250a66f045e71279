//! Layer kernels replayed on the workload's own inputs: DITS-G routing,
//! the `CellSet` kernels, source-side gridding and the wire codec.

use std::hint::black_box;
use std::time::{Duration, Instant};

use dits::DitsGlobal;
use multisource::{DataSource, FrameworkConfig, Message};
use spatial::{dataset_distance, CellSet, Grid, SpatialDataset};

use crate::spans::SpanLog;

/// Each replay repeats its pass until this much time has been measured.
const MIN_REPLAY: Duration = Duration::from_millis(100);
/// Queries whose request and reply messages form the codec corpus.
const CODEC_QUERIES: usize = 8;
/// Datasets per query in the distance replay (a stride over all of them).
const DISTANCE_PAIRS_PER_QUERY: usize = 16;

/// Mean cost of one call per replayed layer.
pub struct Replays {
    pub route_us: f64,
    pub intersection_ns: f64,
    pub distance_ns: f64,
    pub grid_us: f64,
    pub encode_ns_per_kib: f64,
    pub decode_ns_per_kib: f64,
}

/// Runs `pass` (which reports how many items it processed) once untimed to
/// fill caches, then repeatedly until [`MIN_REPLAY`] has elapsed; returns
/// nanoseconds per item.
fn time_per_item(
    log: &mut SpanLog,
    name: &str,
    request: u64,
    mut pass: impl FnMut() -> usize,
) -> f64 {
    pass();
    let start = Instant::now();
    let mut items = 0usize;
    while start.elapsed() < MIN_REPLAY || items == 0 {
        let n = pass();
        if n == 0 {
            break;
        }
        items += n;
    }
    let end = Instant::now();
    log.record(name, None, request, start, end);
    (end - start).as_nanos() as f64 / items.max(1) as f64
}

/// Replays every kernel; `datasets` are the federation's datasets and
/// `sources` an in-process copy of its sources.
pub fn run(
    log: &mut SpanLog,
    request: u64,
    global: &DitsGlobal,
    sources: &[DataSource],
    queries: &[SpatialDataset],
    datasets: &[SpatialDataset],
) -> Replays {
    let config = FrameworkConfig::default();
    let grid = Grid::global(config.resolution).expect("the default resolution is valid");
    let cjsp_slack = config.delta_cells * grid.cell_width().max(grid.cell_height());
    let rects: Vec<_> = queries.iter().filter_map(SpatialDataset::mbr).collect();
    let route_ns = time_per_item(log, "replay.route", request, || {
        for rect in &rects {
            black_box(global.candidate_sources(rect, 0.0));
            black_box(global.candidate_sources(rect, cjsp_slack));
        }
        rects.len() * 2
    });

    let query_cells: Vec<CellSet> = queries
        .iter()
        .map(|q| CellSet::from_points(&grid, &q.points))
        .collect();
    let dataset_cells: Vec<CellSet> = datasets
        .iter()
        .map(|d| CellSet::from_points(&grid, &d.points))
        .collect();
    let intersection_ns = time_per_item(log, "replay.intersection", request, || {
        for q in &query_cells {
            for d in &dataset_cells {
                black_box(q.intersection_size(d));
            }
        }
        query_cells.len() * dataset_cells.len()
    });

    let stride = (dataset_cells.len() / DISTANCE_PAIRS_PER_QUERY).max(1);
    let distance_ns = time_per_item(log, "replay.distance", request, || {
        let mut n = 0;
        for q in &query_cells {
            for d in dataset_cells.iter().step_by(stride) {
                black_box(dataset_distance(q, d));
                n += 1;
            }
        }
        n
    });

    let grid_ns = match sources.first() {
        Some(source) => time_per_item(log, "replay.grid", request, || {
            for q in queries {
                black_box(source.grid_query(q));
            }
            queries.len()
        }),
        None => 0.0,
    };

    let messages = codec_corpus(sources, &query_cells);
    let encoded: Vec<_> = messages.iter().map(Message::encode).collect();
    let kib = encoded.iter().map(|b| b.len()).sum::<usize>() as f64 / 1024.0;
    let encode_ns = time_per_item(log, "replay.encode", request, || {
        for m in &messages {
            black_box(m.encode());
        }
        1
    });
    let mut decode_ns_total = 0.0;
    let mut passes = 0usize;
    let decode_start = Instant::now();
    while decode_start.elapsed() < MIN_REPLAY || passes == 0 {
        let inputs = encoded.clone();
        let start = Instant::now();
        for bytes in inputs {
            let _ = black_box(Message::decode(bytes));
        }
        decode_ns_total += start.elapsed().as_nanos() as f64;
        passes += 1;
    }
    log.record("replay.decode", None, request, decode_start, Instant::now());
    let decode_ns = decode_ns_total / passes as f64;

    Replays {
        route_us: route_ns / 1e3,
        intersection_ns,
        distance_ns,
        grid_us: grid_ns / 1e3,
        encode_ns_per_kib: if kib > 0.0 { encode_ns / kib } else { 0.0 },
        decode_ns_per_kib: if kib > 0.0 { decode_ns / kib } else { 0.0 },
    }
}

/// Requests for the first queries of each kind (unclipped) and every
/// source's reply to them.
fn codec_corpus(sources: &[DataSource], query_cells: &[CellSet]) -> Vec<Message> {
    let config = FrameworkConfig::default();
    let k = crate::workload::K;
    let mut messages = Vec::new();
    for cells in query_cells.iter().take(CODEC_QUERIES) {
        let requests = [
            Message::OverlapQuery {
                query: cells.clone(),
                k,
            },
            Message::CoverageQuery {
                query: cells.clone(),
                k,
                delta: config.delta_cells,
            },
            Message::KnnQuery {
                query: cells.clone(),
                k,
            },
        ];
        for request in requests {
            for source in sources {
                if let Some(reply) = source.handle(&request) {
                    messages.push(reply);
                }
            }
            messages.push(request);
        }
    }
    messages
}
