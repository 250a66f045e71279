//! The two deployments the workloads run against, behind one interface:
//! spawned `source-server` processes reached over the pooled transport, or
//! the in-process framework.  Searches share the deployment; maintenance
//! (`apply_updates`) takes it by `&mut`, so it never runs beside a search.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dits::DitsGlobal;
use multisource::{
    DataCenter, EngineConfig, FrameworkConfig, MaintenanceOutcome, Message, MultiSourceFramework,
    QueryEngine, SearchError, SearchRequest, SearchResponse, SourceTransport, TcpTransport,
    UpdateOp,
};
use net::{PoolMetrics, PooledTcpTransport};
use spatial::{SourceId, SpatialDataset};

use crate::fleet::{self, Fleet};

/// A federation that can answer.
pub enum Deployment {
    /// `source-server` processes behind the pooled transport for reads and
    /// the per-call transport for maintenance.
    Fleet {
        fleet: Fleet,
        pooled: PooledTcpTransport,
        per_call: TcpTransport,
        center: DataCenter,
    },
    /// Sources and center in this process.
    InProcess(MultiSourceFramework),
}

/// One timed call: what it returned, and when it began and ended.
pub struct Timed<T> {
    pub result: Result<T, SearchError>,
    pub start: Instant,
    pub end: Instant,
}

/// How long each phase of one set-up took.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Spawning the servers until each listens, or building the framework.
    pub source_start: Duration,
    /// `DataCenter::from_transport`: polling every source's summary.
    pub bootstrap: Duration,
    /// One pass over the request corpus, filling the `CellSet` caches.
    pub warmup: Duration,
}

impl SetupTimes {
    pub fn total(&self) -> Duration {
        self.source_start + self.bootstrap + self.warmup
    }
}

fn timed<T>(call: impl FnOnce() -> Result<T, SearchError>) -> Timed<T> {
    let start = Instant::now();
    let result = call();
    Timed {
        result,
        start,
        end: Instant::now(),
    }
}

impl Deployment {
    /// Spawns the fleet and bootstraps the center (no warm-up).
    pub fn start_fleet(bin: &Path, data_files: &[PathBuf]) -> Result<(Self, SetupTimes), String> {
        let started = Instant::now();
        let fleet = Fleet::spawn(bin, data_files, FrameworkConfig::default().resolution)?;
        let listening = Instant::now();
        let endpoints = fleet.endpoints();
        let pooled = PooledTcpTransport::new(endpoints.clone())
            .map_err(|e| format!("pooled transport: {e}"))?;
        let center = DataCenter::from_transport(&pooled, FrameworkConfig::default().leaf_capacity)
            .map_err(|e| format!("summary poll: {e}"))?;
        let bootstrapped = Instant::now();
        let deployment = Deployment::Fleet {
            fleet,
            pooled,
            per_call: TcpTransport::new(endpoints),
            center,
        };
        Ok((
            deployment,
            SetupTimes {
                source_start: listening - started,
                bootstrap: bootstrapped - listening,
                warmup: Duration::ZERO,
            },
        ))
    }

    /// Builds the in-process framework (no warm-up); DITS-G is built inside
    /// `MultiSourceFramework::build`, so there is no separate bootstrap.
    pub fn start_in_process(data: &[(String, Vec<SpatialDataset>)]) -> (Self, SetupTimes) {
        let started = Instant::now();
        let framework = MultiSourceFramework::build(data, FrameworkConfig::default());
        let times = SetupTimes {
            source_start: started.elapsed(),
            bootstrap: Duration::ZERO,
            warmup: Duration::ZERO,
        };
        (Deployment::InProcess(framework), times)
    }

    /// Runs one search.
    pub fn search(&self, request: &SearchRequest) -> Timed<SearchResponse> {
        match self {
            Deployment::Fleet { pooled, center, .. } => {
                timed(|| QueryEngine::new(center, pooled, EngineConfig::default()).run(request))
            }
            Deployment::InProcess(framework) => timed(|| framework.search(request)),
        }
    }

    /// Applies one maintenance batch.  The fleet takes the per-call TCP
    /// path, the remote path the API documents.
    pub fn apply(&mut self, source: SourceId, ops: &[UpdateOp]) -> Timed<MaintenanceOutcome> {
        match self {
            Deployment::Fleet {
                per_call, center, ..
            } => timed(|| center.apply_updates(per_call, source, ops)),
            Deployment::InProcess(framework) => timed(|| framework.apply_updates(source, ops)),
        }
    }

    /// Total datasets the sources hold, as they report it.
    pub fn dataset_count(&self) -> Result<usize, String> {
        match self {
            Deployment::Fleet { pooled, .. } => {
                let mut total = 0;
                for source in pooled.source_ids() {
                    let poll = Message::ApplyUpdates { ops: vec![] };
                    let reply = pooled
                        .call(source, &poll, false)
                        .map_err(|e| format!("summary poll of source {source}: {e}"))?;
                    match reply.message {
                        Message::SummaryRefresh { dataset_count, .. } => {
                            total += dataset_count as usize
                        }
                        other => return Err(format!("unexpected poll reply {other:?}")),
                    }
                }
                Ok(total)
            }
            Deployment::InProcess(framework) => Ok(framework.dataset_count()),
        }
    }

    /// A copy of the center's DITS-G.
    pub fn global(&self) -> DitsGlobal {
        match self {
            Deployment::Fleet { center, .. } => center.global().clone(),
            Deployment::InProcess(framework) => framework.center().global().clone(),
        }
    }

    /// The pooled transport's counters, when there is one.
    pub fn pool_metrics(&self) -> Option<&PoolMetrics> {
        match self {
            Deployment::Fleet { pooled, .. } => Some(pooled.metrics()),
            Deployment::InProcess(_) => None,
        }
    }

    /// Peak resident memory of this process plus every server, in MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        let own = fleet::peak_rss_kib("/proc/self/status").unwrap_or(0);
        let servers: u64 = match self {
            Deployment::Fleet { fleet, .. } => fleet.peak_rss_kib().iter().sum(),
            Deployment::InProcess(_) => 0,
        };
        (own + servers) as f64 / 1024.0
    }

    /// Closes the pool, then drains the servers, if any.
    pub fn shutdown(self) {
        if let Deployment::Fleet { fleet, pooled, .. } = self {
            drop(pooled);
            fleet.shutdown();
        }
    }
}
