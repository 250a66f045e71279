//! A fleet of real `source-server` processes, one per data source.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

use spatial::{SourceId, SpatialDataset};

/// Writes each source's datasets in the server's `dataset_id lon lat`
/// format (`{}` prints the shortest decimal that reads back bit-exact).
pub fn write_data_files(
    dir: &Path,
    sources: &[(String, Vec<SpatialDataset>)],
) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    sources
        .iter()
        .enumerate()
        .map(|(i, (_, datasets))| {
            let path = dir.join(format!("source-{i}.tsv"));
            let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
            for d in datasets {
                for p in &d.points {
                    writeln!(out, "{} {} {}", d.id, p.x, p.y)?;
                }
            }
            out.flush()?;
            Ok(path)
        })
        .collect()
}

struct Server {
    child: Child,
    addr: String,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

/// Running `source-server` children.  Dropping the fleet kills and reaps
/// any child [`Fleet::shutdown`] has not drained.
pub struct Fleet {
    servers: Vec<Server>,
}

impl Fleet {
    /// Starts one server per data file and waits until each prints its
    /// `LISTENING <addr>` line.
    pub fn spawn(bin: &Path, data_files: &[PathBuf], resolution: u32) -> Result<Self, String> {
        let mut fleet = Fleet {
            servers: Vec::new(),
        };
        for (i, data) in data_files.iter().enumerate() {
            let mut child = Command::new(bin)
                .arg("--id")
                .arg(i.to_string())
                .arg("--resolution")
                .arg(resolution.to_string())
                .arg("--listen")
                .arg("127.0.0.1:0")
                .arg("--data")
                .arg(data)
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
            let stdin = child.stdin.take();
            let stdout = child.stdout.take().map(BufReader::new);
            let Some(mut stdout) = stdout else {
                let _ = child.kill();
                let _ = child.wait();
                return Err("source-server stdout was not piped".into());
            };
            let mut line = String::new();
            let read = stdout.read_line(&mut line);
            let addr = line.trim().strip_prefix("LISTENING ").map(str::to_string);
            let server = Server {
                child,
                addr: addr.clone().unwrap_or_default(),
                stdin,
                stdout,
            };
            fleet.servers.push(server);
            if read.is_err() || addr.is_none() {
                return Err(format!("source-server {i} did not start: {line:?}"));
            }
        }
        Ok(fleet)
    }

    /// `(source id, address)` per server.
    pub fn endpoints(&self) -> Vec<(SourceId, String)> {
        self.servers
            .iter()
            .enumerate()
            .map(|(i, s)| (i as SourceId, s.addr.clone()))
            .collect()
    }

    /// Peak resident memory of every server, in KiB.
    pub fn peak_rss_kib(&self) -> Vec<u64> {
        self.servers
            .iter()
            .map(|s| peak_rss_kib(&format!("/proc/{}/status", s.child.id())).unwrap_or(0))
            .collect()
    }

    /// Drains every server (`SHUTDOWN` on stdin, then waits for `DRAINED`
    /// and the exit).
    pub fn shutdown(mut self) {
        for server in &mut self.servers {
            if let Some(mut stdin) = server.stdin.take() {
                let _ = stdin.write_all(b"SHUTDOWN\n");
            }
        }
        for server in &mut self.servers {
            let mut line = String::new();
            while server.stdout.read_line(&mut line).is_ok_and(|n| n > 0) {
                if line.trim() == "DRAINED" {
                    break;
                }
                line.clear();
            }
            let _ = server.child.wait();
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for server in &mut self.servers {
            if matches!(server.child.try_wait(), Ok(None)) {
                let _ = server.child.kill();
            }
            let _ = server.child.wait();
        }
    }
}

/// `VmHWM` (peak resident set) from a `/proc/<pid>/status` file, in KiB.
pub fn peak_rss_kib(status_path: &str) -> Option<u64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Cumulative `(steal, total)` CPU time from `/proc/stat`, in clock ticks.
/// Steal is time the host ran something else while this machine wanted a
/// CPU: on a shared host it is what makes two identical runs differ.
pub fn cpu_steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}
