//! A `pvplan route` fleet under test: spawned as a child process, probed
//! until every shard answers, scraped, and torn down through stdin EOF.

use pv_json::JsonValue;
use pv_server::http::send_request;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a fleet may take to bind and hydrate.
const START_DEADLINE: Duration = Duration::from_secs(60);

/// How long a fleet may take to drain and exit after stdin EOF.
const STOP_DEADLINE: Duration = Duration::from_secs(30);

const POLL: Duration = Duration::from_millis(2);

/// How a fleet is launched.
pub struct FleetSpec {
    pub pvplan: PathBuf,
    pub shards: usize,
    pub threads: usize,
    /// Store root, fresh for every fleet.
    pub store: PathBuf,
    /// Directory for the port file and, when tracing, the trace logs.
    pub dir: PathBuf,
    pub trace: bool,
}

impl FleetSpec {
    fn args(&self) -> Vec<String> {
        let mut args = vec![
            "route".to_string(),
            "--shards".to_string(),
            self.shards.to_string(),
            "--profile".to_string(),
            "standard".to_string(),
            "--threads".to_string(),
            self.threads.to_string(),
            "--port".to_string(),
            "0".to_string(),
            "--port-file".to_string(),
            self.port_file().display().to_string(),
            "--store-dir".to_string(),
            self.store.display().to_string(),
            "--watch-stdin".to_string(),
        ];
        if self.trace {
            args.extend([
                "--trace-log".to_string(),
                self.dir.join("trace.jsonl").display().to_string(),
            ]);
        }
        args
    }

    fn port_file(&self) -> PathBuf {
        self.dir.join("router.port")
    }
}

/// A running fleet. Dropping it tears the fleet down.
pub struct Fleet {
    child: Option<Child>,
    pub addr: SocketAddr,
    pub shard_addrs: Vec<SocketAddr>,
    pub shard_pids: Vec<u32>,
}

/// Reads a port file once it holds a full address.
fn read_port_file(path: &Path) -> Option<SocketAddr> {
    let text = std::fs::read_to_string(path).ok()?;
    text.trim().parse().ok()
}

/// `GET path` on `addr`, expecting 200.
fn get(addr: SocketAddr, path: &str) -> Result<String, String> {
    match send_request(addr, "GET", path, b"") {
        Ok((200, body)) => Ok(body),
        Ok((status, body)) => Err(format!("GET {path}: HTTP {status}: {body}")),
        Err(e) => Err(format!("GET {path}: {e}")),
    }
}

fn healthy(addr: SocketAddr) -> bool {
    get(addr, "/v1/healthz").is_ok()
}

impl Fleet {
    /// Launches the fleet and returns once the router and every shard
    /// answer `/v1/healthz` (shards hydrate their store before binding).
    pub fn start(spec: &FleetSpec) -> Result<Fleet, String> {
        std::fs::create_dir_all(&spec.dir)
            .map_err(|e| format!("creating {}: {e}", spec.dir.display()))?;
        let child = Command::new(&spec.pvplan)
            .args(spec.args())
            .stdin(Stdio::piped())
            .stdout(Stdio::from(std::io::stderr()))
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", spec.pvplan.display()))?;
        let mut fleet = Fleet {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            shard_addrs: Vec::new(),
            shard_pids: Vec::new(),
        };
        let deadline = Instant::now() + START_DEADLINE;
        let addr = loop {
            if let Some(addr) = read_port_file(&spec.port_file()) {
                break addr;
            }
            fleet.check_alive()?;
            if Instant::now() > deadline {
                return Err("router did not write its port file in time".into());
            }
            std::thread::sleep(POLL);
        };
        fleet.addr = addr;
        for index in 0..spec.shards {
            let port_file = spec.store.join(format!("shard-{index:03}.port"));
            let shard = read_port_file(&port_file)
                .ok_or_else(|| format!("shard {index} port file missing"))?;
            fleet.shard_addrs.push(shard);
        }
        while !(healthy(fleet.addr) && fleet.shard_addrs.iter().all(|&a| healthy(a))) {
            fleet.check_alive()?;
            if Instant::now() > deadline {
                return Err("fleet did not become healthy in time".into());
            }
            std::thread::sleep(POLL);
        }
        Ok(fleet)
    }

    /// Reads the shard pids from `/v1/stats`; done after set-up timing so
    /// the extra fan-out is not counted.
    pub fn learn_pids(&mut self) -> Result<(), String> {
        let stats = self.stats()?;
        let pids = match stats.get("shard_pids") {
            Some(JsonValue::Array(items)) => items
                .iter()
                .filter_map(JsonValue::as_number)
                .map(|p| p as u32)
                .collect(),
            _ => return Err("/v1/stats has no shard_pids".into()),
        };
        self.shard_pids = pids;
        if self.shard_pids.len() != self.shard_addrs.len() {
            return Err(format!(
                "{} shard pid(s) for {} shard(s)",
                self.shard_pids.len(),
                self.shard_addrs.len()
            ));
        }
        Ok(())
    }

    fn check_alive(&mut self) -> Result<(), String> {
        if let Some(child) = self.child.as_mut() {
            if let Ok(Some(status)) = child.try_wait() {
                self.child = None;
                return Err(format!("pvplan route exited early: {status}"));
            }
        }
        Ok(())
    }

    pub fn stats(&self) -> Result<JsonValue, String> {
        let body = get(self.addr, "/v1/stats")?;
        pv_json::parse(&body).map_err(|e| format!("/v1/stats body: {e}"))
    }

    pub fn metrics(&self) -> Result<String, String> {
        get(self.addr, "/v1/metrics")
    }

    /// Sum of peak resident memory over the router and its shards.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let router = self.child.as_ref().map(Child::id).ok_or("fleet is down")?;
        let mut total = 0.0;
        for pid in std::iter::once(router).chain(self.shard_pids.iter().copied()) {
            total += peak_rss_mb(pid).ok_or_else(|| format!("no VmHWM for pid {pid}"))?;
        }
        Ok(total)
    }

    /// Closes the router's stdin, waits for it to drain and exit, and
    /// checks that no process of the fleet survives.
    pub fn stop(mut self) -> Result<(), String> {
        let result = self.stop_inner();
        self.child = None;
        result
    }

    fn stop_inner(&mut self) -> Result<(), String> {
        let Some(mut child) = self.child.take() else {
            return Ok(());
        };
        let router = child.id();
        drop(child.stdin.take());
        let deadline = Instant::now() + STOP_DEADLINE;
        let clean = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status.success(),
                Ok(None) if Instant::now() < deadline => std::thread::sleep(POLL),
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("pvplan route did not exit after stdin EOF".into());
                }
            }
        };
        let survivors: Vec<u32> = std::iter::once(router)
            .chain(self.shard_pids.iter().copied())
            .filter(|&pid| wait_gone(pid))
            .collect();
        if !survivors.is_empty() {
            return Err(format!("pvplan pid(s) {survivors:?} survived teardown"));
        }
        if clean {
            Ok(())
        } else {
            Err("pvplan route exited unsuccessfully".into())
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        // Error paths still tear the fleet down.
        let _ = self.stop_inner();
    }
}

/// Whether `pid` is still a live (non-zombie) process after a grace
/// period; true means it survived.
fn wait_gone(pid: u32) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let alive = std::fs::read_to_string(format!("/proc/{pid}/stat"))
            .ok()
            .and_then(|s| {
                s.rsplit_once(')')
                    .map(|(_, rest)| !rest.trim_start().starts_with('Z'))
            })
            .unwrap_or(false);
        if !alive {
            return false;
        }
        if Instant::now() > deadline {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Peak resident set (`VmHWM`) of a process, MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
