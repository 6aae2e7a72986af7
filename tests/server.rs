//! End-to-end acceptance test of the placement service: the determinism
//! contract over real TCP.
//!
//! Starts the server on an ephemeral port with different worker counts,
//! fires identical and interleaved requests from several client threads,
//! and asserts **byte-identical response bodies** across thread counts,
//! arrival orders and cache states (cold vs warm) — the serving-side
//! extension of the pinning in `tests/portfolio.rs`.
//!
//! The shard-router tests at the bottom extend the same contract across
//! process boundaries: a real `pvplan route` fleet (router + N worker
//! processes over TCP) must answer byte-identically to the in-process
//! server at any shard count, and keep doing so through a `kill -9` of
//! one worker.

use pvfloorplan::json::JsonValue;
use pvfloorplan::prelude::*;
use pvfloorplan::server::http::send_request;
use pvfloorplan::server::{place_shard_key, HashRing, PlacementService, Server, ServiceConfig};
use pvfloorplan::store::SiteStore;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The request mix: distinct sites, a repeated site, an explicit
/// topology, an annealing request with a pinned seed — every shape the
/// service accepts, each appearing at least twice so warm-cache repeats
/// are part of the schedule.
fn request_bodies() -> Vec<String> {
    let spec = |i: u32| ScenarioSpec::generate(2018, i).to_spec_string();
    vec![
        spec(0),
        spec(1),
        format!(
            r#"{{"spec": "{}", "placer": "anneal", "seed": 7}}"#,
            spec(2)
        ),
        format!(r#"{{"spec": "{}", "series": 2, "strings": 1}}"#, spec(0)),
        spec(0), // repeat of a known site: must hit the warm cache
        spec(1),
        format!(
            r#"{{"spec": "{}", "placer": "anneal", "seed": 7}}"#,
            spec(2)
        ),
    ]
}

/// Sends every request from `clients` threads, each walking the list in
/// a different rotation (different arrival orders, concurrent and
/// interleaved), and returns `request index -> set of response bodies`.
fn fire_interleaved(
    addr: SocketAddr,
    bodies: &[String],
    clients: usize,
) -> BTreeMap<usize, Vec<String>> {
    let responses = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for k in 0..bodies.len() {
                        let idx = (k + c) % bodies.len(); // rotated order
                        let (status, body) =
                            send_request(addr, "POST", "/v1/place", bodies[idx].as_bytes())
                                .expect("request transport");
                        assert_eq!(status, 200, "request {idx}: {body}");
                        out.push((idx, body));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    let mut by_request: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for (idx, body) in responses {
        by_request.entry(idx).or_default().push(body);
    }
    by_request
}

fn start_server(threads: usize) -> Server {
    let config = ServiceConfig::tiny();
    let service = Arc::new(PlacementService::new(config));
    Server::bind("127.0.0.1:0", service, Runtime::with_threads(threads), 16)
        .expect("bind ephemeral port")
}

/// Starts a store-backed server, hydrating first; returns the server and
/// its (shared) service so the test can read counters after shutdown.
fn start_store_server(dir: &std::path::Path) -> (Server, Arc<PlacementService>) {
    let store = Arc::new(SiteStore::open(dir).expect("open store"));
    let service = Arc::new(PlacementService::new(ServiceConfig::tiny()).with_store(store));
    service.hydrate_store().expect("hydrate store");
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        Runtime::with_threads(2),
        16,
    )
    .expect("bind ephemeral port");
    (server, service)
}

fn post_place(addr: SocketAddr, body: &str) -> String {
    let (status, response) =
        send_request(addr, "POST", "/v1/place", body.as_bytes()).expect("transport");
    assert_eq!(status, 200, "{response}");
    response
}

fn stat(addr: SocketAddr, field: &str) -> f64 {
    let (status, stats) = send_request(addr, "GET", "/v1/stats", b"").expect("transport");
    assert_eq!(status, 200);
    pvfloorplan::json::parse(&stats)
        .expect("stats JSON")
        .get(field)
        .and_then(|v| v.as_number())
        .unwrap_or_else(|| panic!("stats field {field} missing"))
}

#[test]
fn restart_recovery_serves_identical_bytes_and_survives_full_store_corruption() {
    let dir = std::env::temp_dir().join(format!("pvserve-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let bodies: Vec<String> = (0..2)
        .map(|i| ScenarioSpec::generate(2018, i).to_spec_string())
        .collect();

    // The no-store baseline: the bytes every later life must reproduce.
    let baseline_server = start_server(2);
    let baseline: Vec<String> = bodies
        .iter()
        .map(|b| post_place(baseline_server.local_addr(), b))
        .collect();
    baseline_server.shutdown();

    // Life 1: a store-backed server takes the same traffic cold. The
    // store must be invisible in the bytes; shutdown drains the
    // write-behind queue so both snapshots are committed.
    let (server, service) = start_store_server(&dir);
    for (body, expected) in bodies.iter().zip(&baseline) {
        assert_eq!(
            &post_place(server.local_addr(), body),
            expected,
            "write-behind persistence changed response bytes"
        );
    }
    server.shutdown();
    let store = service.store().expect("store attached");
    assert_eq!(store.counters().writes(), 2, "drain committed both sites");
    drop(service);

    // Life 2 ("kill -9 then restart"): a fresh process image hydrates the
    // snapshots and answers warm — same bytes, zero cold extractions.
    let (server, service) = start_store_server(&dir);
    assert_eq!(service.store().expect("store").counters().hydrated(), 2);
    for (body, expected) in bodies.iter().zip(&baseline) {
        assert_eq!(
            &post_place(server.local_addr(), body),
            expected,
            "hydrated responses diverged from the cold baseline"
        );
    }
    assert_eq!(stat(server.local_addr(), "cache_misses"), 0.0);
    assert_eq!(stat(server.local_addr(), "store_hits"), 2.0);
    assert_eq!(stat(server.local_addr(), "store_hydrated"), 2.0);
    server.shutdown();
    drop(service);

    // Life 3: every snapshot is corrupted on disk. The server must
    // quarantine them all, fall back to cold extraction, and still serve
    // the exact baseline bytes.
    let mut corrupted = 0;
    for entry in std::fs::read_dir(&dir).expect("list store") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "pvsnap") {
            let mut bytes = std::fs::read(&path).expect("read snapshot");
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xFF;
            std::fs::write(&path, &bytes).expect("corrupt snapshot");
            corrupted += 1;
        }
    }
    assert_eq!(corrupted, 2, "both snapshots corrupted");
    let (server, service) = start_store_server(&dir);
    assert_eq!(service.store().expect("store").counters().quarantined(), 2);
    for (body, expected) in bodies.iter().zip(&baseline) {
        assert_eq!(
            &post_place(server.local_addr(), body),
            expected,
            "corrupted-store fallback diverged from the no-store baseline"
        );
    }
    assert_eq!(stat(server.local_addr(), "store_hits"), 0.0);
    assert_eq!(stat(server.local_addr(), "cache_misses"), 2.0);
    assert_eq!(stat(server.local_addr(), "store_quarantined"), 2.0);
    server.shutdown();
    let quarantined = std::fs::read_dir(&dir)
        .expect("list store")
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().ends_with(".quarantined"))
        .count();
    assert_eq!(quarantined, 2, "damaged files kept aside for forensics");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_place_requests_get_a_deterministic_400_not_a_dropped_connection() {
    // Every malformed body must produce a structured 400 whose bytes are
    // a pure function of the request: identical on repeat, identical
    // across worker counts, and carrying no timing or cache metadata.
    let bad_bodies = [
        "{".to_string(),                 // truncated JSON
        r#"{"spec": 3}"#.to_string(),    // wrong type
        "not a spec at all".to_string(), // not a spec string
        r#"{"days": 9000}"#.to_string(), // out-of-range knob
    ];
    let mut canonical: Option<Vec<String>> = None;
    for threads in [1usize, 3] {
        let server = start_server(threads);
        let mut first_pass = Vec::new();
        for round in 0..2 {
            for (i, body) in bad_bodies.iter().enumerate() {
                let (status, response) =
                    send_request(server.local_addr(), "POST", "/v1/place", body.as_bytes())
                        .expect("transport stays up on malformed bodies");
                assert_eq!(status, 400, "body {i}: {response}");
                let parsed = pvfloorplan::json::parse(&response).expect("structured error body");
                assert!(
                    parsed.get("error").and_then(|v| v.as_str()).is_some(),
                    "body {i}: {response}"
                );
                for leak in ["latency", "p50", "p99", "cache", "hit"] {
                    assert!(
                        !response.contains(leak),
                        "error body leaks '{leak}': {response}"
                    );
                }
                if round == 0 {
                    first_pass.push(response);
                } else {
                    assert_eq!(
                        response, first_pass[i],
                        "400 for body {i} changed between repeats at {threads} thread(s)"
                    );
                }
            }
        }
        match &canonical {
            None => canonical = Some(first_pass),
            Some(reference) => assert_eq!(
                reference, &first_pass,
                "400 bodies changed between worker counts"
            ),
        }
        server.shutdown();
    }
}

#[test]
fn responses_are_bit_identical_across_thread_counts_and_arrival_orders() {
    let bodies = request_bodies();
    let mut canonical: Option<BTreeMap<usize, String>> = None;

    for threads in [1usize, 3] {
        let server = start_server(threads);
        let by_request = fire_interleaved(server.local_addr(), &bodies, 4);

        // Within one server: every client, every arrival order, every
        // cache state produced the same bytes per request.
        let mut unique: BTreeMap<usize, String> = BTreeMap::new();
        for (idx, responses) in by_request {
            assert_eq!(responses.len(), 4, "request {idx} answered once per client");
            for response in &responses {
                assert_eq!(
                    *response, responses[0],
                    "request {idx} diverged across clients/orders at {threads} thread(s)"
                );
            }
            unique.insert(idx, responses[0].clone());
        }

        // The repeated entries of the mix are identical requests — their
        // responses must be identical too (cold-vs-warm cannot leak).
        assert_eq!(unique[&0], unique[&4]);
        assert_eq!(unique[&1], unique[&5]);
        assert_eq!(unique[&2], unique[&6]);

        // Across servers: thread count changes nothing.
        match &canonical {
            None => canonical = Some(unique),
            Some(reference) => {
                assert_eq!(
                    reference, &unique,
                    "responses changed between 1 and {threads} worker threads"
                );
            }
        }

        // The warm cache actually fired: the mix repeats sites, so the
        // server must report hits, and the responses parse as placements.
        let (status, stats) = send_request(server.local_addr(), "GET", "/v1/stats", b"").unwrap();
        assert_eq!(status, 200);
        let stats = pvfloorplan::json::parse(&stats).unwrap();
        let hits = stats.get("cache_hits").unwrap().as_number().unwrap();
        let misses = stats.get("cache_misses").unwrap().as_number().unwrap();
        assert!(hits > 0.0, "no cache hits despite repeated sites");
        // Three distinct sites in the mix; racing cold requests for the
        // same site may each record a miss (the benign build race the
        // service documents), so ≥ 3 — but hits must still dominate.
        assert!(misses >= 3.0, "misses {misses}");
        assert_eq!(hits + misses, 28.0, "7 requests x 4 clients");
        server.shutdown();
    }

    // Spot-check the response contents once: a real placement with energy.
    let reference = canonical.expect("at least one server ran");
    let parsed = pvfloorplan::json::parse(&reference[&0]).unwrap();
    assert!(parsed.get("energy_wh").unwrap().as_number().unwrap() > 0.0);
    assert!(!parsed
        .get("modules")
        .unwrap()
        .as_array()
        .unwrap()
        .is_empty());
    let explicit = pvfloorplan::json::parse(&reference[&3]).unwrap();
    assert_eq!(explicit.get("series").unwrap().as_number(), Some(2.0));
    assert_eq!(explicit.get("strings").unwrap().as_number(), Some(1.0));
}

/// A real `pvplan route` process under test: the router binary plus its
/// supervised shard workers. Dropping it closes the router's stdin
/// (`--watch-stdin`), which drains the listener and tears the whole
/// worker fleet down via the held-stdin pipes; a kill is the fallback.
struct RouterProc {
    child: Child,
    addr: SocketAddr,
}

impl RouterProc {
    /// Spawns `pvplan route --shards N` rooted at `store_root` (with a
    /// `--trace-log` when given) and waits until the router has bound,
    /// health-checked every worker, and written its port file.
    fn start(
        shards: usize,
        store_root: &std::path::Path,
        trace_log: Option<&std::path::Path>,
    ) -> Self {
        std::fs::create_dir_all(store_root).expect("create store root");
        let port_file = store_root.join("router.port");
        let _ = std::fs::remove_file(&port_file);
        let mut args = vec![
            "route".to_string(),
            "--shards".to_string(),
            shards.to_string(),
            "--profile".to_string(),
            "tiny".to_string(),
            "--threads".to_string(),
            "1".to_string(),
            "--port".to_string(),
            "0".to_string(),
            "--port-file".to_string(),
            port_file.display().to_string(),
            "--store-dir".to_string(),
            store_root.display().to_string(),
            "--watch-stdin".to_string(),
        ];
        if let Some(path) = trace_log {
            args.push("--trace-log".to_string());
            args.push(path.display().to_string());
        }
        let child = Command::new(env!("CARGO_BIN_EXE_pvplan"))
            .args(&args)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .spawn()
            .expect("spawn pvplan route");
        // The port file appears only after every worker passed its
        // health check, so its presence means the fleet is serving.
        let deadline = Instant::now() + Duration::from_secs(120);
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Ok(addr) = text.trim().parse::<SocketAddr>() {
                    break addr;
                }
            }
            assert!(
                Instant::now() < deadline,
                "router did not write its port file in time"
            );
            std::thread::sleep(Duration::from_millis(50));
        };
        Self { child, addr }
    }
}

impl Drop for RouterProc {
    fn drop(&mut self) {
        drop(self.child.stdin.take()); // EOF: graceful drain + fleet teardown
        let deadline = Instant::now() + Duration::from_secs(15);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) => std::thread::sleep(Duration::from_millis(50)),
                Err(_) => break,
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn stats_doc(addr: SocketAddr) -> JsonValue {
    let (status, stats) = send_request(addr, "GET", "/v1/stats", b"").expect("stats transport");
    assert_eq!(status, 200, "{stats}");
    pvfloorplan::json::parse(&stats).expect("stats JSON")
}

/// Polls merged stats until `field` reaches at least `want`.
fn wait_for_stat(addr: SocketAddr, field: &str, want: f64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let value = stats_doc(addr)
            .get(field)
            .and_then(|v| v.as_number())
            .unwrap_or_else(|| panic!("stats field {field} missing"));
        if value >= want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "stats field {field} stuck at {value}, wanted >= {want}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}

#[test]
fn router_shard_count_is_invisible_in_response_bytes() {
    let bodies = request_bodies();
    let bad_bodies = ["{", r#"{"spec": 3}"#, "not a spec at all"];

    // The in-process single server is the reference: a shard fleet of
    // any size must be indistinguishable from it in the bytes.
    let reference_server = start_server(1);
    let reference: Vec<String> = bodies
        .iter()
        .map(|b| post_place(reference_server.local_addr(), b))
        .collect();
    let bad_reference: Vec<(u16, String)> = bad_bodies
        .iter()
        .map(|b| {
            send_request(
                reference_server.local_addr(),
                "POST",
                "/v1/place",
                b.as_bytes(),
            )
            .expect("transport")
        })
        .collect();
    reference_server.shutdown();

    for shards in [1usize, 3] {
        let root = std::env::temp_dir().join(format!(
            "pvroute-e2e-{}-{}shard",
            std::process::id(),
            shards
        ));
        let _ = std::fs::remove_dir_all(&root);
        let router = RouterProc::start(shards, &root, None);

        // Rotated concurrent clients through the proxy: every arrival
        // order, every placement, every cache state — reference bytes.
        let by_request = fire_interleaved(router.addr, &bodies, 3);
        for (idx, responses) in by_request {
            for response in &responses {
                assert_eq!(
                    response, &reference[idx],
                    "request {idx} diverged from the in-process server at {shards} shard(s)"
                );
            }
        }

        // Malformed bodies keep their deterministic 400 bytes through
        // the proxy: the router hashes the raw bytes and lets the owning
        // worker's own error path answer.
        for (bad, (want_status, want_body)) in bad_bodies.iter().zip(&bad_reference) {
            let (status, body) =
                send_request(router.addr, "POST", "/v1/place", bad.as_bytes()).expect("transport");
            assert_eq!(status, *want_status, "{body}");
            assert_eq!(
                &body, want_body,
                "400 bytes changed through the proxy at {shards} shard(s)"
            );
        }

        // The merged stats doc reports the full fleet as healthy.
        let stats = stats_doc(router.addr);
        let up = stats.get("shards_up").and_then(|v| v.as_number());
        assert_eq!(up, Some(shards as f64), "all shards healthy");

        drop(router);
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// Fires the interleaved mix while a sidecar thread hammers
/// `/v1/metrics` the whole time — the scrape load is concurrent with the
/// placements it must not perturb. Returns the per-request response sets.
fn fire_with_scrapes(
    addr: SocketAddr,
    bodies: &[String],
    clients: usize,
) -> BTreeMap<usize, Vec<String>> {
    use std::sync::atomic::{AtomicBool, Ordering};
    let stop = AtomicBool::new(false);
    let stop = &stop;
    std::thread::scope(|scope| {
        let scraper = scope.spawn(move || {
            let mut scrapes = 0u32;
            while !stop.load(Ordering::Relaxed) {
                let (status, text) =
                    send_request(addr, "GET", "/v1/metrics", b"").expect("metrics transport");
                assert_eq!(status, 200, "{text}");
                assert!(text.starts_with("# HELP"), "not exposition text: {text}");
                scrapes += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
            scrapes
        });
        let by_request = fire_interleaved(addr, bodies, clients);
        stop.store(true, Ordering::Relaxed);
        assert!(scraper.join().expect("scraper thread") > 0, "never scraped");
        by_request
    })
}

/// Asserts a trace log is JSONL whose every event carries a 16-hex id,
/// returning the ids of its `/v1/place` events.
fn place_trace_ids(path: &std::path::Path) -> Vec<String> {
    let logged = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("trace log {} unreadable: {e}", path.display()));
    let mut ids = Vec::new();
    for line in logged.lines().filter(|l| !l.is_empty()) {
        let event = pvfloorplan::json::parse(line)
            .unwrap_or_else(|e| panic!("{}: bad JSONL '{line}': {e}", path.display()));
        let id = event
            .get("trace")
            .and_then(|v| v.as_str())
            .unwrap_or_else(|| panic!("{}: event without trace id: {line}", path.display()));
        assert_eq!(id.len(), 16, "{}: trace id '{id}'", path.display());
        assert!(id.bytes().all(|b| b.is_ascii_hexdigit()), "{id}");
        if event.get("target").and_then(|v| v.as_str()) == Some("/v1/place") {
            ids.push(id.to_string());
        }
    }
    ids
}

#[test]
fn observability_leaves_place_bytes_untouched_at_any_worker_or_shard_count() {
    let bodies = request_bodies();

    // The reference: an observability-off server. Everything below —
    // trace logs on, metrics scraped concurrently, workers multiplied,
    // shards multiplied — must reproduce these exact bytes.
    let reference_server = start_server(1);
    let reference: Vec<String> = bodies
        .iter()
        .map(|b| post_place(reference_server.local_addr(), b))
        .collect();
    reference_server.shutdown();

    let dir = std::env::temp_dir().join(format!("pvobs-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create obs dir");

    // In-process: 1 vs 3 workers, trace log attached, scrapes in flight.
    for threads in [1usize, 3] {
        let log_path = dir.join(format!("serve-{threads}.trace"));
        let log = pvfloorplan::obs::TraceLog::create(&log_path).expect("create trace log");
        let service =
            Arc::new(PlacementService::new(ServiceConfig::tiny()).with_trace_log(Arc::new(log)));
        let server = Server::bind("127.0.0.1:0", service, Runtime::with_threads(threads), 16)
            .expect("bind ephemeral port");

        let by_request = fire_with_scrapes(server.local_addr(), &bodies, 3);
        for (idx, responses) in by_request {
            for response in &responses {
                assert_eq!(
                    response, &reference[idx],
                    "request {idx}: tracing + scraping changed bytes at {threads} worker(s)"
                );
            }
        }

        // The exposition carries the serving counters for this traffic.
        let (status, metrics) =
            send_request(server.local_addr(), "GET", "/v1/metrics", b"").expect("metrics");
        assert_eq!(status, 200);
        assert!(metrics.contains("\npv_place_ok_total 21"), "{metrics}");
        server.shutdown();

        let places = place_trace_ids(&log_path);
        assert_eq!(
            places.len(),
            21,
            "one event per placement (7 bodies x 3 clients)"
        );
    }

    // Through the router: 1 vs 3 shards, router + per-shard trace logs,
    // scrapes hitting the fleet-merged /v1/metrics the whole time.
    for shards in [1usize, 3] {
        let root = dir.join(format!("route-{shards}"));
        let trace = root.join("router.trace");
        let router = RouterProc::start(shards, &root, Some(&trace));

        let by_request = fire_with_scrapes(router.addr, &bodies, 3);
        for (idx, responses) in by_request {
            for response in &responses {
                assert_eq!(
                    response, &reference[idx],
                    "request {idx}: observability changed bytes at {shards} shard(s)"
                );
            }
        }
        let (status, metrics) =
            send_request(router.addr, "GET", "/v1/metrics", b"").expect("metrics");
        assert_eq!(status, 200);
        assert!(metrics.contains("\npv_place_ok_total 21"), "{metrics}");
        assert!(
            metrics.contains(&format!("\npv_shards {shards}")),
            "{metrics}"
        );
        // Both fleet endpoints render one merged snapshot, so they agree.
        let exposed = |name: &str| {
            metrics
                .lines()
                .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
                .unwrap_or_else(|| panic!("{name} missing: {metrics}"))
        };
        let place_ok = stat(router.addr, "place_ok");
        assert_eq!(place_ok, 21.0);
        assert_eq!(place_ok, exposed("pv_place_ok_total"));
        assert_eq!(
            stat(router.addr, "cache_hits") + stat(router.addr, "cache_misses"),
            exposed("pv_cache_hits_total") + exposed("pv_cache_misses_total")
        );
        drop(router);

        // Trace propagation: every /v1/place event a worker logged uses
        // the id the router minted for that request — the shared id is
        // what joins a request's spans across the process boundary.
        let router_ids = place_trace_ids(&trace);
        assert_eq!(router_ids.len(), 21, "router logged every placement");
        for k in 0..shards {
            let worker_log = std::path::PathBuf::from(format!("{}.shard{k}", trace.display()));
            for id in place_trace_ids(&worker_log) {
                assert!(
                    router_ids.contains(&id),
                    "shard {k} logged trace id {id} the router never minted"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn router_survives_kill_dash_nine_of_a_worker_and_rehydrates_it() {
    let bodies = request_bodies();
    let root = std::env::temp_dir().join(format!("pvroute-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    // Tracing stays on through the whole kill/respawn cycle: the bytes
    // below must be observability-blind even across a worker funeral.
    let trace = root.join("router.trace");
    let router = RouterProc::start(2, &root, Some(&trace));

    // Pre-kill baseline, and the shard map this test relies on: with two
    // shards the mix splits (specs 0/1 on one shard, spec 2 on the
    // other), so killing spec 0's owner leaves a live survivor to probe.
    let baseline: Vec<String> = bodies.iter().map(|b| post_place(router.addr, b)).collect();
    let ring = HashRing::new(2);
    let victim = ring.shard_for(place_shard_key(bodies[0].as_bytes()));
    let survivor_body = bodies
        .iter()
        .find(|b| ring.shard_for(place_shard_key(b.as_bytes())) != victim)
        .expect("request mix spans both shards");

    // Wait until every distinct site's snapshot is committed, so the
    // victim's replacement has something to rehydrate from.
    wait_for_stat(router.addr, "store_writes", 3.0);

    // kill -9 the victim worker — no destructors, no goodbye.
    let pids = stats_doc(router.addr)
        .get("shard_pids")
        .and_then(JsonValue::as_array)
        .map(<[JsonValue]>::to_vec)
        .expect("shard_pids in merged stats");
    let pid = pids
        .get(victim)
        .and_then(JsonValue::as_number)
        .expect("victim pid") as u64;
    let killed = Command::new("kill")
        .args(["-9", &pid.to_string()])
        .status()
        .expect("run kill");
    assert!(killed.success(), "kill -9 {pid}");

    // The surviving shard keeps answering immediately (no fleet-wide
    // outage), and the supervisor brings the victim back.
    assert_eq!(&post_place(router.addr, survivor_body), &baseline[2]);
    wait_for_stat(router.addr, "shard_restarts", 1.0);
    wait_for_stat(router.addr, "shards_up", 2.0);

    // Full replay: every response — including the killed shard's sites —
    // is byte-identical to the pre-kill baseline.
    for (body, expected) in bodies.iter().zip(&baseline) {
        assert_eq!(
            &post_place(router.addr, body),
            expected,
            "post-restart bytes diverged from the pre-kill baseline"
        );
    }

    // The restarted worker answered warm from its snapshot partition:
    // the merged stats show store hits, proving rehydration (not a cold
    // re-extraction that happens to match).
    let stats = stats_doc(router.addr);
    let hit_rate = stats.get("store_hit_rate").and_then(|v| v.as_number());
    assert!(
        hit_rate.is_some_and(|r| r > 0.0),
        "store_hit_rate {hit_rate:?} after restart"
    );
    let restarts = stats.get("shard_restarts").and_then(|v| v.as_number());
    assert!(restarts.is_some_and(|r| r >= 1.0), "restarts {restarts:?}");

    // The respawned worker picked its trace log back up: the router's log
    // and both shard logs hold valid post-restart events.
    drop(router);
    for path in [
        trace.clone(),
        std::path::PathBuf::from(format!("{}.shard0", trace.display())),
        std::path::PathBuf::from(format!("{}.shard1", trace.display())),
    ] {
        let logged = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("trace log {} unreadable: {e}", path.display()));
        let events: Vec<_> = logged.lines().filter(|l| !l.is_empty()).collect();
        assert!(!events.is_empty(), "{} logged nothing", path.display());
        for line in events {
            let event = pvfloorplan::json::parse(line)
                .unwrap_or_else(|e| panic!("{}: bad JSONL '{line}': {e}", path.display()));
            assert!(
                event
                    .get("trace")
                    .and_then(|v| v.as_str())
                    .is_some_and(|t| t.len() == 16),
                "{}: event without a trace id: {line}",
                path.display()
            );
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}
