//! `route_warm`: closed-loop `/v1/place` traffic through a
//! `pvplan route --shards 2 --profile standard` fleet over real TCP, every
//! site warm, every response checked byte for byte against an in-process
//! single-threaded `PlacementService` with the same profile. `run.py` pins
//! the run, and with it the fleet, to one CPU.

use crate::fleet::{Fleet, FleetSpec};
use crate::report::{Layers, Outcome, STAGES};
use crate::stats::{
    exposition_histogram, exposition_value, layer_cost, max_share, median, percentile,
    shuffled_rounds, stratified_pick, ExpoHistogram,
};
use pv_floorplan::{FloorplanConfig, Placer, PlacerOptions, SuitabilityMap, TraceMemo};
use pv_gis::ScenarioSpec;
use pv_json::{JsonValue, ObjectBuilder};
use pv_model::Topology;
use pv_runtime::Runtime;
use pv_server::http::{read_request, send_request};
use pv_server::{
    place_shard_key, HashRing, PlaceRequest, PlacementService, RequestContext, Server,
    ServiceConfig,
};
use pv_store::{SiteStore, SnapshotMeta};
use pv_units::SimulationClock;
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop clients: one per core of the reference host, each with one
/// connection open at a time. Both share the one CPU the run is pinned to
/// with the fleet.
pub const CLIENTS: usize = 2;

/// Shards behind the router.
pub const SHARDS: usize = 2;

/// Distinct sites the traffic touches, all warmed during set-up. A site
/// takes about 6 MB of a shard's 256 MiB standard-profile cache, so 48
/// sites over two shards stay warm; 96 would not.
const SITES: usize = 48;

/// Generated specs per site: the sites are a stratified pick, one per
/// `POOL_PER_SITE` specs of a pool ordered by [`solve_cost_proxy`].
const POOL_PER_SITE: usize = 4;

/// Bare-spec (greedy) and `{"placer": "anneal"}` requests per site in
/// every round of the sequence: one request in six anneals.
const GREEDY_PER_SITE: usize = 5;
const ANNEAL_PER_SITE: usize = 1;
const PER_ROUND: usize = GREEDY_PER_SITE + ANNEAL_PER_SITE;

/// Rounds in the sequence, each shuffled by the seed.
const ROUNDS: usize = 16;

/// Requests per pass: one round, so every pass holds the same requests
/// and `wall_s` is the median pass time.
const PASS: usize = SITES * PER_ROUND;

/// Fleets set up per untraced run; each measures an equal share of the
/// run, and `setup_s` is the median of their set-ups.
const SETUPS: usize = 3;

/// Sites whose in-process layers (extraction, suitability, solves, store
/// save) the traced run measures.
const LAYER_SITES: usize = 12;

/// The generated inputs of one run.
struct Inputs {
    specs: Vec<ScenarioSpec>,
    /// Distinct request bodies: site `i`'s bare spec at `2 * i`, followed
    /// by its anneal body.
    bodies: Vec<String>,
    /// The reference response of each body.
    expected: Vec<String>,
    /// The request sequence, as body indices.
    sequence: Vec<usize>,
}

fn anneal_body(spec: &str) -> String {
    ObjectBuilder::new()
        .field("spec", spec)
        .field("placer", "anneal")
        .build()
        .to_json_string()
}

/// What a site's warm greedy and anneal solves roughly cost, from its spec
/// alone: the roof area, less what obstacles and the horizon class take.
/// Over 384 sites of eight seeds it correlates at 0.73 with the measured
/// in-process cost of a site's requests in a round.
fn solve_cost_proxy(spec: &ScenarioSpec) -> f64 {
    spec.width_m
        * spec.depth_m
        * (1.0 - 0.5 * spec.obstacle_density)
        * (1.0 - 0.1 * f64::from(spec.horizon_class))
}

impl Inputs {
    /// Sites from `ScenarioSpec::generate(seed, i)`, and the seeded
    /// request sequence over them.
    ///
    /// A site's solve cost depends on its roof, so the cost of a round of
    /// `SITES` plain draws varies with the seed. The sites are therefore a
    /// stratified pick from `POOL_PER_SITE * SITES` generated specs by
    /// [`solve_cost_proxy`]; resampling 384 sites measured in-process, the
    /// pick narrows the spread of a round's cost across ten seeds
    /// (interquartile range over median) from about 0.09 to 0.07. The
    /// picked sites are put back in index order.
    fn generate(seed: u64) -> Inputs {
        let pool: Vec<ScenarioSpec> = (0..SITES * POOL_PER_SITE)
            .map(|i| ScenarioSpec::generate(seed, i as u32))
            .collect();
        let mut specs = stratified_pick(pool, POOL_PER_SITE, solve_cost_proxy);
        specs.sort_by_key(|spec| spec.index);
        let mut bodies = Vec::new();
        for spec in &specs {
            bodies.push(spec.to_spec_string());
            bodies.push(anneal_body(&spec.to_spec_string()));
        }
        let sequence = shuffled_rounds(seed, SITES, PER_ROUND, ROUNDS)
            .into_iter()
            .map(|item| {
                let (site, k) = (item / PER_ROUND, item % PER_ROUND);
                2 * site + usize::from(k >= GREEDY_PER_SITE)
            })
            .collect();
        Inputs {
            specs,
            bodies,
            expected: Vec::new(),
            sequence,
        }
    }

    /// Body index of each site's greedy request.
    fn greedy_bodies(&self) -> Vec<usize> {
        (0..self.specs.len()).map(|site| 2 * site).collect()
    }
}

/// What one closed-loop phase saw.
#[derive(Debug, Default)]
struct Phase {
    latencies_ms: Vec<f64>,
    pass_s: Vec<f64>,
    /// Completed requests per second of each pass.
    pass_rps: Vec<f64>,
    elapsed_s: f64,
    sent: u64,
    ok: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Phase {
    fn absorb(&mut self, other: Phase) {
        self.latencies_ms.extend(other.latencies_ms);
        self.pass_s.extend(other.pass_s);
        self.pass_rps.extend(other.pass_rps);
        self.elapsed_s += other.elapsed_s;
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(3);
    }

    fn p50_ms(&self) -> f64 {
        percentile(&self.latencies_ms, 0.5).map_or(0.0, |p| p.value)
    }

    /// Completed requests per second: the median over passes, so a burst
    /// of load from outside the run moves it less than a phase total.
    fn throughput(&self) -> f64 {
        median(&self.pass_rps)
    }

    /// Moves this phase's failures into the run's ledger.
    fn settle(&self, outcome: &mut Outcome, what: &str) {
        outcome.attempted += self.sent;
        if self.failed > 0 {
            outcome.fail(
                self.failed,
                format!(
                    "{what}: {} of {} request(s) failed, first: {}",
                    self.failed,
                    self.sent,
                    self.failures.first().map_or("?", String::as_str)
                ),
            );
        }
    }
}

/// Sends `items` (body indices) from `CLIENTS` threads, client `c` taking
/// every `CLIENTS`-th item, and checks each response against the
/// reference.
fn run_list<F>(send: &F, inputs: &Inputs, items: &[usize]) -> Phase
where
    F: Fn(usize) -> Result<(u16, String), String> + Sync,
{
    let t0 = Instant::now();
    let mut phase = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut phase = Phase::default();
                    for &body in items.iter().skip(c).step_by(CLIENTS) {
                        let t0 = Instant::now();
                        let result = send(body);
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        phase.sent += 1;
                        let problem = match result {
                            Ok((200, response)) if response == inputs.expected[body] => {
                                phase.ok += 1;
                                phase.latencies_ms.push(ms);
                                continue;
                            }
                            Ok((200, _)) => "response differs from the reference".to_string(),
                            Ok((status, response)) => format!("HTTP {status}: {response}"),
                            Err(e) => e,
                        };
                        phase.failed += 1;
                        if phase.failures.len() < 3 {
                            phase.failures.push(problem);
                        }
                    }
                    phase
                })
            })
            .collect();
        let mut total = Phase::default();
        for handle in handles {
            total.absorb(handle.join().expect("client thread panicked"));
        }
        total
    });
    phase.elapsed_s = t0.elapsed().as_secs_f64();
    phase
}

/// Passes of `PASS` requests over the sequence, from `offset` (advanced
/// past the requests sent), until `budget` is spent (at least one pass).
fn closed_loop<F>(send: &F, inputs: &Inputs, budget: Duration, offset: &mut usize) -> Phase
where
    F: Fn(usize) -> Result<(u16, String), String> + Sync,
{
    let start = Instant::now();
    let mut phase = Phase::default();
    while phase.pass_s.is_empty() || start.elapsed() < budget {
        let items: Vec<usize> = (0..PASS)
            .map(|j| inputs.sequence[(*offset + j) % inputs.sequence.len()])
            .collect();
        *offset += PASS;
        let pass = run_list(send, inputs, &items);
        phase.pass_s.push(pass.elapsed_s);
        phase
            .pass_rps
            .push(pass.ok as f64 / pass.elapsed_s.max(1e-9));
        phase.absorb(pass);
    }
    phase.elapsed_s = start.elapsed().as_secs_f64();
    phase
}

fn http_place(addr: SocketAddr, body: &str) -> Result<(u16, String), String> {
    send_request(addr, "POST", "/v1/place", body.as_bytes()).map_err(|e| e.to_string())
}

/// Answers every distinct body on a fresh single-threaded service with
/// the standard profile. Returns the (now warm) service.
fn reference(inputs: &mut Inputs, outcome: &mut Outcome) -> Arc<PlacementService> {
    let service = Arc::new(PlacementService::new(ServiceConfig::standard()));
    for body in &inputs.bodies {
        let (status, response) = service.handle(
            "POST",
            "/v1/place",
            body.as_bytes(),
            &RequestContext::default(),
        );
        if status != 200 {
            outcome.fail(1, format!("reference answered HTTP {status}: {response}"));
        }
        inputs.expected.push(response);
    }
    service
}

/// Shared state of one run.
struct Run<'a> {
    pvplan: &'a Path,
    threads: usize,
    tmp: &'a Path,
    fleets: usize,
}

impl Run<'_> {
    /// Starts a fleet on a fresh store and brings it to steady state with
    /// one cold greedy request per site: the timed set-up. Returns the
    /// fleet and the set-up seconds.
    fn setup(
        &mut self,
        inputs: &Inputs,
        outcome: &mut Outcome,
        trace: bool,
    ) -> Result<(Fleet, f64), String> {
        self.fleets += 1;
        let dir = self.tmp.join(format!("fleet{}", self.fleets));
        let spec = FleetSpec {
            pvplan: self.pvplan.to_path_buf(),
            shards: SHARDS,
            threads: self.threads,
            store: dir.join("store"),
            dir,
            trace,
        };
        let t0 = Instant::now();
        let mut fleet = Fleet::start(&spec)?;
        let cold = run_list(
            &|b| http_place(fleet.addr, &inputs.bodies[b]),
            inputs,
            &inputs.greedy_bodies(),
        );
        let setup_s = t0.elapsed().as_secs_f64();
        fleet.learn_pids()?;
        cold.settle(outcome, "cold pass");
        check_counter(outcome, "cold pass", 0.0, place_ok(&fleet)?, cold.ok);
        Ok((fleet, setup_s))
    }
}

fn place_ok_in(metrics: &str) -> Result<f64, String> {
    exposition_value(metrics, "pv_place_ok_total")
        .ok_or_else(|| "/v1/metrics has no pv_place_ok_total".to_string())
}

/// The fleet's `pv_place_ok_total`: the router sums the shards' counters,
/// so requests sent straight to a shard count too.
fn place_ok(fleet: &Fleet) -> Result<f64, String> {
    place_ok_in(&fleet.metrics()?)
}

/// The fleet's own ledger must match the client's: the scraped
/// `pv_place_ok_total` moves by exactly the requests that came back
/// correct. A failed request is already counted by [`Phase::settle`], so
/// only a disagreement on the successful ones counts here.
fn check_counter(outcome: &mut Outcome, what: &str, before: f64, after: f64, ok: u64) {
    let counted = after - before;
    if counted != ok as f64 {
        outcome.fail(
            (counted - ok as f64).abs().max(1.0) as u64,
            format!(
                "{what}: {ok} request(s) answered correctly but pv_place_ok_total moved by \
                 {counted}"
            ),
        );
    }
}

fn stat(stats: &JsonValue, key: &str) -> f64 {
    stats.get(key).and_then(JsonValue::as_number).unwrap_or(0.0)
}

/// Counters of `/v1/stats` over a phase.
#[derive(Default)]
struct StatsDelta {
    hits: f64,
    misses: f64,
    writes: f64,
    write_errors: f64,
}

impl StatsDelta {
    fn add(&mut self, other: &StatsDelta) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.writes += other.writes;
        self.write_errors += other.write_errors;
    }

    fn between(before: &JsonValue, after: &JsonValue) -> Self {
        let d = |k: &str| stat(after, k) - stat(before, k);
        Self {
            hits: d("cache_hits"),
            misses: d("cache_misses"),
            writes: d("store_writes"),
            write_errors: d("store_write_errors"),
        }
    }

    fn hit_rate(&self) -> f64 {
        self.hits / (self.hits + self.misses).max(1.0)
    }
}

/// A measured phase through the router, with its counter check.
struct Routed {
    phase: Phase,
    stats: StatsDelta,
    metrics_before: String,
    metrics_after: String,
    queue_depth_max: f64,
}

fn routed_phase(
    fleet: &Fleet,
    inputs: &Inputs,
    budget: Duration,
    offset: &mut usize,
    sample_queue: bool,
    outcome: &mut Outcome,
) -> Result<Routed, String> {
    let stats_before = fleet.stats()?;
    let metrics_before = fleet.metrics()?;
    let ok_before = place_ok_in(&metrics_before)?;
    let stop = AtomicBool::new(false);
    let (phase, depths) = std::thread::scope(|scope| {
        let sampler = sample_queue.then(|| {
            scope.spawn(|| {
                let mut depths = Vec::new();
                while !stop.load(Ordering::SeqCst) {
                    if let Ok(stats) = fleet.stats() {
                        depths.push(stat(&stats, "queue_depth"));
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
                depths
            })
        });
        let phase = closed_loop(
            &|b| http_place(fleet.addr, &inputs.bodies[b]),
            inputs,
            budget,
            offset,
        );
        stop.store(true, Ordering::SeqCst);
        let depths = sampler.map_or_else(Vec::new, |s| s.join().expect("sampler panicked"));
        (phase, depths)
    });
    let stats_after = fleet.stats()?;
    let metrics_after = fleet.metrics()?;
    let ok_after = place_ok_in(&metrics_after)?;
    phase.settle(outcome, "measured phase");
    check_counter(outcome, "measured phase", ok_before, ok_after, phase.ok);
    Ok(Routed {
        stats: StatsDelta::between(&stats_before, &stats_after),
        phase,
        metrics_before,
        metrics_after,
        queue_depth_max: depths.into_iter().fold(0.0, f64::max),
    })
}

/// Removes the run's temporary directory on every exit path.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

pub fn run(seed: u64, seconds: u64, trace: bool, threads: usize, pvplan: &Path) -> Outcome {
    let mut outcome = Outcome::new("route_warm");
    let tmp = TempDir(
        PathBuf::from(".bench_tmp").join(format!("route_warm-{seed}-{}", std::process::id())),
    );
    let result = run_inner(seed, seconds, trace, threads, pvplan, &tmp.0, &mut outcome);
    if let Err(e) = result {
        outcome.fail(1, e);
    }
    drop(tmp);
    outcome
}

fn run_inner(
    seed: u64,
    seconds: u64,
    trace: bool,
    threads: usize,
    pvplan: &Path,
    tmp: &Path,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(tmp);
    std::fs::create_dir_all(tmp).map_err(|e| format!("creating {}: {e}", tmp.display()))?;
    let mut inputs = Inputs::generate(seed);
    outcome.note(format!(
        "inputs: {} site(s), a stratified pick from ScenarioSpec::generate({seed}, i) for i < {}, \
         {} distinct bod(ies), sequence of {} ({} anneal), shuffled rounds of {GREEDY_PER_SITE} greedy + \
         {ANNEAL_PER_SITE} anneal request(s) per site",
        inputs.specs.len(),
        SITES * POOL_PER_SITE,
        inputs.bodies.len(),
        inputs.sequence.len(),
        inputs
            .sequence
            .iter()
            .filter(|&&b| inputs.bodies[b].starts_with('{'))
            .count(),
    ));
    outcome.note(format!(
        "fleet: pvplan route --shards {SHARDS} --profile standard --threads {threads}; \
         {CLIENTS} closed-loop client(s), one connection each",
    ));
    let service = reference(&mut inputs, outcome);
    if !outcome.failures.is_empty() {
        return Err("the reference service rejected the workload".into());
    }
    let mut run = Run {
        pvplan,
        threads,
        tmp,
        fleets: 0,
    };
    let seconds = Duration::from_secs(seconds);
    if trace {
        traced(&mut run, &inputs, &service, seconds, outcome)
    } else {
        untraced(&mut run, &inputs, seconds, outcome)
    }
}

fn untraced(
    run: &mut Run,
    inputs: &Inputs,
    seconds: Duration,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let (mut setup, mut rss) = (Vec::new(), Vec::new());
    let mut phase = Phase::default();
    let mut stats = StatsDelta::default();
    let mut offset = 0;
    for _ in 0..SETUPS {
        let (fleet, setup_s) = run.setup(inputs, outcome, false)?;
        setup.push(setup_s);
        let budget = seconds / SETUPS as u32;
        let routed = routed_phase(&fleet, inputs, budget, &mut offset, false, outcome)?;
        rss.push(fleet.peak_rss_mb()?);
        stats.add(&routed.stats);
        phase.absorb(routed.phase);
        fleet.stop()?;
    }

    outcome.metric("setup_s", median(&setup), "s", setup.len());
    outcome.metric("wall_s", median(&phase.pass_s), "s", phase.pass_s.len());
    outcome.metric(
        "throughput_rps",
        phase.throughput(),
        "1/s",
        phase.pass_rps.len(),
    );
    outcome.metric("p50_ms", phase.p50_ms(), "ms", phase.latencies_ms.len());
    outcome.metric("peak_rss_mb", median(&rss), "MB", rss.len());
    match percentile(&phase.latencies_ms, 0.99) {
        Some(p99) if p99.reportable() => outcome.note(format!(
            "p99_ms {:.4} over {} sample(s), {} beyond it",
            p99.value, p99.samples, p99.beyond
        )),
        Some(p99) => outcome.note(format!(
            "p99_ms not reported: {} sample(s), only {} beyond it",
            p99.samples, p99.beyond
        )),
        None => {}
    }
    let quartile = |q: f64| percentile(&phase.pass_rps, q).map_or(0.0, |p| p.value);
    outcome.note(format!(
        "pass throughput quartiles {:.1} / {:.1} / {:.1} rps",
        quartile(0.25),
        quartile(0.5),
        quartile(0.75)
    ));
    outcome.note(format!(
        "measured {:.2} s over {} fleet(s), {} pass(es), cache hit rate {:.4} ({} miss(es)), \
         {} store write(s)",
        phase.elapsed_s,
        rss.len(),
        phase.pass_s.len(),
        stats.hit_rate(),
        stats.misses,
        stats.writes
    ));
    Ok(())
}

/// Per-stage p50 and total over a phase, from the `pv_stage_us`
/// histograms of `/v1/metrics`.
fn stage_layers(layers: &mut Layers, before: &str, after: &str) {
    for stage in STAGES {
        let delta: ExpoHistogram = exposition_histogram(before, "pv_stage_us", stage)
            .delta(&exposition_histogram(after, "pv_stage_us", stage));
        layers.set(&format!("server.stage_{stage}_p50_us"), delta.p50());
        layers.set(&format!("server.stage_{stage}_total_ms"), delta.sum / 1e3);
    }
}

fn traced(
    run: &mut Run,
    inputs: &Inputs,
    service: &Arc<PlacementService>,
    seconds: Duration,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let slice = seconds / 5;
    let mut layers = Layers::zero();

    // The stack without the network: the warm reference service, then the
    // same service behind the transport over loopback.
    let in_process = closed_loop(
        &|b| {
            Ok(service.handle(
                "POST",
                "/v1/place",
                inputs.bodies[b].as_bytes(),
                &RequestContext::default(),
            ))
        },
        inputs,
        slice,
        &mut 0,
    );
    in_process.settle(outcome, "in-process service");
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(service),
        Runtime::with_threads(run.threads),
        64,
    )
    .map_err(|e| format!("binding the in-process server: {e}"))?;
    let addr = server.local_addr();
    let loopback = closed_loop(
        &|b| http_place(addr, &inputs.bodies[b]),
        inputs,
        slice,
        &mut 0,
    );
    server.shutdown();
    loopback.settle(outcome, "in-process server");
    let service_us = in_process.p50_ms() * 1e3;
    layers.set("server.service_handle_us", service_us);
    layers.set(
        "server.transport_us",
        layer_cost(loopback.p50_ms() * 1e3, service_us),
    );

    // The fleet untraced: through the router, then straight to each
    // request's owning shard. Both routed phases sample the queue depth,
    // so the trace log is all that differs between them.
    let (fleet, _) = run.setup(inputs, outcome, false)?;
    let plain = routed_phase(&fleet, inputs, slice, &mut 0, true, outcome)?;
    let ring = HashRing::new(SHARDS);
    let owner: Vec<usize> = inputs
        .bodies
        .iter()
        .map(|b| ring.shard_for(place_shard_key(b.as_bytes())))
        .collect();
    let ok_before = place_ok(&fleet)?;
    let direct = closed_loop(
        &|b| http_place(fleet.shard_addrs[owner[b]], &inputs.bodies[b]),
        inputs,
        slice,
        &mut 0,
    );
    direct.settle(outcome, "direct to shards");
    check_counter(
        outcome,
        "direct to shards",
        ok_before,
        place_ok(&fleet)?,
        direct.ok,
    );
    fleet.stop()?;
    layers.set(
        "server.router_hop_us",
        layer_cost(plain.phase.p50_ms() * 1e3, direct.p50_ms() * 1e3),
    );
    let mut per_shard = vec![0usize; SHARDS];
    for &b in &inputs.sequence {
        per_shard[owner[b]] += 1;
    }
    layers.set("server.ring_max_share", max_share(&per_shard));

    // The fleet traced: the same phase with --trace-log on.
    let (fleet, _) = run.setup(inputs, outcome, true)?;
    let traced = routed_phase(&fleet, inputs, slice, &mut 0, true, outcome)?;
    let store_root = run.tmp.join(format!("fleet{}", run.fleets)).join("store");
    fleet.stop()?;
    layers.set("server.cache_hit_rate", traced.stats.hit_rate());
    layers.set("server.cache_misses", traced.stats.misses);
    layers.set("server.queue_depth_max", traced.queue_depth_max);
    layers.set("store.writes", traced.stats.writes);
    layers.set("store.write_errors", traced.stats.write_errors);
    stage_layers(&mut layers, &traced.metrics_before, &traced.metrics_after);
    layers.set(
        "obs.trace_dropped",
        exposition_value(&traced.metrics_after, "pv_trace_dropped_total").unwrap_or(0.0),
    );
    let base = plain.phase.throughput();
    layers.set(
        "obs.trace_overhead_pct",
        (base - traced.phase.throughput()) / base.max(1e-9) * 100.0,
    );

    // Store hydration: what the traced fleet wrote behind its responses.
    let t0 = Instant::now();
    let mut hydrated = 0usize;
    for shard in 0..SHARDS {
        let store = SiteStore::open_shard(&store_root, shard).map_err(|e| e.to_string())?;
        hydrated += black_box(store.hydrate().map_err(|e| e.to_string())?).len();
    }
    layers.set("store.hydrate_s", t0.elapsed().as_secs_f64());
    layers.set("store.hydrated_sites", hydrated as f64);

    site_layers(&mut layers, inputs, &run.tmp.join("save"), outcome)?;
    parse_layers(&mut layers, inputs);
    outcome.note(format!(
        "traced phase {:.0} rps vs untraced {:.0} rps; in-process p50 {:.1} us, \
         loopback p50 {:.1} us, routed p50 {:.1} us, direct p50 {:.1} us",
        traced.phase.throughput(),
        base,
        service_us,
        loopback.p50_ms() * 1e3,
        plain.phase.p50_ms() * 1e3,
        direct.p50_ms() * 1e3,
    ));
    outcome.layers = Some(layers);
    Ok(())
}

/// Extraction, suitability, the two solves and the snapshot save, called
/// in-process on the workload's first sites the way the service does.
fn site_layers(
    layers: &mut Layers,
    inputs: &Inputs,
    save_dir: &Path,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let config = ServiceConfig::standard();
    let clock = SimulationClock::days_at_minutes(config.days, config.step_minutes);
    let store = SiteStore::open(save_dir).map_err(|e| e.to_string())?;
    let (mut extract_s, mut cell_steps, mut suitability_s) = (0.0, 0.0, 0.0);
    let (mut greedy_us, mut anneal_us, mut save_ms, mut bytes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (site, spec) in inputs.specs.iter().enumerate().take(LAYER_SITES) {
        let scenario = spec.build();
        let t0 = Instant::now();
        let dataset = scenario
            .extractor(clock)
            .horizon_sectors(config.horizon_sectors)
            .runtime(Runtime::sequential())
            .extract(&scenario.dsm);
        extract_s += t0.elapsed().as_secs_f64();
        let steps = dataset.num_steps() as usize;
        cell_steps += (dataset.valid().count() * steps) as f64;
        let probe = FloorplanConfig::paper(Topology::new(1, 1).map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let map = SuitabilityMap::compute(&dataset, &probe);
        suitability_s += t0.elapsed().as_secs_f64();

        // The topology the reference response chose for this site.
        let response = pv_json::parse(&inputs.expected[2 * site])
            .map_err(|e| format!("reference response: {e}"))?;
        let field = |k: &str| {
            response
                .get(k)
                .and_then(JsonValue::as_number)
                .unwrap_or(0.0)
        };
        let topology = Topology::new(field("series") as usize, field("strings") as usize)
            .map_err(|e| e.to_string())?;
        let placement = FloorplanConfig::paper(topology).map_err(|e| e.to_string())?;
        let memo = TraceMemo::with_byte_budget((steps * 8 * 1024).clamp(256 << 10, 64 << 20));
        let options = PlacerOptions {
            anneal_iterations: config.anneal_iterations,
            seed: spec.seed,
            exact_budget: config.exact_budget,
        };
        for (placer, reps, out) in [
            (Placer::Greedy, 6, &mut greedy_us),
            (Placer::Anneal, 4, &mut anneal_us),
        ] {
            for rep in 0..reps {
                let t0 = Instant::now();
                let result = placer.place_with_memo(
                    &dataset,
                    &placement,
                    &map,
                    &options,
                    Runtime::sequential(),
                    &memo,
                );
                let us = t0.elapsed().as_secs_f64() * 1e6;
                outcome.attempted += 1;
                if let Err(e) = black_box(result) {
                    outcome.fail(1, format!("{} solve on site {site}: {e}", placer.name()));
                }
                // The first call warms the memo, as the cold pass does.
                if rep > 0 {
                    out.push(us);
                }
            }
        }
        let meta = SnapshotMeta {
            spec: spec.to_spec_string(),
            days: config.days,
            step_minutes: config.step_minutes,
            horizon_sectors: config.horizon_sectors as u32,
        };
        let key = spec.canonical_hash();
        let t0 = Instant::now();
        store
            .save(key, &meta, &dataset, &map, &memo)
            .map_err(|e| e.to_string())?;
        save_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let len = std::fs::metadata(store.path_for(key)).map_or(0, |m| m.len());
        bytes.push(len as f64);
    }
    layers.set("gis.extract_s", extract_s);
    layers.set("gis.cell_steps", cell_steps);
    layers.set("floorplan.suitability_s", suitability_s);
    layers.set("floorplan.solve_greedy_us", median(&greedy_us));
    layers.set("floorplan.solve_anneal_us", median(&anneal_us));
    layers.set("store.save_ms", median(&save_ms));
    layers.set("store.snapshot_bytes", median(&bytes));
    Ok(())
}

/// `PlaceRequest::parse` and `http::read_request` over the workload's
/// bodies, as the median time per call over repeated rounds.
fn parse_layers(layers: &mut Layers, inputs: &Inputs) {
    const ROUNDS: usize = 200;
    let raw: Vec<Vec<u8>> = inputs
        .bodies
        .iter()
        .map(|body| {
            let mut bytes = format!(
                "POST /v1/place HTTP/1.1\r\nHost: pv\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n",
                body.len()
            )
            .into_bytes();
            bytes.extend_from_slice(body.as_bytes());
            bytes
        })
        .collect();
    let n = inputs.bodies.len() as f64;
    let (mut parse_us, mut read_us) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        for body in &inputs.bodies {
            let _ = black_box(PlaceRequest::parse(black_box(body)));
        }
        parse_us.push(t0.elapsed().as_secs_f64() * 1e6 / n);
        let t0 = Instant::now();
        for bytes in &raw {
            let mut reader: &[u8] = black_box(bytes);
            let _ = black_box(read_request(&mut reader));
        }
        read_us.push(t0.elapsed().as_secs_f64() * 1e6 / n);
    }
    layers.set("json.place_parse_us", median(&parse_us));
    layers.set("http.read_request_us", median(&read_us));
}
