//! The serving stats model: one [`StatsSnapshot`] that a service fills,
//! the router merges, and both render twice — as JSON for `/v1/stats` and
//! as Prometheus text for `/v1/metrics`.
//!
//! Everything here is *observability*, deliberately kept out of
//! `/v1/place` response bodies so the determinism contract (response is a
//! pure function of the request) survives instrumentation.
//!
//! Every scalar is declared once, in the `snapshot_fields!` table below,
//! with its kind and its merge rule. Its JSON key is its field name; its
//! exposition name is `pv_<key>_total` for a counter and `pv_<key>` for a
//! gauge. Across shards, counters and cache sizes add, `queue_depth`
//! takes the maximum, and the latency and stage histograms merge bucket
//! by bucket, which is exact ([`pv_obs::Histogram`]): fleet quantiles are
//! the quantiles of the pooled request stream. [`percentile_us`] stays
//! for callers with exact client-side sample sets (the `loadgen`
//! harness).

use std::sync::{Mutex, PoisonError};

use pv_json::{JsonValue, ObjectBuilder};
use pv_obs::{Exposition, Histogram, Stage, StageHistograms, StageTimes};

/// How a scalar is exposed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// Monotone count, exposed as `pv_<key>_total`.
    Counter,
    /// Point-in-time value, exposed as `pv_<key>`.
    Gauge,
}

/// How a scalar combines across shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Merge {
    Sum,
    Max,
}

/// One scalar's declaration.
struct Decl {
    key: &'static str,
    kind: Kind,
    merge: Merge,
    help: &'static str,
}

/// Declares the scalars of [`StatsSnapshot`] once: the struct fields, their
/// [`Decl`] table, and the by-position views that `merge`, the renderers
/// and the decoder walk.
macro_rules! snapshot_fields {
    ($($field:ident: $kind:ident, $merge:ident, $help:literal;)+) => {
        /// A point-in-time copy of one service's stats, or of a fleet's
        /// merged stats.
        #[derive(Clone, Debug, Default, PartialEq)]
        pub struct StatsSnapshot {
            $(#[doc = $help] pub $field: u64,)+
            /// End-to-end `/v1/place` latency, microseconds.
            pub latency: Histogram,
            /// Per-stage span durations, microseconds.
            pub stages: StageHistograms,
            /// Facts only the router knows; `None` on a single service.
            pub fleet: Option<Fleet>,
        }

        /// The scalar declarations, in field order.
        const FIELDS: &[Decl] = &[$(Decl {
            key: stringify!($field),
            kind: Kind::$kind,
            merge: Merge::$merge,
            help: $help,
        }),+];

        impl StatsSnapshot {
            /// The scalar values, in [`FIELDS`] order.
            fn values(&self) -> [u64; FIELDS.len()] {
                [$(self.$field),+]
            }

            /// The scalar slots, in [`FIELDS`] order.
            fn values_mut(&mut self) -> [&mut u64; FIELDS.len()] {
                [$(&mut self.$field),+]
            }
        }
    };
}

snapshot_fields! {
    requests: Counter, Sum, "Requests routed, any endpoint.";
    place_ok: Counter, Sum, "Successful /v1/place solves.";
    errors: Counter, Sum, "Requests answered with a 4xx/5xx.";
    cache_hits: Counter, Sum, "Warm site-cache hits.";
    cache_misses: Counter, Sum, "Cold site extractions.";
    store_hits: Counter, Sum, "Cache hits on store-hydrated entries.";
    store_hydrated: Counter, Sum, "Snapshots decoded from the store at hydration.";
    store_quarantined: Counter, Sum, "Damaged snapshots moved aside at hydration.";
    store_skipped: Counter, Sum, "Valid snapshots skipped for a different extraction horizon.";
    store_writes: Counter, Sum, "Snapshots committed to the store.";
    store_write_errors: Counter, Sum, "Snapshot writes that failed with an I/O error.";
    trace_dropped: Counter, Sum, "Trace events lost to a full ring or failed writes.";
    cache_entries: Gauge, Sum, "Sites in the warm cache.";
    cache_bytes: Gauge, Sum, "Estimated bytes held by the warm cache.";
    cache_budget_bytes: Gauge, Sum, "Byte budget of the warm cache.";
    queue_depth: Gauge, Max, "Accepted connections awaiting a worker.";
}

/// What only the router knows about its fleet.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Fleet {
    /// Workers in the fleet.
    pub shards: u64,
    /// Workers whose stats answered the fan-out.
    pub shards_up: u64,
    /// Worker respawns since the router started.
    pub shard_restarts: u64,
    /// Process ids of the live workers, in shard order.
    pub shard_pids: Vec<u32>,
}

impl Fleet {
    /// The scalar fleet facts as `(key, help, value)` gauges.
    fn gauges(&self) -> [(&'static str, &'static str, u64); 3] {
        [
            ("shards", "Workers in the fleet.", self.shards),
            (
                "shards_up",
                "Workers that answered the stats fan-out.",
                self.shards_up,
            ),
            (
                "shard_restarts",
                "Worker respawns since the router started.",
                self.shard_restarts,
            ),
        ]
    }
}

impl StatsSnapshot {
    /// Cache hits over all cache lookups, in `[0, 1]` (0 when none yet).
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache_hits as f64 / self.lookups()
    }

    /// Cache lookups so far, at least 1 so rates stay finite.
    fn lookups(&self) -> f64 {
        self.cache_hits.saturating_add(self.cache_misses).max(1) as f64
    }

    /// Folds `other` in by each field's merge rule, and merges the
    /// histograms bucket by bucket. Fleet facts are not merged: the router
    /// sets them on the merged view.
    pub fn merge(&mut self, other: &StatsSnapshot) {
        for ((decl, mine), theirs) in FIELDS.iter().zip(self.values_mut()).zip(other.values()) {
            *mine = match decl.merge {
                Merge::Sum => mine.saturating_add(theirs),
                Merge::Max => (*mine).max(theirs),
            };
        }
        self.latency.merge(&other.latency);
        self.stages.merge(&other.stages);
    }

    /// Renders the `/v1/stats` body: every scalar, the derived hit rates
    /// and latency quantiles, the fleet facts when present, and the sparse
    /// histogram encodings a router merges.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut doc = ObjectBuilder::new();
        for (decl, value) in FIELDS.iter().zip(self.values()) {
            doc = doc.field(decl.key, value as f64);
        }
        let quantile_ms = |q| pv_json::rounded(self.latency.quantile(q) as f64 / 1e3, 3);
        doc = doc
            .field("cache_hit_rate", pv_json::rounded(self.cache_hit_rate(), 4))
            .field(
                "store_hit_rate",
                pv_json::rounded(self.store_hits as f64 / self.lookups(), 4),
            )
            .field("p50_ms", quantile_ms(0.50))
            .field("p99_ms", quantile_ms(0.99));
        if let Some(fleet) = &self.fleet {
            for (key, _, value) in fleet.gauges() {
                doc = doc.field(key, value as f64);
            }
            let pids: Vec<JsonValue> = fleet.shard_pids.iter().map(|&pid| pid.into()).collect();
            doc = doc.field("shard_pids", pids);
        }
        doc.field("latency_hist", self.latency.to_sparse())
            .field("stage_hists", self.stages.to_sparse())
            .build()
            .to_json_string()
    }

    /// Renders the `/v1/metrics` body in the Prometheus text format.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let mut doc = Exposition::new();
        for (decl, value) in FIELDS.iter().zip(self.values()) {
            match decl.kind {
                Kind::Counter => doc.counter(&format!("pv_{}_total", decl.key), decl.help, value),
                Kind::Gauge => doc.gauge(&format!("pv_{}", decl.key), decl.help, value as f64),
            }
        }
        doc.gauge(
            "pv_cache_hit_rate",
            "Cache hits over lookups.",
            self.cache_hit_rate(),
        );
        if let Some(fleet) = &self.fleet {
            for (key, help, value) in fleet.gauges() {
                doc.gauge(&format!("pv_{key}"), help, value as f64);
            }
        }
        doc.histogram(
            "pv_place_latency_us",
            "End-to-end /v1/place latency, microseconds.",
            None,
            &self.latency,
        );
        for stage in Stage::ALL {
            let hist = self.stages.get(stage);
            if !hist.is_empty() {
                doc.histogram(
                    "pv_stage_us",
                    "Per-stage span duration, microseconds.",
                    Some(("stage", stage.name())),
                    hist,
                );
            }
        }
        doc.finish()
    }

    /// Decodes a shard's `/v1/stats` body. Returns `None` on anything
    /// malformed — not JSON, a scalar missing, negative or fractional, a
    /// bad histogram encoding — so one broken shard answer drops out of
    /// the merge instead of failing it. Derived rates and fleet facts are
    /// not read: the merged view recomputes them.
    #[must_use]
    pub fn decode(body: &str) -> Option<StatsSnapshot> {
        let doc = pv_json::parse(body).ok()?;
        let mut snap = StatsSnapshot {
            latency: Histogram::from_sparse(doc.get("latency_hist")?)?,
            stages: StageHistograms::from_sparse(doc.get("stage_hists")?)?,
            ..StatsSnapshot::default()
        };
        for (decl, slot) in FIELDS.iter().zip(snap.values_mut()) {
            let value = doc.get(decl.key)?.as_number()?;
            if value < 0.0 || value.fract() != 0.0 {
                return None;
            }
            *slot = value as u64;
        }
        Some(snap)
    }
}

/// Shared, thread-safe live stats of one service: the request counters
/// and histograms it records itself. Cache sizes, store and trace counters
/// and the queue depth belong to other owners and are filled in when the
/// service takes its snapshot.
#[derive(Debug, Default)]
pub struct ServiceStats {
    live: Mutex<StatsSnapshot>,
}

impl ServiceStats {
    /// Fresh zeroed stats.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies one update. Every update leaves the snapshot valid at each
    /// step, so a lock poisoned by a panicking holder is recovered: requests
    /// must keep flowing and keep being counted.
    fn update(&self, apply: impl FnOnce(&mut StatsSnapshot)) {
        apply(&mut self.live.lock().unwrap_or_else(PoisonError::into_inner));
    }

    /// Counts one routed request.
    pub fn record_request(&self) {
        self.update(|s| s.requests += 1);
    }

    /// Counts one error response.
    pub fn record_error(&self) {
        self.update(|s| s.errors += 1);
    }

    /// Counts one cache hit that landed on a store-hydrated entry.
    pub fn record_store_hit(&self) {
        self.update(|s| s.store_hits += 1);
    }

    /// Counts one successful place solve: its cache outcome and latency.
    pub fn record_place(&self, cache_hit: bool, latency_us: u64) {
        self.update(|s| {
            s.place_ok += 1;
            if cache_hit {
                s.cache_hits += 1;
            } else {
                s.cache_misses += 1;
            }
            s.latency.record(latency_us);
        });
    }

    /// Records the per-stage span durations of one request into the
    /// aggregate stage histograms.
    pub fn record_stages(&self, times: &StageTimes) {
        self.update(|s| s.stages.record(times));
    }

    /// A copy of everything recorded so far.
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        self.live
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// Nearest-rank percentile over an unsorted microsecond sample set
/// (0 when empty). Kept for callers that hold *exact* sample sets —
/// the `loadgen` harness's client-side latencies — while the service
/// itself reports from the histogram (same nearest-rank rule, bucket
/// resolution).
#[must_use]
pub fn percentile_us(samples_us: &[u64], q: f64) -> f64 {
    if samples_us.is_empty() {
        return 0.0;
    }
    let mut sorted = samples_us.to_vec();
    sorted.sort_unstable();
    let idx = (q * sorted.len() as f64).ceil() as usize;
    sorted
        .get(idx.clamp(1, sorted.len()) - 1)
        .map_or(0.0, |&v| v as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A snapshot with a distinct value in every scalar and samples in
    /// both histogram kinds.
    fn varied(offset: u64) -> StatsSnapshot {
        let mut snap = StatsSnapshot::default();
        for (i, slot) in snap.values_mut().into_iter().enumerate() {
            *slot = offset + 3 * i as u64 + 1;
        }
        for v in [90, 1_500, 40_000 + offset] {
            snap.latency.record(v);
        }
        let mut times = StageTimes::default();
        times.add(Stage::Solve, 700 + offset);
        times.add(Stage::Encode, 12);
        snap.stages.record(&times);
        snap
    }

    /// The value of an unlabeled exposition sample.
    fn exposed(text: &str, name: &str) -> Option<f64> {
        text.lines().find_map(|line| {
            line.strip_prefix(name)?
                .strip_prefix(' ')
                .and_then(|value| value.parse().ok())
        })
    }

    #[test]
    fn json_and_exposition_carry_the_same_value_for_every_field() {
        let mut snap = varied(10);
        snap.fleet = Some(Fleet {
            shards: 3,
            shards_up: 2,
            shard_restarts: 5,
            shard_pids: vec![41, 42],
        });
        let json = pv_json::parse(&snap.render_json()).unwrap();
        let text = snap.render_prometheus();
        let mut scalars: Vec<(String, Kind)> = FIELDS
            .iter()
            .map(|decl| (decl.key.to_string(), decl.kind))
            .collect();
        let fleet = snap.fleet.as_ref().unwrap();
        scalars.extend(
            fleet
                .gauges()
                .map(|(key, _, _)| (key.to_string(), Kind::Gauge)),
        );
        for (key, kind) in scalars {
            let name = match kind {
                Kind::Counter => format!("pv_{key}_total"),
                Kind::Gauge => format!("pv_{key}"),
            };
            let in_json = json.get(&key).and_then(JsonValue::as_number);
            assert!(in_json.is_some(), "{key} missing from JSON");
            assert_eq!(in_json, exposed(&text, &name), "{key} vs {name}");
        }
        assert_eq!(
            exposed(&text, "pv_cache_hit_rate"),
            Some(snap.cache_hit_rate())
        );
        assert!(text.contains("pv_place_latency_us_count 3"), "{text}");
        assert!(text.contains("pv_stage_us_count{stage=\"solve\"} 1"));
        let pids = json.get("shard_pids").and_then(JsonValue::as_array);
        assert_eq!(pids.map(<[JsonValue]>::len), Some(2));
    }

    #[test]
    fn merge_sums_counters_maxes_queue_depth_and_pools_histograms() {
        let mut left = varied(0);
        let mut right = varied(100);
        left.queue_depth = 7;
        right.queue_depth = 2;
        let mut pooled = Histogram::new();
        for (i, v) in (1..=400u64).map(|i| i * i * 37 % 90_001).enumerate() {
            if i % 3 == 0 {
                left.latency.record(v);
            } else {
                right.latency.record(v);
            }
        }
        pooled.merge(&left.latency);
        pooled.merge(&right.latency);

        let mut merged = left.clone();
        merged.merge(&right);
        assert_eq!(merged.queue_depth, 7);
        assert_eq!(merged.place_ok, left.place_ok + right.place_ok);
        for ((decl, got), (l, r)) in FIELDS
            .iter()
            .zip(merged.values())
            .zip(left.values().into_iter().zip(right.values()))
        {
            let want = match decl.merge {
                Merge::Sum => l + r,
                Merge::Max => l.max(r),
            };
            assert_eq!(got, want, "{}", decl.key);
        }
        for q in [0.5, 0.9, 0.99, 1.0] {
            assert_eq!(merged.latency.quantile(q), pooled.quantile(q), "q={q}");
        }
        assert_eq!(merged.latency.count(), 406);
        assert_eq!(merged.stages.get(Stage::Solve).count(), 2);
    }

    #[test]
    fn decode_inverts_render_json() {
        for snap in [StatsSnapshot::default(), varied(5), varied(1 << 40)] {
            assert_eq!(StatsSnapshot::decode(&snap.render_json()), Some(snap));
        }
    }

    #[test]
    fn malformed_bodies_decode_to_none() {
        let body = varied(0).render_json();
        for cut in [0, 1, body.len() / 2, body.len() - 1] {
            assert_eq!(StatsSnapshot::decode(&body[..cut]), None, "cut {cut}");
        }
        let place_ok = format!("\"place_ok\": {}", varied(0).place_ok);
        for bad in [
            body.replace(&place_ok, "\"place_ok\": \"2\""),
            body.replace(&place_ok, "\"place_ok\": -2"),
            body.replace(&place_ok, "\"place_ok\": 2.5"),
            body.replace(&place_ok, "\"place_okay\": 2"),
            body.replace("\"latency_hist\": [", "\"latency_hist\": [[1, 2, 3], "),
            body.replace("\"stage_hists\": {", "\"stage_hists\": {\"solve\": 4, "),
            "[]".to_string(),
            "\"stats\"".to_string(),
        ] {
            assert_ne!(bad, body);
            assert_eq!(StatsSnapshot::decode(&bad), None, "{bad}");
        }
    }

    #[test]
    fn counters_accumulate() {
        let stats = ServiceStats::new();
        stats.record_request();
        stats.record_request();
        stats.record_error();
        stats.record_place(true, 1_000);
        stats.record_place(false, 3_000);
        stats.record_store_hit();
        let snap = stats.snapshot();
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.errors, 1);
        assert_eq!(snap.place_ok, 2);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.store_hits, 1);
        assert!((snap.cache_hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(snap.latency.count(), 2);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_us(&samples, 0.50), 50.0);
        assert_eq!(percentile_us(&samples, 0.99), 99.0);
        assert_eq!(percentile_us(&[], 0.50), 0.0);
        assert_eq!(percentile_us(&[7], 0.99), 7.0);
        assert_eq!(percentile_us(&samples, 1.0), 100.0);
    }

    #[test]
    fn snapshot_quantiles_come_from_the_histogram() {
        let stats = ServiceStats::new();
        for i in 0..10_000u64 {
            stats.record_place(false, 1_000 + i);
        }
        let snap = stats.snapshot();
        assert_eq!(snap.latency.count(), 10_000);
        let json = pv_json::parse(&snap.render_json()).unwrap();
        let ms = |key: &str| json.get(key).and_then(JsonValue::as_number).unwrap();
        let (p50, p99) = (ms("p50_ms"), ms("p99_ms"));
        assert_eq!(p50, snap.latency.quantile(0.50) as f64 / 1e3);
        assert_eq!(p99, snap.latency.quantile(0.99) as f64 / 1e3);
        // Within one bucket (≤ 25%) of the exact nearest-rank values.
        assert!((p50 - 6.0).abs() / 6.0 < 0.25, "p50 {p50}");
        assert!((p99 - 10.9).abs() / 10.9 < 0.25, "p99 {p99}");
    }

    #[test]
    fn stage_recordings_land_in_their_histograms() {
        let stats = ServiceStats::new();
        let mut times = StageTimes::default();
        times.add(Stage::CacheLookup, 5);
        times.add(Stage::Solve, 800);
        stats.record_stages(&times);
        let stages = stats.snapshot().stages;
        assert_eq!(stages.get(Stage::Solve).count(), 1);
        assert_eq!(stages.get(Stage::CacheLookup).count(), 1);
        assert_eq!(stages.get(Stage::Extract).count(), 0);
    }

    #[test]
    fn hit_rate_is_zero_without_lookups() {
        assert_eq!(ServiceStats::new().snapshot().cache_hit_rate(), 0.0);
    }
}
