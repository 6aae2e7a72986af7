//! The benchmark's pure parts: the seeded request sequence, percentiles that
//! carry their sample counts, latency subtraction between stacked phases,
//! and parsing of the program's `/v1/metrics` exposition text.

use std::collections::BTreeMap;

/// SplitMix64: a tiny seeded generator, so the request sequence depends
/// only on the benchmark seed and this file.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// `rounds` rounds in which every one of `sites` sites is requested
/// `per_site` times, each round shuffled by the seed: every window of one
/// round holds the same requests, so passes differ only in order.
/// Deterministic per seed; the items are `site * per_site + k`.
pub fn shuffled_rounds(seed: u64, sites: usize, per_site: usize, rounds: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed ^ 0x0057_A7E5);
    let mut sequence = Vec::with_capacity(sites * per_site * rounds);
    for _ in 0..rounds {
        let mut round: Vec<usize> = (0..sites * per_site).collect();
        for i in (1..round.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            round.swap(i, j);
        }
        sequence.extend(round);
    }
    sequence
}

/// Stratified pick: sorts `pool` by `key` (ties keep pool order), cuts it
/// into strata of `per` consecutive items and keeps the middle item of
/// each. The picked items' keys follow the pool's distribution closely
/// whatever the pool's draw, so a sum of costs that track the key varies
/// less between pools than over a plain sample of the same size.
pub fn stratified_pick<T>(mut pool: Vec<T>, per: usize, key: impl Fn(&T) -> f64) -> Vec<T> {
    let per = per.max(1);
    pool.sort_by(|a, b| key(a).total_cmp(&key(b)));
    pool.into_iter().skip(per / 2).step_by(per).collect()
}

/// A nearest-rank percentile with the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The sample at the percentile's rank.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly after the percentile's rank.
    pub beyond: usize,
}

impl Percentile {
    /// Whether enough samples lie beyond the rank for the value to be
    /// reported (the benchmark's rule: at least ten).
    pub fn reportable(&self) -> bool {
        self.beyond >= 10
    }
}

/// Nearest-rank `q`-percentile of `samples` (any order); `None` when
/// there are no samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(Percentile {
        value: sorted[rank - 1],
        samples: sorted.len(),
        beyond: sorted.len() - rank,
    })
}

/// Median of `samples`, 0 when empty (for counts that may be absent).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).map_or(0.0, |p| p.value)
}

/// The latency one layer adds: the p50 through a stack with the layer
/// minus the p50 through the same stack without it. Stacked phases are
/// measured separately, so noise can make the difference negative; it is
/// reported as measured.
pub fn layer_cost(with_layer: f64, without_layer: f64) -> f64 {
    with_layer - without_layer
}

/// Largest shard share of a request sequence over the fair share: 1.0 is
/// a perfectly even split.
pub fn max_share(per_shard: &[usize]) -> f64 {
    let total: usize = per_shard.iter().sum();
    if total == 0 || per_shard.is_empty() {
        return 0.0;
    }
    let fair = total as f64 / per_shard.len() as f64;
    *per_shard.iter().max().unwrap_or(&0) as f64 / fair
}

/// One unlabeled sample of Prometheus exposition text, e.g.
/// `pv_place_ok_total 42`.
pub fn exposition_value(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        line.strip_prefix(name)
            .and_then(|rest| rest.strip_prefix(' '))
            .and_then(|value| value.trim().parse().ok())
    })
}

/// The cumulative buckets, sum and count of one labeled histogram series
/// (`pv_stage_us{stage="solve"}`) in exposition text.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExpoHistogram {
    /// Upper bound (µs, `f64::INFINITY` for `+Inf`) → cumulative count.
    pub buckets: BTreeMap<u64, f64>,
    pub sum: f64,
    pub count: f64,
}

/// Key under which the `+Inf` bucket is stored.
const INF_KEY: u64 = u64::MAX;

/// Parses the series `name{stage="<stage>"...}` out of exposition text.
pub fn exposition_histogram(text: &str, name: &str, stage: &str) -> ExpoHistogram {
    let label = format!("stage=\"{stage}\"");
    let mut hist = ExpoHistogram::default();
    for line in text.lines() {
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(value) = value.parse::<f64>() else {
            continue;
        };
        let Some((metric, labels)) = series.split_once('{') else {
            continue;
        };
        if !labels.contains(&label) {
            continue;
        }
        if metric == format!("{name}_bucket") {
            let Some(le) = labels
                .split("le=\"")
                .nth(1)
                .and_then(|rest| rest.split('"').next())
            else {
                continue;
            };
            let key = if le == "+Inf" {
                INF_KEY
            } else {
                match le.parse() {
                    Ok(bound) => bound,
                    Err(_) => continue,
                }
            };
            hist.buckets.insert(key, value);
        } else if metric == format!("{name}_sum") {
            hist.sum = value;
        } else if metric == format!("{name}_count") {
            hist.count = value;
        }
    }
    hist
}

impl ExpoHistogram {
    /// What was recorded between two scrapes (`self` earlier).
    pub fn delta(&self, later: &ExpoHistogram) -> ExpoHistogram {
        ExpoHistogram {
            buckets: later
                .buckets
                .iter()
                .map(|(&le, &n)| (le, n - self.buckets.get(&le).copied().unwrap_or(0.0)))
                .collect(),
            sum: later.sum - self.sum,
            count: later.count - self.count,
        }
    }

    /// Median, interpolated linearly inside the bucket that holds it
    /// (the exposition's buckets are powers of two). 0 when empty.
    pub fn p50(&self) -> f64 {
        if self.count <= 0.0 {
            return 0.0;
        }
        let target = self.count / 2.0;
        let (mut lower, mut below) = (0.0, 0.0);
        for (&le, &cumulative) in &self.buckets {
            if cumulative >= target {
                if le == INF_KEY {
                    return lower;
                }
                let upper = le as f64;
                let inside = cumulative - below;
                let share = if inside > 0.0 {
                    (target - below) / inside
                } else {
                    0.0
                };
                return lower + share * (upper - lower);
            }
            lower = le as f64;
            below = cumulative;
        }
        lower
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffled_rounds_hold_every_item_once_per_round() {
        let sequence = shuffled_rounds(3, 4, 6, 5);
        assert_eq!(sequence, shuffled_rounds(3, 4, 6, 5));
        assert_ne!(sequence, shuffled_rounds(4, 4, 6, 5));
        for round in sequence.chunks(24) {
            let mut sorted = round.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..24).collect::<Vec<_>>());
        }
        assert_ne!(&sequence[..24], &sequence[24..48], "rounds are reshuffled");
    }

    #[test]
    fn stratified_pick_keeps_the_middle_of_each_stratum() {
        let pool = vec![7.0, 1.0, 5.0, 3.0, 8.0, 2.0, 6.0, 4.0, 9.0];
        assert_eq!(
            stratified_pick(pool.clone(), 3, |&x| x),
            vec![2.0, 5.0, 8.0]
        );
        assert_eq!(stratified_pick(pool.clone(), 1, |&x| x).len(), 9);
        // Keys order the pick; the items themselves may be anything.
        let named: Vec<(char, f64)> = vec![('a', 4.0), ('b', 1.0), ('c', 3.0), ('d', 2.0)];
        assert_eq!(
            stratified_pick(named, 2, |&(_, k)| k),
            vec![('d', 2.0), ('a', 4.0)]
        );
    }

    #[test]
    fn percentile_reports_its_sample_count_and_tail() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&samples, 0.99).expect("non-empty");
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.samples, 1000);
        assert_eq!(p99.beyond, 10);
        assert!(p99.reportable());

        let short: Vec<f64> = (1..=500).map(f64::from).collect();
        let p99 = percentile(&short, 0.99).expect("non-empty");
        assert_eq!((p99.samples, p99.beyond), (500, 5));
        assert!(!p99.reportable(), "5 samples beyond p99 are too few");

        let p50 = percentile(&[3.0, 1.0, 2.0], 0.5).expect("non-empty");
        assert_eq!((p50.value, p50.samples, p50.beyond), (2.0, 3, 1));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn hop_and_transport_are_differences_of_stacked_p50s() {
        // service 400 µs, in-process server 650 µs: transport 250 µs.
        assert_eq!(layer_cost(650.0, 400.0), 250.0);
        // route 2.9 ms vs direct-to-shard 2.2 ms: hop 0.7 ms.
        assert!((layer_cost(2.9, 2.2) - 0.7).abs() < 1e-12);
        // Noise may invert a tiny layer; the difference is kept as is.
        assert_eq!(layer_cost(1.0, 1.5), -0.5);
    }

    #[test]
    fn max_share_is_relative_to_the_fair_share() {
        assert_eq!(max_share(&[50, 50]), 1.0);
        assert_eq!(max_share(&[75, 25]), 1.5);
        assert_eq!(max_share(&[0, 0]), 0.0);
    }

    #[test]
    fn exposition_parsing_reads_counters_and_stage_histograms() {
        let text = "# TYPE pv_place_ok_total counter\n\
                    pv_place_ok_totals 9\n\
                    pv_place_ok_total 42\n\
                    pv_stage_us_bucket{stage=\"solve\", le=\"64\"} 0\n\
                    pv_stage_us_bucket{stage=\"solve\", le=\"128\"} 10\n\
                    pv_stage_us_bucket{stage=\"solve\", le=\"+Inf\"} 20\n\
                    pv_stage_us_sum{stage=\"solve\"} 3000\n\
                    pv_stage_us_count{stage=\"solve\"} 20\n\
                    pv_stage_us_bucket{stage=\"encode\", le=\"64\"} 5\n";
        assert_eq!(exposition_value(text, "pv_place_ok_total"), Some(42.0));
        assert_eq!(exposition_value(text, "pv_missing_total"), None);
        let solve = exposition_histogram(text, "pv_stage_us", "solve");
        assert_eq!(solve.count, 20.0);
        assert_eq!(solve.sum, 3000.0);
        assert_eq!(solve.buckets.len(), 3);
        // Half of 20 samples lie below 128 µs: the median is that bound.
        assert_eq!(solve.p50(), 128.0);

        let empty = ExpoHistogram::default();
        let delta = empty.delta(&solve);
        assert_eq!(delta, solve);
        assert_eq!(solve.delta(&solve).p50(), 0.0);
    }
}
