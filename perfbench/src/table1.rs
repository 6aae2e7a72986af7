//! `table1_paper`: the paper's Table I in-process — three roofs, N = 16
//! and 32, the paper's 15-minute step — over a short run of days.
//!
//! The untraced run times the program's own Table I path
//! ([`pv_bench::compare_row_with`] after the roof's extraction) and checks
//! every row bit for bit against the same public functions called one at
//! a time. The traced run calls those functions one at a time, times each
//! call, and checks its rows against `compare_row_with` in turn. Both
//! check the rows against [`PINNED_ROWS`] as well.

use crate::report::{Layers, Outcome};
use crate::stats::median;
use pv_bench::{compare_row_with, WEATHER_SEED};
use pv_floorplan::{
    greedy_placement_with_map, traditional_placement_with_map, EnergyEvaluator, FloorplanConfig,
    SuitabilityMap,
};
use pv_gis::{paper_roofs, RoofScenario, Site, SolarDataset, SolarExtractor};
use pv_model::Topology;
use pv_runtime::Runtime;
use pv_units::SimulationClock;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Simulated days per Table I pass. At 15-minute steps a pass takes about
/// 3 s on two cores, so a 30 s run holds about ten passes. A full year
/// (the paper's 40 s run) is out of reach of one run; at 30 days
/// extraction's fixed cost (the horizon scan) still weighs more than it
/// does over a year, where suitability and placement dominate.
pub const DAYS: u32 = 30;

/// The paper's time step, minutes.
pub const STEP_MINUTES: u32 = 15;

/// Module counts of Table I.
const MODULE_COUNTS: [usize; 2] = [16, 32];

/// Table I at `DAYS` days and `STEP_MINUTES`-minute steps as the public
/// functions computed it when the benchmark was defined (the same on one
/// and on two threads): label, N, and the bits of the traditional and
/// proposed energies (Wh) and of the gain (%).
///
/// A determinism pin. The other row checks compare two call paths through
/// the same code, so a change to `gis` or `floorplan` that moves the
/// energies passes them; it fails this one. A change meant to move the
/// energies updates the pin and says why.
const PINNED_ROWS: [(&str, usize, u64, u64, u64); 6] = [
    (
        "Roof 1",
        16,
        0x40f4_240f_6be0_93ed,
        0x4105_0854_60c5_b198,
        0x405b_36ae_a81a_9a94,
    ),
    (
        "Roof 1",
        32,
        0x40fc_d80a_fa44_c73e,
        0x4112_dc22_9379_abd2,
        0x4064_316a_9238_8d96,
    ),
    (
        "Roof 2",
        16,
        0x40f4_4206_197b_3d2a,
        0x4104_6318_b834_b0ee,
        0x4059_51a1_1390_5877,
    ),
    (
        "Roof 2",
        32,
        0x40fc_aa41_feef_aa81,
        0x4114_1d49_53fe_2205,
        0x4066_95d0_6078_73ee,
    ),
    (
        "Roof 3",
        16,
        0x40f9_0584_369e_e599,
        0x4106_c7cf_010d_70e3,
        0x4054_8592_8ce0_08c0,
    ),
    (
        "Roof 3",
        32,
        0x4100_bbe3_f38d_7bbb,
        0x4116_2b6c_3fb7_4bc7,
        0x4064_9ee8_0cd2_1473,
    ),
];

/// One Table I row as bits: label, N, traditional and proposed energy,
/// gain. Equality is bit equality.
#[derive(Clone, Debug, PartialEq, Eq)]
struct RowBits {
    label: String,
    n_modules: usize,
    traditional: u64,
    proposed: u64,
    gain: u64,
}

impl RowBits {
    fn pinned() -> Vec<RowBits> {
        PINNED_ROWS
            .iter()
            .map(|&(label, n_modules, traditional, proposed, gain)| RowBits {
                label: label.to_string(),
                n_modules,
                traditional,
                proposed,
                gain,
            })
            .collect()
    }

    /// The row in words, for notes and failure messages.
    fn describe(&self) -> String {
        format!(
            "{} N={}: traditional {:.3} Wh, proposed {:.3} Wh, gain {:.4}%",
            self.label,
            self.n_modules,
            f64::from_bits(self.traditional),
            f64::from_bits(self.proposed),
            f64::from_bits(self.gain)
        )
    }

    fn of(row: &pv_floorplan::ComparisonRow) -> Self {
        Self {
            label: row.label.clone(),
            n_modules: row.n_modules,
            traditional: row.traditional.as_wh().to_bits(),
            proposed: row.proposed.as_wh().to_bits(),
            gain: row.gain_percent().to_bits(),
        }
    }
}

/// The extraction `pv_bench::extract_scenario_with` performs, at the
/// benchmark's clock.
fn extract(scenario: &RoofScenario, clock: SimulationClock, runtime: Runtime) -> SolarDataset {
    SolarExtractor::new(Site::turin(), clock)
        .seed(WEATHER_SEED)
        .runtime(runtime)
        .extract(&scenario.dsm)
}

/// Time spent in each public call of one traced pass, seconds, plus the
/// work counts the calls did.
#[derive(Clone, Debug, Default)]
struct PassLayers {
    extract_s: f64,
    suitability_s: f64,
    traditional_s: f64,
    greedy_s: f64,
    evaluate_s: f64,
    cell_steps: f64,
    module_steps: f64,
}

fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// One Table I pass through `compare_row_with`: rows and per-row times.
fn untraced_pass(
    roofs: &[RoofScenario],
    clock: SimulationClock,
    runtime: Runtime,
) -> (Vec<RowBits>, Vec<f64>) {
    let mut rows = Vec::new();
    let mut row_ms = Vec::new();
    for scenario in roofs {
        let dataset = extract(scenario, clock, runtime);
        for n in MODULE_COUNTS {
            let t0 = Instant::now();
            let row = black_box(compare_row_with(scenario, &dataset, n, runtime));
            row_ms.push(secs(t0) * 1e3);
            rows.push(RowBits::of(&row));
        }
    }
    (rows, row_ms)
}

/// One Table I pass calling the same public functions as
/// `compare_row_with`, one at a time, each timed.
fn traced_pass(
    roofs: &[RoofScenario],
    clock: SimulationClock,
    runtime: Runtime,
) -> (Vec<RowBits>, PassLayers) {
    let mut layers = PassLayers::default();
    let mut rows = Vec::new();
    for scenario in roofs {
        let t0 = Instant::now();
        let dataset = extract(scenario, clock, runtime);
        layers.extract_s += secs(t0);
        let steps = f64::from(dataset.num_steps());
        layers.cell_steps += dataset.valid().count() as f64 * steps;
        for n in MODULE_COUNTS {
            let topology = Topology::new(8, n / 8).expect("paper topologies are 8-series");
            let config = FloorplanConfig::paper(topology).expect("paper module aligns to the grid");
            let t0 = Instant::now();
            let map = SuitabilityMap::compute(&dataset, &config);
            layers.suitability_s += secs(t0);
            let t0 = Instant::now();
            let traditional = traditional_placement_with_map(&dataset, &config, &map)
                .expect("compact block fits the paper roofs");
            layers.traditional_s += secs(t0);
            let t0 = Instant::now();
            let proposed = greedy_placement_with_map(&dataset, &config, &map)
                .expect("greedy fits the paper roofs");
            layers.greedy_s += secs(t0);
            let evaluator = EnergyEvaluator::new(&config).with_runtime(runtime);
            let t0 = Instant::now();
            let trad = evaluator
                .evaluate(&dataset, &traditional)
                .expect("sized by construction");
            let prop = evaluator
                .evaluate(&dataset, &proposed)
                .expect("sized by construction");
            layers.evaluate_s += secs(t0);
            layers.module_steps += 2.0 * n as f64 * steps;
            let row = pv_floorplan::ComparisonRow {
                label: scenario.name(),
                dims: (dataset.dims().width(), dataset.dims().height()),
                ng: dataset.valid().count(),
                n_modules: n,
                traditional: trad.energy,
                proposed: prop.energy,
                published_gain_percent: scenario.roof.published_gain_percent(n),
            };
            rows.push(RowBits::of(&row));
        }
    }
    (rows, layers)
}

/// Counts row mismatches against the reference and records the first.
fn check_rows(outcome: &mut Outcome, what: &str, want: &[RowBits], got: &[RowBits]) {
    outcome.attempted += got.len() as u64;
    let bad = got.iter().zip(want).filter(|(g, w)| g != w).count() + want.len().abs_diff(got.len());
    if bad > 0 {
        let first = got.iter().zip(want).find(|(g, w)| g != w).map_or_else(
            || format!("{} row(s) for {}", got.len(), want.len()),
            |(g, w)| format!("got {}, want {}", g.describe(), w.describe()),
        );
        outcome.fail(
            bad as u64,
            format!("{what}: {bad} Table I row(s) differ from the reference bits; {first}"),
        );
    }
}

/// FNV-1a over the rows' bits, printed so runs can be compared by eye.
fn digest(rows: &[RowBits]) -> String {
    let mut text = String::new();
    for r in rows {
        text.push_str(&format!(
            "{} {} {:x} {:x} {:x};",
            r.label, r.n_modules, r.traditional, r.proposed, r.gain
        ));
    }
    format!("{:016x}", pv_gis::synth::fnv1a(text.as_bytes()))
}

pub fn run(seconds: u64, trace: bool, threads: usize) -> Outcome {
    let mut outcome = Outcome::new("table1_paper");
    let runtime = Runtime::with_threads(threads);
    let clock = SimulationClock::days_at_minutes(DAYS, STEP_MINUTES);
    outcome.note(format!(
        "inputs: pv_gis::paper_roofs(), N in {MODULE_COUNTS:?}, weather seed {WEATHER_SEED}, \
         {DAYS} day(s) at {STEP_MINUTES} min ({} steps), {threads} thread(s)",
        clock.num_steps()
    ));

    let mut setup = Vec::new();
    let mut roofs = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let phase = Instant::now();
    let (mut pass_s, mut row_ms, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut untraced_rows: Vec<Vec<RowBits>> = Vec::new();
    let mut traced_rows: Vec<Vec<RowBits>> = Vec::new();
    let mut traced_pass_s = Vec::new();
    // The traced run alternates plain and traced passes so both see the
    // same machine state; the plain ones give the overhead's base.
    while Instant::now() < deadline || untraced_rows.is_empty() || (trace && traced.is_empty()) {
        // Every pass starts from freshly built roofs: the set-up, timed
        // apart from the pass so its samples spread over the whole run.
        let t0 = Instant::now();
        roofs = black_box(paper_roofs());
        setup.push(secs(t0));
        let t0 = Instant::now();
        let (rows, times) = untraced_pass(&roofs, clock, runtime);
        pass_s.push(secs(t0));
        row_ms.extend(times);
        untraced_rows.push(rows);
        if trace {
            let t0 = Instant::now();
            let (rows, layers) = traced_pass(&roofs, clock, runtime);
            traced_pass_s.push(secs(t0));
            traced.push(layers);
            traced_rows.push(rows);
        }
    }
    let phase_s = secs(phase);

    // The reference: compare_row_with's rows are checked against the
    // one-call-at-a-time sequence, in whichever order the run needs.
    let reference = match traced_rows.first() {
        Some(rows) => rows.clone(),
        None => traced_pass(&roofs, clock, runtime).0,
    };
    for rows in &untraced_rows {
        check_rows(&mut outcome, "compare_row_with pass", &reference, rows);
    }
    for rows in traced_rows.iter().skip(1) {
        check_rows(&mut outcome, "traced pass", &reference, rows);
    }
    if trace {
        // The first traced pass was the reference; it is checked against
        // the first compare_row_with pass.
        check_rows(
            &mut outcome,
            "traced pass vs compare_row_with",
            &untraced_rows[0],
            &reference,
        );
    }
    check_rows(
        &mut outcome,
        "rows vs the pinned Table I",
        &RowBits::pinned(),
        &reference,
    );
    outcome.note(format!("rows digest: {}", digest(&reference)));
    for row in &reference {
        outcome.note(format!("row {}", row.describe()));
    }

    let rows_done = untraced_rows.iter().map(Vec::len).sum::<usize>();
    let rows_per_pass = roofs.len() * MODULE_COUNTS.len();
    if trace {
        let pick = |f: fn(&PassLayers) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        let mut layers = Layers::zero();
        layers.set("gis.extract_s", pick(|l| l.extract_s));
        layers.set("gis.cell_steps", pick(|l| l.cell_steps));
        layers.set("floorplan.suitability_s", pick(|l| l.suitability_s));
        layers.set("floorplan.traditional_s", pick(|l| l.traditional_s));
        layers.set("floorplan.greedy_s", pick(|l| l.greedy_s));
        layers.set("floorplan.evaluate_s", pick(|l| l.evaluate_s));
        layers.set("floorplan.module_steps", pick(|l| l.module_steps));
        let plain = median(&pass_s);
        layers.set(
            "obs.trace_overhead_pct",
            (median(&traced_pass_s) - plain) / plain * 100.0,
        );
        outcome.layers = Some(layers);
    } else {
        outcome.metric("setup_s", median(&setup), "s", setup.len());
        outcome.metric("wall_s", median(&pass_s), "s", pass_s.len());
        // Table I rows per second, the median over passes.
        let rates: Vec<f64> = untraced_rows
            .iter()
            .zip(&pass_s)
            .map(|(rows, s)| rows.len() as f64 / s)
            .collect();
        outcome.metric("throughput_rps", median(&rates), "1/s", rates.len());
        // A row's place + evaluate latency: the median over passes of the
        // pass's mean row time, since the six rows differ in cost and a
        // median over single rows would jump between row kinds.
        let per_row: Vec<f64> = row_ms
            .chunks(rows_per_pass)
            .map(|pass| pass.iter().sum::<f64>() / pass.len() as f64)
            .collect();
        outcome.metric("p50_ms", median(&per_row), "ms", per_row.len());
        outcome.metric(
            "peak_rss_mb",
            crate::fleet::peak_rss_mb(std::process::id()).unwrap_or(0.0),
            "MB",
            1,
        );
    }
    outcome.note(format!(
        "{} pass(es) in {phase_s:.2} s, {rows_done} row(s)",
        untraced_rows.len()
    ));
    outcome
}
