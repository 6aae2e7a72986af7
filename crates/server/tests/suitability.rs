//! The invariant one cached suitability map per site rests on.
//!
//! The service computes a site's [`SuitabilityMap`] once, under a 1×1
//! probe topology, and hands it to every placer (greedy, anneal, exact)
//! whatever topology a request asks for. That is only sound because the
//! map reads the percentile, the temperature flag and the module, never
//! the topology: here it is bit-equal under every `SERVICE_LADDER`
//! topology and both Table I topologies, on generated sites.

use proptest::prelude::*;
use pv_floorplan::{FloorplanConfig, SuitabilityMap};
use pv_gis::ScenarioSpec;
use pv_model::Topology;
use pv_runtime::Runtime;
use pv_server::service::SERVICE_LADDER;
use pv_units::SimulationClock;

/// Table I's `N` = 16 and 32, as strings of 8 modules in series
/// (`pv_bench::compare_row_with`).
const TABLE1_TOPOLOGIES: [(usize, usize); 2] = [(8, 2), (8, 4)];

fn map_under(dataset: &pv_gis::SolarDataset, (m, n): (usize, usize)) -> SuitabilityMap {
    let config = FloorplanConfig::paper(Topology::new(m, n).unwrap()).unwrap();
    SuitabilityMap::compute(dataset, &config)
}

fn bits(map: &SuitabilityMap) -> (Vec<u64>, Vec<u64>, u64) {
    let of = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect();
    (
        of(map.scores().as_slice()),
        of(map.irradiance_percentile().as_slice()),
        map.percentile().to_bits(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn suitability_map_is_bit_equal_under_every_topology(
        seed in 0u64..10_000,
        index in 0u32..64,
    ) {
        let scenario = ScenarioSpec::generate(seed, index).build();
        let dataset = scenario
            .extractor(SimulationClock::days_at_minutes(2, 120))
            .horizon_sectors(16)
            .runtime(Runtime::sequential())
            .extract(&scenario.dsm);
        let probe = bits(&map_under(&dataset, (1, 1)));
        for topology in SERVICE_LADDER.into_iter().chain(TABLE1_TOPOLOGIES) {
            prop_assert!(
                bits(&map_under(&dataset, topology)) == probe,
                "map differs under {:?}",
                topology
            );
        }
    }
}
