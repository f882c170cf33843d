//! The metric names this benchmark emits, and the collector that makes
//! sure a run emits each of them exactly once and nothing else.
//!
//! `BENCHMARK.json` at the repository root carries the same names with
//! their direction and bound; a unit test keeps the two in step.

use crate::json::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the engine sees; measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    m("wall_s", "s"),
    m("primaries_per_s", "1/s"),
    m("cpu_s", "s"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MB"),
];

/// One group per layer (crate or module); measured by the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    m("catalog.read_s", "s"),
    m("catalog.read_bytes_per_s", "B/s"),
    m("catalog.shard_write_s", "s"),
    m("catalog.shard_write_bytes_per_s", "B/s"),
    m("kdtree.build_s", "s"),
    m("kdtree.build_points_per_s", "1/s"),
    m("kdtree.leafwalk_s", "s"),
    m("kdtree.leafwalk_candidates_per_s", "1/s"),
    m("kdtree.candidates", "count"),
    m("kdtree.useful_ratio", "ratio"),
    m("core.kernel.full_pairs_per_s", "1/s"),
    m("core.kernel.tail_pairs_per_s", "1/s"),
    m("core.kernel.gflops", "GF/s"),
    m("core.kernel.peak_fraction", "ratio"),
    m("core.kernel.flops_per_byte", "flop/B"),
    m("core.engine.new_s", "s"),
    m("core.engine.binned_pairs", "count"),
    m("core.engine.pairs_per_s", "1/s"),
    m("core.engine.us_per_primary", "us"),
    m("core.engine.outside_kernel_s", "s"),
    m("core.engine.search_s", "s"),
    m("core.engine.bin_s", "s"),
    m("core.engine.kernel_s", "s"),
    m("core.engine.assembly_s", "s"),
    m("core.engine.selfpair_cost_ratio", "ratio"),
    m("core.schedule.speedup_t2", "ratio"),
    m("core.schedule.cpu_per_wall", "ratio"),
    m("math.fft.fft3_dense_s", "s"),
    m("math.fft.fft3_shell_s", "s"),
    m("math.fft.cells_per_s", "1/s"),
    m("math.fft.gflops", "GF/s"),
    m("grid.paint_s", "s"),
    m("grid.paint_galaxies_per_s", "1/s"),
    m("grid.fields_s", "s"),
    m("grid.contract_s", "s"),
    m("grid.selfpair_s", "s"),
    m("grid.fft_share", "ratio"),
    m("grid.fft_count", "count"),
    m("grid.rel_diff_vs_tree", "ratio"),
    m("domain.ingest_s", "s"),
    m("domain.ingest_records_per_s", "1/s"),
    m("domain.ingest_bytes", "count"),
    m("domain.ghost_ratio", "ratio"),
    m("domain.imbalance", "ratio"),
    m("core.pipeline.overhead_ratio", "ratio"),
    m("core.pipeline.rank_pairs_imbalance", "ratio"),
    m("core.pipeline.exchange_wall_s", "s"),
    m("cluster.bytes_sent", "count"),
    m("cluster.messages_sent", "count"),
    m("harness.rep_spread", "ratio"),
    m("harness.trace_overhead", "ratio"),
    m("harness.loadavg_start", "load"),
];

/// Letters, digits, `_`, `.` and `-`, starting with a letter or digit,
/// at most 64 characters: the names `BENCHMARK.json` accepts.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Values collected by one run against one list of definitions.
#[derive(Debug)]
pub struct MetricSet {
    defs: &'static [MetricDef],
    values: Vec<Option<f64>>,
    /// Everything that broke the contract: unknown name, name set
    /// twice, value not finite, name never set.
    problems: Vec<String>,
}

impl MetricSet {
    pub fn new(defs: &'static [MetricDef]) -> Self {
        MetricSet {
            defs,
            values: vec![None; defs.len()],
            problems: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let Some(i) = self.defs.iter().position(|d| d.name == name) else {
            self.problems
                .push(format!("`{name}` is not a declared metric"));
            return;
        };
        if !value.is_finite() {
            self.problems.push(format!("`{name}` is {value}"));
        }
        if self.values[i].replace(value).is_some() {
            self.problems.push(format!("`{name}` was set twice"));
        }
    }

    /// The declared metrics in declaration order with their values, or
    /// every way in which this run failed to emit exactly that set.
    pub fn finish(mut self) -> Result<Vec<(MetricDef, f64)>, Vec<String>> {
        for (d, v) in self.defs.iter().zip(&self.values) {
            if v.is_none() {
                self.problems.push(format!("`{}` was never set", d.name));
            }
        }
        if !self.problems.is_empty() {
            return Err(self.problems);
        }
        Ok(self
            .defs
            .iter()
            .zip(self.values)
            .map(|(d, v)| (*d, v.expect("checked above")))
            .collect())
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}` as the result line wants.
pub fn to_json(metrics: &[(MetricDef, f64)]) -> Json {
    Json::obj(metrics.iter().map(|(d, v)| {
        (
            d.name,
            Json::obj([("value", Json::Num(*v)), ("unit", Json::Str(d.unit.into()))]),
        )
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json exists")).unwrap()
    }

    fn declared(section: &str) -> Vec<(String, String)> {
        benchmark_json()
            .get(section)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has `{section}`"))
            .iter()
            .map(|e| {
                let field = |k| e.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn defined(defs: &[MetricDef]) -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect()
    }

    #[test]
    fn names_use_the_allowed_characters_and_are_unique() {
        let mut seen = BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(seen.insert(d.name), "{} twice", d.name);
        }
        for bad in ["", "a b", "µs", ".x", "-x", "a/b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} accepted");
        }
        assert!(valid_name("core.kernel.full_pairs_per_s") && valid_name("9-a_B.c"));
    }

    #[test]
    fn benchmark_json_declares_exactly_the_metrics_defined_here() {
        assert_eq!(declared("end_to_end"), defined(END_TO_END));
        assert_eq!(declared("per_layer"), defined(PER_LAYER));
    }

    #[test]
    fn benchmark_json_carries_the_bound_the_self_check_uses() {
        let doc = benchmark_json();
        for e in doc.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let name = e.get("name").and_then(Json::as_str).unwrap();
            let bound = e.get("bound").and_then(Json::as_f64).unwrap();
            assert_eq!(bound, crate::aa::BOUND, "{name}");
        }
    }

    #[test]
    fn a_set_accepts_each_declared_name_exactly_once_and_nothing_else() {
        let mut ok = MetricSet::new(END_TO_END);
        for (i, d) in END_TO_END.iter().enumerate() {
            ok.set(d.name, i as f64 + 0.5);
        }
        let emitted = ok.finish().unwrap();
        assert_eq!(emitted.len(), END_TO_END.len());
        assert!(to_json(&emitted).get("wall_s").is_some());

        let mut bad = MetricSet::new(END_TO_END);
        bad.set("wall_s", 1.0);
        bad.set("wall_s", 2.0);
        bad.set("kdtree.build_s", 1.0);
        bad.set("cpu_s", f64::NAN);
        let problems = bad.finish().unwrap_err().join("\n");
        for needle in [
            "`wall_s` was set twice",
            "`kdtree.build_s` is not a declared metric",
            "`cpu_s` is NaN",
            "`setup_s` was never set",
        ] {
            assert!(problems.contains(needle), "{needle} missing in {problems}");
        }
    }
}
