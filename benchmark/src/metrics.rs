//! The benchmark's contract — workload and metric names, units,
//! directions and regression bounds — read from the `BENCHMARK.json`
//! compiled into the binary, so the program and the file the driver
//! checks cannot disagree. Later issues cite these names.

use crate::json::{self, Value};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One reported metric.
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    /// Whether a lower value is the better one.
    pub lower_is_better: bool,
    /// Share of the baseline median by which the metric may worsen;
    /// only end-to-end metrics are bounded.
    pub bound: Option<f64>,
}

/// `BENCHMARK.json`, parsed.
pub struct Contract {
    pub workloads: Vec<String>,
    /// What a user of the system sees; measured with tracing off.
    pub end_to_end: Vec<MetricDef>,
    /// Single-layer numbers from the traced run; the layer is the crate
    /// name before the dot.
    pub per_layer: Vec<MetricDef>,
}

impl Contract {
    /// # Panics
    ///
    /// Panics if the compiled-in `BENCHMARK.json` is malformed — a
    /// defect of this package, caught by its self-tests.
    pub fn load() -> Contract {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is JSON");
        let list = |key: &str| -> Vec<Value> {
            doc.get(key)
                .and_then(Value::as_arr)
                .unwrap_or_else(|| panic!("BENCHMARK.json has a {key} list"))
                .to_vec()
        };
        let text = |v: &Value, key: &str| -> String {
            v.get(key)
                .and_then(Value::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json: an entry lacks {key}"))
                .to_string()
        };
        let metrics = |key: &str| -> Vec<MetricDef> {
            list(key)
                .iter()
                .map(|m| MetricDef {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    lower_is_better: text(m, "better") == "lower",
                    bound: m.get("bound").and_then(Value::as_f64),
                })
                .collect()
        };
        Contract {
            workloads: list("workloads").iter().map(|w| text(w, "name")).collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }

    /// The definition of `name`, from either table.
    pub fn metric(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

/// Named values a run produced.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_is_well_formed_and_names_the_code_s_workloads() {
        let c = Contract::load();
        let mut coded: Vec<&str> = crate::serving::SPECS.iter().map(|s| s.name).collect();
        coded.push("churn");
        assert_eq!(c.workloads, coded);

        let names: Vec<&String> = c
            .end_to_end
            .iter()
            .chain(&c.per_layer)
            .map(|m| &m.name)
            .collect();
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a metric name is used twice");

        for m in &c.end_to_end {
            let bound = m.bound.expect("every end-to-end metric is bounded");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
        let setup = c.metric("setup_s").expect("setup_s is reported");
        assert!(setup.lower_is_better && setup.unit == "s");
        let widest = c
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );
        assert!(c.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
