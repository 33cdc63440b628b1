//! Metric collection, failure accounting and JSON rendering.

use serde::{Serialize, Value};

/// Named metrics with units, in insertion order.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    items: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Sets `name` (replacing an earlier value of the same name).
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.items.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => *slot = (name, value, unit),
            None => self.items.push((name, value, unit)),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.items
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Every `(name, value, unit)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.items.iter()
    }

    /// `{"name": {"value": v, "unit": "u"}, …}` for the given names, in
    /// that order; fails naming the first metric that is missing or not
    /// a finite number.
    pub fn select(&self, names: &[(&str, &str)]) -> Result<Value, String> {
        let mut out = Vec::with_capacity(names.len());
        for (name, unit) in names {
            let (_, value, have_unit) = self
                .items
                .iter()
                .find(|(n, _, _)| n == name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            if have_unit != unit {
                return Err(format!("metric {name} has unit {have_unit}, want {unit}"));
            }
            out.push(((*name).to_owned(), metric(*value, unit)));
        }
        Ok(Value::Object(out))
    }
}

/// Every metric as a JSON object (non-finite values become `null`).
impl Serialize for Metrics {
    fn to_value(&self) -> Value {
        Value::Object(
            self.items
                .iter()
                .map(|(n, v, u)| (n.clone(), metric(*v, u)))
                .collect(),
        )
    }
}

fn metric(value: f64, unit: &str) -> Value {
    Value::Object(vec![
        ("value".to_owned(), value.to_value()),
        ("unit".to_owned(), unit.to_value()),
    ])
}

/// Attempted/failed operation counts plus the first few failure reasons.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or failed a correctness check.
    pub failed: u64,
    /// The first failure messages (capped).
    pub reasons: Vec<String>,
}

impl Tally {
    /// Counts one operation; returns whether it passed.
    pub fn check(&mut self, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(reason) => {
                self.failed += 1;
                if self.reasons.len() < 16 {
                    self.reasons.push(reason);
                }
                false
            }
        }
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for r in other.reasons {
            if self.reasons.len() < 16 {
                self.reasons.push(r);
            }
        }
    }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operation accounting across every phase of the run.
    pub tally: Tally,
    /// End-to-end metrics, from untraced operations.
    pub end_to_end: Metrics,
    /// Per-layer metrics (traced runs only).
    pub layers: Metrics,
    /// Extra run-record entries.
    pub record: Vec<(String, Value)>,
}

impl Report {
    /// Adds a run-record entry.
    pub fn note(&mut self, key: &str, value: impl Serialize) {
        self.record.push((key.to_owned(), value.to_value()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_requires_every_name_and_unit() {
        let mut m = Metrics::default();
        m.put("a", 1.5, "ms");
        assert_eq!(
            serde_json::to_string(&m.select(&[("a", "ms")]).unwrap()).unwrap(),
            "{\"a\":{\"value\":1.5,\"unit\":\"ms\"}}"
        );
        assert!(m.select(&[("b", "ms")]).is_err());
        assert!(m.select(&[("a", "s")]).is_err());
        m.put("c", f64::NAN, "ms");
        assert!(m.select(&[("c", "ms")]).is_err());
        assert!(serde_json::to_string(&m)
            .unwrap()
            .contains("\"c\":{\"value\":null"));
    }
}
