//! Results: metrics, checks, and the JSON they are printed as.

use crate::stats::{percentile, tail_percentile};
pub use serde_json::Value;
use serde_json::{Map, Number};

/// A number as JSON; a non-finite one becomes `null`, so the result
/// line stays valid JSON even when a measurement failed.
pub fn num(x: f64) -> Value {
    if x.is_finite() {
        Value::Number(Number::F64(x))
    } else {
        Value::Null
    }
}

pub fn int(n: u64) -> Value {
    Value::Number(Number::U64(n))
}

pub fn text(s: impl Into<String>) -> Value {
    Value::String(s.into())
}

/// An object with `fields` in order.
pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
    let mut map = Map::new();
    for (k, v) in fields {
        map.insert(k.into(), v);
    }
    Value::Object(map)
}

/// Compact JSON text of `v`.
pub fn render(v: &Value) -> String {
    serde_json::to_string(v).expect("a Value always serializes")
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    /// `{"value": …, "unit": …}`.
    pub fn json(&self) -> Value {
        obj([("value", num(self.value)), ("unit", text(self.unit))])
    }
}

/// A correctness check and the operations it covers.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
    /// Operations counted as failed when the check fails.
    pub ops: u64,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub checks: Vec<Check>,
    pub metrics: Vec<Metric>,
    /// Input sizes and other facts recorded next to the metrics.
    pub facts: Vec<(String, Value)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: String, ops: u64) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail,
            ops,
        });
    }

    /// Checks that the peak-RSS mark was reset before every timed phase;
    /// otherwise `peak_rss_mb` would cover the set-up too.
    pub fn check_rss_reset(&mut self, ok: bool) {
        self.check(
            "peak RSS mark reset before the timed phase",
            ok,
            "writing 5 to /proc/self/clear_refs failed".into(),
            1,
        );
    }

    pub fn fact(&mut self, name: &str, value: Value) {
        self.facts.push((name.to_string(), value));
    }

    /// Records the sample count, p99 and highest supported percentile
    /// of per-visit latencies (`sorted_us`, ascending) as facts.
    pub fn latency_facts(&mut self, sorted_us: &[f64]) {
        self.fact("visit_samples", int(sorted_us.len() as u64));
        let p99 = percentile(sorted_us, 99.0).unwrap_or(f64::NAN);
        self.fact("visit_p99_us", num(p99));
        if let Some((p, v)) = tail_percentile(sorted_us) {
            self.fact("visit_tail", obj([("percentile", num(p)), ("us", num(v))]));
        }
    }

    /// Operations that failed a check (never more than were attempted).
    pub fn failed(&self) -> u64 {
        let failed: u64 = self
            .checks
            .iter()
            .filter(|c| !c.ok)
            .map(|c| c.ops.max(1))
            .sum();
        failed.min(self.attempted)
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok) && self.metrics.iter().all(|m| m.value.is_finite())
    }

    pub fn metrics_json(&self) -> Value {
        obj(self.metrics.iter().map(|m| (m.name.clone(), m.json())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_json_with_null_for_non_finite() {
        let j = obj([
            ("a", num(1.25)),
            ("b", Value::Array(vec![int(3), Value::Bool(false)])),
            ("c", text("x\"y")),
            ("d", num(f64::NAN)),
        ]);
        assert_eq!(
            render(&j),
            r#"{"a":1.25,"b":[3,false],"c":"x\"y","d":null}"#
        );
    }

    #[test]
    fn failed_ops_are_capped_by_attempted() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.check("fine", true, String::new(), 10);
        assert_eq!(o.failed(), 0);
        o.check("bad", false, String::new(), 4);
        assert_eq!(o.failed(), 4);
        o.check("worse", false, String::new(), 100);
        assert_eq!(o.failed(), 10);
        assert!(!o.correct());
    }
}
