//! Named metrics, request accounting and the result line.

use std::fmt::Write as _;

/// One measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered metric list (insertion order is print order).
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The result-line `metrics` object over `names`, in that order.
    ///
    /// # Errors
    ///
    /// Names a metric that was not measured or is not finite.
    pub fn json_object(&self, names: &[&str]) -> Result<String, String> {
        let mut out = String::from("{");
        for (i, name) in names.iter().enumerate() {
            let m = self
                .0
                .iter()
                .find(|m| m.name == *name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not finite: {}", m.value));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.value, m.unit
            );
        }
        out.push('}');
        Ok(out)
    }
}

/// Request accounting of one workload run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Submissions (or simulator calls) tried.
    pub attempted: u64,
    /// Answered without error.
    pub completed: u64,
    /// Accepted but answered with an error.
    pub failed: u64,
    /// Refused at submission.
    pub rejected: u64,
    /// Answered, but not equal to the reference output.
    pub mismatched: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.attempted += o.attempted;
        self.completed += o.completed;
        self.failed += o.failed;
        self.rejected += o.rejected;
        self.mismatched += o.mismatched;
    }

    /// Failed, rejected or wrong.
    #[must_use]
    pub fn errors(&self) -> u64 {
        self.failed + self.rejected + self.mismatched
    }

    #[must_use]
    pub fn error_rate(&self) -> f64 {
        self.errors() as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_object_keeps_every_digit_and_rejects_missing_names() {
        let mut m = Metrics::default();
        m.push("latency_ms", 1.203_456_789, "ms");
        m.push("setup_s", 0.5, "s");
        assert_eq!(
            m.json_object(&["setup_s", "latency_ms"]).unwrap(),
            "{\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"latency_ms\": {\"value\": 1.203456789, \"unit\": \"ms\"}}"
        );
        assert!(m.json_object(&["nope"]).is_err());
        m.push("bad", f64::NAN, "s");
        assert!(m.json_object(&["bad"]).is_err());
    }
}
