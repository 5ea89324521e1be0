//! What one run reports: metrics, operation accounting and check results.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::checks::Checks;

#[derive(Default)]
pub struct Report {
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Per verb kind: `(attempted, failed)`.
    pub ops: BTreeMap<&'static str, (u64, u64)>,
    pub checks: Checks,
    /// Free-form `key=value` facts printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Counts one operation of kind `verb`, failed or not, and passes its
    /// result through.
    pub fn op<T, E: std::fmt::Debug>(
        &mut self,
        verb: &'static str,
        result: Result<T, E>,
    ) -> Result<T, String> {
        let entry = self.ops.entry(verb).or_default();
        entry.0 += 1;
        result.map_err(|err| {
            entry.1 += 1;
            format!("{verb}: {err:?}")
        })
    }

    pub fn attempted(&self) -> u64 {
        self.ops.values().map(|&(a, _)| a).sum()
    }

    pub fn failed(&self) -> u64 {
        self.ops.values().map(|&(_, f)| f).sum()
    }

    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.checks.failed.is_empty(),
            self.attempted(),
            self.failed()
        )
    }
}

/// Shortest round-trip decimal form; JSON has no NaN or infinities, so
/// those (which no metric should ever produce) print as `null` and fail
/// the self-test.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}
