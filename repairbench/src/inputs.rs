//! Seeded inputs: hospital tables from the repo's own generator.

use gdr_cfd::RuleSet;
use gdr_datagen::hospital::{generate_hospital_dataset, HospitalConfig};
use gdr_relation::Table;

/// One generated input: the dirty table a session repairs, its ground
/// truth (known only to the simulated user and the checks) and the rules.
pub struct Input {
    pub dirty: Table,
    pub truth: Table,
    pub rules: RuleSet,
    /// Tuples with at least one corrupted cell.
    pub dirty_tuples: usize,
}

/// `HospitalConfig::at_scale(rows)` re-seeded with `seed`.
pub fn hospital(rows: usize, seed: u64) -> Input {
    let config = HospitalConfig {
        seed,
        ..HospitalConfig::at_scale(rows)
    };
    let data = generate_hospital_dataset(&config);
    let dirty_tuples = (data.dirty_tuple_fraction() * rows as f64).round() as usize;
    Input {
        dirty: data.dirty,
        truth: data.clean,
        rules: data.rules,
        dirty_tuples,
    }
}

impl Input {
    /// The input's make-up, as one `key=value` line.
    pub fn describe(&self, seed: u64) -> String {
        format!(
            "input seed={seed} rows={} rules={} dirty_tuples={} csv_bytes={}",
            self.dirty.len(),
            self.rules.len(),
            self.dirty_tuples,
            gdr_relation::csv::to_csv(&self.dirty).len()
        )
    }
}

/// The table seed of `round` in a run with `--seed seed`: a block of
/// 65 536 seeds per run seed, so runs on different seeds never share a
/// table.
pub fn round_seed(seed: u64, round: usize) -> u64 {
    (seed << 16).wrapping_add(round as u64)
}
