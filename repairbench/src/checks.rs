//! Output checks every run makes.  Each is computed apart from the program
//! or is a property the method must have; a failed check is recorded by
//! name and makes the run exit non-zero.

use gdr_cfd::{RuleSet, ViolationEngine};
use gdr_core::RepairAccuracy;
use gdr_relation::Table;
use gdr_repair::{Cell, RepairState};

#[derive(Default)]
pub struct Checks {
    pub failed: Vec<String>,
    pub passed: usize,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if ok {
            self.passed += 1;
        } else {
            self.failed.push(what.into());
        }
    }
}

/// Quality of a finished session, recounted by hand.
pub struct Quality {
    pub precision: f64,
    pub recall: f64,
    pub updated: usize,
    pub correctly_updated: usize,
    pub initially_incorrect: usize,
}

/// Precision and recall by a plain count over the dirty, final and truth
/// tables, checked against `RepairAccuracy`.
pub fn quality(checks: &mut Checks, dirty: &Table, repaired: &Table, truth: &Table) -> Quality {
    let (mut updated, mut correctly_updated, mut initially_incorrect) = (0, 0, 0);
    for tuple in 0..dirty.len() {
        for attr in 0..dirty.schema().arity() {
            let before = dirty.cell(tuple, attr);
            let after = repaired.cell(tuple, attr);
            let right = truth.cell(tuple, attr);
            if before != right {
                initially_incorrect += 1;
            }
            if after != before {
                updated += 1;
                if after == right {
                    correctly_updated += 1;
                }
            }
        }
    }
    let ratio = |num: usize, den: usize| {
        if den == 0 {
            1.0
        } else {
            num as f64 / den as f64
        }
    };
    let q = Quality {
        precision: ratio(correctly_updated, updated),
        recall: ratio(correctly_updated, initially_incorrect),
        updated,
        correctly_updated,
        initially_incorrect,
    };
    let acc = RepairAccuracy::compute(dirty, repaired, truth);
    checks.check(
        acc.updated == q.updated
            && acc.correctly_updated == q.correctly_updated
            && acc.initially_incorrect == q.initially_incorrect
            && acc.precision() == q.precision
            && acc.recall() == q.recall,
        format!(
            "precision/recall recount ({}/{}/{}) equals RepairAccuracy ({}/{}/{})",
            q.correctly_updated,
            q.updated,
            q.initially_incorrect,
            acc.correctly_updated,
            acc.updated,
            acc.initially_incorrect
        ),
    );
    q
}

/// Every cell the user confirmed (or typed) holds its true value.
pub fn confirmed_cells(checks: &mut Checks, confirmed: &[Cell], repaired: &Table, truth: &Table) {
    let wrong = confirmed
        .iter()
        .filter(|&&(t, a)| repaired.cell(t, a) != truth.cell(t, a))
        .count();
    checks.check(
        wrong == 0,
        format!(
            "{wrong} of {} user-confirmed cells differ from the truth",
            confirmed.len()
        ),
    );
}

/// The live engine's per-rule statistics equal a from-scratch build over
/// the final table, and the repair state's own invariants hold.
pub fn engine_state(checks: &mut Checks, state: &RepairState, rules: &RuleSet) {
    let rebuilt = ViolationEngine::build(state.table(), rules);
    let differing = (0..rules.len())
        .filter(|&rule| state.rule_stats(rule) != rebuilt.rule_stats(rule))
        .count();
    checks.check(
        differing == 0,
        format!("{differing} rules' live stats differ from a from-scratch build"),
    );
    checks.check(state.invariants_hold(), "RepairState::invariants_hold");
}
