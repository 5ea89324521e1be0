//! In-process workloads: one simulated reviewer repairing a table through
//! `gdr_serve::store::Session`, the object server dispatch locks and
//! calls, with its default in-memory journal.
//!
//! A traced run also drives a bare `GdrEngine` twin in lock step with the
//! served session (so the serve layer's own cost is the difference) and a
//! second `ModelStore` fed the same answers (so the learner's train and
//! predict costs show even where the strategy never consults it).

use std::time::Instant;

use gdr_cfd::ViolationEngine;
use gdr_core::{
    GdrConfig, GdrEngine, GroundTruthOracle, ModelStore, QualityEvaluator, SessionBuilder,
    Strategy, TeamSession, UserOracle, WorkPlan,
};
use gdr_relation::csv::{parse_csv, to_csv};
use gdr_repair::{Cell, Feedback, RepairState, Update};
use gdr_serve::journal::team_digest;
use gdr_serve::store::{OpenSpec, Session, SessionOptions};

use crate::checks;
use crate::inputs::Input;
use crate::report::Report;
use crate::stats::{median, tail};
use crate::trace::Trace;

pub struct InProcSpec {
    pub strategy: Strategy,
    /// User interactions before `finish`.
    pub answers: usize,
    /// Opens timed for `setup_s`; the last one is driven.
    pub setups: usize,
}

fn open_spec(input: &Input, strategy: Strategy) -> OpenSpec {
    let mut spec = OpenSpec::new(input.dirty.clone(), input.rules.clone());
    spec.strategy = strategy;
    spec
}

/// The bare-engine and learner twins of a traced run.
pub struct Twin {
    engine: GdrEngine,
    models: ModelStore,
    ns_batch: usize,
    answers: usize,
    groups: usize,
    group_next_ms: f64,
    learner_phases: usize,
    learner_ms: f64,
    predictions: usize,
    confirms: usize,
    store_self_ms: f64,
    compactions: usize,
    compaction_ms: f64,
}

impl Twin {
    /// Feeds one answer to the learner twin, retraining at each `n_s`
    /// boundary and then predicting over the open group's candidates.
    fn learn(&mut self, trace: &mut Trace, update: &Update, feedback: Feedback) {
        let table = self.engine.state().table();
        self.models.add_feedback(table, update, feedback);
        self.answers += 1;
        if !self.answers.is_multiple_of(self.ns_batch) {
            return;
        }
        let span = trace.begin("learn.retrain", 0);
        self.models.retrain_all();
        trace.end(span);
        let table = self.engine.state().table();
        for candidate in self.engine.group_candidates() {
            let span = trace.begin("learn.predict", 0);
            std::hint::black_box(self.models.predict(table, candidate));
            trace.end(span);
            self.predictions += 1;
        }
    }

    /// Pulls the twin's next plan, classifying the call, and returns it.
    fn next(&mut self, trace: &mut Trace) -> (Result<WorkPlan, gdr_core::GdrError>, f64) {
        let decisions = self.engine.learner_decisions();
        let span = trace.begin("core.next", 0);
        let plan = self.engine.next_work();
        let ms = trace.end(span);
        if self.engine.learner_decisions() > decisions {
            self.learner_phases += 1;
            self.learner_ms += ms;
        }
        if let Ok(WorkPlan::AskUser {
            group_context: Some(context),
            ..
        }) = &plan
        {
            if context.asked == 0 {
                self.groups += 1;
                self.group_next_ms += ms;
            }
        }
        (plan, ms)
    }

    /// Attributes the store's own time for one verb: the served verb minus
    /// the same verb on the bare engine; turns in which the journal
    /// snapshot advanced are compactions.
    fn store_self(&mut self, served_ms: f64, engine_ms: f64, compacted: bool) {
        let own = served_ms - engine_ms;
        self.store_self_ms += own;
        if compacted {
            self.compactions += 1;
            self.compaction_ms += own;
        }
    }
}

/// What a user does next.
enum Step {
    Answer(gdr_core::WorkId, Update, Feedback),
    Supply(Cell, gdr_relation::Value),
    Skip(Cell),
}

/// One driven session: what the simulated user saw and did.
pub struct Driven {
    /// Answer → next question, per turn (ms).
    pub turns_ms: Vec<f64>,
    /// Served verb times in call order (ms), `finish` excluded.
    pub verbs_ms: Vec<f64>,
    /// Cells the user confirmed or typed.
    pub confirmed: Vec<Cell>,
    pub interactions: usize,
    /// First question → `finish`/`Done` (s).
    pub session_s: f64,
    /// The error that stopped the session early, if any.
    pub failure: Option<String>,
}

/// Drives `session`, whose first question `plan` is already served, in a
/// closed loop: the user answers from `oracle`, then waits for the next
/// question.  Stops after `budget` interactions (then calls `finish`) or
/// at `Done`.  With a `twin`, every verb is repeated on the bare engine
/// and the learner twin right after the served one.
pub fn drive(
    session: &mut Session,
    mut plan: WorkPlan,
    oracle: &GroundTruthOracle,
    budget: Option<usize>,
    mut twin: Option<&mut Twin>,
    trace: &mut Trace,
    report: &mut Report,
) -> Driven {
    let mut driven = Driven {
        turns_ms: Vec::new(),
        verbs_ms: Vec::new(),
        confirmed: Vec::new(),
        interactions: 0,
        session_s: 0.0,
        failure: None,
    };
    let session_start = Instant::now();
    let session_span = trace.begin("session", 0);
    loop {
        if budget.is_some_and(|b| driven.interactions >= b) {
            let span = trace.begin("serve.finish", 0);
            if let Err(err) = report.op("finish", session.finish()) {
                driven.failure = Some(err);
            }
            let served_ms = trace.end(span);
            if let Some(twin) = twin.as_deref_mut() {
                let span = trace.begin("core.finish", 0);
                let result = twin.engine.finish();
                let engine_ms = trace.end(span);
                twin.store_self(served_ms, engine_ms, false);
                report.checks.check(result.is_ok(), "bare engine finishes");
            }
            break;
        }
        let table = session.engine().state().table();
        let step = match &plan {
            WorkPlan::AskUser { id, update, .. } => {
                let feedback = oracle.feedback(update, table.cell(update.tuple, update.attr));
                Step::Answer(*id, update.clone(), feedback)
            }
            WorkPlan::NeedsValue { cell } => match oracle.correct_value(cell.0, cell.1) {
                Some(value) if &value != table.cell(cell.0, cell.1) => Step::Supply(*cell, value),
                _ => Step::Skip(*cell),
            },
            WorkPlan::Done(_) => break,
        };
        driven.interactions += 1;
        let turn_span = trace.begin("turn", 0);
        let start = Instant::now();
        let snapshot_before = session.journal().snapshot_events();
        let span = trace.begin("serve.answer", 0);
        let applied = match &step {
            Step::Answer(id, update, feedback) => {
                if *feedback == Feedback::Confirm {
                    driven.confirmed.push((update.tuple, update.attr));
                }
                report
                    .op("answer", session.answer(*id, *feedback))
                    .map(drop)
            }
            Step::Supply(cell, value) => {
                driven.confirmed.push(*cell);
                report
                    .op("supply", session.supply(*cell, value.clone()))
                    .map(drop)
            }
            Step::Skip(cell) => report.op("skip", session.skip(*cell)),
        };
        let served_ms = trace.end(span);
        driven.verbs_ms.push(start.elapsed().as_secs_f64() * 1e3);
        if let Some(twin) = twin.as_deref_mut() {
            let compacted = session.journal().snapshot_events() != snapshot_before;
            match &step {
                Step::Answer(_, update, feedback) => {
                    twin.confirms += usize::from(*feedback == Feedback::Confirm);
                    twin.learn(trace, update, *feedback);
                }
                Step::Supply(..) => twin.confirms += 1,
                Step::Skip(_) => {}
            }
            let span = trace.begin("core.answer", 0);
            let result = match &step {
                Step::Answer(id, _, feedback) => twin.engine.answer(*id, *feedback),
                Step::Supply(cell, value) => twin.engine.supply_value(*cell, value.clone()),
                Step::Skip(cell) => twin.engine.skip_value(*cell),
            };
            let engine_ms = trace.end(span);
            twin.store_self(served_ms, engine_ms, compacted);
            report
                .checks
                .check(result.is_ok(), "bare engine accepts the same answer");
        }
        if let Err(err) = applied {
            trace.end(turn_span);
            driven.failure = Some(err);
            break;
        }
        let snapshot_before = session.journal().snapshot_events();
        let next_start = Instant::now();
        let span = trace.begin("serve.next", 0);
        let next = report.op("next", session.next());
        let served_ms = trace.end(span);
        driven
            .verbs_ms
            .push(next_start.elapsed().as_secs_f64() * 1e3);
        driven.turns_ms.push(start.elapsed().as_secs_f64() * 1e3);
        if let Some(twin) = twin.as_deref_mut() {
            let compacted = session.journal().snapshot_events() != snapshot_before;
            let (twin_plan, engine_ms) = twin.next(trace);
            twin.store_self(served_ms, engine_ms, compacted);
            report.checks.check(
                twin_plan.as_ref().ok() == next.as_ref().ok(),
                "bare engine serves the same plan",
            );
        }
        trace.end(turn_span);
        match next {
            Ok(next) => plan = next,
            Err(err) => {
                driven.failure = Some(err);
                break;
            }
        }
    }
    driven.session_s = session_start.elapsed().as_secs_f64();
    trace.end(session_span);
    if let Some(err) = &driven.failure {
        report
            .checks
            .check(false, format!("session stopped early: {err}"));
    }
    driven
}

/// Opens a session and pulls its first question; returns both and the
/// set-up time (s).
pub fn open(
    input: &Input,
    strategy: Strategy,
    round: u32,
    trace: &mut Trace,
    report: &mut Report,
) -> Option<(Session, WorkPlan, f64)> {
    let spec = open_spec(input, strategy);
    let span = trace.begin("setup", round);
    let start = Instant::now();
    let mut session = report.op("open", SessionOptions::new().open(spec)).ok()?;
    let plan = report.op("next", session.next());
    let setup_s = start.elapsed().as_secs_f64();
    trace.end(span);
    match plan {
        Ok(plan) => Some((session, plan, setup_s)),
        Err(err) => {
            report.checks.check(false, err);
            None
        }
    }
}

/// Builds the bare-engine and learner twins of a traced run and pulls the
/// engine's first plan, which must equal the served session's.
pub fn twin(
    input: &Input,
    strategy: Strategy,
    first: &WorkPlan,
    trace: &mut Trace,
    report: &mut Report,
) -> Twin {
    let config = GdrConfig::default();
    let engine = SessionBuilder::new(input.dirty.clone(), &input.rules)
        .strategy(strategy)
        .config(config.clone())
        .build();
    let mut twin = Twin {
        models: ModelStore::new(
            input.dirty.schema().arity(),
            config.forest.clone(),
            config.seed,
        ),
        ns_batch: config.ns_batch,
        engine,
        answers: 0,
        groups: 0,
        group_next_ms: 0.0,
        learner_phases: 0,
        learner_ms: 0.0,
        predictions: 0,
        confirms: 0,
        store_self_ms: 0.0,
        compactions: 0,
        compaction_ms: 0.0,
    };
    let (plan, ms) = twin.next(trace);
    report.metric("core.first_next_ms", ms, "ms");
    report.checks.check(
        plan.as_ref().ok() == Some(first),
        "bare engine serves the same first plan",
    );
    twin
}

/// The checks every finished session must pass; returns its quality.
pub fn check_session(
    session: &Session,
    driven: &Driven,
    input: &Input,
    report: &mut Report,
) -> (checks::Quality, f64) {
    let state = session.engine().state();
    let repaired = state.table();
    checks::confirmed_cells(
        &mut report.checks,
        &driven.confirmed,
        repaired,
        &input.truth,
    );
    let quality = checks::quality(&mut report.checks, &input.dirty, repaired, &input.truth);
    checks::engine_state(&mut report.checks, state, &input.rules);
    let evaluator = QualityEvaluator::new(&input.truth, &input.rules, &input.dirty);
    let improvement = evaluator.improvement_pct(evaluator.loss_of_table(repaired, &input.rules));
    (quality, improvement)
}

/// Runs the workload: one round per seed in `seeds`, each on its own
/// table — `setups` timed opens (the last one is driven), a session driven
/// to the answer budget, then the checks.  A traced run gets one seed and
/// drives its session with the twins in lock step.
pub fn run(spec: &InProcSpec, rows: usize, seeds: &[u64], trace: &mut Trace, report: &mut Report) {
    let (mut setup_s, mut turns_ms, mut session_s, mut cpu_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (round, &seed) in seeds.iter().enumerate() {
        let input = crate::inputs::hospital(rows, seed);
        report.note(input.describe(seed));
        let oracle = GroundTruthOracle::new(input.truth.clone());
        if trace.enabled() {
            layer_probes(&input, trace, report);
        }
        let mut live = None;
        for _ in 0..spec.setups {
            drop(live.take());
            let cpu_start = crate::sys::cpu_seconds();
            let Some((session, plan, seconds)) =
                open(&input, spec.strategy, round as u32, trace, report)
            else {
                return;
            };
            setup_s.push(seconds);
            live = Some((session, plan, cpu_start));
        }
        let (mut session, plan, cpu_start) = live.expect("at least one open per round");
        let mut twin = trace
            .enabled()
            .then(|| self::twin(&input, spec.strategy, &plan, trace, report));
        let driven = drive(
            &mut session,
            plan,
            &oracle,
            Some(spec.answers),
            twin.as_mut(),
            trace,
            report,
        );
        cpu_s.push(crate::sys::cpu_seconds() - cpu_start);
        let (quality, improvement) = check_session(&session, &driven, &input, report);
        report.note(format!(
            "round={round} session_s={:.3} turn_p50_ms={:.3} turns_top={:?} interactions={} verifications={} learner_decisions={} confirmed={} updated={} correctly_updated={} initially_incorrect={} journal_events={} improvement_pct={improvement} precision={} recall={}",
            driven.session_s,
            median(&driven.turns_ms),
            top(&driven.turns_ms, 4),
            driven.interactions,
            session.engine().verifications(),
            session.engine().learner_decisions(),
            driven.confirmed.len(),
            quality.updated,
            quality.correctly_updated,
            quality.initially_incorrect,
            session.journal().events_total(),
            quality.precision,
            quality.recall
        ));
        turns_ms.extend_from_slice(&driven.turns_ms);
        session_s.push(driven.session_s);
        if let Some(twin) = &twin {
            report.checks.check(
                twin.engine.state().table() == session.engine().state().table()
                    && twin.engine.verifications() == session.engine().verifications()
                    && twin.engine.learner_decisions() == session.engine().learner_decisions(),
                "bare-engine twin ends equal to the served session",
            );
            per_layer(twin, &session, trace, report);
            // An in-memory journal: nothing reaches a disk or a socket.
            report.metric(
                "serve.journal_events",
                session.journal().events_total() as f64,
                "count",
            );
            report.metric("trace.session_s", driven.session_s, "s");
        }
    }
    report.note(format!(
        "rounds={} sessions_done={} setup_samples_s={setup_s:?}",
        seeds.len(),
        seeds.len()
    ));
    if !trace.enabled() {
        end_to_end(report, &setup_s, &turns_ms, &session_s, &cpu_s);
    }
}

/// The `n` largest of `samples`, largest first, rounded to 0.1 ms.
fn top(samples: &[f64], n: usize) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| b.total_cmp(a));
    v.iter()
        .take(n)
        .map(|x| (x * 10.0).round() / 10.0)
        .collect()
}

/// The end-to-end metrics every workload reports: medians over the
/// rounds' set-ups, sessions and CPU, percentiles over all turns.
pub fn end_to_end(
    report: &mut Report,
    setup_s: &[f64],
    turns_ms: &[f64],
    session_s: &[f64],
    cpu_s: &[f64],
) {
    report.metric("setup_s", median(setup_s), "s");
    report.metric("turn_p50_ms", median(turns_ms), "ms");
    let mut sorted = turns_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| sorted[((q * sorted.len() as f64) as usize).min(sorted.len() - 1)];
    report.note(format!(
        "turn_ms p10={:.2} p25={:.2} p50={:.2} p75={:.2} p90={:.2} p95={:.2} p97={:.2} p98={:.2} p99={:.2} p99.5={:.2} max={:.2}",
        at(0.10), at(0.25), at(0.5), at(0.75), at(0.9), at(0.95), at(0.97), at(0.98), at(0.99), at(0.995), at(1.0)
    ));
    match tail(turns_ms) {
        Some((p, value)) => {
            report.metric("turn_tail_ms", value, "ms");
            report.note(format!(
                "turn_tail_percentile=p{p} turns={}",
                turns_ms.len()
            ));
        }
        None => report.note(format!(
            "turn_tail_percentile=none turns={}",
            turns_ms.len()
        )),
    }
    report.metric("session_s", median(session_s), "s");
    report.metric("cpu_s", median(cpu_s), "s");
    report.metric("peak_rss_mb", crate::sys::peak_rss_mib(), "MiB");
}

/// Single calls into the `relation`, `cfd` and `repair` layers on the
/// workload's own input, timed from outside.
pub fn layer_probes(input: &Input, trace: &mut Trace, report: &mut Report) {
    let csv = to_csv(&input.dirty);
    let span = trace.begin("relation.csv_parse", 0);
    let parsed = parse_csv("dirty", &csv);
    report.metric("relation.csv_parse_ms", trace.end(span), "ms");
    report.checks.check(
        parsed.as_ref().is_ok_and(|t| t.len() == input.dirty.len()),
        "the dirty CSV parses back to the same row count",
    );

    let span = trace.begin("cfd.build", 0);
    let engine = ViolationEngine::build(&input.dirty, &input.rules);
    report.metric("cfd.build_ms", trace.end(span), "ms");
    report.metric("cfd.rules", input.rules.len() as f64, "count");
    report.metric(
        "cfd.initial_violations",
        engine.total_violations() as f64,
        "count",
    );
    drop(engine);

    let span = trace.begin("repair.state_build", 0);
    let state = RepairState::new(input.dirty.clone(), &input.rules);
    report.metric("repair.state_build_ms", trace.end(span), "ms");
    report.metric(
        "repair.initial_suggestions",
        state.pending_count() as f64,
        "count",
    );
}

/// The per-layer metrics of a traced in-process run.
pub fn per_layer(twin: &Twin, session: &Session, trace: &mut Trace, report: &mut Report) {
    let answers = trace.durations("core.answer");
    report.metric("core.answer_ms_p50", median(&answers), "ms");
    report.metric("core.answer_ms_total", answers.iter().sum(), "ms");
    report.metric("core.confirms", twin.confirms as f64, "count");
    report.metric("core.next_ms_total", trace.total_ms("core.next"), "ms");
    report.metric("core.group_next_ms_total", twin.group_next_ms, "ms");
    report.metric("core.groups", twin.groups as f64, "count");
    report.metric("core.learner_phases", twin.learner_phases as f64, "count");
    // Times that are 0 wherever the learner or compaction never runs; kept
    // off the metric list, which every workload must fill with measurements.
    report.note(format!(
        "core.learner_phase_ms_total={} serve.compaction_ms_total={}",
        twin.learner_ms, twin.compaction_ms
    ));
    report.metric(
        "core.learner_decisions",
        twin.engine.learner_decisions() as f64,
        "count",
    );
    report.metric(
        "learn.retrain_ms_total",
        trace.total_ms("learn.retrain"),
        "ms",
    );
    report.metric(
        "learn.retrains",
        trace.durations("learn.retrain").len() as f64,
        "count",
    );
    let predicts = trace.durations("learn.predict");
    report.metric(
        "learn.predict_us_p50",
        if predicts.is_empty() {
            0.0
        } else {
            median(&predicts) * 1e3
        },
        "us",
    );
    report.metric("learn.predictions", twin.predictions as f64, "count");
    report.metric("serve.store_self_ms_total", twin.store_self_ms, "ms");
    report.metric("serve.compactions", twin.compactions as f64, "count");
    report.metric(
        "serve.verb_ms_p50.next",
        median(&trace.durations("serve.next")),
        "ms",
    );
    report.metric(
        "serve.verb_ms_p50.answer",
        median(&trace.durations("serve.answer")),
        "ms",
    );

    let team: &TeamSession = session.team();
    let span = trace.begin("relation.snapshot_encode", 0);
    let bytes = team.to_snapshot_bytes();
    report.metric("relation.snapshot_encode_ms", trace.end(span), "ms");
    let span = trace.begin("relation.snapshot_decode", 0);
    let decoded = TeamSession::from_snapshot_bytes(&bytes);
    report.metric("relation.snapshot_decode_ms", trace.end(span), "ms");
    report.metric("relation.snapshot_bytes", bytes.len() as f64, "bytes");
    report.checks.check(
        decoded.is_ok_and(|d| {
            team_digest(&d) == team_digest(team)
                && d.engine().state().table() == team.engine().state().table()
        }),
        "the final session survives a snapshot round trip",
    );
}
