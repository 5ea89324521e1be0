//! `mux_wire_1k`: sixteen reviewers over one pipelined loopback
//! connection to an in-process event-loop server with durable journals,
//! then a cold restart that recovers every session from disk.
//!
//! The benchmark drives the sixteen lanes itself (the same state machine
//! as `MuxClient::drive_all`, one verb in flight per session, `busy`
//! refusals re-sent) so it can time each turn and count re-sends.

use std::collections::HashMap;
use std::fs;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use gdr_cfd::{parser::parse_rules, RuleSet};
use gdr_core::{GroundTruthOracle, Strategy, UserOracle};
use gdr_datagen::hospital::hospital_rules_text;
use gdr_relation::csv::{parse_csv, to_csv};
use gdr_relation::Table;
use gdr_repair::{Cell, Feedback, Update};
use gdr_serve::client::MuxClient;
use gdr_serve::journal::{decode_spec, encode_spec, DiskJournal, FsyncPolicy, JournalConfig};
use gdr_serve::server::ServerConfig;
use gdr_serve::store::{DurabilityConfig, OpenSpec, SessionStore};
use gdr_serve::wire::{decode_request_frame, encode_request_frame, Request, Response, WireError};

use crate::inproc;
use crate::inputs::Input;
use crate::report::Report;
use crate::stats::median;
use crate::trace::Trace;

pub struct MuxSpec {
    pub sessions: usize,
    pub workers: usize,
    /// User interactions per session before `finish`.
    pub answers: usize,
}

const STRATEGY: Strategy = Strategy::GdrNoLearning;

/// Journal records are written but not fsync'd.  The benchmark may write
/// only inside its checkout, which sits on a disk shared with other
/// tenants; an fsync per record there times the neighbours' disk traffic,
/// not this program.  Everything else is the default `JournalConfig`
/// (validated compaction every 64 events, checkpoints on disk).
const FSYNC: FsyncPolicy = FsyncPolicy::Never;

/// An event-loop server on a loopback port, serving one connection.
struct Server {
    store: Arc<SessionStore>,
    addr: SocketAddr,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Server {
    fn start(workers: usize, root: &Path) -> Server {
        let config = ServerConfig::new()
            .workers(workers)
            .max_connections(Some(1))
            .durability(DurabilityConfig {
                journal: JournalConfig {
                    fsync: FSYNC,
                    ..JournalConfig::default()
                },
                ..DurabilityConfig::new(root)
            });
        let store = config.build_store().expect("durable store");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let served = Arc::clone(&store);
        let thread = std::thread::spawn(move || config.serve(listener, served));
        Server {
            store,
            addr,
            thread,
        }
    }

    fn connect(&self) -> MuxClient<TcpStream, TcpStream> {
        MuxClient::connect(TcpStream::connect(self.addr).expect("connect")).expect("mux client")
    }

    /// Waits for the server to finish its (closed) connection; returns the
    /// store, which the caller drops to stop the sessions.
    fn join(self) -> Arc<SessionStore> {
        self.thread.join().expect("server thread").expect("serve");
        self.store
    }
}

#[derive(Clone, Copy, PartialEq)]
enum LaneState {
    AwaitOpen,
    AwaitPlan,
    AwaitAck,
    AwaitFinish,
    Done,
}

/// One session's client side.
struct Lane {
    session: String,
    state: LaneState,
    pending: Option<Request>,
    sent_at: Instant,
    answer_sent: Option<Instant>,
    /// The first question, held until every lane has one.
    first: Option<Response>,
    verbs_ms: Vec<f64>,
    turns_ms: Vec<f64>,
    confirmed: Vec<Cell>,
    verifications: usize,
    interactions: usize,
    /// When the lane's `finish` (or `Done`) reply arrived.
    done_at: Option<Instant>,
}

/// The client half of the workload: lanes, the in-flight routing table
/// and accounting.
struct Clients<'a> {
    mux: MuxClient<TcpStream, TcpStream>,
    lanes: Vec<Lane>,
    routes: HashMap<u64, usize>,
    oracle: &'a GroundTruthOracle,
    /// Interactions per session before `finish`.
    budget: usize,
    busy_resends: u64,
}

impl Clients<'_> {
    fn send(&mut self, lane: usize, request: Request, report: &mut Report) -> Result<(), String> {
        let verb = verb_name(&request);
        let seq = report.op(verb, self.mux.send(&request))?;
        self.routes.insert(seq, lane);
        let lane = &mut self.lanes[lane];
        lane.pending = Some(request);
        lane.sent_at = Instant::now();
        Ok(())
    }

    /// Receives one reply; re-sends it if it was a `busy` refusal.
    /// Returns the lane and the reply otherwise.
    fn recv(&mut self, report: &mut Report) -> Result<Option<(usize, Response)>, String> {
        let (seq, response) = self.mux.recv().map_err(|e| format!("recv: {e:?}"))?;
        let lane = self
            .routes
            .remove(&seq)
            .ok_or(format!("reply for unknown seq {seq}"))?;
        if let Response::Error(WireError::Busy { .. }) = response {
            self.busy_resends += 1;
            let request = self.lanes[lane]
                .pending
                .clone()
                .ok_or("busy with nothing in flight")?;
            let seq = self
                .mux
                .send(&request)
                .map_err(|e| format!("resend: {e:?}"))?;
            self.routes.insert(seq, lane);
            return Ok(None);
        }
        if let Response::Error(err) = &response {
            let verb = self.lanes[lane].pending.as_ref().map_or("?", verb_name);
            report.ops.entry(verb).or_default().1 += 1;
            return Err(format!(
                "{}: {verb} failed: {err:?}",
                self.lanes[lane].session
            ));
        }
        Ok(Some((lane, response)))
    }

    /// Answers a served question, or finishes the session once the budget
    /// is spent (or ends the lane on `Done`).
    fn respond(&mut self, index: usize, plan: Response, report: &mut Report) -> Result<(), String> {
        let lane = &mut self.lanes[index];
        let session = lane.session.clone();
        if let Response::Done { .. } = plan {
            lane.state = LaneState::Done;
            lane.done_at = Some(Instant::now());
            return Ok(());
        }
        if lane.interactions >= self.budget {
            lane.state = LaneState::AwaitFinish;
            return self.send(index, Request::Finish { session }, report);
        }
        lane.interactions += 1;
        let request = match plan {
            Response::Ask {
                id,
                tuple,
                attr,
                current,
                value,
                score,
                ..
            } => {
                let update = Update::new(tuple, attr, value, score);
                let feedback = self.oracle.feedback(&update, &current);
                if feedback == Feedback::Confirm {
                    lane.confirmed.push((tuple, attr));
                }
                Request::Answer {
                    session,
                    id,
                    feedback,
                }
            }
            Response::NeedValue {
                tuple,
                attr,
                current,
            } => match self.oracle.correct_value(tuple, attr) {
                Some(value) if value != current => {
                    lane.confirmed.push((tuple, attr));
                    Request::Supply {
                        session,
                        tuple,
                        attr,
                        value,
                    }
                }
                _ => Request::Skip {
                    session,
                    tuple,
                    attr,
                },
            },
            other => return Err(format!("{session}: expected a plan, got {other:?}")),
        };
        lane.state = LaneState::AwaitAck;
        lane.answer_sent = Some(Instant::now());
        self.send(index, request, report)
    }

    /// Sends every lane's `open`, pipelined, pulls each first question as
    /// its open is acknowledged, and returns once all are served.
    fn open_all(
        &mut self,
        table_csv: &str,
        rules: &str,
        report: &mut Report,
    ) -> Result<(), String> {
        for index in 0..self.lanes.len() {
            let request = Request::Open {
                session: self.lanes[index].session.clone(),
                table_csv: table_csv.to_string(),
                rules: rules.to_string(),
                strategy: STRATEGY,
                seed: None,
                ground_truth_csv: None,
                policy: None,
                lease_ttl: None,
            };
            self.send(index, request, report)?;
        }
        let mut waiting = self.lanes.len();
        while waiting > 0 {
            let Some((index, response)) = self.recv(report)? else {
                continue;
            };
            match (self.lanes[index].state, response) {
                (LaneState::AwaitOpen, Response::Opened { .. }) => {
                    self.lanes[index].state = LaneState::AwaitPlan;
                    let session = self.lanes[index].session.clone();
                    self.send(index, Request::Next { session }, report)?;
                }
                (LaneState::AwaitPlan, plan) => {
                    self.lanes[index].first = Some(plan);
                    waiting -= 1;
                }
                (_, other) => return Err(format!("unexpected reply while opening: {other:?}")),
            }
        }
        Ok(())
    }

    /// Drives every lane from its first question to `Done`.
    fn drive_all(&mut self, report: &mut Report) -> Result<(), String> {
        for index in 0..self.lanes.len() {
            let first = self.lanes[index]
                .first
                .take()
                .ok_or("lane has no first question")?;
            self.respond(index, first, report)?;
        }
        let mut live = self
            .lanes
            .iter()
            .filter(|l| l.state != LaneState::Done)
            .count();
        while live > 0 {
            let Some((index, response)) = self.recv(report)? else {
                continue;
            };
            let lane = &mut self.lanes[index];
            if lane.state == LaneState::AwaitFinish {
                if !matches!(response, Response::Done { .. }) {
                    return Err(format!(
                        "{}: finish expected done, got {response:?}",
                        lane.session
                    ));
                }
                lane.state = LaneState::Done;
                lane.done_at = Some(Instant::now());
                live -= 1;
                continue;
            }
            lane.verbs_ms
                .push(lane.sent_at.elapsed().as_secs_f64() * 1e3);
            match lane.state {
                LaneState::AwaitAck => {
                    match response {
                        Response::Answered { verifications }
                        | Response::Supplied { verifications } => {
                            lane.verifications = verifications
                        }
                        Response::Skipped => {}
                        other => {
                            return Err(format!("{}: expected an ack, got {other:?}", lane.session))
                        }
                    }
                    lane.state = LaneState::AwaitPlan;
                    let session = lane.session.clone();
                    self.send(index, Request::Next { session }, report)?;
                }
                LaneState::AwaitPlan => {
                    if let Some(sent) = lane.answer_sent.take() {
                        lane.turns_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                    }
                    self.respond(index, response, report)?;
                    if self.lanes[index].state == LaneState::Done {
                        live -= 1;
                    }
                }
                _ => return Err(format!("{}: reply in an unexpected state", lane.session)),
            }
        }
        Ok(())
    }
}

fn verb_name(request: &Request) -> &'static str {
    match request {
        Request::Open { .. } => "open",
        Request::Next { .. } => "next",
        Request::Answer { .. } => "answer",
        Request::Supply { .. } => "supply",
        Request::Skip { .. } => "skip",
        Request::Finish { .. } => "finish",
        _ => "other",
    }
}

fn new_lanes(sessions: usize, round: usize) -> Vec<Lane> {
    (0..sessions)
        .map(|i| Lane {
            session: format!("r{round}-s{i:02}"),
            state: LaneState::AwaitOpen,
            pending: None,
            sent_at: Instant::now(),
            answer_sent: None,
            first: None,
            verbs_ms: Vec::new(),
            turns_ms: Vec::new(),
            confirmed: Vec::new(),
            verifications: 0,
            interactions: 0,
            done_at: None,
        })
        .collect()
}

/// The inputs as the server sees them: parsed back from the CSV and rule
/// text the client sends, so the in-process twin and the checks compare
/// like with like.
fn wire_input(input: &Input) -> (Input, String, String) {
    let table_csv = to_csv(&input.dirty);
    let rules_text = hospital_rules_text();
    let dirty = parse_csv("dirty", &table_csv).expect("dirty CSV parses");
    let truth = parse_csv("truth", &to_csv(&input.truth)).expect("truth CSV parses");
    let rules = RuleSet::new(parse_rules(dirty.schema(), &rules_text).expect("rules parse"));
    assert_eq!(
        rules.len(),
        input.rules.len(),
        "tables this small use the unscaled rule set"
    );
    let parsed = Input {
        dirty,
        truth,
        rules,
        dirty_tuples: input.dirty_tuples,
    };
    (parsed, table_csv, rules_text)
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&entry.path()),
            _ => entry.metadata().map_or(0, |m| m.len()),
        })
        .sum()
}

/// What the store held for one session at a point in time.
struct Held {
    table: Table,
    verifications: usize,
    events: usize,
    tail: usize,
    syncs: u64,
    dir: Option<PathBuf>,
}

fn held(store: &SessionStore, id: &str) -> Result<Held, String> {
    store
        .with_session(id, |s| {
            Ok(Held {
                table: s.engine().state().table().clone(),
                verifications: s.engine().verifications(),
                events: s.journal().events_total(),
                tail: s.journal().transcript().len(),
                syncs: s.disk().map_or(0, |d| d.syncs()),
                dir: s.disk_dir().map(Path::to_path_buf),
            })
        })
        .map_err(|e| format!("{id}: {e:?}"))
}

pub fn run(spec: &MuxSpec, rows: usize, seeds: &[u64], trace: &mut Trace, report: &mut Report) {
    let root_base = crate::out_dir().join(format!("journal-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root_base);
    if let Err(err) = run_in(spec, rows, seeds, &root_base, trace, report) {
        report.checks.check(false, err);
    }
    let _ = fs::remove_dir_all(&root_base);
}

/// One round per seed, each on its own table and journal root: open every
/// session pipelined and serve every first question (set-up), drive all to
/// the budget and `finish`, check against an in-process twin.  After the
/// last round the server is dropped and a fresh one recovers every session
/// from disk.
fn run_in(
    spec: &MuxSpec,
    rows: usize,
    seeds: &[u64],
    root_base: &Path,
    trace: &mut Trace,
    report: &mut Report,
) -> Result<(), String> {
    let (mut setup_s, mut turns_ms, mut session_s, mut cpu_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut busy_resends = 0;
    report.note(format!(
        "journal fsync={FSYNC:?} root={}",
        root_base.display()
    ));
    for (round, &seed) in seeds.iter().enumerate() {
        let generated = crate::inputs::hospital(rows, seed);
        report.note(generated.describe(seed));
        let (input, table_csv, rules_text) = wire_input(&generated);
        let oracle = GroundTruthOracle::new(input.truth.clone());
        if trace.enabled() {
            inproc::layer_probes(&input, trace, report);
        }
        let root = root_base.join(format!("r{round}"));
        let cpu_start = crate::sys::cpu_seconds();
        let server = Server::start(spec.workers, &root);
        let mut clients = Clients {
            mux: server.connect(),
            lanes: new_lanes(spec.sessions, round),
            routes: HashMap::new(),
            oracle: &oracle,
            budget: spec.answers,
            busy_resends: 0,
        };
        let span = trace.begin("setup", round as u32);
        let start = Instant::now();
        clients.open_all(&table_csv, &rules_text, report)?;
        setup_s.push(start.elapsed().as_secs_f64());
        trace.end(span);

        let span = trace.begin("session", round as u32);
        let start = Instant::now();
        clients.drive_all(report)?;
        trace.end(span);
        // Each user's session: from the moment all first questions are
        // served and answering starts, until that session's `finish`.
        for lane in &clients.lanes {
            let done = lane.done_at.ok_or("a lane ended without a done reply")?;
            session_s.push(done.duration_since(start).as_secs_f64());
        }
        // Like the in-process workloads: CPU of the round's opens and
        // sessions (server threads included).
        cpu_s.push(crate::sys::cpu_seconds() - cpu_start);
        busy_resends += clients.busy_resends;
        let lanes = std::mem::take(&mut clients.lanes);
        drop(clients);
        let ids: Vec<String> = lanes.iter().map(|l| l.session.clone()).collect();
        let before: Vec<Held> = ids
            .iter()
            .map(|id| held(&server.store, id))
            .collect::<Result<_, _>>()?;
        drop(Server::join(server));
        for lane in &lanes {
            turns_ms.extend_from_slice(&lane.turns_ms);
        }

        // The in-process twin: one Session driven the same way.
        let (mut twin_session, plan, _) =
            inproc::open(&input, STRATEGY, round as u32, trace, report)
                .ok_or("in-process twin open failed")?;
        let mut engine_twin = trace
            .enabled()
            .then(|| inproc::twin(&input, STRATEGY, &plan, trace, report));
        let twin_run = inproc::drive(
            &mut twin_session,
            plan,
            &oracle,
            Some(spec.answers),
            engine_twin.as_mut(),
            trace,
            report,
        );
        let (quality, improvement) =
            inproc::check_session(&twin_session, &twin_run, &input, report);
        for (lane, b) in lanes.iter().zip(&before) {
            report.checks.check(
                &b.table == twin_session.engine().state().table()
                    && b.verifications == twin_session.engine().verifications()
                    && lane.verifications == b.verifications
                    && lane.confirmed == twin_run.confirmed,
                format!("{} ends equal to the in-process twin", lane.session),
            );
        }
        let journal_events: usize = before.iter().map(|h| h.events).sum();
        let journal_fsyncs: u64 = before.iter().map(|h| h.syncs).sum();
        let journal_bytes = dir_bytes(&root);
        let overhead_us: Vec<f64> = lanes
            .iter()
            .flat_map(|lane| {
                lane.verbs_ms
                    .iter()
                    .zip(&twin_run.verbs_ms)
                    .map(|(wire, local)| (wire - local) * 1e3)
            })
            .collect();
        report.note(format!(
            "round={round} sessions_done={} interactions_per_session={} verifications={} confirmed={} updated={} correctly_updated={} initially_incorrect={} improvement_pct={improvement} precision={} recall={} busy_resends={busy_resends} journal_events={journal_events} journal_fsyncs={journal_fsyncs} journal_bytes={journal_bytes} wire_overhead_us_p50={}",
            lanes.len(),
            twin_run.interactions,
            twin_session.engine().verifications(),
            twin_run.confirmed.len(),
            quality.updated,
            quality.correctly_updated,
            quality.initially_incorrect,
            quality.precision,
            quality.recall,
            median(&overhead_us)
        ));
        if round + 1 < seeds.len() {
            let _ = fs::remove_dir_all(&root);
            continue;
        }

        // ---- cold restart: a fresh store on the last round's root -------
        let server = Server::start(spec.workers, &root);
        let mut clients = Clients {
            mux: server.connect(),
            lanes: new_lanes(spec.sessions, round),
            routes: HashMap::new(),
            oracle: &oracle,
            budget: spec.answers,
            busy_resends: 0,
        };
        let span = trace.begin("recover", round as u32);
        let start = Instant::now();
        for (index, id) in ids.iter().enumerate() {
            clients.send(
                index,
                Request::Next {
                    session: id.clone(),
                },
                report,
            )?;
        }
        let mut waiting = ids.len();
        while waiting > 0 {
            if let Some((index, response)) = clients.recv(report)? {
                report.checks.check(
                    matches!(response, Response::Done { .. }),
                    format!("{} is done after recovery", ids[index]),
                );
                waiting -= 1;
            }
        }
        let recover_s = start.elapsed().as_secs_f64();
        trace.end(span);
        busy_resends += clients.busy_resends;
        drop(clients);
        let after: Vec<Held> = ids
            .iter()
            .map(|id| held(&server.store, id))
            .collect::<Result<_, _>>()?;
        drop(Server::join(server));
        for (id, (b, a)) in ids.iter().zip(before.iter().zip(&after)) {
            report.checks.check(
                a.table == b.table && a.verifications == b.verifications && a.events == b.events,
                format!("{id} recovers its pre-restart table, verifications and events"),
            );
        }
        let tail_events: usize = after.iter().map(|h| h.tail).sum();
        report.note(format!(
            "recover_s={recover_s} recover_tail_events={tail_events} busy_resends={busy_resends}"
        ));

        if let Some(twin) = &engine_twin {
            inproc::per_layer(twin, &twin_session, trace, report);
            report.metric("serve.journal_events", journal_events as f64, "count");
            report.metric("serve.journal_fsyncs", journal_fsyncs as f64, "count");
            report.metric("serve.journal_bytes", journal_bytes as f64, "bytes");
            report.metric("serve.recover_tail_events", tail_events as f64, "count");
            report.metric("serve.busy_resends", busy_resends as f64, "count");
            report.metric("trace.session_s", median(&session_s), "s");
            wire_probes(
                &table_csv,
                &rules_text,
                &input,
                before[0].dir.as_deref(),
                trace,
                report,
            );
        }
    }
    report.note(format!(
        "rounds={} setup_samples_s={setup_s:?}",
        seeds.len()
    ));
    if !trace.enabled() {
        inproc::end_to_end(report, &setup_s, &turns_ms, &session_s, &cpu_s);
    }
    Ok(())
}

/// Single calls into the wire codec and the disk journal, timed from
/// outside: decoding one `open` frame, decoding the journaled spec, and
/// loading one session's journal directory.
fn wire_probes(
    table_csv: &str,
    rules_text: &str,
    input: &Input,
    dir: Option<&Path>,
    trace: &mut Trace,
    report: &mut Report,
) {
    let open = Request::Open {
        session: "probe".to_string(),
        table_csv: table_csv.to_string(),
        rules: rules_text.to_string(),
        strategy: STRATEGY,
        seed: None,
        ground_truth_csv: None,
        policy: None,
        lease_ttl: None,
    };
    let frame = encode_request_frame(&open, Some(0));
    let span = trace.begin("serve.open_decode", 0);
    let (_, decoded) = decode_request_frame(&frame);
    let open_decode_ms = trace.end(span);
    report.checks.check(
        decoded.is_ok_and(|r| r == open),
        "an open frame decodes to the request sent",
    );

    let mut spec = OpenSpec::new(input.dirty.clone(), input.rules.clone());
    spec.strategy = STRATEGY;
    let payload = encode_spec(&spec);
    let span = trace.begin("serve.spec_decode", 0);
    let decoded = decode_spec(&payload);
    let spec_decode_ms = trace.end(span);
    report.checks.check(
        decoded.is_ok_and(|s| s.dirty == spec.dirty),
        "the journaled spec decodes to the table it was encoded from",
    );

    let mut journal_load_ms = f64::NAN;
    if let Some(dir) = dir {
        let span = trace.begin("serve.journal_load", 0);
        let loaded = DiskJournal::load(dir);
        journal_load_ms = trace.end(span);
        report
            .checks
            .check(loaded.is_ok(), "a finished session's journal loads");
    }
    report.note(format!(
        "serve.open_decode_ms={open_decode_ms} serve.spec_decode_ms={spec_decode_ms} serve.journal_load_ms={journal_load_ms} open_frame_bytes={}",
        frame.len()
    ));
}
