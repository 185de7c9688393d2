//! `uni-churn`: the scaled university opened on a directory, one writer
//! applying registrar-style `Mutation` batches and publishing each, one
//! reader on a `SnapshotSession` running the `uni-serve` retrieve and
//! describe mix in `Request` form.
//!
//! Every read is checked after the run against the plain-Rust model as
//! of the epoch the reader saw; the final state is checked against the
//! model, a fresh knowledge base loaded from `dump()`, and the directory
//! reopened.

use crate::gen::{self, Rng, UniModel, GRADES, SEMESTERS};
use crate::report::{median, peak_rss_mb, rows_of, same_lines, Latencies, Outcome};
use crate::serve::{e3, e5, e6, kb_clone_us, plan_compile_us, UNI_SHAPE};
use crate::spans::Recorder;
use crate::Config;
use qdk::core::Describe;
use qdk::engine::Retrieve;
use qdk::logic::parser::{parse_atom, parse_body};
use qdk::{
    CollectSink, DurabilityMetrics, EvalOptions, KnowledgeBase, Mutation, ObsSink, QueryTrace,
    Request, Session, SnapshotSession,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One registrar action, as applied to the model.
#[derive(Clone, Debug)]
enum Write {
    Enroll(String, String),
    Drop(String, String),
    Complete(String, String, String, String),
    /// Student index, old GPA text, new GPA text.
    Gpa(usize, String, String),
    Rule(String),
}

impl Write {
    /// The fact-level ops as (insert?, fact) text pairs.
    fn ops(&self, m: &UniModel) -> Vec<(bool, String)> {
        match self {
            Write::Enroll(s, c) => vec![(true, format!("enroll({s}, {c})"))],
            Write::Drop(s, c) => vec![(false, format!("enroll({s}, {c})"))],
            Write::Complete(s, c, sem, g) => {
                vec![(true, format!("complete({s}, {c}, {sem}, {g})"))]
            }
            Write::Gpa(i, old, new) => {
                let (s, major) = (&m.students[*i], &m.majors[*i]);
                vec![
                    (false, format!("student({s}, {major}, {old})")),
                    (true, format!("student({s}, {major}, {new})")),
                ]
            }
            Write::Rule(_) => Vec::new(),
        }
    }

    /// The `Mutation` batch and the length of its text.
    fn mutation(&self, m: &UniModel) -> (Mutation, usize) {
        if let Write::Rule(r) = self {
            return (Mutation::new().rule(r.clone()), r.len());
        }
        let mut bytes = 0;
        let mut mutation = Mutation::new();
        for (insert, f) in self.ops(m) {
            bytes += f.len();
            mutation = if insert {
                mutation.insert(f)
            } else {
                mutation.retract(f)
            };
        }
        (mutation, bytes)
    }

    fn apply(&self, m: &mut UniModel) {
        match self {
            Write::Enroll(s, c) => {
                m.enroll.entry(c.clone()).or_default().insert(s.clone());
            }
            Write::Drop(s, c) => {
                m.enroll.get_mut(c).map(|set| set.remove(s));
            }
            Write::Complete(s, c, sem, g) => {
                m.complete
                    .entry(s.clone())
                    .or_default()
                    .push((c.clone(), sem.clone(), g.clone()))
            }
            Write::Gpa(i, _, new) => m.gpa[*i] = new.clone(),
            Write::Rule(_) => {}
        }
    }
}

/// Generates the registrar's next action against the writer's model: a
/// fixed cycle of enroll, complete, drop and GPA change, with a new rule
/// every 100th write.
struct Registrar {
    rng: Rng,
    enrolled: Vec<(String, String)>,
    n: u64,
}

impl Registrar {
    fn new(m: &UniModel, seed: u64) -> Self {
        let mut enrolled: Vec<(String, String)> = m
            .enroll
            .iter()
            .flat_map(|(c, set)| set.iter().map(move |s| (s.clone(), c.clone())))
            .collect();
        enrolled.sort();
        Registrar {
            rng: Rng::new(seed),
            enrolled,
            n: 0,
        }
    }

    fn next(&mut self, m: &UniModel) -> Write {
        self.n += 1;
        let rng = &mut self.rng;
        if self.n.is_multiple_of(100) {
            let c = rng.pick(&m.courses);
            return Write::Rule(format!(
                "ta_pool{}(X) :- can_ta(X, {c}), honor(X).",
                self.n / 100
            ));
        }
        match self.n % 4 {
            0 => loop {
                let s = rng.pick(&m.students).clone();
                let c = rng.pick(&m.courses).clone();
                if !m.enroll.get(&c).is_some_and(|set| set.contains(&s)) {
                    self.enrolled.push((s.clone(), c.clone()));
                    return Write::Enroll(s, c);
                }
            },
            1 => loop {
                let s = rng.pick(&m.students).clone();
                let c = rng.pick(&m.courses).clone();
                let done = m.complete.get(&s);
                if !done.is_some_and(|d| d.iter().any(|(dc, _, _)| *dc == c)) {
                    let sem = rng.pick(&SEMESTERS).to_string();
                    let g = rng.pick(&GRADES).to_string();
                    return Write::Complete(s, c, sem, g);
                }
            },
            2 => {
                let i = rng.below(self.enrolled.len());
                let (s, c) = self.enrolled.swap_remove(i);
                Write::Drop(s, c)
            }
            _ => {
                let i = rng.below(m.students.len());
                let old = m.gpa[i].clone();
                loop {
                    let new = format!("{:.2}", 2.0 + rng.below(41) as f64 * 0.05);
                    if new != old {
                        return Write::Gpa(i, old, new);
                    }
                }
            }
        }
    }
}

/// One read of the mix, in `Request` form.
#[derive(Clone, Debug)]
enum Read {
    Honor(String),
    Prior(String),
    CanTa(String),
    E3(String, String),
    E4,
    E5(String),
    E6(String),
}

impl Read {
    fn is_retrieve(&self) -> bool {
        matches!(self, Read::Honor(_) | Read::Prior(_) | Read::CanTa(_))
    }

    fn form(&self) -> &'static str {
        match self {
            Read::Honor(_) => "retrieve honor where enroll",
            Read::Prior(_) => "retrieve prior",
            Read::CanTa(_) => "retrieve can_ta",
            Read::E3(..) => "describe can_ta where student",
            Read::E4 => "describe honor",
            Read::E5(_) => "describe can_ta where teach",
            Read::E6(_) => "describe prior where",
        }
    }

    /// (subject, where-conjunction).
    fn request(&self) -> (String, Option<String>) {
        match self {
            Read::Honor(c) => ("honor(X)".into(), Some(format!("enroll(X, {c})"))),
            Read::Prior(c) => (format!("prior({c}, Y)"), None),
            Read::CanTa(s) => (format!("can_ta({s}, Y)"), None),
            Read::E3(c, d) => (
                format!("can_ta(X, {c})"),
                Some(format!("student(X, {d}, V), V > 3.7")),
            ),
            Read::E4 => ("honor(X)".into(), None),
            Read::E5(p) => (
                "can_ta(X, Y)".into(),
                Some(format!("honor(X), teach({p}, Y)")),
            ),
            Read::E6(c) => ("prior(X, Y)".into(), Some(format!("prior({c}, Y)"))),
        }
    }

    fn run(&self, snap: &SnapshotSession) -> qdk::Result<String> {
        let (subject, hyp) = self.request();
        let mut req = Request::subject(subject);
        if let Some(h) = hyp {
            req = req.where_clause(h);
        }
        let resp = if self.is_retrieve() {
            snap.retrieve(req)?
        } else {
            snap.describe(req)?
        };
        Ok(resp.to_string())
    }

    /// Checks a rendered answer against the model as of its epoch.
    fn check(&self, m: &UniModel, rendered: &str) -> bool {
        let lines = |v: Vec<String>| same_lines(rendered, v);
        match self {
            Read::Honor(c) => rows_of(rendered) == m.honor_enrolled(c),
            Read::Prior(c) => rows_of(rendered) == m.prior(c),
            Read::CanTa(s) => rows_of(rendered) == m.can_ta(s),
            Read::E3(c, _) => lines(e3(c)),
            Read::E4 => lines(vec!["honor(X) ← student(X, Y, Z) ∧ (Z > 3.7)".into()]),
            Read::E5(p) => lines(e5(p)),
            Read::E6(c) => lines(e6(c)),
        }
    }
}

/// The reader's cycle: the `uni-serve` shapes that a snapshot serves
/// (the §6 forms and `compare` run only through `Session::run`). Reads
/// of the maintained store cost tens of µs and describes hundreds, so
/// the counts put read p50 and retrieve p50 inside the prior reads,
/// retrieve p90 inside the honor ∩ enroll reads and read p90 inside the
/// describes: 2 can_ta, 6 prior, 2 honor; 1 E4, 3 E3, 1 E6, 1 E5.
fn read_cycle(m: &UniModel, rng: &mut Rng) -> Vec<Read> {
    let c = |rng: &mut Rng| rng.pick(&m.courses).clone();
    let s = |rng: &mut Rng| rng.pick(&m.students).clone();
    let d = |rng: &mut Rng| rng.pick(&m.depts).clone();
    vec![
        Read::Prior(c(rng)),
        Read::E3(c(rng), d(rng)),
        Read::CanTa(s(rng)),
        Read::Prior(c(rng)),
        Read::Honor(c(rng)),
        Read::E6(c(rng)),
        Read::Prior(c(rng)),
        Read::E4,
        Read::CanTa(s(rng)),
        Read::Prior(c(rng)),
        Read::E3(c(rng), d(rng)),
        Read::Honor(c(rng)),
        Read::Prior(c(rng)),
        Read::E5(rng.pick(&m.profs).clone()),
        Read::Prior(c(rng)),
        Read::E3(c(rng), d(rng)),
    ]
}

/// A workspace inside the checkout, removed when dropped.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let path = Path::new(".perfbench-tmp").join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create work directory");
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".perfbench-tmp");
    }
}

/// Opens a fresh directory, loads the script as one batch, builds the
/// maintained store, publishes, and warms the reader on every form.
fn setup(
    dir: &Path,
    script: &str,
    m: &UniModel,
    rng: &mut Rng,
    out: &mut Outcome,
) -> (Session, SnapshotSession) {
    let mut session = Session::open(dir).expect("open knowledge base directory");
    session
        .batch(|kb| kb.load(script).map(|_| ()))
        .expect("generated script loads");
    session
        .knowledge_base_mut()
        .materialize_maintained()
        .expect("materialize");
    let snap = session.snapshot().expect("first publish");
    for read in read_cycle(m, rng) {
        if let Err(e) = read.run(&snap) {
            out.wrong(format!("warm-up {read:?}: {e}"));
        }
    }
    (session, snap)
}

struct ReadLog {
    epoch: u64,
    read: Read,
    rendered: qdk::Result<String>,
}

#[derive(Default)]
struct WriterStats {
    latency: Latencies,
    bytes: usize,
    wal_appends: u64,
    wal_bytes: u64,
    wal_fsyncs: u64,
    checkpoints: u64,
    checkpoint_bytes: u64,
    maintain_delta: u64,
    recomputes: u64,
    plan_lookups: u64,
    plan_hits: u64,
    writes: u64,
}

/// Layer probes the traced writer runs beside each durable write: the
/// same ops on an in-memory maintained copy and on a bare EDB copy.
struct Probes {
    shadow: KnowledgeBase,
    edb: qdk::storage::Edb,
    parse_us: Vec<f64>,
    clone_us: Vec<f64>,
    maintain_us: Vec<f64>,
    insert_us: Vec<f64>,
}

impl Probes {
    fn new(writer: &KnowledgeBase) -> Self {
        let mut shadow = KnowledgeBase::new();
        shadow.load(&writer.dump()).expect("dump reloads");
        shadow.materialize_maintained().expect("materialize shadow");
        let edb = shadow.edb().clone();
        Probes {
            shadow,
            edb,
            parse_us: Vec::new(),
            clone_us: Vec::new(),
            maintain_us: Vec::new(),
            insert_us: Vec::new(),
        }
    }

    fn run(&mut self, write: &Write, m: &UniModel, writer: &KnowledgeBase) {
        let ops = write.ops(m);
        let t = Instant::now();
        let atoms: Vec<(bool, qdk::logic::Atom)> = ops
            .iter()
            .map(|(ins, f)| (*ins, parse_atom(f).expect("generated fact parses")))
            .collect();
        let rule = match write {
            Write::Rule(r) => Some(qdk::logic::parser::parse_rule(r).expect("rule parses")),
            _ => None,
        };
        self.parse_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let copy = writer.clone();
        self.clone_us.push(t.elapsed().as_secs_f64() * 1e6);
        drop(copy);
        let t = Instant::now();
        // The shadow holds the writer's facts, so every op applies.
        for (ins, a) in &atoms {
            if *ins {
                self.shadow.add_fact(a).expect("probe insert applies");
            } else {
                self.shadow.retract_fact(a).expect("probe retract applies");
            }
        }
        if let Some(r) = rule {
            self.shadow.add_rule(r).expect("probe rule applies");
        }
        let maintain = t.elapsed().as_secs_f64() * 1e6;
        let t = Instant::now();
        for (ins, a) in &atoms {
            if *ins {
                self.edb.insert_fact(a).expect("probe insert stores");
            } else {
                self.edb.remove_fact(a).expect("probe remove stores");
            }
        }
        let insert = t.elapsed().as_secs_f64() * 1e6;
        self.insert_us.push(insert);
        self.maintain_us.push((maintain - insert).max(0.0));
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn durability(kb: &KnowledgeBase) -> DurabilityMetrics {
    kb.durability_metrics().unwrap_or_default()
}

/// The registrar's pace: at most 40 batches a second. The writer is a
/// closed loop with think time, so every run publishes at the same rate
/// and the reader's epoch hops (and the describe-cache state each hop
/// brings) do not depend on how fast this host's disk syncs.
const WRITE_PERIOD: std::time::Duration = std::time::Duration::from_millis(25);

/// The writer: registrar batches until `seconds` pass, each applied and
/// published, logged as (epoch, write). With `trace`, every other group
/// of four writes (one of each kind) runs traced and probed, and its
/// figures go to `stats[1]`.
#[allow(clippy::too_many_arguments)]
fn writer_loop(
    session: &mut Session,
    model: &mut UniModel,
    registrar: &mut Registrar,
    seconds: f64,
    epoch_now: &AtomicU64,
    stats: &mut [WriterStats; 2],
    log: &mut Vec<(u64, Write)>,
    mut trace: Option<(&mut Recorder, &mut Probes)>,
    out: &mut Outcome,
) {
    let started = Instant::now();
    let mut last_plan = session.knowledge_base().compiled_plan();
    let mut before = durability(session.knowledge_base());
    let mut due = started;
    while started.elapsed().as_secs_f64() < seconds {
        // Think time: the next batch starts one period after the last
        // one started, or at once when the writer is behind.
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        due = Instant::now() + WRITE_PERIOD;
        let write = registrar.next(model);
        let (mutation, bytes) = write.mutation(model);
        let traced = match trace.as_mut() {
            Some(t) if (registrar.n - 1) / 4 % 2 == 1 => Some(t),
            _ => None,
        };
        let st = &mut stats[usize::from(traced.is_some())];
        let req = registrar.n;
        let t = match traced {
            Some((rec, probes)) => {
                probes.run(&write, model, session.knowledge_base());
                rec.begin("write", req);
                let t = Instant::now();
                let applied = rec.time("lang.apply", req, || session.apply(mutation));
                let published = rec.time("lang.publish", req, || {
                    applied.and_then(|a| session.publish().map(|e| (a, e)))
                });
                let secs = t.elapsed().as_secs_f64();
                rec.end();
                (published, secs)
            }
            None => {
                let t = Instant::now();
                let published = session
                    .apply(mutation)
                    .and_then(|a| session.publish().map(|e| (a, e)));
                (published, t.elapsed().as_secs_f64())
            }
        };
        let (published, secs) = t;
        out.attempted += 1;
        st.writes += 1;
        match published {
            Ok((applied, epoch)) => {
                st.latency.push(0, secs);
                st.bytes += bytes;
                let mt = &applied.maintenance;
                st.maintain_delta += (mt.derived_added + mt.derived_deleted + mt.rederived) as u64;
                st.recomputes += applied.recomputes() as u64;
                write.apply(model);
                log.push((epoch.0, write));
                epoch_now.store(epoch.0, Ordering::Release);
            }
            Err(e) => out.wrong(format!("write {write:?}: {e}")),
        }
        let after = durability(session.knowledge_base());
        st.wal_appends += after.wal_appends - before.wal_appends;
        st.wal_bytes += after.wal_bytes - before.wal_bytes;
        st.wal_fsyncs += after.wal_fsyncs - before.wal_fsyncs;
        if after.checkpoints > before.checkpoints {
            st.checkpoints += after.checkpoints - before.checkpoints;
            st.checkpoint_bytes += after.last_checkpoint_bytes;
        }
        before = after;
        let plan = session.knowledge_base().compiled_plan();
        st.plan_lookups += 1;
        if Arc::ptr_eq(&plan, &last_plan) {
            st.plan_hits += 1;
        }
        last_plan = plan;
    }
}

#[derive(Default)]
struct ReaderStats {
    forms: std::collections::BTreeMap<&'static str, Latencies>,
    retrieve: Latencies,
    describe: Latencies,
    lag: Vec<f64>,
    maintained_serve: Vec<f64>,
    cache_hits: u64,
    cache_misses: u64,
    describe_core: Vec<f64>,
    trees: u64,
    leaves: u64,
    theorems: u64,
}

/// One read replayed as layer calls in spans: refresh, request parsing,
/// the knowledge base's retrieve or describe, render.
fn traced_read(
    snap: &mut SnapshotSession,
    read: &Read,
    rec: &mut Recorder,
    req: u64,
    st: &mut ReaderStats,
) -> qdk::Result<String> {
    rec.begin("read", req);
    rec.time("storage.refresh", req, || snap.refresh());
    let (subject, hyp) = read.request();
    let parsed = rec.time("logic.parse", req, || {
        let atom = parse_atom(&subject)?;
        let body = match &hyp {
            Some(h) => parse_body(h)?,
            None => Vec::new(),
        };
        Ok::<_, qdk::logic::ParseError>((atom, body))
    });
    let (atom, body) = parsed?;
    let kb = snap.knowledge_base();
    let collector = Arc::new(CollectSink::new());
    let mut opts = kb.describe_options().clone();
    opts.sink = ObsSink::new(Arc::clone(&collector) as Arc<dyn qdk::Sink>);
    let answer: qdk::Answer = if read.is_retrieve() {
        let mut eval = EvalOptions::with_limits(opts.limits).with_parallelism(opts.parallelism);
        eval.cancel = opts.cancel.clone();
        eval.sink = opts.sink.clone();
        rec.begin("lang.retrieve", req);
        let a = kb.retrieve_with_options(&Retrieve::new(atom, body), kb.strategy(), eval);
        let t = QueryTrace::from_events(&collector.take(), String::new(), 0, Vec::new());
        if t.counter("maintained_serve").is_some() {
            let us = t.span_micros("execute").unwrap_or(0);
            st.maintained_serve.push(us as f64);
            rec.child("engine.maintained_serve", us);
        }
        rec.end();
        qdk::Answer::Data(a?)
    } else {
        rec.begin("lang.describe", req);
        let a = kb.describe_with_options(&Describe::new(atom, body), &opts);
        let t = QueryTrace::from_events(&collector.take(), String::new(), 0, Vec::new());
        if t.counter("describe_cache_miss").is_some() {
            st.cache_misses += 1;
            let us = t.span_micros("execute").unwrap_or(0);
            st.describe_core.push(us as f64);
            st.trees += t.counter("trees_expanded").unwrap_or(0);
            st.leaves += t.counter("leaves_identified").unwrap_or(0);
            rec.child("core.describe", us);
        } else {
            st.cache_hits += 1;
        }
        rec.end();
        let a = a?;
        st.theorems += a.theorems.len() as u64;
        qdk::Answer::Knowledge(a)
    };
    let rendered = rec.time("lang.render", req, || answer.to_string());
    rec.end();
    Ok(rendered)
}

/// The reader: whole cycles until the writer stops. With `rec`, every
/// other cycle runs traced and its figures go to `stats[1]`.
fn reader_loop(
    mut snap: SnapshotSession,
    model: &UniModel,
    mut rng: Rng,
    stop: &AtomicBool,
    epoch_now: &AtomicU64,
    mut rec: Option<&mut Recorder>,
) -> ([ReaderStats; 2], Vec<ReadLog>) {
    let mut stats: [ReaderStats; 2] = Default::default();
    let mut log = Vec::new();
    let mut req = 0;
    let mut cycle = 0u64;
    while !stop.load(Ordering::Acquire) {
        let traced = rec.is_some() && cycle % 2 == 1;
        let st = &mut stats[usize::from(traced)];
        for read in read_cycle(model, &mut rng) {
            let t = Instant::now();
            let rendered = match rec.as_mut() {
                Some(rec) if traced => traced_read(&mut snap, &read, rec, req, st),
                _ => {
                    snap.refresh();
                    read.run(&snap)
                }
            };
            let secs = t.elapsed().as_secs_f64();
            req += 1;
            let epoch = snap.epoch().0;
            st.lag
                .push(epoch_now.load(Ordering::Acquire).saturating_sub(epoch) as f64);
            st.forms.entry(read.form()).or_default().push(cycle, secs);
            if read.is_retrieve() {
                st.retrieve.push(cycle, secs);
            } else {
                st.describe.push(cycle, secs);
            }
            log.push(ReadLog {
                epoch,
                read,
                rendered,
            });
        }
        cycle += 1;
    }
    (stats, log)
}

/// Checks every logged read against the model as of its epoch.
fn check_reads(
    initial: &UniModel,
    writes: &[(u64, Write)],
    mut reads: Vec<ReadLog>,
    out: &mut Outcome,
) {
    reads.sort_by_key(|r| r.epoch);
    let mut model = initial.clone();
    let mut next = 0;
    for r in reads {
        while next < writes.len() && writes[next].0 <= r.epoch {
            writes[next].1.apply(&mut model);
            next += 1;
        }
        out.attempted += 1;
        match &r.rendered {
            Ok(text) if r.read.check(&model, text) => {}
            Ok(text) => out.wrong(format!(
                "read {:?} at epoch {} → {}",
                r.read,
                r.epoch,
                text.replace('\n', " / ")
            )),
            Err(e) => out.wrong(format!("read {:?}: error {e}", r.read)),
        }
    }
}

/// Final-state statements, answered by three knowledge bases that must
/// agree: the churned writer, a fresh load of its `dump()`, and the
/// reopened directory; retrieves must also match the model.
fn final_statements(m: &UniModel, rng: &mut Rng) -> Vec<(String, Option<Vec<String>>)> {
    let mut out = Vec::new();
    for i in 0..8 {
        let c = rng.pick(&m.courses).clone();
        out.push((
            format!("retrieve honor(X) where enroll(X, {c})."),
            Some(m.honor_enrolled(&c)),
        ));
        out.push((format!("retrieve prior({c}, Y)."), Some(m.prior(&c))));
        out.push((format!("describe prior(X, Y) where prior({c}, Y)."), None));
        // A bound can_ta runs the whole fixpoint on an unmaintained
        // knowledge base; a few are enough.
        if i % 4 == 0 {
            let s = rng.pick(&m.students).clone();
            out.push((format!("retrieve can_ta({s}, Y)."), Some(m.can_ta(&s))));
        }
    }
    for text in [
        "describe can_ta(X, Y) where honor(X) and teach(p1x1, Y).",
        "describe can_ta(X, Y) where not honor(X).",
        "describe where honor(X) and foreign(X).",
        "describe * where honor(X).",
        "compare (describe honor(X)) with (describe deans_list(X)).",
    ] {
        out.push((text.to_string(), None));
    }
    out
}

fn answers(kb: &mut KnowledgeBase, stmts: &[(String, Option<Vec<String>>)]) -> Vec<String> {
    stmts
        .iter()
        .map(|(text, rows)| match kb.run(text) {
            // Data rows may come back in any order; compare them sorted.
            Ok(a) if rows.is_some() => rows_of(&a.to_string()).join("\n"),
            Ok(a) => a.to_string(),
            Err(e) => format!("error: {e}"),
        })
        .collect()
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let g = gen::university(UNI_SHAPE, cfg.seed);
    out.note(format!(
        "knowledge base: {} facts; durability: FsyncPolicy::Always, checkpoint every 1024 ops (defaults)",
        g.facts
    ));
    let mut rng = Rng::new(cfg.seed.wrapping_mul(131).wrapping_add(3));
    let mut setups = Vec::new();
    let mut kept = None;
    for k in 0..3 {
        drop(kept.take());
        let dir = TempDir::new(&format!("churn{k}"));
        let t = Instant::now();
        let (session, snap) = setup(&dir.0, &g.script, &g.model, &mut rng, &mut out);
        setups.push(t.elapsed().as_secs_f64());
        kept = Some((session, snap, dir));
    }
    let (mut session, snap, dir) = kept.expect("set up");
    out.metric("setup_s", median(&setups), "s");
    let compile_us = plan_compile_us(session.knowledge_base());

    let mut model = g.model.clone();
    let mut registrar = Registrar::new(&model, cfg.seed ^ 0xC0FFEE);
    let mut writes: Vec<(u64, Write)> = Vec::new();
    // The writer stores the epoch it just published (Release) and the
    // stop flag (Release); the reader loads both with Acquire. The epoch
    // only feeds the lag statistic; the reader's data comes from its
    // snapshot.
    let epoch_now = AtomicU64::new(snap.epoch().0);

    let origin = Instant::now();
    let mut wrec = cfg.trace.then(|| Recorder::new(origin, "writer"));
    let mut rrec = cfg.trace.then(|| Recorder::new(origin, "reader"));
    let mut probes = cfg.trace.then(|| Probes::new(session.knowledge_base()));
    let mut wstats: [WriterStats; 2] = Default::default();
    let stop = AtomicBool::new(false);
    let reader_model = model.clone();
    let reader_rng = Rng::new(rng.next_u64());
    let (rstats, rlog) = std::thread::scope(|scope| {
        let reader_snap = snap.clone();
        let rrec = rrec.as_mut();
        let reader = scope.spawn(|| {
            reader_loop(
                reader_snap,
                &reader_model,
                reader_rng,
                &stop,
                &epoch_now,
                rrec,
            )
        });
        let traced_writer = match (wrec.as_mut(), probes.as_mut()) {
            (Some(r), Some(p)) => Some((r, p)),
            _ => None,
        };
        writer_loop(
            &mut session,
            &mut model,
            &mut registrar,
            cfg.seconds,
            &epoch_now,
            &mut wstats,
            &mut writes,
            traced_writer,
            &mut out,
        );
        stop.store(true, Ordering::Release);
        reader.join().expect("reader thread")
    });
    let rec = match (wrec, rrec) {
        (Some(mut w), Some(r)) => {
            w.absorb(r);
            Some(w)
        }
        _ => None,
    };
    check_reads(&g.model, &writes, rlog, &mut out);

    // Final state: writer, fresh load of the dump, reopened directory.
    let stmts = final_statements(&model, &mut rng);
    let from_writer = answers(session.knowledge_base_mut(), &stmts);
    let mut fresh = KnowledgeBase::new();
    fresh
        .load(&session.knowledge_base().dump())
        .expect("dump reloads");
    let from_dump = answers(&mut fresh, &stmts);
    drop(fresh);
    drop(snap);
    drop(session);
    let mut reopens = Vec::new();
    let mut reopened = None;
    for _ in 0..3 {
        drop(reopened.take());
        let t = Instant::now();
        let s = Session::open(&dir.0).expect("reopen");
        reopens.push(t.elapsed().as_secs_f64());
        reopened = Some(s);
    }
    let mut reopened = reopened.expect("reopened");
    let from_disk = answers(reopened.knowledge_base_mut(), &stmts);
    for (i, (text, rows)) in stmts.iter().enumerate() {
        out.attempted += 1;
        let model_ok = rows.as_ref().is_none_or(|r| from_writer[i] == r.join("\n"));
        if !model_ok || from_writer[i] != from_dump[i] || from_writer[i] != from_disk[i] {
            out.wrong(format!(
                "final {text}: writer [{}] dump [{}] reopened [{}]",
                from_writer[i].replace('\n', " / "),
                from_dump[i].replace('\n', " / "),
                from_disk[i].replace('\n', " / ")
            ));
        }
    }

    let (w, r) = (&wstats[0], &rstats[0]);
    let reads_all = {
        let mut l = r.retrieve.clone();
        l.extend(&r.describe);
        l
    };
    out.metric("read_p50_ms", reads_all.windowed(0.5), "ms");
    out.metric("read_p90_ms", reads_all.windowed(0.9), "ms");
    // Throughput over the time spent in untraced operations (closed
    // loop: one request in flight per thread).
    out.metric(
        "reads_per_s",
        reads_all.len() as f64 / (reads_all.total_ms() / 1e3),
        "1/s",
    );
    out.metric("retrieve_p50_ms", r.retrieve.windowed(0.5), "ms");
    out.metric("retrieve_p90_ms", r.retrieve.windowed(0.9), "ms");
    out.metric("describe_p50_ms", r.describe.windowed(0.5), "ms");
    out.metric("describe_p90_ms", r.describe.windowed(0.9), "ms");
    out.metric("write_p50_ms", w.latency.p(0.5), "ms");
    out.metric("write_p90_ms", w.latency.p(0.9), "ms");
    out.metric(
        "writes_per_s",
        w.latency.len() as f64 / (w.latency.total_ms() / 1e3),
        "1/s",
    );
    out.metric("reopen_s", median(&reopens), "s");
    out.metric(
        "write_amp",
        (w.wal_bytes + w.checkpoint_bytes) as f64 / w.bytes.max(1) as f64,
        "ratio",
    );
    for (form, l) in &r.forms {
        out.note(format!(
            "{form:<40} n={:<6} p50 {:>10.3} ms  p90 {:>10.3} ms",
            l.len(),
            l.p(0.5),
            l.p(0.9)
        ));
    }
    out.note(format!(
        "{} writes, {} retrieves, {} describes untraced",
        w.latency.len(),
        r.retrieve.len(),
        r.describe.len(),
    ));
    if cfg.trace {
        let (tw, tr) = (&wstats[1], &rstats[1]);
        let rec = rec.as_ref().expect("traced run recorded");
        let probes = probes.as_ref().expect("traced run probed");
        let selfs = rec.self_times();
        let per_call = |name: &str| selfs.get(name).map_or(0.0, |s| s.1 / s.0.max(1) as f64);
        let writes_n = tw.writes.max(1) as f64;
        let ops_parse = mean(&probes.parse_us);
        out.metric("lang.render_us", per_call("lang.render"), "us");
        out.metric(
            "lang.plan_hit_ratio",
            (w.plan_hits + tw.plan_hits) as f64 / (w.plan_lookups + tw.plan_lookups).max(1) as f64,
            "ratio",
        );
        out.metric(
            "lang.describe_cache_hit_ratio",
            tr.cache_hits as f64 / (tr.cache_hits + tr.cache_misses).max(1) as f64,
            "ratio",
        );
        out.metric("lang.kb_clone_us", mean(&probes.clone_us), "us");
        out.metric("lang.publish_us", per_call("lang.publish"), "us");
        out.metric(
            "logic.parse_us",
            (selfs.get("logic.parse").map_or(0.0, |s| s.1) + probes.parse_us.iter().sum::<f64>())
                / (selfs.get("logic.parse").map_or(0, |s| s.0) as f64 + writes_n),
            "us",
        );
        out.metric("engine.plan_compile_us", compile_us, "us");
        out.metric(
            "engine.maintained_serve_us",
            mean(&tr.maintained_serve),
            "us",
        );
        out.metric("engine.maintain_us", mean(&probes.maintain_us), "us");
        out.metric(
            "engine.maintain_delta",
            (w.maintain_delta + tw.maintain_delta) as f64 / (w.writes + tw.writes).max(1) as f64,
            "count",
        );
        out.metric(
            "engine.recomputes",
            (w.recomputes + tw.recomputes) as f64,
            "count",
        );
        out.metric("core.describe_us", mean(&tr.describe_core), "us");
        let misses = tr.cache_misses.max(1) as f64;
        out.metric("core.trees_expanded", tr.trees as f64 / misses, "count");
        out.metric("core.leaves_identified", tr.leaves as f64 / misses, "count");
        out.metric(
            "core.trees_per_theorem",
            tr.trees as f64 / tr.theorems.max(1) as f64,
            "ratio",
        );
        out.metric("storage.insert_us", mean(&probes.insert_us), "us");
        out.metric("storage.refresh_us", per_call("storage.refresh"), "us");
        let wn = w.writes.max(1) as f64;
        out.metric("durability.wal_appends", w.wal_appends as f64 / wn, "count");
        out.metric("durability.wal_bytes", w.wal_bytes as f64 / wn, "bytes");
        out.metric("durability.wal_fsyncs", w.wal_fsyncs as f64 / wn, "count");
        out.metric("durability.checkpoints", w.checkpoints as f64, "count");
        out.metric(
            "durability.checkpoint_bytes",
            w.checkpoint_bytes as f64,
            "bytes",
        );
        let checkpoints: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                let done = reopened.checkpoint();
                let us = t.elapsed().as_secs_f64() * 1e6;
                if let Err(e) = done {
                    out.wrong(format!("checkpoint: {e}"));
                }
                us
            })
            .collect();
        out.metric("durability.checkpoint_us", median(&checkpoints), "us");
        out.metric("session.reader_epoch_lag", mean(&r.lag), "count");
        // The apply span holds parse, undo copy, maintenance, storage
        // and the WAL; the probes measure all but the WAL.
        let apply = per_call("lang.apply");
        let wal = apply
            - ops_parse
            - mean(&probes.clone_us)
            - mean(&probes.maintain_us)
            - mean(&probes.insert_us);
        out.note(format!(
            "traced write ({:.0} writes): apply {:.0} µs = parse {:.0} + undo copy {:.0} + maintenance {:.0} + storage {:.0} + durability/session by difference {:.0}; publish {:.0} µs",
            tw.writes,
            apply,
            ops_parse,
            mean(&probes.clone_us),
            mean(&probes.maintain_us),
            mean(&probes.insert_us),
            wal,
            per_call("lang.publish")
        ));
        // Accounting: each traced layer's self time per operation of
        // its kind (write or read), scaled to the untraced phase's
        // operation counts, against the untraced phase's wall time.
        let write_layers = ["lang.apply", "lang.publish"];
        let read_layers = [
            "storage.refresh",
            "logic.parse",
            "lang.retrieve",
            "engine.maintained_serve",
            "lang.describe",
            "core.describe",
            "lang.render",
        ];
        let untraced_reads = (r.retrieve.len() + r.describe.len()) as f64;
        let traced_reads = (tr.retrieve.len() + tr.describe.len()).max(1) as f64;
        let untraced_writes = w.writes as f64;
        let scale = |name: &str| {
            if write_layers.contains(&name) || name == "write" {
                untraced_writes / writes_n
            } else {
                untraced_reads / traced_reads
            }
        };
        let scaled: std::collections::BTreeMap<&'static str, (u64, f64)> = selfs
            .iter()
            .map(|(k, (n, us))| (*k, (*n, us * scale(k))))
            .collect();
        let untraced_us =
            (w.latency.total_ms() + r.retrieve.total_ms() + r.describe.total_ms()) * 1e3;
        let traced_us = rec.total("write") * scale("write") + rec.total("read") * scale("read");
        let layers: Vec<&str> = write_layers.iter().chain(&read_layers).copied().collect();
        crate::accounting(
            &mut out,
            &scaled,
            &layers,
            untraced_us,
            traced_us,
            "session (request resolution and glue between the layer calls)",
        );
        let covered: f64 = layers
            .iter()
            .map(|l| scaled.get(l).map_or(0.0, |s| s.1))
            .sum();
        let ops = (untraced_writes + untraced_reads).max(1.0);
        out.metric("session.overhead_us", (untraced_us - covered) / ops, "us");
        crate::write_spans(cfg, rec, &mut out);
    } else {
        out.metric("session.reader_epoch_lag", mean(&r.lag), "count");
        out.metric(
            "lang.kb_clone_us",
            kb_clone_us(reopened.knowledge_base()),
            "us",
        );
    }
    drop(reopened);
    drop(dir);
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out
}
