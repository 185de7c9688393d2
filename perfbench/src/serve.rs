//! The read-only workloads, `uni-serve` and `policy-audit`: one client
//! sends statements of the unified language through `Session::run` and
//! renders every answer, in a fixed cycle of statement forms whose
//! constants come from the seed.

use crate::gen::{self, PolicyModel, PolicyShape, Rng, UniModel, UniShape};
use crate::report::{median, peak_rss_mb, rows_of, same_lines, Latencies, Outcome};
use crate::spans::Recorder;
use crate::Config;
use qdk::core::{compare, describe, extensions};
use qdk::engine::{query, ProgramPlan};
use qdk::lang::ast::Statement;
use qdk::lang::parser::parse_statement;
use qdk::{Answer, CollectSink, EvalOptions, KnowledgeBase, ObsSink, QueryTrace, Session};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Retrieve,
    Describe,
}

/// What a correct answer looks like.
#[derive(Clone)]
pub enum Expect {
    /// Exactly these data rows (tab-separated values), in any order.
    Rows(Arc<Vec<String>>),
    /// Exactly these rendered lines, in any order.
    Lines(Vec<String>),
    /// Byte-identical to the same statement on a knowledge base with the
    /// same rules and no facts (describe answers never read facts), and
    /// starting with the given text when one is pinned.
    Reference(Option<&'static str>),
}

#[derive(Clone)]
pub struct Op {
    pub text: String,
    pub kind: Kind,
    pub expect: Expect,
}

impl Op {
    /// The statement with its generated constants (the identifiers that
    /// carry a number, like `c3x5` or `s17`) blanked out: its form.
    pub fn form(&self) -> String {
        fn flush(word: &mut String, out: &mut String) {
            let generated = word.starts_with(|c: char| c.is_ascii_lowercase())
                && word.contains(|c: char| c.is_ascii_digit());
            out.push_str(if generated { "_" } else { word });
            word.clear();
        }
        let mut out = String::new();
        let mut word = String::new();
        for c in self.text.chars() {
            if c.is_alphanumeric() || c == '_' {
                word.push(c);
            } else {
                flush(&mut word, &mut out);
                out.push(c);
            }
        }
        flush(&mut word, &mut out);
        out
    }
}

fn retrieve(text: String, rows: Vec<String>) -> Op {
    Op {
        text,
        kind: Kind::Retrieve,
        expect: Expect::Rows(Arc::new(rows)),
    }
}

fn describe_lines(text: String, lines: Vec<String>) -> Op {
    Op {
        text,
        kind: Kind::Describe,
        expect: Expect::Lines(lines),
    }
}

fn describe_ref(text: String, prefix: Option<&'static str>) -> Op {
    Op {
        text,
        kind: Kind::Describe,
        expect: Expect::Reference(prefix),
    }
}

pub const UNI_SHAPE: UniShape = UniShape {
    students: 5000,
    depts: 20,
    courses_per_dept: 40,
    profs_per_dept: 10,
    enrolls_per_student: 4,
    completes_per_student: 3,
};

const UNI_RULES_ONLY: UniShape = UniShape {
    students: 0,
    depts: 0,
    ..UNI_SHAPE
};

pub const POLICY_SHAPE: PolicyShape = PolicyShape {
    employees: 3000,
    fanout: 4,
    depth: 4,
    memberships: 2,
    resources_per_group: 2,
};

/// Pinned paper answers (Examples 3–6) with the constants substituted.
pub fn e3(c: &str) -> Vec<String> {
    vec![
        format!("can_ta(X, {c}) ← complete(X, {c}, Y, 4.0)"),
        format!("can_ta(X, {c}) ← complete(X, {c}, Y, Z) ∧ (Z > 3.3) ∧ taught(U, {c}, Y, V) ∧ teach(U, {c})"),
    ]
}

pub fn e5(p: &str) -> Vec<String> {
    vec![
        "can_ta(X, Y) ← complete(X, Y, Z, 4.0)".to_string(),
        format!("can_ta(X, Y) ← complete(X, Y, Z, U) ∧ (U > 3.3) ∧ taught({p}, Y, Z, V)"),
    ]
}

pub fn e6(c: &str) -> Vec<String> {
    vec![
        format!("prior(X, Y) ← (X = {c})"),
        format!("prior(X, Y) ← prior(X, {c})"),
    ]
}

/// Orders a cycle so that each group's statements are spread evenly
/// through it, instead of running one form back to back.
fn spread(groups: Vec<Vec<Op>>) -> Vec<Op> {
    let mut keyed: Vec<(f64, usize, Op)> = Vec::new();
    for (g, ops) in groups.into_iter().enumerate() {
        let n = ops.len() as f64;
        for (i, op) in ops.into_iter().enumerate() {
            keyed.push(((i as f64 + 0.5) / n, g, op));
        }
    }
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    keyed.into_iter().map(|(_, _, op)| op).collect()
}

/// `n` statements from one generator.
fn times(n: usize, rng: &mut Rng, mut f: impl FnMut(&mut Rng) -> Op) -> Vec<Op> {
    (0..n).map(|_| f(rng)).collect()
}

/// Example-1/2-shaped retrieves and the paper's describe forms.
///
/// Latencies are multi-modal (each form has its own cost), so the counts
/// put every reported quantile inside a cost mode rather than on the edge
/// between two, and the heaviest retrieve is weighted down so it does
/// not starve the rest. The describes that fan out over worker threads
/// (E3, E5, `describe *`) track host contention most, so the medians
/// land on E6, which does not. In cost order: 8 cheap §6/E4 forms,
/// 10 E6 (describe p50 and read p50), 3 E3, 1 E5, 5 `describe *`
/// (describe p90); 1 honor ∩ enroll, 4 prior (retrieve p50 and read
/// p90), 1 can_ta (retrieve p90).
pub fn uni_cycle(m: &UniModel, rng: &mut Rng) -> Vec<Op> {
    let course = |rng: &mut Rng| rng.pick(&m.courses).clone();
    let honor = |rng: &mut Rng| {
        let c = course(rng);
        retrieve(
            format!("retrieve honor(X) where enroll(X, {c})."),
            m.honor_enrolled(&c),
        )
    };
    let prior = |rng: &mut Rng| {
        let c = course(rng);
        retrieve(format!("retrieve prior({c}, Y)."), m.prior(&c))
    };
    let can_ta = |rng: &mut Rng| {
        let s = rng.pick(&m.students).clone();
        retrieve(format!("retrieve can_ta({s}, Y)."), m.can_ta(&s))
    };
    let ex3 = |rng: &mut Rng| {
        let c = course(rng);
        let d = rng.pick(&m.depts);
        describe_lines(
            format!("describe can_ta(X, {c}) where student(X, {d}, V) and V > 3.7."),
            e3(&c),
        )
    };
    let ex5 = |rng: &mut Rng| {
        let p = rng.pick(&m.profs).clone();
        describe_lines(
            format!("describe can_ta(X, Y) where honor(X) and teach({p}, Y)."),
            e5(&p),
        )
    };
    let ex6 = |rng: &mut Rng| {
        let c = course(rng);
        describe_lines(format!("describe prior(X, Y) where prior({c}, Y)."), e6(&c))
    };
    let cheap = vec![
        describe_lines(
            "describe honor(X).".into(),
            vec!["honor(X) ← student(X, Y, Z) ∧ (Z > 3.7)".into()],
        ),
        describe_ref(
            format!(
                "describe honor(X) where necessary complete(X, {}, Z, U) and U > 3.3.",
                course(rng)
            ),
            None,
        ),
        describe_ref(
            "describe can_ta(X, Y) where not honor(X).".into(),
            Some("false"),
        ),
        describe_ref(
            format!(
                "describe can_ta(X, Y) where not teach({}, C).",
                rng.pick(&m.profs)
            ),
            Some("true"),
        ),
        describe_ref(
            "describe where honor(X) and foreign(X).".into(),
            Some("true"),
        ),
        describe_ref(
            "describe where foreign(X) and unmarried(X).".into(),
            Some("false"),
        ),
        describe_ref(
            format!(
                "describe where student(X, {}, Z) and Z < 3.5 and can_ta(X, U).",
                rng.pick(&m.depts)
            ),
            Some("false"),
        ),
        describe_ref(
            "compare (describe honor(X)) with (describe deans_list(X)).".into(),
            Some("the first concept subsumes the second"),
        ),
    ];
    let wildcard = |_: &mut Rng| describe_ref("describe * where honor(X).".into(), None);
    spread(vec![
        cheap,
        times(10, rng, ex6),
        times(3, rng, ex3),
        times(1, rng, ex5),
        times(5, rng, wildcard),
        times(1, rng, honor),
        times(4, rng, prior),
        times(1, rng, can_ta),
    ])
}

/// Heavy free retrieves over the derived access relations, bound
/// membership lookups, and describes over the approval tower. As in
/// [`uni_cycle`], the counts keep the quantiles inside cost modes. The
/// deep `compare` is the costliest describe and, at ~15 ms, the one whose
/// cost host contention moves least (thread start-up is a small share of
/// it), so it carries describe p50, describe p90 and read p50. In cost
/// order: 4 cheap describes and §6 forms, 1 tower describe, 1 `where
/// necessary`, 1 `describe *`, 21 deep `compare`; 5 in_group, 4 can_read
/// (retrieve p50 and read p90), 1 can_write, 2 can_release (retrieve
/// p90).
pub fn policy_cycle(m: &PolicyModel, all: &PolicyOracle, rng: &mut Rng) -> Vec<Op> {
    let emp = |rng: &mut Rng| rng.pick(&m.employees).clone();
    let grp = |rng: &mut Rng| rng.pick(&m.groups).clone();
    let in_group_of = |rng: &mut Rng| {
        let e = emp(rng);
        retrieve(
            format!("retrieve in_group({e}, G)."),
            m.groups_of(&e).into_iter().collect(),
        )
    };
    let readable = |rng: &mut Rng| {
        let e = emp(rng);
        retrieve(format!("retrieve can_read({e}, R)."), m.readable_by(&e))
    };
    let free = |pred: &str, rows: &Arc<Vec<String>>| Op {
        text: format!("retrieve {pred}(X, Y)."),
        kind: Kind::Retrieve,
        expect: Expect::Rows(Arc::clone(rows)),
    };
    let constant = |text: &str, prefix: Option<&'static str>| describe_ref(text.into(), prefix);
    let nested = |rng: &mut Rng| {
        describe_ref(
            format!("describe nested(X, Y) where nested({}, Y).", grp(rng)),
            None,
        )
    };
    let approve = |rng: &mut Rng| {
        describe_ref(
            format!(
                "describe can_approve(X, R) where in_group(X, {}).",
                grp(rng)
            ),
            None,
        )
    };
    let cheap = vec![
        constant(
            "describe can_write(X, R) where not trusted(X).",
            Some("false"),
        ),
        constant(
            "describe where clearance(X, R) and R < 2 and admin(X).",
            Some("false"),
        ),
        constant(
            "compare (describe admin(X)) with (describe trusted(X)).",
            Some("the second concept subsumes the first"),
        ),
        nested(rng),
    ];
    let deep_compare = "compare (describe can_approve(X, R)) with (describe can_release(X, R)).";
    spread(vec![
        cheap,
        times(1, rng, approve),
        vec![constant(
            "describe can_release(X, R) where necessary admin(X).",
            None,
        )],
        vec![constant("describe * where admin(X).", None)],
        (0..21).map(|_| constant(deep_compare, None)).collect(),
        vec![
            free("in_group", &all.in_group),
            free("in_group", &all.in_group),
        ],
        times(3, rng, in_group_of),
        vec![
            free("can_read", &all.can_read),
            free("can_read", &all.can_read),
        ],
        times(2, rng, readable),
        vec![free("can_write", &all.can_write)],
        vec![
            free("can_release", &all.can_release),
            free("can_release", &all.can_release),
        ],
    ])
}

/// Whole-relation answers of the policy knowledge base, computed once.
pub struct PolicyOracle {
    in_group: Arc<Vec<String>>,
    can_read: Arc<Vec<String>>,
    can_write: Arc<Vec<String>>,
    can_release: Arc<Vec<String>>,
}

impl PolicyOracle {
    fn new(m: &PolicyModel) -> Self {
        let sorted = |mut v: Vec<String>| {
            v.sort();
            Arc::new(v)
        };
        let read = m.can_read_rows();
        // can_write needs trust (admins are trusted); can_approve adds
        // seniority (admins are senior); can_release is then implied,
        // since every approver is trusted.
        let write: Vec<String> = read
            .iter()
            .filter(|r| m.trusted(r.split('\t').next().unwrap()))
            .cloned()
            .collect();
        let release = write
            .iter()
            .filter(|r| m.senior(r.split('\t').next().unwrap()))
            .cloned()
            .collect();
        PolicyOracle {
            in_group: sorted(m.in_group_rows()),
            can_read: sorted(read),
            can_write: sorted(write),
            can_release: sorted(release),
        }
    }
}

/// Makes the next cycle of statements.
pub type Cycle = Box<dyn FnMut(&mut Rng) -> Vec<Op>>;

/// A read-only workload, ready to run.
pub struct ReadOnly {
    pub script: String,
    pub facts: usize,
    /// The same rules without facts: the describe reference.
    pub rules_only: String,
    pub cycle: Cycle,
}

pub fn uni_serve(seed: u64) -> ReadOnly {
    let g = gen::university(UNI_SHAPE, seed);
    let model = g.model;
    ReadOnly {
        script: g.script,
        facts: g.facts,
        rules_only: gen::university(UNI_RULES_ONLY, seed).script,
        cycle: Box::new(move |rng| uni_cycle(&model, rng)),
    }
}

pub fn policy_audit(seed: u64) -> ReadOnly {
    let g = gen::policy(POLICY_SHAPE, seed);
    let model = g.model;
    let oracle = PolicyOracle::new(&model);
    ReadOnly {
        script: g.script,
        facts: g.facts,
        rules_only: gen::POLICY_RULES.to_string(),
        cycle: Box::new(move |rng| policy_cycle(&model, &oracle, rng)),
    }
}

/// Answers describes on the rules-only knowledge base, memoized.
pub struct Reference {
    kb: KnowledgeBase,
    memo: HashMap<String, String>,
}

impl Reference {
    pub fn new(rules: &str) -> Self {
        let mut kb = KnowledgeBase::new();
        kb.load(rules).expect("rules load");
        Reference {
            kb,
            memo: HashMap::new(),
        }
    }

    fn answer(&mut self, text: &str) -> String {
        if let Some(a) = self.memo.get(text) {
            return a.clone();
        }
        let a = match self.kb.run(text) {
            Ok(a) => a.to_string(),
            Err(e) => format!("error: {e}"),
        };
        self.memo.insert(text.to_string(), a.clone());
        a
    }
}

/// Checks one rendered answer against its oracle.
pub fn check(op: &Op, rendered: &str, reference: &mut Reference) -> Result<(), String> {
    let ok = match &op.expect {
        Expect::Rows(rows) => rows_of(rendered) == **rows,
        Expect::Lines(lines) => same_lines(rendered, lines.clone()),
        Expect::Reference(prefix) => {
            rendered == reference.answer(&op.text) && prefix.is_none_or(|p| rendered.starts_with(p))
        }
    };
    if ok {
        Ok(())
    } else {
        let shown: String = rendered.chars().take(300).collect();
        Err(format!("{} → {}", op.text, shown.replace('\n', " / ")))
    }
}

/// Sets the workload up: load the script, then run one cycle (and the
/// plan compile probe's inputs) so the plan cache and indexes are warm.
fn setup(wl: &mut ReadOnly, rng: &mut Rng, out: &mut Outcome) -> (Session, f64) {
    let started = Instant::now();
    let mut session = Session::new();
    session.load(&wl.script).expect("generated script loads");
    for op in (wl.cycle)(rng) {
        if let Err(e) = session.run(&op.text) {
            out.wrong(format!("warm-up {}: {e}", op.text));
        }
    }
    (session, started.elapsed().as_secs_f64())
}

/// Times `ProgramPlan::compile_with_stats` on the loaded rules (median
/// of several compiles, µs).
pub fn plan_compile_us(kb: &KnowledgeBase) -> f64 {
    let samples: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            let plan = ProgramPlan::compile_with_stats(kb.idb(), kb.edb().stats());
            let el = t.elapsed().as_secs_f64() * 1e6;
            drop(plan);
            el
        })
        .collect();
    median(&samples)
}

/// Times the undo copy every transaction takes (median, µs).
pub fn kb_clone_us(kb: &KnowledgeBase) -> f64 {
    let samples: Vec<f64> = (0..21)
        .map(|_| {
            let t = Instant::now();
            let copy = kb.clone();
            let el = t.elapsed().as_secs_f64() * 1e6;
            drop(copy);
            el
        })
        .collect();
    median(&samples)
}

/// Engine and describe counters, from a collector-fed repeat of some
/// statements (outside the timed calls, so collecting costs no time).
#[derive(Default)]
struct Counters {
    retrieves: u64,
    rows: u64,
    delta_facts: u64,
    rounds: u64,
    rule_firings: u64,
    index_probes: u64,
    full_scans: u64,
    describes: u64,
    theorems: u64,
    trees_expanded: u64,
    leaves_identified: u64,
}

impl Counters {
    fn count(&mut self, kb: &KnowledgeBase, text: &str) {
        let collector = Arc::new(CollectSink::new());
        let mut opts = kb.describe_options().clone();
        opts.sink = ObsSink::new(Arc::clone(&collector) as Arc<dyn qdk::Sink>);
        let trace = || QueryTrace::from_events(&collector.take(), String::new(), 0, Vec::new());
        match parse_statement(text) {
            Ok(Statement::Retrieve(r)) => {
                let mut eval = eval_options(&opts);
                eval.sink = opts.sink.clone();
                let plan = kb.compiled_plan();
                let Ok(a) =
                    query::retrieve_compiled(kb.edb(), kb.idb(), &plan, &r, kb.strategy(), eval)
                else {
                    return;
                };
                let t = trace();
                self.retrieves += 1;
                self.rows += a.len() as u64;
                self.delta_facts += t.counter("delta_facts").unwrap_or(0);
                self.rule_firings += t.counter("rule_firings").unwrap_or(0);
                self.index_probes += t.counter("index_probes").unwrap_or(0);
                self.full_scans += t.counter("full_scans").unwrap_or(0);
                self.rounds += t.spans.iter().filter(|s| s.name == "iteration").count() as u64;
            }
            Ok(Statement::Describe(d)) => {
                let Ok(a) =
                    describe::describe_with_constraints(kb.idb(), kb.constraints(), &d, &opts)
                else {
                    return;
                };
                let t = trace();
                self.describes += 1;
                self.theorems += a.theorems.len() as u64;
                self.trees_expanded += t.counter("trees_expanded").unwrap_or(0);
                self.leaves_identified += t.counter("leaves_identified").unwrap_or(0);
            }
            _ => {}
        }
    }
}

/// The evaluation options `KnowledgeBase::retrieve` derives from the
/// knowledge base's defaults.
fn eval_options(opts: &qdk::DescribeOptions) -> EvalOptions {
    let mut eval = EvalOptions::with_limits(opts.limits).with_parallelism(opts.parallelism);
    eval.cancel = opts.cancel.clone();
    eval.sink = opts.sink.clone();
    eval
}

/// One statement replayed as the sequence of public layer calls that
/// `Session::run` makes, each inside a span: parse, plan lookup,
/// evaluation (engine, core describe, or a §6 extension), render.
fn replay(
    kb: &KnowledgeBase,
    text: &str,
    rec: &mut Recorder,
    req: u64,
    plans: &mut (u64, u64, Option<Arc<ProgramPlan>>),
) -> Result<String, String> {
    rec.begin("request", req);
    let stmt = rec
        .time("lang.parse", req, || parse_statement(text))
        .map_err(|e| e.to_string())?;
    let opts = kb.describe_options();
    let idb = kb.idb();
    let err = |e: qdk::core::DescribeError| e.to_string();
    let answer = match stmt {
        Statement::Retrieve(r) => {
            let plan = rec.time("lang.plan", req, || kb.compiled_plan());
            plans.0 += 1;
            if plans.2.as_ref().is_some_and(|p| Arc::ptr_eq(p, &plan)) {
                plans.1 += 1;
            }
            plans.2 = Some(Arc::clone(&plan));
            let eval = eval_options(opts);
            let a = rec
                .time("engine.execute", req, || {
                    query::retrieve_compiled(kb.edb(), idb, &plan, &r, kb.strategy(), eval)
                })
                .map_err(|e| e.to_string())?;
            Answer::Data(a)
        }
        Statement::Describe(d) => rec
            .time("core.describe", req, || {
                describe::describe_with_constraints(idb, kb.constraints(), &d, opts)
            })
            .map(Answer::Knowledge)
            .map_err(err)?,
        other => {
            rec.begin("core.extensions", req);
            let a = match other {
                Statement::DescribeNecessary(d) => {
                    extensions::describe_necessary(idb, &d, opts).map(Answer::Knowledge)
                }
                Statement::DescribeDisjunctive { subject, disjuncts } => {
                    extensions::describe_disjunctive(idb, &subject, &disjuncts, opts)
                        .map(Answer::Knowledge)
                }
                Statement::DescribeWithout { subject, negated } => {
                    extensions::describe_without(idb, &subject, &negated, opts)
                        .map(Answer::Necessity)
                }
                Statement::DescribePossible { hypothesis } => extensions::describe_possible(
                    idb,
                    &hypothesis,
                    kb.keys(),
                    kb.constraints(),
                    opts,
                )
                .map(Answer::Possibility),
                Statement::DescribeWildcard { hypothesis } => {
                    extensions::describe_wildcard(idb, &hypothesis, opts).map(Answer::Wildcard)
                }
                Statement::Compare { first, second } => {
                    compare::compare(idb, &first, &second, opts)
                        .map(|c| Answer::Comparison(Box::new(c)))
                }
                s => panic!("not a query statement: {s:?}"),
            };
            rec.end();
            a.map_err(err)?
        }
    };
    let rendered = rec.time("lang.render", req, || answer.to_string());
    rec.end();
    Ok(rendered)
}

/// Layers whose self time the traced run attributes; everything else a
/// request spends is session glue (dispatch, describe cache, locks).
const LAYER_SPANS: [&str; 6] = [
    "lang.parse",
    "lang.plan",
    "lang.render",
    "engine.execute",
    "core.describe",
    "core.extensions",
];

pub fn run(cfg: &Config, mut wl: ReadOnly) -> Outcome {
    let mut out = Outcome::default();
    let mut rng = Rng::new(cfg.seed.wrapping_mul(31).wrapping_add(7));
    out.note(format!("knowledge base: {} facts", wl.facts));
    // Set up three times and keep the last; setup_s is the median.
    let mut setups = Vec::new();
    let mut session = None;
    for _ in 0..3 {
        drop(session.take());
        let (s, secs) = setup(&mut wl, &mut rng, &mut out);
        setups.push(secs);
        session = Some(s);
    }
    let mut session = session.expect("set up");
    out.metric("setup_s", median(&setups), "s");
    let mut reference = Reference::new(&wl.rules_only);
    let cache_before = session.knowledge_base().describe_cache_stats();

    // Whole cycles until the time is up. With --trace 1 every statement
    // is replayed as layer calls in spans right after its untraced run,
    // so both see the same host conditions.
    let mut retrieve = Latencies::default();
    let mut describe = Latencies::default();
    let mut forms: std::collections::BTreeMap<String, Latencies> = Default::default();
    let mut rec = Recorder::new(Instant::now(), "client");
    let mut plans = (0, 0, Some(session.knowledge_base().compiled_plan()));
    let mut counted = Vec::new();
    let mut wall = 0.0;
    let started = Instant::now();
    let mut cycles = 0;
    while started.elapsed().as_secs_f64() < cfg.seconds {
        for op in (wl.cycle)(&mut rng) {
            let t = Instant::now();
            let result = session.run(&op.text).map(|a| a.to_string());
            let secs = t.elapsed().as_secs_f64();
            wall += secs;
            out.attempted += 1;
            match result {
                Ok(rendered) => {
                    if let Err(e) = check(&op, &rendered, &mut reference) {
                        out.wrong(e);
                    }
                }
                Err(e) => out.wrong(format!("{}: error {e}", op.text)),
            }
            match op.kind {
                Kind::Retrieve => retrieve.push(cycles, secs),
                Kind::Describe => describe.push(cycles, secs),
            }
            forms.entry(op.form()).or_default().push(cycles, secs);
            if cfg.trace {
                let req = out.attempted;
                out.attempted += 1;
                let kb = session.knowledge_base();
                match replay(kb, &op.text, &mut rec, req, &mut plans) {
                    Ok(rendered) => {
                        if let Err(e) = check(&op, &rendered, &mut reference) {
                            out.wrong(format!("traced {e}"));
                        }
                    }
                    Err(e) => out.wrong(format!("traced {}: {e}", op.text)),
                }
                if cycles < 2 {
                    counted.push(op.text.clone());
                }
            }
        }
        cycles += 1;
    }
    let elapsed = started.elapsed().as_secs_f64();
    let cache = session.knowledge_base().describe_cache_stats();
    for (form, l) in &forms {
        out.note(format!(
            "{form:<64} n={:<5} p50 {:>9.3} ms  p90 {:>9.3} ms",
            l.len(),
            l.p(0.5),
            l.p(0.9)
        ));
    }
    let mut reads = retrieve.clone();
    reads.extend(&describe);
    // Throughput over the time spent in untraced requests (closed loop,
    // one request in flight), so answer checking and the traced replays
    // do not count against it.
    out.metric("read_p50_ms", reads.windowed(0.5), "ms");
    out.metric("read_p90_ms", reads.windowed(0.9), "ms");
    out.metric("reads_per_s", reads.len() as f64 / wall, "1/s");
    out.metric("retrieve_p50_ms", retrieve.windowed(0.5), "ms");
    out.metric("retrieve_p90_ms", retrieve.windowed(0.9), "ms");
    out.metric("describe_p50_ms", describe.windowed(0.5), "ms");
    out.metric("describe_p90_ms", describe.windowed(0.9), "ms");
    out.note(format!(
        "{} retrieves, {} describes ({cycles} cycles) in {elapsed:.2} s",
        retrieve.len(),
        describe.len(),
    ));
    if !cfg.trace {
        out.metric("peak_rss_mb", peak_rss_mb(), "MB");
        return out;
    }

    let kb = session.knowledge_base();
    let mut ctr = Counters::default();
    for text in &counted {
        ctr.count(kb, text);
    }
    let untraced_us = wall * 1e6;
    let traced_us = rec.total("request");
    let selfs = rec.self_times();
    let per_call = |name: &str| selfs.get(name).map_or(0.0, |s| s.1 / s.0.max(1) as f64);
    let retrieves = ctr.retrieves.max(1) as f64;
    let describes = ctr.describes.max(1) as f64;
    let covered: f64 = LAYER_SPANS
        .iter()
        .map(|l| selfs.get(l).map_or(0.0, |s| s.1))
        .sum();
    let lookups = cache.hits + cache.misses - cache_before.hits - cache_before.misses;
    out.metric("lang.parse_us", per_call("lang.parse"), "us");
    out.metric("lang.render_us", per_call("lang.render"), "us");
    out.metric(
        "lang.plan_hit_ratio",
        plans.1 as f64 / plans.0.max(1) as f64,
        "ratio",
    );
    out.metric(
        "lang.describe_cache_hit_ratio",
        (cache.hits - cache_before.hits) as f64 / lookups.max(1) as f64,
        "ratio",
    );
    out.metric("lang.kb_clone_us", kb_clone_us(kb), "us");
    out.metric("engine.plan_compile_us", plan_compile_us(kb), "us");
    out.metric("engine.execute_us", per_call("engine.execute"), "us");
    out.metric(
        "engine.derived_per_answer",
        ctr.delta_facts as f64 / ctr.rows.max(1) as f64,
        "ratio",
    );
    out.metric("engine.rounds", ctr.rounds as f64 / retrieves, "count");
    out.metric(
        "engine.rule_firings",
        ctr.rule_firings as f64 / retrieves,
        "count",
    );
    out.metric(
        "engine.index_probes",
        ctr.index_probes as f64 / retrieves,
        "count",
    );
    out.metric(
        "engine.full_scans",
        ctr.full_scans as f64 / retrieves,
        "count",
    );
    out.metric("core.describe_us", per_call("core.describe"), "us");
    out.metric(
        "core.trees_expanded",
        ctr.trees_expanded as f64 / describes,
        "count",
    );
    out.metric(
        "core.leaves_identified",
        ctr.leaves_identified as f64 / describes,
        "count",
    );
    out.metric(
        "core.trees_per_theorem",
        ctr.trees_expanded as f64 / ctr.theorems.max(1) as f64,
        "ratio",
    );
    out.metric("core.extensions_us", per_call("core.extensions"), "us");
    out.metric(
        "session.overhead_us",
        (untraced_us - covered) / reads.len().max(1) as f64,
        "us",
    );
    crate::accounting(
        &mut out,
        &selfs,
        &LAYER_SPANS,
        untraced_us,
        traced_us,
        "session (Session::run dispatch, describe-cache lookups and inserts)",
    );
    crate::write_spans(cfg, &rec, &mut out);
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out
}
