//! The correctness gate every run passes before it times anything: the
//! pinned answers of the paper's Examples 1–8 and motivating queries
//! Q1–Q4 (EXPERIMENTS.md) on the paper's own databases.

use crate::report::{rows_of, same_lines};
use crate::serve::{e3, e5, e6};
use qdk::{datasets, KnowledgeBase};

fn run(kb: &mut KnowledgeBase, text: &str) -> String {
    match kb.run(text) {
        Ok(a) => a.to_string(),
        Err(e) => format!("error: {e}"),
    }
}

/// Returns the failed checks (empty when all pass) and the count run.
pub fn check() -> (Vec<String>, u64) {
    let mut failures = Vec::new();
    let mut count = 0;
    let mut expect = |name: &str, got: &str, ok: bool| {
        count += 1;
        if !ok {
            failures.push(format!("{name}: {}", got.replace('\n', " / ")));
        }
    };
    let mut kb = datasets::university_extended();
    let got = run(&mut kb, "retrieve honor(X) where enroll(X, databases).");
    expect("E1", &got, rows_of(&got) == ["ann", "eve"]);
    let got = run(
        &mut kb,
        "retrieve answer(X) where can_ta(X, databases) and student(X, math, V) and V > 3.7.",
    );
    expect("E2", &got, rows_of(&got) == ["ann", "bob"]);
    let got = run(
        &mut kb,
        "describe can_ta(X, databases) where student(X, math, V) and V > 3.7.",
    );
    expect("E3", &got, same_lines(&got, e3("databases")));
    let got = run(&mut kb, "describe honor(X).");
    let e4 = vec!["honor(X) ← student(X, Y, Z) ∧ (Z > 3.7)".to_string()];
    expect("E4", &got, same_lines(&got, e4));
    let got = run(
        &mut kb,
        "describe can_ta(X, Y) where honor(X) and teach(susan, Y).",
    );
    expect("E5", &got, same_lines(&got, e5("susan")));
    let got = run(&mut kb, "describe prior(X, Y) where prior(databases, Y).");
    expect("E6", &got, same_lines(&got, e6("databases")));
    // Example 7: Algorithm 2's typing admits no prereq(X, X) loop.
    let got = run(&mut kb, "describe prior(X, Y) where prior(X, databases).");
    let loops = got.lines().any(|l| {
        l.split(" ∧ ")
            .filter_map(|c| c.split("prereq(").nth(1))
            .any(|args| {
                let mut a = args.trim_end_matches(')').split(", ");
                a.next() == a.next()
            })
    });
    let root = got.lines().any(|l| l == "prior(X, Y) ← (Y = databases)");
    expect("E7", &got, !loops && root);
    let got = run(
        &mut kb,
        "retrieve answer(X) where foreign(X) and unmarried(X).",
    );
    expect("Q1 data", &got, rows_of(&got).is_empty());
    let got = run(&mut kb, "describe where foreign(X) and unmarried(X).");
    expect("Q1", &got, got.starts_with("false"));
    let got = run(&mut kb, "describe where honor(X) and foreign(X).");
    expect("Q2", &got, got.starts_with("true"));
    let got = run(
        &mut kb,
        "describe where student(X, Y, Z) and Z < 3.5 and can_ta(X, U).",
    );
    expect("Q2 §6 variant", &got, got.starts_with("false"));
    let got = run(
        &mut kb,
        "compare (describe honor(X)) with (describe deans_list(X)).",
    );
    let parts = ["student(X, Y, Z)", "(Z > 3.7)", "(Z > 3.9)"];
    let ok = got.starts_with("the first concept subsumes the second")
        && parts.iter().all(|s| got.contains(s));
    expect("Q3", &got, ok);

    let mut e8 = KnowledgeBase::new();
    e8.load(
        "p(X, Y) :- q(X, Z), r(Z, Y).\n\
         q(X, Y) :- q(X, Z), s(Z, Y).\n\
         q(X, Y) :- r(X, Y).",
    )
    .expect("E8 rules load");
    let got = run(&mut e8, "describe p(X, Y) where r(a, Y).");
    expect("E8", &got, got.contains("p(X, Y) ←"));

    let symmetric = "describe reachable(X, Y) where reachable(Y, X).";
    let got = run(&mut datasets::routing(false), symmetric);
    let guaranteed = |got: &str| got.lines().any(|l| l == "reachable(X, Y)");
    expect(
        "Q4 asymmetric",
        &got,
        !got.starts_with("error") && !guaranteed(&got),
    );
    let got = run(&mut datasets::routing(true), symmetric);
    expect("Q4 symmetric", &got, guaranteed(&got));
    (failures, count)
}
