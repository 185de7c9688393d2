//! Cross-strategy agreement: semi-naive and Query-Subquery evaluation
//! must return identical answers for every `retrieve` query — on the
//! paper's database and on randomized workloads, where both are also
//! checked against the substitution-based reference semantics.

mod reference;

use proptest::prelude::*;
use qdk::logic::parser::{parse_atom, parse_program};
use qdk::{datasets, Request, Session, Strategy};
use reference::reference_eval;

fn rows(session: &Session, subject: &str, qualifier: &str, strategy: Strategy) -> Vec<String> {
    let mut request = Request::subject(subject).strategy(strategy);
    if !qualifier.is_empty() {
        request = request.where_clause(qualifier);
    }
    let a = session.retrieve(request).unwrap().into_data().unwrap();
    let mut rows: Vec<String> = a.sorted().iter().map(ToString::to_string).collect();
    rows.dedup();
    rows
}

/// Both strategies agree on `subject where qualifier`; returns their
/// common rows.
fn assert_agree(kb: &qdk::KnowledgeBase, subject: &str, qualifier: &str) -> Vec<String> {
    let session = Session::over(kb.clone());
    let semi = rows(&session, subject, qualifier, Strategy::SemiNaive);
    let qsq = rows(&session, subject, qualifier, Strategy::Qsq);
    assert_eq!(semi, qsq, "semi-naive vs qsq on {subject} / {qualifier}");
    semi
}

/// Both strategies agree with the reference semantics on the query rule
/// `answer(..) :- body` over the `edge` facts and `program`.
fn assert_reference(
    kb: &qdk::KnowledgeBase,
    edges: &[(u8, u8)],
    program: &str,
    head: &str,
    body: &str,
) {
    let facts: Vec<_> = edges
        .iter()
        .map(|(a, b)| parse_atom(&format!("edge(n{a}, n{b})")).unwrap())
        .collect();
    let mut rules = parse_program(program).unwrap().rules;
    rules.extend(parse_program(&format!("{head} :- {body}.")).unwrap().rules);
    let mut expected: Vec<String> = reference_eval(&facts, &rules)
        .into_iter()
        .filter_map(|f| f.strip_prefix("answer").map(str::to_string))
        .collect();
    expected.sort();
    let mut got = assert_agree(kb, head, body);
    got.sort();
    assert_eq!(got, expected, "strategies vs reference on {head} :- {body}");
}

#[test]
fn university_queries_agree() {
    let kb = datasets::university_extended();
    for (s, q) in [
        ("honor(X)", ""),
        ("honor(X)", "enroll(X, databases)"),
        ("can_ta(X, Y)", ""),
        ("can_ta(X, databases)", "student(X, math, V), V > 3.7"),
        ("prior(X, Y)", ""),
        ("prior(databases, Y)", ""),
        ("prior(X, programming)", ""),
        ("foreign(X)", ""),
        ("answer(X)", "enroll(X, databases), not honor(X)"),
    ] {
        assert_agree(&kb, s, q);
    }
}

#[test]
fn routing_queries_agree() {
    let kb = datasets::routing(false);
    for (s, q) in [
        ("reachable(X, Y)", ""),
        ("reachable(lax, Y)", ""),
        ("reachable(X, jfk)", ""),
        ("answer(X, Y)", "reachable(X, Y), flight(Y, Z)"),
    ] {
        assert_agree(&kb, s, q);
    }
}

/// Loads `program` plus the `edge` facts into a fresh knowledge base.
fn edge_kb(program: &str, edges: &[(u8, u8)]) -> qdk::KnowledgeBase {
    let mut kb = qdk::KnowledgeBase::new();
    kb.load(&format!("predicate edge(A, B).\n{program}"))
        .unwrap();
    for (a, b) in edges {
        kb.run(&format!("edge(n{a}, n{b}).")).unwrap();
    }
    kb
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Randomized graphs: transitive closure agrees across strategies
    /// and with the reference, including constant-bound queries.
    #[test]
    fn random_graphs_agree(
        edges in proptest::collection::vec((0u8..7, 0u8..7), 1..16),
        probe in 0u8..7,
    ) {
        let program = "tc(X, Y) :- edge(X, Y).\n\
                       tc(X, Y) :- edge(X, Z), tc(Z, Y).";
        let kb = edge_kb(program, &edges);
        assert_reference(&kb, &edges, program, "answer(X, Y)", "tc(X, Y)");
        assert_agree(&kb, "tc(X, Y)", "");
        assert_agree(&kb, &format!("tc(n{probe}, Y)"), "");
        assert_agree(&kb, &format!("tc(X, n{probe})"), "");
        assert_reference(
            &kb,
            &edges,
            program,
            "answer(X)",
            &format!("tc(X, n{probe}), edge(n{probe}, X)"),
        );
    }

    /// Randomized stratified-negation workloads: both strategies (QSQ by
    /// its recorded downgrade to semi-naive) agree with the reference,
    /// whose negated literal holds when its atom is absent from the
    /// completed lower stratum.
    #[test]
    fn random_negation_agrees(
        edges in proptest::collection::vec((0u8..6, 0u8..6), 1..12),
        probe in 0u8..6,
    ) {
        let program = "reach(X, Y) :- edge(X, Y).\n\
                       reach(X, Y) :- edge(X, Z), reach(Z, Y).";
        let kb = edge_kb(program, &edges);
        assert_reference(
            &kb,
            &edges,
            program,
            "answer(X, Y)",
            &format!("edge(X, Y), not reach(Y, n{probe})"),
        );
    }
}
