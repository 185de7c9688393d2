//! Reference semantics shared by the differential and strategy suites: a
//! stratified naive fixpoint with substitution-based matching, written
//! with nothing but `unify_atoms` and `Subst`, so it shares no code with
//! the compiled executor it checks.

use qdk::logic::{unify_atoms, Atom, Rule, Subst};
use std::collections::{BTreeMap, BTreeSet};

/// Enumerates every substitution that grounds `goals` against `facts`.
fn join(goals: &[&Atom], facts: &[Atom], subst: &Subst, out: &mut Vec<Subst>) {
    let Some((goal, rest)) = goals.split_first() else {
        out.push(subst.clone());
        return;
    };
    let goal_now = subst.apply_atom(goal);
    for fact in facts {
        if let Some(mgu) = unify_atoms(&goal_now, fact) {
            join(rest, facts, &subst.compose(&mgu), out);
        }
    }
}

/// The stratum of every rule head: at least the stratum of each
/// positive body predicate, and above that of each negated one. Panics
/// when the program is not stratifiable (negation through recursion).
fn strata(rules: &[Rule]) -> BTreeMap<&str, usize> {
    let mut stratum: BTreeMap<&str, usize> =
        rules.iter().map(|r| (r.head.pred.as_str(), 0)).collect();
    loop {
        let mut changed = false;
        for rule in rules {
            for lit in &rule.body {
                let Some(&below) = stratum.get(lit.atom.pred.as_str()) else {
                    continue; // extensional: stratum 0, complete from the start
                };
                let need = below + usize::from(!lit.positive);
                let head = stratum.get_mut(rule.head.pred.as_str()).unwrap();
                if need > *head {
                    *head = need;
                    changed = true;
                }
            }
        }
        if !changed {
            return stratum;
        }
        assert!(
            stratum.values().all(|&s| s <= rules.len()),
            "not stratifiable: {rules:?}"
        );
    }
}

/// Stratified naive bottom-up fixpoint, returning every fact (EDB and
/// derived) as its rendered string. Each stratum runs to its fixpoint
/// before the next starts; a negated literal holds when its ground atom
/// is absent from the facts derived so far, which by then include every
/// completed lower stratum. Rules hold database literals only.
pub fn reference_eval(edb_facts: &[Atom], rules: &[Rule]) -> BTreeSet<String> {
    assert!(
        rules.iter().all(|r| r.body.iter().all(|l| !l.is_builtin())),
        "the reference evaluates database literals only"
    );
    let stratum = strata(rules);
    let top = stratum.values().copied().max().unwrap_or(0);
    let mut facts: Vec<Atom> = edb_facts.to_vec();
    let mut seen: BTreeSet<String> = facts.iter().map(ToString::to_string).collect();
    for s in 0..=top {
        let layer: Vec<&Rule> = rules
            .iter()
            .filter(|r| stratum[r.head.pred.as_str()] == s)
            .collect();
        loop {
            let mut fresh = Vec::new();
            for rule in &layer {
                let goals: Vec<&Atom> = rule
                    .body
                    .iter()
                    .filter(|l| l.positive)
                    .map(|l| &l.atom)
                    .collect();
                let mut substs = Vec::new();
                join(&goals, &facts, &Subst::new(), &mut substs);
                for subst in substs {
                    let holds = rule
                        .body
                        .iter()
                        .filter(|l| !l.positive)
                        .all(|l| !seen.contains(&subst.apply_atom(&l.atom).to_string()));
                    let head = subst.apply_atom(&rule.head);
                    if holds && !seen.contains(&head.to_string()) {
                        seen.insert(head.to_string());
                        fresh.push(head);
                    }
                }
            }
            if fresh.is_empty() {
                break;
            }
            facts.extend(fresh);
        }
    }
    seen
}
