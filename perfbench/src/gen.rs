//! Seeded generators for the benchmark's knowledge bases, and the
//! plain-Rust models that serve as answer oracles.
//!
//! Every generator has fixed *shape* (counts, fan-outs, closure sizes)
//! and draws only names, values and pairings from the seed, so the cost
//! of a workload is the same on every seed while its inputs differ.

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt::Write;

/// SplitMix64: small, fast, and identical on every platform.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    /// `k` distinct indices from `0..n`.
    pub fn distinct(&mut self, k: usize, n: usize) -> Vec<usize> {
        let mut out: Vec<usize> = Vec::with_capacity(k);
        while out.len() < k {
            let i = self.below(n);
            if !out.contains(&i) {
                out.push(i);
            }
        }
        out
    }
}

/// Renders a GPA on the 0.05 grid with two decimals (`3.75`).
fn gpa_text(steps: usize) -> String {
    format!("{:.2}", 2.0 + steps as f64 * 0.05)
}

pub const SEMESTERS: [&str; 4] = ["f85", "f86", "f87", "f88"];
pub const GRADES: [&str; 6] = ["2.7", "3.0", "3.3", "3.5", "3.7", "4.0"];
const NATIONS: [&str; 4] = ["france", "japan", "india", "brazil"];

/// Rules of the scaled university: the paper's §2.2 IDB plus the
/// introduction's extensions (demographics, the foreign-students-are-
/// married constraint, the Dean's List).
pub const UNI_EXTENSION_RULES: &str = "\
predicate demographic(Sname, Nationality, Mstatus) key 1.
foreign(X) :- demographic(X, N, M), N != usa.
unmarried(X) :- demographic(X, N, single).
:- foreign(X), unmarried(X).
deans_list(X) :- student(X, Y, Z), Z > 3.9.
";

/// Size of one scaled university.
#[derive(Clone, Copy)]
pub struct UniShape {
    pub students: usize,
    pub depts: usize,
    pub courses_per_dept: usize,
    pub profs_per_dept: usize,
    pub enrolls_per_student: usize,
    pub completes_per_student: usize,
}

/// The registrar's view of the university, in plain Rust: what the
/// benchmark checks every answer against.
#[derive(Clone, Default)]
pub struct UniModel {
    pub students: Vec<String>,
    pub majors: Vec<String>,
    /// Current GPA text per student index.
    pub gpa: Vec<String>,
    pub depts: Vec<String>,
    pub courses: Vec<String>,
    pub profs: Vec<String>,
    /// course → its direct prerequisites.
    pub prereq: HashMap<String, Vec<String>>,
    /// course → enrolled students.
    pub enroll: HashMap<String, BTreeSet<String>>,
    /// student → (course, semester, grade).
    pub complete: HashMap<String, Vec<(String, String, String)>>,
    /// course → its current teacher.
    pub teach: HashMap<String, String>,
    /// (prof, course, semester) triples of past offerings.
    pub taught: HashSet<(String, String, String)>,
    pub student_index: HashMap<String, usize>,
}

impl UniModel {
    pub fn is_honor(&self, s: &str) -> bool {
        let i = self.student_index[s];
        self.gpa[i].parse::<f64>().unwrap() > 3.7
    }

    /// `retrieve honor(X) where enroll(X, c)` by filtering.
    pub fn honor_enrolled(&self, course: &str) -> Vec<String> {
        self.enroll
            .get(course)
            .map(|set| set.iter().filter(|s| self.is_honor(s)).cloned().collect())
            .unwrap_or_default()
    }

    /// `retrieve prior(c, Y)` by breadth-first search.
    pub fn prior(&self, course: &str) -> Vec<String> {
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::from([course.to_string()]);
        while let Some(c) = queue.pop_front() {
            for p in self.prereq.get(&c).into_iter().flatten() {
                if seen.insert(p.clone()) {
                    queue.push_back(p.clone());
                }
            }
        }
        seen.into_iter().collect()
    }

    /// `retrieve can_ta(s, Y)` by a direct join over the two rules.
    pub fn can_ta(&self, s: &str) -> Vec<String> {
        if !self.is_honor(s) {
            return Vec::new();
        }
        let mut out = BTreeSet::new();
        for (c, sem, grade) in self.complete.get(s).into_iter().flatten() {
            let g: f64 = grade.parse().unwrap();
            let by_teacher = g > 3.3
                && self
                    .teach
                    .get(c)
                    .is_some_and(|t| self.taught.contains(&(t.clone(), c.clone(), sem.clone())));
            if by_teacher || g == 4.0 {
                out.insert(c.clone());
            }
        }
        out.into_iter().collect()
    }
}

pub struct Generated<M> {
    /// The whole knowledge base as one script of the unified language.
    pub script: String,
    pub facts: usize,
    pub model: M,
}

/// A scaled §2.2 university. Each department's prerequisites form a DAG
/// whose closure is fixed by the shape: course `i` requires course
/// `i-1` and one random earlier course, so `prior(c_i, Y)` is always
/// the `i` courses below it.
pub fn university(shape: UniShape, seed: u64) -> Generated<UniModel> {
    let mut rng = Rng::new(seed);
    let mut m = UniModel::default();
    let mut s = String::with_capacity(shape.students * 200);
    s.push_str(qdk::datasets::UNIVERSITY_SCHEMA);
    s.push_str(UNI_EXTENSION_RULES);
    s.push_str(qdk::datasets::UNIVERSITY_RULES);
    let mut facts = 0;
    let mut fact = |s: &mut String, text: std::fmt::Arguments| {
        let _ = s.write_fmt(text);
        s.push_str(".\n");
        facts += 1;
    };
    m.depts = (0..shape.depts).map(|d| format!("d{d}")).collect();
    for (d, dept) in m.depts.iter().enumerate() {
        let courses: Vec<String> = (0..shape.courses_per_dept)
            .map(|i| format!("c{d}x{i}"))
            .collect();
        for (i, c) in courses.iter().enumerate() {
            fact(&mut s, format_args!("course({c}, {})", 3 + rng.below(2)));
            let mut pre = Vec::new();
            if i >= 1 {
                pre.push(courses[i - 1].clone());
            }
            if i >= 2 {
                pre.push(courses[rng.below(i - 1)].clone());
            }
            for p in &pre {
                fact(&mut s, format_args!("prereq({c}, {p})"));
            }
            m.prereq.insert(c.clone(), pre);
        }
        let profs: Vec<String> = (0..shape.profs_per_dept)
            .map(|i| format!("p{d}x{i}"))
            .collect();
        for (i, p) in profs.iter().enumerate() {
            fact(
                &mut s,
                format_args!("professor({p}, {dept}, {})", 50000 + d * 100 + i),
            );
        }
        for c in &courses {
            let teacher = rng.pick(&profs).clone();
            fact(&mut s, format_args!("teach({teacher}, {c})"));
            // Two past offerings: one by the current teacher, one by
            // anyone in the department.
            for (k, sem) in SEMESTERS.iter().enumerate().take(2) {
                let by = if k % 2 == 0 {
                    teacher.clone()
                } else {
                    rng.pick(&profs).clone()
                };
                let eval = format!("{:.1}", 2.5 + rng.below(16) as f64 * 0.1);
                if m.taught.insert((by.clone(), c.clone(), sem.to_string())) {
                    fact(&mut s, format_args!("taught({by}, {c}, {sem}, {eval})"));
                }
            }
            m.teach.insert(c.clone(), teacher);
        }
        m.profs.extend(profs);
        m.courses.extend(courses);
    }
    for i in 0..shape.students {
        let name = format!("s{i}");
        let major = rng.below(shape.depts);
        let gpa = gpa_text(rng.below(41));
        fact(
            &mut s,
            format_args!("student({name}, {}, {gpa})", m.depts[major]),
        );
        let foreign = rng.below(4) == 0;
        let (nation, status) = if foreign {
            (*rng.pick(&NATIONS), "married")
        } else {
            (
                "usa",
                if rng.below(2) == 0 {
                    "single"
                } else {
                    "married"
                },
            )
        };
        fact(
            &mut s,
            format_args!("demographic({name}, {nation}, {status})"),
        );
        for ci in rng.distinct(shape.enrolls_per_student, m.courses.len()) {
            let c = &m.courses[ci];
            fact(&mut s, format_args!("enroll({name}, {c})"));
            m.enroll.entry(c.clone()).or_default().insert(name.clone());
        }
        let mut done = Vec::new();
        for ci in rng.distinct(shape.completes_per_student, m.courses.len()) {
            let c = m.courses[ci].clone();
            let sem = rng.pick(&SEMESTERS).to_string();
            let grade = rng.pick(&GRADES).to_string();
            fact(
                &mut s,
                format_args!("complete({name}, {c}, {sem}, {grade})"),
            );
            done.push((c, sem, grade));
        }
        m.complete.insert(name.clone(), done);
        m.student_index.insert(name.clone(), i);
        m.students.push(name);
        m.majors.push(m.depts[major].clone());
        m.gpa.push(gpa);
    }
    Generated {
        script: s,
        facts,
        model: m,
    }
}

/// Size of one access-control knowledge base.
#[derive(Clone, Copy)]
pub struct PolicyShape {
    pub employees: usize,
    /// Group tree: every group above the leaves has `fanout` children.
    pub fanout: usize,
    pub depth: usize,
    pub memberships: usize,
    pub resources_per_group: usize,
}

/// The policy rules: group nesting as a typed, strongly linear
/// recursion (`nested`, shaped like the paper's `prior`), membership
/// through it, and an approval tower four levels above `can_read`.
pub const POLICY_RULES: &str = "\
predicate employee(Name, Dept, Level) key 1.
predicate clearance(Name, Rating) key 1.
predicate member(Name, Group).
predicate within(Group, Parent).
predicate owns(Group, Resource).
nested(G, H) :- within(G, H).
nested(G, H) :- within(G, K), nested(K, H).
in_group(X, G) :- member(X, G).
in_group(X, G) :- member(X, H), nested(H, G).
senior(X) :- employee(X, D, L), L > 5.
trusted(X) :- clearance(X, R), R >= 3.
admin(X) :- senior(X), trusted(X).
can_read(X, R) :- in_group(X, G), owns(G, R).
can_write(X, R) :- can_read(X, R), trusted(X).
can_write(X, R) :- can_read(X, R), admin(X).
can_approve(X, R) :- can_write(X, R), senior(X).
can_approve(X, R) :- can_write(X, R), admin(X).
can_release(X, R) :- can_approve(X, R), trusted(X).
can_release(X, R) :- can_approve(X, R), employee(X, D, L), L > 7.
:- admin(X), clearance(X, R), R < 2.
";

#[derive(Clone, Default)]
pub struct PolicyModel {
    pub employees: Vec<String>,
    pub groups: Vec<String>,
    /// group → its parent (the root has none).
    pub parent: HashMap<String, String>,
    /// employee → directly joined groups.
    pub member: HashMap<String, Vec<String>>,
    /// group → owned resources.
    pub owns: HashMap<String, Vec<String>>,
    /// employee → (level, clearance).
    pub grade: HashMap<String, (usize, usize)>,
}

impl PolicyModel {
    pub fn senior(&self, e: &str) -> bool {
        self.grade[e].0 > 5
    }

    pub fn trusted(&self, e: &str) -> bool {
        self.grade[e].1 >= 3
    }

    /// Every group `e` belongs to: its direct groups and all their
    /// ancestors, found by walking up the tree.
    pub fn groups_of(&self, e: &str) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for g in self.member.get(e).into_iter().flatten() {
            let mut cur = Some(g.clone());
            while let Some(c) = cur {
                cur = self.parent.get(&c).cloned();
                if !out.insert(c) {
                    break;
                }
            }
        }
        out
    }

    /// `retrieve in_group(X, G)`: every (employee, group) row.
    pub fn in_group_rows(&self) -> Vec<String> {
        let mut rows = Vec::new();
        for e in &self.employees {
            for g in self.groups_of(e) {
                rows.push(format!("{e}\t{g}"));
            }
        }
        rows
    }

    /// `retrieve can_read(X, R)`: every (employee, resource) row.
    pub fn can_read_rows(&self) -> Vec<String> {
        let mut rows = BTreeSet::new();
        for e in &self.employees {
            for g in self.groups_of(e) {
                for r in self.owns.get(&g).into_iter().flatten() {
                    rows.insert(format!("{e}\t{r}"));
                }
            }
        }
        rows.into_iter().collect()
    }

    /// `retrieve can_read(e, R)`: the resources one employee can read.
    pub fn readable_by(&self, e: &str) -> Vec<String> {
        let mut rows = BTreeSet::new();
        for g in self.groups_of(e) {
            for r in self.owns.get(&g).into_iter().flatten() {
                rows.insert(r.clone());
            }
        }
        rows.into_iter().collect()
    }
}

pub fn policy(shape: PolicyShape, seed: u64) -> Generated<PolicyModel> {
    let mut rng = Rng::new(seed);
    let mut m = PolicyModel::default();
    let mut s = String::with_capacity(shape.employees * 150);
    s.push_str(POLICY_RULES);
    let mut facts = 0;
    let mut fact = |s: &mut String, text: std::fmt::Arguments| {
        let _ = s.write_fmt(text);
        s.push_str(".\n");
        facts += 1;
    };
    // A complete `fanout`-ary group tree of the given depth.
    let mut level = vec!["g0".to_string()];
    m.groups.push("g0".into());
    for _ in 0..shape.depth {
        let mut next = Vec::new();
        for p in &level {
            for _ in 0..shape.fanout {
                let g = format!("g{}", m.groups.len());
                fact(&mut s, format_args!("within({g}, {p})"));
                m.parent.insert(g.clone(), p.clone());
                m.groups.push(g.clone());
                next.push(g);
            }
        }
        level = next;
    }
    let leaves = level;
    for g in &m.groups {
        let mut owned = Vec::new();
        for k in 0..shape.resources_per_group {
            let r = format!("r{}x{k}", &g[1..]);
            fact(&mut s, format_args!("owns({g}, {r})"));
            owned.push(r);
        }
        m.owns.insert(g.clone(), owned);
    }
    for i in 0..shape.employees {
        let e = format!("e{i}");
        let level = 1 + rng.below(9);
        let clearance = rng.below(5);
        fact(
            &mut s,
            format_args!("employee({e}, dept{}, {level})", rng.below(12)),
        );
        // The compliance constraint: no admin below clearance 2. Admins
        // need clearance ≥ 3, so every generated employee satisfies it.
        fact(&mut s, format_args!("clearance({e}, {clearance})"));
        let mut joined = Vec::new();
        for li in rng.distinct(shape.memberships, leaves.len()) {
            let g = leaves[li].clone();
            fact(&mut s, format_args!("member({e}, {g})"));
            joined.push(g);
        }
        m.member.insert(e.clone(), joined);
        m.grade.insert(e.clone(), (level, clearance));
        m.employees.push(e);
    }
    Generated {
        script: s,
        facts,
        model: m,
    }
}
