//! Local dependency tracking: Procedural Dependencies (§5).
//!
//! The paper extends functional dependencies to *procedural dependencies*:
//! `src columns —(procedure)→ dst column`, where the procedure is
//! annotated *executable* (the DBMS can re-run it) or not (a lab
//! experiment), and *invertible* or not.  This module manages the rule
//! set and implements the reasoning the paper calls for:
//!
//! * **conflict detection** — a column may be derived by at most one rule;
//! * **cycle detection** — the rule graph must stay a DAG;
//! * **closure of an attribute** — every column transitively affected by a
//!   change to the given column;
//! * **closure of a procedure** — every column transitively affected by a
//!   change to the given procedure (e.g. upgrading BLAST-2.2.15);
//! * **derived rules** — chains of rules composed end-to-end (the paper's
//!   Rule 4: gene sequence → protein function via prediction tool + lab
//!   experiment, non-executable because one link is non-executable).
//!
//! The *instance-level* cascade (recomputing executable targets, marking
//! non-executable ones outdated in the Figure 10 bitmaps) is driven by the
//! `Database`, which owns the tables; the rule reasoning lives here.

use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::Rc;

use bdbms_common::ids::RuleId;
use bdbms_common::{BdbmsError, DataType, Result, Schema, Value};

use crate::catalog::CatalogView;

/// A column reference `(table, column)`, lowercased for identity.
pub type ColRef = (String, String);

fn colref(table: &str, col: &str) -> ColRef {
    (table.to_ascii_lowercase(), col.to_ascii_lowercase())
}

/// One procedural dependency rule.
#[derive(Debug, Clone, PartialEq)]
pub struct DependencyRule {
    /// Rule id.
    pub id: RuleId,
    /// Rule name (unique).
    pub name: String,
    /// Source table (all source columns live here).
    pub src_table: String,
    /// Source column names.
    pub src_cols: Vec<String>,
    /// Target table.
    pub dst_table: String,
    /// Target column.
    pub dst_col: String,
    /// Procedure name (e.g. `BLAST-2.2.15`, `P`, `lab-experiment`).
    pub procedure: String,
    /// Can the DBMS execute the procedure (§5)?
    pub executable: bool,
    /// Is the procedure invertible (§5)?
    pub invertible: bool,
    /// Row linkage: `(src link column, dst link column)`; `None` links
    /// rows of the same table by identity.
    pub link: Option<(String, String)>,
}

impl DependencyRule {
    /// Source column references.
    pub fn srcs(&self) -> Vec<ColRef> {
        self.src_cols
            .iter()
            .map(|c| colref(&self.src_table, c))
            .collect()
    }

    /// Target column reference.
    pub fn dst(&self) -> ColRef {
        colref(&self.dst_table, &self.dst_col)
    }

    /// The columns of `$rules`, whose row number is the rule id.
    pub(crate) fn schema() -> Schema {
        use DataType::{Bool, Text};
        Schema::of(&[
            ("name", Text),
            ("src_table", Text),
            ("src_cols", Text),
            ("dst_table", Text),
            ("dst_col", Text),
            ("procedure", Text),
            ("executable", Bool),
            ("invertible", Bool),
            ("link_src", Text),
            ("link_dst", Text),
        ])
    }

    /// This rule as a `$rules` row.  The source columns are stored
    /// comma-separated: no identifier holds a comma.
    pub(crate) fn to_row(&self) -> Vec<Value> {
        let text = |s: &str| Value::Text(s.to_string());
        let (src, dst) = self.link.clone().unzip();
        vec![
            text(&self.name),
            text(&self.src_table),
            text(&self.src_cols.join(",")),
            text(&self.dst_table),
            text(&self.dst_col),
            text(&self.procedure),
            Value::Bool(self.executable),
            Value::Bool(self.invertible),
            src.map_or(Value::Null, Value::Text),
            dst.map_or(Value::Null, Value::Text),
        ]
    }

    /// Decode row `id` of `$rules`.
    fn from_row(id: u64, row: &[Value]) -> Option<DependencyRule> {
        let text = |col: usize| row[col].as_text().map(str::to_string);
        Some(DependencyRule {
            id: RuleId(id),
            name: text(0)?,
            src_table: text(1)?,
            src_cols: text(2)?.split(',').map(str::to_string).collect(),
            dst_table: text(3)?,
            dst_col: text(4)?,
            procedure: text(5)?,
            executable: row[6] == Value::Bool(true),
            invertible: row[7] == Value::Bool(true),
            link: text(8).zip(text(9)),
        })
    }
}

/// A rule derived by chaining base rules (the paper's Rule 4).
#[derive(Debug, Clone)]
pub struct DerivedRule {
    /// Ultimate source columns (the chain head's sources).
    pub src: Vec<ColRef>,
    /// Ultimate target column.
    pub dst: ColRef,
    /// Procedure chain, head first.
    pub chain: Vec<String>,
    /// Executable iff *every* link is executable (§5: "the chain is
    /// non-executable because at least one of the procedures [...] is
    /// non-executable").
    pub executable: bool,
    /// Invertible iff every link is invertible.
    pub invertible: bool,
}

/// A registered executable procedure body.
pub type ProcFn = Rc<dyn Fn(&[Value]) -> Value>;

/// The dependency manager: the rule set, and the registered procedure
/// bodies.  In a database the rules are the view of the `$rules`
/// catalog table, kept in id order — the order cascades evaluate them.
#[derive(Default)]
pub struct DependencyManager {
    rules: Vec<DependencyRule>,
    procedures: HashMap<String, ProcFn>,
}

/// Two managers agree when their rules do: procedure bodies are
/// registered by the application, not stored.
impl PartialEq for DependencyManager {
    fn eq(&self, other: &Self) -> bool {
        self.rules == other.rules
    }
}

impl DependencyManager {
    /// Empty manager.
    pub fn new() -> Self {
        DependencyManager::default()
    }

    /// Register the body of an executable procedure.
    pub fn register_procedure(&mut self, name: &str, f: impl Fn(&[Value]) -> Value + 'static) {
        self.procedures.insert(name.to_string(), Rc::new(f));
    }

    /// The registered body for a procedure, if any.
    pub fn procedure(&self, name: &str) -> Option<ProcFn> {
        self.procedures.get(name).cloned()
    }

    /// All rules.
    pub fn rules(&self) -> &[DependencyRule] {
        &self.rules
    }

    /// Rules whose source columns include `(table, col)`.
    pub fn rules_from(&self, table: &str, col: &str) -> Vec<&DependencyRule> {
        let probe = colref(table, col);
        self.rules
            .iter()
            .filter(|r| r.srcs().contains(&probe))
            .collect()
    }

    /// The rule by name.
    pub fn rule_by_name(&self, name: &str) -> Option<&DependencyRule> {
        self.rules
            .iter()
            .find(|r| r.name.eq_ignore_ascii_case(name))
    }

    /// Check that `rule` may join the set: a unique name, single
    /// derivation (no conflicts) and acyclicity (§5: "detect conflicts
    /// and cycles among dependency rules").
    pub fn check_rule(&self, rule: &DependencyRule) -> Result<()> {
        if self.rule_by_name(&rule.name).is_some() {
            return Err(BdbmsError::already_exists(format!(
                "dependency rule `{}`",
                rule.name
            )));
        }
        // conflict: a column derived by two different rules
        if self.rules.iter().any(|r| r.dst() == rule.dst()) {
            return Err(BdbmsError::dependency(format!(
                "conflict: column {}.{} is already derived by another rule",
                rule.dst_table, rule.dst_col
            )));
        }
        // self-dependency
        if rule.srcs().contains(&rule.dst()) {
            return Err(BdbmsError::dependency(format!(
                "rule `{}` makes {}.{} depend on itself",
                rule.name, rule.dst_table, rule.dst_col
            )));
        }
        // cycle: dst must not already (transitively) feed any src
        let downstream = self.closure_of_attribute(&rule.dst_table, &rule.dst_col);
        for src in rule.srcs() {
            if downstream.contains(&src) {
                return Err(BdbmsError::dependency(format!(
                    "cycle: {}.{} transitively depends on {}.{}",
                    src.0, src.1, rule.dst_table, rule.dst_col
                )));
            }
        }
        Ok(())
    }

    /// Add a checked rule (see [`check_rule`](Self::check_rule)) under
    /// the next id.  A database adds rules as rows of `$rules` instead.
    pub fn add_rule(&mut self, mut rule: DependencyRule) -> Result<RuleId> {
        self.check_rule(&rule)?;
        rule.id = RuleId(self.rules.last().map_or(0, |r| r.id.raw() + 1));
        self.rules.push(rule);
        Ok(self.rules[self.rules.len() - 1].id)
    }

    /// Remove a rule by name.
    pub fn drop_rule(&mut self, name: &str) -> Result<DependencyRule> {
        let pos = self
            .rules
            .iter()
            .position(|r| r.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| BdbmsError::not_found(format!("dependency rule `{name}`")))?;
        Ok(self.rules.remove(pos))
    }

    /// Closure of an attribute: all columns transitively derived from
    /// `(table, col)` (BFS over the rule graph).
    pub fn closure_of_attribute(&self, table: &str, col: &str) -> Vec<ColRef> {
        let start = colref(table, col);
        let mut seen: HashSet<ColRef> = HashSet::new();
        let mut queue: VecDeque<ColRef> = VecDeque::new();
        queue.push_back(start);
        let mut out = Vec::new();
        while let Some(cur) = queue.pop_front() {
            for r in &self.rules {
                if r.srcs().contains(&cur) {
                    let dst = r.dst();
                    if seen.insert(dst.clone()) {
                        out.push(dst.clone());
                        queue.push_back(dst);
                    }
                }
            }
        }
        out
    }

    /// Closure of a procedure: all columns transitively affected when the
    /// procedure changes (e.g. a new BLAST version) — the direct targets
    /// of its rules plus everything downstream.
    pub fn closure_of_procedure(&self, procedure: &str) -> Vec<ColRef> {
        let mut seen: HashSet<ColRef> = HashSet::new();
        let mut out = Vec::new();
        for r in &self.rules {
            if r.procedure.eq_ignore_ascii_case(procedure) {
                let dst = r.dst();
                if seen.insert(dst.clone()) {
                    out.push(dst.clone());
                }
                for c in self.closure_of_attribute(&r.dst_table, &r.dst_col) {
                    if seen.insert(c.clone()) {
                        out.push(c);
                    }
                }
            }
        }
        out
    }

    /// All derived rules: every simple chain of ≥ 2 base rules where each
    /// rule's target is a source of the next (the paper's Rule 4).
    pub fn derived_rules(&self) -> Vec<DerivedRule> {
        let mut out = Vec::new();
        // DFS from every rule; the rule graph is a DAG so paths are finite.
        for (i, first) in self.rules.iter().enumerate() {
            let mut stack = vec![(i, vec![i])];
            while let Some((last_idx, path)) = stack.pop() {
                let last = &self.rules[last_idx];
                for (j, next) in self.rules.iter().enumerate() {
                    if next.srcs().contains(&last.dst()) {
                        let mut p = path.clone();
                        p.push(j);
                        out.push(DerivedRule {
                            src: first.srcs(),
                            dst: next.dst(),
                            chain: p.iter().map(|&k| self.rules[k].procedure.clone()).collect(),
                            executable: p.iter().all(|&k| self.rules[k].executable),
                            invertible: p.iter().all(|&k| self.rules[k].invertible),
                        });
                        stack.push((j, p));
                    }
                }
            }
        }
        out
    }
}

impl CatalogView for DependencyManager {
    fn apply(&mut self, id: u64, row: &[Value], added: bool) {
        let at = self.rules.partition_point(|r| r.id.raw() < id);
        if !added {
            self.rules.retain(|r| r.id.raw() != id);
        } else if let Some(rule) = DependencyRule::from_row(id, row) {
            self.rules.insert(at, rule);
        }
    }
}

/// Build the paper's Figure 9 rule set (used by tests, examples, and E09).
pub fn figure9_rules() -> Vec<DependencyRule> {
    let blank = |name: &str,
                 src_table: &str,
                 src_cols: &[&str],
                 dst_table: &str,
                 dst_col: &str,
                 procedure: &str,
                 executable: bool,
                 link: Option<(&str, &str)>| {
        DependencyRule {
            id: RuleId(0),
            name: name.to_string(),
            src_table: src_table.to_string(),
            src_cols: src_cols.iter().map(|s| s.to_string()).collect(),
            dst_table: dst_table.to_string(),
            dst_col: dst_col.to_string(),
            procedure: procedure.to_string(),
            executable,
            invertible: false,
            link: link.map(|(a, b)| (a.to_string(), b.to_string())),
        }
    };
    vec![
        // Rule 1: Gene.GSequence →(P, executable)→ Protein.PSequence
        blank(
            "r1",
            "Gene",
            &["GSequence"],
            "Protein",
            "PSequence",
            "P",
            true,
            Some(("GID", "GID")),
        ),
        // Rule 2: Protein.PSequence →(lab, non-executable)→ Protein.PFunction
        blank(
            "r2",
            "Protein",
            &["PSequence"],
            "Protein",
            "PFunction",
            "lab-experiment",
            false,
            None,
        ),
        // Rule 3: GeneMatching.{Gene1,Gene2} →(BLAST-2.2.15)→ Evalue
        blank(
            "r3",
            "GeneMatching",
            &["Gene1", "Gene2"],
            "GeneMatching",
            "Evalue",
            "BLAST-2.2.15",
            true,
            None,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> DependencyManager {
        let mut m = DependencyManager::new();
        for r in figure9_rules() {
            m.add_rule(r).unwrap();
        }
        m
    }

    #[test]
    fn closure_of_attribute_paper_example() {
        let m = mgr();
        // Changing Gene.GSequence affects PSequence then PFunction.
        let c = m.closure_of_attribute("Gene", "GSequence");
        assert_eq!(
            c,
            vec![
                ("protein".to_string(), "psequence".to_string()),
                ("protein".to_string(), "pfunction".to_string()),
            ]
        );
        // Changing Evalue affects nothing.
        assert!(m.closure_of_attribute("GeneMatching", "Evalue").is_empty());
    }

    #[test]
    fn closure_of_procedure_blast() {
        let m = mgr();
        let c = m.closure_of_procedure("BLAST-2.2.15");
        assert_eq!(c, vec![("genematching".to_string(), "evalue".to_string())]);
        // the prediction tool's closure includes the downstream lab result
        let c = m.closure_of_procedure("P");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn derived_rule4_from_paper() {
        let m = mgr();
        let derived = m.derived_rules();
        // Rule 4: Gene.GSequence → Protein.PFunction via (P, lab), non-executable
        assert_eq!(derived.len(), 1);
        let d = &derived[0];
        assert_eq!(d.src, vec![("gene".to_string(), "gsequence".to_string())]);
        assert_eq!(d.dst, ("protein".to_string(), "pfunction".to_string()));
        assert_eq!(d.chain, vec!["P".to_string(), "lab-experiment".to_string()]);
        assert!(
            !d.executable,
            "chain with a lab experiment is non-executable"
        );
        assert!(!d.invertible);
    }

    #[test]
    fn conflict_detected() {
        let mut m = mgr();
        let mut dup = figure9_rules()[0].clone();
        dup.name = "r1b".to_string();
        dup.procedure = "OtherTool".to_string();
        let err = m.add_rule(dup).unwrap_err();
        assert_eq!(err.kind(), "dependency");
        assert!(err.message().contains("conflict"));
    }

    #[test]
    fn cycle_detected() {
        let mut m = mgr();
        // PFunction → Gene.GSequence would close the loop
        let cyc = DependencyRule {
            id: RuleId(0),
            name: "bad".to_string(),
            src_table: "Protein".to_string(),
            src_cols: vec!["PFunction".to_string()],
            dst_table: "Gene".to_string(),
            dst_col: "GSequence".to_string(),
            procedure: "X".to_string(),
            executable: false,
            invertible: false,
            link: None,
        };
        let err = m.add_rule(cyc).unwrap_err();
        assert!(err.message().contains("cycle"));
    }

    #[test]
    fn self_dependency_rejected() {
        let mut m = DependencyManager::new();
        let bad = DependencyRule {
            id: RuleId(0),
            name: "selfloop".to_string(),
            src_table: "T".to_string(),
            src_cols: vec!["a".to_string()],
            dst_table: "T".to_string(),
            dst_col: "A".to_string(),
            procedure: "X".to_string(),
            executable: false,
            invertible: false,
            link: None,
        };
        assert!(m.add_rule(bad).is_err());
    }

    #[test]
    fn drop_rule_and_duplicate_names() {
        let mut m = mgr();
        assert!(m.drop_rule("r2").is_ok());
        assert!(m.drop_rule("r2").is_err());
        assert!(m.closure_of_attribute("Gene", "GSequence").len() == 1);
        let mut again = figure9_rules()[1].clone();
        again.name = "R1".to_string(); // name clash, case-insensitive
        assert!(m.add_rule(again).is_err());
    }

    #[test]
    fn procedures_registry() {
        let mut m = DependencyManager::new();
        m.register_procedure("P", |args| Value::Text(format!("translated:{}", args[0])));
        let f = m.procedure("P").unwrap();
        assert_eq!(
            f(&[Value::Text("ATG".into())]),
            Value::Text("translated:ATG".into())
        );
        assert!(m.procedure("missing").is_none());
    }

    #[test]
    fn rules_from_multi_source() {
        let m = mgr();
        assert_eq!(m.rules_from("GeneMatching", "Gene1").len(), 1);
        assert_eq!(m.rules_from("GeneMatching", "Gene2").len(), 1);
        assert_eq!(m.rules_from("GeneMatching", "Evalue").len(), 0);
    }
}
