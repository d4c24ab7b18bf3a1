//! `araa-lint` — the interprocedural array-safety lint engine.
//!
//! The paper positions the analysis output as something a user *reads*
//! (the Dragon browser, the advisor's optimization hints). This crate
//! turns the same interprocedural facts — per-procedure region summaries,
//! the IPA call graph, and the formal→actual rebasing of `ipa::propagate`
//! — into *checked* source-anchored findings:
//!
//! | rule     | name                    | fires when                                        |
//! |----------|-------------------------|---------------------------------------------------|
//! | `OOB-01` | array-out-of-bounds     | an accessed region exceeds the declared extents   |
//! | `UBD-02` | use-before-def          | a USE of a local array no DEF reaches             |
//! | `DST-03` | dead-store              | a DEF writes elements no USE ever reads           |
//! | `SHP-04` | call-shape-mismatch     | an actual is smaller than the callee's footprint  |
//! | `ALI-05` | argument-aliasing       | one array reaches a callee under two names        |
//! | `NAF-06` | non-affine-unbounded    | an access neither FM nor the interval pass bounds |
//!
//! Every rule splits findings into [`Severity::Definite`] (the region
//! arithmetic or a Fourier–Motzkin proof *establishes* the violation) and
//! [`Severity::Possible`] (the analysis could bound the access but could
//! not refute the violation). Candidates that FM *does* refute are counted
//! in `lint.suppressed` rather than reported — the definite/possible split
//! is driven by what the polyhedral machinery can prove, exactly like the
//! paper's MUST/MAY region distinction.
//!
//! The engine lints every procedure on each run (parallelizable,
//! deterministically merged, panic-contained behind the `lint::contain`
//! faultpoint), then runs the whole-program dead-store pass. There is no
//! lint cache: keying one cost more than the rules it would skip.
//! [`sarif`] renders the findings as SARIF 2.1.0 for editor/CI ingestion.

pub mod engine;
pub mod facts;
pub mod rules;
pub mod sarif;

#[doc(hidden)]
pub use engine::{run_with_cache, LintCache};
pub use engine::{run, LintOptions};

use std::fmt;

/// The lint rules, in rule-id order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// `OOB-01`: accessed region exceeds the declared extents.
    Oob01,
    /// `UBD-02`: a USE of a procedure-local array that no DEF reaches.
    Ubd02,
    /// `DST-03`: a DEF whose elements no subsequent USE reads.
    Dst03,
    /// `SHP-04`: a call-site actual smaller than the callee's footprint.
    Shp04,
    /// `ALI-05`: the same memory reaches a callee under two names.
    Ali05,
    /// `NAF-06`: an access the affine *and* interval analyses both failed
    /// to bound — the region stayed `unbounded` after the fallback.
    Naf06,
}

impl Rule {
    /// All rules, in rule-id order.
    pub const ALL: [Rule; 6] = [
        Rule::Oob01,
        Rule::Ubd02,
        Rule::Dst03,
        Rule::Shp04,
        Rule::Ali05,
        Rule::Naf06,
    ];

    /// The stable rule identifier (`OOB-01`, ...).
    pub fn id(self) -> &'static str {
        match self {
            Rule::Oob01 => "OOB-01",
            Rule::Ubd02 => "UBD-02",
            Rule::Dst03 => "DST-03",
            Rule::Shp04 => "SHP-04",
            Rule::Ali05 => "ALI-05",
            Rule::Naf06 => "NAF-06",
        }
    }

    /// Short kebab-case rule name (the SARIF `rule.name`).
    pub fn name(self) -> &'static str {
        match self {
            Rule::Oob01 => "array-out-of-bounds",
            Rule::Ubd02 => "use-before-def",
            Rule::Dst03 => "dead-store",
            Rule::Shp04 => "call-shape-mismatch",
            Rule::Ali05 => "argument-aliasing",
            Rule::Naf06 => "non-affine-unbounded",
        }
    }

    /// One-line description (the SARIF `shortDescription`).
    pub fn describe(self) -> &'static str {
        match self {
            Rule::Oob01 => {
                "An accessed array region exceeds the array's declared extents."
            }
            Rule::Ubd02 => {
                "A local array is read through a region no definition reaches."
            }
            Rule::Dst03 => "An array store writes elements that are never read.",
            Rule::Shp04 => {
                "A call passes an array smaller than the callee's summarized footprint."
            }
            Rule::Ali05 => {
                "The same array reaches a callee under two names and one is written."
            }
            Rule::Naf06 => {
                "An array access remains unbounded after the interval fallback."
            }
        }
    }

    /// Parses a stable rule id back into the rule.
    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.id() == id)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// How certain the engine is. `Definite` means the region arithmetic (or
/// an FM proof) establishes the violation; `Possible` means it could not
/// be refuted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The violation could not be refuted but is not proven.
    Possible,
    /// The violation is proven by constant region arithmetic or FM.
    Definite,
}

impl Severity {
    /// Stable lower-case name (`definite` / `possible`).
    pub fn name(self) -> &'static str {
        match self {
            Severity::Possible => "possible",
            Severity::Definite => "definite",
        }
    }
}

/// One lint finding, anchored to a source line.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// Definite vs. possible.
    pub severity: Severity,
    /// Source file the finding is anchored in (e.g. `verify.f`).
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Procedure scope (display name, e.g. `MAIN__`).
    pub proc: String,
    /// The array concerned.
    pub array: String,
    /// The worst region precision among the records the rule consumed —
    /// `interval` and `unbounded` findings are capped at `Possible`.
    pub precision: regions::access::Precision,
    /// Human explanation, including the regions involved.
    pub message: String,
}

impl Finding {
    /// Ranking key: definite first, then rule id, file, line, proc, array.
    fn rank_key(&self) -> (u8, Rule, &str, u32, &str, &str, &str) {
        let sev = match self.severity {
            Severity::Definite => 0,
            Severity::Possible => 1,
        };
        (sev, self.rule, &self.file, self.line, &self.proc, &self.array, &self.message)
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{} {}] {} (in `{}`)",
            self.file,
            self.line,
            self.rule.id(),
            self.severity.name(),
            self.message,
            self.proc
        )
    }
}

/// The result of one lint run.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// All findings, ranked (definite first, then rule/file/line).
    pub findings: Vec<Finding>,
    /// Procedures whose lint evaluation failed and was contained (stage
    /// `"lint"`); their findings are absent, everything else is intact.
    pub degradations: Vec<araa::Degradation>,
    /// Procedures evaluated this run.
    pub procs_linted: usize,
    /// Always 0: there is no lint cache. Still rendered (`0 cached`, SARIF
    /// `procsCached`) so the output format is unchanged; `perfbench/` is
    /// its only outside reader.
    #[doc(hidden)]
    pub procs_cached: usize,
    /// Candidates Fourier–Motzkin (or exact footprint arithmetic) refuted.
    pub suppressed: u64,
}

impl LintReport {
    /// Number of definite findings.
    pub fn definite_count(&self) -> usize {
        self.findings.iter().filter(|f| f.severity == Severity::Definite).count()
    }

    /// Number of possible findings.
    pub fn possible_count(&self) -> usize {
        self.findings.len() - self.definite_count()
    }

    /// Ranks findings and drops exact duplicates (a record propagated to
    /// several ancestors can reproduce the same anchored message).
    pub(crate) fn finish(&mut self) {
        self.findings.sort_by(|a, b| a.rank_key().cmp(&b.rank_key()));
        self.findings.dedup();
    }

    /// Renders the ranked human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} finding(s): {} definite, {} possible \
             ({} procedure(s) linted, {} cached, {} candidate(s) refuted)\n",
            self.findings.len(),
            self.definite_count(),
            self.possible_count(),
            self.procs_linted,
            self.procs_cached,
            self.suppressed
        ));
        for d in &self.degradations {
            out.push_str(&format!("degraded: {d}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_round_trip() {
        for r in Rule::ALL {
            assert_eq!(Rule::from_id(r.id()), Some(r));
        }
        assert_eq!(Rule::from_id("XXX-99"), None);
    }

    #[test]
    fn ranking_puts_definite_first() {
        let f = |rule, severity, line| Finding {
            rule,
            severity,
            file: "a.f".into(),
            line,
            proc: "p".into(),
            array: "x".into(),
            precision: regions::access::Precision::Exact,
            message: "m".into(),
        };
        let mut report = LintReport {
            findings: vec![
                f(Rule::Oob01, Severity::Possible, 1),
                f(Rule::Dst03, Severity::Definite, 9),
                f(Rule::Oob01, Severity::Definite, 5),
                f(Rule::Oob01, Severity::Definite, 5),
            ],
            ..Default::default()
        };
        report.finish();
        assert_eq!(report.findings.len(), 3, "exact duplicates dropped");
        assert_eq!(report.findings[0].severity, Severity::Definite);
        assert_eq!(report.findings[0].rule, Rule::Oob01);
        assert_eq!(report.findings[1].rule, Rule::Dst03);
        assert_eq!(report.findings[2].severity, Severity::Possible);
        assert_eq!(report.definite_count(), 2);
        assert_eq!(report.possible_count(), 1);
    }

    #[test]
    fn report_renders_summary_line() {
        let report = LintReport::default();
        let text = report.render();
        assert!(text.contains("0 finding(s)"), "{text}");
    }
}
