//! SARIF 2.1.0 emission.
//!
//! Renders a [`LintReport`] as a deterministic SARIF document (one run,
//! the five rules in the driver, one `result` per finding, in the
//! report's ranked order). The JSON is built by hand — stable key order,
//! no floating point, byte-identical across thread counts — so two runs
//! can be diffed byte for byte and CI can checksum it.

use crate::{LintReport, Rule, Severity};
use support::obs::json_escape;

/// The SARIF level for a severity: a definite finding is an `error`, a
/// possible one a `warning`.
fn level(sev: Severity) -> &'static str {
    match sev {
        Severity::Definite => "error",
        Severity::Possible => "warning",
    }
}

/// Renders the report as a SARIF 2.1.0 document (no trailing newline; the
/// caller seals it with the `#checksum` trailer before writing).
pub fn to_sarif(report: &LintReport, tool_version: &str) -> String {
    support::faultpoint::hit("lint::sarif");
    let mut out = String::with_capacity(4096 + report.findings.len() * 256);
    out.push_str("{\n");
    out.push_str(
        "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n",
    );
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"araa-lint\",\n");
    out.push_str(&format!(
        "          \"version\": \"{}\",\n",
        json_escape(tool_version)
    ));
    out.push_str("          \"informationUri\": \"https://github.com/hpctools-repro/araa\",\n");
    out.push_str("          \"rules\": [\n");
    for (i, rule) in Rule::ALL.iter().enumerate() {
        out.push_str(&format!(
            "            {{\"id\": \"{}\", \"name\": \"{}\", \
             \"shortDescription\": {{\"text\": \"{}\"}}}}{}\n",
            rule.id(),
            rule.name(),
            json_escape(rule.describe()),
            if i + 1 < Rule::ALL.len() { "," } else { "" }
        ));
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");
    for (i, f) in report.findings.iter().enumerate() {
        out.push_str(&format!(
            "        {{\"ruleId\": \"{}\", \"level\": \"{}\", \
             \"message\": {{\"text\": \"{}\"}}, \
             \"locations\": [{{\"physicalLocation\": \
             {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \
             \"region\": {{\"startLine\": {}}}}}}}], \
             \"properties\": {{\"proc\": \"{}\", \"array\": \"{}\", \
             \"confidence\": \"{}\", \"precision\": \"{}\"}}}}{}\n",
            f.rule.id(),
            level(f.severity),
            json_escape(&f.message),
            json_escape(&f.file),
            f.line.max(1),
            json_escape(&f.proc),
            json_escape(&f.array),
            f.severity.name(),
            f.precision.as_str(),
            if i + 1 < report.findings.len() { "," } else { "" }
        ));
    }
    out.push_str("      ],\n");
    out.push_str(&format!(
        "      \"invocations\": [{{\"executionSuccessful\": true, \
         \"properties\": {{\"procsLinted\": {}, \"procsCached\": {}, \
         \"suppressed\": {}, \"degradations\": {}}}}}]\n",
        report.procs_linted,
        report.procs_cached,
        report.suppressed,
        report.degradations.len()
    ));
    out.push_str("    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Finding;

    fn report() -> LintReport {
        LintReport {
            findings: vec![Finding {
                rule: Rule::Oob01,
                severity: Severity::Definite,
                file: "a.f".into(),
                line: 7,
                proc: "p".into(),
                array: "x\"y".into(),
                precision: regions::access::Precision::Exact,
                message: "region [0:9] exceeds [0:4]".into(),
            }],
            ..Default::default()
        }
    }

    #[test]
    fn sarif_has_schema_rules_and_results() {
        let doc = to_sarif(&report(), "0.1.0");
        assert!(doc.contains("\"version\": \"2.1.0\""));
        for rule in Rule::ALL {
            assert!(doc.contains(rule.id()), "missing {}", rule.id());
        }
        assert!(doc.contains("\"ruleId\": \"OOB-01\""));
        assert!(doc.contains("\"level\": \"error\""));
        assert!(doc.contains("\"startLine\": 7"));
        assert!(doc.contains("\"precision\": \"exact\""), "{doc}");
        assert!(doc.contains("x\\\"y"), "strings are escaped: {doc}");
    }

    #[test]
    fn sarif_is_deterministic() {
        assert_eq!(to_sarif(&report(), "0.1.0"), to_sarif(&report(), "0.1.0"));
    }
}
