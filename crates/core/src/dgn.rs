//! `.dgn` project files.
//!
//! "Compile the application. A bunch of files will be generated that
//! includes .dgn, .cfg and .rgn files. Invoke our Dragon tool and load the
//! .dgn project." Our `.dgn` is a small CSV document describing the
//! program: one `proc` record per procedure (name, display name, file,
//! line) and one `call` record per call-graph edge — everything the Dragon
//! call-graph view (Fig. 11) needs without re-running the compiler.

use ipa::callgraph::display_name;
use ipa::CallGraph;
use support::csv::{parse, CsvWriter};
use support::persist::{append_text_checksum, verify_text_checksum};
use support::Error;
use whirl::Program;

/// One procedure record in a project.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DgnProc {
    /// Source-level name.
    pub name: String,
    /// Dragon display name (`MAIN__` for entries).
    pub display: String,
    /// Source file.
    pub file: String,
    /// Header line.
    pub line: u32,
}

/// One call edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DgnCall {
    /// Caller procedure name.
    pub caller: String,
    /// Callee procedure name.
    pub callee: String,
    /// Call-site line.
    pub line: u32,
}

/// A loaded `.dgn` project.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DgnProject {
    /// Procedures, in call-graph pre-order.
    pub procs: Vec<DgnProc>,
    /// Call edges.
    pub calls: Vec<DgnCall>,
}

impl DgnProject {
    /// Builds the project description from an analyzed program.
    pub fn from_program(program: &Program, cg: &CallGraph) -> Self {
        let mut procs = Vec::new();
        for id in cg.pre_order() {
            let p = program.procedure(id);
            procs.push(DgnProc {
                name: program.name_of(p.name).to_string(),
                display: display_name(program, p).to_string(),
                file: program.name_of(p.file).to_string(),
                line: p.linenum,
            });
        }
        let mut calls = Vec::new();
        for id in cg.pre_order() {
            for site in cg.calls(id) {
                calls.push(DgnCall {
                    caller: program.name_of(program.procedure(site.caller).name).to_string(),
                    callee: program.name_of(program.procedure(site.callee).name).to_string(),
                    line: site.line,
                });
            }
        }
        DgnProject { procs, calls }
    }

    /// Serializes to the `.dgn` text format, finished with a `#checksum`
    /// trailer line so truncation and in-place corruption are detectable.
    pub fn write(&self) -> String {
        let mut w = CsvWriter::new();
        w.write_row(["dgn", "1"]);
        for p in &self.procs {
            w.write_row(["proc", &p.name, &p.display, &p.file, &p.line.to_string()]);
        }
        for c in &self.calls {
            w.write_row(["call", &c.caller, &c.callee, &c.line.to_string()]);
        }
        let mut doc = w.finish();
        append_text_checksum(&mut doc);
        doc
    }

    /// Parses a `.dgn` document, verifying the `#checksum` trailer when one
    /// is present (files from older tool versions carry none).
    pub fn read(doc: &str) -> Result<Self, Error> {
        let doc = verify_text_checksum(doc)?;
        let records = parse(doc)?;
        let mut it = records.into_iter();
        match it.next() {
            Some(h) if h.first().map(String::as_str) == Some("dgn") => {}
            _ => return Err(Error::Format("not a .dgn project file".to_string())),
        }
        let mut out = DgnProject::default();
        for rec in it {
            match rec.first().map(String::as_str) {
                Some("proc") if rec.len() == 5 => out.procs.push(DgnProc {
                    name: rec[1].clone(),
                    display: rec[2].clone(),
                    file: rec[3].clone(),
                    line: rec[4]
                        .parse()
                        .map_err(|_| Error::Format("bad proc line number".to_string()))?,
                }),
                Some("call") if rec.len() == 4 => out.calls.push(DgnCall {
                    caller: rec[1].clone(),
                    callee: rec[2].clone(),
                    line: rec[3]
                        .parse()
                        .map_err(|_| Error::Format("bad call line number".to_string()))?,
                }),
                Some("") | None => {}
                other => {
                    return Err(Error::Format(format!("unknown .dgn record {other:?}")))
                }
            }
        }
        Ok(out)
    }

    /// Graphviz DOT of the loaded project's call graph.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph callgraph {\n  node [shape=box];\n");
        for p in &self.procs {
            out.push_str(&format!("  \"{}\" [label=\"{}\"];\n", p.name, p.display));
        }
        for c in &self.calls {
            out.push_str(&format!("  \"{}\" -> \"{}\";\n", c.caller, c.callee));
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frontend::{compile_to_h, SourceFile, DEFAULT_LAYOUT_BASE};
    use whirl::Lang;

    fn project() -> DgnProject {
        let fig1 = workloads::fig1::source();
        let p = compile_to_h(
            &[SourceFile::new(&fig1.name, &fig1.text, Lang::Fortran)],
            DEFAULT_LAYOUT_BASE,
        )
        .unwrap();
        let cg = CallGraph::build(&p);
        DgnProject::from_program(&p, &cg)
    }

    #[test]
    fn captures_procs_and_calls() {
        let prj = project();
        assert_eq!(prj.procs.len(), 3);
        assert_eq!(prj.calls.len(), 2);
        assert!(prj.procs.iter().any(|p| p.name == "add"));
        assert!(prj.calls.iter().any(|c| c.caller == "add" && c.callee == "p1"));
    }

    #[test]
    fn round_trips_through_text() {
        let prj = project();
        let doc = prj.write();
        let back = DgnProject::read(&doc).unwrap();
        assert_eq!(back, prj);
    }

    #[test]
    fn rejects_non_dgn_documents() {
        assert!(DgnProject::read("rgn,1\n").is_err());
        assert!(DgnProject::read("").is_err());
        assert!(DgnProject::read("dgn,1\nbogus,record\n").is_err());
    }

    #[test]
    fn dot_contains_every_edge() {
        let prj = project();
        let dot = prj.to_dot();
        assert_eq!(dot.matches("->").count(), prj.calls.len());
    }
}
