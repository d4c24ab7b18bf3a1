//! The IPA call graph.
//!
//! "The call graph is generated at this level, where each node in this graph
//! represents a procedure and the caller-callee relationships are expressed
//! by the edges. This call graph should be traversed to extract the
//! necessary array analysis information needed by our tool." We provide the
//! same access paths the paper uses: total size, a node iterator, pre-order
//! traversal from the entries (Algorithm 1's `while !cg.empty()`), a
//! bottom-up order for summary propagation, and per-node call-site
//! iteration.

use std::collections::HashMap;
use support::idx::IndexVec;
use support::intern::Symbol;
use whirl::{Opr, ProcId, Program, StIdx, WnId};

/// One call site inside a caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// The calling procedure.
    pub caller: ProcId,
    /// The called procedure.
    pub callee: ProcId,
    /// The `Call` node in the caller's tree.
    pub wn: WnId,
    /// Source line of the call.
    pub line: u32,
    /// Actual arguments: for each parameter position, the array symbol when
    /// the actual is a whole-array (`PARM(LDA ...)`), else `None`.
    pub array_actuals: Vec<Option<StIdx>>,
}

/// One call-graph node.
#[derive(Debug, Clone, Default)]
pub struct CgNode {
    /// Outgoing call sites, in source order.
    pub calls: Vec<CallSite>,
    /// Procedures that call this one.
    pub callers: Vec<ProcId>,
}

/// The call graph of a [`Program`].
#[derive(Debug)]
pub struct CallGraph {
    nodes: IndexVec<ProcId, CgNode>,
    entries: Vec<ProcId>,
    /// Where each procedure's call sites start in the program-wide site
    /// numbering, plus the total as a last entry.
    site_start: Vec<usize>,
}

impl CallGraph {
    /// Builds the graph by scanning every procedure's WHIRL tree for `Call`
    /// nodes. Calls to symbols with no matching procedure are ignored
    /// (external library calls).
    pub fn build(program: &Program) -> Self {
        Self::rebuild(program, None, &[])
    }

    /// Like [`build`](Self::build), but a procedure `keep` marks takes its
    /// call sites from `prev` instead of a scan of its tree. That is exact
    /// when it is the procedure with the same `ProcId` in the program `prev`
    /// was built for, and every procedure kept its `ProcId`.
    pub fn rebuild(program: &Program, prev: Option<&CallGraph>, keep: &[bool]) -> Self {
        use support::idx::Idx;
        let _span = support::obs::span("ipa.callgraph");
        let by_name = program.proc_index();
        let mut nodes: IndexVec<ProcId, CgNode> = program
            .procedures
            .iter_enumerated()
            .map(|(caller, proc)| {
                let calls = match prev {
                    Some(prev) if keep.get(caller.as_usize()) == Some(&true) => {
                        prev.nodes[caller].calls.clone()
                    }
                    _ => scan_calls(program, caller, proc, &by_name),
                };
                CgNode { calls, callers: Vec::new() }
            })
            .collect();
        for caller in (0..nodes.len()).map(ProcId::from_usize) {
            for k in 0..nodes[caller].calls.len() {
                let callee = nodes[caller].calls[k].callee;
                if !nodes[callee].callers.contains(&caller) {
                    nodes[callee].callers.push(caller);
                }
            }
        }

        // Entries: explicit program entries, plus any procedure nobody calls.
        let mut entries: Vec<ProcId> = Vec::new();
        for (id, proc) in program.procedures.iter_enumerated() {
            let uncalled = nodes[id].callers.is_empty();
            let is_main = program.name_of(proc.name) == "main"
                || program.name_of(proc.name) == "applu";
            if (uncalled || is_main)
                && !entries.contains(&id) {
                    entries.push(id);
                }
        }
        let mut site_start = Vec::with_capacity(nodes.len() + 1);
        site_start.push(0);
        for node in nodes.iter() {
            site_start.push(site_start[site_start.len() - 1] + node.calls.len());
        }
        CallGraph { nodes, entries, site_start }
    }

    /// Total number of nodes — "The call graph structure retrieves the total
    /// size of the graph which is useful while traversing."
    pub fn size(&self) -> usize {
        self.nodes.len()
    }

    /// The entry procedures.
    pub fn entries(&self) -> &[ProcId] {
        &self.entries
    }

    /// The node for `id`.
    pub fn node(&self, id: ProcId) -> &CgNode {
        &self.nodes[id]
    }

    /// Call sites of `id`.
    pub fn calls(&self, id: ProcId) -> &[CallSite] {
        &self.nodes[id].calls
    }

    /// The program-wide numbers of `id`'s call sites, in [`calls`](Self::calls)
    /// order: sites are numbered procedure by procedure in `ProcId` order,
    /// so per-site data of a whole program fits one flat vector.
    pub fn site_range(&self, id: ProcId) -> std::ops::Range<usize> {
        use support::idx::Idx;
        self.site_start[id.as_usize()]..self.site_start[id.as_usize() + 1]
    }

    /// Number of call sites in the program.
    pub fn site_count(&self) -> usize {
        self.site_start[self.site_start.len() - 1]
    }

    /// Direct callees of `id`, deduplicated, in first-call order.
    pub fn callees(&self, id: ProcId) -> Vec<ProcId> {
        let mut out = Vec::new();
        for c in &self.nodes[id].calls {
            if !out.contains(&c.callee) {
                out.push(c.callee);
            }
        }
        out
    }

    /// Pre-order traversal from the entries; unreachable nodes are appended
    /// afterwards so every procedure is visited exactly once (Algorithm 1
    /// iterates the whole graph).
    pub fn pre_order(&self) -> Vec<ProcId> {
        let mut order = Vec::with_capacity(self.size());
        let mut seen = vec![false; self.size()];
        let mut visit_stack: Vec<ProcId> = Vec::new();
        for &e in self.entries.iter().rev() {
            visit_stack.push(e);
        }
        while let Some(id) = visit_stack.pop() {
            use support::idx::Idx;
            if seen[id.as_usize()] {
                continue;
            }
            seen[id.as_usize()] = true;
            order.push(id);
            for callee in self.callees(id).into_iter().rev() {
                visit_stack.push(callee);
            }
        }
        for id in self.nodes.indices() {
            use support::idx::Idx;
            if !seen[id.as_usize()] {
                order.push(id);
            }
        }
        order
    }

    /// Bottom-up order: every procedure appears after all procedures it
    /// calls (ignoring back edges on recursive cycles, which are reported
    /// separately via [`CallGraph::is_recursive`]).
    pub fn bottom_up(&self) -> Vec<ProcId> {
        let mut order = Vec::with_capacity(self.size());
        let mut state = vec![0u8; self.size()]; // 0 new, 1 visiting, 2 done
        for id in self.nodes.indices() {
            self.post_order(id, &mut state, &mut order);
        }
        order
    }

    fn post_order(&self, id: ProcId, state: &mut [u8], order: &mut Vec<ProcId>) {
        use support::idx::Idx;
        if state[id.as_usize()] != 0 {
            return;
        }
        state[id.as_usize()] = 1;
        for callee in self.callees(id) {
            if state[callee.as_usize()] == 0 {
                self.post_order(callee, state, order);
            }
        }
        state[id.as_usize()] = 2;
        order.push(id);
    }

    /// The ancestor closure of `seeds`: the seeds themselves plus every
    /// procedure that can reach a seed through call edges (direct and
    /// transitive callers). This is the incremental-analysis invalidation
    /// rule — a procedure's *propagated* summary depends exactly on the
    /// summaries of its call-graph descendants, so when a procedure changes,
    /// the procedures whose propagated summaries may change are its
    /// ancestors. Returns a membership mask indexable by `ProcId`.
    pub fn ancestor_closure(&self, seeds: impl IntoIterator<Item = ProcId>) -> Vec<bool> {
        use support::idx::Idx;
        let mut mask = vec![false; self.size()];
        let mut stack: Vec<ProcId> = Vec::new();
        for s in seeds {
            if !mask[s.as_usize()] {
                mask[s.as_usize()] = true;
                stack.push(s);
            }
        }
        while let Some(id) = stack.pop() {
            for &caller in &self.nodes[id].callers {
                if !mask[caller.as_usize()] {
                    mask[caller.as_usize()] = true;
                    stack.push(caller);
                }
            }
        }
        mask
    }

    /// True when the graph contains a call cycle.
    pub fn is_recursive(&self) -> bool {
        let mut state = vec![0u8; self.size()];
        for id in self.nodes.indices() {
            if self.cycle_from(id, &mut state) {
                return true;
            }
        }
        false
    }

    fn cycle_from(&self, id: ProcId, state: &mut [u8]) -> bool {
        use support::idx::Idx;
        match state[id.as_usize()] {
            1 => return true,
            2 => return false,
            _ => {}
        }
        state[id.as_usize()] = 1;
        for callee in self.callees(id) {
            if self.cycle_from(callee, state) {
                return true;
            }
        }
        state[id.as_usize()] = 2;
        false
    }

    /// Graphviz DOT rendering — the Dragon call graph view (Fig. 11).
    pub fn to_dot(&self, program: &Program) -> String {
        let mut out = String::from("digraph callgraph {\n  node [shape=box];\n");
        for (id, proc) in program.procedures.iter_enumerated() {
            let name = display_name(program, proc);
            out.push_str(&format!("  p{} [label=\"{}\"];\n", id.0, name));
        }
        for node in self.nodes.iter() {
            for c in &node.calls {
                out.push_str(&format!("  p{} -> p{};\n", c.caller.0, c.callee.0));
            }
        }
        out.push_str("}\n");
        out
    }
}

/// The call sites in `proc`'s tree, in tree order. `by_name` resolves a
/// callee symbol's name to its procedure.
fn scan_calls(
    program: &Program,
    caller: ProcId,
    proc: &whirl::Procedure,
    by_name: &HashMap<Symbol, ProcId>,
) -> Vec<CallSite> {
    let mut calls = Vec::new();
    for wn in proc.tree.iter() {
        let node = proc.tree.node(wn);
        if node.operator != Opr::Call {
            continue;
        }
        let Some(callee_st) = node.st_idx else { continue };
        let Some(&callee) = by_name.get(&program.symbols.get(callee_st).name) else {
            continue;
        };
        let array_actuals = node
            .kids
            .iter()
            .map(|&parm| {
                let v = proc.tree.node(parm).kids.first().copied()?;
                let vn = proc.tree.node(v);
                (vn.operator == Opr::Lda).then_some(vn.st_idx).flatten()
            })
            .collect();
        calls.push(CallSite { caller, callee, wn, line: node.linenum, array_actuals });
    }
    calls
}

/// Dragon's display name for a procedure: entry points show as `MAIN__`
/// (the Fortran main convention visible in Fig. 11), everything else by
/// source name.
pub fn display_name<'p>(program: &'p Program, proc: &whirl::Procedure) -> &'p str {
    let raw = program.name_of(proc.name);
    // Entry detection mirrors CallGraph::build.
    if raw == "main" || raw == "applu" {
        "MAIN__"
    } else {
        raw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frontend::{compile_to_h, SourceFile, DEFAULT_LAYOUT_BASE};
    use whirl::Lang;

    fn program(src: &str) -> Program {
        compile_to_h(
            &[SourceFile::new("t.f", src, Lang::Fortran)],
            DEFAULT_LAYOUT_BASE,
        )
        .unwrap()
    }

    const DIAMOND: &str = "\
program main
  call a
  call b
end
subroutine a
  call c
end
subroutine b
  call c
end
subroutine c
  return
end
";

    #[test]
    fn builds_diamond_graph() {
        let p = program(DIAMOND);
        let cg = CallGraph::build(&p);
        assert_eq!(cg.size(), 4);
        let main = p.find_procedure("main").unwrap();
        let c = p.find_procedure("c").unwrap();
        assert_eq!(cg.callees(main).len(), 2);
        assert_eq!(cg.node(c).callers.len(), 2);
        assert_eq!(cg.entries(), &[main]);
    }

    #[test]
    fn pre_order_visits_all_once_parent_first() {
        let p = program(DIAMOND);
        let cg = CallGraph::build(&p);
        let order = cg.pre_order();
        assert_eq!(order.len(), 4);
        let main = p.find_procedure("main").unwrap();
        assert_eq!(order[0], main);
        let mut sorted = order.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
    }

    #[test]
    fn bottom_up_puts_callees_first() {
        let p = program(DIAMOND);
        let cg = CallGraph::build(&p);
        let order = cg.bottom_up();
        let posn = |name: &str| {
            let id = p.find_procedure(name).unwrap();
            order.iter().position(|&x| x == id).unwrap()
        };
        assert!(posn("c") < posn("a"));
        assert!(posn("c") < posn("b"));
        assert!(posn("a") < posn("main"));
    }

    #[test]
    fn call_sites_carry_array_actuals() {
        let p = program(
            "\
program main
  real a(10)
  common /g/ a
  integer k
  call f(a, k)
end
subroutine f(x, n)
  real x(10)
  integer n
  x(1) = 0.0
end
",
        );
        let cg = CallGraph::build(&p);
        let main = p.find_procedure("main").unwrap();
        let site = &cg.calls(main)[0];
        assert_eq!(site.array_actuals.len(), 2);
        assert!(site.array_actuals[0].is_some(), "first actual is array a");
        assert!(site.array_actuals[1].is_none(), "second actual is scalar");
        let a_sym = p.interner.get("a").unwrap();
        assert_eq!(
            p.symbols.get(site.array_actuals[0].unwrap()).name,
            a_sym
        );
    }

    #[test]
    fn recursion_detection() {
        let p = program("\
subroutine r
  call r
end
");
        let cg = CallGraph::build(&p);
        assert!(cg.is_recursive());
        let p2 = program(DIAMOND);
        assert!(!CallGraph::build(&p2).is_recursive());
    }

    #[test]
    fn unreachable_procedures_still_traversed() {
        let p = program("\
program main
  return
end
subroutine orphan_helper
  call leaf
end
subroutine leaf
  return
end
");
        let cg = CallGraph::build(&p);
        assert_eq!(cg.pre_order().len(), 3);
        // orphan_helper is uncalled ⇒ also an entry.
        assert!(cg.entries().len() >= 2);
    }

    #[test]
    fn dot_output_shape() {
        let p = program(DIAMOND);
        let cg = CallGraph::build(&p);
        let dot = cg.to_dot(&p);
        assert!(dot.starts_with("digraph callgraph {"));
        assert!(dot.contains("MAIN__"));
        assert!(dot.contains("->"));
        assert_eq!(dot.matches("->").count(), 4);
    }

    #[test]
    fn ancestor_closure_walks_caller_edges_transitively() {
        let p = program(DIAMOND);
        let cg = CallGraph::build(&p);
        let id = |n: &str| p.find_procedure(n).unwrap();
        use support::idx::Idx;
        let at = |mask: &[bool], n: &str| mask[id(n).as_usize()];

        // c is called by a and b, both called by main: everything invalidates.
        let mask = cg.ancestor_closure([id("c")]);
        assert!(at(&mask, "c") && at(&mask, "a") && at(&mask, "b") && at(&mask, "main"));

        // a's ancestors are just main; b and c stay clean.
        let mask = cg.ancestor_closure([id("a")]);
        assert!(at(&mask, "a") && at(&mask, "main"));
        assert!(!at(&mask, "b") && !at(&mask, "c"));

        // main has no callers: only itself.
        let mask = cg.ancestor_closure([id("main")]);
        assert_eq!(mask.iter().filter(|&&m| m).count(), 1);

        // Empty seed set: nothing affected.
        let mask = cg.ancestor_closure([]);
        assert!(mask.iter().all(|&m| !m));
    }

    #[test]
    fn bottom_up_handles_recursion_without_hanging() {
        let p = program("subroutine r\n  call r\nend\n");
        let cg = CallGraph::build(&p);
        assert_eq!(cg.bottom_up().len(), 1);
    }
}
