//! Interference-graph construction (the allocator's *build* phase).
//!
//! Each block is walked backward from its live-out set. At every definition
//! point the defined range interferes with everything currently live — with
//! Chaitin's copy refinement: for `dst = copy src`, `dst` does **not**
//! interfere with `src`, which is what later allows the two to coalesce.
//!
//! Two entry points share that scan:
//!
//! * [`build_graph`] walks every block and produces a fresh graph — the
//!   classic full rebuild run at the top of each allocation pass.
//! * [`update_graph_after_spill`] repairs an existing graph in place after
//!   spill-code insertion, re-scanning only the blocks the spiller touched
//!   and only the edges with a *dirty* endpoint (a spilled range or a fresh
//!   spill temporary). Clean–clean interferences cannot change — inserting
//!   loads and stores never alters where the surviving ranges are live
//!   relative to one another — and dirty ranges are only ever live inside
//!   touched blocks, so the filtered rescan restores exactly the edge set a
//!   full rebuild would compute.

use crate::graph::InterferenceGraph;
use optimist_analysis::{Cfg, Liveness};
use optimist_ir::{BlockId, Function, Inst, VReg};
use std::ops::Range;

/// Scratch buffers for the backward block scan, reusable across blocks.
struct ScanState {
    live_now: Vec<bool>,
    live_list: Vec<u32>,
    uses: Vec<VReg>,
}

impl ScanState {
    fn new(num_vregs: usize) -> Self {
        ScanState {
            live_now: vec![false; num_vregs],
            live_list: Vec::new(),
            uses: Vec::new(),
        }
    }

    fn add_to_live(&mut self, v: u32) {
        if !self.live_now[v as usize] {
            self.live_now[v as usize] = true;
            self.live_list.push(v);
        }
    }

    fn remove_from_live(&mut self, v: u32) {
        if self.live_now[v as usize] {
            self.live_now[v as usize] = false;
            if let Some(pos) = self.live_list.iter().position(|&x| x == v) {
                self.live_list.swap_remove(pos);
            }
        }
    }
}

/// Walk `b` backward from its live-out set, reporting each interference pair
/// `(def, live)` to `edge`. Honors the copy refinement. The same scan serves
/// the full build (where `edge` inserts unconditionally) and the incremental
/// repair (where `edge` filters on dirty endpoints).
fn scan_block(
    func: &Function,
    live: &Liveness,
    b: BlockId,
    state: &mut ScanState,
    mut edge: impl FnMut(u32, u32),
) {
    state.live_now.fill(false);
    state.live_list.clear();
    for v in live.live_out(b).iter() {
        state.add_to_live(v as u32);
    }

    for inst in func.block(b).insts.iter().rev() {
        if let Some(d) = inst.def() {
            let dv = d.index() as u32;
            // Copy refinement: dst does not interfere with src.
            let skip = match inst {
                Inst::Copy { src, .. } => Some(src.index() as u32),
                _ => None,
            };
            state.remove_from_live(dv);
            for &l in &state.live_list {
                if Some(l) != skip {
                    edge(dv, l);
                }
            }
        }
        state.uses.clear();
        inst.uses_into(&mut state.uses);
        for i in 0..state.uses.len() {
            let u = state.uses[i].index() as u32;
            state.add_to_live(u);
        }
    }
}

/// Report the entry-block clique to `edge`: everything live at the top of
/// the function (parameters, plus any may-be-uninitialized webs) is
/// simultaneously defined on entry, so those ranges pairwise interfere.
/// Parameters join the clique even when dead: the calling convention
/// writes *every* parameter's register on entry, so a dead parameter
/// still clobbers whatever shares its register.
fn entry_clique(func: &Function, live: &Liveness, mut edge: impl FnMut(u32, u32)) {
    let live_in = live.live_in(func.entry());
    let mut entry_live: Vec<u32> = live_in.iter().map(|v| v as u32).collect();
    for &p in func.params() {
        if !live_in.contains(p.index()) {
            entry_live.push(p.index() as u32);
        }
    }
    for (i, &x) in entry_live.iter().enumerate() {
        for &y in &entry_live[i + 1..] {
            edge(x, y);
        }
    }
}

/// Build the interference graph of `func` (one node per virtual register;
/// run [`renumber`](optimist_analysis::renumber) first so registers are live
/// ranges).
pub fn build_graph(func: &Function, cfg: &Cfg, live: &Liveness) -> InterferenceGraph {
    let nv = func.num_vregs();
    let classes = (0..nv)
        .map(|i| func.class_of(VReg::new(i as u32)))
        .collect();
    let mut graph = InterferenceGraph::new(classes);
    let mut state = ScanState::new(nv);

    for &b in cfg.rpo() {
        scan_block(func, live, b, &mut state, |a, l| graph.add_edge(a, l));
    }
    entry_clique(func, live, |a, l| graph.add_edge(a, l));

    graph
}

/// Repair `graph` in place after spill-code insertion, instead of rebuilding
/// it from scratch.
///
/// * `spilled` — the live ranges the spiller rewrote. Their old edges are
///   retired; whatever short ranges remain (a spilled parameter stays live
///   from arrival to its entry store) are re-discovered by the rescan.
/// * `new_vregs` — the contiguous block of temporaries the spiller appended
///   (`func.num_vregs()` must already include them). Fresh nodes are added
///   for each.
/// * `touched` — the blocks where spill code was inserted. Dirty ranges are
///   only ever live inside these blocks: reload/store temporaries are
///   block-local by construction, and a spilled parameter's residue lives
///   only in the entry block, which the spiller marks touched.
///
/// `live` must be liveness recomputed for the *post-spill* function. `cfg`
/// may be cached from before the spill: inserting instructions never changes
/// block structure.
///
/// The result is identical to `build_graph` on the post-spill function
/// (debug builds in the allocator cross-check exactly that).
pub fn update_graph_after_spill(
    func: &Function,
    cfg: &Cfg,
    live: &Liveness,
    graph: &mut InterferenceGraph,
    spilled: &[u32],
    new_vregs: Range<u32>,
    touched: &[BlockId],
) {
    let nv = func.num_vregs();
    debug_assert_eq!(new_vregs.end as usize, nv);
    debug_assert_eq!(new_vregs.start as usize, graph.num_nodes());

    for v in new_vregs.clone() {
        graph.add_node(func.class_of(VReg::new(v)));
    }

    let mut dirty = vec![false; nv];
    for &s in spilled {
        dirty[s as usize] = true;
        graph.remove_node_edges(s);
    }
    for v in new_vregs {
        dirty[v as usize] = true;
    }

    let mut state = ScanState::new(nv);
    let entry = func.entry();
    let mut entry_touched = false;
    for &b in touched {
        if !cfg.is_reachable(b) {
            continue;
        }
        entry_touched |= b == entry;
        scan_block(func, live, b, &mut state, |a, l| {
            if dirty[a as usize] || dirty[l as usize] {
                graph.add_edge(a, l);
            }
        });
    }
    if entry_touched {
        entry_clique(func, live, |a, l| {
            if dirty[a as usize] || dirty[l as usize] {
                graph.add_edge(a, l);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimist_analysis::renumber;
    use optimist_ir::{BinOp, FunctionBuilder, Imm, RegClass};

    fn graph_of(func: &mut Function) -> InterferenceGraph {
        renumber(func);
        let cfg = Cfg::new(func);
        let live = Liveness::new(func, &cfg);
        build_graph(func, &cfg, &live)
    }

    #[test]
    fn simultaneously_live_values_interfere() {
        // a = 1; b = 2; c = a + b  — a and b are simultaneously live.
        let mut b = FunctionBuilder::new("f");
        b.set_ret_class(Some(RegClass::Int));
        let a = b.int(1);
        let x = b.int(2);
        let c = b.binv(BinOp::AddI, a, x);
        b.ret(Some(c));
        let mut f = b.finish();
        let g = graph_of(&mut f);
        // After renumber the indices may shift; find by degree structure:
        // exactly one interference edge (a, x).
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn copy_source_does_not_interfere_with_dest() {
        // a = 1; b = copy a; use both separately afterwards? No — classic
        // case: b = copy a, then only b is used. a and b never interfere.
        let mut bld = FunctionBuilder::new("f");
        bld.set_ret_class(Some(RegClass::Int));
        let a = bld.int(1);
        let c = bld.new_vreg(RegClass::Int, "c");
        bld.copy(c, a);
        bld.ret(Some(c));
        let mut f = bld.finish();
        let g = graph_of(&mut f);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn copy_with_live_source_still_no_edge_but_third_interferes() {
        // a = 1; b = copy a; t = a + b: a live past the copy. Chaitin's
        // refinement still omits the a–b edge (they hold the same value).
        let mut bld = FunctionBuilder::new("f");
        bld.set_ret_class(Some(RegClass::Int));
        let a = bld.int(1);
        let c = bld.new_vreg(RegClass::Int, "c");
        bld.copy(c, a);
        let t = bld.binv(BinOp::AddI, a, c);
        bld.ret(Some(t));
        let mut f = bld.finish();
        let g = graph_of(&mut f);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn dead_def_still_interferes_with_live_values() {
        // x = 1; dead = 2; ret x — `dead` occupies a register while x is
        // live, so they interfere even though `dead` has no use.
        let mut bld = FunctionBuilder::new("f");
        bld.set_ret_class(Some(RegClass::Int));
        let x = bld.new_vreg(RegClass::Int, "x");
        bld.load_imm(x, Imm::Int(1));
        let dead = bld.new_vreg(RegClass::Int, "dead");
        bld.load_imm(dead, Imm::Int(2));
        bld.ret(Some(x));
        let mut f = bld.finish();
        let g = graph_of(&mut f);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn params_interfere_with_each_other() {
        let mut bld = FunctionBuilder::new("f");
        bld.set_ret_class(Some(RegClass::Int));
        let p = bld.add_param(RegClass::Int, "p");
        let q = bld.add_param(RegClass::Int, "q");
        let t = bld.binv(BinOp::AddI, p, q);
        bld.ret(Some(t));
        let mut f = bld.finish();
        let g = graph_of(&mut f);
        assert!(g.interferes(0, 1));
    }

    #[test]
    fn dead_param_interferes_with_live_params() {
        // `q` is never used, but the caller still writes its register on
        // entry, so it must not share one with `p` or `r`.
        let mut bld = FunctionBuilder::new("f");
        bld.set_ret_class(Some(RegClass::Int));
        let p = bld.add_param(RegClass::Int, "p");
        let _q = bld.add_param(RegClass::Int, "q");
        let r = bld.add_param(RegClass::Int, "r");
        let t = bld.binv(BinOp::AddI, p, r);
        bld.ret(Some(t));
        let mut f = bld.finish();
        let g = graph_of(&mut f);
        let [p, q, r] = [0, 1, 2].map(|i| f.params()[i].index() as u32);
        assert!(g.interferes(q, p) && g.interferes(q, r));
        assert!(g.interferes(p, r));
    }

    #[test]
    fn int_and_float_never_interfere() {
        let mut bld = FunctionBuilder::new("f");
        bld.set_ret_class(Some(RegClass::Float));
        let i = bld.add_param(RegClass::Int, "i");
        let x = bld.add_param(RegClass::Float, "x");
        let t = bld.binv(BinOp::AddF, x, x);
        let _ = i;
        bld.ret(Some(t));
        let mut f = bld.finish();
        let g = graph_of(&mut f);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn loop_pressure_creates_clique() {
        // Three values all live across a loop back edge form a triangle.
        let mut bld = FunctionBuilder::new("f");
        bld.set_ret_class(Some(RegClass::Int));
        let n = bld.add_param(RegClass::Int, "n");
        let head = bld.new_block();
        let body = bld.new_block();
        let exit = bld.new_block();
        let a = bld.int(1);
        let c = bld.int(2);
        bld.jump(head);
        bld.switch_to(head);
        let cond = bld.cmp_i(optimist_ir::Cmp::Gt, n, a);
        bld.branch(cond, body, exit);
        bld.switch_to(body);
        let t = bld.binv(BinOp::AddI, a, c);
        let _ = t;
        bld.jump(head);
        bld.switch_to(exit);
        let r = bld.binv(BinOp::AddI, a, c);
        bld.ret(Some(r));
        let mut f = bld.finish();
        let g = graph_of(&mut f);
        // n, a, c all pairwise interfere (plus edges to temporaries).
        assert!(g.num_edges() >= 3);
    }

    #[test]
    fn incremental_update_matches_full_rebuild() {
        // Spill one range out of a high-pressure straight-line function and
        // check the repaired graph equals a from-scratch rebuild.
        use crate::spill::{insert_spill_code, SpillOpts};

        let mut bld = FunctionBuilder::new("f");
        bld.set_ret_class(Some(RegClass::Int));
        let p = bld.add_param(RegClass::Int, "p");
        let a = bld.int(1);
        let b = bld.int(2);
        let c = bld.binv(BinOp::AddI, a, b);
        let d = bld.binv(BinOp::AddI, c, p);
        let e = bld.binv(BinOp::AddI, d, a);
        bld.ret(Some(e));
        let mut f = bld.finish();
        renumber(&mut f);
        let cfg = Cfg::new(&f);
        let live = Liveness::new(&f, &cfg);
        let mut graph = build_graph(&f, &cfg, &live);

        // Spill the renumbered web of `a` (find a node with edges).
        let victim = (0..graph.num_nodes() as u32)
            .max_by_key(|&v| graph.degree(v))
            .unwrap();
        let outcome = insert_spill_code(&mut f, &[VReg::new(victim)], &SpillOpts::default());

        let live2 = Liveness::new(&f, &cfg);
        update_graph_after_spill(
            &f,
            &cfg,
            &live2,
            &mut graph,
            &[victim],
            outcome.new_vregs.clone(),
            &outcome.touched_blocks,
        );
        let full = build_graph(&f, &cfg, &live2);
        assert!(
            graph.same_edges(&full),
            "incremental repair diverged from full rebuild"
        );
    }
}
