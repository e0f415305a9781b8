//! The precedence-constraint predictor (§4.9).
//!
//! Builds a weighted dependence graph over the values consumed and produced
//! by the block's instructions and bounds the throughput by the maximum
//! cycle ratio (latency over spanned iterations) of that graph.
//!
//! There is one graph, built from the annotation's dataflow columns
//! ([`facile_isa::BlockColumns`]): values are dense per-block ids, so
//! last writers resolve by direct indexing. The flows are the block's
//! shared, uarch-independent ones; the annotation's latency column gives
//! each its latency on the uarch and marks macro-fused tails, whose flows
//! the graph skips. One Howard solve of the graph gives both the bound
//! and the critical cycle; the chain names that cycle's value ids
//! through the column value table, and bound-only queries skip it.
//! `tests/chain_oracle.rs` checks both against a typed builder.

use crate::mcr::{max_cycle_ratio_howard, Mcr, REdge, RatioGraph};
use facile_explain::{
    ChainStep, Component, ComponentAnalysis, Evidence, PrecedenceEvidence, ValueRef,
};
use facile_isa::{AnnotatedBlock, BlockColumns, ColValue, FlowCol, SKIPPED_FLOW};
use facile_util::FxHashMap;
use std::cell::RefCell;
use std::ops::Range;

/// Cycles between a store-data µop executing and the stored value being
/// available for forwarding (on top of the consumer's load latency).
const STORE_LATENCY: f64 = 1.0;

/// Result of the precedence analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct PrecedenceAnalysis {
    /// Throughput bound in cycles per iteration (0 when no loop-carried
    /// dependence exists).
    pub bound: f64,
    /// The critical dependence chain (one representative cycle) as typed
    /// hops with per-instruction latency contributions.
    pub critical_chain: Vec<ChainStep>,
}

/// One graph node: a value consumed or produced by one flow (an entry
/// of [`BlockColumns::flows`], which is also the instruction's index).
#[derive(Debug, Clone, Copy)]
struct NodeMeta {
    flow: u32,
    value: u32,
    produced: bool,
}

/// Reusable buffers for the precedence analysis (one per thread), so
/// building the dependence graph of a block allocates nothing once they
/// have warmed up.
#[derive(Debug, Default)]
struct PrecScratch {
    nodes: Vec<NodeMeta>,
    /// Graph node id of each [`BlockColumns::ids`] entry (filled during
    /// node creation, so edge construction never re-scans a node range
    /// for a value).
    val_node: Vec<u32>,
    graph: RatioGraph,
    /// Last-writer table, indexed by value id.
    last_writer: Vec<Writer>,
}

/// One last-writer entry: the flow that last produced the value (tagged
/// with [`WRAP`] until the sweep has seen a producer this iteration, or
/// [`NO_WRITER`] if nothing in the block produces it), and the graph
/// node of that producer's output.
#[derive(Debug, Clone, Copy)]
struct Writer {
    flow_tag: u32,
    pnode: u32,
}

const NO_WRITER: u32 = u32::MAX;

/// High bit of [`Writer::flow_tag`]: the entry still refers to the
/// previous iteration's producer, so a consumer resolving to it is
/// loop-carried.
const WRAP: u32 = 1 << 31;

thread_local! {
    static PREC_SCRATCH: RefCell<PrecScratch> = RefCell::new(PrecScratch::default());
}

fn span((start, end): (u32, u32)) -> Range<usize> {
    start as usize..end as usize
}

/// The flows of the graph with their indices and latencies: every flow
/// but those of macro-fused tails.
fn live_flows<'a>(cols: BlockColumns<'a>) -> impl Iterator<Item = (usize, &'a FlowCol, u8)> + 'a {
    cols.flows
        .iter()
        .zip(cols.latency)
        .enumerate()
        .filter(|(_, (_, &lat))| lat != SKIPPED_FLOW)
        .map(|(i, (f, &lat))| (i, f, lat))
}

/// Build the dependence graph of the block's dataflow columns into
/// `s.graph`. Returns `None` when the block has no flows, otherwise
/// whether any loop-carried edge exists (if none does, the graph cannot
/// have a cycle: intra edges point consumed -> produced within a flow
/// and count-0 dependence edges point to a strictly later flow).
fn build_graph(ab: &AnnotatedBlock, s: &mut PrecScratch) -> Option<bool> {
    let cols = ab.columns();
    let BlockColumns { ids, values, .. } = cols;
    if cols.flows.is_empty() {
        return None;
    }
    let load_lat = f64::from(ab.uarch().config().load_latency);
    let PrecScratch {
        nodes,
        val_node,
        graph,
        last_writer,
    } = s;

    // Nodes: one per distinct value of each flow and role. Within a flow
    // and role, values are deduplicated (the lists only ever hold a
    // handful of entries, so a linear scan beats hashing).
    nodes.clear();
    val_node.clear();
    val_node.resize(ids.len(), 0);
    for (fi, f, _) in live_flows(cols) {
        for (range, produced) in [(f.consumed, false), (f.produced, true)] {
            let start = nodes.len();
            for vi in span(range) {
                let v = ids[vi];
                match nodes[start..].iter().position(|nm| nm.value == v) {
                    Some(off) => val_node[vi] = (start + off) as u32,
                    None => {
                        val_node[vi] = nodes.len() as u32;
                        nodes.push(NodeMeta {
                            flow: fi as u32,
                            value: v,
                            produced,
                        });
                    }
                }
            }
        }
    }
    graph.reset(nodes.len());

    // Intra-instruction latency edges: consumed -> produced.
    for (_, f, latency) in live_flows(cols) {
        for ci in span(f.consumed) {
            let c = ids[ci];
            let through_load = span(f.via_load).any(|vi| ids[vi] == c);
            for pi in span(f.produced) {
                let mut w = f64::from(latency);
                if through_load {
                    w += load_lat;
                }
                if f.stores_id == ids[pi] {
                    w += STORE_LATENCY;
                }
                graph.add_edge(val_node[ci] as usize, val_node[pi] as usize, w, 0);
            }
        }
    }

    // Dependence edges: last writer -> consumer, with iteration count 1
    // for loop-carried (wrapping) dependences. Seed the table with each
    // value's last writer over the whole block: a forward sweep keeps
    // overwriting, so the surviving entry is the producer a wrap-around
    // dependence resolves to.
    last_writer.clear();
    last_writer.resize(
        values.len(),
        Writer {
            flow_tag: NO_WRITER,
            pnode: 0,
        },
    );
    for (i, f, _) in live_flows(cols) {
        for pi in span(f.produced) {
            last_writer[ids[pi] as usize] = Writer {
                flow_tag: i as u32 | WRAP,
                pnode: val_node[pi],
            };
        }
    }
    let mut any_carried = false;
    for (j, f, _) in live_flows(cols) {
        for ci in span(f.consumed) {
            // The most recent writer: this iteration if already seen
            // (count 0), else the block's last writer (count 1).
            let w = last_writer[ids[ci] as usize];
            if w.flow_tag != NO_WRITER {
                let count = u32::from(w.flow_tag & WRAP != 0);
                any_carried |= count != 0;
                graph.add_edge(w.pnode as usize, val_node[ci] as usize, 0.0, count);
            }
        }
        for pi in span(f.produced) {
            last_writer[ids[pi] as usize] = Writer {
                flow_tag: j as u32,
                pnode: val_node[pi],
            };
        }
    }
    Some(any_carried)
}

fn precedence_with(
    ab: &AnnotatedBlock,
    s: &mut PrecScratch,
    want_chain: bool,
) -> PrecedenceAnalysis {
    let mut p = PrecedenceAnalysis {
        bound: 0.0,
        critical_chain: Vec::new(),
    };
    // No flows, or no loop-carried dependence: acyclic by construction,
    // no solver call needed.
    if build_graph(ab, s) != Some(true) {
        return p;
    }
    // Howard's critical-cycle choice, rotation included, is what the
    // golden reports pin; bound-only queries ignore the cycle.
    match max_cycle_ratio_howard(&s.graph) {
        Mcr::Acyclic => {}
        // Cannot occur: every cycle crosses an iteration boundary.
        Mcr::Unbounded => p.bound = f64::INFINITY,
        Mcr::Ratio { value, cycle } => {
            p.bound = value;
            if want_chain {
                p.critical_chain = typed_chain(&cycle, ab.columns().values, &s.nodes, &s.graph);
            }
        }
    }
    p
}

/// The explanation layer's name for a column value (the two enums
/// carry the same identity).
fn value_ref(v: ColValue) -> ValueRef {
    match v {
        ColValue::Reg(r) => ValueRef::Reg(r),
        ColValue::Flag(g) => ValueRef::Flag(g),
        ColValue::Mem {
            base,
            index,
            scale,
            disp,
        } => ValueRef::Mem {
            base,
            index,
            scale,
            disp,
        },
    }
}

/// Turn a critical cycle (alternating consumed/produced nodes) into typed
/// chain hops: one [`ChainStep`] per produced node, carrying the latency
/// of the intra-instruction edge leading into it and whether the
/// dependence edge leaving it wraps to the next iteration.
///
/// Edge weights are looked up in the ratio graph itself — `(from, to)`
/// uniquely identifies an edge type and weight by construction — so the
/// reported latencies are exactly the ones the MCR solver maximized:
/// `Σ latency / #loop-carried` over the chain equals the bound.
fn typed_chain(
    cycle: &[usize],
    values: &[ColValue],
    nodes: &[NodeMeta],
    graph: &RatioGraph,
) -> Vec<ChainStep> {
    let len = cycle.len();
    // Resolve every consecutive cycle pair to its graph edge in one pass
    // over the edge list (a policy cycle visits each node once, so the
    // `(from, to)` pairs are distinct).
    let wanted: FxHashMap<(usize, usize), usize> = (0..len)
        .map(|k| ((cycle[k], cycle[(k + 1) % len]), k))
        .collect();
    let mut cycle_edges: Vec<Option<&REdge>> = vec![None; len];
    for e in graph.edges() {
        if let Some(&k) = wanted.get(&(e.from, e.to)) {
            cycle_edges[k].get_or_insert(e);
        }
    }
    let edge = |k: usize| cycle_edges[k].expect("critical-cycle edge exists in the graph");
    let mut chain = Vec::new();
    for k in 0..len {
        let nm = nodes[cycle[k]];
        if !nm.produced {
            continue;
        }
        let intra = edge((k + len - 1) % len);
        let dep = edge(k);
        chain.push(ChainStep {
            inst: nm.flow,
            value: value_ref(values[nm.value as usize]),
            latency: intra.weight,
            loop_carried: dep.count > 0,
        });
    }
    chain
}

/// The `Precedence` throughput bound with its critical chain.
#[must_use]
pub fn precedence(ab: &AnnotatedBlock) -> PrecedenceAnalysis {
    PREC_SCRATCH.with(|s| precedence_with(ab, &mut s.borrow_mut(), true))
}

/// The `Precedence` throughput bound alone, skipping the critical-chain
/// extraction (which allocates the chain vector). Always equal to
/// `precedence(ab).bound`; the batch engine uses this variant.
#[must_use]
pub fn precedence_bound(ab: &AnnotatedBlock) -> f64 {
    PREC_SCRATCH.with(|s| precedence_with(ab, &mut s.borrow_mut(), false).bound)
}

/// The precedence bound as a typed [`ComponentAnalysis`], with the
/// critical dependence chain as evidence.
#[must_use]
pub fn precedence_analysis(ab: &AnnotatedBlock) -> ComponentAnalysis {
    let p = precedence(ab);
    ComponentAnalysis {
        component: Component::Precedence,
        bound: p.bound,
        evidence: Evidence::Precedence(PrecedenceEvidence {
            critical_chain: p.critical_chain,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use facile_uarch::Uarch;
    use facile_x86::reg::names::*;
    use facile_x86::reg::Width;
    use facile_x86::{Block, Cond, Mem, Mnemonic, Operand, Reg};

    fn annotate(prog: &[(Mnemonic, Vec<Operand>)], u: Uarch) -> AnnotatedBlock {
        AnnotatedBlock::new(Block::assemble(prog).unwrap(), u)
    }

    #[test]
    fn independent_instructions_have_no_bound() {
        let prog = vec![
            (Mnemonic::Mov, vec![Operand::Reg(RAX), Operand::Imm(1)]),
            (Mnemonic::Mov, vec![Operand::Reg(RCX), Operand::Imm(2)]),
        ];
        let p = precedence(&annotate(&prog, Uarch::Skl));
        assert_eq!(p.bound, 0.0);
    }

    #[test]
    fn simple_add_chain() {
        // add rax, rcx depends on itself across iterations: 1 cycle.
        let prog = vec![(Mnemonic::Add, vec![Operand::Reg(RAX), Operand::Reg(RCX)])];
        let p = precedence(&annotate(&prog, Uarch::Skl));
        assert!((p.bound - 1.0).abs() < 1e-9);
        assert!(!p.critical_chain.is_empty());
    }

    #[test]
    fn two_adds_to_same_register() {
        // Two dependent adds on rax: 2 cycles per iteration.
        let prog = vec![
            (Mnemonic::Add, vec![Operand::Reg(RAX), Operand::Reg(RCX)]),
            (Mnemonic::Add, vec![Operand::Reg(RAX), Operand::Reg(RDX)]),
        ];
        let p = precedence(&annotate(&prog, Uarch::Skl));
        assert!((p.bound - 2.0).abs() < 1e-9, "got {}", p.bound);
    }

    #[test]
    fn mulsd_latency_chain() {
        // mulsd xmm0, xmm1 carried through xmm0: 4 cycles on SKL, 5 on HSW.
        let prog = vec![(
            Mnemonic::Mulsd,
            vec![Operand::Reg(Reg::Xmm(0)), Operand::Reg(Reg::Xmm(1))],
        )];
        assert!((precedence(&annotate(&prog, Uarch::Skl)).bound - 4.0).abs() < 1e-9);
        assert!((precedence(&annotate(&prog, Uarch::Hsw)).bound - 5.0).abs() < 1e-9);
    }

    #[test]
    fn zero_idiom_breaks_chain() {
        // xor rax, rax resets the chain: add rax, rcx no longer carries.
        let prog = vec![
            (Mnemonic::Xor, vec![Operand::Reg(RAX), Operand::Reg(RAX)]),
            (Mnemonic::Add, vec![Operand::Reg(RAX), Operand::Reg(RCX)]),
        ];
        let p = precedence(&annotate(&prog, Uarch::Skl));
        // The flags written by xor and add still form 0-latency...
        // add's flag write depends on nothing; chain through rax is:
        // xor (0) -> add (1) but xor does not read rax, so no cycle with
        // latency > 0 through multiple iterations... the add->add rax
        // dependence is cut by the xor write in the next iteration.
        assert!(p.bound <= 1.0, "got {}", p.bound);
    }

    #[test]
    fn load_latency_in_pointer_chase() {
        // mov rax, [rax]: loop-carried through the load: ~5 cycles.
        let m = Mem::base(RAX, Width::W64);
        let prog = vec![(Mnemonic::Mov, vec![Operand::Reg(RAX), Operand::Mem(m)])];
        let p = precedence(&annotate(&prog, Uarch::Skl));
        assert!((p.bound - 5.0).abs() < 1e-9, "got {}", p.bound);
    }

    #[test]
    fn store_load_forwarding_cycle() {
        // add [rsi], rax : load -> add -> store to the same address, carried
        // through memory: load(5) + add(1) + store(1) = 7 cycles.
        let m = Mem::base(RSI, Width::W64);
        let prog = vec![(Mnemonic::Add, vec![Operand::Mem(m), Operand::Reg(RAX)])];
        let p = precedence(&annotate(&prog, Uarch::Skl));
        assert!((p.bound - 7.0).abs() < 1e-9, "got {}", p.bound);
    }

    #[test]
    fn different_addresses_do_not_alias() {
        // store to [rsi+8], load from [rsi]: no memory dependence.
        let prog = vec![
            (
                Mnemonic::Mov,
                vec![
                    Operand::Mem(Mem::base_disp(RSI, 8, Width::W64)),
                    Operand::Reg(RAX),
                ],
            ),
            (
                Mnemonic::Mov,
                vec![Operand::Reg(RCX), Operand::Mem(Mem::base(RSI, Width::W64))],
            ),
        ];
        let p = precedence(&annotate(&prog, Uarch::Skl));
        assert_eq!(p.bound, 0.0);
    }

    #[test]
    fn fused_tails_add_no_graph_nodes() {
        // dec+jne fuse on SKL but not on SNB. On SKL the pair's dataflow
        // is the dec's own, so the jne's flag read adds no node or edge;
        // on SNB it does.
        let dec = || (Mnemonic::Dec, vec![Operand::Reg(RDX)]);
        let jne = || (Mnemonic::Jcc(Cond::Ne), vec![Operand::Rel(-5)]);
        let size = |prog: &[(Mnemonic, Vec<Operand>)], u| {
            let mut s = PrecScratch::default();
            build_graph(&annotate(prog, u), &mut s);
            (s.graph.num_nodes(), s.graph.num_edges())
        };
        let alone = size(&[dec()], Uarch::Skl);
        assert_eq!(size(&[dec(), jne()], Uarch::Skl), alone);
        let (nodes, edges) = size(&[dec(), jne()], Uarch::Snb);
        assert!(
            nodes > alone.0 && edges > alone.1,
            "{nodes} nodes, {edges} edges"
        );
    }

    #[test]
    fn flag_carried_dependence() {
        // adc rax, rcx reads and writes CF: carried chain of latency 1;
        // and rax also carries.
        let prog = vec![(Mnemonic::Adc, vec![Operand::Reg(RAX), Operand::Reg(RCX)])];
        let p = precedence(&annotate(&prog, Uarch::Skl));
        assert!((p.bound - 1.0).abs() < 1e-9);
    }

    #[test]
    fn partial_register_merge_carries() {
        // mov al, cl merges into rax; a following read of rax depends on it.
        let prog = vec![
            (Mnemonic::Mov, vec![Operand::Reg(AL), Operand::Reg(CL)]),
            (Mnemonic::Add, vec![Operand::Reg(RCX), Operand::Reg(RAX)]),
        ];
        let p = precedence(&annotate(&prog, Uarch::Skl));
        // rcx chain: add rcx depends on itself (lat 1) -> bound >= 1.
        assert!(p.bound >= 1.0);
    }

    #[test]
    fn eliminated_move_has_zero_latency() {
        // mov rcx, rax ; add rax, rcx : the move is eliminated, so the
        // carried cycle is add's 1 cycle, not 2.
        let prog = vec![
            (Mnemonic::Mov, vec![Operand::Reg(RCX), Operand::Reg(RAX)]),
            (Mnemonic::Add, vec![Operand::Reg(RAX), Operand::Reg(RCX)]),
        ];
        let skl = precedence(&annotate(&prog, Uarch::Skl));
        assert!((skl.bound - 1.0).abs() < 1e-9, "got {}", skl.bound);
        // On Sandy Bridge the move is a real µop with latency 1: 2 cycles.
        let snb = precedence(&annotate(&prog, Uarch::Snb));
        assert!((snb.bound - 2.0).abs() < 1e-9, "got {}", snb.bound);
    }

    #[test]
    fn chain_is_reported() {
        let prog = vec![(
            Mnemonic::Mulsd,
            vec![Operand::Reg(Reg::Xmm(0)), Operand::Reg(Reg::Xmm(1))],
        )];
        let p = precedence(&annotate(&prog, Uarch::Skl));
        assert!(p
            .critical_chain
            .iter()
            .any(|l| l.value.to_string() == "ymm0"));
        // The chain's latencies over its loop-carried hops reproduce the
        // bound (the maximum cycle ratio).
        let lat: f64 = p.critical_chain.iter().map(|l| l.latency).sum();
        let carried = p.critical_chain.iter().filter(|l| l.loop_carried).count();
        assert!(carried > 0);
        assert!((lat / carried as f64 - p.bound).abs() < 1e-9);
    }
}
