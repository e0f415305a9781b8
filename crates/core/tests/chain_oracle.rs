//! Oracle for the precedence kernel: an independent, typed dependence-
//! graph builder written only against public APIs (the annotation's
//! per-instruction effects, [`RatioGraph`], [`max_cycle_ratio_howard`]).
//!
//! The kernel builds its graph from the annotation's interned dataflow
//! columns and names chain values through the column value table. Over
//! 2,000 distinct `BlockStream` blocks × all nine microarchitectures,
//! its bound must equal the oracle's bit for bit and its critical chain
//! must equal the oracle's `ChainStep` for `ChainStep` — same cycle,
//! same rotation, same latencies. A chain taken from another solver's
//! (equally critical) cycle fails here even where the golden reports
//! happen not to notice.

use facile_core::mcr::{max_cycle_ratio_howard, Mcr, RatioGraph};
use facile_core::precedence::{self, PrecedenceAnalysis};
use facile_explain::{ChainStep, ValueRef};
use facile_isa::AnnotatedBlock;
use facile_uarch::Uarch;
use facile_x86::{flags, Mem, Reg};
use std::collections::HashSet;

const STORE_LATENCY: f64 = 1.0;

fn mem_value(m: Mem) -> ValueRef {
    ValueRef::Mem {
        base: m.base.map(Reg::full),
        index: m.index.map(Reg::full),
        scale: m.scale,
        disp: m.disp,
    }
}

/// Push `v` unless it repeats the previous entry (an instruction that
/// reads a register twice consumes it once).
fn push_dedup(list: &mut Vec<ValueRef>, v: ValueRef) {
    if list.last() != Some(&v) {
        list.push(v);
    }
}

/// One non-fused instruction's dataflow, in typed values.
struct Flow {
    index: u32,
    consumed: Vec<ValueRef>,
    via_load: Vec<ValueRef>,
    produced: Vec<ValueRef>,
    latency: f64,
    stores: Option<ValueRef>,
}

fn flows(ab: &AnnotatedBlock) -> Vec<Flow> {
    let mut out = Vec::new();
    for (index, a) in ab.insts().iter().enumerate() {
        if a.fused_with_prev {
            continue; // the pair is represented by its head
        }
        let e = a.effects();
        let mv = e.mem.map(mem_value);
        let mut consumed = Vec::new();
        for r in &e.reg_reads {
            push_dedup(&mut consumed, ValueRef::Reg(r.full()));
        }
        for g in flags::groups(e.flags_read) {
            push_dedup(&mut consumed, ValueRef::Flag(g));
        }
        let mut via_load = Vec::new();
        if let (Some(m), Some(mv), true) = (e.mem, mv, e.loads) {
            push_dedup(&mut consumed, mv);
            via_load.push(mv);
            via_load.extend(m.addr_regs().map(|r| ValueRef::Reg(r.full())));
        }
        let mut produced = Vec::new();
        for r in &e.reg_writes {
            push_dedup(&mut produced, ValueRef::Reg(r.full()));
        }
        for g in flags::groups(e.flags_written) {
            push_dedup(&mut produced, ValueRef::Flag(g));
        }
        let stores = mv.filter(|_| e.stores);
        if let Some(mv) = stores {
            push_dedup(&mut produced, mv);
        }
        out.push(Flow {
            index: index as u32,
            consumed,
            via_load,
            produced,
            latency: f64::from(a.desc().latency),
            stores,
        });
    }
    out
}

/// The graph nodes of one flow and role: the distinct values, in
/// first-occurrence order, numbered from `base`.
struct Role {
    base: usize,
    values: Vec<ValueRef>,
}

impl Role {
    fn new(base: usize, list: &[ValueRef]) -> Role {
        let mut values: Vec<ValueRef> = Vec::new();
        for &v in list {
            if !values.contains(&v) {
                values.push(v);
            }
        }
        Role { base, values }
    }

    fn node(&self, v: ValueRef) -> usize {
        self.base
            + self
                .values
                .iter()
                .position(|&x| x == v)
                .expect("node exists")
    }
}

/// A graph node: (flow, value, produced).
type Node = (usize, ValueRef, bool);

/// The dependence graph of `ab`: nodes are the distinct values each
/// flow consumes and produces, in flow order (consumed first); edges
/// are consumed -> produced latency edges per flow, then last writer ->
/// consumer dependence edges in one forward sweep (count 1 where the
/// last writer is the previous iteration's).
fn oracle_graph(ab: &AnnotatedBlock, flows: &[Flow]) -> (Vec<Node>, RatioGraph) {
    let mut nodes: Vec<Node> = Vec::new();
    let mut roles: Vec<(Role, Role)> = Vec::new();
    for (fi, f) in flows.iter().enumerate() {
        let c = Role::new(nodes.len(), &f.consumed);
        nodes.extend(c.values.iter().map(|&v| (fi, v, false)));
        let p = Role::new(nodes.len(), &f.produced);
        nodes.extend(p.values.iter().map(|&v| (fi, v, true)));
        roles.push((c, p));
    }
    let mut g = RatioGraph::new(nodes.len());
    let load_lat = f64::from(ab.uarch().config().load_latency);
    for (f, (cr, pr)) in flows.iter().zip(&roles) {
        for &c in &f.consumed {
            for &p in &f.produced {
                let mut w = f.latency;
                if f.via_load.contains(&c) {
                    w += load_lat;
                }
                if f.stores == Some(p) {
                    w += STORE_LATENCY;
                }
                g.add_edge(cr.node(c), pr.node(p), w, 0);
            }
        }
    }
    // (value, producing flow, wrapped) of each value's latest writer,
    // seeded with the block's last writer as the previous iteration's.
    let mut writer: Vec<(ValueRef, usize, bool)> = Vec::new();
    for (fi, f) in flows.iter().enumerate() {
        for &p in &f.produced {
            match writer.iter_mut().find(|w| w.0 == p) {
                Some(w) => *w = (p, fi, true),
                None => writer.push((p, fi, true)),
            }
        }
    }
    for (fi, f) in flows.iter().enumerate() {
        for &c in &f.consumed {
            if let Some(&(_, wf, wrapped)) = writer.iter().find(|w| w.0 == c) {
                g.add_edge(
                    roles[wf].1.node(c),
                    roles[fi].0.node(c),
                    0.0,
                    u32::from(wrapped),
                );
            }
        }
        for &p in &f.produced {
            let w = writer.iter_mut().find(|w| w.0 == p).expect("seeded");
            *w = (p, fi, false);
        }
    }
    (nodes, g)
}

/// The oracle's answer: Howard on the typed graph; one chain step per
/// produced node of the critical cycle.
fn oracle(ab: &AnnotatedBlock) -> PrecedenceAnalysis {
    let flows = flows(ab);
    let (nodes, g) = oracle_graph(ab, &flows);
    let (bound, cycle) = match max_cycle_ratio_howard(&g) {
        Mcr::Acyclic => (0.0, Vec::new()),
        Mcr::Unbounded => (f64::INFINITY, Vec::new()),
        Mcr::Ratio { value, cycle } => (value, cycle),
    };
    let edge = |from: usize, to: usize| {
        *g.edges()
            .iter()
            .find(|e| e.from == from && e.to == to)
            .expect("cycle edge exists")
    };
    let len = cycle.len();
    let critical_chain = (0..len)
        .filter(|&k| nodes[cycle[k]].2)
        .map(|k| {
            let (fi, value, _) = nodes[cycle[k]];
            let prev = cycle[(k + len - 1) % len];
            let next = cycle[(k + 1) % len];
            ChainStep {
                inst: flows[fi].index,
                value,
                latency: edge(prev, cycle[k]).weight,
                loop_carried: edge(cycle[k], next).count > 0,
            }
        })
        .collect();
    PrecedenceAnalysis {
        bound,
        critical_chain,
    }
}

#[test]
fn kernel_bound_and_chain_match_the_typed_oracle() {
    let mut seen = HashSet::new();
    let blocks: Vec<_> = facile_bhive::BlockStream::new(11)
        .map(|g| g.block)
        .filter(|b| !b.is_empty() && seen.insert(b.bytes().to_vec()))
        .take(2000)
        .collect();
    assert_eq!(blocks.len(), 2000);
    let (mut chains, mut compared) = (0usize, 0usize);
    for block in &blocks {
        let block = std::sync::Arc::new(block.clone());
        for u in Uarch::ALL {
            let ab = AnnotatedBlock::new_shared(std::sync::Arc::clone(&block), u);
            let got = precedence::precedence(&ab);
            let want = oracle(&ab);
            assert_eq!(
                got.bound.to_bits(),
                want.bound.to_bits(),
                "{} {u}: bound {} vs oracle {}",
                block.to_hex(),
                got.bound,
                want.bound
            );
            assert_eq!(
                got.critical_chain,
                want.critical_chain,
                "{} {u}: chain differs from the oracle's",
                block.to_hex()
            );
            chains += usize::from(!got.critical_chain.is_empty());
            compared += 1;
        }
    }
    assert_eq!(compared, 2000 * Uarch::ALL.len());
    // The corpus must exercise chains, not only acyclic blocks.
    assert!(
        chains > compared / 2,
        "only {chains} of {compared} have a chain"
    );
}
