//! Re-implementations *in spirit* of the analytical/simulation competitors
//! from Table 2. Each baseline reproduces the documented modeling gap of
//! the original tool (see DESIGN.md §2).

use crate::predictor::Predictor;
use facile_core::mcr::{max_cycle_ratio_howard, RatioGraph};
use facile_core::{dec, dsb, issue, lsd, ports, predec, Mode};
use facile_isa::AnnotatedBlock;
use facile_x86::{flags, Reg};
use std::collections::HashMap;

/// A dependence bound that ignores rename-stage tricks: no move
/// elimination, no zero idioms, no memory forwarding — the level of detail
/// typical for scheduler-model-driven tools.
pub(crate) fn naive_dependence_bound(ab: &AnnotatedBlock) -> f64 {
    #[derive(PartialEq, Eq, Hash, Clone, Copy)]
    enum V {
        R(Reg),
        F(u8),
    }
    let insts: Vec<_> = ab.insts().iter().filter(|a| !a.fused_with_prev).collect();
    if insts.is_empty() {
        return 0.0;
    }
    let load_lat = f64::from(ab.uarch().config().load_latency);
    let mut ids: HashMap<(usize, V, bool), usize> = HashMap::new();
    let mut next = 0usize;
    let mut edges: Vec<(usize, usize, f64, u32)> = Vec::new();
    let mut node = |ids: &mut HashMap<(usize, V, bool), usize>, k: (usize, V, bool)| {
        *ids.entry(k).or_insert_with(|| {
            next += 1;
            next - 1
        })
    };
    struct Fl {
        consumed: Vec<V>,
        produced: Vec<V>,
        /// Inputs that feed address generation of a load (extra latency).
        via_load: Vec<V>,
        lat: f64,
    }
    let fl: Vec<Fl> = insts
        .iter()
        .map(|a| {
            let e = a.effects();
            let mut consumed: Vec<V> = e.reg_reads.iter().map(|r| V::R(r.full())).collect();
            // No dependency-breaking idioms: `xor r, r` still reads `r`.
            if a.inst().is_zero_idiom() || a.inst().is_ones_idiom() {
                consumed.extend(
                    a.inst()
                        .operands
                        .iter()
                        .filter_map(|o| o.reg())
                        .map(|r| V::R(r.full())),
                );
            }
            consumed.extend(flags::groups(e.flags_read).map(V::F));
            let mut via_load = Vec::new();
            if let Some(m) = e.mem {
                for r in m.addr_regs() {
                    consumed.push(V::R(r.full()));
                    if e.loads {
                        via_load.push(V::R(r.full()));
                    }
                }
            }
            let mut produced: Vec<V> = e.reg_writes.iter().map(|r| V::R(r.full())).collect();
            produced.extend(flags::groups(e.flags_written).map(V::F));
            let lat = f64::from(a.desc().latency.max(1));
            Fl {
                consumed,
                produced,
                via_load,
                lat,
            }
        })
        .collect();
    for (i, f) in fl.iter().enumerate() {
        for &c in &f.consumed {
            let from = node(&mut ids, (i, c, false));
            let w = if f.via_load.contains(&c) {
                f.lat + load_lat
            } else {
                f.lat
            };
            for &p in &f.produced {
                let to = node(&mut ids, (i, p, true));
                edges.push((from, to, w, 0));
            }
        }
    }
    let n = fl.len();
    for (j, f) in fl.iter().enumerate() {
        for &c in &f.consumed {
            let mut producer = None;
            for i in (0..j).rev() {
                if fl[i].produced.contains(&c) {
                    producer = Some((i, 0));
                    break;
                }
            }
            if producer.is_none() {
                for i in (j..n).rev() {
                    if fl[i].produced.contains(&c) {
                        producer = Some((i, 1));
                        break;
                    }
                }
            }
            if let Some((i, cnt)) = producer {
                let from = node(&mut ids, (i, c, true));
                let to = node(&mut ids, (j, c, false));
                edges.push((from, to, 0.0, cnt));
            }
        }
    }
    let mut g = RatioGraph::new(next);
    for (a, b, w, c) in edges {
        g.add_edge(a, b, w, c);
    }
    max_cycle_ratio_howard(&g).value()
}

/// llvm-mca-like: models the back end from the scheduling database but
/// "does not model the front end of a processor pipeline or techniques
/// like macro or micro fusion" (§2). Port pressure uses naive uniform
/// distribution, dependencies ignore rename tricks, and every instruction
/// costs at least one issue slot per µop (no fusion, no elimination). The
/// *absence* of fusion modeling is represented by the µop count
/// correction below (fused branches and eliminated moves are charged as
/// separate µops).
#[derive(Debug, Clone, Copy, Default)]
pub struct LlvmMcaLike;

impl Predictor for LlvmMcaLike {
    fn name(&self) -> &'static str {
        "llvm-mca-like"
    }

    fn predict(&self, ab: &AnnotatedBlock, mode: Mode) -> f64 {
        let _ = mode; // one notion: no front end, so TPU == TPL
        let cfg = ab.uarch().config();
        // Uniform fractional port pressure (no optimal balancing, no
        // elimination: every µop executes; eliminated moves get an ALU µop).
        let mut pressure = [0.0f64; 16];
        let mut total_uops = 0.0;
        for a in ab.insts() {
            if a.fused_with_prev {
                // unfused tools see the branch separately
                let ports = cfg.ports.branch;
                for p in ports.iter() {
                    pressure[usize::from(p)] += 1.0 / f64::from(ports.count());
                }
                total_uops += 1.0;
                continue;
            }
            if a.desc().eliminated {
                let ports = cfg.ports.alu;
                for p in ports.iter() {
                    pressure[usize::from(p)] += 1.0 / f64::from(ports.count());
                }
                total_uops += 1.0;
                continue;
            }
            for u in &a.desc().uops {
                for p in u.ports.iter() {
                    pressure[usize::from(p)] += f64::from(u.occupancy) / f64::from(u.ports.count());
                }
                total_uops += 1.0;
            }
        }
        let port_bound = pressure.iter().copied().fold(0.0, f64::max);
        let issue_bound = total_uops / f64::from(cfg.issue_width);
        let dep_bound = naive_dependence_bound(ab);
        port_bound.max(issue_bound).max(dep_bound)
    }

    fn native_notion(&self) -> Option<Mode> {
        Some(Mode::Loop)
    }
}

/// CQA-like: a detailed front-end model but no back-end model "because of
/// its complexity and lack of documentation" (§2): no port contention, no
/// dependence chains.
#[derive(Debug, Clone, Copy, Default)]
pub struct CqaLike;

impl Predictor for CqaLike {
    fn name(&self) -> &'static str {
        "CQA-like"
    }

    fn predict(&self, ab: &AnnotatedBlock, mode: Mode) -> f64 {
        let fe = match mode {
            Mode::Unrolled => predec::predec(ab, mode).max(dec::dec(ab)),
            Mode::Loop => {
                if lsd::lsd_applicable(ab) {
                    lsd::lsd(ab)
                } else {
                    dsb::dsb(ab)
                }
            }
        };
        fe.max(issue::issue(ab))
    }

    fn native_notion(&self) -> Option<Mode> {
        Some(Mode::Loop)
    }
}

/// OSACA-like: coarse analytical model — uniform port pressure plus a
/// critical-path estimate, no front end, no fusion/elimination detail.
#[derive(Debug, Clone, Copy, Default)]
pub struct OsacaLike;

impl Predictor for OsacaLike {
    fn name(&self) -> &'static str {
        "OSACA-like"
    }

    fn predict(&self, ab: &AnnotatedBlock, mode: Mode) -> f64 {
        let _ = mode;
        let cfg = ab.uarch().config();
        let mut pressure = [0.0f64; 16];
        for a in ab.insts() {
            if a.desc().eliminated && !a.fused_with_prev {
                // OSACA does not model move elimination: charge an ALU µop.
                for p in cfg.ports.alu.iter() {
                    pressure[usize::from(p)] += 1.0 / f64::from(cfg.ports.alu.count());
                }
                continue;
            }
            for u in &a.desc().uops {
                for p in u.ports.iter() {
                    pressure[usize::from(p)] += f64::from(u.occupancy) / f64::from(u.ports.count());
                }
            }
        }
        let port_bound = pressure.iter().copied().fold(0.0, f64::max);
        // OSACA's "critical path": the sum of latencies of the longest
        // intra-iteration chain, divided by an assumed overlap factor —
        // modeled here as the naive loop-carried bound without memory.
        let dep = naive_dependence_bound(ab);
        let throughput_bound = f64::from(ab.total_unfused_uops()) / f64::from(cfg.issue_width);
        port_bound.max(dep).max(throughput_bound)
    }

    fn native_notion(&self) -> Option<Mode> {
        Some(Mode::Loop)
    }
}

/// IACA-like: models issue width, macro fusion, optimal port binding, and
/// a register-level dependence analysis, but no predecode/LCP effects, no
/// rename-stage elimination, and no memory forwarding.
#[derive(Debug, Clone, Copy, Default)]
pub struct IacaLike;

impl Predictor for IacaLike {
    fn name(&self) -> &'static str {
        "IACA-like"
    }

    fn predict(&self, ab: &AnnotatedBlock, mode: Mode) -> f64 {
        let _ = mode;
        ports::ports(ab)
            .bound
            .max(issue::issue(ab))
            .max(naive_dependence_bound(ab))
    }

    fn native_notion(&self) -> Option<Mode> {
        Some(Mode::Loop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use facile_uarch::Uarch;
    use facile_x86::reg::names::*;
    use facile_x86::{Block, Mnemonic, Operand};

    fn annotated(prog: &[(Mnemonic, Vec<Operand>)], uarch: Uarch) -> AnnotatedBlock {
        AnnotatedBlock::new(Block::assemble(prog).unwrap(), uarch)
    }

    #[test]
    fn cqa_ignores_dependencies() {
        // A mulsd latency chain: CQA-like misses it entirely.
        let ab = annotated(
            &[(
                Mnemonic::Mulsd,
                vec![
                    Operand::Reg(facile_x86::Reg::Xmm(0)),
                    Operand::Reg(facile_x86::Reg::Xmm(1)),
                ],
            )],
            Uarch::Skl,
        );
        let cqa = CqaLike.predict(&ab, Mode::Loop);
        let fac = crate::predictor::FacilePredictor.predict(&ab, Mode::Loop);
        assert!(cqa < fac, "CQA-like should underpredict latency chains");
    }

    #[test]
    fn llvm_mca_misses_move_elimination() {
        // A block of eliminable moves: llvm-mca-like charges ALU ports.
        let prog: Vec<_> = (0..4)
            .map(|_| (Mnemonic::Mov, vec![Operand::Reg(RAX), Operand::Reg(RCX)]))
            .collect();
        let ab = annotated(&prog, Uarch::Skl);
        let mca = LlvmMcaLike.predict(&ab, Mode::Loop);
        assert!(mca >= 1.0, "no move elimination modeled: {mca}");
    }

    #[test]
    fn llvm_mca_catches_simple_dependence() {
        let ab = annotated(
            &[(Mnemonic::Imul, vec![Operand::Reg(RAX), Operand::Reg(RCX)])],
            Uarch::Skl,
        );
        let mca = LlvmMcaLike.predict(&ab, Mode::Loop);
        assert!((mca - 3.0).abs() < 1e-6, "imul chain: {mca}");
    }

    #[test]
    fn iaca_models_ports() {
        let ab = annotated(
            &[
                (
                    Mnemonic::Imul,
                    vec![Operand::Reg(RAX), Operand::Reg(RSI), Operand::Imm(3)],
                ),
                (
                    Mnemonic::Imul,
                    vec![Operand::Reg(RCX), Operand::Reg(RSI), Operand::Imm(5)],
                ),
            ],
            Uarch::Skl,
        );
        let iaca = IacaLike.predict(&ab, Mode::Loop);
        assert!((iaca - 2.0).abs() < 1e-9);
    }

    #[test]
    fn all_baselines_return_positive_for_nonempty() {
        let ab = annotated(
            &[(Mnemonic::Add, vec![Operand::Reg(RAX), Operand::Reg(RCX)])],
            Uarch::Hsw,
        );
        for p in [
            &LlvmMcaLike as &dyn Predictor,
            &CqaLike,
            &OsacaLike,
            &IacaLike,
        ] {
            for mode in [Mode::Unrolled, Mode::Loop] {
                let v = p.predict(&ab, mode);
                assert!(v > 0.0, "{} returned {v}", p.name());
            }
        }
    }
}
