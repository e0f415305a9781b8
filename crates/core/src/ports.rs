//! The execution-port contention predictor (§4.8).
//!
//! Under the idealizing assumption that the renamer distributes µops
//! optimally across ports, the throughput bound due to port contention is
//! `max over port sets S of load(S) / |S|`, where `load(S)` counts the
//! (occupancy-weighted) µops that can only execute on ports in `S`.
//!
//! The paper's heuristic considers only port sets that are unions of the
//! port combinations of *pairs* of µops; this module implements both that
//! heuristic and the exact enumeration over all port subsets, which is
//! feasible because the machines have at most 10 ports. The paper reports
//! that the heuristic matches the exact (LP-derived) bound on all BHive
//! benchmarks; the property tests replicate that comparison.

use facile_explain::{Component, ComponentAnalysis, Evidence, PortLoad, PortsEvidence};
use facile_isa::AnnotatedBlock;
use facile_uarch::PortMask;
use facile_util::SmallVec;

/// Inline capacity for per-prediction port-load and candidate lists: real
/// machines have at most ten ports, so distinct port combinations per
/// block are few and these buffers essentially never spill.
const INLINE_MASKS: usize = 24;

/// Result of the port-contention analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct PortsAnalysis {
    /// The throughput bound in cycles per iteration.
    pub bound: f64,
    /// The port set achieving the bound.
    pub critical_ports: PortMask,
    /// Occupancy-weighted µop count bound to the critical port set.
    pub load_on_critical: f64,
}

/// Occupancy-weighted µops of the block, grouped by port mask.
///
/// Aggregates the annotation's precomputed µop column: µops of
/// eliminated instructions and macro-fused branches never reach the
/// ports and are already filtered out of it (the fused pair's µops are
/// attributed to the pair's head instruction), so this is one linear
/// pass over a flat `(mask, occupancy)` array instead of a walk over
/// per-instruction descriptor lists.
fn port_loads(ab: &AnnotatedBlock, loads: &mut SmallVec<(PortMask, f64), INLINE_MASKS>) {
    loads.clear();
    for &(ports, occupancy) in ab.columns().port_uops {
        match loads.as_mut_slice().iter_mut().find(|(m, _)| *m == ports) {
            Some((_, w)) => *w += f64::from(occupancy),
            None => loads.push((ports, f64::from(occupancy))),
        }
    }
}

fn best_bound(loads: &[(PortMask, f64)], candidates: &[PortMask]) -> PortsAnalysis {
    let mut best = PortsAnalysis {
        bound: 0.0,
        critical_ports: PortMask::EMPTY,
        load_on_critical: 0.0,
    };
    for &pc in candidates {
        if pc.is_empty() {
            continue;
        }
        let load: f64 = loads
            .iter()
            .filter(|(m, _)| m.is_subset_of(pc))
            .map(|(_, w)| *w)
            .sum();
        let bound = load / f64::from(pc.count());
        if bound > best.bound + 1e-12 {
            best = PortsAnalysis {
                bound,
                critical_ports: pc,
                load_on_critical: load,
            };
        }
    }
    best
}

/// The shared pairwise-heuristic implementation: fill `loads` with the
/// per-combination load map and return the best bound over unions of
/// µop-pair port combinations. Both [`ports`] and [`ports_analysis`] are
/// thin wrappers, so the brief bound and the Full-detail evidence can
/// never diverge. (`loads` is an out-param rather than a return value:
/// the inline SmallVec is large, and this runs on the warm batch path.)
fn pairwise_best(
    ab: &AnnotatedBlock,
    loads: &mut SmallVec<(PortMask, f64), INLINE_MASKS>,
) -> PortsAnalysis {
    port_loads(ab, loads);
    let mut candidates: SmallVec<PortMask, INLINE_MASKS> = SmallVec::new();
    for (i, &(a, _)) in loads.iter().enumerate() {
        for &(b, _) in &loads[i..] {
            let u = a.union(b);
            if !candidates.contains(&u) {
                candidates.push(u);
            }
        }
    }
    best_bound(loads, &candidates)
}

/// The paper's pairwise heuristic: consider only unions of the port
/// combinations of pairs of µops (including each combination by itself).
#[must_use]
pub fn ports(ab: &AnnotatedBlock) -> PortsAnalysis {
    let mut loads: SmallVec<(PortMask, f64), INLINE_MASKS> = SmallVec::new();
    pairwise_best(ab, &mut loads)
}

/// The port-contention bound as a typed [`ComponentAnalysis`]: the
/// pairwise-heuristic bound plus the full contended-port load map as
/// evidence.
#[must_use]
pub fn ports_analysis(ab: &AnnotatedBlock) -> ComponentAnalysis {
    let mut loads: SmallVec<(PortMask, f64), INLINE_MASKS> = SmallVec::new();
    let best = pairwise_best(ab, &mut loads);
    ComponentAnalysis {
        component: Component::Ports,
        bound: best.bound,
        evidence: Evidence::Ports(PortsEvidence {
            critical_ports: best.critical_ports,
            load_on_critical: best.load_on_critical,
            port_loads: loads
                .iter()
                .map(|&(ports, uops)| PortLoad { ports, uops })
                .collect(),
        }),
    }
}

/// The exact bound: enumerate *all* subsets of the ports that appear in the
/// block (equivalent to the uops.info linear program under the optimal-
/// distribution assumption).
#[must_use]
pub fn ports_exact(ab: &AnnotatedBlock) -> PortsAnalysis {
    let mut loads: SmallVec<(PortMask, f64), INLINE_MASKS> = SmallVec::new();
    port_loads(ab, &mut loads);
    let all: PortMask = loads
        .iter()
        .map(|(m, _)| *m)
        .fold(PortMask::EMPTY, PortMask::union);
    // Enumerate subsets of `all` via the standard submask iteration.
    let full = all.0;
    let mut candidates = Vec::with_capacity(1 << full.count_ones());
    let mut s = full;
    loop {
        candidates.push(PortMask(s));
        if s == 0 {
            break;
        }
        s = (s - 1) & full;
    }
    best_bound(&loads, &candidates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use facile_uarch::Uarch;
    use facile_x86::reg::names::*;
    use facile_x86::{Block, Mnemonic, Operand, Reg};

    fn annotate(prog: &[(Mnemonic, Vec<Operand>)], u: Uarch) -> AnnotatedBlock {
        AnnotatedBlock::new(Block::assemble(prog).unwrap(), u)
    }

    #[test]
    fn single_port_contention() {
        // Two imuls: both bound to p1 -> 2 cycles/iter.
        let prog = vec![
            (Mnemonic::Imul, vec![Operand::Reg(RAX), Operand::Reg(RCX)]),
            (Mnemonic::Imul, vec![Operand::Reg(RDX), Operand::Reg(RCX)]),
        ];
        let ab = annotate(&prog, Uarch::Skl);
        let p = ports(&ab);
        assert!((p.bound - 2.0).abs() < 1e-9);
        assert_eq!(p.critical_ports, PortMask::of(&[1]));
    }

    #[test]
    fn spread_across_alu_ports() {
        // Four adds on SKL (p0156): 4 µops over 4 ports -> 1.0.
        let prog: Vec<_> = (0..4)
            .map(|_| (Mnemonic::Add, vec![Operand::Reg(RAX), Operand::Reg(RCX)]))
            .collect();
        let ab = annotate(&prog, Uarch::Skl);
        assert!((ports(&ab).bound - 1.0).abs() < 1e-9);
    }

    #[test]
    fn union_of_pairs_needed() {
        // Mix shifts (p06) and adds (p0156): the shift pair alone gives
        // 2/2 = 1; adding the adds over the union p0156 gives 6/4 = 1.5.
        let mut prog = vec![
            (Mnemonic::Shl, vec![Operand::Reg(RAX), Operand::Imm(3)]),
            (Mnemonic::Shl, vec![Operand::Reg(RCX), Operand::Imm(3)]),
        ];
        for _ in 0..4 {
            prog.push((Mnemonic::Add, vec![Operand::Reg(RDX), Operand::Reg(RBX)]));
        }
        let ab = annotate(&prog, Uarch::Skl);
        let p = ports(&ab);
        assert!((p.bound - 1.5).abs() < 1e-9, "got {}", p.bound);
        assert_eq!(p.critical_ports, PortMask::of(&[0, 1, 5, 6]));
    }

    #[test]
    fn heuristic_matches_exact_on_examples() {
        let progs: Vec<Vec<(Mnemonic, Vec<Operand>)>> = vec![
            vec![
                (Mnemonic::Imul, vec![Operand::Reg(RAX), Operand::Reg(RCX)]),
                (Mnemonic::Shl, vec![Operand::Reg(RDX), Operand::Imm(1)]),
                (Mnemonic::Add, vec![Operand::Reg(RBX), Operand::Reg(RCX)]),
            ],
            vec![
                (
                    Mnemonic::Mulsd,
                    vec![Operand::Reg(Reg::Xmm(0)), Operand::Reg(Reg::Xmm(1))],
                ),
                (
                    Mnemonic::Addsd,
                    vec![Operand::Reg(Reg::Xmm(2)), Operand::Reg(Reg::Xmm(3))],
                ),
                (
                    Mnemonic::Pshufd,
                    vec![
                        Operand::Reg(Reg::Xmm(4)),
                        Operand::Reg(Reg::Xmm(5)),
                        Operand::Imm(0),
                    ],
                ),
            ],
        ];
        for prog in progs {
            for u in Uarch::ALL {
                let ab = annotate(&prog, u);
                let h = ports(&ab).bound;
                let e = ports_exact(&ab).bound;
                assert!((h - e).abs() < 1e-9, "{u}: heuristic {h} != exact {e}");
            }
        }
    }

    #[test]
    fn heuristic_never_exceeds_exact() {
        // The heuristic considers a subset of candidates, so it can only be
        // lower or equal.
        let prog = vec![
            (
                Mnemonic::Divss,
                vec![Operand::Reg(Reg::Xmm(0)), Operand::Reg(Reg::Xmm(1))],
            ),
            (Mnemonic::Imul, vec![Operand::Reg(RAX), Operand::Reg(RCX)]),
        ];
        let ab = annotate(&prog, Uarch::Hsw);
        assert!(ports(&ab).bound <= ports_exact(&ab).bound + 1e-12);
    }

    #[test]
    fn divider_occupancy_counts() {
        // divss occupies the divide unit for several cycles.
        let prog = vec![(
            Mnemonic::Divss,
            vec![Operand::Reg(Reg::Xmm(0)), Operand::Reg(Reg::Xmm(1))],
        )];
        let ab = annotate(&prog, Uarch::Skl);
        let p = ports(&ab);
        assert!(
            p.bound >= 3.0,
            "divider occupancy should bound: {}",
            p.bound
        );
    }

    #[test]
    fn eliminated_uops_excluded() {
        let prog = vec![
            (Mnemonic::Mov, vec![Operand::Reg(RAX), Operand::Reg(RCX)]),
            (Mnemonic::Nop, vec![]),
        ];
        let ab = annotate(&prog, Uarch::Skl);
        assert_eq!(ports(&ab).bound, 0.0);
    }
}
