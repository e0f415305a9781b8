//! Dynamic µop expansion: turning an annotated instruction into the
//! scheduler-level µops with explicit dataflow wiring.

use facile_isa::{AnnotatedInst, InstrDesc, UopKind};
use facile_uarch::{PortMask, UarchConfig};
use facile_x86::{flags, Mem, Reg};

/// A renamed value: the unit of dependence tracking in the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Value {
    /// A full architectural register.
    Reg(Reg),
    /// One EFLAGS group.
    Flag(u8),
    /// A memory location identified by its (syntactic) address expression.
    Mem {
        /// Full base register.
        base: Option<Reg>,
        /// Full index register.
        index: Option<Reg>,
        /// Index scale.
        scale: u8,
        /// Displacement.
        disp: i32,
    },
    /// The internal result of a load µop, consumed by the same
    /// instruction's compute µop (`slot` distinguishes multiple tokens).
    Token {
        /// Index of the instruction within the block.
        inst: u16,
        /// Token slot within the instruction.
        slot: u8,
    },
}

/// Build the memory [`Value`] for an address expression.
#[must_use]
pub fn mem_value(m: Mem) -> Value {
    Value::Mem {
        base: m.base.map(Reg::full),
        index: m.index.map(Reg::full),
        scale: m.scale,
        disp: m.disp,
    }
}

/// A static µop template: one scheduler-level µop with its dataflow.
#[derive(Debug, Clone)]
pub struct UopTemplate {
    /// Ports this µop may dispatch to.
    pub ports: PortMask,
    /// Functional kind.
    pub kind: UopKind,
    /// Cycles the chosen port stays busy.
    pub occupancy: u8,
    /// Execution latency (dispatch to result).
    pub latency: u8,
    /// Values this µop waits for.
    pub sources: Vec<Value>,
    /// Values this µop produces when it completes.
    pub produces: Vec<Value>,
}

/// One fused-domain µop: what the IDQ holds and the renamer processes.
#[derive(Debug, Clone)]
pub struct FusedUopTemplate {
    /// Issue slots this fused µop consumes at rename (2 if unlaminated).
    pub issue_cost: u8,
    /// Indices into [`DynInst::uops`].
    pub members: Vec<usize>,
}

/// The full dynamic expansion of one instruction.
#[derive(Debug, Clone)]
pub struct DynInst {
    /// Index of the instruction within the block.
    pub index: u16,
    /// Scheduler-level µops.
    pub uops: Vec<UopTemplate>,
    /// Fused-domain grouping.
    pub fused: Vec<FusedUopTemplate>,
    /// Whether the renamer handles this instruction without execution
    /// (eliminated move, zero idiom, NOP).
    pub eliminated: bool,
    /// For eliminated moves: (destination values, source value to alias).
    pub move_alias: Option<(Vec<Value>, Value)>,
    /// Values produced by an eliminated instruction with no source (zero
    /// idioms, NOPs produce nothing).
    pub eliminated_produces: Vec<Value>,
    /// Whether decoding requires the complex decoder.
    pub complex_decoder: bool,
    /// Simple decoders usable after this one in the same group.
    pub simple_decoders_after: u8,
    /// Whether the decode group ends after this instruction.
    pub is_branch: bool,
    /// Whether the mnemonic is macro-fusible (last-decoder restriction).
    pub is_fusible: bool,
}

impl DynInst {
    /// Total fused-domain µops.
    #[must_use]
    pub fn fused_len(&self) -> usize {
        self.fused.len()
    }
}

/// Expand one annotated instruction (with the pair head carrying a fused
/// branch) into its dynamic form.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn expand(a: &AnnotatedInst<'_>, index: u16, cfg: &UarchConfig, fused_branch: bool) -> DynInst {
    let desc: &InstrDesc = a.desc();
    let e = a.effects();

    let reg_values =
        |regs: &[Reg]| -> Vec<Value> { regs.iter().map(|r| Value::Reg(r.full())).collect() };
    let addr_regs: Vec<Value> = e
        .mem
        .map(|m| m.addr_regs().map(|r| Value::Reg(r.full())).collect())
        .unwrap_or_default();
    let non_addr_reads: Vec<Value> = e
        .reg_reads
        .iter()
        .map(|r| Value::Reg(r.full()))
        .filter(|v| !addr_regs.contains(v))
        .chain(flags::groups(e.flags_read).map(Value::Flag))
        .collect();
    let outputs: Vec<Value> = reg_values(&e.reg_writes)
        .into_iter()
        .chain(flags::groups(e.flags_written).map(Value::Flag))
        .collect();

    if desc.eliminated {
        let move_alias = if a.inst().is_reg_reg_move() {
            let src = Value::Reg(a.inst().operands[1].reg().expect("reg-reg move").full());
            Some((outputs.clone(), src))
        } else {
            None
        };
        return DynInst {
            index,
            uops: Vec::new(),
            fused: vec![
                FusedUopTemplate {
                    issue_cost: 1,
                    members: Vec::new()
                };
                usize::from(desc.fused_uops.max(1))
            ],
            eliminated: true,
            move_alias,
            eliminated_produces: if a.inst().is_reg_reg_move() {
                Vec::new()
            } else {
                outputs
            },
            complex_decoder: desc.complex_decoder,
            simple_decoders_after: desc.simple_decoders_after,
            is_branch: a.inst().is_branch() || fused_branch,
            is_fusible: is_fusible(a, cfg),
        };
    }

    let loads = e.loads;
    let stores = e.stores;
    let mv = e.mem.map(mem_value);
    let n_compute = desc
        .uops
        .iter()
        .filter(|u| u.kind == UopKind::Compute)
        .count();

    let load_token = Value::Token {
        inst: index,
        slot: 0,
    };
    let store_token = Value::Token {
        inst: index,
        slot: 1,
    };

    let mut uops: Vec<UopTemplate> = Vec::with_capacity(desc.uops.len());
    let mut compute_seen = false;
    for u in &desc.uops {
        match u.kind {
            UopKind::Load => {
                let mut sources = addr_regs.clone();
                if let Some(v) = mv {
                    sources.push(v); // store-to-load forwarding dependence
                }
                let produces = if n_compute == 0 && !stores {
                    // pure load: directly produces the destination
                    outputs.clone()
                } else {
                    vec![load_token]
                };
                uops.push(UopTemplate {
                    ports: u.ports,
                    kind: u.kind,
                    occupancy: u.occupancy,
                    latency: cfg.load_latency,
                    sources,
                    produces,
                });
            }
            UopKind::Compute => {
                if compute_seen {
                    // Secondary compute µops model port pressure only.
                    uops.push(UopTemplate {
                        ports: u.ports,
                        kind: u.kind,
                        occupancy: u.occupancy,
                        latency: 1,
                        sources: Vec::new(),
                        produces: Vec::new(),
                    });
                    continue;
                }
                compute_seen = true;
                let mut sources = non_addr_reads.clone();
                if loads {
                    sources.push(load_token);
                } else if !loads && !addr_regs.is_empty() && stores {
                    // store-only compute does not exist in our subset
                }
                let mut produces = outputs.clone();
                if stores {
                    produces.push(store_token);
                }
                uops.push(UopTemplate {
                    ports: u.ports,
                    kind: u.kind,
                    occupancy: u.occupancy,
                    latency: desc.latency.max(1),
                    sources,
                    produces,
                });
            }
            UopKind::StoreAddr => {
                uops.push(UopTemplate {
                    ports: u.ports,
                    kind: u.kind,
                    occupancy: u.occupancy,
                    latency: 1,
                    sources: addr_regs.clone(),
                    produces: Vec::new(),
                });
            }
            UopKind::StoreData => {
                let sources = if n_compute > 0 {
                    vec![store_token]
                } else {
                    non_addr_reads.clone()
                };
                uops.push(UopTemplate {
                    ports: u.ports,
                    kind: u.kind,
                    occupancy: u.occupancy,
                    latency: 1,
                    sources,
                    produces: mv.into_iter().collect(),
                });
            }
        }
    }

    // A compute-only instruction (no memory) produces its outputs from the
    // first compute µop, handled above. If there is no load but outputs
    // exist and no compute µop produced them (e.g. pure store already
    // covered), nothing more to do.

    // Fused-domain grouping: [load + computes] form group 0 (micro-fused
    // load-op), [sta + std] form the store group. Instructions without
    // memory have one group per compute µop beyond the decode grouping —
    // we group all computes into ceil groups matching desc.fused_uops.
    let mut fused: Vec<FusedUopTemplate> = Vec::new();
    let n_fused = usize::from(desc.fused_uops.max(1));
    let extra_issue = usize::from(desc.issue_uops.saturating_sub(desc.fused_uops));
    let store_members: Vec<usize> = uops
        .iter()
        .enumerate()
        .filter(|(_, u)| matches!(u.kind, UopKind::StoreAddr | UopKind::StoreData))
        .map(|(i, _)| i)
        .collect();
    let main_members: Vec<usize> = (0..uops.len())
        .filter(|i| !store_members.contains(i))
        .collect();
    if stores && n_fused >= 2 {
        // main group(s) + store group
        let main_groups = n_fused - 1;
        distribute(&main_members, main_groups, &mut fused);
        fused.push(FusedUopTemplate {
            issue_cost: 1,
            members: store_members,
        });
    } else if stores && n_fused == 1 {
        // pure store: the sta+std pair is the single fused µop
        fused.push(FusedUopTemplate {
            issue_cost: 1,
            members: (0..uops.len()).collect(),
        });
    } else {
        distribute(&main_members, n_fused, &mut fused);
    }
    // Unlamination: spread the extra issue cost over the memory groups.
    for _ in 0..extra_issue {
        if let Some(g) = fused
            .iter_mut()
            .find(|g| g.issue_cost == 1 && !g.members.is_empty())
        {
            g.issue_cost = 2;
        }
    }

    DynInst {
        index,
        uops,
        fused,
        eliminated: false,
        move_alias: None,
        eliminated_produces: Vec::new(),
        complex_decoder: desc.complex_decoder,
        simple_decoders_after: desc.simple_decoders_after,
        is_branch: a.inst().is_branch() || fused_branch,
        is_fusible: is_fusible(a, cfg),
    }
}

/// Distribute `members` over `n` fused groups, front-loaded.
fn distribute(members: &[usize], n: usize, out: &mut Vec<FusedUopTemplate>) {
    let n = n.max(1);
    let per = members.len().div_ceil(n);
    let mut it = members.iter().copied();
    for _ in 0..n {
        let chunk: Vec<usize> = it.by_ref().take(per.max(1)).collect();
        out.push(FusedUopTemplate {
            issue_cost: 1,
            members: chunk,
        });
    }
}

fn is_fusible(a: &AnnotatedInst<'_>, cfg: &UarchConfig) -> bool {
    use facile_x86::Mnemonic;
    match a.inst().mnemonic {
        Mnemonic::Cmp | Mnemonic::Test => true,
        Mnemonic::And | Mnemonic::Add | Mnemonic::Sub | Mnemonic::Inc | Mnemonic::Dec => {
            cfg.extended_macro_fusion
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use facile_isa::AnnotatedBlock;
    use facile_uarch::Uarch;
    use facile_x86::reg::names::*;
    use facile_x86::reg::Width;
    use facile_x86::{Block, Mnemonic, Operand};

    fn first_dyn(prog: &[(Mnemonic, Vec<Operand>)], u: Uarch) -> DynInst {
        let ab = AnnotatedBlock::new(Block::assemble(prog).unwrap(), u);
        expand(&ab.insts().get(0).unwrap(), 0, u.config(), false)
    }

    #[test]
    fn alu_wiring() {
        let d = first_dyn(
            &[(Mnemonic::Add, vec![Operand::Reg(RAX), Operand::Reg(RCX)])],
            Uarch::Skl,
        );
        assert_eq!(d.uops.len(), 1);
        assert!(d.uops[0].sources.contains(&Value::Reg(RAX)));
        assert!(d.uops[0].sources.contains(&Value::Reg(RCX)));
        assert!(d.uops[0].produces.contains(&Value::Reg(RAX)));
        assert_eq!(d.fused.len(), 1);
    }

    #[test]
    fn load_op_wiring() {
        let m = facile_x86::Mem::base(RSI, Width::W64);
        let d = first_dyn(
            &[(Mnemonic::Add, vec![Operand::Reg(RAX), Operand::Mem(m)])],
            Uarch::Skl,
        );
        assert_eq!(d.uops.len(), 2);
        let load = &d.uops[0];
        let alu = &d.uops[1];
        assert!(load.sources.contains(&Value::Reg(RSI)));
        assert_eq!(load.produces, vec![Value::Token { inst: 0, slot: 0 }]);
        assert!(alu.sources.contains(&Value::Token { inst: 0, slot: 0 }));
        assert!(alu.produces.contains(&Value::Reg(RAX)));
        assert_eq!(d.fused.len(), 1); // micro-fused
        assert_eq!(d.fused[0].members.len(), 2);
    }

    #[test]
    fn rmw_store_wiring() {
        let m = facile_x86::Mem::base(RDI, Width::W64);
        let d = first_dyn(
            &[(Mnemonic::Add, vec![Operand::Mem(m), Operand::Reg(RAX)])],
            Uarch::Skl,
        );
        assert_eq!(d.uops.len(), 4);
        assert_eq!(d.fused.len(), 2);
        // The std µop consumes the compute token and produces the memory
        // value.
        let std = d
            .uops
            .iter()
            .find(|u| u.kind == UopKind::StoreData)
            .unwrap();
        assert_eq!(std.sources, vec![Value::Token { inst: 0, slot: 1 }]);
        assert!(matches!(std.produces[0], Value::Mem { .. }));
    }

    #[test]
    fn eliminated_move_alias() {
        let d = first_dyn(
            &[(Mnemonic::Mov, vec![Operand::Reg(RAX), Operand::Reg(RCX)])],
            Uarch::Skl,
        );
        assert!(d.eliminated);
        let (dsts, src) = d.move_alias.unwrap();
        assert_eq!(src, Value::Reg(RCX));
        assert_eq!(dsts, vec![Value::Reg(RAX)]);
    }

    #[test]
    fn unlamination_issue_cost() {
        let m = facile_x86::Mem::base_index(RSI, RDI, 4, 0, Width::W64);
        let d = first_dyn(
            &[(Mnemonic::Add, vec![Operand::Reg(RAX), Operand::Mem(m)])],
            Uarch::Snb,
        );
        // SNB unlaminates: the single fused group costs 2 issue slots.
        assert_eq!(d.fused.len(), 1);
        assert_eq!(d.fused[0].issue_cost, 2);
    }

    #[test]
    fn pure_load_produces_dest() {
        let m = facile_x86::Mem::base(RSI, Width::W64);
        let d = first_dyn(
            &[(Mnemonic::Mov, vec![Operand::Reg(RAX), Operand::Mem(m)])],
            Uarch::Skl,
        );
        assert_eq!(d.uops.len(), 1);
        assert!(d.uops[0].produces.contains(&Value::Reg(RAX)));
        assert_eq!(d.uops[0].latency, 5);
    }
}
