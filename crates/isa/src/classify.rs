//! Classification of instructions into performance descriptors.
//!
//! This module is the synthesized stand-in for the uops.info measurement
//! database: a structural model that assigns every supported instruction its
//! µop breakdown, port bindings, latencies, and decode/rename properties on
//! each microarchitecture.

use crate::desc::{InstrDesc, Uop, UopKind, MAX_UOPS};
use facile_uarch::{PortMask, Uarch, UarchConfig, UnlaminationPolicy};
use facile_util::SmallVec;
use facile_x86::{Effects, Inst, Mem, Mnemonic, Operand};

/// Per-era latency parameters (cycles).
struct Lat {
    fp_add: u8,
    fp_mul: u8,
    fp_fma: u8,
    fp_div: u8,
    fp_div_occ: u8,
    fp_sqrt: u8,
    fp_sqrt_occ: u8,
    imul: u8,
    idiv: u8,
    idiv_occ: u8,
    cvt: u8,
    pmulld: u8,
    cmov_uops: u8,
}

fn latencies(arch: Uarch) -> Lat {
    use Uarch::*;
    let modern = matches!(arch, Skl | Clx | Icl | Tgl | Rkl);
    Lat {
        fp_add: if modern { 4 } else { 3 },
        fp_mul: if matches!(arch, Snb | Ivb | Hsw) {
            5
        } else {
            4
        },
        fp_fma: if matches!(arch, Hsw | Bdw) { 5 } else { 4 },
        fp_div: if modern { 11 } else { 14 },
        fp_div_occ: if modern { 3 } else { 7 },
        fp_sqrt: if modern { 12 } else { 16 },
        fp_sqrt_occ: if modern { 4 } else { 8 },
        imul: 3,
        idiv: if matches!(arch, Icl | Tgl | Rkl) {
            15
        } else {
            21
        },
        idiv_occ: if matches!(arch, Icl | Tgl | Rkl) {
            4
        } else {
            6
        },
        cvt: 6,
        pmulld: if modern { 10 } else { 5 },
        cmov_uops: if modern { 1 } else { 2 },
    }
}

/// The compute portion of an instruction: port-bound µops plus latency.
/// The widest compute part (memory-free `xchg`) has three µops, so the
/// buffer never spills.
struct Compute {
    uops: SmallVec<Uop, 3>,
    latency: u8,
}

impl Compute {
    fn none() -> Compute {
        Compute {
            uops: SmallVec::new(),
            latency: 0,
        }
    }

    fn one(ports: PortMask, latency: u8) -> Compute {
        Compute {
            uops: SmallVec::from_slice(&[Uop::compute(ports)]),
            latency,
        }
    }
}

/// Whether a `lea` is "complex" (slow): three components (base + index +
/// displacement) or RIP-relative addressing.
fn lea_is_complex(m: Mem) -> bool {
    let parts =
        usize::from(m.base.is_some()) + usize::from(m.index.is_some()) + usize::from(m.disp != 0);
    parts >= 3 || m.is_rip_relative()
}

#[allow(clippy::too_many_lines)]
fn compute_part(inst: &Inst, cfg: &UarchConfig) -> Compute {
    use Mnemonic::*;
    let p = &cfg.ports;
    let lat = latencies(cfg.arch);
    match inst.mnemonic {
        // Pure data movement / integer ALU, latency 1.
        Mov | Movzx | Movsx | Movsxd | Add | Adc | Sub | Sbb | And | Or | Xor | Cmp | Test
        | Inc | Dec | Neg | Not | Setcc(_) | Cdq | Cqo | Bt => {
            // mov/movzx/movsx from memory are pure loads: no compute µop.
            if matches!(inst.mnemonic, Mov | Movzx | Movsx | Movsxd)
                && inst.operands.get(1).is_some_and(|o| o.is_mem())
            {
                Compute::none()
            } else if matches!(inst.mnemonic, Mov)
                && inst.operands.first().is_some_and(|o| o.is_mem())
            {
                // mov store: no compute µop either
                Compute::none()
            } else {
                Compute::one(p.alu, 1)
            }
        }
        Xchg => Compute {
            uops: SmallVec::from_slice(&[Uop::compute(p.alu); 3]),
            latency: 1,
        },
        Lea => {
            let m = inst.mem_operand().expect("lea has a memory operand");
            if lea_is_complex(m) {
                Compute::one(p.lea_complex, 3)
            } else {
                Compute::one(p.lea_simple, 1)
            }
        }
        Shl | Shr | Sar | Rol | Ror => Compute::one(p.shift, 1),
        Shld | Shrd => Compute::one(p.slow_int, 3),
        Bsf | Bsr | Popcnt | Lzcnt | Tzcnt => Compute::one(p.slow_int, 3),
        Bswap => Compute::one(p.alu, 1),
        Imul => Compute::one(p.mul, lat.imul),
        Mul => Compute {
            uops: SmallVec::from_slice(&[Uop::compute(p.mul), Uop::compute(p.alu)]),
            latency: 4,
        },
        Div | Idiv => Compute {
            uops: SmallVec::from_slice(&[Uop::blocking(p.div, lat.idiv_occ), Uop::compute(p.alu)]),
            latency: lat.idiv,
        },
        Cmovcc(_) => Compute {
            uops: SmallVec::from_slice(&[Uop::compute(p.alu); 2][..usize::from(lat.cmov_uops)]),
            latency: lat.cmov_uops,
        },
        Push | Pop => Compute::none(), // pure store / load; RSP via stack engine
        Nop => Compute::none(),
        Jmp | Jcc(_) => Compute::one(p.branch, 1),

        // --- SSE/AVX moves ---
        Movaps | Movups | Movdqa | Movdqu | Vmovaps | Vmovups | Vmovdqa | Vmovdqu => {
            if inst.operands.iter().any(|o| o.is_mem()) {
                Compute::none() // pure vector load/store
            } else {
                Compute::one(p.vec_logic, 1) // reg-reg move µop (if not eliminated)
            }
        }
        Movss | Movsd => {
            if inst.operands.iter().any(|o| o.is_mem()) {
                Compute::none()
            } else {
                Compute::one(p.vec_shuffle, 1) // merging move
            }
        }
        Movd | Movq => Compute::one(PortMask::of(&[0]), 2), // GPR<->XMM crossing
        Movmskps | Pmovmskb => Compute::one(PortMask::of(&[0]), 2),

        // --- FP arithmetic ---
        Addps | Addpd | Addss | Addsd | Subps | Subpd | Subss | Subsd | Vaddps | Vaddpd
        | Vsubps | Vsubpd | Vaddss | Vaddsd | Minps | Maxps | Minss | Maxss | Minsd | Maxsd
        | Vminps | Vmaxps => Compute::one(p.fp_add, lat.fp_add),
        Mulps | Mulpd | Mulss | Mulsd | Vmulps | Vmulpd | Vmulss | Vmulsd => {
            Compute::one(p.fp_mul, lat.fp_mul)
        }
        Vfmadd231ps | Vfmadd231pd | Vfmadd231ss | Vfmadd231sd => Compute::one(p.fp_fma, lat.fp_fma),
        Divps | Divpd | Divss | Divsd | Vdivps | Vdivpd => Compute {
            uops: SmallVec::from_slice(&[Uop::blocking(p.fp_div, lat.fp_div_occ)]),
            latency: lat.fp_div,
        },
        Sqrtps | Sqrtpd | Sqrtss | Sqrtsd | Vsqrtps => Compute {
            uops: SmallVec::from_slice(&[Uop::blocking(p.fp_div, lat.fp_sqrt_occ)]),
            latency: lat.fp_sqrt,
        },
        Andps | Andpd | Orps | Orpd | Xorps | Xorpd | Vxorps | Vandps | Vorps => {
            Compute::one(p.vec_logic, 1)
        }
        Ucomiss | Ucomisd => Compute::one(PortMask::of(&[0]), 2),
        Cvtsi2ss | Cvtsi2sd | Cvttss2si | Cvttsd2si | Cvtps2pd | Cvtpd2ps => Compute {
            uops: SmallVec::from_slice(&[Uop::compute(p.fp_add), Uop::compute(p.vec_shuffle)]),
            latency: lat.cvt,
        },
        Shufps | Unpcklps | Unpckhps | Pshufd | Pshufb | Punpcklbw | Punpckldq | Vshufps
        | Vbroadcastss | Vinsertf128 | Vextractf128 => Compute::one(p.vec_shuffle, 1),

        // --- vector integer ---
        Paddb | Paddw | Paddd | Paddq | Psubb | Psubw | Psubd | Psubq | Pcmpeqb | Pcmpeqw
        | Pcmpeqd | Pcmpgtb | Pcmpgtw | Pcmpgtd | Vpaddd | Vpaddq | Vpsubd => {
            Compute::one(p.vec_ialu, 1)
        }
        Pand | Pandn | Por | Pxor | Vpand | Vpor | Vpxor => Compute::one(p.vec_logic, 1),
        Pmullw | Pmuludq => Compute::one(p.vec_imul, 5),
        Pmulld | Vpmulld => {
            if lat.pmulld > 5 {
                // two passes through the multiplier on SKL and later
                Compute {
                    uops: SmallVec::from_slice(&[Uop::compute(p.vec_imul); 2]),
                    latency: lat.pmulld,
                }
            } else {
                Compute::one(p.vec_imul, lat.pmulld)
            }
        }
        Psllw | Pslld | Psllq | Psrlw | Psrld | Psrlq | Psraw | Psrad => {
            Compute::one(PortMask::of(&[0]), 1)
        }
    }
}

/// How many register/flag inputs feed the compute µop (used by the
/// Haswell+ unlamination heuristic).
pub(crate) fn compute_inputs(e: &Effects) -> usize {
    let mem_regs: usize = e.mem.map_or(0, |m| m.addr_regs().count());
    let reg_inputs = e.reg_reads.len() - mem_regs.min(e.reg_reads.len());
    reg_inputs + usize::from(e.flags_read != 0)
}

/// Whether a micro-fused memory µop unlaminates at rename.
fn unlaminates(e: &Effects, mem: Mem, cfg: &UarchConfig) -> bool {
    if !mem.is_indexed() {
        return false;
    }
    match cfg.unlamination {
        UnlaminationPolicy::AllIndexed => true,
        // Haswell and later keep simple indexed loads fused; indexed
        // operations with two or more other inputs (RMW, cmp reg, …)
        // unlaminate.
        UnlaminationPolicy::IndexedRmw => e.stores || compute_inputs(e) >= 2,
    }
}

/// Compute the [`InstrDesc`] of `inst` on microarchitecture `cfg`.
///
/// This is the central entry point of the crate — the analogue of looking
/// up an instruction variant in the uops.info database.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn describe(inst: &Inst, cfg: &UarchConfig) -> InstrDesc {
    describe_with_effects(inst, &inst.effects(), cfg)
}

/// [`describe`] with the architectural effects already computed, so
/// callers that interned the effects (the two-level descriptor table
/// classifies one instruction on up to nine microarchitectures) don't
/// recompute them per microarchitecture.
#[must_use]
pub fn describe_with_effects(inst: &Inst, effects: &Effects, cfg: &UarchConfig) -> InstrDesc {
    let lat = latencies(cfg.arch);

    // NOP: decodes to one µop that is never executed.
    if inst.mnemonic == Mnemonic::Nop {
        return InstrDesc {
            fused_uops: 1,
            issue_uops: 1,
            uops: SmallVec::new(),
            complex_decoder: false,
            simple_decoders_after: 0,
            eliminated: true,
            latency: 0,
            load_latency_extra: 0,
        };
    }

    // Eliminated register-register moves.
    let gpr_move =
        inst.is_reg_reg_move() && inst.operands[0].reg().is_some_and(facile_x86::Reg::is_gpr);
    let vec_move = inst.is_reg_reg_move() && !gpr_move;
    let move_eliminated = (gpr_move && cfg.move_elim_gpr) || (vec_move && cfg.move_elim_vec);

    // Zero idioms are handled at rename: no ports, no latency.
    let zero_idiom = inst.is_zero_idiom();

    if move_eliminated || zero_idiom {
        return InstrDesc {
            fused_uops: 1,
            issue_uops: 1,
            uops: SmallVec::new(),
            complex_decoder: false,
            simple_decoders_after: 0,
            eliminated: true,
            latency: 0,
            load_latency_extra: 0,
        };
    }

    let mut compute = compute_part(inst, cfg);
    // Ones idioms break dependencies but still execute.
    if inst.is_ones_idiom() {
        compute.latency = 0;
    }

    let mut uops: SmallVec<Uop, MAX_UOPS> = SmallVec::new();
    let mut fused: u8;
    let mut issue: u8;
    let n_compute = compute.uops.len() as u8;

    if let Some(mem) = effects.mem {
        let loads = effects.loads;
        let stores = effects.stores;
        let unlam = unlaminates(effects, mem, cfg);
        if loads {
            uops.push(Uop {
                ports: cfg.ports.load,
                kind: UopKind::Load,
                occupancy: 1,
            });
        }
        uops.extend(compute.uops.iter().copied());
        if stores {
            uops.push(Uop {
                ports: cfg.ports.store_addr,
                kind: UopKind::StoreAddr,
                occupancy: 1,
            });
            uops.push(Uop {
                ports: cfg.ports.store_data,
                kind: UopKind::StoreData,
                occupancy: 1,
            });
        }
        // Fused-domain counts: a load micro-fuses with the first compute
        // µop; store-address and store-data micro-fuse with each other.
        fused = n_compute.max(u8::from(loads && n_compute == 0));
        if stores {
            fused += 1;
            if n_compute == 0 && !loads {
                // pure store: the STA+STD pair *is* the single fused µop
            }
        }
        if loads && n_compute == 0 && !stores {
            // pure load (mov/movzx reg, mem): one fused µop
            fused = 1;
        }
        issue = fused;
        if unlam {
            // each micro-fused memory pair issues as two µops
            if loads && n_compute > 0 {
                issue += 1;
            }
            if stores {
                issue += 1;
            }
        }
        // pure load+store RMW without compute cannot happen in our subset
    } else {
        uops.extend(compute.uops.iter().copied());
        fused = n_compute.max(1);
        issue = fused;
    }
    fused = fused.max(1);
    issue = issue.max(1);

    // Decode properties: more than one fused-domain µop requires the
    // complex decoder; the µops it emits consume decode-group bandwidth.
    let complex = fused > 1;
    let simple_after = if complex {
        cfg.decode_uop_width
            .saturating_sub(fused)
            .min(cfg.n_decoders - 1)
    } else {
        0
    };

    InstrDesc {
        fused_uops: fused,
        issue_uops: issue,
        uops,
        complex_decoder: complex,
        simple_decoders_after: simple_after,
        eliminated: false,
        latency: compute.latency,
        load_latency_extra: if inst.mnemonic == Mnemonic::Div || inst.mnemonic == Mnemonic::Idiv {
            lat.idiv_occ
        } else {
            0
        },
    }
}

/// Whether instruction `a` macro-fuses with a directly following
/// conditional branch `b` on the given microarchitecture.
///
/// The fusible producer set and the condition-code restrictions follow the
/// published fusion rules: `test`/`and` fuse with every condition;
/// `cmp`/`add`/`sub` with conditions that do not read only sign/parity;
/// `inc`/`dec` only with conditions that ignore the carry flag. Producers
/// with both a memory operand and an immediate, or with RIP-relative
/// addressing, never fuse.
#[must_use]
pub fn macro_fuses(a: &Inst, b: &Inst, cfg: &UarchConfig) -> bool {
    use facile_x86::Cond;
    let Mnemonic::Jcc(cond) = b.mnemonic else {
        return false;
    };
    let has_mem = a.mem_operand().is_some();
    let has_imm = a.operands.iter().any(|o| matches!(o, Operand::Imm(_)));
    if has_mem && has_imm {
        return false;
    }
    if a.mem_operand().is_some_and(Mem::is_rip_relative) {
        return false;
    }
    let test_and = matches!(a.mnemonic, Mnemonic::Test | Mnemonic::And);
    let cmp_like = matches!(a.mnemonic, Mnemonic::Cmp | Mnemonic::Add | Mnemonic::Sub);
    let inc_dec = matches!(a.mnemonic, Mnemonic::Inc | Mnemonic::Dec);
    let base_ok = match a.mnemonic {
        Mnemonic::Cmp | Mnemonic::Test => true,
        Mnemonic::And | Mnemonic::Add | Mnemonic::Sub | Mnemonic::Inc | Mnemonic::Dec => {
            cfg.extended_macro_fusion
        }
        _ => false,
    };
    if !base_ok {
        return false;
    }
    if test_and {
        return true;
    }
    if cmp_like {
        return !matches!(
            cond,
            Cond::S | Cond::Ns | Cond::P | Cond::Np | Cond::O | Cond::No
        );
    }
    if inc_dec {
        return matches!(
            cond,
            Cond::E | Cond::Ne | Cond::L | Cond::Ge | Cond::Le | Cond::G
        );
    }
    false
}

/// The descriptor of a macro-fused `cmp+jcc`-style pair: the pair executes
/// as a single branch µop (plus a load µop if the producer reads memory).
#[must_use]
pub fn describe_fused_pair(a: &Inst, _b: &Inst, cfg: &UarchConfig) -> InstrDesc {
    describe_fused_pair_loading(a.effects().loads, cfg)
}

/// [`describe_fused_pair`] given only whether the producer loads from
/// memory, the one fact about the pair that the descriptor depends on.
#[must_use]
pub fn describe_fused_pair_loading(loads: bool, cfg: &UarchConfig) -> InstrDesc {
    let mut uops: SmallVec<Uop, MAX_UOPS> = SmallVec::new();
    if loads {
        uops.push(Uop {
            ports: cfg.ports.load,
            kind: UopKind::Load,
            occupancy: 1,
        });
    }
    uops.push(Uop::compute(cfg.ports.branch));
    InstrDesc {
        fused_uops: 1,
        issue_uops: 1,
        uops,
        complex_decoder: false,
        simple_decoders_after: 0,
        eliminated: false,
        latency: 1,
        load_latency_extra: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use facile_x86::reg::names::*;
    use facile_x86::reg::Width;
    use facile_x86::{Cond, Reg};

    fn skl() -> &'static UarchConfig {
        Uarch::Skl.config()
    }

    fn inst(m: Mnemonic, ops: Vec<Operand>) -> Inst {
        Inst::synthetic(m, ops)
    }

    #[test]
    fn simple_alu_is_one_uop() {
        let d = describe(&inst(Mnemonic::Add, vec![RAX.into(), RCX.into()]), skl());
        assert_eq!(d.fused_uops, 1);
        assert_eq!(d.issue_uops, 1);
        assert_eq!(d.uops.len(), 1);
        assert!(!d.complex_decoder);
        assert_eq!(d.latency, 1);
        assert_eq!(d.uops[0].ports, PortMask::of(&[0, 1, 5, 6]));
    }

    #[test]
    fn load_op_micro_fuses() {
        let m = Mem::base(RSI, Width::W64);
        let d = describe(&inst(Mnemonic::Add, vec![RAX.into(), m.into()]), skl());
        assert_eq!(d.fused_uops, 1); // micro-fused
        assert_eq!(d.uops.len(), 2); // load + alu
        assert!(d.has_load());
        assert!(!d.complex_decoder);
    }

    #[test]
    fn rmw_memory_destination() {
        let m = Mem::base(RDI, Width::W64);
        let d = describe(&inst(Mnemonic::Add, vec![m.into(), RAX.into()]), skl());
        assert_eq!(d.fused_uops, 2); // load+op, sta+std
        assert_eq!(d.uops.len(), 4);
        assert!(d.complex_decoder);
    }

    #[test]
    fn pure_store() {
        let m = Mem::base(RDI, Width::W64);
        let d = describe(&inst(Mnemonic::Mov, vec![m.into(), RAX.into()]), skl());
        assert_eq!(d.fused_uops, 1);
        assert_eq!(d.uops.len(), 2); // sta + std
        assert!(d.has_store());
        assert!(!d.has_load());
    }

    #[test]
    fn unlamination_indexed_snb_vs_skl() {
        let m = Mem::base_index(RSI, RDI, 4, 0, Width::W64);
        let i = inst(Mnemonic::Add, vec![RAX.into(), m.into()]);
        // SNB unlaminates all indexed micro-fused µops.
        let d = describe(&i, Uarch::Snb.config());
        assert_eq!(d.fused_uops, 1);
        assert_eq!(d.issue_uops, 2);
        // SKL keeps it fused? add rax, [rsi+rdi*4] has 2 inputs (rax + flags
        // write only) -> reads rax only besides addressing: 1 input, stays fused
        let d = describe(&i, skl());
        assert_eq!(d.fused_uops, 1);
        assert_eq!(d.issue_uops, 1);
        // A pure indexed load never unlaminates on SKL.
        let ld = inst(Mnemonic::Mov, vec![RAX.into(), m.into()]);
        let d = describe(&ld, skl());
        assert_eq!(d.issue_uops, 1);
    }

    #[test]
    fn eliminated_moves() {
        let i = inst(Mnemonic::Mov, vec![RAX.into(), RCX.into()]);
        let d = describe(&i, skl());
        assert!(d.eliminated);
        assert!(d.uops.is_empty());
        // Sandy Bridge has no move elimination.
        let d = describe(&i, Uarch::Snb.config());
        assert!(!d.eliminated);
        assert_eq!(d.uops.len(), 1);
        // Ice Lake: GPR move elimination disabled, vector enabled.
        let d = describe(&i, Uarch::Icl.config());
        assert!(!d.eliminated);
        let v = inst(
            Mnemonic::Movaps,
            vec![Reg::Xmm(0).into(), Reg::Xmm(1).into()],
        );
        assert!(describe(&v, Uarch::Icl.config()).eliminated);
    }

    #[test]
    fn zero_idiom_eliminated() {
        let i = inst(Mnemonic::Xor, vec![EAX.into(), EAX.into()]);
        let d = describe(&i, skl());
        assert!(d.eliminated);
        assert_eq!(d.latency, 0);
    }

    #[test]
    fn division_blocks_the_divider() {
        let d = describe(&inst(Mnemonic::Div, vec![RCX.into()]), skl());
        assert!(d.uops.iter().any(|u| u.occupancy > 1));
        assert!(d.latency > 10);
        // Ice Lake has the faster divider.
        let d2 = describe(&inst(Mnemonic::Div, vec![RCX.into()]), Uarch::Icl.config());
        assert!(d2.latency < d.latency);
    }

    #[test]
    fn fp_latencies_by_era() {
        let addsd = inst(
            Mnemonic::Addsd,
            vec![Reg::Xmm(0).into(), Reg::Xmm(1).into()],
        );
        assert_eq!(describe(&addsd, Uarch::Hsw.config()).latency, 3);
        assert_eq!(describe(&addsd, skl()).latency, 4);
        // SKL runs FP adds on two ports, HSW on one.
        assert_eq!(
            describe(&addsd, Uarch::Hsw.config()).uops[0].ports.count(),
            1
        );
        assert_eq!(describe(&addsd, skl()).uops[0].ports.count(), 2);
    }

    #[test]
    fn macro_fusion_rules() {
        let cmp = inst(Mnemonic::Cmp, vec![RAX.into(), RCX.into()]);
        let test = inst(Mnemonic::Test, vec![RAX.into(), RAX.into()]);
        let dec = inst(Mnemonic::Dec, vec![RCX.into()]);
        let jne = inst(Mnemonic::Jcc(Cond::Ne), vec![Operand::Rel(-10)]);
        let js = inst(Mnemonic::Jcc(Cond::S), vec![Operand::Rel(-10)]);
        let skl = skl();
        assert!(macro_fuses(&cmp, &jne, skl));
        assert!(!macro_fuses(&cmp, &js, skl)); // sign-only conditions don't fuse with cmp
        assert!(macro_fuses(&test, &js, skl)); // ...but do with test
        assert!(macro_fuses(&dec, &jne, skl));
        // SNB: only cmp/test fuse
        assert!(!macro_fuses(&dec, &jne, Uarch::Snb.config()));
        assert!(macro_fuses(&cmp, &jne, Uarch::Snb.config()));
        // cmp mem, imm never fuses
        let cmp_mi = inst(
            Mnemonic::Cmp,
            vec![Mem::base(RSI, Width::W64).into(), Operand::Imm(0)],
        );
        assert!(!macro_fuses(&cmp_mi, &jne, skl));
    }

    #[test]
    fn fused_pair_descriptor() {
        let cmp = inst(Mnemonic::Cmp, vec![RAX.into(), RCX.into()]);
        let jne = inst(Mnemonic::Jcc(Cond::Ne), vec![Operand::Rel(-10)]);
        let d = describe_fused_pair(&cmp, &jne, skl());
        assert_eq!(d.fused_uops, 1);
        assert_eq!(d.uops.len(), 1);
        assert_eq!(d.uops[0].ports, skl().ports.branch);
    }

    #[test]
    fn nop_is_eliminated() {
        let d = describe(&inst(Mnemonic::Nop, vec![]), skl());
        assert!(d.eliminated);
        assert_eq!(d.fused_uops, 1);
    }

    #[test]
    fn complex_lea() {
        let simple = Mem::base_disp(RAX, 8, Width::W64);
        let complex = Mem::base_index(RAX, RCX, 4, 8, Width::W64);
        let d = describe(&inst(Mnemonic::Lea, vec![RDX.into(), simple.into()]), skl());
        assert_eq!(d.latency, 1);
        let d = describe(
            &inst(Mnemonic::Lea, vec![RDX.into(), complex.into()]),
            skl(),
        );
        assert_eq!(d.latency, 3);
        assert_eq!(d.uops[0].ports.count(), 1);
    }

    #[test]
    fn push_pop_uops() {
        let d = describe(&inst(Mnemonic::Push, vec![RAX.into()]), skl());
        assert_eq!(d.fused_uops, 1);
        assert_eq!(d.uops.len(), 2); // sta + std
        let d = describe(&inst(Mnemonic::Pop, vec![RAX.into()]), skl());
        assert_eq!(d.fused_uops, 1);
        assert_eq!(d.uops.len(), 1); // load
    }
}
