//! Structural form keys: the shape of an instruction, packed into a
//! `u32`, such that the [`crate::desc::InstrDesc`] produced by the
//! classifier is a pure function of `(mnemonic, shape key)`.
//!
//! This is the contract behind the build-time descriptor tables: the
//! build script enumerates decoder-reachable forms, computes their keys
//! with this exact code (it is `include!`d into `build.rs`), classifies
//! a representative of each key on every microarchitecture, and emits
//! static tables. At runtime the annotator recomputes the key from the
//! decoded instruction and its effects and indexes the table directly,
//! skipping the classifier and the descriptor's allocation.
//!
//! Everything the classifier inspects is folded into the key:
//!
//! - bits 0..16 — four 4-bit operand tags (register class+width,
//!   immediate, branch target, memory), in operand order;
//! - bits 16..20 — the memory shape ([`Effects::mem`], which includes
//!   the synthetic `rsp` operand of push/pop and the address of `lea`):
//!   non-RIP base, index, non-zero displacement, RIP-relative;
//! - bit 20 — the instruction is exactly two *equal* register operands
//!   (zero/ones idioms);
//! - bit 21 — the compute µop has two or more register/flag inputs
//!   (the Haswell+ unlamination heuristic).
//!
//! Register *identity* beyond those two predicates, immediate values,
//! displacement values, scale factors, and memory widths provably do
//! not affect the descriptor, so they stay out of the key. A key the
//! tables don't cover falls back to the runtime classifier — missing
//! coverage costs speed, never correctness.

use facile_x86::{Effects, Inst, Operand, Reg, Width};

/// Maximum number of operands a keyed form may have.
pub const MAX_KEY_OPERANDS: usize = 4;

/// A shape key that no generated table contains (forces fallback).
pub const UNKEYED: u32 = u32::MAX;

/// 4-bit tag of one operand. High-byte registers fold into the 8-bit
/// GPR tag: the classifier never distinguishes them.
fn operand_tag(op: &Operand) -> u32 {
    match op {
        Operand::Reg(r) => match r {
            Reg::Gpr {
                width: Width::W8, ..
            }
            | Reg::HighByte(_) => 1,
            Reg::Gpr {
                width: Width::W16, ..
            } => 2,
            Reg::Gpr {
                width: Width::W32, ..
            } => 3,
            Reg::Gpr {
                width: Width::W64, ..
            } => 4,
            Reg::Xmm(_) => 5,
            Reg::Ymm(_) => 6,
            // Not decoder-reachable as an operand register; keep such
            // forms on the fallback path.
            _ => 0xF,
        },
        Operand::Imm(_) => 7,
        Operand::Rel(_) => 8,
        Operand::Mem(_) => 9,
    }
}

/// The packed shape key of `inst`, given its precomputed `effects`.
///
/// Returns [`UNKEYED`] for forms outside the keyable space (more than
/// [`MAX_KEY_OPERANDS`] operands), which no table contains.
#[must_use]
pub fn shape_key(inst: &Inst, effects: &Effects) -> u32 {
    let ops = inst.operands.as_slice();
    if ops.len() > MAX_KEY_OPERANDS {
        return UNKEYED;
    }
    let mut key = 0u32;
    for (i, op) in ops.iter().enumerate() {
        key |= operand_tag(op) << (4 * i);
    }
    if let Some(m) = effects.mem {
        let rip = m.is_rip_relative();
        key |= u32::from(m.base.is_some() && !rip) << 16;
        key |= u32::from(m.index.is_some()) << 17;
        key |= u32::from(m.disp != 0) << 18;
        key |= u32::from(rip) << 19;
    }
    let same_regs = matches!(ops, [Operand::Reg(a), Operand::Reg(b)] if a == b);
    key |= u32::from(same_regs) << 20;
    key |= u32::from(crate::classify::compute_inputs(effects) >= 2) << 21;
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use facile_x86::reg::names::*;
    use facile_x86::{Mem, Mnemonic};

    fn key(mnem: Mnemonic, ops: Vec<Operand>) -> u32 {
        let inst = Inst {
            mnemonic: mnem,
            operands: ops,
            len: 3,
            opcode_offset: 0,
            has_lcp: false,
        };
        shape_key(&inst, &inst.effects())
    }

    #[test]
    fn operand_tags_pack_in_order() {
        let k = key(Mnemonic::Add, vec![RAX.into(), RCX.into()]);
        assert_eq!(k & 0xFFFF, 0x0044, "two 64-bit GPR tags");
        let k = key(Mnemonic::Add, vec![EAX.into(), Operand::Imm(7)]);
        assert_eq!(k & 0xFFFF, 0x0073, "gpr32 then imm");
    }

    #[test]
    fn mem_shape_bits_from_effects() {
        let m = Mem::base_index(RSI, RDI, 4, 0, Width::W64);
        let k = key(Mnemonic::Add, vec![RAX.into(), m.into()]);
        assert_eq!((k >> 16) & 0xF, 0b0011, "base+index, no disp");
        let m = Mem::rip_rel(64, Width::W64);
        let k = key(Mnemonic::Add, vec![RAX.into(), m.into()]);
        assert_eq!((k >> 16) & 0xF, 0b1100, "rip bit plus disp, no base bit");
    }

    #[test]
    fn push_sees_synthetic_stack_mem() {
        // push r64 has no explicit memory operand, but its effects carry
        // the synthetic [rsp] store that drives the classifier.
        let k = key(Mnemonic::Push, vec![RAX.into()]);
        assert_eq!((k >> 16) & 0xF, 0b0001, "base-only stack access");
    }

    #[test]
    fn same_regs_and_identity() {
        let a = key(Mnemonic::Xor, vec![RAX.into(), RAX.into()]);
        let b = key(Mnemonic::Xor, vec![RAX.into(), RCX.into()]);
        assert_eq!(a & (1 << 20), 1 << 20);
        assert_eq!(b & (1 << 20), 0);
        assert_ne!(a, b);
        // Different register numbers, same shape → same key.
        let c = key(Mnemonic::Xor, vec![RDX.into(), RCX.into()]);
        assert_eq!(b, c);
    }

    #[test]
    fn too_many_operands_unkeyed() {
        let ops = vec![
            Operand::Imm(1),
            Operand::Imm(2),
            Operand::Imm(3),
            Operand::Imm(4),
            Operand::Imm(5),
        ];
        let inst = Inst {
            mnemonic: Mnemonic::Nop,
            operands: ops,
            len: 5,
            opcode_offset: 0,
            has_lcp: false,
        };
        assert_eq!(shape_key(&inst, &inst.effects()), UNKEYED);
    }
}
