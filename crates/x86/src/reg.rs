//! Architectural registers of the x86-64 ISA subset modeled by this crate.

use std::fmt;

/// Operand / access width in bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Width {
    /// 8-bit.
    W8,
    /// 16-bit.
    W16,
    /// 32-bit.
    W32,
    /// 64-bit.
    W64,
    /// 128-bit (XMM).
    W128,
    /// 256-bit (YMM).
    W256,
}

impl Width {
    /// Width in bits.
    #[must_use]
    pub fn bits(self) -> u32 {
        match self {
            Width::W8 => 8,
            Width::W16 => 16,
            Width::W32 => 32,
            Width::W64 => 64,
            Width::W128 => 128,
            Width::W256 => 256,
        }
    }

    /// Width in bytes.
    #[must_use]
    pub fn bytes(self) -> u32 {
        self.bits() / 8
    }

    /// Whether this is a general-purpose-register width (8..=64 bits).
    #[must_use]
    pub fn is_gpr(self) -> bool {
        matches!(self, Width::W8 | Width::W16 | Width::W32 | Width::W64)
    }
}

impl fmt::Display for Width {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.bits())
    }
}

/// An architectural register.
///
/// General-purpose registers are identified by their hardware encoding number
/// (0 = `rax` … 15 = `r15`) plus an access [`Width`]. The legacy high-byte
/// registers (`ah`, `ch`, `dh`, `bh`) get their own variant because they
/// alias bits 8..16 of GPRs 0..=3 while *encoding* as numbers 4..=7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Reg {
    /// General-purpose register `num` (0..=15) accessed at `width`.
    Gpr {
        /// Hardware register number, 0..=15.
        num: u8,
        /// Access width (8, 16, 32, or 64 bits).
        width: Width,
    },
    /// Legacy high-byte register: 0 = `ah`, 1 = `ch`, 2 = `dh`, 3 = `bh`.
    HighByte(u8),
    /// 128-bit vector register `xmm0`..=`xmm15`.
    Xmm(u8),
    /// 256-bit vector register `ymm0`..=`ymm15`.
    Ymm(u8),
    /// The instruction pointer (only valid as a memory base).
    Rip,
}

/// `rip` — a placeholder so `Reg` can pad the unused tail of inline
/// small-vector buffers; never observed through the live elements.
impl Default for Reg {
    fn default() -> Reg {
        Reg::Rip
    }
}

const GPR64: [&str; 16] = [
    "rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi", "r8", "r9", "r10", "r11", "r12", "r13",
    "r14", "r15",
];
const GPR32: [&str; 16] = [
    "eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi", "r8d", "r9d", "r10d", "r11d", "r12d",
    "r13d", "r14d", "r15d",
];
const GPR16: [&str; 16] = [
    "ax", "cx", "dx", "bx", "sp", "bp", "si", "di", "r8w", "r9w", "r10w", "r11w", "r12w", "r13w",
    "r14w", "r15w",
];
const GPR8: [&str; 16] = [
    "al", "cl", "dl", "bl", "spl", "bpl", "sil", "dil", "r8b", "r9b", "r10b", "r11b", "r12b",
    "r13b", "r14b", "r15b",
];
const HIGH8: [&str; 4] = ["ah", "ch", "dh", "bh"];
const XMM: [&str; 16] = [
    "xmm0", "xmm1", "xmm2", "xmm3", "xmm4", "xmm5", "xmm6", "xmm7", "xmm8", "xmm9", "xmm10",
    "xmm11", "xmm12", "xmm13", "xmm14", "xmm15",
];
const YMM: [&str; 16] = [
    "ymm0", "ymm1", "ymm2", "ymm3", "ymm4", "ymm5", "ymm6", "ymm7", "ymm8", "ymm9", "ymm10",
    "ymm11", "ymm12", "ymm13", "ymm14", "ymm15",
];

impl Reg {
    /// The canonical "full" register this register aliases, used for
    /// dependence tracking: every GPR view maps to its 64-bit register, and
    /// `ymmN`/`xmmN` both map to `ymmN`.
    #[must_use]
    pub fn full(self) -> Reg {
        match self {
            Reg::Gpr { num, .. } => Reg::Gpr {
                num,
                width: Width::W64,
            },
            Reg::HighByte(i) => Reg::Gpr {
                num: i,
                width: Width::W64,
            },
            Reg::Xmm(n) | Reg::Ymm(n) => Reg::Ymm(n),
            Reg::Rip => Reg::Rip,
        }
    }

    /// Hardware encoding number (0..=15).
    #[must_use]
    pub fn num(self) -> u8 {
        match self {
            Reg::Gpr { num, .. } => num,
            Reg::HighByte(i) => i + 4,
            Reg::Xmm(n) | Reg::Ymm(n) => n,
            Reg::Rip => 0,
        }
    }

    /// Access width of this register view.
    #[must_use]
    pub fn width(self) -> Width {
        match self {
            Reg::Gpr { width, .. } => width,
            Reg::HighByte(_) => Width::W8,
            Reg::Xmm(_) => Width::W128,
            Reg::Ymm(_) => Width::W256,
            Reg::Rip => Width::W64,
        }
    }

    /// Whether this is a general-purpose register (any width, incl. high-byte).
    #[must_use]
    pub fn is_gpr(self) -> bool {
        matches!(self, Reg::Gpr { .. } | Reg::HighByte(_))
    }

    /// Whether this is a vector (XMM/YMM) register.
    #[must_use]
    pub fn is_vec(self) -> bool {
        matches!(self, Reg::Xmm(_) | Reg::Ymm(_))
    }

    /// Whether writing this register view only *merges* into the full
    /// register (8/16-bit GPR writes), creating a dependence on the previous
    /// value, as opposed to replacing it (32/64-bit GPR writes zero-extend).
    ///
    /// XMM writes of legacy SSE instructions also merge into the YMM upper
    /// half, but we follow the common modeling assumption (and uops.info)
    /// that this does not create a relevant dependence in 64-bit SSE code.
    #[must_use]
    pub fn write_merges(self) -> bool {
        match self {
            Reg::Gpr { width, .. } => matches!(width, Width::W8 | Width::W16),
            Reg::HighByte(_) => true,
            _ => false,
        }
    }

    /// Requires a REX prefix to encode (r8..r15, spl/bpl/sil/dil).
    #[must_use]
    pub fn needs_rex(self) -> bool {
        match self {
            Reg::Gpr { num, width } => num >= 8 || (width == Width::W8 && (4..=7).contains(&num)),
            Reg::HighByte(_) => false,
            Reg::Xmm(n) | Reg::Ymm(n) => n >= 8,
            Reg::Rip => false,
        }
    }

    /// Cannot be encoded in the presence of a REX prefix (ah/ch/dh/bh).
    #[must_use]
    pub fn forbids_rex(self) -> bool {
        matches!(self, Reg::HighByte(_))
    }

    /// Convenience constructor for a GPR of the given number and width.
    ///
    /// # Panics
    /// Panics if `num > 15`.
    #[must_use]
    pub fn gpr(num: u8, width: Width) -> Reg {
        assert!(num <= 15, "GPR number out of range: {num}");
        Reg::Gpr { num, width }
    }

    /// The assembler name (`rax`, `r8d`, `ah`, `xmm3`, `rip`, ...).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Reg::Gpr { num, width } => {
                let table = match width {
                    Width::W8 => &GPR8,
                    Width::W16 => &GPR16,
                    Width::W32 => &GPR32,
                    _ => &GPR64,
                };
                table[num as usize]
            }
            Reg::HighByte(i) => HIGH8[i as usize],
            Reg::Xmm(n) => XMM[n as usize],
            Reg::Ymm(n) => YMM[n as usize],
            Reg::Rip => "rip",
        }
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Named constants for commonly-used registers.
pub mod names {
    use super::{Reg, Width};

    macro_rules! gpr_consts {
        ($($name:ident = ($num:expr, $w:ident);)*) => {
            $(
                #[doc = concat!("The `", stringify!($name), "` register.")]
                pub const $name: Reg = Reg::Gpr { num: $num, width: Width::$w };
            )*
        };
    }

    gpr_consts! {
        RAX = (0, W64); RCX = (1, W64); RDX = (2, W64); RBX = (3, W64);
        RSP = (4, W64); RBP = (5, W64); RSI = (6, W64); RDI = (7, W64);
        R8 = (8, W64); R9 = (9, W64); R10 = (10, W64); R11 = (11, W64);
        R12 = (12, W64); R13 = (13, W64); R14 = (14, W64); R15 = (15, W64);
        EAX = (0, W32); ECX = (1, W32); EDX = (2, W32); EBX = (3, W32);
        ESP = (4, W32); EBP = (5, W32); ESI = (6, W32); EDI = (7, W32);
        R8D = (8, W32); R9D = (9, W32); R10D = (10, W32); R11D = (11, W32);
        AX = (0, W16); CX = (1, W16); DX = (2, W16); BX = (3, W16);
        AL = (0, W8); CL = (1, W8); DL = (2, W8); BL = (3, W8);
    }

    /// The `xmm0`..`xmm15` registers.
    #[must_use]
    pub const fn xmm(n: u8) -> Reg {
        Reg::Xmm(n)
    }

    /// The `ymm0`..`ymm15` registers.
    #[must_use]
    pub const fn ymm(n: u8) -> Reg {
        Reg::Ymm(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_register_aliasing() {
        assert_eq!(names::EAX.full(), names::RAX);
        assert_eq!(names::AL.full(), names::RAX);
        assert_eq!(Reg::HighByte(0).full(), names::RAX);
        assert_eq!(Reg::Xmm(3).full(), Reg::Ymm(3));
        assert_eq!(Reg::Ymm(3).full(), Reg::Ymm(3));
    }

    #[test]
    fn high_byte_encoding_numbers() {
        assert_eq!(Reg::HighByte(0).num(), 4); // ah encodes as 4
        assert_eq!(Reg::HighByte(3).num(), 7); // bh encodes as 7
    }

    #[test]
    fn merge_semantics() {
        assert!(names::AL.write_merges());
        assert!(names::AX.write_merges());
        assert!(!names::EAX.write_merges());
        assert!(!names::RAX.write_merges());
        assert!(Reg::HighByte(1).write_merges());
        assert!(!Reg::Xmm(0).write_merges());
    }

    #[test]
    fn rex_requirements() {
        assert!(Reg::gpr(8, Width::W64).needs_rex());
        assert!(Reg::gpr(6, Width::W8).needs_rex()); // sil
        assert!(!Reg::gpr(6, Width::W16).needs_rex()); // si
        assert!(Reg::HighByte(2).forbids_rex()); // dh
    }

    #[test]
    fn display_names() {
        assert_eq!(names::RAX.to_string(), "rax");
        assert_eq!(Reg::gpr(12, Width::W32).to_string(), "r12d");
        assert_eq!(Reg::gpr(4, Width::W8).to_string(), "spl");
        assert_eq!(Reg::HighByte(0).to_string(), "ah");
        assert_eq!(Reg::Xmm(9).to_string(), "xmm9");
    }

    #[test]
    #[should_panic(expected = "GPR number out of range")]
    fn gpr_ctor_validates() {
        let _ = Reg::gpr(16, Width::W64);
    }
}
