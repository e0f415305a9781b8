//! The disassembler: turns machine code back into [`Inst`] values.
//!
//! The decoder is strict: byte sequences outside the supported subset
//! produce a [`DecodeError`] (never a panic), which the property tests
//! exercise with arbitrary byte streams.

use crate::error::DecodeError;
use crate::inst::Inst;
use crate::operand::{Mem, Operand};
use crate::reg::{Reg, Width};
use crate::table::{tables, Entry, ImmK, Map, Osz, Pat, Pfx, NO_EXT};

/// A byte cursor with bounds-checked reads.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    start: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8], start: usize) -> Cursor<'a> {
        Cursor {
            bytes,
            pos: start,
            start,
        }
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        let b = self
            .bytes
            .get(self.pos)
            .copied()
            .ok_or(DecodeError::Truncated { offset: self.start })?;
        self.pos += 1;
        Ok(b)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn i8(&mut self) -> Result<i32, DecodeError> {
        Ok(i32::from(self.u8()? as i8))
    }

    fn i16(&mut self) -> Result<i64, DecodeError> {
        let lo = self.u8()?;
        let hi = self.u8()?;
        Ok(i64::from(i16::from_le_bytes([lo, hi])))
    }

    fn i32(&mut self) -> Result<i32, DecodeError> {
        let mut b = [0u8; 4];
        for x in &mut b {
            *x = self.u8()?;
        }
        Ok(i32::from_le_bytes(b))
    }

    fn i64(&mut self) -> Result<i64, DecodeError> {
        let mut b = [0u8; 8];
        for x in &mut b {
            *x = self.u8()?;
        }
        Ok(i64::from_le_bytes(b))
    }

    fn len_from_start(&self) -> usize {
        self.pos - self.start
    }
}

#[derive(Default, Clone, Copy)]
struct Prefixes {
    has66: bool,
    rep: Option<u8>, // 0xF2 or 0xF3
    rex: Option<u8>,
    n_legacy: usize,
}

impl Prefixes {
    fn rex_w(self) -> bool {
        self.rex.is_some_and(|r| r & 0x08 != 0)
    }

    fn rex_r(self) -> u8 {
        u8::from(self.rex.is_some_and(|r| r & 0x04 != 0))
    }

    fn rex_x(self) -> u8 {
        u8::from(self.rex.is_some_and(|r| r & 0x02 != 0))
    }

    fn rex_b(self) -> u8 {
        u8::from(self.rex.is_some_and(|r| r & 0x01 != 0))
    }
}

#[derive(Clone, Copy)]
struct VexInfo {
    pp: u8,
    l: u8,
    w: u8,
    vvvv: u8,
    r: u8,
    x: u8,
    b: u8,
    map: Map,
}

/// Decode a single instruction starting at `offset`.
///
/// Returns the instruction and its length in bytes.
///
/// # Errors
/// See [`DecodeError`] for the failure modes; no byte sequence panics.
pub fn decode_one(bytes: &[u8], offset: usize) -> Result<(Inst, usize), DecodeError> {
    let mut c = Cursor::new(bytes, offset);
    let mut pfx = Prefixes::default();

    // Legacy prefixes (only the ones our subset uses).
    loop {
        match c.peek() {
            Some(0x66) => {
                pfx.has66 = true;
                pfx.n_legacy += 1;
                c.pos += 1;
            }
            Some(b @ (0xF2 | 0xF3)) => {
                pfx.rep = Some(b);
                pfx.n_legacy += 1;
                c.pos += 1;
            }
            _ => break,
        }
        if pfx.n_legacy > 14 {
            return Err(DecodeError::TooLong { offset });
        }
    }

    // REX.
    if let Some(b) = c.peek() {
        if (0x40..=0x4F).contains(&b) {
            pfx.rex = Some(b);
            c.pos += 1;
        }
    }

    // VEX or opcode map.
    let first = c.u8()?;
    let (vex, map, opcode) = match first {
        0xC5 | 0xC4 if pfx.rex.is_none() && !pfx.has66 && pfx.rep.is_none() => {
            let v = if first == 0xC5 {
                let b1 = c.u8()?;
                VexInfo {
                    pp: b1 & 3,
                    l: (b1 >> 2) & 1,
                    w: 0,
                    vvvv: (!(b1 >> 3)) & 0xF,
                    r: u8::from(b1 & 0x80 == 0),
                    x: 0,
                    b: 0,
                    map: Map::M0F,
                }
            } else {
                let b1 = c.u8()?;
                let b2 = c.u8()?;
                let map = match b1 & 0x1F {
                    1 => Map::M0F,
                    2 => Map::M38,
                    3 => Map::M3A,
                    _ => {
                        return Err(DecodeError::Invalid {
                            offset,
                            what: "bad VEX map",
                        });
                    }
                };
                VexInfo {
                    pp: b2 & 3,
                    l: (b2 >> 2) & 1,
                    w: (b2 >> 7) & 1,
                    vvvv: (!(b2 >> 3)) & 0xF,
                    r: u8::from(b1 & 0x80 == 0),
                    x: u8::from(b1 & 0x40 == 0),
                    b: u8::from(b1 & 0x20 == 0),
                    map,
                }
            };
            let op = c.u8()?;
            (Some(v), v.map, op)
        }
        0x0F => {
            let b = c.u8()?;
            match b {
                0x38 => (None, Map::M38, c.u8()?),
                0x3A => (None, Map::M3A, c.u8()?),
                _ => (None, Map::M0F, b),
            }
        }
        b => (None, Map::M1, b),
    };

    let t = tables();
    let Some(candidates) = t.by_opcode.get(&(map, opcode)) else {
        return Err(DecodeError::UnknownOpcode {
            offset,
            opcode: vec![opcode],
        });
    };

    // Filter candidates by prefix/VEX/extension-digit constraints.
    let modrm_peek = c.peek();
    let matches = |e: &Entry| {
        if e.vex.is_some() != vex.is_some() {
            return false;
        }
        if let (Some(ev), Some(v)) = (e.vex, vex) {
            if ev.pp != v.pp || (ev.l != 2 && ev.l != v.l) || (ev.w != 2 && ev.w != v.w) {
                return false;
            }
        } else {
            let observed = match (pfx.rep, pfx.has66) {
                (Some(0xF3), _) => Pfx::PF3,
                (Some(_), _) => Pfx::PF2,
                (None, true) => Pfx::P66,
                (None, false) => Pfx::N,
            };
            let ok = e.pfx == observed
                || (observed == Pfx::P66
                    && e.pfx == Pfx::N
                    && matches!(e.osz, Osz::B | Osz::V | Osz::Q | Osz::D64));
            if !ok {
                return false;
            }
        }
        if e.ext != NO_EXT {
            let Some(mb) = modrm_peek else { return false };
            if (mb >> 3) & 7 != e.ext {
                return false;
            }
        }
        e.is_opreg() || e.op == opcode
    };

    // REX.W disambiguation (cdq/cqo, movd/movq): with REX.W, the first
    // matching Q entry, else the first match of any size; without it,
    // the first matching entry that is not Q.
    let rexw = pfx.rex_w() || vex.is_some_and(|v| v.w == 1);
    let mut first_match = None;
    let mut chosen = None;
    for e in candidates
        .iter()
        .map(|&i| &t.entries[i])
        .filter(|e| matches(e))
    {
        if (e.osz == Osz::Q) == rexw {
            chosen = Some(e);
            break;
        }
        first_match = first_match.or(Some(e));
    }
    let chosen = if rexw { chosen.or(first_match) } else { chosen };

    let Some(entry) = chosen else {
        return Err(DecodeError::UnknownOpcode {
            offset,
            opcode: vec![opcode],
        });
    };

    decode_with_entry(entry, &mut c, pfx, vex, opcode, offset)
}

/// Effective GPR operand size for a matched entry.
fn opsize(entry: &Entry, pfx: Prefixes) -> Width {
    match entry.osz {
        Osz::B => Width::W8,
        Osz::Q | Osz::D64 => Width::W64,
        Osz::X => Width::W32,
        Osz::V => {
            if pfx.rex_w() {
                Width::W64
            } else if pfx.has66 {
                Width::W16
            } else {
                Width::W32
            }
        }
    }
}

fn make_gpr(num: u8, w: Width, rex_present: bool) -> Reg {
    if w == Width::W8 && !rex_present && (4..8).contains(&num) {
        Reg::HighByte(num - 4)
    } else {
        Reg::Gpr { num, width: w }
    }
}

fn make_vec(num: u8, l: u8) -> Reg {
    if l == 1 {
        Reg::Ymm(num)
    } else {
        Reg::Xmm(num)
    }
}

/// Decoded ModRM r/m slot.
enum RmVal {
    RegNum(u8),
    Mem(Mem),
}

/// Parse ModRM + SIB + displacement. `mem_width` is applied to any memory
/// operand produced.
fn parse_modrm(
    c: &mut Cursor<'_>,
    pfx: Prefixes,
    vex: Option<VexInfo>,
    mem_width: Width,
    offset: usize,
) -> Result<(u8, RmVal), DecodeError> {
    let modrm = c.u8()?;
    let md = modrm >> 6;
    let (rx, xx, bx) = match vex {
        Some(v) => (v.r, v.x, v.b),
        None => (pfx.rex_r(), pfx.rex_x(), pfx.rex_b()),
    };
    let reg = ((modrm >> 3) & 7) | (rx << 3);
    let rm_low = modrm & 7;
    if md == 3 {
        return Ok((reg, RmVal::RegNum(rm_low | (bx << 3))));
    }
    let base: Option<Reg>;
    let mut index: Option<Reg> = None;
    let mut scale = 1u8;
    let disp: i32;
    if rm_low == 4 {
        // SIB
        let sib = c.u8()?;
        let sc = sib >> 6;
        scale = 1 << sc;
        let idx = ((sib >> 3) & 7) | (xx << 3);
        let bs = (sib & 7) | (bx << 3);
        if idx != 4 {
            index = Some(Reg::Gpr {
                num: idx,
                width: Width::W64,
            });
        }
        if (sib & 7) == 5 && md == 0 {
            base = None; // disp32, no base
            disp = c.i32()?;
        } else {
            base = Some(Reg::Gpr {
                num: bs,
                width: Width::W64,
            });
            disp = match md {
                0 => 0,
                1 => c.i8()?,
                _ => c.i32()?,
            };
        }
    } else if md == 0 && rm_low == 5 {
        base = Some(Reg::Rip);
        disp = c.i32()?;
    } else {
        base = Some(Reg::Gpr {
            num: rm_low | (bx << 3),
            width: Width::W64,
        });
        disp = match md {
            0 => 0,
            1 => c.i8()?,
            _ => c.i32()?,
        };
    }
    if index.is_some_and(|r| matches!(r, Reg::Gpr { num: 4, .. })) {
        return Err(DecodeError::Invalid {
            offset,
            what: "rsp used as index",
        });
    }
    Ok((
        reg,
        RmVal::Mem(Mem {
            base,
            index,
            scale,
            disp,
            width: mem_width,
        }),
    ))
}

fn read_imm(c: &mut Cursor<'_>, kind: ImmK, w: Width) -> Result<i64, DecodeError> {
    match kind {
        ImmK::NoImm => Ok(0),
        ImmK::Ib => Ok(i64::from(c.u8()?)),
        ImmK::IbS => Ok(i64::from(c.i8()?)),
        ImmK::Iz => match w {
            Width::W16 => c.i16(),
            _ => Ok(i64::from(c.i32()?)),
        },
        ImmK::Iv => match w {
            Width::W16 => c.i16(),
            Width::W64 => c.i64(),
            _ => Ok(i64::from(c.i32()?)),
        },
    }
}

#[allow(clippy::too_many_lines)]
fn decode_with_entry(
    entry: &Entry,
    c: &mut Cursor<'_>,
    pfx: Prefixes,
    vex: Option<VexInfo>,
    opcode: u8,
    offset: usize,
) -> Result<(Inst, usize), DecodeError> {
    let w = opsize(entry, pfx);
    let l = vex.map_or(0, |v| v.l);
    let lig = entry.vex.is_some_and(|v| v.l == 2);
    let eff_l = if lig { 0 } else { l };
    let vecw = if eff_l == 1 { Width::W256 } else { Width::W128 };
    let rex_present = pfx.rex.is_some();

    // Width of a memory r/m operand for this entry.
    let mem_w = entry.rmw.unwrap_or(match entry.osz {
        Osz::X => vecw,
        _ => w,
    });
    // Width of a *register* r/m operand when the entry overrides it
    // (movzx r32, r/m8 and friends).
    let rm_reg_w = entry.rmw.filter(|x| x.is_gpr()).unwrap_or(w);

    let gpr = |num: u8| make_gpr(num, w, rex_present);
    let gpr_rm = |num: u8| make_gpr(num, rm_reg_w, rex_present);
    let vreg = |num: u8| make_vec(num, eff_l);

    let mut ops: Vec<Operand> = Vec::with_capacity(3);

    let needs_modrm = entry.has_modrm();
    let (reg_num, rm) = if needs_modrm {
        let (r, rm) = parse_modrm(c, pfx, vex, mem_w, offset)?;
        (r, Some(rm))
    } else {
        (0, None)
    };

    let rm_gpr_op = |rm: &RmVal| -> Operand {
        match rm {
            RmVal::RegNum(n) => Operand::Reg(gpr_rm(*n)),
            RmVal::Mem(m) => Operand::Mem(*m),
        }
    };
    let rm_vec_op = |rm: &RmVal, vl: u8| -> Operand {
        match rm {
            RmVal::RegNum(n) => Operand::Reg(make_vec(*n, vl)),
            RmVal::Mem(m) => Operand::Mem(*m),
        }
    };

    match entry.pat {
        Pat::NoOps => {}
        Pat::RmR => {
            ops.push(rm_gpr_op(rm.as_ref().unwrap()));
            ops.push(Operand::Reg(gpr(reg_num)));
        }
        Pat::RRm => {
            ops.push(Operand::Reg(gpr(reg_num)));
            ops.push(rm_gpr_op(rm.as_ref().unwrap()));
        }
        Pat::RmRI => {
            ops.push(rm_gpr_op(rm.as_ref().unwrap()));
            ops.push(Operand::Reg(gpr(reg_num)));
            ops.push(Operand::Imm(read_imm(c, entry.imm, w)?));
        }
        Pat::RmI => {
            ops.push(rm_gpr_op(rm.as_ref().unwrap()));
            ops.push(Operand::Imm(read_imm(c, entry.imm, w)?));
        }
        Pat::Rm => {
            ops.push(rm_gpr_op(rm.as_ref().unwrap()));
        }
        Pat::RmCl => {
            ops.push(rm_gpr_op(rm.as_ref().unwrap()));
            ops.push(Operand::Reg(Reg::Gpr {
                num: 1,
                width: Width::W8,
            }));
        }
        Pat::AccI => {
            ops.push(Operand::Reg(gpr(0)));
            ops.push(Operand::Imm(read_imm(c, entry.imm, w)?));
        }
        Pat::OpReg | Pat::OpRegI => {
            let num = (opcode - entry.op) | (pfx.rex_b() << 3);
            ops.push(Operand::Reg(gpr(num)));
            if entry.pat == Pat::OpRegI {
                ops.push(Operand::Imm(read_imm(c, entry.imm, w)?));
            }
        }
        Pat::RRmI => {
            ops.push(Operand::Reg(gpr(reg_num)));
            ops.push(rm_gpr_op(rm.as_ref().unwrap()));
            ops.push(Operand::Imm(read_imm(c, entry.imm, w)?));
        }
        Pat::RM => {
            let RmVal::Mem(m) = rm.as_ref().unwrap() else {
                return Err(DecodeError::Invalid {
                    offset,
                    what: "lea requires memory operand",
                });
            };
            ops.push(Operand::Reg(gpr(reg_num)));
            ops.push(Operand::Mem(*m));
        }
        Pat::Rel => {
            let d = match entry.imm {
                ImmK::Ib => c.i8()?,
                _ => c.i32()?,
            };
            ops.push(Operand::Rel(d));
        }
        Pat::XXm | Pat::XXmI => {
            ops.push(Operand::Reg(Reg::Xmm(reg_num)));
            ops.push(rm_vec_op(rm.as_ref().unwrap(), 0));
            if entry.pat == Pat::XXmI {
                ops.push(Operand::Imm(read_imm(c, entry.imm, w)?));
            }
        }
        Pat::XmX => {
            ops.push(rm_vec_op(rm.as_ref().unwrap(), 0));
            ops.push(Operand::Reg(Reg::Xmm(reg_num)));
        }
        Pat::XRm => {
            ops.push(Operand::Reg(Reg::Xmm(reg_num)));
            ops.push(rm_gpr_op(rm.as_ref().unwrap()));
        }
        Pat::RmX => {
            ops.push(rm_gpr_op(rm.as_ref().unwrap()));
            ops.push(Operand::Reg(Reg::Xmm(reg_num)));
        }
        Pat::RXm => {
            ops.push(Operand::Reg(gpr(reg_num)));
            ops.push(rm_vec_op(rm.as_ref().unwrap(), 0));
        }
        Pat::XI => {
            let RmVal::RegNum(n) = rm.as_ref().unwrap() else {
                return Err(DecodeError::Invalid {
                    offset,
                    what: "vector shift by immediate requires a register",
                });
            };
            ops.push(Operand::Reg(Reg::Xmm(*n)));
            ops.push(Operand::Imm(read_imm(c, entry.imm, w)?));
        }
        Pat::VXXm | Pat::VXXmI => {
            let v = vex.expect("VEX pattern without VEX prefix");
            ops.push(Operand::Reg(vreg(reg_num)));
            ops.push(Operand::Reg(vreg(v.vvvv)));
            ops.push(rm_vec_op(rm.as_ref().unwrap(), eff_l));
            if entry.pat == Pat::VXXmI {
                ops.push(Operand::Imm(read_imm(c, entry.imm, w)?));
            }
        }
        Pat::VXm => {
            ops.push(Operand::Reg(vreg(reg_num)));
            // vbroadcastss reads an xmm or m32 source regardless of L
            let src_l = if entry.map == Map::M38 && entry.op == 0x18 {
                0
            } else {
                eff_l
            };
            ops.push(rm_vec_op(rm.as_ref().unwrap(), src_l));
        }
        Pat::VXmX => {
            ops.push(rm_vec_op(rm.as_ref().unwrap(), eff_l));
            ops.push(Operand::Reg(vreg(reg_num)));
        }
        Pat::VYXmI => {
            let v = vex.expect("VEX pattern without VEX prefix");
            ops.push(Operand::Reg(Reg::Ymm(reg_num)));
            ops.push(Operand::Reg(Reg::Ymm(v.vvvv)));
            ops.push(rm_vec_op(rm.as_ref().unwrap(), 0));
            ops.push(Operand::Imm(read_imm(c, entry.imm, w)?));
        }
        Pat::VXmYI => {
            ops.push(rm_vec_op(rm.as_ref().unwrap(), 0));
            ops.push(Operand::Reg(Reg::Ymm(reg_num)));
            ops.push(Operand::Imm(read_imm(c, entry.imm, w)?));
        }
    }

    let len = c.len_from_start();
    if len > 15 {
        return Err(DecodeError::TooLong { offset });
    }
    let has_lcp = pfx.has66
        && matches!(entry.imm, ImmK::Iz | ImmK::Iv)
        && w == Width::W16
        && !matches!(entry.pat, Pat::Rel);
    let opcode_offset = if vex.is_some() {
        pfx.n_legacy as u8
    } else {
        (pfx.n_legacy + usize::from(pfx.rex.is_some())) as u8
    };
    let inst = Inst {
        mnemonic: entry.mnem,
        operands: ops,
        len: len as u8,
        opcode_offset,
        has_lcp,
    };
    Ok((inst, len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mnemonic::{Cond, Mnemonic};
    use crate::reg::names::*;

    fn dec(bytes: &[u8]) -> Inst {
        let (inst, len) = decode_one(bytes, 0).unwrap();
        assert_eq!(len, bytes.len(), "decoded length mismatch");
        inst
    }

    #[test]
    fn basic_alu() {
        let i = dec(&[0x01, 0xC8]);
        assert_eq!(i.mnemonic, Mnemonic::Add);
        assert_eq!(i.operands, vec![EAX.into(), ECX.into()]);
        let i = dec(&[0x48, 0x01, 0xC8]);
        assert_eq!(i.operands, vec![RAX.into(), RCX.into()]);
    }

    #[test]
    fn lcp_flagged() {
        let i = dec(&[0x66, 0x81, 0xC0, 0x34, 0x12]);
        assert_eq!(i.mnemonic, Mnemonic::Add);
        assert!(i.has_lcp);
        assert_eq!(i.opcode_offset, 1);
        assert_eq!(i.operands[1], Operand::Imm(0x1234));
        // 16-bit reg-reg op: 66 prefix but no immediate, no LCP
        let i = dec(&[0x66, 0x01, 0xC8]);
        assert!(!i.has_lcp);
    }

    #[test]
    fn rex_w_disambiguation() {
        assert_eq!(dec(&[0x99]).mnemonic, Mnemonic::Cdq);
        assert_eq!(dec(&[0x48, 0x99]).mnemonic, Mnemonic::Cqo);
    }

    #[test]
    fn sib_and_disp() {
        let i = dec(&[0x8B, 0x54, 0x88, 0x10]);
        assert_eq!(i.mnemonic, Mnemonic::Mov);
        let m = i.operands[1].mem().unwrap();
        assert_eq!(m.base, Some(RAX));
        assert_eq!(m.index, Some(RCX));
        assert_eq!(m.scale, 4);
        assert_eq!(m.disp, 0x10);
    }

    #[test]
    fn rip_relative() {
        let i = dec(&[0x8B, 0x05, 0x00, 0x01, 0x00, 0x00]);
        let m = i.operands[1].mem().unwrap();
        assert!(m.is_rip_relative());
        assert_eq!(m.disp, 0x100);
    }

    #[test]
    fn branches() {
        let i = dec(&[0x75, 0xEC]);
        assert_eq!(i.mnemonic, Mnemonic::Jcc(Cond::Ne));
        assert_eq!(i.operands[0], Operand::Rel(-20));
        let i = dec(&[0x0F, 0x85, 0xD4, 0xFE, 0xFF, 0xFF]);
        assert_eq!(i.operands[0], Operand::Rel(-300));
    }

    #[test]
    fn vex_decoding() {
        let i = dec(&[0xC5, 0xF4, 0x58, 0xC2]);
        assert_eq!(i.mnemonic, Mnemonic::Vaddps);
        assert_eq!(
            i.operands,
            vec![
                Operand::Reg(Reg::Ymm(0)),
                Operand::Reg(Reg::Ymm(1)),
                Operand::Reg(Reg::Ymm(2))
            ]
        );
        let i = dec(&[0xC4, 0xE2, 0x75, 0xB8, 0xC2]);
        assert_eq!(i.mnemonic, Mnemonic::Vfmadd231ps);
    }

    #[test]
    fn truncated_errors() {
        assert!(matches!(
            decode_one(&[0x81, 0xC0, 0x34], 0),
            Err(DecodeError::Truncated { .. })
        ));
        assert!(matches!(
            decode_one(&[0x0F], 0),
            Err(DecodeError::Truncated { .. })
        ));
        assert!(matches!(
            decode_one(&[], 0),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn unknown_opcode_errors() {
        // 0xD8 (x87) is not in our subset
        assert!(matches!(
            decode_one(&[0xD8, 0xC0], 0),
            Err(DecodeError::UnknownOpcode { .. })
        ));
    }

    #[test]
    fn high_byte_registers() {
        // mov ah, ch -> 88 EC (no REX)
        let i = dec(&[0x88, 0xEC]);
        assert_eq!(
            i.operands,
            vec![
                Operand::Reg(Reg::HighByte(0)),
                Operand::Reg(Reg::HighByte(1))
            ]
        );
        // with REX: spl etc.
        let i = dec(&[0x40, 0x88, 0xEC]);
        assert_eq!(
            i.operands,
            vec![
                Operand::Reg(Reg::gpr(4, Width::W8)),
                Operand::Reg(Reg::gpr(5, Width::W8))
            ]
        );
    }

    #[test]
    fn setcc_and_cmov() {
        let i = dec(&[0x0F, 0x94, 0xC0]);
        assert_eq!(i.mnemonic, Mnemonic::Setcc(Cond::E));
        assert_eq!(i.operands, vec![AL.into()]);
        let i = dec(&[0x48, 0x0F, 0x44, 0xC1]);
        assert_eq!(i.mnemonic, Mnemonic::Cmovcc(Cond::E));
    }

    #[test]
    fn movzx_widths() {
        let i = dec(&[0x0F, 0xB6, 0xC1]);
        assert_eq!(i.mnemonic, Mnemonic::Movzx);
        assert_eq!(i.operands, vec![EAX.into(), CL.into()]);
    }
}

#[cfg(test)]
mod acc_form_tests {
    use super::*;
    use crate::mnemonic::Mnemonic;
    use crate::reg::names::*;

    #[test]
    fn accumulator_short_forms_decode() {
        // add eax, imm32 (05 id)
        let (i, len) = decode_one(&[0x05, 0x44, 0x33, 0x22, 0x11], 0).unwrap();
        assert_eq!(len, 5);
        assert_eq!(i.mnemonic, Mnemonic::Add);
        assert_eq!(i.operands, vec![EAX.into(), Operand::Imm(0x11223344)]);
        // test al, imm8 (A8 ib)
        let (i, _) = decode_one(&[0xA8, 0x7F], 0).unwrap();
        assert_eq!(i.mnemonic, Mnemonic::Test);
        assert_eq!(i.operands, vec![AL.into(), Operand::Imm(0x7F)]);
        // cmp rax, imm32 (REX.W 3D id)
        let (i, _) = decode_one(&[0x48, 0x3D, 0x01, 0x00, 0x00, 0x00], 0).unwrap();
        assert_eq!(i.mnemonic, Mnemonic::Cmp);
        assert_eq!(i.operands, vec![RAX.into(), Operand::Imm(1)]);
        // 16-bit acc form has an LCP
        let (i, _) = decode_one(&[0x66, 0x05, 0x34, 0x12], 0).unwrap();
        assert!(i.has_lcp);
    }

    #[test]
    fn assembler_never_emits_acc_forms() {
        use crate::encode::assemble_one;
        let (_, bytes) =
            assemble_one(Mnemonic::Add, &[EAX.into(), Operand::Imm(0x11223344)]).unwrap();
        assert_ne!(
            bytes[0], 0x05,
            "assembler should use the canonical 81 /0 form"
        );
    }
}
