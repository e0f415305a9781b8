//! Basic blocks: instruction sequences with their byte-level layout.

use crate::decode::decode_one;
use crate::encode::assemble_one;
use crate::error::{DecodeError, EncodeError};
use crate::inst::Inst;
use crate::mnemonic::Mnemonic;
use crate::operand::Operand;
use std::borrow::Cow;
use std::cell::RefCell;
use std::fmt;

/// A basic block: a straight-line sequence of instructions together with
/// its machine code, assumed to start at a 16-byte-aligned address (offset
/// 0), as in the BHive measurement setup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    insts: Vec<Inst>,
    bytes: Vec<u8>,
    /// Start offset of each instruction within `bytes`.
    offsets: Vec<usize>,
}

impl Block {
    /// Decode a block from machine code. The block keeps owned bytes
    /// (a `Vec<u8>`) as they are and copies borrowed ones once.
    ///
    /// # Errors
    /// Returns the first [`DecodeError`] encountered.
    pub fn decode<'a>(bytes: impl Into<Cow<'a, [u8]>>) -> Result<Block, DecodeError> {
        Block::decode_owned(bytes.into().into_owned())
    }

    /// Decode `bytes` into a block that keeps them. The instructions and
    /// their offsets are gathered in this thread's scratch, reserved
    /// from the byte length (an instruction is at least one byte long),
    /// so neither grows while decoding a block of up to `SCRATCH_KEEP`
    /// bytes; each is then copied out once, at its exact length. A
    /// longer block's scratch grows as it decodes, so its transient
    /// memory follows its instruction count, not its byte length.
    fn decode_owned(bytes: Vec<u8>) -> Result<Block, DecodeError> {
        thread_local! {
            static SCRATCH: RefCell<(Vec<Inst>, Vec<usize>)> =
                const { RefCell::new((Vec::new(), Vec::new())) };
        }
        SCRATCH.with(|scratch| {
            let (insts, offsets) = &mut *scratch.borrow_mut();
            insts.clear();
            offsets.clear();
            let room = bytes.len().min(SCRATCH_KEEP);
            insts.reserve(room);
            offsets.reserve(room);
            let mut pos = 0;
            let decoded = loop {
                if pos == bytes.len() {
                    break Ok(());
                }
                match decode_one(&bytes, pos) {
                    Ok((inst, len)) => {
                        offsets.push(pos);
                        insts.push(inst);
                        pos += len;
                    }
                    Err(e) => break Err(e),
                }
            };
            let block = decoded.map(|()| {
                let mut exact = Vec::with_capacity(insts.len());
                exact.append(insts);
                Block {
                    insts: exact,
                    offsets: offsets.as_slice().to_vec(),
                    bytes,
                }
            });
            insts.clear();
            if insts.capacity() > SCRATCH_KEEP {
                *insts = Vec::new();
                *offsets = Vec::new();
            }
            block
        })
    }

    /// Assemble a block from `(mnemonic, operands)` pairs.
    ///
    /// # Errors
    /// Returns the first [`EncodeError`] encountered.
    pub fn assemble(prog: &[(Mnemonic, Vec<Operand>)]) -> Result<Block, EncodeError> {
        let mut insts = Vec::with_capacity(prog.len());
        let mut bytes = Vec::new();
        let mut offsets = Vec::with_capacity(prog.len());
        for (m, ops) in prog {
            let (inst, code) = assemble_one(*m, ops)?;
            offsets.push(bytes.len());
            insts.push(inst);
            bytes.extend_from_slice(&code);
        }
        Ok(Block {
            insts,
            bytes,
            offsets,
        })
    }

    /// The instructions of the block.
    #[must_use]
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// The machine code of the block.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Number of instructions.
    #[must_use]
    pub fn num_insts(&self) -> usize {
        self.insts.len()
    }

    /// Whether the block contains no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Length of the block in bytes.
    #[must_use]
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Start offset of instruction `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn offset(&self, i: usize) -> usize {
        self.offsets[i]
    }

    /// Iterate over `(start_offset, instruction)` pairs.
    pub fn iter_with_offsets(&self) -> impl Iterator<Item = (usize, &Inst)> {
        self.offsets.iter().copied().zip(self.insts.iter())
    }

    /// Whether the block ends in a branch instruction (i.e. is a *loop*
    /// benchmark in the paper's TPL sense).
    #[must_use]
    pub fn ends_in_branch(&self) -> bool {
        self.insts.last().is_some_and(Inst::is_branch)
    }

    /// Whether the block is affected by the JCC erratum: it contains a
    /// branch instruction that crosses or ends on a 32-byte boundary.
    /// (On affected microarchitectures such blocks are not cached in the
    /// DSB; macro-fused jumps are subject to the same rule, which callers
    /// model by checking the fused pair's span.)
    #[must_use]
    pub fn jcc_erratum_applies(&self) -> bool {
        self.iter_with_offsets().any(|(start, inst)| {
            inst.is_branch() && Self::crosses_or_ends_on_32(start, inst.len as usize)
        })
    }

    /// Whether an instruction spanning `[start, start+len)` crosses or ends
    /// on a 32-byte boundary.
    #[must_use]
    pub fn crosses_or_ends_on_32(start: usize, len: usize) -> bool {
        let end = start + len; // exclusive end == "ends on boundary" if divisible
        start / 32 != (end - 1) / 32 || end.is_multiple_of(32)
    }

    /// Hex representation of the machine code (lowercase, no separators),
    /// the format used by the BHive suite.
    #[must_use]
    pub fn to_hex(&self) -> String {
        crate::hex::encode(&self.bytes)
    }

    /// Decode a block from a BHive-style hex string.
    ///
    /// # Errors
    /// Returns [`DecodeError::Invalid`] for non-hex input, otherwise
    /// decodes the bytes.
    pub fn from_hex(hex: &str) -> Result<Block, DecodeError> {
        let bytes = crate::hex::decode(hex.trim()).ok_or(DecodeError::Invalid {
            offset: 0,
            what: "malformed hex string",
        })?;
        Block::decode_owned(bytes)
    }
}

/// Instructions a thread's decode scratch keeps room for between
/// blocks; a longer block's scratch is freed after it is decoded, so
/// one huge input does not pin its buffers for the thread's lifetime.
const SCRATCH_KEEP: usize = 4096;

/// Accounting: the three backing vectors plus each instruction's
/// operand list. Used by the byte-bounded caches that store decoded
/// blocks.
impl facile_util::HeapSize for Block {
    fn heap_bytes(&self) -> usize {
        use facile_util::HeapSize;
        self.insts.capacity() * std::mem::size_of::<Inst>()
            + self.insts.iter().map(HeapSize::heap_bytes).sum::<usize>()
            + self.bytes.capacity()
            + self.offsets.capacity() * std::mem::size_of::<usize>()
    }
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (off, inst) in self.iter_with_offsets() {
            writeln!(f, "{off:4x}: {inst}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operand::Operand;
    use crate::reg::names::*;

    #[test]
    fn assemble_decode_roundtrip() {
        let prog = vec![
            (Mnemonic::Add, vec![RAX.into(), RCX.into()]),
            (Mnemonic::Imul, vec![RDX.into(), RAX.into()]),
            (Mnemonic::Xor, vec![EBX.into(), EBX.into()]),
        ];
        let b = Block::assemble(&prog).unwrap();
        let b2 = Block::decode(b.bytes()).unwrap();
        assert_eq!(b, b2);
        assert_eq!(b.num_insts(), 3);
    }

    #[test]
    fn hex_roundtrip() {
        let b = Block::assemble(&[(Mnemonic::Add, vec![EAX.into(), ECX.into()])]).unwrap();
        assert_eq!(b.to_hex(), "01c8");
        assert_eq!(Block::from_hex("01c8").unwrap(), b);
        assert!(Block::from_hex("01c").is_err());
        assert!(Block::from_hex("zz").is_err());
    }

    #[test]
    fn ends_in_branch() {
        let b = Block::assemble(&[
            (Mnemonic::Dec, vec![RCX.into()]),
            (
                Mnemonic::Jcc(crate::mnemonic::Cond::Ne),
                vec![Operand::Rel(-5)],
            ),
        ])
        .unwrap();
        assert!(b.ends_in_branch());
        let b = Block::assemble(&[(Mnemonic::Dec, vec![RCX.into()])]).unwrap();
        assert!(!b.ends_in_branch());
    }

    #[test]
    fn boundary_crossing_predicate() {
        // ends exactly on a 32-byte boundary
        assert!(Block::crosses_or_ends_on_32(30, 2));
        // crosses it
        assert!(Block::crosses_or_ends_on_32(30, 4));
        // strictly inside
        assert!(!Block::crosses_or_ends_on_32(28, 2));
        assert!(!Block::crosses_or_ends_on_32(32, 4));
    }

    #[test]
    fn offsets_track_lengths() {
        let prog = vec![
            (Mnemonic::Add, vec![RAX.into(), RCX.into()]), // 3 bytes
            (Mnemonic::Nop, vec![]),                       // 1 byte
            (Mnemonic::Add, vec![EAX.into(), ECX.into()]), // 2 bytes
        ];
        let b = Block::assemble(&prog).unwrap();
        assert_eq!(b.offset(0), 0);
        assert_eq!(b.offset(1), 3);
        assert_eq!(b.offset(2), 4);
        assert_eq!(b.byte_len(), 6);
    }

    #[test]
    fn empty_block() {
        let b = Block::decode(&[]).unwrap();
        assert!(b.is_empty());
    }
}
