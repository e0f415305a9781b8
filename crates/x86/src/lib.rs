//! # facile-x86
//!
//! A from-scratch x86-64 machine-code decoder and assembler covering the
//! instruction subset needed for basic-block throughput analysis.
//!
//! This crate plays the role that the Intel XED library plays for the
//! original Facile tool: it turns raw bytes into structured [`Inst`] values
//! carrying everything the performance models need — mnemonic, operands,
//! encoded length, the offset of the nominal opcode byte (for predecoder
//! modeling), length-changing-prefix (LCP) detection, and full architectural
//! read/write effects including flag groups and implicit operands.
//!
//! It is also an *assembler* for the same instruction representation, so
//! that synthetic benchmark generators can produce byte-accurate blocks and
//! property tests can check `decode(encode(i)) == i`.
//!
//! ## Example
//!
//! ```
//! use facile_x86::{Block, Mnemonic, reg::names::*};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let block = Block::assemble(&[
//!     (Mnemonic::Add, vec![RAX.into(), RCX.into()]),
//!     (Mnemonic::Imul, vec![RDX.into(), RAX.into()]),
//! ])?;
//! assert_eq!(block.num_insts(), 2);
//! let reparsed = Block::decode(block.bytes())?;
//! assert_eq!(reparsed, block);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod block;
pub mod decode;
pub mod encode;
pub mod error;
pub mod flags;
pub mod forms;
pub mod hex;
pub mod inst;
pub mod mnemonic;
pub mod operand;
pub mod reg;

mod table;

pub use block::Block;
pub use decode::decode_one;
pub use encode::assemble_one;
pub use error::{DecodeError, EncodeError};
pub use inst::{Effects, Inst};
pub use mnemonic::{Cond, Mnemonic};
pub use operand::{Mem, Operand};
pub use reg::{Reg, Width};
