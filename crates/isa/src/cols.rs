//! Struct-of-arrays kernel columns, built once per annotated block.
//!
//! The batch kernels used to re-derive their per-instruction facts from
//! the annotation's pointer-shaped representation on *every* prediction:
//! the predecoder re-read instruction placements, the port kernel
//! re-walked descriptor µop lists, and the precedence kernel rebuilt its
//! value-identity lists (`reg_reads`, flag groups, memory values) from
//! the architectural effects. [`BlockColumns`] hoists all of that into
//! flat per-block column arrays at annotation time, so the kernels
//! become linear passes over dense data:
//!
//! - [`BlockColumns::predec`] — instruction placement facts for the
//!   predecoder's per-16-byte-chunk counting;
//! - [`BlockColumns::port_uops`] — the dispatched `(port mask,
//!   occupancy)` stream for the port-contention kernel;
//! - [`BlockColumns::ids`]/[`BlockColumns::flows`] — the precedence
//!   dataflow with every value interned to a dense per-block id, so the
//!   dependence-graph kernel resolves last writers by direct indexing
//!   instead of comparing typed values;
//! - [`BlockColumns::values`] — the value behind each id, so the
//!   critical chain found on the id-built graph can be named.
//!
//! This is the only source of the dependence graph: both the precedence
//! bound and the critical chain are computed on it (a test-only typed
//! builder in `facile-core` checks it, `tests/chain_oracle.rs`).
//!
//! Building is linear in the block and allocates once per column: the
//! columns are assembled in per-thread scratch and copied out at exact
//! length, and a value's id is found by scanning the few values of an
//! ordinary block, or through a hash index once a block has more.
//!
//! The module also owns the annotation-pass timing cells ([`set_pass_timing`],
//! [`annotate_timing`], [`columns_timing`]): annotation runs below the
//! engine's kernel-timing layer, so the cells live here and the engine
//! toggles them together with its own.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use crate::annotate::DescEntry;
use facile_uarch::PortMask;
use facile_x86::{flags, Block, Effects, Mem, Reg};

/// Sentinel value id: "this flow stores nothing".
pub const NO_VALUE: u32 = u32::MAX;

/// One renamed value of the block's dataflow, interned per block. The
/// variants mirror the typed `ValueRef` identity of the explanation
/// layer exactly (registers widened to their full architectural
/// register, memory addressed by base/index/scale/disp), so id equality
/// coincides with typed-value equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColValue {
    /// A full architectural register.
    Reg(Reg),
    /// One EFLAGS group (see [`facile_x86::flags`]).
    Flag(u8),
    /// A memory location, by its address expression (full registers).
    Mem {
        /// Base register.
        base: Option<Reg>,
        /// Index register.
        index: Option<Reg>,
        /// Index scale factor.
        scale: u8,
        /// Constant displacement.
        disp: i32,
    },
}

fn mem_value(m: Mem) -> ColValue {
    ColValue::Mem {
        base: m.base.map(Reg::full),
        index: m.index.map(Reg::full),
        scale: m.scale,
        disp: m.disp,
    }
}

/// Per-instruction dataflow summary in column form: half-open ranges
/// into [`BlockColumns::ids`] plus the scalar facts the precedence
/// kernel needs. One entry per non-fused instruction, in block order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowCol {
    /// Index of the instruction in the annotated block.
    pub index: u32,
    /// Consumed value ids (consecutive duplicates removed).
    pub consumed: (u32, u32),
    /// Values consumed through the load path (the loaded memory value
    /// plus the address registers of a loading instruction).
    pub via_load: (u32, u32),
    /// Produced value ids (consecutive duplicates removed).
    pub produced: (u32, u32),
    /// Instruction latency in cycles (the descriptor's).
    pub latency: u8,
    /// Id of the stored memory value, or [`NO_VALUE`] if none.
    pub stores_id: u32,
}

/// Flat per-block column arrays consumed by the batch kernels. Built
/// once when the block is annotated, in per-thread scratch, and stored
/// at exact length; see the module docs for layout.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockColumns {
    /// `(last byte, opcode byte, has LCP)` per instruction, including
    /// macro-fused tails — exactly what the predecoder counts.
    pub predec: Vec<(u32, u32, bool)>,
    /// Number of instructions with a length-changing prefix.
    pub lcp_insts: u32,
    /// `(port mask, occupancy)` per µop that reaches the execution
    /// ports: µops of eliminated instructions and port-less µops are
    /// already filtered out, in dispatch order.
    pub port_uops: Vec<(PortMask, u8)>,
    /// Dense value-id pool of the dataflow columns: ids are
    /// `0..values.len()`, ranges in [`FlowCol`] index into this.
    pub ids: Vec<u32>,
    /// Per-(non-fused)-instruction dataflow summaries.
    pub flows: Vec<FlowCol>,
    /// The distinct values of the block, indexed by value id.
    pub values: Vec<ColValue>,
}

/// Accounting: the five flat column vectors (their elements are `Copy`
/// leaves).
impl facile_util::HeapSize for BlockColumns {
    fn heap_bytes(&self) -> usize {
        self.predec.capacity() * std::mem::size_of::<(u32, u32, bool)>()
            + self.port_uops.capacity() * std::mem::size_of::<(PortMask, u8)>()
            + self.ids.capacity() * std::mem::size_of::<u32>()
            + self.flows.capacity() * std::mem::size_of::<FlowCol>()
            + self.values.capacity() * std::mem::size_of::<ColValue>()
    }
}

/// Remove *consecutive* duplicate ids from `ids[start..]` (an
/// instruction that reads a register twice consumes it once).
fn dedup_tail(ids: &mut Vec<u32>, start: usize) {
    let mut w = start;
    for r in start..ids.len() {
        if w == start || ids[w - 1] != ids[r] {
            ids[w] = ids[r];
            w += 1;
        }
    }
    ids.truncate(w);
}

/// Up to this many distinct values, a value's id is found by scanning
/// the table; past it, through a hash index. Ordinary blocks stay under
/// it and never touch the index. The index keeps the standard library's
/// randomly keyed hasher: displacements come from the caller's bytes,
/// and FxHash's low bits depend only on a displacement's low bits, so
/// stores at multiples of 2^16 all collide under it (32,768 of them take
/// ~100× as long as 4,096).
const SCAN_LIMIT: usize = 32;

/// A scratch buffer larger than this many instructions is dropped after
/// use, so one huge block does not pin its memory on the thread.
const SCRATCH_KEEP: usize = 4096;

/// The dense id of `v`, allocating the next one on first sight: ids are
/// in first-occurrence order (they number the nodes of Howard's graph,
/// which picks the critical chain). Linear time overall: `index` mirrors
/// `vals` once the table outgrows [`SCAN_LIMIT`].
fn intern(vals: &mut Vec<ColValue>, index: &mut HashMap<ColValue, u32>, v: ColValue) -> u32 {
    let next = vals.len() as u32;
    if vals.len() > SCAN_LIMIT {
        return *index.entry(v).or_insert_with(|| {
            vals.push(v);
            next
        });
    }
    if let Some(i) = vals.iter().position(|&x| x == v) {
        return i as u32;
    }
    vals.push(v);
    if vals.len() > SCAN_LIMIT {
        index.extend(vals.iter().zip(0..).map(|(&x, id)| (x, id)));
    }
    next
}

/// Per-thread working storage of one annotation. The columns are
/// assembled here and copied out at their exact length, so a cold
/// annotation pays one allocation per column and never a growth
/// reallocation.
#[derive(Default)]
pub(crate) struct Scratch {
    /// Architectural effects per annotated instruction, filled by the
    /// annotator (an empty placeholder for a fused tail).
    pub(crate) effs: Vec<Effects>,
    cols: BlockColumns,
    /// Value → id, in use only past [`SCAN_LIMIT`] distinct values.
    index: HashMap<ColValue, u32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Run `f` on this thread's cleared scratch.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        scratch.effs.clear();
        let out = f(&mut scratch);
        if scratch.effs.capacity() > SCRATCH_KEEP {
            *scratch = Scratch::default();
        }
        out
    })
}

impl Scratch {
    /// Build the columns of `block` annotated by `entries` (one per
    /// instruction), reading the effects from [`Scratch::effs`]: the
    /// annotator has them at hand, and recomputing here would put the
    /// classifier's per-operand walk back on the cold path.
    pub(crate) fn columns(&mut self, block: &Block, entries: &[DescEntry]) -> BlockColumns {
        let Scratch {
            effs,
            cols: c,
            index,
        } = self;
        c.predec.clear();
        c.lcp_insts = 0;
        c.port_uops.clear();
        c.ids.clear();
        c.flows.clear();
        c.values.clear();
        index.clear();
        c.predec.reserve(entries.len());
        c.flows.reserve(entries.len());
        let insts = block.iter_with_offsets();
        for (index_in_block, ((entry, e), (start, inst))) in
            entries.iter().zip(effs.iter()).zip(insts).enumerate()
        {
            c.predec.push((
                (start + inst.len as usize - 1) as u32,
                (start + inst.opcode_offset as usize) as u32,
                inst.has_lcp,
            ));
            c.lcp_insts += u32::from(inst.has_lcp);

            let d = entry.desc();
            if !d.eliminated {
                for u in &d.uops {
                    if !u.ports.is_empty() {
                        c.port_uops.push((u.ports, u.occupancy));
                    }
                }
            }

            if matches!(entry, DescEntry::FusedTail) {
                continue; // the pair's dataflow is carried by its head
            }

            // Consumed: reads, read flag groups, the loaded value. The
            // load path: the loaded value and its address registers.
            // Produced: writes, written flag groups, the stored value.
            let vals = &mut c.values;
            let c_start = c.ids.len();
            for r in &e.reg_reads {
                c.ids.push(intern(vals, index, ColValue::Reg(r.full())));
            }
            for g in flags::groups(e.flags_read) {
                c.ids.push(intern(vals, index, ColValue::Flag(g)));
            }
            let mv = e.mem.map(mem_value);
            if let (Some(mv), true) = (mv, e.loads) {
                c.ids.push(intern(vals, index, mv));
            }
            dedup_tail(&mut c.ids, c_start);
            let consumed = (c_start as u32, c.ids.len() as u32);

            let v_start = c.ids.len();
            if let (Some(m), Some(mv)) = (e.mem, mv) {
                if e.loads {
                    c.ids.push(intern(vals, index, mv));
                    for r in m.addr_regs() {
                        c.ids.push(intern(vals, index, ColValue::Reg(r.full())));
                    }
                }
            }
            let via_load = (v_start as u32, c.ids.len() as u32);

            let p_start = c.ids.len();
            for r in &e.reg_writes {
                c.ids.push(intern(vals, index, ColValue::Reg(r.full())));
            }
            for g in flags::groups(e.flags_written) {
                c.ids.push(intern(vals, index, ColValue::Flag(g)));
            }
            let mut stores_id = NO_VALUE;
            if let (Some(mv), true) = (mv, e.stores) {
                stores_id = intern(vals, index, mv);
                c.ids.push(stores_id);
            }
            dedup_tail(&mut c.ids, p_start);
            let produced = (p_start as u32, c.ids.len() as u32);

            c.flows.push(FlowCol {
                index: index_in_block as u32,
                consumed,
                via_load,
                produced,
                latency: d.latency,
                stores_id,
            });
        }
        BlockColumns {
            predec: c.predec.to_vec(),
            lcp_insts: c.lcp_insts,
            port_uops: c.port_uops.to_vec(),
            ids: c.ids.to_vec(),
            flows: c.flows.to_vec(),
            values: c.values.to_vec(),
        }
    }
}

// ---------------------------------------------------------------------
// Annotation-pass timing. Annotation runs below the engine's kernel
// instrumentation, so the cells live here; the engine toggles them
// together with the per-prediction kernel cells.

static TIMING: AtomicBool = AtomicBool::new(false);

struct Cell {
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Cell {
    const fn new() -> Cell {
        Cell {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    fn record(&self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    fn snapshot(&self) -> PassTiming {
        let count = self.count.load(Ordering::Relaxed);
        let total_ns = self.total_ns.load(Ordering::Relaxed);
        let max_ns = self.max_ns.load(Ordering::Relaxed);
        #[allow(clippy::cast_precision_loss)]
        PassTiming {
            count,
            mean_us: if count == 0 {
                0.0
            } else {
                total_ns as f64 / count as f64 / 1000.0
            },
            max_us: max_ns as f64 / 1000.0,
        }
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
    }
}

/// Whole-annotation pass (decode facts → descriptors → columns).
static ANNOTATE: Cell = Cell::new();
/// Column construction alone (a sub-span of the annotation pass).
static COLUMNS: Cell = Cell::new();

/// Aggregated timing of one annotation-side pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassTiming {
    /// Number of recorded pass executions (one per annotated block).
    pub count: u64,
    /// Mean duration in microseconds.
    pub mean_us: f64,
    /// Maximum duration in microseconds.
    pub max_us: f64,
}

/// Enable or disable annotation-pass timing (disabled by default; the
/// instrumentation costs two monotonic-clock reads per annotation).
pub fn set_pass_timing(enabled: bool) {
    TIMING.store(enabled, Ordering::Relaxed);
}

pub(crate) fn timing_enabled() -> bool {
    TIMING.load(Ordering::Relaxed)
}

pub(crate) fn record_annotate(d: Duration) {
    ANNOTATE.record(d);
}

pub(crate) fn record_columns(d: Duration) {
    COLUMNS.record(d);
}

/// Aggregated whole-annotation timing (includes column construction).
#[must_use]
pub fn annotate_timing() -> PassTiming {
    ANNOTATE.snapshot()
}

/// Aggregated column-construction timing.
#[must_use]
pub fn columns_timing() -> PassTiming {
    COLUMNS.snapshot()
}

/// Reset the annotation-pass timing cells.
pub fn reset_pass_timing() {
    ANNOTATE.reset();
    COLUMNS.reset();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::AnnotatedBlock;
    use facile_uarch::Uarch;
    use facile_x86::reg::names::*;
    use facile_x86::{Block, Cond, Mnemonic, Operand, Width};

    fn columns(prog: &[(Mnemonic, Vec<Operand>)], u: Uarch) -> AnnotatedBlock {
        AnnotatedBlock::new(Block::assemble(prog).unwrap(), u)
    }

    #[test]
    fn predec_column_matches_instruction_layout() {
        let ab = columns(
            &[
                (Mnemonic::Add, vec![RAX.into(), RCX.into()]),
                (Mnemonic::Nop, vec![]),
            ],
            Uarch::Skl,
        );
        let c = ab.columns();
        assert_eq!(c.predec.len(), ab.insts().len());
        for (a, &(last, opcode, lcp)) in ab.insts().iter().zip(&c.predec) {
            assert_eq!(last as usize, a.start + a.inst().len as usize - 1);
            assert_eq!(opcode as usize, a.start + a.inst().opcode_offset as usize);
            assert_eq!(lcp, a.inst().has_lcp);
        }
        assert_eq!(c.lcp_insts, 0);
    }

    #[test]
    fn port_uops_skip_eliminated_and_portless() {
        // mov r,r is eliminated on SKL; the fused jcc tail dispatches
        // nothing — neither may appear in the port column.
        let ab = columns(
            &[
                (Mnemonic::Mov, vec![RAX.into(), RCX.into()]),
                (Mnemonic::Dec, vec![RDX.into()]),
                (Mnemonic::Jcc(Cond::Ne), vec![Operand::Rel(-5)]),
            ],
            Uarch::Skl,
        );
        let c = ab.columns();
        let by_walk: usize = ab
            .insts()
            .iter()
            .filter(|a| !a.desc().eliminated)
            .flat_map(|a| a.desc().uops.iter())
            .filter(|u| !u.ports.is_empty())
            .count();
        assert_eq!(c.port_uops.len(), by_walk);
        assert!(!c.port_uops.is_empty());
    }

    #[test]
    fn flows_cover_non_fused_insts_with_dense_ids() {
        let m = facile_x86::Mem::base(RSI, Width::W64);
        let ab = columns(
            &[
                (Mnemonic::Add, vec![Operand::Mem(m), RAX.into()]),
                (Mnemonic::Dec, vec![RDX.into()]),
                (Mnemonic::Jcc(Cond::Ne), vec![Operand::Rel(-6)]),
            ],
            Uarch::Skl,
        );
        let c = ab.columns();
        // dec+jne fuse on SKL: flows for add and the pair head only.
        assert_eq!(c.flows.len(), 2);
        assert!(!c.values.is_empty());
        assert!(c.ids.iter().all(|&id| (id as usize) < c.values.len()));
        // add [rsi], rax loads and stores the same memory value.
        let f = &c.flows[0];
        assert_ne!(f.stores_id, NO_VALUE);
        assert_ne!(f.via_load.0, f.via_load.1);
        // The stored value is among the produced ids.
        let produced = &c.ids[f.produced.0 as usize..f.produced.1 as usize];
        assert!(produced.contains(&f.stores_id));
    }

    #[test]
    fn pass_timing_records_when_enabled() {
        reset_pass_timing();
        set_pass_timing(true);
        let _ = columns(&[(Mnemonic::Add, vec![RAX.into(), RCX.into()])], Uarch::Skl);
        set_pass_timing(false);
        let a = annotate_timing();
        let c = columns_timing();
        assert!(a.count >= 1);
        assert!(c.count >= 1);
        assert!(a.mean_us >= 0.0 && c.max_us >= 0.0);
        reset_pass_timing();
        assert_eq!(annotate_timing().count, 0);
    }
}
