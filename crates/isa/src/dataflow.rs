//! The uarch-independent half of an annotation, built once per decoded
//! block.
//!
//! What an instruction does (its architectural reads and writes, its
//! placement in the block's bytes, the structural shape that keys the
//! descriptor tables) does not depend on the microarchitecture; only
//! what the microarchitecture does with it (descriptors, µops, latencies,
//! macro fusion) does. [`Dataflow`] holds the first half, so a nine-uarch
//! sweep walks each instruction's effects and interns its values once,
//! and each [`crate::AnnotatedBlock`] shares it by `Arc` and adds only
//! its per-uarch columns. It holds:
//!
//! - the predecoder's placement facts per instruction;
//! - the precedence dataflow of *every* instruction, with each value
//!   interned to a dense per-block id, so the dependence-graph kernel
//!   resolves last writers by direct indexing instead of comparing typed
//!   values. A macro-fused tail has a flow too: an annotation's per-flow
//!   latency column marks it as skipped on the uarchs where the tail
//!   fuses, since the pair's dataflow is the head's own;
//! - the value behind each id, so the critical chain found on the
//!   id-built graph can be named;
//! - per-instruction shape keys ([`crate::form::shape_key`]), which index
//!   the static descriptor tables without re-walking the effects;
//! - a process-unique id ([`Dataflow::id`]), by which a kernel that
//!   keeps results across calls recognises the dataflow.
//!
//! The kernels read these columns through [`crate::BlockColumns`].
//! Building is linear in the block: ids and values are assembled in
//! per-thread scratch and copied out at exact length, and a value's id is
//! found by scanning the few values of an ordinary block, or through a
//! hash index once a block has more.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::cols;
use crate::form::shape_key;
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

/// One instruction's dataflow in column form: half-open ranges into
/// [`crate::BlockColumns::ids`] plus the stored value. Flow `i` belongs to
/// instruction `i` of the block, fused tails included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowCol {
    /// Consumed value ids (consecutive duplicates removed).
    pub consumed: (u32, u32),
    /// Values consumed through the load path (the loaded memory value
    /// plus the address registers of a loading instruction). Non-empty
    /// exactly when the instruction loads.
    pub via_load: (u32, u32),
    /// Produced value ids (consecutive duplicates removed).
    pub produced: (u32, u32),
    /// Id of the stored memory value, or [`NO_VALUE`] if none.
    pub stores_id: u32,
}

/// The uarch-independent columns of one decoded block; see the module
/// docs. Built once per block (the engine's annotation cache keeps it in
/// its per-bytes entry) and shared by every annotation of the block.
pub struct Dataflow {
    /// Process-unique id; see [`Dataflow::id`].
    id: u64,
    block: Arc<Block>,
    /// Shape key per instruction.
    shapes: Vec<u32>,
    /// `(last byte, opcode byte, has LCP)` per instruction, including
    /// macro-fused tails — exactly what the predecoder counts.
    pub(crate) predec: Vec<(u32, u32, bool)>,
    /// Number of instructions with a length-changing prefix.
    pub(crate) lcp_insts: u32,
    /// Dense value-id pool: ids are `0..values.len()`, ranges in
    /// [`FlowCol`] index into this.
    pub(crate) ids: Vec<u32>,
    /// One flow per instruction.
    pub(crate) flows: Vec<FlowCol>,
    /// The distinct values of the block, indexed by value id.
    pub(crate) values: Vec<ColValue>,
}

/// The columns only: the id tells two builds of one block apart, but
/// they hold the same content and print alike.
impl std::fmt::Debug for Dataflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dataflow")
            .field("block", &self.block)
            .field("shapes", &self.shapes)
            .field("predec", &self.predec)
            .field("lcp_insts", &self.lcp_insts)
            .field("ids", &self.ids)
            .field("flows", &self.flows)
            .field("values", &self.values)
            .finish()
    }
}

/// Accounting: the dataflow owns its block (deep; annotations share both
/// by pointer) and its flat columns (`Copy` leaves).
impl facile_util::HeapSize for Dataflow {
    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Block>()
            + self.block.heap_bytes()
            + self.shapes.capacity() * std::mem::size_of::<u32>()
            + self.predec.capacity() * std::mem::size_of::<(u32, u32, bool)>()
            + self.ids.capacity() * std::mem::size_of::<u32>()
            + self.flows.capacity() * std::mem::size_of::<FlowCol>()
            + self.values.capacity() * std::mem::size_of::<ColValue>()
    }
}

impl Dataflow {
    /// Build the dataflow of `block`: one effects walk per instruction.
    #[must_use]
    pub fn new(block: Arc<Block>) -> Dataflow {
        let t = facile_util::timing::start();
        let n = block.num_insts();
        let mut shapes = Vec::with_capacity(n);
        let mut predec = Vec::with_capacity(n);
        let mut flows = Vec::with_capacity(n);
        let mut lcp_insts = 0;
        let (ids, values) = with_scratch(n, |s| {
            for (start, inst) in block.iter_with_offsets() {
                let e = inst.effects();
                shapes.push(shape_key(inst, &e));
                predec.push((
                    (start + inst.len as usize - 1) as u32,
                    (start + inst.opcode_offset as usize) as u32,
                    inst.has_lcp,
                ));
                lcp_insts += u32::from(inst.has_lcp);
                flows.push(s.flow(&e));
            }
            (s.ids.to_vec(), s.values.to_vec())
        });
        cols::DATAFLOW.record_since(t);
        Dataflow {
            id: next_id(),
            block,
            shapes,
            predec,
            lcp_insts,
            ids,
            flows,
            values,
        }
    }

    /// An id that no other dataflow of this process has, before or
    /// after: unlike an address, it is never handed out again once the
    /// dataflow is freed. Kernels that keep results across calls key
    /// them by it.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The decoded block.
    #[must_use]
    pub fn block(&self) -> &Arc<Block> {
        &self.block
    }

    /// Shape key of instruction `i` (in bounds).
    pub(crate) fn shape(&self, i: usize) -> u32 {
        self.shapes[i]
    }

    /// Whether instruction `i` (in bounds) loads from memory.
    pub(crate) fn loads(&self, i: usize) -> bool {
        let (start, end) = self.flows[i].via_load;
        start != end
    }
}

/// Ids are handed out from per-thread ranges of this many, so building
/// a block writes the shared counter once per range, not once per block.
const ID_RANGE: u64 = 1 << 16;

/// The start of the next unclaimed id range.
static NEXT_RANGE: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The next id of this thread's range and the range's end.
    static IDS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// A process-unique dataflow id.
fn next_id() -> u64 {
    IDS.with(|ids| {
        let (mut next, mut end) = ids.get();
        if next == end {
            next = NEXT_RANGE.fetch_add(ID_RANGE, Ordering::Relaxed);
            end = next + ID_RANGE;
        }
        ids.set((next + 1, end));
        next
    })
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

/// Scratch used for a block of more than this many instructions is
/// dropped after use, so one huge block does not pin its memory on the
/// thread.
const SCRATCH_KEEP: usize = 4096;

/// An injective 128-bit packing of the values the builder makes, whose
/// registers are all full ones (see [`Reg::full`]). The interner compares
/// and hashes these keys: a key compares in one step where the enum
/// compares field by field.
fn key(v: ColValue) -> u128 {
    // A full register in 10 bits: a variant tag from 1 over its number,
    // so `None` (0) differs from every register.
    fn reg(r: Option<Reg>) -> u128 {
        let Some(r) = r else { return 0 };
        debug_assert_eq!(r, r.full(), "values hold full registers");
        let (tag, num) = match r {
            Reg::Gpr { num, .. } => (1, num),
            Reg::Ymm(n) => (2, n),
            Reg::Rip => (3, 0),
            Reg::HighByte(_) | Reg::Xmm(_) => unreachable!("{r:?} is not a full register"),
        };
        u128::from(tag << 8 | u16::from(num))
    }
    match v {
        ColValue::Reg(r) => reg(Some(r)),
        ColValue::Flag(g) => 1 << 126 | u128::from(g),
        ColValue::Mem {
            base,
            index,
            scale,
            disp,
        } => {
            2 << 126
                | reg(base)
                | reg(index) << 10
                | u128::from(scale) << 20
                | u128::from(disp as u32) << 28
        }
    }
}

/// The dense id of `v`, allocating the next one on first sight: ids are
/// in first-occurrence order. `keys` holds the key of each value so far.
/// Linear time overall: `index` mirrors `keys` once the table outgrows
/// [`SCAN_LIMIT`].
fn intern(
    values: &mut Vec<ColValue>,
    keys: &mut Vec<u128>,
    index: &mut HashMap<u128, u32>,
    v: ColValue,
) -> u32 {
    let k = key(v);
    let next = keys.len() as u32;
    if keys.len() > SCAN_LIMIT {
        return *index.entry(k).or_insert_with(|| {
            values.push(v);
            keys.push(k);
            next
        });
    }
    if let Some(i) = keys.iter().position(|&x| x == k) {
        return i as u32;
    }
    values.push(v);
    keys.push(k);
    if keys.len() > SCAN_LIMIT {
        index.extend(keys.iter().zip(0..).map(|(&x, id)| (x, id)));
    }
    next
}

/// Per-thread working storage of one dataflow build. Ids and values are
/// assembled here and copied out at their exact length, so a build pays
/// one allocation per column and never a growth reallocation.
#[derive(Default)]
struct Scratch {
    ids: Vec<u32>,
    values: Vec<ColValue>,
    /// The key of each value (see [`key`]).
    keys: Vec<u128>,
    /// Key → id, in use only past [`SCAN_LIMIT`] distinct values.
    index: HashMap<u128, u32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Run `f` on this thread's cleared scratch, for a block of `n`
/// instructions.
fn with_scratch<R>(n: usize, f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        scratch.ids.clear();
        scratch.values.clear();
        scratch.keys.clear();
        scratch.index.clear();
        let out = f(&mut scratch);
        if n > SCRATCH_KEEP {
            *scratch = Scratch::default();
        }
        out
    })
}

impl Scratch {
    /// Intern the values of one instruction's effects and return its
    /// flow. Consumed: reads, read flag groups, the loaded value. The
    /// load path: the loaded value and its address registers. Produced:
    /// writes, written flag groups, the stored value.
    fn flow(&mut self, e: &Effects) -> FlowCol {
        let Scratch {
            ids,
            values,
            keys,
            index,
        } = self;
        let mut intern = |v| intern(values, keys, index, v);
        let c_start = ids.len();
        for r in &e.reg_reads {
            ids.push(intern(ColValue::Reg(r.full())));
        }
        for g in flags::groups(e.flags_read) {
            ids.push(intern(ColValue::Flag(g)));
        }
        let mv = e.mem.map(mem_value);
        if let (Some(mv), true) = (mv, e.loads) {
            ids.push(intern(mv));
        }
        dedup_tail(ids, c_start);
        let consumed = (c_start as u32, ids.len() as u32);

        let v_start = ids.len();
        if let (Some(m), Some(mv)) = (e.mem, mv) {
            if e.loads {
                ids.push(intern(mv));
                for r in m.addr_regs() {
                    ids.push(intern(ColValue::Reg(r.full())));
                }
            }
        }
        let via_load = (v_start as u32, ids.len() as u32);

        let p_start = ids.len();
        for r in &e.reg_writes {
            ids.push(intern(ColValue::Reg(r.full())));
        }
        for g in flags::groups(e.flags_written) {
            ids.push(intern(ColValue::Flag(g)));
        }
        let mut stores_id = NO_VALUE;
        if let (Some(mv), true) = (mv, e.stores) {
            stores_id = intern(mv);
            ids.push(stores_id);
        }
        dedup_tail(ids, p_start);
        let produced = (p_start as u32, ids.len() as u32);

        FlowCol {
            consumed,
            via_load,
            produced,
            stores_id,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use facile_x86::Width;

    /// Every build gets its own id, on one thread or several, even for
    /// the same block.
    #[test]
    fn ids_are_never_shared() {
        let block = Arc::new(Block::decode(&[0x90]).unwrap());
        let build = |b: &Arc<Block>| Dataflow::new(Arc::clone(b)).id();
        let mut ids: Vec<u64> = (0..4).map(|_| build(&block)).collect();
        let other = std::thread::spawn({
            let block = Arc::clone(&block);
            move || (0..4).map(|_| build(&block)).collect::<Vec<u64>>()
        });
        ids.extend(other.join().unwrap());
        let distinct: std::collections::HashSet<u64> = ids.iter().copied().collect();
        assert_eq!(distinct.len(), ids.len(), "{ids:?}");
    }

    /// Distinct values have distinct keys, over every full register,
    /// `None` operands, and extreme displacements and scales.
    #[test]
    fn keys_are_injective() {
        let mut regs = vec![None, Some(Reg::Rip)];
        for n in [0, 1, 15, 255] {
            regs.push(Some(Reg::Ymm(n)));
            regs.push(Some(Reg::Gpr {
                num: n,
                width: Width::W64,
            }));
        }
        let mut values: Vec<ColValue> = regs.iter().flatten().map(|&r| ColValue::Reg(r)).collect();
        values.extend([0, 1, 2, 4, 255].map(ColValue::Flag));
        for &base in &regs {
            for &index in &regs {
                for scale in [0, 1, 8, 255] {
                    for disp in [i32::MIN, -1, 0, 1, 1 << 16, i32::MAX] {
                        values.push(ColValue::Mem {
                            base,
                            index,
                            scale,
                            disp,
                        });
                    }
                }
            }
        }
        let mut seen = HashMap::new();
        for v in values {
            if let Some(other) = seen.insert(key(v), v) {
                assert_eq!(other, v, "{other:?} and {v:?} share a key");
            }
        }
    }
}
