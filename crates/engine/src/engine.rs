//! The batch prediction engine.
//!
//! A batch is planned first (duplicate items collapse to one unit), then
//! one order-preserving pass over the worker pool maps units ×
//! predictors. A worker prepares each unit once, through one `prepare`,
//! with a cache or without one:
//!
//! 1. the bytes: the block the worker holds from its previous unit when
//!    that unit had the same input (no second hex decode), else the
//!    input's own;
//! 2. with a cache, exactly one `(bytes, uarch)` probe, whose hit is the
//!    annotation with the Brief rows the cache keeps for the unit's
//!    predictors;
//! 3. the dataflow: the probe's resident one, the held one, or the
//!    decoded bytes (the only decode site, behind the `decode-panic`
//!    fault point);
//! 4. the annotation (the only annotate site, behind `annotate-panic`),
//!    published to the cache if there is one; its dataflow is then held
//!    for the next unit.
//!
//! Each row then passes the predict fault points and is answered from a
//! kept Brief row when the probe found one, else by its predictor; a
//! cache keeps each new `Ok` Brief row of a memoizable predictor.

use crate::cache::{self, AnnotationCache, Brief, Briefs, CacheStats, Wanted, WithHex};
use crate::error::PredictError;
use crate::predictor::{PredictRequest, Prediction, Predictor};
use crate::registry::PredictorRegistry;
use facile_core::Mode;
use facile_explain::Detail;
use facile_faults::Point;
use facile_isa::AnnotatedBlock;
use facile_uarch::Uarch;
use facile_util::timing::Timing;
use facile_util::PoisonlessMutex;
use facile_x86::{hex, Block};
use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A block to predict, in whatever form the caller has it.
#[derive(Debug, Clone)]
pub enum BlockInput {
    /// Hex machine code (BHive format). Decoded by the engine; decode
    /// failures become per-item errors, not panics.
    Hex(String),
    /// Raw machine code bytes.
    Bytes(Vec<u8>),
    /// An already-decoded block.
    Block(Block),
    /// An already-decoded block behind a shared handle, so one decoded
    /// block fanned out over many items (the multi-uarch matrix, the
    /// server's cross-connection batches) costs one allocation total. An
    /// engine with a cache (callers that reuse work across calls) keeps
    /// the `Arc` in its level-1 cache instead of cloning the bytes.
    Shared(Arc<Block>),
}

/// [`BlockInput::key`]: a block as its input spells it.
#[derive(PartialEq, Eq)]
enum InputKey<'a> {
    Bytes(&'a [u8]),
    Hex(&'a str),
}

/// The planner's key: an input's spelling of its block, and its uarch,
/// notion and detail packed into one word (with the spelling's kind).
#[derive(PartialEq, Eq)]
struct PlanKey<'a> {
    input: InputKey<'a>,
    rest: u32,
}

impl<'a> PlanKey<'a> {
    fn new(item: &'a BatchItem) -> PlanKey<'a> {
        let mode = item.mode.map_or(0, |m| m as u32 + 1);
        PlanKey {
            input: item.input.key(),
            rest: item.uarch as u32 | mode << 8 | (item.detail as u32) << 16,
        }
    }
}

/// One run of bytes and one word: hashing the fields one by one costs
/// a hasher call each, and planning a batch hashes every item.
impl Hash for PlanKey<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let (bytes, kind) = match self.input {
            InputKey::Bytes(b) => (b, 0),
            InputKey::Hex(h) => (h.as_bytes(), 1 << 31),
        };
        state.write(bytes);
        state.write_u32(self.rest | kind);
    }
}

impl BlockInput {
    /// The input's machine code: hex decoded, bytes and blocks borrowed.
    fn bytes(&self) -> Result<Cow<'_, [u8]>, PredictError> {
        match self {
            BlockInput::Hex(h) => {
                let h = h.trim();
                hex::decode(h)
                    .filter(|b| !b.is_empty())
                    .map(Cow::Owned)
                    .ok_or_else(|| PredictError::BadHex {
                        input: h.to_string(),
                    })
            }
            BlockInput::Bytes(b) => Ok(Cow::Borrowed(b)),
            BlockInput::Block(b) => Ok(Cow::Borrowed(b.bytes())),
            BlockInput::Shared(b) => Ok(Cow::Borrowed(b.bytes())),
        }
    }

    /// The input's own spelling of its block: bytes for decoded and byte
    /// inputs, the trimmed string for hex. Equal keys are the same block;
    /// unequal spellings of one block merely compare unequal.
    fn key(&self) -> InputKey<'_> {
        match self {
            BlockInput::Block(b) => InputKey::Bytes(b.bytes()),
            BlockInput::Shared(b) => InputKey::Bytes(b.bytes()),
            BlockInput::Bytes(b) => InputKey::Bytes(b),
            BlockInput::Hex(h) => InputKey::Hex(h.trim()),
        }
    }

    /// The input rendered as hex (as supplied, without decoding).
    #[must_use]
    pub fn hex(&self) -> String {
        match self {
            BlockInput::Hex(h) => h.trim().to_lowercase(),
            BlockInput::Bytes(b) => hex::encode(b),
            BlockInput::Block(b) => b.to_hex(),
            BlockInput::Shared(b) => b.to_hex(),
        }
    }
}

/// One unit of batch work: a block on a microarchitecture, with an
/// optional fixed throughput notion (`None` = auto: loop iff the block
/// ends in a branch).
#[derive(Debug, Clone)]
pub struct BatchItem {
    /// The block.
    pub input: BlockInput,
    /// The microarchitecture to predict on.
    pub uarch: Uarch,
    /// Fixed notion, or `None` for auto-detection.
    pub mode: Option<Mode>,
    /// Explanation detail to request (default [`Detail::Brief`], which
    /// keeps the warm batch path allocation-free).
    pub detail: Detail,
}

impl BatchItem {
    /// An item from hex machine code with auto notion.
    #[must_use]
    pub fn hex(hex: impl Into<String>, uarch: Uarch) -> BatchItem {
        BatchItem {
            input: BlockInput::Hex(hex.into()),
            uarch,
            mode: None,
            detail: Detail::Brief,
        }
    }

    /// An item from a decoded block with auto notion.
    #[must_use]
    pub fn block(block: Block, uarch: Uarch) -> BatchItem {
        BatchItem {
            input: BlockInput::Block(block),
            uarch,
            mode: None,
            detail: Detail::Brief,
        }
    }

    /// An item from a shared decoded block with auto notion. Prefer this
    /// over [`BatchItem::block`] when the same block appears in many
    /// items: the engine shares the `Arc` instead of cloning the bytes.
    #[must_use]
    pub fn shared(block: Arc<Block>, uarch: Uarch) -> BatchItem {
        BatchItem {
            input: BlockInput::Shared(block),
            uarch,
            mode: None,
            detail: Detail::Brief,
        }
    }

    /// Fix the throughput notion.
    #[must_use]
    pub fn with_mode(mut self, mode: Mode) -> BatchItem {
        self.mode = Some(mode);
        self
    }

    /// Request an explanation detail level for this item's rows.
    #[must_use]
    pub fn with_detail(mut self, detail: Detail) -> BatchItem {
        self.detail = detail;
        self
    }
}

/// One row of batch output: the outcome of one `(item, predictor)` pair.
///
/// The string fields are `Arc<str>` so that fanning one item out over
/// many predictors (and one predictor over many rows) shares the
/// underlying allocations instead of cloning them per row.
#[derive(Debug, Clone)]
pub struct ItemResult {
    /// Index of the originating [`BatchItem`].
    pub item: usize,
    /// The block as hex (canonical if it decoded, as-supplied otherwise).
    pub block_hex: Arc<str>,
    /// The microarchitecture.
    pub uarch: Uarch,
    /// The resolved notion (`None` only when decoding failed before the
    /// notion could be determined).
    pub mode: Option<Mode>,
    /// Registry key of the predictor that produced this row.
    pub predictor: Arc<str>,
    /// The prediction, or the structured reason there is none.
    pub prediction: Result<Prediction, PredictError>,
}

/// Batch-planner counters: how much duplicate work the dedup stage
/// removed before it reached the predictors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlannerStats {
    /// Batch items planned (every item of every `run_batch` call).
    pub items: u64,
    /// Items that were duplicates of another item in the same batch
    /// (same bytes, uarch, notion, and detail) and were served by
    /// fanning out an already-computed prediction.
    pub deduped: u64,
}

/// Aggregate counters of the engine's memoization layers: the batch
/// planner's dedup stage, the per-engine two-level block cache (decoded
/// blocks + per-uarch annotations), the static descriptor tables'
/// coverage, and — when [`Engine::set_kernel_timing`] is on —
/// per-kernel wall-clock timing.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EngineStats {
    /// Batch-planner dedup counters.
    pub planner: PlannerStats,
    /// Block-level two-level cache counters (decode + annotate levels;
    /// all zero for an engine built [`Engine::without_cache`]).
    pub annotation: CacheStats,
    /// Generated-table coverage: annotations served from the compile-time
    /// static descriptor tables vs. the runtime-classifier fallback.
    pub static_tables: facile_isa::StaticTableStats,
    /// Per-kernel timing (all zero unless kernel timing is enabled),
    /// indexed by `Component as usize`.
    pub kernels: [Timing; facile_core::Component::ALL.len()],
}

impl EngineStats {
    /// Per-kernel timings paired with their components, skipping kernels
    /// that never ran (all of them, unless kernel timing is enabled).
    pub fn kernel_rows(&self) -> impl Iterator<Item = (facile_core::Component, Timing)> + '_ {
        facile_core::Component::ALL
            .into_iter()
            .map(|c| (c, self.kernels[c as usize]))
            .filter(|(_, t)| t.count > 0)
    }

    /// The canonical JSON object for these counters. The CLI's `--stats`
    /// trailer and the server's `stats` reply both print exactly this
    /// object, so the two spellings cannot drift.
    #[must_use]
    pub fn to_json(&self) -> String {
        let kernels: Vec<String> = self
            .kernel_rows()
            .map(|(c, k)| k.json_row("kernel", c.name()))
            .collect();
        let kernels = kernels.join(",");
        format!(
            "{{\"planner\":{{\"items\":{},\"deduped\":{}}},\
             \"block_cache\":{{\"decode_hits\":{},\"decode_misses\":{},\"annotate_hits\":{},\
             \"annotate_misses\":{},\"blocks\":{},\"annotations\":{},\"bytes\":{},\
             \"evictions\":{}}},\
             \"static_tables\":{{\"hits\":{},\"fallbacks\":{},\"coverage\":{:.4}}},\
             \"kernels\":[{kernels}]}}",
            self.planner.items,
            self.planner.deduped,
            self.annotation.decode_hits,
            self.annotation.decode_misses,
            self.annotation.hits,
            self.annotation.misses,
            self.annotation.blocks,
            self.annotation.entries,
            self.annotation.bytes,
            self.annotation.evictions,
            self.static_tables.hits,
            self.static_tables.fallbacks,
            self.static_tables.coverage(),
        )
    }
}

/// How a process-wide cache byte budget is split among the memoization
/// layers.
///
/// The split reflects per-entry weight: the annotation cache dominates
/// (whole decoded blocks plus per-uarch annotations, 85%), and the
/// remaining 15% is reserved for auxiliary caches (the external-predictor
/// result cache, when one is configured). The two shares sum to the
/// total, and each cache enforces its own share at every insert, so the
/// shares alone bound the accounted bytes: nothing re-checks their sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheBudget {
    /// Total budget across all member caches, in bytes.
    pub total: usize,
}

impl CacheBudget {
    /// A budget of `mb` mebibytes.
    #[must_use]
    pub fn from_total_mb(mb: usize) -> CacheBudget {
        CacheBudget { total: mb << 20 }
    }

    /// Byte cap for the engine's two-level annotation cache.
    #[must_use]
    pub fn annotation_capacity(&self) -> usize {
        self.total / 100 * 85 + self.total % 100
    }

    /// Byte cap reserved for auxiliary caches (external result cache).
    #[must_use]
    pub fn external_capacity(&self) -> usize {
        self.total / 100 * 15
    }
}

/// One prepared work unit: canonical hex, resolved notion, the shared
/// annotation (or the structured reason there is none), and the Brief
/// rows the cache kept for the unit's predictors.
struct Prepared {
    hex: Arc<str>,
    mode: Option<Mode>,
    annotated: Result<Arc<AnnotatedBlock>, PredictError>,
    briefs: Briefs,
}

/// The notion a unit is predicted at: the item's fixed one, else loop
/// iff the (non-empty) block ends in a branch.
pub(crate) fn notion(fixed: Option<Mode>, ab: &AnnotatedBlock) -> Mode {
    fixed.unwrap_or(if ab.block().ends_in_branch() {
        Mode::Loop
    } else {
        Mode::Unrolled
    })
}

impl Prepared {
    /// A unit whose block could not be annotated: its rows carry the
    /// input as supplied and the requested notion.
    fn failed(item: &BatchItem, error: PredictError) -> Prepared {
        Prepared {
            hex: item.input.hex().into(),
            mode: item.mode,
            annotated: Err(error),
            briefs: Briefs::new(),
        }
    }

    /// A unit annotated as an `(annotation, hex)` pair, with the notion
    /// resolved from its (non-empty) block.
    fn new(item: &BatchItem, ((ab, hex), briefs): (WithHex<AnnotatedBlock>, Briefs)) -> Prepared {
        Prepared {
            hex,
            mode: Some(notion(item.mode, &ab)),
            annotated: Ok(ab),
            briefs,
        }
    }
}

/// What a worker carries along its chunk: the current unit's
/// representative item and preparation. Its block is held for the next
/// unit with the same input; it drops on the worker.
type Cursor = Option<(usize, Prepared)>;

/// A worker's state along its chunk: the cursor and the chunk's own
/// predictor keys.
type Worker = (Cursor, Vec<Arc<str>>);

/// The prediction engine: a predictor registry, a worker pool, and an
/// optional annotation cache.
///
/// `predict_batch` fans a batch out over `items × predictors` on `threads`
/// worker threads. Output is deterministic and ordered — row `k` is item
/// `k / P`, predictor `k % P` (registration order) — regardless of the
/// number of threads.
///
/// The cache is for callers that reuse work across calls (the server);
/// it keeps each resident unit's Brief rows too, so a repeated Brief
/// unit runs no model. A one-shot caller (`facile --batch`) builds its
/// engine [`Engine::without_cache`]. Rows are the same either way.
pub struct Engine {
    registry: PredictorRegistry,
    threads: usize,
    cache: Option<AnnotationCache>,
    dedup: bool,
    planned_items: AtomicU64,
    deduped_items: AtomicU64,
}

impl Engine {
    /// An engine over the given registry, with an annotation cache and
    /// one worker per available CPU (`std::thread::available_parallelism`).
    #[must_use]
    pub fn new(registry: PredictorRegistry) -> Engine {
        Engine {
            registry,
            threads: host_threads(),
            cache: Some(AnnotationCache::new()),
            dedup: true,
            planned_items: AtomicU64::new(0),
            deduped_items: AtomicU64::new(0),
        }
    }

    /// An engine with every built-in predictor registered.
    #[must_use]
    pub fn with_builtins() -> Engine {
        Engine::new(PredictorRegistry::with_builtins())
    }

    /// Set the worker count (`0` or `1` = run on the calling thread).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Engine {
        self.threads = threads.max(1);
        self
    }

    /// Drop the annotation cache, for one-shot callers: batches decode
    /// and annotate directly and free each annotation on its worker. The
    /// `block_cache` counters of [`Engine::snapshot`] then read 0.
    #[must_use]
    pub fn without_cache(mut self) -> Engine {
        self.cache = None;
        self
    }

    /// Enable or disable the batch planner's dedup stage (on by
    /// default). Rows are bit-identical either way — duplicate items are
    /// served by fanning one computed prediction out — so this switch
    /// exists for the equivalence tests and for perf comparisons.
    #[must_use]
    pub fn with_dedup(mut self, dedup: bool) -> Engine {
        self.dedup = dedup;
        self
    }

    /// The registry.
    #[must_use]
    pub fn registry(&self) -> &PredictorRegistry {
        &self.registry
    }

    /// Mutable access to the registry (to register custom predictors).
    pub fn registry_mut(&mut self) -> &mut PredictorRegistry {
        &mut self.registry
    }

    /// One consistent snapshot of every engine counter: batch-planner
    /// dedup, the two-level annotation cache, the static descriptor
    /// tables' coverage, and (when enabled) per-kernel timing.
    ///
    /// This is the *only* way counters leave the engine — the CLI's
    /// `--stats` output and the server's `stats` reply both render this
    /// snapshot (via [`EngineStats::to_json`]), so the two views can
    /// never drift apart.
    pub fn snapshot(&self) -> EngineStats {
        EngineStats {
            planner: PlannerStats {
                items: self.planned_items.load(Ordering::Relaxed),
                deduped: self.deduped_items.load(Ordering::Relaxed),
            },
            annotation: self
                .cache
                .as_ref()
                .map(AnnotationCache::stats)
                .unwrap_or_default(),
            static_tables: facile_isa::static_table_stats(),
            kernels: facile_core::timing::snapshot(),
        }
    }

    /// Turn per-kernel and annotation-pass wall-clock accounting on or
    /// off (process-wide; see `facile_util::timing`). Off by default:
    /// timing adds two clock reads per kernel invocation, which the
    /// batch hot path doesn't pay unless asked to.
    pub fn set_kernel_timing(enabled: bool) {
        facile_util::timing::set_enabled(enabled);
    }

    /// Drop all cached annotations and Brief rows, if any.
    pub fn clear_cache(&self) {
        if let Some(cache) = &self.cache {
            cache.clear();
        }
    }

    /// The engine's two-level annotation cache (for inspecting its
    /// counters or resizing it), if it has one.
    #[must_use]
    pub fn cache(&self) -> Option<&AnnotationCache> {
        self.cache.as_ref()
    }

    /// Bound the engine's cache by `budget`: caps the annotation cache
    /// at its share. (An external predictor's result cache takes the
    /// external share; its owner caps it with
    /// [`crate::ExternalPredictor::set_cache_capacity`].)
    pub fn apply_cache_budget(&self, budget: &CacheBudget) {
        if let Some(cache) = &self.cache {
            cache.set_capacity(budget.annotation_capacity());
        }
    }

    /// The worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Annotate through the engine's cache, or directly without one.
    pub fn annotate(&self, block: &Block, uarch: Uarch) -> Arc<AnnotatedBlock> {
        match &self.cache {
            Some(cache) => cache.annotate(block, uarch),
            None => Arc::new(AnnotatedBlock::new(block.clone(), uarch)),
        }
    }

    /// Predict one block with one predictor (by key), at
    /// [`Detail::Brief`]: the returned prediction carries the throughput
    /// and bottleneck but no `explanation` payload. To get a typed
    /// explanation, build a [`BatchItem`] with
    /// [`BatchItem::with_detail`] and run it through
    /// [`Engine::predict_batch`] (or call `facile_core::Facile::explain`
    /// directly on [`Engine::annotate`]'s output).
    ///
    /// This runs through the same batch pass as
    /// [`Engine::predict_batch`], so single-block calls hit (and warm)
    /// the same annotation cache as batch runs.
    ///
    /// # Errors
    /// Unknown key, undecodable/empty block, or a predictor failure.
    pub fn predict_one(
        &self,
        block: &Block,
        uarch: Uarch,
        mode: Mode,
        key: &str,
    ) -> Result<Prediction, PredictError> {
        let p = self
            .registry
            .get(key)
            .ok_or_else(|| PredictError::UnknownPredictor {
                pattern: key.to_string(),
                available: self.registry.keys().map(str::to_string).collect(),
            })?;
        let item = BatchItem::block(block.clone(), uarch).with_mode(mode);
        let mut rows = self.run_batch(std::slice::from_ref(&item), std::slice::from_ref(&p));
        rows.pop()
            .expect("one item × one predictor = one row")
            .prediction
    }

    /// Run a batch: every item against every predictor the `selector`
    /// resolves to (comma-separated keys / glob patterns).
    ///
    /// Per-item failures (bad hex, unsupported opcodes, untrained models)
    /// are reported in the corresponding rows; only an unresolvable
    /// selector fails the whole call.
    ///
    /// # Errors
    /// [`PredictError::UnknownPredictor`] if the selector matches nothing.
    pub fn predict_batch(
        &self,
        items: &[BatchItem],
        selector: &str,
    ) -> Result<Vec<ItemResult>, PredictError> {
        let predictors = self.registry.resolve(selector)?;
        Ok(self.run_batch(items, &predictors))
    }

    /// Run a batch against explicitly resolved predictors.
    ///
    /// The batch is *planned* first: items that are exact duplicates —
    /// same block bytes (or raw input string), microarchitecture, notion,
    /// and detail — collapse to one unit of work, predicted once and
    /// fanned back out to every requesting row. Rows keep their exact
    /// positions and are bit-identical with the dedup stage on or off
    /// (predictions are pure functions of the unit).
    ///
    /// Then one order-preserving pass maps units × predictors over the
    /// worker pool. A worker prepares a unit (decode, notion, annotation)
    /// at its first index (`Engine::prepare`) and drops it when it
    /// moves on. A unit reuses the block its worker held for the previous
    /// one when the input is the same, so a block's run of uarchs decodes
    /// once into one dataflow.
    pub fn run_batch(
        &self,
        items: &[BatchItem],
        predictors: &[Arc<dyn Predictor>],
    ) -> Vec<ItemResult> {
        // `item_unit[i]` is the work unit of item `i`; `units[u]` is the
        // representative item index.
        let (units, item_unit, unit_refs) = self.plan(items);
        let np = predictors.len();
        // On large jobs a block's units (its uarchs, in plan order) are
        // dealt to one worker in a row, which then decodes the block once
        // and reuses its memoized bounds.
        let same_block = |u: usize| items[units[u]].input.key() == items[units[u - 1]].input.key();
        let joins = |k: usize| !k.is_multiple_of(np) || same_block(k / np);
        let n = units.len() * np;
        // Each chunk spells the predictor keys its rows carry on its
        // own: one shared `Arc` per key would be a reference count that
        // every worker writes on every row.
        let rows = parallel_map_with(n, self.threads, joins, |state: &mut Worker, k| {
            let (cur, keys) = state;
            if keys.is_empty() {
                keys.extend(predictors.iter().map(|p| Arc::<str>::from(p.key())));
            }
            let (i, j) = (units[k / np], k % np);
            let item = &items[i];
            if !matches!(cur, Some((h, _)) if *h == i) {
                *cur = Some((i, self.prepare(items, i, predictors, cur.take())));
            }
            let Some((_, prep)) = cur else {
                unreachable!("the unit was just prepared")
            };
            ItemResult {
                item: i,
                block_hex: Arc::clone(&prep.hex),
                uarch: item.uarch,
                mode: prep.mode,
                predictor: Arc::clone(&keys[j]),
                prediction: self.predict_row(prep, &predictors[j], j, item.detail),
            }
        });
        if units.len() == items.len() {
            // Every item is its own unit, in item order.
            return rows;
        }
        // Fan the unit rows back out to the requesting items, in exact
        // (item, predictor) order. A unit referenced once moves its row;
        // shared units clone.
        let mut rows: Vec<Option<ItemResult>> = rows.into_iter().map(Some).collect();
        (0..items.len() * np)
            .map(|k| {
                let (i, j) = (k / np, k % np);
                let u = item_unit[i] as usize;
                let slot = &mut rows[u * np + j];
                let mut row = if unit_refs[u] == 1 {
                    slot.take().expect("sole consumer of this unit row")
                } else {
                    slot.clone().expect("kept for shared consumers")
                };
                row.item = i;
                row
            })
            .collect()
    }

    /// The planner: collapse duplicate items to work units. Returns
    /// `(units, item_unit, unit_refs)` — representative item index per
    /// unit, unit index per item, and per-unit reference counts.
    fn plan(&self, items: &[BatchItem]) -> (Vec<usize>, Vec<u32>, Vec<u32>) {
        self.planned_items
            .fetch_add(items.len() as u64, Ordering::Relaxed);
        let mut units: Vec<usize> = Vec::with_capacity(items.len());
        let mut item_unit: Vec<u32> = Vec::with_capacity(items.len());
        let mut unit_refs: Vec<u32> = Vec::with_capacity(items.len());
        if !self.dedup {
            units.extend(0..items.len());
            item_unit.extend(0..items.len() as u32);
            unit_refs.extend(std::iter::repeat_n(1, items.len()));
            return (units, item_unit, unit_refs);
        }
        // Key on the *input* representation (bytes for decoded/byte
        // inputs, the trimmed string for hex): equal inputs are equal
        // work by construction, and unequal spellings of the same block
        // merely miss a dedup opportunity (the block cache still shares
        // the decode). The keys are the caller's bytes, so the map keeps
        // the standard, randomly keyed hasher: FxHash collisions can be
        // solved for, and 32,768 colliding items would plan in quadratic
        // time (`tests/planner_linear_time.rs`).
        let mut seen: HashMap<PlanKey<'_>, u32> = HashMap::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let u = *seen.entry(PlanKey::new(item)).or_insert_with(|| {
                units.push(i);
                unit_refs.push(0);
                (units.len() - 1) as u32
            });
            unit_refs[u as usize] += 1;
            item_unit.push(u);
        }
        self.deduped_items
            .fetch_add((items.len() - units.len()) as u64, Ordering::Relaxed);
        (units, item_unit, unit_refs)
    }

    /// Prepare the unit represented by item `i`, with the cache or
    /// without one, in the four steps of the module doc; `held` is the
    /// worker's previous unit, whose block is reused when the input is
    /// the same. A Brief unit asks the cache for its `predictors`' kept
    /// rows. Panics are contained per unit: a decoder or annotator
    /// blowing up on one weird block costs exactly that unit's rows,
    /// never the batch (or, in the server, the process).
    fn prepare(
        &self,
        items: &[BatchItem],
        i: usize,
        predictors: &[Arc<dyn Predictor>],
        held: Cursor,
    ) -> Prepared {
        let item = &items[i];
        let wanted = match item.detail {
            Detail::Brief => Wanted {
                predictors,
                mode: item.mode,
            },
            _ => Wanted::NOTHING,
        };
        let held = held
            .filter(|(h, _)| items[*h].input.key() == item.input.key())
            .and_then(|(_, prep)| Some((Arc::clone(prep.annotated.ok()?.dataflow()), prep.hex)));
        catch_unwind(AssertUnwindSafe(|| {
            let bytes = match &held {
                Some((dataflow, _)) => Cow::Borrowed(dataflow.block().bytes()),
                None => item.input.bytes()?,
            };
            if bytes.is_empty() {
                return Err(PredictError::EmptyBlock);
            }
            let cache = self.cache.as_ref();
            cache::get_or_annotate(cache, bytes, item.uarch, wanted, |bytes| {
                let block = match (&held, &item.input) {
                    (Some((dataflow, hex)), _) => {
                        return Ok((Arc::clone(dataflow), Arc::clone(hex)))
                    }
                    (None, BlockInput::Block(b)) => Arc::new(b.clone()),
                    (None, BlockInput::Shared(b)) => Arc::clone(b),
                    (None, BlockInput::Hex(h)) => decode(bytes, || h.trim().to_string())?,
                    (None, BlockInput::Bytes(b)) => decode(bytes, || hex::encode(b))?,
                };
                Ok(cache::dataflow_of(block))
            })
        }))
        .unwrap_or_else(|payload| {
            let payload = panic_payload(&*payload);
            Err(PredictError::Panicked { payload })
        })
        .map_or_else(
            |e| Prepared::failed(item, e),
            |annotated| Prepared::new(item, annotated),
        )
    }

    /// The row of predictor `j` on a prepared unit: its kept Brief row
    /// when the cache has one, else a prediction, which the cache then
    /// keeps if it is an `Ok` Brief row of a memoizable predictor.
    fn predict_row(
        &self,
        prep: &Prepared,
        predictor: &Arc<dyn Predictor>,
        j: usize,
        detail: Detail,
    ) -> Result<Prediction, PredictError> {
        let ab = match &prep.annotated {
            Ok(ab) => ab,
            Err(e) => return Err(e.clone()),
        };
        let mode = prep.mode.expect("annotated units have a resolved mode");
        let kept = prep.briefs.as_slice().get(j).copied().flatten();
        let row = predict_contained(&**predictor, ab, mode, detail, kept);
        if let (None, Some(cache), Ok(p)) = (kept, &self.cache, &row) {
            if detail == Detail::Brief && predictor.memoizable() {
                if let Some(brief) = Brief::of(p) {
                    cache.memoize(ab, predictor, mode, brief);
                }
            }
        }
        row
    }
}

/// Decode machine code behind the decode fault point (the only decode
/// site), handing owned bytes (a decoded hex input) to the block;
/// `input` spells the block for the error.
fn decode(
    bytes: Cow<'_, [u8]>,
    input: impl FnOnce() -> String,
) -> Result<Arc<Block>, PredictError> {
    facile_faults::maybe_panic(Point::DecodePanic, &bytes);
    Block::decode(bytes)
        .map(Arc::new)
        .map_err(|source| PredictError::Decode {
            input: input(),
            source,
        })
}

/// One prediction of an annotated unit, behind the predict fault points
/// and its own panic containment: a panicking predictor yields one
/// `internal-panic` row. A `kept` Brief row answers after the fault
/// points, in place of the predictor.
fn predict_contained(
    predictor: &dyn Predictor,
    ab: &AnnotatedBlock,
    mode: Mode,
    detail: Detail,
    kept: Option<Brief>,
) -> Result<Prediction, PredictError> {
    catch_unwind(AssertUnwindSafe(|| {
        let bytes = ab.block().bytes();
        if let Some(delay) = facile_faults::slow_predict_delay(bytes) {
            std::thread::sleep(delay);
        }
        if facile_faults::decide(Point::PredictError, bytes) {
            let point = Point::PredictError.name().to_string();
            return Err(PredictError::Injected { point });
        }
        facile_faults::maybe_panic(Point::PredictPanic, bytes);
        match kept {
            Some(brief) => Ok(brief.prediction()),
            None => predictor.predict(&PredictRequest::new(ab, mode).with_detail(detail)),
        }
    }))
    .unwrap_or_else(|payload| {
        let payload = panic_payload(&*payload);
        Err(PredictError::Panicked { payload })
    })
}

/// Render a caught panic payload for [`PredictError::Panicked`] (also
/// used by the server's batch-level containment). `panic!` with a
/// literal carries `&str`, with a format string carries `String`;
/// anything else is opaque.
pub fn panic_payload(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(ToString::to_string))
        .unwrap_or_else(|| "opaque panic payload".to_string())
}

/// The host's available parallelism (used to size worker pools).
#[must_use]
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Upper bound on the contiguous chunk of indices handed to a worker at
/// once: big enough to amortize the per-chunk bookkeeping on large
/// batches, while small jobs shrink the chunk (down to one index) so a
/// handful of expensive items still spreads across the pool.
const PAR_CHUNK: usize = 32;

/// Jobs smaller than this run inline: thread spawning costs more than
/// the work distribution can win back.
const PAR_MIN: usize = 8;

/// Order-preserving parallel map over `0..n` with a bounded pool of
/// scoped worker threads. This is the engine's worker pool; it is
/// exported so harness code can share the implementation instead of
/// duplicating it.
///
/// Work is dealt as contiguous chunks claimed off an atomic counter, and
/// each worker writes its chunk through a disjoint `&mut` slice of the
/// output. Batches that are too small to amortize thread spawning (or
/// `threads <= 1`) run inline on the calling thread; either way the
/// output is identical, element `i` being exactly `f(i)`.
pub fn parallel_map_indexed<U: Send>(
    n: usize,
    threads: usize,
    f: impl Fn(usize) -> U + Sync,
) -> Vec<U> {
    parallel_map_with(n, threads, |_| false, |(): &mut (), k| f(k))
}

/// [`parallel_map_indexed`] whose `f` also gets a state carried from one
/// index to the next within a chunk (or the inline job): it starts as
/// `S::default()` and drops, on its worker, when the chunk ends. On jobs
/// large enough to fill every worker's chunks at full size, it never
/// deals index `k` (`k >= 1`) to a different chunk than `k - 1` where
/// `joins(k)` holds, so a run of joined indices is mapped by one worker,
/// in order. Chunks grow past their target size to the end of such a
/// run. Smaller jobs ignore `joins`: their chunks shrink to spread few
/// items over the pool, and a grown chunk would leave workers idle.
fn parallel_map_with<S: Default, U: Send>(
    n: usize,
    threads: usize,
    joins: impl Fn(usize) -> bool,
    f: impl Fn(&mut S, usize) -> U + Sync,
) -> Vec<U> {
    // Chunk size adapts to the job: aim for ~4 chunks per worker (for
    // load balancing on uneven items) but never exceed PAR_CHUNK.
    let target = n.div_ceil(threads.max(1) * 4);
    let (chunk, group) = (target.clamp(1, PAR_CHUNK), target >= PAR_CHUNK);
    let threads = threads.min(n.div_ceil(chunk));
    if threads <= 1 || n < PAR_MIN {
        let mut state = S::default();
        return (0..n).map(|k| f(&mut state, k)).collect();
    }
    // A chunk of the output: the base index plus the disjoint window of
    // slots the owning worker fills.
    type Chunk<'a, U> = PoisonlessMutex<(usize, &'a mut [Option<U>])>;
    let mut out: Vec<Option<U>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    {
        // Disjoint output windows, one per chunk. The Mutex is claimed
        // exactly once, by the worker that pops the chunk's index.
        let mut chunks: Vec<Chunk<'_, U>> = Vec::with_capacity(n.div_ceil(chunk));
        let (mut base, mut rest) = (0, out.as_mut_slice());
        while !rest.is_empty() {
            let mut len = chunk.min(rest.len());
            while group && len < rest.len() && joins(base + len) {
                len += 1;
            }
            let (window, tail) = rest.split_at_mut(len);
            chunks.push(PoisonlessMutex::new((base, window)));
            (base, rest) = (base + len, tail);
        }
        let next = AtomicUsize::new(0);
        let work = || loop {
            let ci = next.fetch_add(1, Ordering::Relaxed);
            let Some(chunk) = chunks.get(ci) else { break };
            let mut guard = chunk.lock();
            let (base, slice) = &mut *guard;
            let mut state = S::default();
            for (off, slot) in slice.iter_mut().enumerate() {
                *slot = Some(f(&mut state, *base + off));
            }
        };
        // The calling thread is one of the workers: it would only wait.
        std::thread::scope(|s| {
            for _ in 1..threads {
                s.spawn(work);
            }
            work();
        });
    }
    out.into_iter().map(|s| s.expect("chunk filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn joined_runs_stay_on_one_worker_in_order() {
        // Runs of nine, like a nine-uarch sweep: the default chunk (32) is
        // not a multiple of the run length.
        let out = parallel_map_with(
            900,
            4,
            |k| k % 9 != 0,
            |(): &mut (), k| (k, std::thread::current().id()),
        );
        assert!(out.iter().enumerate().all(|(i, &(k, _))| i == k));
        for k in (1..900).filter(|k| k % 9 != 0) {
            assert_eq!(out[k].1, out[k - 1].1, "index {k} left its run's worker");
        }
    }

    #[test]
    fn small_jobs_ignore_joins_and_use_the_pool() {
        // A one-block sweep: nine joined items on eight threads. Items 0
        // and 1 each wait for the other to start, which only two workers
        // can do; one grown chunk would time them out.
        let started = AtomicUsize::new(0);
        let out = parallel_map_with(
            9,
            8,
            |_| true,
            |(): &mut (), k| {
                if k < 2 {
                    started.fetch_add(1, Ordering::SeqCst);
                    let t0 = std::time::Instant::now();
                    while started.load(Ordering::SeqCst) < 2 && t0.elapsed().as_secs() < 10 {
                        std::thread::yield_now();
                    }
                }
                started.load(Ordering::SeqCst) >= 2
            },
        );
        assert!(out[0] && out[1], "items 0 and 1 ran on one worker");
    }
}
