//! Filling an `SlruCache` takes time linear in the number of keys, even
//! when the keys are chosen to collide: inserting 32,768 keys takes at
//! most 30× as long as 4,096 of them (linear code gives 8×, plus cache
//! misses as the table outgrows the CPU caches).
//!
//! The keys are the encodings of `mov eax, imm32` whose immediates
//! differ only in their top two bytes. An unseeded multiplicative hash
//! such as FxHash, whose low bits depend only on the key's low bits,
//! puts them all in one bucket of a shard map; that gives about 44×
//! here. The caches keyed by instruction and block bytes are filled
//! from untrusted requests, so their maps must not degrade this way.

use facile_util::timing::{assert_ratio, Clock};
use facile_util::SlruCache;

/// `n` five-byte `mov eax, (i << 16)` encodings.
fn keys(n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| {
            let imm = u32::try_from(i << 16).expect("immediate fits in 32 bits");
            let mut key = vec![0xb8];
            key.extend_from_slice(&imm.to_le_bytes());
            key
        })
        .collect()
}

/// Fill a fresh cache with `keys`.
fn fill(keys: &[Vec<u8>]) {
    let cache: SlruCache<Vec<u8>, u32> = SlruCache::new(usize::MAX);
    for (i, k) in keys.iter().enumerate() {
        cache.insert(k.clone(), i as u32);
    }
    assert_eq!(cache.len(), keys.len(), "every key is distinct");
}

#[test]
fn colliding_low_bits_fill_the_cache_in_linear_time() {
    let (small, large) = (keys(4096), keys(32_768));
    // The small fill is timed eight times over.
    assert_ratio(
        Clock::Thread,
        "32768 keys vs 4096",
        30.0,
        (8, |_| fill(&small)),
        (1, |_| fill(&large)),
    );
}
