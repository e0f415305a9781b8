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

use facile_util::SlruCache;
use std::time::Instant;

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

/// Seconds to fill `reps` fresh caches with `keys`.
fn fill_secs(keys: &[Vec<u8>], reps: u32) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        let cache: SlruCache<Vec<u8>, u32> = SlruCache::new("probe", usize::MAX);
        for (i, k) in keys.iter().enumerate() {
            cache.insert(k.clone(), i as u32);
        }
        assert_eq!(cache.len(), keys.len(), "every key is distinct");
    }
    t.elapsed().as_secs_f64()
}

#[test]
fn colliding_low_bits_fill_the_cache_in_linear_time() {
    let (small, large) = (keys(4096), keys(32_768));
    // Minimum of five samples each. The small fill is timed eight times
    // over, so both samples last about as long, and the two sizes
    // alternate, so a stretch of host load is as likely to slow either.
    let (mut t_small, mut t_large) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        t_small = t_small.min(fill_secs(&small, 8) / 8.0);
        t_large = t_large.min(fill_secs(&large, 1));
    }
    let ratio = t_large / t_small;
    assert!(
        ratio <= 30.0,
        "32768 keys took {t_large:.6} s, 4096 took {t_small:.6} s: ratio {ratio:.1} > 30"
    );
}
