//! Shared per-row batch dispatch for the sketch update kernels.
//!
//! Every bucketed sketch's `update_batch{,_counts}` faces the same decision
//! once per row: when the row's families are Carter–Wegman polynomials
//! (`poly_coeffs()` exposes the seeds), hand the whole batch to the fused
//! scatter kernels in `sss_xi` — one pass, shared lane evaluation, runtime
//! CPU dispatch — and otherwise fall back to a stack-buffered
//! `sign_batch`/`bucket_batch` loop that works for any family. This
//! dispatch used to be copy-pasted across `fagms.rs` and `countmin.rs`
//! (and mirrored in `agms.rs` through the family sum kernels); it lives
//! here exactly once now.
//!
//! Every helper inherits the kernels' bit-identity contract: the scatter
//! helpers leave the counter row byte-identical to the per-key
//! `counters[bucket] += sign·count` loop, and `signed_row_slots` writes
//! exactly the per-key `sign(k)` and `bucket(k, width)` values.

use crate::BATCH_CHUNK;
use sss_xi::{BucketFamily, Dispatch, SignFamily};

/// F-AGMS row, unit counts: `row[bucket(k)] += sign(k)` for every key.
pub(crate) fn signed_row_keys<S: SignFamily, B: BucketFamily>(
    sign: &S,
    bucket: &B,
    width: usize,
    keys: &[u64],
    row_counters: &mut [i64],
) {
    if let (Some(sc), Some(bc)) = (sign.poly_coeffs(), bucket.poly_coeffs()) {
        sss_xi::signed_scatter(sc, bc, width, keys, row_counters);
        return;
    }
    let mut signs = [0i64; BATCH_CHUNK];
    let mut buckets = [0usize; BATCH_CHUNK];
    for chunk in keys.chunks(BATCH_CHUNK) {
        let signs = &mut signs[..chunk.len()];
        let buckets = &mut buckets[..chunk.len()];
        sign.sign_batch(chunk, signs);
        bucket.bucket_batch(chunk, width, buckets);
        for (&b, &s) in buckets.iter().zip(signs.iter()) {
            row_counters[b] += s;
        }
    }
}

/// F-AGMS row, carried counts: `row[bucket(k)] += c·sign(k)` per pair.
pub(crate) fn signed_row_items<S: SignFamily, B: BucketFamily>(
    sign: &S,
    bucket: &B,
    width: usize,
    items: &[(u64, i64)],
    row_counters: &mut [i64],
) {
    if let (Some(sc), Some(bc)) = (sign.poly_coeffs(), bucket.poly_coeffs()) {
        sss_xi::signed_scatter_counts(sc, bc, width, items, row_counters);
        return;
    }
    let mut keys = [0u64; BATCH_CHUNK];
    let mut signs = [0i64; BATCH_CHUNK];
    let mut buckets = [0usize; BATCH_CHUNK];
    for chunk in items.chunks(BATCH_CHUNK) {
        let keys = &mut keys[..chunk.len()];
        for (k, &(key, _)) in keys.iter_mut().zip(chunk) {
            *k = key;
        }
        let signs = &mut signs[..chunk.len()];
        let buckets = &mut buckets[..chunk.len()];
        sign.sign_batch(keys, signs);
        bucket.bucket_batch(keys, width, buckets);
        for ((&b, &s), &(_, c)) in buckets.iter().zip(signs.iter()).zip(chunk.iter()) {
            row_counters[b] += s * c;
        }
    }
}

/// F-AGMS row, hashes only: `signs[i] = sign(keys[i])` and
/// `slots[i] = bucket(keys[i])`, for callers that apply each key's update
/// themselves (the top-k path reads a key's counters between updates).
pub(crate) fn signed_row_slots<S: SignFamily, B: BucketFamily>(
    sign: &S,
    bucket: &B,
    width: usize,
    keys: &[u64],
    signs: &mut [i64],
    slots: &mut [usize],
) {
    if let (Some(sc), Some(bc)) = (sign.poly_coeffs(), bucket.poly_coeffs()) {
        sss_xi::kernels::signed_slots(Dispatch::get(), sc, bc, width, keys, signs, slots);
        return;
    }
    sign.sign_batch(keys, signs);
    bucket.bucket_batch(keys, width, slots);
}

/// Count-Min row, unit counts: `row[bucket(k)] += 1` for every key.
pub(crate) fn bucket_row_keys<B: BucketFamily>(
    bucket: &B,
    width: usize,
    keys: &[u64],
    row_counters: &mut [i64],
) {
    if let Some(bc) = bucket.poly_coeffs() {
        sss_xi::bucket_scatter(bc, width, keys, row_counters);
        return;
    }
    let mut buckets = [0usize; BATCH_CHUNK];
    for chunk in keys.chunks(BATCH_CHUNK) {
        let buckets = &mut buckets[..chunk.len()];
        bucket.bucket_batch(chunk, width, buckets);
        for &b in buckets.iter() {
            row_counters[b] += 1;
        }
    }
}

/// Count-Min row, carried counts: `row[bucket(k)] += c` per pair.
pub(crate) fn bucket_row_items<B: BucketFamily>(
    bucket: &B,
    width: usize,
    items: &[(u64, i64)],
    row_counters: &mut [i64],
) {
    if let Some(bc) = bucket.poly_coeffs() {
        sss_xi::bucket_scatter_counts(bc, width, items, row_counters);
        return;
    }
    let mut keys = [0u64; BATCH_CHUNK];
    let mut buckets = [0usize; BATCH_CHUNK];
    for chunk in items.chunks(BATCH_CHUNK) {
        let keys = &mut keys[..chunk.len()];
        for (k, &(key, _)) in keys.iter_mut().zip(chunk) {
            *k = key;
        }
        let buckets = &mut buckets[..chunk.len()];
        bucket.bucket_batch(keys, width, buckets);
        for (&b, &(_, c)) in buckets.iter().zip(chunk.iter()) {
            row_counters[b] += c;
        }
    }
}
