//! Candidate selection: top-k search and threshold filtering (paper §4.2).
//!
//! After the Screener produces approximate logits `z̃`, ENMC selects the most
//! important `m` values ("candidates") either by top-m search (software
//! path) or by comparing against a preloaded threshold (the hardware FILTER
//! instruction backed by a comparator array, paper §5.2). Both are provided
//! here, plus a helper that calibrates a threshold to hit a target candidate
//! count on a validation set — the paper notes "the threshold value can be
//! tuned on validation sets".

/// A selected candidate: category index plus its approximate score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Category index in `[0, l)`.
    pub index: usize,
    /// The approximate (screening) logit that triggered selection.
    pub score: f32,
}

/// Returns the indices of the `k` largest values, sorted by descending
/// value (ties broken by lower index first).
///
/// NaN ranks as `-inf` and `-0.0` equals `+0.0`. If `k >= values.len()` all
/// indices are returned.
///
/// This is an exact buffered selection — the software analogue of the
/// comparator array. Each value is packed with its index into one `u64`
/// key whose integer order is the output order. Keys collect in a buffer of
/// `2·max(k, 16)`; a full buffer is cut to its best `k` by a partial
/// selection, and the `k`-th best value becomes a floor that every later
/// value must strictly exceed to enter (a later index never wins a tie);
/// blocks of sixteen values are tested against the floor at once. Memory
/// is O(k) and time O(l) plus O(k log k) for the final sort.
pub fn top_k_indices(values: &[f32], k: usize) -> Vec<usize> {
    let k = k.min(values.len());
    if k == 0 {
        return Vec::new();
    }
    if u32::try_from(values.len() - 1).is_err() {
        // Indices no longer fit the key's low half.
        return top_k_sorted(values, k);
    }
    let cap = 2 * k.max(16);
    let head = values.len().min(cap);
    let mut keys = Vec::with_capacity(head);
    keys.extend(values[..head].iter().enumerate().map(|(i, &v)| key(v, i)));
    if values.len() > head {
        let mut floor = keep_best(&mut keys, k);
        for (b, block) in values[head..].chunks(16).enumerate() {
            // Most blocks hold no value above the floor: test them whole.
            if !block.iter().fold(false, |any, &v| any | (v > floor)) {
                continue;
            }
            for (i, &v) in (head + 16 * b..).zip(block) {
                if v > floor {
                    keys.push(key(v, i));
                    if keys.len() == cap {
                        floor = keep_best(&mut keys, k);
                    }
                }
            }
        }
    }
    if keys.len() > k {
        keep_best(&mut keys, k);
    }
    keys.sort_unstable_by(|a, b| b.cmp(a));
    keys.into_iter().map(|key| !(key as u32) as usize).collect()
}

/// Packs `v` and its index `i` into a key: the value's order-preserving
/// `u32` (NaN as `-inf`, `-0.0` as `+0.0`) in the high half and `!i` in the
/// low half, so a larger key is a larger value, then a lower index.
fn key(v: f32, i: usize) -> u64 {
    let bits = rank(v).to_bits();
    let ord = if bits >> 31 == 1 { !bits } else { bits | 1 << 31 };
    (u64::from(ord) << 32) | u64::from(!(i as u32))
}

/// The value `v` ranks as: NaN as `-inf`, and `-0.0` as `+0.0` (adding
/// `+0.0` changes no other value).
fn rank(v: f32) -> f32 {
    if v.is_nan() {
        f32::NEG_INFINITY
    } else {
        v + 0.0
    }
}

/// Inverse of [`key`]'s high half: the (NaN-free) value a key ranks by.
fn key_value(key: u64) -> f32 {
    let ord = (key >> 32) as u32;
    f32::from_bits(if ord >> 31 == 1 { ord & !(1 << 31) } else { !ord })
}

/// Cuts `keys` to its `k` largest (in any order, `1 <= k < keys.len()`)
/// and returns the value of the smallest kept key.
fn keep_best(keys: &mut Vec<u64>, k: usize) -> f32 {
    let (_, kth, _) = keys.select_nth_unstable_by(k - 1, |a, b| b.cmp(a));
    let floor = key_value(*kth);
    keys.truncate(k);
    floor
}

/// Reference selection by a full sort of the indices, in the same order as
/// [`top_k_indices`]; used where indices exceed `u32`.
fn top_k_sorted(values: &[f32], k: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| rank(values[b]).total_cmp(&rank(values[a])).then(a.cmp(&b)));
    order.truncate(k);
    order
}

/// The hardware FILTER semantics: every value strictly greater than
/// `threshold` becomes a candidate, in index order (the order the comparator
/// array emits them).
pub fn threshold_filter(values: &[f32], threshold: f32) -> Vec<Candidate> {
    values
        .iter()
        .enumerate()
        .filter(|&(_, &v)| v > threshold)
        .map(|(index, &score)| Candidate { index, score })
        .collect()
}

/// Calibrates a threshold such that, over the provided validation score
/// vectors, the *average* number of values above the threshold is at most
/// `target_candidates`.
///
/// Returns the calibrated threshold. With an empty validation set the
/// threshold is `f32::NEG_INFINITY` (select everything).
pub fn calibrate_threshold(validation: &[Vec<f32>], target_candidates: usize) -> f32 {
    if validation.is_empty() {
        return f32::NEG_INFINITY;
    }
    // Pool the per-sample scores that *would* be the m-th largest; the
    // average of those order statistics is a robust threshold.
    let mut cut_scores = Vec::with_capacity(validation.len());
    for scores in validation {
        let idx = top_k_indices(scores, target_candidates);
        if let Some(&last) = idx.last() {
            cut_scores.push(scores[last]);
        }
    }
    if cut_scores.is_empty() {
        return f32::NEG_INFINITY;
    }
    let sum: f64 = cut_scores.iter().map(|&x| x as f64).sum();
    // Slightly below the mean cut so the average count lands near the target
    // (strictly-greater filter semantics).
    (sum / cut_scores.len() as f64) as f32 - f32::EPSILON
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_k_basic() {
        let v = [0.1, 5.0, -2.0, 3.0, 4.0];
        assert_eq!(top_k_indices(&v, 3), vec![1, 4, 3]);
    }

    #[test]
    fn top_k_larger_than_len_returns_all_sorted() {
        let v = [1.0, 3.0, 2.0];
        assert_eq!(top_k_indices(&v, 10), vec![1, 2, 0]);
    }

    #[test]
    fn top_k_zero_and_empty() {
        assert!(top_k_indices(&[1.0], 0).is_empty());
        assert!(top_k_indices(&[], 3).is_empty());
    }

    #[test]
    fn top_k_ties_prefer_lower_index() {
        let v = [2.0, 2.0, 1.0, 2.0];
        assert_eq!(top_k_indices(&v, 2), vec![0, 1]);
    }

    #[test]
    fn top_k_ignores_nan() {
        let v = [f32::NAN, 1.0, 2.0];
        assert_eq!(top_k_indices(&v, 2), vec![2, 1]);
        // NaN ranks as -inf and -0.0 equals +0.0; with k = 4 the k-th
        // value is NaN, tied with every NaN and -inf for the last slot.
        let v = [-0.0, f32::NAN, 0.0, f32::NEG_INFINITY, -1.0, f32::NAN];
        assert_eq!(top_k_indices(&v, 6), vec![0, 2, 4, 1, 3, 5]);
        assert_eq!(top_k_indices(&v, 4), vec![0, 2, 4, 1]);
    }

    #[test]
    fn top_k_matches_a_full_sort() {
        let mut s = 1u64;
        let mut next = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s >> 33
        };
        let pool = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0, 1.0, -1.0, 2.5];
        for n in [1, 15, 16, 17, 31, 32, 33, 100, 1000] {
            // Few distinct values: long runs of ties, NaNs and zeros.
            let tied: Vec<f32> = (0..n).map(|_| pool[next() as usize % pool.len()]).collect();
            let spread: Vec<f32> = (0..n).map(|_| next() as f32 / 7.0 - 1e8).collect();
            let ascending: Vec<f32> = (0..n).map(|i| i as f32).collect();
            let descending: Vec<f32> = (0..n).rev().map(|i| i as f32).collect();
            // A NaN and -inf prefix: the first floor is -inf.
            let masked: Vec<f32> = (0..n)
                .map(|i| match i {
                    i if i < n * 3 / 4 && i % 2 == 0 => f32::NAN,
                    i if i < n * 3 / 4 => f32::NEG_INFINITY,
                    i => i as f32,
                })
                .collect();
            for values in [tied, spread, ascending, descending, masked] {
                for k in [1, 2, 10, 16, 17, 33, n / 2, n, n + 2] {
                    let want = top_k_sorted(&values, k.min(n));
                    assert_eq!(top_k_indices(&values, k), want, "n={n} k={k}");
                }
            }
        }
    }

    #[test]
    fn threshold_filter_strictly_greater() {
        let c = threshold_filter(&[0.5, 1.0, 1.5], 1.0);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].index, 2);
        assert_eq!(c[0].score, 1.5);
    }

    #[test]
    fn threshold_filter_emits_index_order() {
        let c = threshold_filter(&[5.0, -1.0, 7.0, 6.0], 0.0);
        let idx: Vec<usize> = c.iter().map(|c| c.index).collect();
        assert_eq!(idx, vec![0, 2, 3]);
    }

    #[test]
    fn calibrated_threshold_hits_target_on_average() {
        // 50 validation vectors of 100 scores each.
        let validation: Vec<Vec<f32>> = (0..50)
            .map(|s| (0..100).map(|i| ((i * 37 + s * 13) % 101) as f32 / 101.0).collect())
            .collect();
        let target = 10;
        let t = calibrate_threshold(&validation, target);
        let avg: f64 = validation
            .iter()
            .map(|v| threshold_filter(v, t).len() as f64)
            .sum::<f64>()
            / validation.len() as f64;
        assert!((avg - target as f64).abs() <= 3.0, "avg candidates {avg}");
    }

    #[test]
    fn calibrate_empty_selects_everything() {
        assert_eq!(calibrate_threshold(&[], 5), f32::NEG_INFINITY);
    }
}
