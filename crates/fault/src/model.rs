//! Seeded, deterministic bit-error models for approximate DRAM.
//!
//! Three EDEN-style error mechanisms compose into one [`FaultModel`]:
//!
//! * **Uniform BER** — every stored bit flips independently with
//!   probability `ber` on each read (transient channel noise).
//! * **Retention failures** — stretching the refresh interval by a
//!   multiplier `m` lets weak cells leak past the sense threshold before
//!   their next refresh. Each cell fails with probability
//!   `retention_base · (m − 1)²` (the super-linear tail of measured
//!   retention-time distributions); a failed cell is *stuck at* a
//!   per-cell polarity, so stored bits that already match the polarity
//!   are unaffected. The failed-cell map is **nested in `m`**: a cell
//!   that fails at `m₁` also fails at every `m₂ > m₁`.
//! * **Weak columns (reduced tRCD)** — shaving the activate-to-read
//!   timing margin makes a fraction of bit columns marginal; marginal
//!   bits sample incorrectly on ~half their reads.
//!
//! Every decision is a stateless [SplitMix64-finalizer] hash of
//! `(seed, mechanism tag, word address, bit index)` — no RNG streams, so
//! injection does not depend on iteration order, sharding, or worker
//! count, and a zero-rate model is exactly the identity.
//!
//! [SplitMix64-finalizer]: https://prng.di.unimi.it/splitmix64.c

/// Mechanism tags keep the three hash families independent.
const TAG_UNIFORM: u64 = 0x1;
const TAG_RETENTION_CELL: u64 = 0x2;
const TAG_RETENTION_POLARITY: u64 = 0x3;
const TAG_WEAK_COLUMN: u64 = 0x4;
const TAG_WEAK_SAMPLE: u64 = 0x5;

/// Default coefficient of the retention-failure probability curve.
pub const RETENTION_BASE: f64 = 2.0e-5;

/// Words per DRAM row for the weak-column geometry (1 KiB row / 8 B word).
const WORDS_PER_ROW: u64 = 128;

/// Multipliers of the tag, address and bit terms of a hash key.
const TAG_MUL: u64 = 0x9E37_79B9_7F4A_7C15;
const ADDR_MUL: u64 = 0xBF58_476D_1CE4_E5B9;
const BIT_MUL: u64 = 0x94D0_49BB_1331_11EB;

/// Bits of a (72,64) codeword: 64 data bits, then the 8 check bits.
const CODEWORD_BITS: usize = 72;

/// The bit term `bit · BIT_MUL` of every codeword bit's hash key.
const BIT_KEY: [u64; CODEWORD_BITS] = build_bit_keys();

const fn build_bit_keys() -> [u64; CODEWORD_BITS] {
    let mut out = [0u64; CODEWORD_BITS];
    let mut b = 0;
    while b < CODEWORD_BITS {
        out[b] = (b as u64).wrapping_mul(BIT_MUL);
        b += 1;
    }
    out
}

/// SplitMix64 finalizer.
#[inline(always)]
fn finalize(key: u64) -> u64 {
    let mut x = key;
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// The key of every hash at `(seed, tag, addr)`, before the bit term.
fn word_key(seed: u64, tag: u64, addr: u64) -> u64 {
    seed ^ tag.wrapping_mul(TAG_MUL) ^ addr.wrapping_mul(ADDR_MUL)
}

/// Stateless per-bit hash: SplitMix64 finalizer over a mixed key.
#[cfg(test)]
fn mix(seed: u64, tag: u64, addr: u64, bit: u32) -> u64 {
    finalize(word_key(seed, tag, addr) ^ BIT_KEY[bit as usize])
}

/// Uniform in `[0, 1)` from the top 53 bits of a hash.
#[cfg(test)]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The integer form of the test `unit(h) < p`: `h >> 11 < threshold(p)`.
///
/// Exact for every `p`: `h >> 11` is an integer below 2^53, so `unit`
/// converts and scales it by 2^-53 without rounding, and `p · 2^53` is
/// exact too, so `unit(h) < p` holds exactly when `h >> 11 < p · 2^53`,
/// that is, when `h >> 11 < ceil(p · 2^53)`. A `p` of zero, below zero or
/// NaN gives 0, which no hash passes; a `p` of 1 or more gives at least
/// 2^53, which every hash passes.
fn threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// Bits `b < N` of a word whose hash `finalize(key ^ BIT_KEY[b])` passes
/// `threshold`. This loop is where a channel spends its time.
#[inline(always)]
fn hashes_below<const N: usize>(key: u64, threshold: u64) -> u128 {
    let pass = |keys: &[u64]| {
        keys.iter().enumerate().fold(0u64, |mask, (b, &k)| {
            mask | u64::from(finalize(key ^ k) >> 11 < threshold) << b
        })
    };
    u128::from(pass(&BIT_KEY[..64])) | u128::from(pass(&BIT_KEY[64..N])) << 64
}

/// The bits of `bits` whose hash `finalize(key ^ BIT_KEY[b])` is odd.
#[inline(always)]
fn odd_hashes(key: u64, bits: u128) -> u128 {
    let mut rest = bits;
    let mut out = 0u128;
    while rest != 0 {
        let b = rest.trailing_zeros();
        out |= u128::from(finalize(key ^ BIT_KEY[b as usize]) & 1) << b;
        rest &= rest - 1;
    }
    out
}

/// A composed approximate-DRAM error model (all mechanisms seeded and
/// deterministic; see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FaultModel {
    /// Seed shared by all three hash families.
    pub seed: u64,
    /// Uniform per-bit flip probability per read.
    pub ber: f64,
    /// Refresh-interval stretch factor `m ≥ 1` (1 = nominal 64 ms, no
    /// retention failures).
    pub refresh_multiplier: f64,
    /// Coefficient of the retention curve `p_fail = base · (m − 1)²`.
    pub retention_base: f64,
    /// Fraction of bit columns that are tRCD-marginal (0 disables the
    /// weak-column mechanism).
    pub weak_column_frac: f64,
}

impl FaultModel {
    /// A model that injects nothing: zero BER, nominal refresh, no weak
    /// columns. Running it is exactly the identity on every word.
    pub fn nominal(seed: u64) -> Self {
        FaultModel {
            seed,
            ber: 0.0,
            refresh_multiplier: 1.0,
            retention_base: RETENTION_BASE,
            weak_column_frac: 0.0,
        }
    }

    /// Sets the uniform BER.
    ///
    /// # Panics
    ///
    /// Panics if `ber` is not in `[0, 1]`.
    pub fn with_ber(mut self, ber: f64) -> Self {
        assert!(ber.is_finite() && (0.0..=1.0).contains(&ber), "BER must be in [0,1], got {ber}");
        self.ber = ber;
        self
    }

    /// Sets the refresh-interval multiplier.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not finite or `m < 1`.
    pub fn with_refresh_multiplier(mut self, m: f64) -> Self {
        assert!(m.is_finite() && m >= 1.0, "refresh multiplier must be >= 1, got {m}");
        self.refresh_multiplier = m;
        self
    }

    /// Sets the retention-curve base coefficient — the memory-technology
    /// hook: each DRAM family sits on a different retention curve
    /// (`enmc_mem::ErrorProfile::retention_base`).
    ///
    /// # Panics
    ///
    /// Panics if `base` is not finite or negative.
    pub fn with_retention_base(mut self, base: f64) -> Self {
        assert!(base.is_finite() && base >= 0.0, "retention base must be >= 0, got {base}");
        self.retention_base = base;
        self
    }

    /// Sets the tRCD weak-column fraction.
    ///
    /// # Panics
    ///
    /// Panics if `frac` is not in `[0, 1]`.
    pub fn with_weak_columns(mut self, frac: f64) -> Self {
        assert!(
            frac.is_finite() && (0.0..=1.0).contains(&frac),
            "weak-column fraction must be in [0,1], got {frac}"
        );
        self.weak_column_frac = frac;
        self
    }

    /// Per-cell retention failure probability at the configured multiplier
    /// (0 at nominal refresh, capped at 0.5).
    pub fn retention_fail_prob(&self) -> f64 {
        let slack = (self.refresh_multiplier - 1.0).max(0.0);
        (self.retention_base * slack * slack).min(0.5)
    }

    /// `true` when no mechanism can flip a bit — the corruption pass is
    /// the identity and callers may skip it entirely.
    pub fn is_nominal(&self) -> bool {
        self.ber == 0.0 && self.retention_fail_prob() == 0.0 && self.weak_column_frac == 0.0
    }

    /// Corrupts a 64-bit word read from `addr`.
    ///
    /// Prepares a channel on every call: with weak columns on, that is
    /// 128 × 72 column hashes for one word. To corrupt many words, use
    /// [`crate::inject::corrupt_image`] or [`crate::inject::corrupt_matrix`],
    /// which prepare it once per image.
    pub fn corrupt_word(&self, addr: u64, data: u64) -> u64 {
        if self.is_nominal() {
            return data;
        }
        Channel::new(self).corrupt_word(addr, data)
    }

    /// Corrupts a full (72,64) codeword read from `addr`: the 64 data bits
    /// at bit indices `0..64` and the 8 parity-byte bits at `64..72` —
    /// check bits live in the same DRAM row and decay like everything else.
    ///
    /// Prepares a channel on every call, like [`FaultModel::corrupt_word`].
    pub fn corrupt_codeword(&self, addr: u64, data: u64, parity: u8) -> (u64, u8) {
        if self.is_nominal() {
            return (data, parity);
        }
        Channel::new(self).corrupt_codeword(addr, data, parity)
    }
}

/// A [`FaultModel`] prepared for one image: the model's constants worked
/// out once, and every word's bits decided together.
///
/// Bit-identical to deciding each bit on its own (the module docs): each
/// bit is still decided by the same hash of `(seed, tag, addr, bit)`,
/// each probability test is the same test in integer form
/// ([`threshold`]), and the mechanisms apply in the same order —
/// retention, then weak columns, then BER — as masks over the word.
pub(crate) struct Channel {
    seed: u64,
    /// [`threshold`] of the retention failure probability.
    retention: u64,
    /// [`threshold`] of the BER.
    ber: u64,
    /// The tRCD-marginal lanes of each column (word position within its
    /// DRAM row); empty when the mechanism is off.
    weak_lanes: Vec<u128>,
    /// Whether the CPU runs the AVX2 hash loop, detected once per channel.
    #[cfg(target_arch = "x86_64")]
    avx2: bool,
}

impl Channel {
    /// Prepares `model` for an image: its thresholds, its weak lanes
    /// (128 columns × 72 hashes, when the mechanism is on) and the CPU's
    /// hash loop.
    pub(crate) fn new(model: &FaultModel) -> Self {
        let weak = threshold(model.weak_column_frac);
        let weak_lanes = if weak == 0 {
            Vec::new()
        } else {
            (0..WORDS_PER_ROW)
                .map(|col| {
                    hashes_below::<CODEWORD_BITS>(word_key(model.seed, TAG_WEAK_COLUMN, col), weak)
                })
                .collect()
        };
        Channel {
            seed: model.seed,
            retention: threshold(model.retention_fail_prob()),
            ber: threshold(model.ber),
            weak_lanes,
            #[cfg(target_arch = "x86_64")]
            avx2: std::is_x86_feature_detected!("avx2"),
        }
    }

    /// [`FaultModel::corrupt_word`] on this channel.
    pub(crate) fn corrupt_word(&self, addr: u64, data: u64) -> u64 {
        self.corrupt::<64>(addr, u128::from(data)) as u64
    }

    /// [`FaultModel::corrupt_codeword`] on this channel.
    pub(crate) fn corrupt_codeword(&self, addr: u64, data: u64, parity: u8) -> (u64, u8) {
        let out = self.corrupt::<CODEWORD_BITS>(addr, u128::from(data) | u128::from(parity) << 64);
        (out as u64, (out >> 64) as u8)
    }

    /// The `N` low bits of `bits` read from `addr`, corrupted.
    fn corrupt<const N: usize>(&self, addr: u64, bits: u128) -> u128 {
        #[cfg(target_arch = "x86_64")]
        if self.avx2 {
            // SAFETY: `Channel::new` detected AVX2 on this CPU.
            return unsafe { self.corrupt_avx2::<N>(addr, bits) };
        }
        self.corrupt_bits::<N>(addr, bits)
    }

    /// [`Self::corrupt`] compiled with AVX2, where LLVM runs the 64-bit
    /// multiplies of [`hashes_below`] four lanes at a time.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn corrupt_avx2<const N: usize>(&self, addr: u64, bits: u128) -> u128 {
        self.corrupt_bits::<N>(addr, bits)
    }

    /// The scalar channel loop, also inlined into [`Self::corrupt_avx2`]
    /// as its AVX2 copy.
    #[inline(always)]
    fn corrupt_bits<const N: usize>(&self, addr: u64, bits: u128) -> u128 {
        const { assert!(N == 64 || N == CODEWORD_BITS) };
        let key = |tag| word_key(self.seed, tag, addr);
        let mut v = bits;
        // Retention: failed cells read as their stuck-at polarity. Only a
        // failed cell's polarity is ever hashed.
        if self.retention > 0 {
            let failed = hashes_below::<N>(key(TAG_RETENTION_CELL), self.retention);
            v = v & !failed | odd_hashes(key(TAG_RETENTION_POLARITY), failed);
        }
        // Reduced tRCD: marginal lanes sample wrong on ~half the reads.
        if let Some(&lanes) = self.weak_lanes.get((addr % WORDS_PER_ROW) as usize) {
            v ^= odd_hashes(key(TAG_WEAK_SAMPLE), lanes & (u128::MAX >> (128 - N)));
        }
        // Transient channel noise.
        if self.ber > 0 {
            v ^= hashes_below::<N>(key(TAG_UNIFORM), self.ber);
        }
        v
    }
}

/// The per-bit reference the channel must reproduce bit for bit.
#[cfg(test)]
impl FaultModel {
    /// Whether the retention cell at `(addr, bit)` has failed, and if so
    /// its stuck-at polarity. The failed-cell set is nested in the
    /// refresh multiplier by construction (`u < p(m)` with `p` monotone).
    fn retention_cell(&self, addr: u64, bit: u32) -> Option<bool> {
        let p = self.retention_fail_prob();
        if p > 0.0 && unit(mix(self.seed, TAG_RETENTION_CELL, addr, bit)) < p {
            Some(mix(self.seed, TAG_RETENTION_POLARITY, addr, bit) & 1 == 1)
        } else {
            None
        }
    }

    /// Corrupts one bit read from `(addr, bit)` holding `value`.
    fn corrupt_bit(&self, addr: u64, bit: u32, value: bool) -> bool {
        let mut v = value;
        // Retention: the stored charge decayed to the stuck polarity.
        if let Some(polarity) = self.retention_cell(addr, bit) {
            v = polarity;
        }
        // Reduced tRCD: marginal columns sample wrong on ~half the reads.
        // Column identity = (word position within the DRAM row, bit lane).
        if self.weak_column_frac > 0.0 {
            let col = addr % WORDS_PER_ROW;
            if unit(mix(self.seed, TAG_WEAK_COLUMN, col, bit)) < self.weak_column_frac
                && mix(self.seed, TAG_WEAK_SAMPLE, addr, bit) & 1 == 1
            {
                v = !v;
            }
        }
        // Transient channel noise.
        if self.ber > 0.0 && unit(mix(self.seed, TAG_UNIFORM, addr, bit)) < self.ber {
            v = !v;
        }
        v
    }

    /// The `n` low bits of `bits` read from `addr`, corrupted bit by bit.
    fn corrupt_bits_ref(&self, addr: u64, bits: u128, n: u32) -> u128 {
        (0..n).fold(0, |out, bit| {
            out | u128::from(self.corrupt_bit(addr, bit, bits >> bit & 1 == 1)) << bit
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::WEIGHTS_BASE_ADDR;

    /// One model per mechanism alone, all three together, and the edges:
    /// every bit flipped or weak, the retention cap, and probabilities
    /// below 2^-53 (threshold 1).
    fn model_grid(seed: u64) -> Vec<FaultModel> {
        let nominal = FaultModel::nominal(seed);
        vec![
            nominal.with_ber(1e-3),
            nominal.with_ber(0.05),
            nominal.with_ber(1.0),
            nominal.with_ber(1e-17),
            nominal.with_refresh_multiplier(8.0),
            nominal.with_refresh_multiplier(32.0),
            nominal.with_refresh_multiplier(1e3),
            nominal.with_retention_base(1e-17).with_refresh_multiplier(2.0),
            nominal.with_weak_columns(0.02),
            nominal.with_weak_columns(1.0),
            nominal.with_ber(0.01).with_refresh_multiplier(32.0).with_weak_columns(0.05),
        ]
    }

    #[test]
    fn channel_matches_the_per_bit_reference_on_both_hash_loops() {
        let data = [0u128, u128::MAX, 0x00A5_DEAD_BEEF_CAFE_F00D, 0x005A_0123_4567_89AB_CDEF];
        for seed in [1u64, 0xfa17] {
            for model in model_grid(seed) {
                let channel = Channel::new(&model);
                for addr in (0..260u64).chain(WEIGHTS_BASE_ADDR..WEIGHTS_BASE_ADDR + 4) {
                    for (i, &d) in data.iter().enumerate() {
                        let bits = d.rotate_left((addr as u32).wrapping_mul(7) + i as u32);
                        let want64 = model.corrupt_bits_ref(addr, bits, 64);
                        let want72 = model.corrupt_bits_ref(addr, bits, 72);
                        let low64 = bits & u128::from(u64::MAX);
                        let low72 = bits & (u128::MAX >> 56);
                        let what = format!("{model:?} addr {addr} bits {bits:#x}");
                        assert_eq!(channel.corrupt_bits::<64>(addr, low64), want64, "{what}");
                        assert_eq!(channel.corrupt_bits::<72>(addr, low72), want72, "{what}");
                        #[cfg(target_arch = "x86_64")]
                        if std::is_x86_feature_detected!("avx2") {
                            // SAFETY: AVX2 detected just above.
                            let (a64, a72) = unsafe {
                                (
                                    channel.corrupt_avx2::<64>(addr, low64),
                                    channel.corrupt_avx2::<72>(addr, low72),
                                )
                            };
                            assert_eq!(a64, want64, "{what}");
                            assert_eq!(a72, want72, "{what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn integer_threshold_is_the_float_test_at_its_boundary() {
        let mut h = 0x1234_5678_u64;
        let mut probes: Vec<f64> =
            vec![0.0, -0.0, -1.0, f64::NAN, 1.0, 2.0, 0.5, 5e-324, 1e-17, 2e-5 * 31.0 * 31.0];
        probes.extend((0..200).map(|_| {
            h = finalize(h);
            unit(h)
        }));
        for p in probes {
            let t = threshold(p);
            // The largest hash that passes and the smallest that fails.
            for x in [t.saturating_sub(1), t].into_iter().filter(|&x| x < 1 << 53) {
                for low in [0, 0x7ff] {
                    let hash = x << 11 | low;
                    assert_eq!(hash >> 11 < t, unit(hash) < p, "p {p:e}, x {x}");
                }
            }
        }
    }

    #[test]
    fn nominal_model_is_the_identity() {
        let m = FaultModel::nominal(42);
        assert!(m.is_nominal());
        for addr in [0u64, 8, 4096] {
            assert_eq!(m.corrupt_word(addr, 0xDEAD_BEEF), 0xDEAD_BEEF);
            assert_eq!(m.corrupt_codeword(addr, 7, 0x1f), (7, 0x1f));
        }
    }

    #[test]
    fn corruption_is_deterministic_and_addr_dependent() {
        let m = FaultModel::nominal(1).with_ber(0.05);
        let a = m.corrupt_word(64, u64::MAX);
        assert_eq!(a, m.corrupt_word(64, u64::MAX), "same (seed, addr) ⇒ same flips");
        let over_addrs: Vec<u64> = (0..64).map(|i| m.corrupt_word(i * 8, u64::MAX)).collect();
        assert!(over_addrs.iter().any(|&w| w != u64::MAX), "5% BER must flip something");
        assert!(over_addrs.windows(2).any(|w| w[0] != w[1]), "flips must vary with address");
        // A different seed draws a different error map.
        let m2 = FaultModel::nominal(2).with_ber(0.05);
        assert!((0..64).any(|i| m.corrupt_word(i * 8, 0) != m2.corrupt_word(i * 8, 0)));
    }

    #[test]
    fn ber_flip_rate_is_statistically_plausible() {
        let m = FaultModel::nominal(9).with_ber(0.01);
        let words = 4096u64;
        let flips: u32 = (0..words).map(|i| (m.corrupt_word(i * 8, 0)).count_ones()).sum();
        let expect = words as f64 * 64.0 * 0.01;
        let got = flips as f64;
        assert!((expect * 0.7..expect * 1.3).contains(&got), "{got} flips vs expected {expect}");
    }

    #[test]
    fn retention_failures_appear_only_past_nominal_refresh() {
        let base = FaultModel::nominal(3);
        assert_eq!(base.retention_fail_prob(), 0.0);
        let relaxed = base.with_refresh_multiplier(64.0);
        let p = relaxed.retention_fail_prob();
        assert!(p > 0.0 && p <= 0.5);
        let flips: u32 =
            (0..4096u64).map(|i| (relaxed.corrupt_word(i * 8, 0) ).count_ones()).sum();
        assert!(flips > 0, "m=64 must produce retention failures");
    }

    #[test]
    fn retention_cell_map_is_nested_in_the_multiplier() {
        // Stuck-at polarity is independent of m, and the failed-cell set at
        // a smaller multiplier is a subset of the set at a larger one, so
        // on all-ones data: bits cleared at m=16 ⊆ bits cleared at m=64.
        let m16 = FaultModel::nominal(5).with_refresh_multiplier(16.0);
        let m64 = FaultModel::nominal(5).with_refresh_multiplier(64.0);
        let mut nontrivial = false;
        for i in 0..4096u64 {
            let addr = i * 8;
            let w16 = m16.corrupt_word(addr, u64::MAX);
            let w64 = m64.corrupt_word(addr, u64::MAX);
            let cleared16 = !w16;
            let cleared64 = !w64;
            assert_eq!(cleared16 & !cleared64, 0, "addr {addr}: m=16 flip absent at m=64");
            nontrivial |= cleared64 != 0;
        }
        assert!(nontrivial, "m=64 must clear some bits of all-ones data");
    }

    #[test]
    fn weak_columns_repeat_across_rows_and_flip_half_the_reads() {
        let m = FaultModel::nominal(11).with_weak_columns(0.05);
        // Find a weak (column, lane): scan row 0.
        let mut weak = None;
        'scan: for col in 0..WORDS_PER_ROW {
            for bit in 0..64u32 {
                if unit(mix(m.seed, TAG_WEAK_COLUMN, col, bit)) < m.weak_column_frac {
                    weak = Some((col, bit));
                    break 'scan;
                }
            }
        }
        let (col, bit) = weak.expect("5% of 8192 columns must include a weak one");
        // The same column is weak in every DRAM row; sampling error hits
        // about half the reads.
        let rows = 512u64;
        let flips = (0..rows)
            .filter(|r| {
                let addr = r * WORDS_PER_ROW + col; // word index; addr unit irrelevant
                m.corrupt_word(addr, 0) >> bit & 1 == 1
            })
            .count();
        assert!(
            (rows as usize / 4..=3 * rows as usize / 4).contains(&flips),
            "weak column flipped {flips}/{rows} reads"
        );
    }

    #[test]
    fn codeword_corruption_covers_check_bits() {
        let m = FaultModel::nominal(13).with_ber(0.05);
        let changed = (0..256u64)
            .map(|i| m.corrupt_codeword(i * 8, 0, 0))
            .any(|(_, p)| p != 0);
        assert!(changed, "parity bits must be corruptible too");
    }

    #[test]
    fn retention_base_scales_the_curve() {
        let m = FaultModel::nominal(7).with_refresh_multiplier(9.0);
        let p_default = m.retention_fail_prob();
        assert!((p_default - RETENTION_BASE * 64.0).abs() < 1e-12);
        let weaker = m.with_retention_base(RETENTION_BASE * 2.0);
        assert!((weaker.retention_fail_prob() - 2.0 * p_default).abs() < 1e-12);
        // Zero base disables the mechanism outright.
        let immune = m.with_retention_base(0.0);
        assert_eq!(immune.retention_fail_prob(), 0.0);
        assert_eq!(immune.corrupt_word(128, u64::MAX), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "retention base")]
    fn negative_retention_base_rejected() {
        FaultModel::nominal(0).with_retention_base(-1.0);
    }

    #[test]
    #[should_panic(expected = "BER must be in")]
    fn invalid_ber_rejected() {
        FaultModel::nominal(0).with_ber(1.5);
    }

    #[test]
    #[should_panic(expected = "refresh multiplier")]
    fn invalid_multiplier_rejected() {
        FaultModel::nominal(0).with_refresh_multiplier(0.0);
    }
}
