//! Injection of bit errors into weight images at DRAM read granularity.
//!
//! The unit of corruption is the 64-bit DRAM word (a 72-bit codeword when
//! SEC-DED is enabled): a byte image is walked word by word, each word is
//! passed through the [`FaultModel`] channel at its own word address, and —
//! under ECC — re-encoded/decoded with the corrected and
//! detected-uncorrectable outcomes counted.
//!
//! Two weight surfaces exist in ENMC:
//!
//! * the **screener stream** — the packed INT image of `W̃` that every
//!   query reads in full ([`corrupt_screener`]);
//! * the **exact path** — the FP32 rows of `W` that only *candidate*
//!   categories ever read ([`corrupt_matrix`]); corruption landing in rows
//!   the screener prunes is invisible, which is precisely the masking
//!   effect the resilience sweep quantifies.
//!
//! Images whose byte length is not a multiple of 8 are padded with zeros to
//! the ECC word boundary, exactly as a DIMM would store them; flips landing
//! in the pad bits are counted as raw channel flips but cannot reach any
//! consumer.

use crate::ecc::{encode, EccCounters};
use crate::model::{Channel, FaultModel};
use enmc_screen::screener::Screener;
use enmc_tensor::{pack_codes, unpack_codes, Matrix, TensorError};

/// Word address base of the screener's packed INT image.
pub const SCREENER_BASE_ADDR: u64 = 0x0010_0000;

/// Word address base of the exact-path FP32 weight image.
pub const WEIGHTS_BASE_ADDR: u64 = 0x0800_0000;

/// Flip accounting for one corrupted surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct InjectionStats {
    /// 64-bit words processed.
    pub words: u64,
    /// Bits the channel flipped (data + check bits, before correction).
    pub raw_flips: u64,
    /// Data bits still wrong after ECC (equals the raw data flips when
    /// ECC is off).
    pub residual_flips: u64,
    /// SEC-DED decode outcomes (all zero when ECC is off).
    pub ecc: EccCounters,
}

impl InjectionStats {
    /// Folds `other` into `self` (commutative element-wise sum).
    pub fn merge(&mut self, other: &InjectionStats) {
        self.words += other.words;
        self.raw_flips += other.raw_flips;
        self.residual_flips += other.residual_flips;
        self.ecc.merge(&other.ecc);
    }
}

/// Corrupts a byte image in place. Word `i` of the image is read at word
/// address `base_addr + i`; with `ecc` the stored (72,64) codeword is
/// corrupted and decoded, otherwise the raw 64 data bits pass through the
/// channel unprotected.
pub fn corrupt_image(
    bytes: &mut [u8],
    base_addr: u64,
    model: &FaultModel,
    ecc: bool,
    stats: &mut InjectionStats,
) {
    let channel = channel(model);
    for (addr, chunk) in (base_addr..).zip(bytes.chunks_mut(8)) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        let out = read_word(channel.as_ref(), addr, u64::from_le_bytes(word), ecc, stats);
        chunk.copy_from_slice(&out.to_le_bytes()[..chunk.len()]);
    }
}

/// The channel of `model`, or `None` when it is the identity.
fn channel(model: &FaultModel) -> Option<Channel> {
    (!model.is_nominal()).then(|| Channel::new(model))
}

/// Reads the word `clean` stored at `addr` through `channel` (`None`: the
/// identity) and, with `ecc`, through the SEC-DED codec — every word is
/// encoded and decoded, even on a clean channel — and counts it into
/// `stats`. Returns the word the consumer sees.
fn read_word(
    channel: Option<&Channel>,
    addr: u64,
    clean: u64,
    ecc: bool,
    stats: &mut InjectionStats,
) -> u64 {
    stats.words += 1;
    let out = if ecc {
        let parity = encode(clean);
        let (cd, cp) = channel.map_or((clean, parity), |c| c.corrupt_codeword(addr, clean, parity));
        stats.raw_flips += u64::from((cd ^ clean).count_ones() + (cp ^ parity).count_ones());
        stats.ecc.decode_counted(cd, cp).payload()
    } else {
        let cd = channel.map_or(clean, |c| c.corrupt_word(addr, clean));
        stats.raw_flips += u64::from((cd ^ clean).count_ones());
        cd
    };
    stats.residual_flips += u64::from((out ^ clean).count_ones());
    out
}

/// Marks which logical rows of a corrupted image differ from the clean one.
fn rows_touched<T: PartialEq>(clean: &[T], dirty: &[T], rows: usize, cols: usize) -> Vec<bool> {
    (0..rows)
        .map(|r| clean[r * cols..(r + 1) * cols] != dirty[r * cols..(r + 1) * cols])
        .collect()
}

/// Clones `screener` with its frozen quantized weight image passed through
/// the DRAM error channel: pack → corrupt at word granularity → unpack →
/// substitute. Returns the faulted screener, the flip accounting, and a
/// per-category flag of which screener rows now hold corrupted codes.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] if the screener is not frozen
/// with a per-tensor integer image (FP32 and per-row-scale screeners have
/// no packed stream to corrupt).
pub fn corrupt_screener(
    screener: &Screener,
    model: &FaultModel,
    ecc: bool,
) -> Result<(Screener, InjectionStats, Vec<bool>), TensorError> {
    let q = screener.quant_weights().ok_or(TensorError::InvalidArgument(
        "fault injection requires a frozen screener with a per-tensor quantized image",
    ))?;
    let mut stats = InjectionStats::default();
    let mut bytes =
        pack_codes(q.codes(), q.precision()).map_err(TensorError::InvalidArgument)?;
    corrupt_image(&mut bytes, SCREENER_BASE_ADDR, model, ecc, &mut stats);
    let codes = unpack_codes(&bytes, q.codes().len(), q.precision())
        .map_err(TensorError::InvalidArgument)?;
    let rows = rows_touched(q.codes(), &codes, q.rows(), q.cols());
    let corrupted =
        enmc_tensor::QuantMatrix::from_parts(q.rows(), q.cols(), codes, q.scale(), q.precision())?;
    let mut faulted = screener.clone();
    faulted.set_quant_weights(corrupted)?;
    Ok((faulted, stats, rows))
}

/// Passes an FP32 matrix (the exact-path weights) through the DRAM error
/// channel: two IEEE-754 words per 64-bit ECC word, little-endian. Returns
/// the corrupted matrix, flip accounting, and a per-row corruption flag.
/// Bit flips may produce NaN/Inf values — realistic, and the selection
/// kernels tolerate them.
///
/// The same walk as [`corrupt_image`] over the matrix's little-endian byte
/// image, on `u64` words read straight from pairs of `f32` bit patterns.
pub fn corrupt_matrix(
    m: &Matrix,
    base_addr: u64,
    model: &FaultModel,
    ecc: bool,
) -> (Matrix, InjectionStats, Vec<bool>) {
    let channel = channel(model);
    let mut stats = InjectionStats::default();
    let mut rows = vec![false; m.rows()];
    let cols = m.cols();
    let clean = m.as_slice();
    let mut data = Vec::with_capacity(clean.len());
    // Word `i` holds elements `2i` (low half) and `2i + 1`; an odd count
    // ends on a word whose high half is zero pad.
    for (addr, pair) in (base_addr..).zip(clean.chunks(2)) {
        let lo = pair[0].to_bits();
        let hi = pair.get(1).map_or(0, |v| v.to_bits());
        let word = u64::from(lo) | u64::from(hi) << 32;
        let out = read_word(channel.as_ref(), addr, word, ecc, &mut stats);
        // With odd `cols` a word straddles two rows: flag each half's own.
        let first = data.len();
        if out as u32 != lo {
            rows[first / cols] = true;
        }
        if (out >> 32) as u32 != hi && pair.len() == 2 {
            rows[(first + 1) / cols] = true;
        }
        data.push(f32::from_bits(out as u32));
        if pair.len() == 2 {
            data.push(f32::from_bits((out >> 32) as u32));
        }
    }
    let corrupted = Matrix::from_vec(m.rows(), cols, data).expect("shape preserved");
    (corrupted, stats, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use enmc_screen::screener::{Screener, ScreenerConfig};
    use enmc_tensor::{Precision, Vector};

    fn trained_screener(precision: Precision) -> Screener {
        let cfg = ScreenerConfig { precision, ..Default::default() };
        let mut s = Screener::new(16, 32, &cfg).unwrap();
        let w = Matrix::from_vec(
            16,
            32,
            (0..512).map(|i| (i as f32 * 0.17).sin() * 0.6).collect(),
        )
        .unwrap();
        let b = Vector::zeros(16);
        let samples: Vec<Vector> = (0..8)
            .map(|q| (0..32).map(|i| ((q * 32 + i) as f32 * 0.23).cos()).collect())
            .collect();
        enmc_screen::fit_least_squares(&mut s, &w, &b, &samples, 0.1);
        s.freeze().unwrap();
        s
    }

    #[test]
    fn nominal_injection_is_a_noop_everywhere() {
        let model = FaultModel::nominal(7);
        for ecc in [false, true] {
            let mut stats = InjectionStats::default();
            let mut bytes = vec![0xA5u8; 37];
            corrupt_image(&mut bytes, 0, &model, ecc, &mut stats);
            assert_eq!(bytes, vec![0xA5u8; 37]);
            assert_eq!(stats.raw_flips, 0);
            assert_eq!(stats.residual_flips, 0);
            assert_eq!(stats.ecc.detected_uncorrected, 0);

            let s = trained_screener(Precision::Int4);
            let (faulted, st, rows) = corrupt_screener(&s, &model, ecc).unwrap();
            assert_eq!(st.residual_flips, 0);
            assert!(rows.iter().all(|&r| !r));
            let h: Vector = (0..32).map(|i| (i as f32 * 0.21).cos()).collect();
            assert_eq!(s.screen_ref(&h), faulted.screen_ref(&h), "bit-identical logits");
        }
    }

    #[test]
    fn ecc_corrects_what_a_low_ber_channel_flips() {
        // At BER 1e-4 double flips within one 72-bit word are ~1e-6:
        // essentially every corrupted word carries one flip, which SEC-DED
        // removes entirely.
        let model = FaultModel::nominal(21).with_ber(1e-4);
        let mut bytes = vec![0x3Cu8; 64 * 1024];
        let clean = bytes.clone();
        let mut stats = InjectionStats::default();
        corrupt_image(&mut bytes, 0, &model, true, &mut stats);
        assert!(stats.raw_flips > 0, "channel must flip something over 64 KiB");
        assert_eq!(stats.residual_flips, 0, "SEC-DED must correct isolated flips");
        assert!(stats.ecc.corrected > 0);
        assert_eq!(bytes, clean);

        // The same channel without ECC leaves residual corruption.
        let mut bytes = vec![0x3Cu8; 64 * 1024];
        let mut raw = InjectionStats::default();
        corrupt_image(&mut bytes, 0, &model, false, &mut raw);
        assert!(raw.residual_flips > 0);
        assert_ne!(bytes, clean);
    }

    #[test]
    fn high_ber_overwhelms_secded() {
        let model = FaultModel::nominal(2).with_ber(0.02);
        let mut bytes = vec![0u8; 64 * 1024];
        let mut stats = InjectionStats::default();
        corrupt_image(&mut bytes, 0, &model, true, &mut stats);
        assert!(stats.ecc.detected_uncorrected > 0, "2% BER must produce double-bit words");
        assert!(stats.residual_flips > 0);
    }

    #[test]
    fn corrupt_screener_flags_exactly_the_rows_whose_codes_moved() {
        let s = trained_screener(Precision::Int4);
        let model = FaultModel::nominal(5).with_ber(0.02);
        let (faulted, stats, rows) = corrupt_screener(&s, &model, false).unwrap();
        assert!(stats.residual_flips > 0, "2% BER over 16x8 INT4 codes must flip a code");
        let clean_q = s.quant_weights().unwrap();
        let dirty_q = faulted.quant_weights().unwrap();
        for (r, &flag) in rows.iter().enumerate() {
            assert_eq!(clean_q.row(r) != dirty_q.row(r), flag, "row {r}");
        }
        assert!(rows.iter().any(|&r| r));
    }

    #[test]
    fn corrupt_screener_requires_a_frozen_integer_image() {
        let model = FaultModel::nominal(0);
        let cfg = ScreenerConfig { precision: Precision::Int4, ..Default::default() };
        let unfrozen = Screener::new(4, 8, &cfg).unwrap();
        assert!(corrupt_screener(&unfrozen, &model, false).is_err());
        let fp32 = trained_screener(Precision::Fp32);
        assert!(corrupt_screener(&fp32, &model, false).is_err());
    }

    #[test]
    fn corrupt_matrix_rows_match_bit_differences() {
        // `corrupt_matrix` must be `corrupt_image` on the matrix's
        // little-endian byte image (data and stats), and flag exactly the
        // rows whose bits moved.
        let models = [
            FaultModel::nominal(3),
            FaultModel::nominal(3).with_ber(1e-3),
            FaultModel::nominal(4).with_ber(0.03).with_weak_columns(0.05),
            FaultModel::nominal(5).with_refresh_multiplier(32.0),
            // Retention at its cap: stuck-at cells depend on the stored
            // value, so the zero pad must be what `corrupt_image` pads with.
            FaultModel::nominal(6).with_refresh_multiplier(1e3),
        ];
        // Even and odd `cols` (words straddle rows), and an odd element
        // count (a pad word).
        for (rows, cols) in [(8, 16), (9, 7), (5, 3), (1, 1), (64, 33)] {
            let m = Matrix::from_vec(
                rows,
                cols,
                (0..rows * cols).map(|i| (i as f32 * 0.3).sin()).collect(),
            )
            .unwrap();
            for model in &models {
                for ecc in [false, true] {
                    let what = format!("{rows}x{cols} {model:?} ecc {ecc}");
                    let (dirty, stats, flags) = corrupt_matrix(&m, WEIGHTS_BASE_ADDR, model, ecc);
                    if (rows, cols) == (8, 16) && !model.is_nominal() {
                        assert!(stats.raw_flips > 0, "{what}");
                    }
                    for (r, &flag) in flags.iter().enumerate() {
                        let mut pairs = m.row(r).iter().zip(dirty.row(r));
                        let differs = pairs.any(|(a, b)| a.to_bits() != b.to_bits());
                        assert_eq!(differs, flag, "{what} row {r}");
                    }
                    let mut bytes: Vec<u8> =
                        m.as_slice().iter().flat_map(|v| v.to_le_bytes()).collect();
                    let mut want = InjectionStats::default();
                    corrupt_image(&mut bytes, WEIGHTS_BASE_ADDR, model, ecc, &mut want);
                    let want_bits: Vec<u32> = bytes
                        .chunks_exact(4)
                        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                        .collect();
                    let got_bits: Vec<u32> = dirty.as_slice().iter().map(|x| x.to_bits()).collect();
                    assert_eq!(got_bits, want_bits, "{what}");
                    assert_eq!(stats, want, "{what}");
                }
            }
        }
    }

    #[test]
    fn injection_is_independent_of_chunking() {
        // The same logical image corrupted as one call or split across
        // word-aligned sub-slices (with matching base addresses) must agree:
        // corruption depends only on (seed, word address, bit).
        let model = FaultModel::nominal(17).with_ber(5e-3);
        let image: Vec<u8> = (0..256).map(|i| (i * 37 % 251) as u8).collect();
        let mut whole = image.clone();
        let mut s1 = InjectionStats::default();
        corrupt_image(&mut whole, 100, &model, false, &mut s1);
        let mut split = image.clone();
        let (a, b) = split.split_at_mut(128);
        let mut s2 = InjectionStats::default();
        corrupt_image(a, 100, &model, false, &mut s2);
        corrupt_image(b, 100 + 16, &model, false, &mut s2);
        assert_eq!(whole, split);
        assert_eq!(s1, s2);
    }
}
