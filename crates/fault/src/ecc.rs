//! SEC-DED (72,64) extended Hamming code.
//!
//! The standard server-DIMM word: 64 data bits protected by 7 Hamming
//! parity bits (at power-of-two codeword positions) plus one overall
//! parity bit. Single bit errors are corrected, double bit errors are
//! detected but not correctable. The decoder reports which happened so the
//! resilience sweep can count corrected vs detected-uncorrectable words.
//!
//! Codeword layout: positions `1..=71` hold the Hamming code (parity at
//! positions 1, 2, 4, 8, 16, 32, 64; data at the 64 remaining positions in
//! ascending order), and the overall parity bit makes the XOR of all 72
//! stored bits even. The parity byte packs the seven Hamming bits in bits
//! `0..=6` and the overall bit in bit 7.

/// Codeword position of each data bit: the `i`-th non-power-of-two in
/// `1..=71`.
const DATA_POS: [u8; 64] = build_data_positions();

const fn build_data_positions() -> [u8; 64] {
    let mut out = [0u8; 64];
    let mut pos = 1u8;
    let mut i = 0usize;
    while i < 64 {
        if !pos.is_power_of_two() {
            out[i] = pos;
            i += 1;
        }
        pos += 1;
    }
    out
}

/// The parity byte's share of data byte `k` holding `b`, for all eight
/// bytes of a word: bits `0..=6` are the XOR of the codeword positions of
/// its set data bits, bit 7 the parity of its set data bits and of those
/// seven bits. XOR is linear, so the XOR of a word's eight entries is its
/// whole parity byte: Hamming bits and overall parity in one pass, with no
/// population count (the build targets no CPU with `popcnt`).
const BYTE_PARITY: [[u8; 256]; 8] = build_byte_parity();

const fn build_byte_parity() -> [[u8; 256]; 8] {
    let mut out = [[0u8; 256]; 8];
    let mut k = 0;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let mut hamming = 0u8;
            let mut j = 0;
            while j < 8 {
                if b >> j & 1 == 1 {
                    hamming ^= DATA_POS[8 * k + j];
                }
                j += 1;
            }
            let odd = (b as u32).count_ones() + hamming.count_ones();
            out[k][b] = hamming | ((odd & 1) as u8) << 7;
            b += 1;
        }
        k += 1;
    }
    out
}

/// Decode outcome classes, in [`Decoded`]'s variant order.
const CLEAN: u8 = 0;
const CORRECTED: u8 = 1;
const UNCORRECTABLE: u8 = 2;

/// The repair bit of a syndrome that repairs no data bit.
const NO_FIX: u8 = 64;

/// What each syndrome byte `encode(data) ^ parity` decodes to: its outcome
/// class and the data bit it repairs ([`NO_FIX`] for none). Bits `0..=6`
/// are the Hamming syndrome, and the parity of all eight is the parity of
/// all 72 stored bits. An even total is clean with a zero syndrome and a
/// double error without. An odd total is a single error at the
/// syndrome's codeword position (the overall bit at 0, a Hamming parity
/// bit at a power of two, a data bit elsewhere), or at least three errors
/// when that position lies past 71.
const SYNDROMES: [(u8, u8); 256] = build_syndromes();

const fn build_syndromes() -> [(u8, u8); 256] {
    let mut out = [(UNCORRECTABLE, NO_FIX); 256];
    out[0] = (CLEAN, NO_FIX);
    let mut s = 1;
    while s < 256 {
        let syndrome = s as u8 & 0x7f;
        if (s as u8).count_ones() % 2 == 1 && (syndrome == 0 || syndrome.is_power_of_two()) {
            out[s] = (CORRECTED, NO_FIX);
        }
        s += 1;
    }
    let mut i = 0;
    while i < 64 {
        // The odd-parity byte whose syndrome is data bit `i`'s position.
        let pos = DATA_POS[i];
        let odd = pos | (((pos.count_ones() + 1) % 2) << 7) as u8;
        out[odd as usize] = (CORRECTED, i as u8);
        i += 1;
    }
    out
}

/// Encodes 64 data bits into the (72,64) parity byte: Hamming parity in
/// bits `0..=6`, overall parity in bit 7.
pub fn encode(data: u64) -> u8 {
    data.to_le_bytes().iter().zip(&BYTE_PARITY).fold(0, |acc, (&b, table)| acc ^ table[b as usize])
}

/// Decode outcome of one (72,64) word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decoded {
    /// No error detected; payload returned unchanged.
    Clean(u64),
    /// A single bit error (in data, Hamming parity, or the overall bit)
    /// was corrected; the repaired payload is returned.
    Corrected(u64),
    /// A multi-bit error was detected but cannot be corrected. The raw
    /// (poisoned) payload is passed through — real controllers raise a
    /// machine check here; the simulator models value passthrough so the
    /// quality impact of uncorrectable words is observable.
    Uncorrectable(u64),
}

impl Decoded {
    /// The payload the consumer sees, whatever the outcome.
    pub fn payload(self) -> u64 {
        match self {
            Decoded::Clean(d) | Decoded::Corrected(d) | Decoded::Uncorrectable(d) => d,
        }
    }
}

/// Decodes a received `(data, parity)` pair: one [`SYNDROMES`] lookup
/// and a repair mask, with no branch on the outcome.
pub fn decode(data: u64, parity: u8) -> Decoded {
    let (class, bit) = SYNDROMES[usize::from(encode(data) ^ parity)];
    let payload = data ^ u64::from(bit < NO_FIX) << (bit % NO_FIX);
    match class {
        CLEAN => Decoded::Clean(payload),
        CORRECTED => Decoded::Corrected(payload),
        _ => Decoded::Uncorrectable(payload),
    }
}

/// Corrected / detected-uncorrectable counters across many decoded words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EccCounters {
    /// Words decoded.
    pub words: u64,
    /// Words where the decoder repaired a single bit error.
    pub corrected: u64,
    /// Words with a detected but uncorrectable multi-bit error.
    pub detected_uncorrected: u64,
}

impl EccCounters {
    /// Decodes and counts in one step, adding each outcome as 0 or 1.
    pub fn decode_counted(&mut self, data: u64, parity: u8) -> Decoded {
        let out = decode(data, parity);
        self.words += 1;
        self.corrected += u64::from(matches!(out, Decoded::Corrected(_)));
        self.detected_uncorrected += u64::from(matches!(out, Decoded::Uncorrectable(_)));
        out
    }
}

/// Extra DRAM energy per 64-byte burst for the eight (72,64) decodes it
/// carries, in nanojoules (≈15 pJ per decode at 22 nm, scaled from the
/// Table 5 methodology).
pub const ECC_NJ_PER_BURST: f64 = 0.12;

/// Always-on SEC-DED encode/decode logic power next to the Screener's
/// stream buffer, in milliwatts.
pub const ECC_MW: f64 = 11.6;

/// Pipeline latency the decoder adds to each read burst, in nanoseconds
/// (one extra DRAM-bus cycle at DDR4-2400).
pub const ECC_NS_PER_BURST: f64 = 0.833;

#[cfg(test)]
mod tests {
    use super::*;

    /// XOR of the codeword positions of all set data bits — the Hamming
    /// parity vector (bit `j` of the result is parity bit `2^j`).
    fn position_xor(data: u64) -> u8 {
        let mut acc = 0u8;
        let mut rest = data;
        while rest != 0 {
            let i = rest.trailing_zeros() as usize;
            acc ^= DATA_POS[i];
            rest &= rest - 1;
        }
        acc
    }

    /// Bit-serial reference [`encode`].
    fn encode_ref(data: u64) -> u8 {
        let hamming = position_xor(data) & 0x7f;
        let overall = ((data.count_ones() + u32::from(hamming).count_ones()) & 1) as u8;
        hamming | (overall << 7)
    }

    /// Bit-serial reference [`decode`].
    fn decode_ref(data: u64, parity: u8) -> Decoded {
        let syndrome = (position_xor(data) ^ parity) & 0x7f;
        let odd = (data.count_ones() + u32::from(parity).count_ones()) & 1 == 1;
        match (syndrome, odd) {
            (0, false) => Decoded::Clean(data),
            (0, true) => Decoded::Corrected(data),
            (s, true) => {
                if s.is_power_of_two() {
                    Decoded::Corrected(data)
                } else if let Some(i) = DATA_POS.iter().position(|&p| p == s) {
                    Decoded::Corrected(data ^ (1u64 << i))
                } else {
                    Decoded::Uncorrectable(data)
                }
            }
            (_, false) => Decoded::Uncorrectable(data),
        }
    }

    /// `SAMPLES` followed by `n` SplitMix64 words.
    fn words(n: usize) -> Vec<u64> {
        let mut x = 0x5eed_u64;
        SAMPLES
            .into_iter()
            .chain((0..n).map(|_| {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let z = (x ^ x >> 30).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                let z = (z ^ z >> 27).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ z >> 31
            }))
            .collect()
    }

    /// Flips codeword bit `b` of `(data, parity)`: data bits `0..64`, then
    /// the parity byte's bits at `64..72`.
    fn flip(word: (u64, u8), b: u32) -> (u64, u8) {
        if b < 64 {
            (word.0 ^ 1 << b, word.1)
        } else {
            (word.0, word.1 ^ 1 << (b - 64))
        }
    }

    #[test]
    fn every_single_bit_error_is_corrected() {
        // All 64 data bits and all 8 parity-byte bits, against the
        // bit-serial reference too.
        for d in words(26) {
            let parity = encode(d);
            assert_eq!(parity, encode_ref(d), "encode {d:#x}");
            for b in 0..72 {
                let (data, p) = flip((d, parity), b);
                let got = decode(data, p);
                assert_eq!(got, Decoded::Corrected(d), "bit {b} of {d:#x}");
                assert_eq!(got, decode_ref(data, p), "bit {b} of {d:#x}");
            }
        }
    }

    #[test]
    fn double_bit_errors_are_detected_not_miscorrected() {
        // All 2,556 pairs of the 72 codeword bits: data + data, data +
        // Hamming parity, data + overall parity, parity + parity.
        for d in words(26) {
            let parity = encode(d);
            let mut pairs = 0;
            for a in 0..72 {
                for b in a + 1..72 {
                    let (data, p) = flip(flip((d, parity), a), b);
                    let got = decode(data, p);
                    assert_eq!(got, Decoded::Uncorrectable(data), "bits {a},{b} of {d:#x}");
                    assert_eq!(got, decode_ref(data, p), "bits {a},{b} of {d:#x}");
                    pairs += 1;
                }
            }
            assert_eq!(pairs, 2556);
        }
    }

    #[test]
    fn table_decoder_matches_the_reference_on_every_syndrome() {
        // Every parity byte against a few words reaches all 256 syndromes,
        // including the ones past position 71 that only ≥3 flips produce.
        for d in words(4) {
            for parity in 0..=255u8 {
                assert_eq!(decode(d, parity), decode_ref(d, parity), "{d:#x} parity {parity:#x}");
            }
        }
    }

    const SAMPLES: [u64; 6] = [
        0,
        u64::MAX,
        0xDEAD_BEEF_CAFE_F00D,
        0x0123_4567_89AB_CDEF,
        1,
        1 << 63,
    ];

    #[test]
    fn data_positions_are_the_non_powers_of_two() {
        assert_eq!(DATA_POS[0], 3);
        assert_eq!(DATA_POS[1], 5);
        assert_eq!(DATA_POS[63], 71);
        for p in DATA_POS {
            assert!(!p.is_power_of_two() && (1..=71).contains(&p));
        }
        let mut sorted = DATA_POS.to_vec();
        sorted.dedup();
        assert_eq!(sorted.len(), 64);
    }

    #[test]
    fn clean_words_decode_clean() {
        for d in SAMPLES {
            assert_eq!(decode(d, encode(d)), Decoded::Clean(d));
        }
    }

    #[test]
    fn counters_track_outcomes() {
        let mut c = EccCounters::default();
        let d = 0xABCD_u64;
        let p = encode(d);
        assert_eq!(c.decode_counted(d, p), Decoded::Clean(d));
        assert_eq!(c.decode_counted(d ^ 2, p), Decoded::Corrected(d));
        assert_eq!(c.decode_counted(d ^ 3, p), Decoded::Uncorrectable(d ^ 3));
        assert_eq!(c.decode_counted(d, p ^ 0x80), Decoded::Corrected(d));
        assert_eq!(c, EccCounters { words: 4, corrected: 2, detected_uncorrected: 1 });
    }
}
