//! FNV-1a digests of deterministic outputs.
//!
//! Every op folds what it produced (logit bits, candidate ids, cycles,
//! nanojoules, report fields) into a digest. Host timing never enters a
//! digest, so a digest only moves when a simulated or computed output
//! does.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A running 64-bit FNV-1a hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(OFFSET)
    }
}

impl Fnv {
    /// Folds raw bytes.
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
        self
    }

    /// Folds an integer.
    pub fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Folds a float by its bit pattern.
    pub fn f64(self, v: f64) -> Self {
        self.u64(v.to_bits())
    }

    /// Folds a slice of floats by their bit patterns.
    pub fn f32s(self, vs: &[f32]) -> Self {
        vs.iter()
            .fold(self, |h, v| h.bytes(&v.to_bits().to_le_bytes()))
    }

    /// Folds a value's `Debug` rendering: every field of a report struct
    /// at once, floats printed with their shortest round-trip digits.
    pub fn debug(self, v: &impl std::fmt::Debug) -> Self {
        self.bytes(format!("{v:?}").as_bytes())
    }

    /// The digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_and_sensitive() {
        let a = || {
            Fnv::default()
                .u64(7)
                .f64(1.5)
                .f32s(&[0.25, -3.0])
                .debug(&(1, "x"))
                .finish()
        };
        assert_eq!(a(), a());
        // The published FNV-1a test vector pins the constants.
        assert_eq!(Fnv::default().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(
            a(),
            Fnv::default()
                .u64(7)
                .f64(1.5)
                .f32s(&[0.25, 3.0])
                .debug(&(1, "x"))
                .finish()
        );
    }
}
