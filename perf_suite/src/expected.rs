//! Recorded pass digests for the default seed (7) and the held-out seed
//! (11). A run on one of these seeds whose first complete pass digests
//! differently fails every op: a simulated or computed output moved.
//! Re-record a row only in a change that means to move that output.

const DIGESTS: [(&str, u64, u64); 10] = [
    ("classify-gnmt", 7, 0xad71_b081_fbcd_0941),
    ("classify-gnmt", 11, 0x0691_4905_29c3_4ec0),
    ("fault-sweep", 7, 0xf376_02ae_eb45_b3df),
    ("fault-sweep", 11, 0x70a0_7ce9_9342_3033),
    // Fig. 13 has no generated input: the seed does not reach it.
    ("simulate-fig13", 7, 0xb93e_4268_6e2f_9ae0),
    ("simulate-fig13", 11, 0xb93e_4268_6e2f_9ae0),
    ("fleet-capacity", 7, 0x0d6c_f919_8e8c_64a8),
    ("fleet-capacity", 11, 0x1d8a_ad41_0dac_78ca),
    // The tuner's only seeded choice, its audit lottery, has a fixed seed.
    ("tune-lstm", 7, 0x78bc_4296_0eb5_36bf),
    ("tune-lstm", 11, 0x78bc_4296_0eb5_36bf),
];

/// The recorded pass digest of `workload` under `seed`, if any.
pub fn digest(workload: &str, seed: u64) -> Option<u64> {
    DIGESTS
        .iter()
        .find(|(w, s, _)| *w == workload && *s == seed)
        .map(|(_, _, d)| *d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_has_both_recorded_seeds() {
        for w in crate::metrics::WORKLOADS {
            assert!(digest(w, 7).is_some() && digest(w, 11).is_some(), "{w}");
        }
        assert_eq!(digest("classify-gnmt", 8), None);
    }
}
