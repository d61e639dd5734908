//! Screener degrade tiers: the accuracy-for-latency dial.
//!
//! ENMC's screening stage already trades accuracy for work — fewer exact
//! candidates `K` and a coarser screening level both shrink the
//! per-batch service time. A serving deployment can therefore *degrade
//! gracefully* under load instead of shedding: the admission controller
//! steps down through an ordered list of [`DegradeTier`]s, each strictly
//! no more accurate (and no slower) than the one before it.

use enmc_arch::system::ClassificationJob;

/// One point on the accuracy↔latency dial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradeTier {
    /// Exact candidates per query (`K`); fewer = faster, less accurate.
    pub candidates: usize,
    /// Screening-level shift: the screener's reduced dimension is halved
    /// this many times (`k >> shift`), modelling a coarser screening pass.
    pub screen_shift: u32,
}

impl DegradeTier {
    /// The job this tier's service time should be calibrated against:
    /// `job` with the tier's candidate count and screening level applied
    /// (batch size untouched).
    pub fn apply(&self, job: &ClassificationJob) -> ClassificationJob {
        let mut j = job.with_load(job.batch, self.candidates);
        j.reduced = (job.reduced >> self.screen_shift).max(1);
        j
    }
}

/// Parses a `--degrade-tiers` list: comma-separated `K:S` pairs, e.g.
/// `1650:0,824:1,412:2` — `K` exact candidates at screening shift `S`,
/// ordered from full quality downwards.
///
/// # Errors
///
/// Returns a flag-worthy message when the list is empty, a pair is
/// malformed, `K` is zero, `S` exceeds 8, or a later tier has *more*
/// candidates than an earlier one (stepping "down" must never add work).
pub fn parse_tiers(raw: &str) -> Result<Vec<DegradeTier>, String> {
    let mut tiers = Vec::new();
    for part in raw.split(',') {
        let part = part.trim();
        let (k, s) = part
            .split_once(':')
            .ok_or_else(|| format!("--degrade-tiers entry '{part}' is not K:S"))?;
        let candidates: usize = k
            .trim()
            .parse()
            .map_err(|_| format!("--degrade-tiers candidates '{k}' is not a positive integer"))?;
        if candidates == 0 {
            return Err("--degrade-tiers candidates must be positive".to_string());
        }
        let screen_shift: u32 = s
            .trim()
            .parse()
            .map_err(|_| format!("--degrade-tiers shift '{s}' is not a small integer"))?;
        if screen_shift > 8 {
            return Err(format!("--degrade-tiers shift {screen_shift} exceeds 8"));
        }
        tiers.push(DegradeTier { candidates, screen_shift });
    }
    if tiers.is_empty() {
        return Err("--degrade-tiers needs at least one K:S entry".to_string());
    }
    for w in tiers.windows(2) {
        if w[1].candidates > w[0].candidates {
            return Err(format!(
                "--degrade-tiers must be ordered from full quality down: {} > {}",
                w[1].candidates, w[0].candidates
            ));
        }
    }
    Ok(tiers)
}

/// Checks a `--degrade-tiers` ladder against the job it serves: no tier
/// may gather more exact candidates than the job has categories.
///
/// # Errors
///
/// Returns a flag-worthy message naming the first tier that does.
pub fn check_tiers(tiers: &[DegradeTier], job: &ClassificationJob) -> Result<(), String> {
    match tiers.iter().find(|t| t.candidates > job.categories) {
        Some(t) => Err(format!(
            "--degrade-tiers candidates '{}' exceed the workload's {} categories",
            t.candidates, job.categories
        )),
        None => Ok(()),
    }
}

/// The default three-tier ladder for a job: full quality, half the
/// candidates at one screening shift, a quarter at two.
pub fn default_tiers(job: &ClassificationJob) -> Vec<DegradeTier> {
    let k = job.candidates.max(4);
    vec![
        DegradeTier { candidates: k, screen_shift: 0 },
        DegradeTier { candidates: (k / 2).max(1), screen_shift: 1 },
        DegradeTier { candidates: (k / 4).max(1), screen_shift: 2 },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> ClassificationJob {
        ClassificationJob { categories: 4096, hidden: 128, reduced: 32, batch: 1, candidates: 200 }
    }

    #[test]
    fn parse_round_trips_a_ladder() {
        let tiers = parse_tiers("200:0, 100:1 ,50:2").unwrap();
        assert_eq!(
            tiers,
            vec![
                DegradeTier { candidates: 200, screen_shift: 0 },
                DegradeTier { candidates: 100, screen_shift: 1 },
                DegradeTier { candidates: 50, screen_shift: 2 },
            ]
        );
    }

    #[test]
    fn parse_rejects_malformed_lists() {
        assert!(parse_tiers("").is_err());
        assert!(parse_tiers("200").is_err());
        assert!(parse_tiers("0:0").is_err());
        assert!(parse_tiers("10:9").is_err());
        assert!(parse_tiers("100:0,200:1").is_err(), "tiers must not gain candidates");
        assert!(parse_tiers("a:b").is_err());
    }

    #[test]
    fn check_rejects_a_tier_above_the_categories() {
        assert_eq!(check_tiers(&parse_tiers("4096:0,100:1").unwrap(), &job()), Ok(()));
        let e = check_tiers(&parse_tiers("4097:0,100:1").unwrap(), &job()).unwrap_err();
        assert!(e.contains("--degrade-tiers") && e.contains("'4097'") && e.contains("4096"), "{e}");
    }

    #[test]
    fn apply_scales_candidates_and_screening() {
        let t = DegradeTier { candidates: 50, screen_shift: 2 };
        let j = t.apply(&job());
        assert_eq!(j.candidates, 50);
        assert_eq!(j.reduced, 8);
        assert_eq!(j.categories, 4096);
        // The shift saturates at a one-dimensional screener.
        let deep = DegradeTier { candidates: 1, screen_shift: 8 };
        assert_eq!(deep.apply(&job()).reduced, 1);
    }

    #[test]
    fn default_ladder_is_parseable_and_ordered() {
        let tiers = default_tiers(&job());
        assert_eq!(tiers.len(), 3);
        assert!(tiers.windows(2).all(|w| w[1].candidates <= w[0].candidates));
        assert_eq!(tiers[0].candidates, 200);
    }
}
