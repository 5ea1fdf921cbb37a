//! Staleness statistics of a history: how old were the values reads
//! returned, and how much Δ would each read have needed? These power the
//! Δ-sweep experiments and the store's observability hooks.

use tc_clocks::{Delta, Time};

use crate::{History, OpId};

/// Per-read staleness of one history.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StalenessStats {
    /// For each read: `(read, age)` where `age` is the time elapsed between
    /// the *oldest* write the read failed to observe and the read itself —
    /// the smallest Δ making the read on time;
    /// [`Delta::ZERO`] when the read returned the freshest value.
    per_read: Vec<(OpId, Delta)>,
}

impl StalenessStats {
    /// Computes staleness for every read of `history`.
    ///
    /// A read of a value written at `t_w` is *stale* if some other write to
    /// the same object has `t_w < t' < t_r`; its staleness is
    /// `t_r − min(t')` — the age of the oldest update it missed, i.e. the
    /// smallest Δ for which the read is on time (Definition 1).
    #[must_use]
    pub fn of(history: &History) -> StalenessStats {
        let mut per_read = Vec::new();
        for read in history.reads() {
            let source_time: Option<Time> = history
                .source_of(read.id())
                .expect("read has source")
                .map(|w| history.op(w).time());
            let mut oldest_missed: Option<Time> = None;
            for &w in history.writes_to(read.object()) {
                let tw = history.op(w).time();
                let newer = match source_time {
                    Some(ts) => tw > ts,
                    None => true,
                };
                if newer && tw < read.time() {
                    oldest_missed = Some(match oldest_missed {
                        Some(cur) => cur.min(tw),
                        None => tw,
                    });
                }
            }
            let age = oldest_missed
                .map(|t| read.time().saturating_since(t))
                .unwrap_or(Delta::ZERO);
            per_read.push((read.id(), age));
        }
        StalenessStats { per_read }
    }

    /// Number of reads that missed at least one older-than-Δ write.
    #[must_use]
    pub fn stale_reads(&self, delta: Delta) -> usize {
        self.per_read.iter().filter(|(_, age)| *age > delta).count()
    }

    /// The worst staleness — equal to [`crate::checker::min_delta`].
    #[must_use]
    pub fn max_staleness(&self) -> Delta {
        self.per_read
            .iter()
            .map(|(_, age)| *age)
            .max()
            .unwrap_or(Delta::ZERO)
    }

    /// Mean staleness over all reads (in ticks).
    #[must_use]
    pub fn mean_staleness(&self) -> f64 {
        if self.per_read.is_empty() {
            return 0.0;
        }
        let sum: u64 = self.per_read.iter().map(|(_, age)| age.ticks()).sum();
        sum as f64 / self.per_read.len() as f64
    }

    /// The staleness of each read, in history order.
    #[must_use]
    pub fn per_read(&self) -> &[(OpId, Delta)] {
        &self.per_read
    }

    /// The `q`-quantile of per-read staleness (0.0 ≤ q ≤ 1.0), using the
    /// nearest-rank method. Returns [`Delta::ZERO`] for an empty history.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Delta {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.per_read.is_empty() {
            return Delta::ZERO;
        }
        let mut ages: Vec<Delta> = self.per_read.iter().map(|(_, a)| *a).collect();
        ages.sort_unstable();
        let rank = ((q * ages.len() as f64).ceil() as usize).clamp(1, ages.len());
        ages[rank - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::min_delta;
    use crate::{examples, History};

    #[test]
    fn fresh_history_has_zero_staleness() {
        let h = History::parse("w0(X)1@10 r1(X)1@20 w0(X)2@30 r1(X)2@40").unwrap();
        let s = StalenessStats::of(&h);
        assert_eq!(s.per_read().len(), 2);
        assert_eq!(s.stale_reads(Delta::ZERO), 0, "every read is fresh");
        assert_eq!(s.max_staleness(), Delta::ZERO);
        assert_eq!(s.mean_staleness(), 0.0);
    }

    #[test]
    fn staleness_matches_min_delta_on_examples() {
        for h in [
            examples::fig1_execution(),
            examples::fig5_execution(),
            examples::fig6_execution(),
        ] {
            assert_eq!(StalenessStats::of(&h).max_staleness(), min_delta(&h));
        }
    }

    #[test]
    fn stale_read_counting() {
        let h = History::parse("w0(X)7@100 w1(X)1@80 r1(X)1@140 r1(X)1@220").unwrap();
        let s = StalenessStats::of(&h);
        assert_eq!(s.per_read().len(), 2);
        assert_eq!(s.stale_reads(Delta::ZERO), 2, "no read is fresh");
        // Ages are 40 and 120.
        assert_eq!(s.stale_reads(Delta::from_ticks(39)), 2);
        assert_eq!(s.stale_reads(Delta::from_ticks(40)), 1);
        assert_eq!(s.stale_reads(Delta::from_ticks(120)), 0);
        assert_eq!(s.mean_staleness(), 80.0);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let h = History::parse("w0(X)7@100 w1(X)1@80 r1(X)1@140 r1(X)1@220 r1(X)1@300 r1(X)1@380")
            .unwrap();
        let s = StalenessStats::of(&h);
        // Ages: 40, 120, 200, 280.
        assert_eq!(s.quantile(0.25), Delta::from_ticks(40));
        assert_eq!(s.quantile(0.5), Delta::from_ticks(120));
        assert_eq!(s.quantile(1.0), Delta::from_ticks(280));
        assert_eq!(s.quantile(0.0), Delta::from_ticks(40), "clamped to rank 1");
    }

    #[test]
    fn initial_reads_age_against_all_writes() {
        let h = History::parse("w0(X)5@10 r1(X)0@200").unwrap();
        let s = StalenessStats::of(&h);
        assert_eq!(s.max_staleness(), Delta::from_ticks(190));
    }

    #[test]
    fn empty_history() {
        let s = StalenessStats::of(&History::empty());
        assert!(s.per_read().is_empty());
        assert_eq!(s.quantile(0.5), Delta::ZERO);
        assert_eq!(s.mean_staleness(), 0.0);
    }
}
