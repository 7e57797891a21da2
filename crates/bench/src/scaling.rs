//! Honest-scaling helpers for the `dta_throughput` bench's
//! thread-scaling curve, which refuses to fabricate parallel speedups
//! the host cannot exhibit: requested counts above the detected core
//! count are dropped and the written report carries an explicit
//! `degraded` flag with the reason.

/// Detected hardware parallelism (1 when the query fails).
pub fn detected_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Which of the requested thread/worker counts are honestly measurable
/// on this host, and whether the resulting curve is degraded.
#[derive(Debug, Clone)]
pub struct ScalingPlan {
    /// Detected core count the plan was made for.
    pub cores: usize,
    /// The counts the bench wanted to measure.
    pub requested: Vec<usize>,
    /// The counts that fit the host (`<= cores`), in request order.
    pub usable: Vec<usize>,
}

impl ScalingPlan {
    /// Plan a scaling curve: keep only counts the host can actually run
    /// in parallel. Oversubscribed points would measure scheduler churn
    /// and, on a 1-core box, produce a spurious *declining* curve.
    #[must_use]
    pub fn new(requested: &[usize], cores: usize) -> Self {
        ScalingPlan {
            cores,
            requested: requested.to_vec(),
            usable: requested.iter().copied().filter(|&t| t <= cores).collect(),
        }
    }

    /// True when any requested count was dropped.
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.usable.len() < self.requested.len()
    }

    /// Human-readable reason for the `degraded` flag, `None` when the
    /// full curve is measurable.
    #[must_use]
    pub fn degraded_reason(&self) -> Option<String> {
        self.degraded().then(|| {
            format!(
                "host exposes {} core(s); curve degraded to {:?} (requested {:?})",
                self.cores, self.usable, self.requested
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_drops_oversubscribed_counts() {
        let plan = ScalingPlan::new(&[1, 2, 4, 8], 4);
        assert_eq!(plan.usable, vec![1, 2, 4]);
        assert!(plan.degraded());
        let reason = plan.degraded_reason().expect("degraded");
        assert!(reason.contains("4 core(s)"), "{reason}");
        assert!(reason.contains("[1, 2, 4, 8]"), "{reason}");
    }

    #[test]
    fn full_curve_is_not_degraded() {
        let plan = ScalingPlan::new(&[1, 2, 4], 8);
        assert_eq!(plan.usable, vec![1, 2, 4]);
        assert!(!plan.degraded());
        assert_eq!(plan.degraded_reason(), None);
    }
}
