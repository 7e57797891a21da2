//! State-dependent statistical settle-time surrogate.
//!
//! Exact dynamic timing analysis walks every gate of the netlist for every
//! operand transition (~µs/pair even compiled). This module fits a cheap
//! *surrogate* predictor from exact-DTA traces, organized as two tiers of
//! feature buckets over the operand/state structure that dominates settle
//! time:
//!
//! * A **coarse statistical tier** keyed by the exponent bands of both
//!   operands (which carry chains fire), the hamming distance to the
//!   previous circuit state (how much of the datapath toggles at all;
//!   `hd = 0` settles instantly), and the mantissa densities of both
//!   operands (partial-product and sticky-logic activity). This tier
//!   generalizes across operands.
//! * A **fine structural tier** keyed by the sign, the exact exponent,
//!   and the top mantissa bits of each operand plus the hamming band.
//!   Near-threshold units (the double multiplier's worst path fills
//!   97.8 % of the nominal clock) have settle distributions that hug the
//!   derated threshold, where density bands cannot separate safe from
//!   violating transitions but the concrete operand structure can. This
//!   tier is consulted first.
//!
//! Per bucket the fitter records the sample count, the worst settle time
//! ever observed (max over output bits, max over samples), and the *best*
//! worst-bit settle (min over samples).
//!
//! Classification at derating factor `k` against clock period `clk`:
//!
//! * `max_settle · k ≤ clk` → **confidently safe** — no observed sample of
//!   this state class came anywhere near violating timing;
//! * `min_worst · k > clk` → **confidently erroneous** — every observed
//!   sample violated timing;
//! * otherwise (or bucket unseen / under-sampled) → **uncertain**.
//!
//! The tiered DTA pipeline in `tei_core::dev` sends only the uncertain
//! band (plus a seeded audit fraction of the "safe" band) to exact DTA.
//! No shipped flow uses it: DESIGN.md §11 records why (held-out
//! false-safe verdicts, and a net loss end to end).
//!
//! The model is a plain serde struct with a fingerprint of the compiled
//! netlist it was fitted against; loading it for a different netlist,
//! clock, or derating ceiling is a typed refusal, never a silent
//! mis-prediction.

use serde::{Deserialize, Serialize};

/// Schema tag embedded in persisted model artifacts. v2 added the fine
/// structural tier; v3 dropped the coarse tier's per-bit mask-prediction
/// statistics. Older artifacts are refused typed and refit.
pub const SURROGATE_SCHEMA: &str = "tei-surrogate-v3";

/// Number of coarse feature-key bits: ea(3) | eb(3) | hd(3) | ma(2) | mb(2).
pub const KEY_BITS: u32 = 13;

/// Number of buckets in the (sparse) feature table.
pub const N_BUCKETS: usize = 1 << KEY_BITS;

/// Default minimum samples before a bucket's statistics are trusted.
pub const DEFAULT_MIN_COUNT: u32 = 4;

/// Default derating-factor ceiling the model is calibrated for. VR20 is
/// ≈1.52; 2.0 leaves headroom for overclock/aging composition.
pub const DEFAULT_K_CEILING: f64 = 2.0;

/// Bit-level shape of one operand, used for feature extraction.
///
/// For floating-point operands `exp_bits`/`frac_bits` follow the IEEE
/// layout; for raw-integer operands (the ItoF conversions) both are zero
/// and the magnitude/density features fall back to whole-word forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OperandFormat {
    /// Total operand width in bits (≤ 64).
    pub width: u32,
    /// Exponent field width (0 for raw integers).
    pub exp_bits: u32,
    /// Mantissa field width (0 for raw integers).
    pub frac_bits: u32,
    /// Whether the op consumes two operands (false: `b` is ignored).
    pub binary: bool,
}

impl OperandFormat {
    /// 3-bit exponent band of operand `x`: the top bits of the biased
    /// exponent for floats, a log-magnitude band for raw integers.
    fn exp_band(&self, x: u64) -> u64 {
        if self.exp_bits >= 3 {
            let exp = (x >> self.frac_bits) & ((1u64 << self.exp_bits) - 1);
            exp >> (self.exp_bits - 3)
        } else {
            // Raw integer: bucket by bit-length, 8 bands over the width.
            let bits = 64 - x.leading_zeros() as u64;
            (bits * 8 / (u64::from(self.width) + 1)).min(7)
        }
    }

    /// 24-bit structural signature of one operand for the fine tier:
    /// sign (1) | exact biased exponent (11) | top 12 mantissa bits.
    /// Raw integers substitute bit-length for the exponent and their
    /// leading bits for the mantissa.
    fn signature(&self, x: u64) -> u64 {
        let sign = if self.width == 0 {
            0
        } else {
            (x >> (self.width - 1)) & 1
        };
        let (e, m) = if self.frac_bits > 0 {
            let e = (x >> self.frac_bits) & ((1u64 << self.exp_bits) - 1);
            let frac = x & ((1u64 << self.frac_bits) - 1);
            let m = if self.frac_bits > 12 {
                frac >> (self.frac_bits - 12)
            } else {
                frac
            };
            (e, m)
        } else {
            let bits = 64 - x.leading_zeros() as u64;
            let m = if bits > 12 { x >> (bits - 12) } else { x };
            (bits, m)
        };
        (sign << 23) | ((e & 0x7ff) << 12) | (m & 0xfff)
    }

    /// 2-bit density band of operand `x`'s mantissa (or whole word).
    fn frac_band(&self, x: u64) -> u64 {
        let (field, width) = if self.frac_bits > 0 {
            (x & ((1u64 << self.frac_bits) - 1), self.frac_bits)
        } else {
            (x & mask_of(self.width), self.width)
        };
        (u64::from(field.count_ones()) * 4 / (u64::from(width) + 1)).min(3)
    }
}

fn mask_of(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// 3-bit band of the input hamming distance between consecutive states.
/// Distance 0 is its own band: nothing toggles, nothing can violate.
fn hd_band(hd: u32) -> u64 {
    match hd {
        0 => 0,
        1..=2 => 1,
        3..=4 => 2,
        5..=8 => 3,
        9..=16 => 4,
        17..=32 => 5,
        33..=64 => 6,
        _ => 7,
    }
}

/// Feature key of a `(prev, cur)` operand-pair transition.
#[must_use]
pub fn bucket_key(fmt: &OperandFormat, prev: (u64, u64), cur: (u64, u64)) -> u32 {
    let m = mask_of(fmt.width);
    let (pa, pb) = (prev.0 & m, prev.1 & m);
    let (ca, cb) = (cur.0 & m, cur.1 & m);
    let hd = if fmt.binary {
        (pa ^ ca).count_ones() + (pb ^ cb).count_ones()
    } else {
        (pa ^ ca).count_ones()
    };
    let ea = fmt.exp_band(ca);
    let (eb, mb) = if fmt.binary {
        (fmt.exp_band(cb), fmt.frac_band(cb))
    } else {
        (0, 0)
    };
    let ma = fmt.frac_band(ca);
    ((ea << 10) | (eb << 7) | (hd_band(hd) << 4) | (ma << 2) | mb) as u32
}

/// Fine-tier feature key of a `(prev, cur)` operand-pair transition:
/// the [`OperandFormat::signature`] of each current operand and the
/// hamming band to the previous state. 51 bits — safely inside the
/// 53-bit integer range every JSON number round-trips exactly.
#[must_use]
pub fn fine_key(fmt: &OperandFormat, prev: (u64, u64), cur: (u64, u64)) -> u64 {
    let m = mask_of(fmt.width);
    let (pa, pb) = (prev.0 & m, prev.1 & m);
    let (ca, cb) = (cur.0 & m, cur.1 & m);
    let hd = if fmt.binary {
        (pa ^ ca).count_ones() + (pb ^ cb).count_ones()
    } else {
        (pa ^ ca).count_ones()
    };
    let sb = if fmt.binary { fmt.signature(cb) } else { 0 };
    (fmt.signature(ca) << 27) | (sb << 3) | hd_band(hd)
}

/// Surrogate verdict for one transition at a given derating factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SurrogateClass {
    /// No observed sample of this state class came near a violation.
    Safe,
    /// Every observed sample of this state class violated timing.
    Erroneous,
    /// Unseen, under-sampled, or mixed-outcome state class.
    Uncertain,
}

/// One occupied feature bucket.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Bucket {
    /// Feature key (see [`bucket_key`]).
    key: u32,
    /// Samples observed during fitting.
    count: u32,
    /// Worst settle time over all samples and output bits (ns, clamped to
    /// the fitting clock).
    max_settle: f64,
    /// Best per-sample worst-bit settle time (min over samples of the max
    /// over bits): `min_worst · k > clk` ⇒ every sample violated.
    min_worst: f64,
}

/// One occupied fine-tier bucket.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct FineBucket {
    /// Feature key (see [`fine_key`]).
    key: u64,
    /// Samples observed during fitting.
    count: u32,
    /// Worst settle time over all samples and output bits (ns).
    max_settle: f64,
    /// Best per-sample worst-bit settle time (min over samples).
    min_worst: f64,
}

/// A fitted, persistable surrogate model for one FPU unit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SurrogateModel {
    /// Artifact schema tag ([`SURROGATE_SCHEMA`]).
    pub schema: String,
    /// Tag of the FPU unit the model was fitted for.
    pub unit_tag: String,
    /// Fingerprint of the compiled netlist the fit traces came from.
    pub fingerprint: u64,
    /// Clock period the settle times were clamped against (ns).
    pub clk: f64,
    /// Operand shape used for feature extraction.
    pub format: OperandFormat,
    /// Output width in bits.
    pub out_bits: u32,
    /// Minimum bucket samples before its statistics are trusted.
    pub min_count: u32,
    /// Largest derating factor the model may be queried at.
    pub k_ceiling: f64,
    /// Total transitions observed during fitting.
    pub fit_pairs: u64,
    // Occupied coarse buckets, sorted strictly ascending by key (the fitter
    // emits them in key order; `validate` refuses artifacts that are not).
    buckets: Vec<Bucket>,
    // Occupied fine-tier buckets, sorted strictly ascending by key.
    fine: Vec<FineBucket>,
}

impl SurrogateModel {
    fn bucket(&self, key: u32) -> Option<&Bucket> {
        self.buckets
            .binary_search_by_key(&key, |b| b.key)
            .ok()
            .map(|i| &self.buckets[i])
    }

    fn fine_bucket(&self, key: u64) -> Option<&FineBucket> {
        self.fine
            .binary_search_by_key(&key, |b| b.key)
            .ok()
            .map(|i| &self.fine[i])
    }

    /// Classify one transition at derating factor `k`. The fine tier is
    /// consulted first; an inconclusive fine verdict (unseen bucket,
    /// under-sampled, or straddling the threshold) falls through to the
    /// coarse tier. Either tier's confident verdict is sound for the
    /// same reason: a bucket's running max/min covers every member the
    /// fit observed.
    ///
    /// # Panics
    ///
    /// Panics if `k` exceeds the calibrated `k_ceiling`.
    #[must_use]
    pub fn classify(&self, prev: (u64, u64), cur: (u64, u64), k: f64) -> SurrogateClass {
        assert!(
            k <= self.k_ceiling,
            "derating factor {k} above calibrated ceiling {}",
            self.k_ceiling
        );
        if let Some(f) = self.fine_bucket(fine_key(&self.format, prev, cur)) {
            if f.count >= self.min_count {
                if f.max_settle * k <= self.clk {
                    return SurrogateClass::Safe;
                }
                if f.min_worst * k > self.clk {
                    return SurrogateClass::Erroneous;
                }
            }
        }
        let Some(b) = self.bucket(bucket_key(&self.format, prev, cur)) else {
            return SurrogateClass::Uncertain;
        };
        if b.count < self.min_count {
            return SurrogateClass::Uncertain;
        }
        if b.max_settle * k <= self.clk {
            SurrogateClass::Safe
        } else if b.min_worst * k > self.clk {
            SurrogateClass::Erroneous
        } else {
            SurrogateClass::Uncertain
        }
    }

    /// Check this model against the unit it is about to predict for.
    /// Any mismatch is a reason string for a typed refusal upstream.
    pub fn validate(
        &self,
        unit_tag: &str,
        fingerprint: u64,
        clk: f64,
        k_max: f64,
    ) -> Result<(), String> {
        if self.schema != SURROGATE_SCHEMA {
            return Err(format!(
                "schema {:?} != expected {SURROGATE_SCHEMA:?}",
                self.schema
            ));
        }
        if self.unit_tag != unit_tag {
            return Err(format!(
                "fitted for unit {:?}, asked to predict for {unit_tag:?}",
                self.unit_tag
            ));
        }
        if self.fingerprint != fingerprint {
            return Err(format!(
                "netlist fingerprint {:016x} != live {fingerprint:016x} (stale artifact)",
                self.fingerprint
            ));
        }
        if self.clk.to_bits() != clk.to_bits() {
            return Err(format!(
                "fitted at clk {} ns, queried at {clk} ns",
                self.clk
            ));
        }
        if k_max > self.k_ceiling {
            return Err(format!(
                "derating factor {k_max} above calibrated ceiling {}",
                self.k_ceiling
            ));
        }
        if self.buckets.windows(2).any(|w| w[0].key >= w[1].key) {
            return Err("bucket table not sorted by key (corrupt artifact)".to_string());
        }
        if self.fine.windows(2).any(|w| w[0].key >= w[1].key) {
            return Err("fine bucket table not sorted by key (corrupt artifact)".to_string());
        }
        Ok(())
    }

    /// Number of occupied feature buckets.
    #[must_use]
    pub fn occupied_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Number of occupied fine-tier buckets.
    #[must_use]
    pub fn fine_buckets(&self) -> usize {
        self.fine.len()
    }
}

/// Streaming fitter: feed exact-DTA per-bit settle times, then
/// [`finish`](SurrogateFitter::finish) into a [`SurrogateModel`].
#[derive(Debug)]
pub struct SurrogateFitter {
    model: SurrogateModel,
    // Dense fit-time table; compacted to the sparse model form at finish.
    counts: Vec<u32>,
    max_settle: Vec<f64>,
    min_worst: Vec<f64>,
    // Sparse fine-tier table keyed by [`fine_key`]; sorted at finish.
    fine: std::collections::HashMap<u64, FineBucket>,
}

impl SurrogateFitter {
    /// Start a fit for one unit.
    #[must_use]
    pub fn new(
        unit_tag: &str,
        fingerprint: u64,
        clk: f64,
        format: OperandFormat,
        out_bits: u32,
    ) -> Self {
        SurrogateFitter {
            model: SurrogateModel {
                schema: SURROGATE_SCHEMA.to_string(),
                unit_tag: unit_tag.to_string(),
                fingerprint,
                clk,
                format,
                out_bits,
                min_count: DEFAULT_MIN_COUNT,
                k_ceiling: DEFAULT_K_CEILING,
                fit_pairs: 0,
                buckets: Vec::new(),
                fine: Vec::new(),
            },
            counts: vec![0; N_BUCKETS],
            max_settle: vec![0.0; N_BUCKETS],
            min_worst: vec![f64::INFINITY; N_BUCKETS],
            fine: std::collections::HashMap::new(),
        }
    }

    /// Record one observed transition: `settles[bit]` is the exact-DTA
    /// settle time of output bit `bit`, already clamped to the nominal
    /// clock (`settle.min(clk)`, matching the campaign's arrival model).
    pub fn observe(&mut self, prev: (u64, u64), cur: (u64, u64), settles: &[f64]) {
        debug_assert_eq!(settles.len(), self.model.out_bits as usize);
        let key = bucket_key(&self.model.format, prev, cur) as usize;
        let worst = settles.iter().fold(0.0f64, |a, &s| a.max(s));
        self.counts[key] += 1;
        self.max_settle[key] = self.max_settle[key].max(worst);
        self.min_worst[key] = self.min_worst[key].min(worst);
        let fk = fine_key(&self.model.format, prev, cur);
        let fb = self.fine.entry(fk).or_insert(FineBucket {
            key: fk,
            count: 0,
            max_settle: 0.0,
            min_worst: f64::INFINITY,
        });
        fb.count += 1;
        fb.max_settle = fb.max_settle.max(worst);
        fb.min_worst = fb.min_worst.min(worst);
        self.model.fit_pairs += 1;
    }

    /// Compact into the sparse model, emitting occupied buckets in
    /// ascending key order (the lookup invariant).
    #[must_use]
    pub fn finish(mut self) -> SurrogateModel {
        for key in 0..N_BUCKETS {
            if self.counts[key] == 0 {
                continue;
            }
            self.model.buckets.push(Bucket {
                key: key as u32,
                count: self.counts[key],
                max_settle: self.max_settle[key],
                min_worst: self.min_worst[key],
            });
        }
        let mut fine: Vec<FineBucket> = self.fine.into_values().collect();
        fine.sort_unstable_by_key(|b| b.key);
        self.model.fine = fine;
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLK: f64 = 4.5;

    fn fmt64() -> OperandFormat {
        OperandFormat {
            width: 64,
            exp_bits: 11,
            frac_bits: 52,
            binary: true,
        }
    }

    type Sample = ((u64, u64), (u64, u64), Vec<f64>);

    fn fit(samples: &[Sample]) -> SurrogateModel {
        let mut f = SurrogateFitter::new("test-unit", 0xdead_beef, CLK, fmt64(), 2);
        for (prev, cur, settles) in samples {
            f.observe(*prev, *cur, settles);
        }
        f.finish()
    }

    #[test]
    fn zero_toggle_transitions_share_the_zero_band() {
        let f = fmt64();
        let a = (0x3ff0_0000_0000_0000u64, 0x4000_0000_0000_0000u64);
        let key = bucket_key(&f, a, a);
        // hd band is bits 4..7 of the key; identical states → band 0.
        assert_eq!((key >> 4) & 0x7, 0);
        let b = (a.0 ^ 0xff, a.1);
        assert_ne!((bucket_key(&f, a, b) >> 4) & 0x7, 0);
    }

    #[test]
    fn classification_follows_bucket_statistics() {
        let p = (1u64, 2u64);
        let fast = (3u64, 2u64);
        // Four fast samples (well under clk at k=2) → Safe.
        let samples: Vec<_> = (0..4).map(|_| (p, fast, vec![1.0, 1.5])).collect();
        let m = fit(&samples);
        assert_eq!(m.classify(p, fast, 1.52), SurrogateClass::Safe);
        // Unseen state class → Uncertain.
        let other = (0xffff_ffff_ffff_ffffu64, 0x1234u64);
        assert_eq!(m.classify(p, other, 1.52), SurrogateClass::Uncertain);
    }

    #[test]
    fn under_sampled_buckets_are_uncertain() {
        let p = (1u64, 2u64);
        let c = (3u64, 2u64);
        let m = fit(&[(p, c, vec![0.1, 0.1])]); // count 1 < min_count 4
        assert_eq!(m.classify(p, c, 1.52), SurrogateClass::Uncertain);
    }

    #[test]
    fn always_violating_buckets_are_erroneous() {
        let p = (1u64, 2u64);
        let c = (3u64, 2u64);
        // Every sample's worst bit exceeds clk/k: min_worst * k > clk.
        let samples: Vec<_> = (0..4).map(|_| (p, c, vec![4.4, 2.0])).collect();
        let m = fit(&samples);
        assert_eq!(m.classify(p, c, 1.52), SurrogateClass::Erroneous);
    }

    #[test]
    fn mixed_buckets_are_uncertain() {
        let p = (1u64, 2u64);
        let c = (3u64, 2u64);
        let mut samples: Vec<_> = (0..3).map(|_| (p, c, vec![4.4, 2.0])).collect();
        samples.push((p, c, vec![0.5, 0.5]));
        let m = fit(&samples);
        // max_settle=4.4 (unsafe at k=1.52), min_worst=0.5 (safe) → mixed.
        assert_eq!(m.classify(p, c, 1.52), SurrogateClass::Uncertain);
    }

    #[test]
    fn ceiling_is_enforced() {
        let m = fit(&[((1, 2), (3, 2), vec![1.0, 1.0])]);
        assert!(m.validate("test-unit", 0xdead_beef, CLK, 1.52).is_ok());
        assert!(m.validate("test-unit", 0xdead_beef, CLK, 2.5).is_err());
        assert!(m.validate("other", 0xdead_beef, CLK, 1.5).is_err());
        assert!(m.validate("test-unit", 0xbad, CLK, 1.5).is_err());
        assert!(m.validate("test-unit", 0xdead_beef, 5.0, 1.5).is_err());
    }

    #[test]
    #[should_panic(expected = "above calibrated ceiling")]
    fn classify_above_ceiling_panics() {
        let m = fit(&[((1, 2), (3, 2), vec![1.0, 1.0])]);
        let _ = m.classify((1, 2), (3, 2), 2.5);
    }

    #[test]
    fn unsorted_bucket_table_is_refused() {
        let samples: Vec<_> = (0..4)
            .flat_map(|_| {
                [
                    ((1u64, 2u64), (3u64, 2u64), vec![1.0, 1.0]),
                    ((1u64, 2u64), (u64::MAX, 2u64), vec![1.0, 1.0]),
                ]
            })
            .collect();
        let mut m = fit(&samples);
        assert!(m.occupied_buckets() >= 2);
        assert!(m.validate("test-unit", 0xdead_beef, CLK, 1.52).is_ok());
        m.buckets.reverse();
        let err = m.validate("test-unit", 0xdead_beef, CLK, 1.52).unwrap_err();
        assert!(err.contains("not sorted"), "{err}");
    }

    #[test]
    fn fine_tier_separates_transitions_the_coarse_bucket_mixes() {
        let f = fmt64();
        let p = (0x3ff0_0000_0000_0000u64, 2u64);
        // Same exponent, same mantissa-density band, one toggled bit each —
        // identical coarse key, distinct top-12 mantissa bits.
        let fast = (p.0 | (1u64 << 51), 2u64);
        let slow = (p.0 | (1u64 << 50), 2u64);
        assert_eq!(bucket_key(&f, p, fast), bucket_key(&f, p, slow));
        assert_ne!(fine_key(&f, p, fast), fine_key(&f, p, slow));
        let mut samples: Vec<_> = (0..4).map(|_| (p, fast, vec![1.0, 1.0])).collect();
        samples.extend((0..4).map(|_| (p, slow, vec![4.4, 4.4])));
        let m = fit(&samples);
        assert_eq!(m.fine_buckets(), 2);
        // The shared coarse bucket straddles the threshold, so the coarse
        // tier alone would say Uncertain for both; the fine tier resolves
        // each to its own confident verdict.
        assert_eq!(m.classify(p, fast, 1.52), SurrogateClass::Safe);
        assert_eq!(m.classify(p, slow, 1.52), SurrogateClass::Erroneous);
        // A corrupt (unsorted) fine table is refused.
        let mut m = m;
        m.fine.reverse();
        let err = m.validate("test-unit", 0xdead_beef, CLK, 1.52).unwrap_err();
        assert!(err.contains("fine bucket table"), "{err}");
    }
}
