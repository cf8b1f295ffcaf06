//! Log-bucketed latency histograms for per-document and per-stage timing
//! distributions.
//!
//! A [`Histogram`] records durations into geometrically growing buckets —
//! 16 sub-buckets per power of two of nanoseconds, the HdrHistogram
//! layout — so the whole nanosecond-to-hours range fits in under a
//! thousand counters while any quantile estimate stays within ~6.25%
//! relative error of the exact value. Recording is a couple of shifts and
//! one array increment (no allocation once the bucket exists), cheap
//! enough to sit on the batch executor's per-document hot path; merging
//! is element-wise addition, so per-worker histograms combine into batch
//! totals without locks and independently of worker scheduling.

use std::time::Duration;

/// log2 of the sub-bucket count: 16 sub-buckets per octave.
const SUB_SHIFT: u32 = 4;
/// Sub-buckets per power of two. Quantile estimates are off by at most
/// one bucket width, i.e. a relative error of `1/SUBBUCKETS` = 6.25%.
const SUBBUCKETS: u64 = 1 << SUB_SHIFT;

/// A log-bucketed histogram of [`Duration`] samples.
///
/// Values below `SUBBUCKETS` (16) nanoseconds are counted exactly (one
/// bucket per nanosecond); above that, buckets grow geometrically. The
/// exact maximum is tracked on the side so [`Histogram::max`] is always
/// precise, while [`Histogram::quantile`] is bucket-accurate (≤ 6.25%
/// relative error).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Bucket counters, grown lazily to the highest index ever recorded.
    buckets: Vec<u64>,
    /// Total samples recorded.
    count: u64,
    /// Exact largest sample in nanoseconds (0 when empty).
    max_ns: u64,
    /// Sum of all samples in nanoseconds (for the mean).
    sum_ns: u128,
}

/// Bucket index for a nanosecond value.
fn bucket_index(ns: u64) -> usize {
    if ns < SUBBUCKETS {
        ns as usize
    } else {
        // ns in [2^m, 2^(m+1)) with m >= SUB_SHIFT: the top SUB_SHIFT+1
        // bits select the bucket, giving SUBBUCKETS buckets per octave
        // that line up seamlessly with the exact region below.
        let m = 63 - ns.leading_zeros();
        let sub = (ns >> (m - SUB_SHIFT)) - SUBBUCKETS;
        ((m - SUB_SHIFT) as u64 * SUBBUCKETS + SUBBUCKETS + sub) as usize
    }
}

/// Inclusive upper bound (in nanoseconds) of the bucket at `index`.
fn bucket_upper_ns(index: usize) -> u64 {
    let index = index as u64;
    if index < SUBBUCKETS {
        index
    } else {
        let octave = (index - SUBBUCKETS) / SUBBUCKETS;
        let sub = (index - SUBBUCKETS) % SUBBUCKETS;
        // Lower bound is (SUBBUCKETS + sub) << octave; the bucket spans
        // one `1 << octave` step. Widened to u128: the topmost bucket's
        // upper bound is exactly 2^64, which must clamp, not overflow.
        let upper = (u128::from(SUBBUCKETS + sub + 1) << octave) - 1;
        u64::try_from(upper).unwrap_or(u64::MAX)
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, sample: Duration) {
        let ns = u64::try_from(sample.as_nanos()).unwrap_or(u64::MAX);
        let index = bucket_index(ns);
        if self.buckets.len() <= index {
            self.buckets.resize(index + 1, 0);
        }
        self.buckets[index] += 1;
        self.count += 1;
        self.max_ns = self.max_ns.max(ns);
        self.sum_ns += u128::from(ns);
    }

    /// Element-wise merge of another histogram into this one. Merging is
    /// commutative and associative, so per-worker histograms combine into
    /// the same batch totals regardless of worker scheduling.
    pub fn merge(&mut self, other: &Histogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.max_ns = self.max_ns.max(other.max_ns);
        self.sum_ns += other.sum_ns;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Serializes the histogram losslessly into a compact single-line
    /// text form: `count,max_ns,sum_ns` followed by `;index:counter`
    /// for every non-empty bucket. This is the wire format the sharded
    /// batch driver uses to ship per-shard histograms from worker
    /// processes to the parent, where [`Histogram::decode`] +
    /// [`Histogram::merge`] reconstruct the exact single-process result.
    pub fn encode(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!("{},{},{}", self.count, self.max_ns, self.sum_ns);
        for (index, &n) in self.buckets.iter().enumerate() {
            if n != 0 {
                let _ = write!(out, ";{index}:{n}");
            }
        }
        out
    }

    /// Parses a histogram from its [`Histogram::encode`] form. Returns
    /// `None` on any malformation: bad syntax, a bucket index outside
    /// the layout's range, duplicate indices, or bucket counters that do
    /// not sum to the sample count. Decoding an encoded histogram always
    /// yields a structurally equal histogram.
    pub fn decode(text: &str) -> Option<Self> {
        // The layout caps bucket indices: the topmost octave of a u64
        // nanosecond value lands below (64 - SUB_SHIFT + 1) * SUBBUCKETS.
        const MAX_INDEX: usize = ((64 - SUB_SHIFT as usize) + 1) << SUB_SHIFT;
        let mut parts = text.split(';');
        let head = parts.next()?;
        let mut nums = head.split(',');
        let count: u64 = nums.next()?.parse().ok()?;
        let max_ns: u64 = nums.next()?.parse().ok()?;
        let sum_ns: u128 = nums.next()?.parse().ok()?;
        if nums.next().is_some() {
            return None;
        }
        let mut buckets: Vec<u64> = Vec::new();
        let mut total: u64 = 0;
        for part in parts {
            let (index, n) = part.split_once(':')?;
            let index: usize = index.parse().ok()?;
            let n: u64 = n.parse().ok()?;
            if n == 0 || index > MAX_INDEX {
                return None;
            }
            if buckets.len() <= index {
                buckets.resize(index + 1, 0);
            }
            if buckets[index] != 0 {
                return None;
            }
            buckets[index] = n;
            total = total.checked_add(n)?;
        }
        if total != count {
            return None;
        }
        Some(Self {
            buckets,
            count,
            max_ns,
            sum_ns,
        })
    }

    /// The exact largest recorded sample ([`Duration::ZERO`] when empty).
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_ns)
    }

    /// The mean of all recorded samples ([`Duration::ZERO`] when empty).
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            Duration::from_nanos((self.sum_ns / u128::from(self.count)) as u64)
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the bucket
    /// holding the sample of that rank, clamped to the exact maximum —
    /// within 6.25% relative error of the exact order statistic.
    /// [`Duration::ZERO`] when empty.
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        // Rank of the order statistic: ceil(q * count), clamped to [1, count].
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Duration::from_nanos(bucket_upper_ns(index).min(self.max_ns));
            }
        }
        // invariant: the loop always reaches `rank` because `count` is the
        // sum of all bucket counters.
        self.max()
    }

    /// Median (50th percentile).
    pub fn p50(&self) -> Duration {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> Duration {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Duration {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(samples_ns: &[u64]) -> Histogram {
        let mut h = Histogram::new();
        for &ns in samples_ns {
            h.record(Duration::from_nanos(ns));
        }
        h
    }

    /// The exact order statistic `quantile` approximates: with rank
    /// `ceil(q * n)` (1-based) over the sorted samples.
    fn exact_quantile(samples_ns: &[u64], q: f64) -> u64 {
        let mut sorted = samples_ns.to_vec();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), Duration::ZERO);
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.quantile(0.5), Duration::ZERO);
    }

    #[test]
    fn small_values_are_exact() {
        // The linear region (< 16 ns) has one bucket per nanosecond.
        let h = h(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]);
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
            let want = exact_quantile(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15], q);
            assert_eq!(h.quantile(q), Duration::from_nanos(want), "q={q}");
        }
    }

    #[test]
    fn bucket_layout_is_contiguous_and_monotonic() {
        // Every nanosecond value maps to a bucket whose bounds contain it,
        // and indices never decrease as values grow.
        let mut values: Vec<u64> = (0..60)
            .flat_map(|shift| [0u64, 1, 3].map(|delta| (1u64 << shift) + delta))
            .collect();
        values.sort_unstable();
        let mut prev_index = 0;
        for v in values {
            let index = bucket_index(v);
            assert!(index >= prev_index, "index regressed at {v}");
            assert!(bucket_upper_ns(index) >= v, "upper bound below {v}");
            if index > 0 {
                assert!(bucket_upper_ns(index - 1) < v, "wrong bucket for {v}");
            }
            prev_index = index;
        }
    }

    #[test]
    fn quantiles_track_exact_reference_within_bucket_error() {
        // Deterministic pseudo-random samples spanning six decades.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut samples = Vec::new();
        for _ in 0..4000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            samples.push((state >> 20) % 1_000_000_000);
        }
        let hist = h(&samples);
        assert_eq!(hist.count(), samples.len() as u64);
        for q in [0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = exact_quantile(&samples, q) as f64;
            let approx = hist.quantile(q).as_nanos() as f64;
            // Bucket upper bound: never below the exact value, and at most
            // one sub-bucket (6.25%) above it.
            assert!(approx >= exact, "q={q}: {approx} < exact {exact}");
            assert!(
                approx <= exact * (1.0 + 1.0 / 16.0) + 1.0,
                "q={q}: {approx} too far above exact {exact}"
            );
        }
        assert_eq!(
            hist.max(),
            Duration::from_nanos(*samples.iter().max().unwrap()),
            "max is tracked exactly"
        );
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let a: Vec<u64> = (0..500).map(|i| i * 7919 % 1_000_000).collect();
        let b: Vec<u64> = (0..300).map(|i| i * 104729 % 50_000_000).collect();
        let mut merged = h(&a);
        merged.merge(&h(&b));
        let mut all = a.clone();
        all.extend(&b);
        assert_eq!(merged, h(&all));
    }

    #[test]
    fn encode_decode_roundtrips_structurally() {
        let samples: Vec<u64> = (0..800).map(|i| i * 104729 % 90_000_000).collect();
        let hist = h(&samples);
        let decoded = Histogram::decode(&hist.encode()).expect("decodes");
        assert_eq!(decoded, hist);
        // Quantiles and the exact max survive the trip bit-for-bit.
        assert_eq!(decoded.p99(), hist.p99());
        assert_eq!(decoded.max(), hist.max());
        // Empty histogram too.
        let empty = Histogram::new();
        assert_eq!(Histogram::decode(&empty.encode()), Some(empty));
        // And the saturating extreme.
        let mut extreme = Histogram::new();
        extreme.record(Duration::MAX);
        assert_eq!(Histogram::decode(&extreme.encode()), Some(extreme));
    }

    #[test]
    fn decode_merge_equals_in_process_merge() {
        // The shard transport invariant: decoding per-shard encodings and
        // merging them gives the same histogram as one process recording
        // everything.
        let a: Vec<u64> = (0..500).map(|i| i * 7919 % 1_000_000).collect();
        let b: Vec<u64> = (0..300).map(|i| i * 104729 % 50_000_000).collect();
        let mut merged = Histogram::decode(&h(&a).encode()).unwrap();
        merged.merge(&Histogram::decode(&h(&b).encode()).unwrap());
        let mut all = a.clone();
        all.extend(&b);
        assert_eq!(merged, h(&all));
    }

    #[test]
    fn decode_rejects_malformed_text() {
        for bad in [
            "",
            "1,2",
            "1,2,3,4",
            "x,0,0",
            "1,0,0;", // empty bucket entry
            "1,0,0;0",
            "1,0,0;0:x",
            "2,0,0;0:1",     // counters don't sum to count
            "1,0,0;0:0",     // explicit zero counter
            "2,0,0;0:1;0:1", // duplicate index
            "1,0,0;99999:1", // index outside the layout
            "1,0,0,extra;0:1",
        ] {
            assert_eq!(Histogram::decode(bad), None, "accepted {bad:?}");
        }
    }

    #[test]
    fn huge_samples_saturate_instead_of_panicking() {
        let mut hist = Histogram::new();
        hist.record(Duration::MAX);
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.max(), Duration::from_nanos(u64::MAX));
        assert!(hist.quantile(0.5) > Duration::from_secs(100 * 365 * 24 * 3600));
    }
}
