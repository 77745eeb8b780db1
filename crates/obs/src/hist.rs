//! Log-bucketed latency histograms.
//!
//! Bucket `i` counts values whose bit length is `i`, i.e. bucket 0 holds
//! the value 0 and bucket `i ≥ 1` holds `[2^(i-1), 2^i)`. 65 buckets cover
//! the whole `u64` range, every `record` is O(1), and two histograms over
//! disjoint samples merge by adding buckets — which is what lets the
//! coordinator fold per-node dumps into one cluster view. Quantiles are
//! read as the upper bound of the bucket where the cumulative count
//! crosses the target rank (a ≤ 2× overestimate, never an underestimate).

/// Number of power-of-two buckets (bit lengths 0..=64).
pub const BUCKET_COUNT: usize = 65;

/// A mergeable power-of-two-bucketed histogram with exact count/sum/min/max.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; BUCKET_COUNT],
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index of `v`: its bit length.
#[inline]
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i`.
fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        64.. => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKET_COUNT],
        }
    }

    /// Record one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_of(v)] += 1;
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value, `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value, `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Raw bucket counts (index = bit length of the value).
    pub fn buckets(&self) -> &[u64; BUCKET_COUNT] {
        &self.buckets
    }

    /// Fold `other` into `self` (bucket-wise addition).
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the bucket
    /// where the cumulative count reaches rank `ceil(q·count)`; the exact
    /// max for the top bucket. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Never report a bound above the actually observed max.
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Median (p50).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Append the wire form: count, sum, min, max, bucket count, buckets
    /// (all little-endian `u64` except the `u8` bucket count).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&self.sum.to_le_bytes());
        out.extend_from_slice(&self.min.to_le_bytes());
        out.extend_from_slice(&self.max.to_le_bytes());
        out.push(BUCKET_COUNT as u8);
        for b in &self.buckets {
            out.extend_from_slice(&b.to_le_bytes());
        }
    }

    /// Decode the wire form from `buf` at `*pos`, advancing it. `None` on
    /// truncation or a bucket count this reader does not understand.
    pub fn decode_from(buf: &[u8], pos: &mut usize) -> Option<LogHistogram> {
        let count = read_u64(buf, pos)?;
        let sum = read_u64(buf, pos)?;
        let min = read_u64(buf, pos)?;
        let max = read_u64(buf, pos)?;
        let n = read_u8(buf, pos)? as usize;
        if n != BUCKET_COUNT {
            return None;
        }
        let mut buckets = [0u64; BUCKET_COUNT];
        for b in &mut buckets {
            *b = read_u64(buf, pos)?;
        }
        Some(LogHistogram {
            count,
            sum,
            min,
            max,
            buckets,
        })
    }
}

pub(crate) fn read_u64(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let bytes: [u8; 8] = buf.get(*pos..*pos + 8)?.try_into().ok()?;
    *pos += 8;
    Some(u64::from_le_bytes(bytes))
}

pub(crate) fn read_u8(buf: &[u8], pos: &mut usize) -> Option<u8> {
    let b = *buf.get(*pos)?;
    *pos += 1;
    Some(b)
}

pub(crate) fn read_u16(buf: &[u8], pos: &mut usize) -> Option<u16> {
    let bytes: [u8; 2] = buf.get(*pos..*pos + 2)?.try_into().ok()?;
    *pos += 2;
    Some(u16::from_le_bytes(bytes))
}

pub(crate) fn read_u32(buf: &[u8], pos: &mut usize) -> Option<u32> {
    let bytes: [u8; 4] = buf.get(*pos..*pos + 4)?.try_into().ok()?;
    *pos += 4;
    Some(u32::from_le_bytes(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p999(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn buckets_follow_bit_length() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn quantiles_bound_the_true_value_from_above_within_2x() {
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        // True p50 = 500; the estimate sits in [500, 1000).
        let p50 = h.p50();
        assert!((500..1000).contains(&p50), "p50 = {p50}");
        let p99 = h.p99();
        assert!((990..=1000).contains(&p99.min(1000)), "p99 = {p99}");
        // Quantiles never exceed the observed max.
        assert!(h.p999() <= 1000);
        assert_eq!(h.quantile(1.0), h.p999().max(h.quantile(1.0)).min(1000));
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(1000));
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500500);
    }

    #[test]
    fn merge_equals_recording_the_union() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut both = LogHistogram::new();
        for v in [3u64, 17, 90, 1000, 0] {
            a.record(v);
            both.record(v);
        }
        for v in [5u64, 5, 12345, u64::MAX] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
        // Merging an empty histogram is a no-op.
        let before = a.clone();
        a.merge(&LogHistogram::new());
        assert_eq!(a, before);
    }

    #[test]
    fn wire_form_roundtrips() {
        let mut h = LogHistogram::new();
        for v in [0u64, 1, 2, 1023, 1024, u64::MAX] {
            h.record(v);
        }
        let mut buf = Vec::new();
        h.encode_into(&mut buf);
        let mut pos = 0;
        let back = LogHistogram::decode_from(&buf, &mut pos).unwrap();
        assert_eq!(back, h);
        assert_eq!(pos, buf.len());
        // Truncated input is rejected.
        let mut pos = 0;
        assert!(LogHistogram::decode_from(&buf[..buf.len() - 1], &mut pos).is_none());
    }
}
