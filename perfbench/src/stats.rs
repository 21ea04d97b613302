//! The benchmark's arithmetic: nearest-rank percentiles with the
//! sample-count rule, quartile spreads, and ratios that carry their base.

/// A tail percentile is reported only when at least this many samples
/// lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// The percentiles a tail is chosen from, highest first.
pub const TAIL_LADDER: [f64; 3] = [99.0, 90.0, 50.0];

/// The 1-based nearest rank of the `p`-th percentile among `n` samples:
/// the smallest rank `r` with `r ≥ p/100 · n` (at least 1).
pub fn nearest_rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    // Integer arithmetic on hundredths of a percent keeps ranks exact:
    // `p / 100.0 * n as f64` rounds 0.29 * 100 up to 29.000000000000004.
    let p_bp = (p * 100.0).round() as u128;
    let r = (p_bp * n as u128).div_ceil(10_000) as usize;
    r.clamp(1, n)
}

/// The nearest-rank `p`-th percentile of ascending `sorted` samples.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[nearest_rank(sorted.len(), p) - 1])
}

/// How many of `n` samples lie beyond the nearest-rank `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, p)
    }
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] of `n` samples beyond it, if any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Median and tail of one latency sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: u64,
    /// Which percentile `tail` is (see [`tail_percentile`]).
    pub tail_p: f64,
    /// The tail value.
    pub tail: u64,
}

/// Sorts `samples` and summarises them; `None` when the sample is too
/// small for any tail percentile.
pub fn summarize(samples: &mut [u64]) -> Option<Summary> {
    samples.sort_unstable();
    let tail_p = tail_percentile(samples.len())?;
    Some(Summary {
        n: samples.len(),
        p50: percentile(samples, 50.0)?,
        tail_p,
        tail: percentile(samples, tail_p)?,
    })
}

/// A fixed-size uniform sample of a latency stream (reservoir sampling).
///
/// Every slot is written when the reservoir is made, so its resident
/// memory is the same however many samples a run records: a faster
/// system must not read as a larger one.  Until it is full it holds
/// every sample.
#[derive(Clone, Debug)]
pub struct Reservoir {
    slots: Vec<u64>,
    len: usize,
    seen: u64,
    rng: u64,
}

impl Reservoir {
    /// A reservoir of `capacity` (at least 1) slots.
    pub fn new(capacity: usize) -> Self {
        Reservoir {
            slots: vec![u64::MAX; capacity.max(1)],
            len: 0,
            seen: 0,
            rng: 0x5EED,
        }
    }

    /// Empties the reservoir (keeping its memory).
    pub fn clear(&mut self) {
        self.len = 0;
        self.seen = 0;
        self.rng = 0x5EED;
    }

    /// Offers one sample.
    pub fn record(&mut self, value: u64) {
        self.seen += 1;
        if self.len < self.slots.len() {
            self.slots[self.len] = value;
            self.len += 1;
            return;
        }
        let j = crate::common::splitmix64(&mut self.rng) % self.seen;
        if let Some(slot) = self.slots.get_mut(j as usize) {
            *slot = value;
        }
    }

    /// Samples offered since the last clear.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The kept samples.
    pub fn kept_mut(&mut self) -> &mut [u64] {
        &mut self.slots[..self.len]
    }
}

/// Low bits of a packed sample that hold the value; the bits above hold
/// the index of the time window the sample fell in.
pub const WINDOW_SHIFT: u32 = 40;

/// Packs a sample with its window index (values saturate at 2^40 - 1).
pub fn pack(window: u64, value: u64) -> u64 {
    (window << WINDOW_SHIFT) | value.min((1 << WINDOW_SHIFT) - 1)
}

/// A run measured as equal time windows, each summarised on its own,
/// then the median taken across windows.  A burst of interference moves
/// a few windows, not the result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Windowed {
    /// Full windows summarised.
    pub windows: usize,
    /// Median over windows of completions per second.
    pub rate: f64,
    /// Median over windows of the window's median sample.
    pub p50: f64,
    /// Which percentile `tail` is: the highest of [`TAIL_LADDER`] the
    /// smallest window supports.
    pub tail_p: f64,
    /// Median over windows of the window's `tail_p` sample.
    pub tail: f64,
    /// Samples in the smallest window.
    pub min_samples: usize,
}

/// Summarises packed samples (see [`pack`]) window by window.
/// `completed[w]` counts everything that finished in window `w`, sampled
/// or not; only windows `0..full` count, each `window_s` seconds long.
/// `None` when a window has too few samples for a tail percentile.
pub fn windowed(
    packed: &mut [u64],
    completed: &[u64],
    full: usize,
    window_s: f64,
) -> Option<Windowed> {
    if full == 0 || completed.len() < full {
        return None;
    }
    // Sorted, each window's samples are one run of the slice, in value
    // order (the window index sits in the high bits), so percentiles are
    // read in place and summarising allocates nothing per sample.
    packed.sort_unstable();
    let mask = (1u64 << WINDOW_SHIFT) - 1;
    let groups: Vec<&[u64]> = (0..full as u64)
        .map(|w| {
            let lo = packed.partition_point(|&p| p >> WINDOW_SHIFT < w);
            let hi = packed.partition_point(|&p| p >> WINDOW_SHIFT <= w);
            &packed[lo..hi]
        })
        .collect();
    let min_samples = groups.iter().map(|g| g.len()).min()?;
    let tail_p = tail_percentile(min_samples)?;
    let rates: Vec<f64> = completed[..full]
        .iter()
        .map(|&c| c as f64 / window_s)
        .collect();
    let at = |p: f64| -> Option<f64> {
        let per: Option<Vec<f64>> = groups
            .iter()
            .map(|g| percentile(g, p).map(|v| (v & mask) as f64))
            .collect();
        median(&per?)
    };
    Some(Windowed {
        windows: full,
        rate: median(&rates)?,
        p50: at(50.0)?,
        tail_p,
        tail: at(tail_p)?,
        min_samples,
    })
}

/// The three quartile cut points of `values`, by the same rule as
/// Python's `statistics.quantiles(values, n=4)` (the "exclusive" method).
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// The median of `values` (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    let n = values.len();
    if n == 0 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    Some(if n % 2 == 1 {
        data[n / 2]
    } else {
        (data[n / 2 - 1] + data[n / 2]) / 2.0
    })
}

/// A derived ratio together with the counts it was computed from, so a
/// report can always say "x of y".
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ratio {
    /// The counted part.
    pub part: f64,
    /// The base the part is a share of.
    pub base: f64,
}

impl Ratio {
    /// `part / base`.
    pub fn new(part: f64, base: f64) -> Self {
        Ratio { part, base }
    }

    /// The ratio's value; 0 when the base is empty.
    pub fn value(&self) -> f64 {
        if self.base == 0.0 {
            0.0
        } else {
            self.part / self.base
        }
    }
}

impl std::fmt::Display for Ratio {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.4} ({} of {})", self.value(), self.part, self.base)
    }
}
