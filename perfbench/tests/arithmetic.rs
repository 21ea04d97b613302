//! The benchmark's own arithmetic: percentiles and the sample-count
//! rule, quartile spreads, ratios with their base, windowed summaries,
//! and span self time.

use ftbfs_perfbench::stats::{
    beyond, median, nearest_rank, pack, percentile, quartiles, summarize, tail_percentile,
    windowed, Ratio, Reservoir,
};
use ftbfs_perfbench::trace::{covered_ns, self_times, Span, Tracer};

#[test]
fn nearest_rank_is_the_smallest_rank_covering_p() {
    assert_eq!(nearest_rank(100, 50.0), 50);
    assert_eq!(nearest_rank(100, 99.0), 99);
    assert_eq!(nearest_rank(10, 50.0), 5);
    assert_eq!(nearest_rank(10, 51.0), 6);
    assert_eq!(nearest_rank(7, 0.0), 1, "p0 is the minimum");
    assert_eq!(nearest_rank(7, 100.0), 7, "p100 is the maximum");
    assert_eq!(nearest_rank(1, 99.0), 1);
    // 0.29 * 100 is 29.000000000000004 in floating point; the rank is 29.
    assert_eq!(nearest_rank(100, 29.0), 29);
}

#[test]
fn percentile_reads_the_sorted_sample() {
    let sorted: Vec<u64> = (1..=10).collect();
    assert_eq!(percentile(&sorted, 50.0), Some(5));
    assert_eq!(percentile(&sorted, 90.0), Some(9));
    assert_eq!(percentile(&sorted, 99.0), Some(10));
    assert_eq!(percentile(&[], 50.0), None);
}

#[test]
fn tail_needs_ten_samples_beyond_it() {
    assert_eq!(beyond(1000, 99.0), 10);
    assert_eq!(tail_percentile(1000), Some(99.0));
    // 999 samples leave only 9 beyond p99, so the tail falls back to p90.
    assert_eq!(beyond(999, 99.0), 9);
    assert_eq!(tail_percentile(999), Some(90.0));
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(99), Some(50.0));
    assert_eq!(tail_percentile(20), Some(50.0));
    assert_eq!(tail_percentile(19), None, "p50 of 19 has only 9 beyond");
    assert_eq!(tail_percentile(0), None);
}

#[test]
fn summarize_reports_median_tail_and_count() {
    let mut samples: Vec<u64> = (1..=1000).rev().collect();
    let s = summarize(&mut samples).expect("1000 samples support p99");
    assert_eq!((s.n, s.p50, s.tail_p, s.tail), (1000, 500, 99.0, 990));
    let mut few = vec![3, 1, 2];
    assert_eq!(summarize(&mut few), None);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    let q = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]).unwrap();
    assert_eq!(q, [2.75, 5.5, 8.25]);
    assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]).unwrap(), [1.25, 2.5, 3.75]);
    assert_eq!(quartiles(&[3.0, 1.0]).unwrap(), [0.5, 2.0, 3.5]);
    assert_eq!(
        quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap(),
        [1.5, 3.0, 4.5]
    );
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

#[test]
fn ratios_carry_their_base() {
    let r = Ratio::new(3.0, 12.0);
    assert_eq!(r.value(), 0.25);
    assert_eq!(r.to_string(), "0.2500 (3 of 12)");
    let empty = Ratio::new(0.0, 0.0);
    assert_eq!(empty.value(), 0.0, "an empty base reads 0, not NaN");
    assert_eq!(empty.to_string(), "0.0000 (0 of 0)");
}

#[test]
fn reservoir_keeps_everything_until_full_then_a_fixed_sample() {
    let mut r = Reservoir::new(4);
    for v in 0..3 {
        r.record(v);
    }
    assert_eq!(r.kept_mut(), &[0, 1, 2]);
    for v in 3..1000 {
        r.record(v);
    }
    assert_eq!(r.seen(), 1000);
    assert_eq!(r.kept_mut().len(), 4);
    assert!(r.kept_mut().iter().all(|&v| v < 1000));
    r.clear();
    assert_eq!((r.seen(), r.kept_mut().len()), (0, 0));
}

#[test]
fn windowed_takes_medians_across_windows() {
    // Three full windows of 20 samples each, plus a partial fourth that
    // must be ignored.  Window w holds latencies 100w + 1 ..= 100w + 20.
    let mut packed = Vec::new();
    for w in 0..4u64 {
        for v in 1..=20 {
            packed.push(pack(w, 100 * w + v));
        }
    }
    let completed = [40, 20, 30, 5];
    let s = windowed(&mut packed, &completed, 3, 0.5).expect("20 samples support p50");
    assert_eq!(s.windows, 3);
    assert_eq!(s.min_samples, 20);
    assert_eq!(s.rate, 60.0, "median of 80, 40 and 60 per second");
    assert_eq!(s.tail_p, 50.0);
    // Window p50s are 10, 110, 210.
    assert_eq!(s.p50, 110.0);
    assert_eq!(s.tail, 110.0);
}

#[test]
fn windowed_needs_enough_samples_in_every_window() {
    let mut packed: Vec<u64> = (0..30).map(|v| pack(0, v)).collect();
    packed.extend((0..5).map(|v| pack(1, v)));
    assert_eq!(windowed(&mut packed, &[30, 5], 2, 1.0), None);
    assert_eq!(windowed(&mut packed, &[30, 5], 0, 1.0), None);
}

fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        name: "t",
        id: 0,
        parent,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_the_union_of_overlapping_children() {
    let spans = [
        span(None, 0, 100),
        span(Some(0), 10, 40),
        span(Some(0), 30, 60),  // overlaps the first child by 10
        span(Some(0), 90, 120), // runs past its parent: 10 counts
        span(Some(1), 15, 20),  // a grandchild only reduces its own parent
    ];
    let own = self_times(&spans);
    assert_eq!(own[0], 100 - 50 - 10);
    assert_eq!(own[1], 30 - 5);
    assert_eq!(own[2], 30);
    assert_eq!(own[3], 30);
    assert_eq!(own[4], 5);
}

#[test]
fn covered_time_merges_nested_and_disjoint_intervals() {
    let mut iv = [(50, 70), (0, 10), (5, 8), (60, 80)];
    assert_eq!(covered_ns(&mut iv, 0, 100), 10 + 30);
    let mut iv = [(0, 10)];
    assert_eq!(covered_ns(&mut iv, 20, 30), 0, "outside the parent");
}

#[test]
fn tracer_records_parents_and_durations() {
    let mut t = Tracer::new();
    let root = t.open("root", 0, None);
    let child = t.push("child", 7, Some(root), 5, 9);
    t.close_at(root, 20);
    assert_eq!(t.spans()[child].parent, Some(root));
    assert_eq!(t.spans()[child].duration_ns(), 4);
    assert_eq!(t.spans()[root].id, 0);
    let mut out = Vec::new();
    t.write_tsv(&mut out, "stamp").unwrap();
    let text = String::from_utf8(out).unwrap();
    assert!(text.starts_with("# stamp\n"));
    assert_eq!(text.lines().count(), 4, "header, column names, two spans");
}
