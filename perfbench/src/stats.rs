//! The benchmark's own statistics: percentiles, timing summaries, failure
//! accounting, and the event-to-commit matching behind `event_lag_*`.
//! Everything here is pure so the unit tests below pin it.

use std::collections::HashMap;

/// Samples a percentile must leave above it before it is reported as the
/// tail of a timing.
pub const TAIL_MARGIN: usize = 10;

/// The 1-based nearest rank of the `p`-th percentile of `n` samples,
/// `⌈p·n/100⌉`, computed so that float rounding cannot push an exact
/// product up a rank.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0) - 1e-9).ceil().max(0.0) as usize
}

/// Nearest-rank percentile of ascending `sorted`: the smallest sample
/// with at least `p`% of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let n = sorted.len();
    sorted[rank(n, p).clamp(1, n) - 1]
}

/// Median of ascending `sorted` (mean of the middle pair for even counts).
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of no samples");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Whether `n` samples leave at least [`TAIL_MARGIN`] samples strictly
/// beyond the nearest-rank `p`-th percentile.
pub fn supports(n: usize, p: f64) -> bool {
    n >= rank(n, p) + TAIL_MARGIN
}

/// The highest of the standard tail percentiles that `n` samples
/// support, if any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| supports(n, p))
}

/// Samples per window of [`windowed`]: enough that each window's p99 has
/// [`TAIL_MARGIN`] samples beyond it.
pub const WINDOW_SAMPLES: usize = 1000;
/// At most this many windows per run.
pub const MAX_WINDOWS: usize = 10;

/// A statistic of a run as the median of that statistic over consecutive
/// windows of `samples` (in time order), each of at least
/// [`WINDOW_SAMPLES`]. On a shared machine a few seconds of interference
/// move one window's figures and not the run's; fewer samples than one
/// window give the plain statistic. `stat` gets each window sorted.
/// Returns the value and the number of windows.
pub fn windowed(samples_in_time_order: &[f64], stat: impl Fn(&[f64]) -> f64) -> (f64, usize) {
    let n = samples_in_time_order.len();
    assert!(n > 0, "statistic of no samples");
    let k = (n / WINDOW_SAMPLES).clamp(1, MAX_WINDOWS);
    let mut per_window: Vec<f64> = (0..k)
        .map(|i| {
            let mut w = samples_in_time_order[i * n / k..(i + 1) * n / k].to_vec();
            w.sort_by(f64::total_cmp);
            stat(&w)
        })
        .collect();
    per_window.sort_by(f64::total_cmp);
    (median(&per_window), k)
}

/// Completions per second as the median over [`MAX_WINDOWS`] equal time
/// windows of `[0, end)`; `done` holds completion times in the same unit
/// as `end` (µs).
pub fn windowed_rate(done: &[f64], end: f64) -> f64 {
    let width = end / MAX_WINDOWS as f64;
    let mut counts = [0usize; MAX_WINDOWS];
    for &t in done {
        counts[((t / width) as usize).min(MAX_WINDOWS - 1)] += 1;
    }
    let mut rates: Vec<f64> = counts.iter().map(|&c| c as f64 / (width / 1e6)).collect();
    rates.sort_by(f64::total_cmp);
    median(&rates)
}

/// One timing, summarized the way every metric is reported: sample count,
/// median and p99 (flagged when too few samples support it) over the
/// whole run and [`windowed`], and the highest supported tail percentile.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
    pub p99_supported: bool,
    /// [`windowed`] medians and p99s, and the window count.
    pub p50_windowed: f64,
    pub p99_windowed: f64,
    pub windows: usize,
    pub tail: Option<(f64, f64)>,
    pub max: f64,
}

impl Summary {
    /// Summarize `samples`, given in time order; `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let (p50_windowed, windows) = windowed(samples, median);
        let (p99_windowed, _) = windowed(samples, |w| percentile(w, 99.0));
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        Some(Summary {
            n,
            p50: median(&sorted),
            p99: percentile(&sorted, 99.0),
            p99_supported: supports(n, 99.0),
            p50_windowed,
            p99_windowed,
            windows,
            tail: tail_percentile(n).map(|p| (p, percentile(&sorted, p))),
            max: sorted[n - 1],
        })
    }

    /// The summary as a JSON object (for the report line).
    pub fn json(&self) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!("{{\"pct\": {p}, \"value\": {v:.3}}}"),
            None => "null".into(),
        };
        format!(
            "{{\"n\": {}, \"p50\": {:.3}, \"p99\": {:.3}, \"p99_supported\": {}, \"p50_windowed\": {:.3}, \"p99_windowed\": {:.3}, \"windows\": {}, \"tail\": {tail}, \"max\": {:.3}}}",
            self.n, self.p50, self.p99, self.p99_supported, self.p50_windowed, self.p99_windowed, self.windows, self.max
        )
    }
}

/// How one attempted op ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Outcome {
    Ok,
    /// Shed by admission control (`overloaded`).
    Shed,
    /// A definitive `err` reply, including `err budget ...`.
    Err,
    /// No reply before the run ended, or the connection dropped.
    Missing,
}

/// Failure accounting: every attempted op lands in exactly one bucket,
/// and everything but `Ok` counts against the attempts.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Tally {
    pub ok: u64,
    pub shed: u64,
    pub err: u64,
    pub missing: u64,
}

impl Tally {
    pub fn record(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Ok => self.ok += 1,
            Outcome::Shed => self.shed += 1,
            Outcome::Err => self.err += 1,
            Outcome::Missing => self.missing += 1,
        }
    }

    pub fn attempted(&self) -> u64 {
        self.ok + self.failed()
    }

    pub fn failed(&self) -> u64 {
        self.shed + self.err + self.missing
    }

    pub fn failed_frac(&self) -> f64 {
        match self.attempted() {
            0 => 0.0,
            a => self.failed() as f64 / a as f64,
        }
    }
}

/// The `batch=` field of an event body (`q3 batch=R#1,S#2 removed=1
/// changed=0`), if present.
pub fn event_batch(body: &str) -> Option<&str> {
    body.split(' ').find_map(|part| part.strip_prefix("batch="))
}

/// Match subscriber events to the commits that caused them. `commits`
/// holds each commit's batch text and its send time, in send order;
/// `events` holds each received event's batch text and arrival time. An
/// event belongs to the latest commit of its batch sent before it (a
/// batch repeats only when a commit pool wraps around, and a repeated
/// deletion changes nothing, so it raises no event). A commit's lag runs
/// to the *last* event that belongs to it. Returns the lags, in commit
/// order, of commits that raised events, plus the number of events that
/// belong to no commit (a correctness failure: the server reported a
/// change nobody committed).
pub fn event_lags(commits: &[(String, f64)], events: &[(String, f64)]) -> (Vec<f64>, usize) {
    let mut by_batch: HashMap<&str, Vec<(f64, usize)>> = HashMap::new();
    for (i, (batch, start)) in commits.iter().enumerate() {
        by_batch
            .entry(batch.as_str())
            .or_default()
            .push((*start, i));
    }
    let mut last: Vec<Option<f64>> = vec![None; commits.len()];
    let mut unmatched = 0;
    for (batch, at) in events {
        let owner = by_batch.get(batch.as_str()).and_then(|sent| {
            let k = sent.partition_point(|(start, _)| start <= at);
            k.checked_sub(1).map(|k| sent[k].1)
        });
        match owner {
            Some(i) => last[i] = Some(last[i].map_or(*at, |l: f64| l.max(*at))),
            None => unmatched += 1,
        }
    }
    let lags = commits
        .iter()
        .zip(&last)
        .filter_map(|((_, start), at)| at.map(|at| at - start))
        .collect();
    (lags, unmatched)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), 3.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples is rank 990: exactly ten beyond.
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
    }

    #[test]
    fn windowed_statistics_are_medians_over_windows() {
        // Three windows of 1000; one window's tail is inflated.
        let mut xs: Vec<f64> = Vec::new();
        for w in 0..3 {
            for i in 0..1000 {
                let spike = if w == 1 && i >= 950 { 1000.0 } else { 0.0 };
                xs.push(f64::from(i % 100) + spike);
            }
        }
        let p99 = |w: &[f64]| percentile(w, 99.0);
        let (p, k) = windowed(&xs, p99);
        assert_eq!(k, 3);
        assert_eq!(p, 98.0, "the spiked window's p99 is outvoted");
        let plain = {
            let mut s = xs.clone();
            s.sort_by(f64::total_cmp);
            percentile(&s, 99.0)
        };
        assert!(plain > 1000.0);
        // Fewer samples than one window: the plain p99.
        assert_eq!(windowed(&[5.0, 1.0, 3.0], p99), (5.0, 1));
        assert_eq!(windowed(&[5.0, 1.0, 3.0], median), (3.0, 1));
        // Window count is capped.
        assert_eq!(windowed(&vec![1.0; 50_000], median).1, MAX_WINDOWS);
        // Rates: 10 windows of 1 s; one stalled window is outvoted.
        let mut done: Vec<f64> = (0..1000).map(|i| f64::from(i) * 10_000.0).collect();
        done.retain(|t| !(3e6..4e6).contains(t));
        assert_eq!(windowed_rate(&done, 10e6), 100.0);
    }

    #[test]
    fn summary_reports_counts_and_support() {
        let xs: Vec<f64> = (0..500).rev().map(f64::from).collect();
        let s = Summary::of(&xs).unwrap();
        assert_eq!(s.n, 500);
        assert_eq!(s.p50, 249.5);
        assert!(!s.p99_supported);
        assert_eq!(s.tail, Some((95.0, 474.0)));
        assert_eq!(s.max, 499.0);
        assert!(s.json().contains("\"n\": 500"));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn sheds_and_errors_count_against_attempts() {
        let mut t = Tally::default();
        for o in [
            Outcome::Ok,
            Outcome::Ok,
            Outcome::Shed,
            Outcome::Err,
            Outcome::Missing,
            Outcome::Ok,
        ] {
            t.record(o);
        }
        assert_eq!(t.attempted(), 6);
        assert_eq!(t.failed(), 3);
        assert_eq!(t.failed_frac(), 0.5);
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }

    #[test]
    fn events_match_the_last_frame_of_their_batch() {
        assert_eq!(
            event_batch("q3 batch=R#1,S#2 removed=1 changed=0"),
            Some("R#1,S#2")
        );
        assert_eq!(event_batch("q3 removed=1"), None);
        let commits = vec![
            ("R#1".to_string(), 10.0),
            ("R#2".to_string(), 20.0),
            ("R#3".to_string(), 30.0),
        ];
        let events = vec![
            ("R#1".to_string(), 12.0),
            ("R#1".to_string(), 15.0), // a second query's event, later
            ("R#3".to_string(), 31.0),
            ("S#9".to_string(), 40.0), // nobody committed S#9
        ];
        let (lags, unmatched) = event_lags(&commits, &events);
        assert_eq!(lags, vec![5.0, 1.0]);
        assert_eq!(unmatched, 1);
        // A repeated batch: each event goes to the latest commit sent
        // before it; an event older than every commit of its batch
        // belongs to none.
        let commits = vec![("R#1".to_string(), 10.0), ("R#1".to_string(), 50.0)];
        let events = vec![
            ("R#1".to_string(), 5.0),
            ("R#1".to_string(), 12.0),
            ("R#1".to_string(), 55.0),
        ];
        assert_eq!(event_lags(&commits, &events), (vec![2.0, 5.0], 1));
    }
}
