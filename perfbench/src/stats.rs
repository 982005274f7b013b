//! The one place numbers are summarised: order statistics over host
//! timings, exact values for simulated counts, and the record every
//! workload fills in. No workload formats its own numbers; `report`
//! prints what is collected here.

/// Which clock produced a metric. The two are never mixed in one value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall-clock time on this host (or a ratio of such times): noisy,
    /// summarised over samples.
    Host,
    /// Simulated cycles, micro-ops or cache counts: deterministic for a
    /// given seed, reported exactly.
    Simulated,
    /// A count of events on the host side (requests refused, morsels
    /// stolen): exact for the run, but may differ between runs.
    Count,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Simulated => "simulated",
            Clock::Count => "count",
        }
    }
}

/// Order statistics over one set of host samples.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// The highest of [`TAIL_CANDIDATES`] with at least ten samples
    /// beyond it, and its value; `None` below 20 samples.
    pub tail: Option<(f64, f64)>,
}

/// Percentiles a summary may report as its tail, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Summarises `samples` (any order). Non-finite samples (failed
/// operations that count as missing every limit) sort last.
pub fn summarize(samples: &[f64]) -> Summary {
    let sorted = sorted(samples);
    let (q1, median, q3) = quartiles(&sorted);
    let tail = highest_tail(sorted.len()).map(|p| (p, percentile_sorted(&sorted, p)));
    Summary {
        n: sorted.len(),
        median,
        q1,
        q3,
        tail,
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The highest candidate percentile with at least ten of `n` samples
/// beyond it.
pub fn highest_tail(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-6)
}

/// The `p`-th percentile of `samples` by the "exclusive" rule of
/// Python's `statistics.quantiles` (rank `p/100 · (n + 1)`, clamped to
/// the sample range, linearly interpolated).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    percentile_sorted(&sorted(samples), p)
}

fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let rank = (p / 100.0 * (n + 1) as f64).clamp(1.0, n as f64);
            let lo = rank.floor() as usize;
            let frac = rank - lo as f64;
            if lo >= n || frac == 0.0 {
                sorted[lo - 1]
            } else {
                sorted[lo - 1] + (sorted[lo] - sorted[lo - 1]) * frac
            }
        }
    }
}

/// First quartile, median and third quartile, exactly as Python's
/// `statistics.quantiles(data, n=4)` and `statistics.median` compute
/// them — the rule the benchmark's spread is judged by.
pub fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let n = sorted.len();
    match n {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (sorted[0], sorted[0], sorted[0]),
        _ => {
            let median = if n % 2 == 1 {
                sorted[n / 2]
            } else {
                (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
            };
            let m = n + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
            };
            (q(1), median, q(3))
        }
    }
}

pub fn median(samples: &[f64]) -> f64 {
    quartiles(&sorted(samples)).1
}

/// Geometric mean of positive values (the paper's way of averaging
/// cycles per tuple across cells).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub clock: Clock,
    /// The samples' order statistics, for host metrics taken from
    /// samples.
    pub summary: Option<Summary>,
    /// Which statistic `value` is, e.g. `median` or `p99`.
    pub stat: String,
}

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ops {
    /// Counts one operation; `ok == false` counts it failed and keeps
    /// the reason (the first 20 are printed).
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(why());
            }
        }
    }

    pub fn merge(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 20 {
                self.failures.push(f);
            }
        }
    }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Results {
    /// The benchmark's end-to-end metrics, under their contract names.
    pub e2e: Vec<Metric>,
    /// The same numbers under the workload's own names
    /// (`serve_p99_ms`, `grid_wall_s`, …), for the reader.
    pub named: Vec<Metric>,
    /// Per-layer metrics of a traced run.
    pub layers: Vec<Metric>,
    /// Per-layer metrics the workload could not measure, with the
    /// reason.
    pub absent: Vec<(String, String)>,
    /// Free-form facts about the run (offered rate, sample counts).
    pub notes: Vec<String>,
    pub ops: Ops,
}

impl Results {
    fn push(
        list: &mut Vec<Metric>,
        name: &str,
        unit: &'static str,
        clock: Clock,
        value: f64,
        summary: Option<Summary>,
        stat: String,
    ) {
        list.push(Metric {
            name: name.to_string(),
            unit,
            value,
            clock,
            summary,
            stat,
        });
    }

    /// An end-to-end host metric: the median of `samples`.
    pub fn e2e_median(&mut self, name: &str, unit: &'static str, samples: &[f64]) -> f64 {
        let s = summarize(samples);
        Self::push(
            &mut self.e2e,
            name,
            unit,
            Clock::Host,
            s.median,
            Some(s),
            "median".into(),
        );
        s.median
    }

    /// An end-to-end host metric: the `p`-th percentile of `samples`.
    pub fn e2e_percentile(
        &mut self,
        name: &str,
        unit: &'static str,
        samples: &[f64],
        p: f64,
    ) -> f64 {
        let s = summarize(samples);
        let v = percentile(samples, p);
        Self::push(
            &mut self.e2e,
            name,
            unit,
            Clock::Host,
            v,
            Some(s),
            format!("p{p}"),
        );
        v
    }

    /// An end-to-end metric given as one value.
    pub fn e2e_value(
        &mut self,
        name: &str,
        unit: &'static str,
        clock: Clock,
        value: f64,
        stat: &str,
    ) {
        Self::push(&mut self.e2e, name, unit, clock, value, None, stat.into());
    }

    /// Repeats an already-recorded end-to-end metric under the
    /// workload's own name.
    pub fn name_as(&mut self, e2e_name: &str, named: &str) {
        let m = self
            .e2e
            .iter()
            .find(|m| m.name == e2e_name)
            .unwrap_or_else(|| panic!("no end-to-end metric {e2e_name}"))
            .clone();
        self.named.push(Metric {
            name: named.to_string(),
            ..m
        });
    }

    /// A named-only metric (one the contract's end-to-end list does not
    /// carry, such as `grid_wall_s`).
    pub fn named_value(
        &mut self,
        name: &str,
        unit: &'static str,
        clock: Clock,
        value: f64,
        stat: &str,
    ) {
        Self::push(&mut self.named, name, unit, clock, value, None, stat.into());
    }

    /// A per-layer host metric: the median of `samples`.
    pub fn layer_median(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        self.layer_median_of(name, unit, Clock::Host, samples);
    }

    /// A per-layer metric of the given clock: the median of `samples`.
    pub fn layer_median_of(
        &mut self,
        name: &str,
        unit: &'static str,
        clock: Clock,
        samples: &[f64],
    ) {
        if samples.is_empty() {
            self.absent(name, "no samples in this run");
            return;
        }
        let s = summarize(samples);
        Self::push(
            &mut self.layers,
            name,
            unit,
            clock,
            s.median,
            Some(s),
            "median".into(),
        );
    }

    /// A per-layer host metric: the `p`-th percentile of `samples`.
    pub fn layer_percentile(&mut self, name: &str, unit: &'static str, samples: &[f64], p: f64) {
        if samples.is_empty() {
            self.absent(name, "no samples in this run");
            return;
        }
        let s = summarize(samples);
        let v = percentile(samples, p);
        Self::push(
            &mut self.layers,
            name,
            unit,
            Clock::Host,
            v,
            Some(s),
            format!("p{p}"),
        );
    }

    /// A per-layer metric given as one value.
    pub fn layer_value(&mut self, name: &str, unit: &'static str, clock: Clock, value: f64) {
        let stat = match clock {
            Clock::Simulated => "exact",
            Clock::Count => "total",
            Clock::Host => "value",
        };
        Self::push(
            &mut self.layers,
            name,
            unit,
            clock,
            value,
            None,
            stat.into(),
        );
    }

    /// Records why a per-layer metric was not measured; it is reported
    /// as 0.
    pub fn absent(&mut self, name: &str, why: &str) {
        self.absent.push((name.to_string(), why.to_string()));
    }

    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_rule() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(highest_tail(19), None);
        assert_eq!(highest_tail(100), Some(90.0));
        assert_eq!(highest_tail(1000), Some(99.0));
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }
}
