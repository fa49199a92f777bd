//! Order statistics, memory readings and the result line.

use rtise::obs::json::Value;

/// Fewest samples a reported percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// Fewest ops an end-to-end phase runs, so that p90 keeps
/// [`MIN_BEYOND`] samples beyond it even on a slow host: a phase that
/// has used up its seconds carries on until it has this many.
pub const MIN_OPS: usize = 110;

/// Nearest-rank percentile `q` (in `(0, 1)`) of `samples`, with the
/// number of samples beyond it. Refuses a percentile with fewer than
/// [`MIN_BEYOND`] samples beyond it: such a figure is one outlier away
/// from a different value.
///
/// # Errors
///
/// Names the percentile and the sample count when the guard refuses.
pub fn percentile(samples: &[f64], q: f64) -> Result<(f64, usize), String> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{:.0} of {n} samples has {beyond} beyond it (need {MIN_BEYOND})",
            q * 100.0
        ));
    }
    Ok((sorted[rank - 1], beyond))
}

/// The median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set (`VmHWM`) of process `pid` (this process when
/// `None`), in MiB.
#[must_use]
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = pid.map_or_else(
        || "/proc/self/status".to_string(),
        |p| format!("/proc/{p}/status"),
    );
    let status = std::fs::read_to_string(path).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

/// Shorthand constructor for [`Metric`].
#[must_use]
pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// What a run hands back to `main`.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations issued in the timed phase.
    pub attempted: u64,
    /// Operations whose output failed certification or came back `ok:false`.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// The metrics to report.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Records a failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(why);
        }
    }

    /// The final result line.
    #[must_use]
    pub fn json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.as_str(),
                    Value::obj(vec![
                        ("value", Value::Num(m.value)),
                        ("unit", m.unit.into()),
                    ]),
                )
            })
            .collect();
        Value::obj(vec![
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", Value::obj(metrics)),
        ])
    }
}
