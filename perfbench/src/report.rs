//! What a run found: metrics, operation counts and failed checks.

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a timing percentile, when it is one.
    pub samples: Option<usize>,
}

#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: calls, batches, reads and analysis passes.
    pub attempted: u64,
    /// Operations that failed: a bad reply, a non-200 read, an unparseable
    /// body, or a failed output check.
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    pub layers: Vec<Metric>,
    /// Why the run is not correct, one line per failure.
    pub problems: Vec<String>,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            samples: None,
        });
    }

    pub fn e2e_timing(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.end_to_end.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            samples: Some(samples),
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            samples: None,
        });
    }

    /// Counts `n` failed operations, explained by `why`.
    pub fn fail_ops(&mut self, n: u64, why: String) {
        if n > 0 {
            self.failed += n;
            self.problems.push(why);
        }
    }

    /// An output check: when it does not hold it is one failed operation.
    pub fn check(&mut self, ok: bool, why: String) {
        self.fail_ops(u64::from(!ok), why);
    }

    pub fn layer_value(&self, name: &str) -> Option<f64> {
        self.layers.iter().find(|m| m.name == name).map(|m| m.value)
    }
}
