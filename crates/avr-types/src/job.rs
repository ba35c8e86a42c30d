//! Sweep-server wire structs: the language-level shape of one submitted
//! grid cell, shared by the server, its clients, the bench harness and the
//! tests. The structs are plain data — serialization to the line-delimited
//! JSON protocol lives in `avr-server`; this crate only fixes *what* a job
//! says, so every layer (workload registry, config resolution, codecs)
//! agrees on it without depending on each other.

use crate::config::{BackendKind, BenchScale, DesignKind, LayoutKind, SystemConfig};

/// Optional per-cell overrides of the scale-default [`SystemConfig`] — the
/// knobs a sweep varies cell-by-cell. Everything absent keeps the default,
/// so an empty `ConfigOverrides` resolves to exactly the config a direct
/// `run_grid_layouts` call would use (the determinism contract depends on
/// that).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ConfigOverrides {
    /// AVR per-value error threshold T1.
    pub t1: Option<f64>,
    /// AVR block-average error threshold T2.
    pub t2: Option<f64>,
    /// RelaxedDram per-bit retention-failure probability.
    pub retention_fail_per_bit: Option<f64>,
    /// RelaxedDram tREFI multiplier (1 = nominal refresh, no faults).
    pub refresh_multiplier: Option<u64>,
    /// MRAM 0→1 per-bit write-error rate.
    pub mram_p01: Option<f64>,
    /// MRAM 1→0 per-bit write-error rate.
    pub mram_p10: Option<f64>,
    /// Graceful-degradation retry budget.
    pub retry_budget: Option<u64>,
}

impl ConfigOverrides {
    /// Whether any knob is set.
    pub fn is_empty(&self) -> bool {
        *self == ConfigOverrides::default()
    }

    /// Check every set knob against its legal range, naming the first
    /// offender. Values that pass cannot trip the simulator's own
    /// asserts (`Thresholds::new` panics on T1 outside (0,1) or T2 <= 0),
    /// and device rates stay probabilities. NaN fails every range.
    pub fn validate(&self) -> Result<(), OverrideError> {
        let float = |field, value: Option<f64>, expected, ok: fn(f64) -> bool| match value {
            Some(v) if !ok(v) => Err(OverrideError { field, value: v.to_string(), expected }),
            _ => Ok(()),
        };
        let probability = |v: f64| (0.0..=1.0).contains(&v);
        float("t1", self.t1, "in (0, 1)", |v| v > 0.0 && v < 1.0)?;
        float("t2", self.t2, "finite and > 0", |v| v > 0.0 && v.is_finite())?;
        float("retention_fail_per_bit", self.retention_fail_per_bit, "in [0, 1]", probability)?;
        float("mram_p01", self.mram_p01, "in [0, 1]", probability)?;
        float("mram_p10", self.mram_p10, "in [0, 1]", probability)?;
        if self.refresh_multiplier == Some(0) {
            return Err(OverrideError {
                field: "refresh_multiplier",
                value: "0".to_string(),
                expected: ">= 1",
            });
        }
        Ok(())
    }

    /// Apply every set knob onto `cfg`.
    pub fn apply(&self, cfg: &mut SystemConfig) {
        if let Some(v) = self.t1 {
            cfg.avr.t1 = v;
        }
        if let Some(v) = self.t2 {
            cfg.avr.t2 = v;
        }
        if let Some(v) = self.retention_fail_per_bit {
            cfg.error_model.retention_fail_per_bit = v;
        }
        if let Some(v) = self.refresh_multiplier {
            cfg.error_model.refresh_multiplier = v;
        }
        if let Some(v) = self.mram_p01 {
            cfg.error_model.mram_p01 = v;
        }
        if let Some(v) = self.mram_p10 {
            cfg.error_model.mram_p10 = v;
        }
        if let Some(v) = self.retry_budget {
            cfg.error_model.retry_budget = v;
        }
    }
}

/// A [`ConfigOverrides`] knob outside its legal range.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OverrideError {
    /// The offending knob, by its field (and wire) name.
    pub field: &'static str,
    /// The rejected value as text.
    pub value: String,
    /// The legal range.
    pub expected: &'static str,
}

impl std::fmt::Display for OverrideError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} = {} is out of range (must be {})", self.field, self.value, self.expected)
    }
}

impl std::error::Error for OverrideError {}

/// One grid cell of a sweep-server batch: everything needed to reproduce
/// the cell as a direct `run_on_design_in` call. The default cell is the
/// tiny-scale AVR design in SoA on the exact backend — the cheapest
/// meaningful simulation.
#[derive(Clone, Debug, PartialEq)]
pub struct CellSpec {
    /// Workload name as registered in `avr_workloads` (`"heat"`, `"fft"`…).
    pub workload: String,
    /// Problem size to instantiate.
    pub scale: BenchScale,
    /// Which of the five designs simulates the cell.
    pub design: DesignKind,
    /// Memory layout; the workload must list it in `Workload::layouts`.
    pub layout: LayoutKind,
    /// Device error-model backend. `None` pins `exact` — a server must
    /// never depend on its own environment's `AVR_BACKEND`, or resubmitting
    /// the same batch elsewhere would change results.
    pub backend: Option<BackendKind>,
    /// Device fault-stream seed. `None` keeps the config default; only
    /// fault-injecting backends consult it.
    pub seed: Option<u64>,
    /// Per-cell config overrides on top of the scale default.
    pub overrides: ConfigOverrides,
}

impl CellSpec {
    /// The cheapest meaningful cell for `workload`: tiny scale, AVR
    /// design, SoA layout, exact backend, default config.
    pub fn new(workload: impl Into<String>) -> Self {
        CellSpec {
            workload: workload.into(),
            scale: BenchScale::Tiny,
            design: DesignKind::Avr,
            layout: LayoutKind::Soa,
            backend: None,
            seed: None,
            overrides: ConfigOverrides::default(),
        }
    }

    /// Resolve this cell's full [`SystemConfig`] from the scale-default
    /// base: overrides first, then the backend pin (always pinned — see
    /// [`CellSpec::backend`]), then the fault seed.
    pub fn config(&self, base: &SystemConfig) -> SystemConfig {
        let mut cfg = base.clone();
        self.overrides.apply(&mut cfg);
        cfg.error_model.backend = Some(self.backend.unwrap_or(BackendKind::Exact));
        if let Some(seed) = self.seed {
            cfg.error_model.seed = seed;
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_cell_resolves_to_the_base_config_pinned_exact() {
        let base = SystemConfig::tiny();
        let cell = CellSpec::new("heat");
        let cfg = cell.config(&base);
        let mut expect = base.clone();
        expect.error_model.backend = Some(BackendKind::Exact);
        assert_eq!(cfg, expect, "an empty spec must only pin the backend");
        assert!(cell.overrides.is_empty());
    }

    #[test]
    fn overrides_apply_only_what_is_set() {
        let base = SystemConfig::tiny();
        let mut cell = CellSpec::new("fft");
        cell.backend = Some(BackendKind::RelaxedDram);
        cell.seed = Some(42);
        cell.overrides.refresh_multiplier = Some(16);
        cell.overrides.t1 = Some(0.05);
        let cfg = cell.config(&base);
        assert_eq!(cfg.error_model.backend, Some(BackendKind::RelaxedDram));
        assert_eq!(cfg.error_model.seed, 42);
        assert_eq!(cfg.error_model.refresh_multiplier, 16);
        assert_eq!(cfg.avr.t1, 0.05);
        // Untouched knobs keep the base values.
        assert_eq!(cfg.avr.t2, base.avr.t2);
        assert_eq!(cfg.error_model.retention_fail_per_bit, base.error_model.retention_fail_per_bit);
    }

    #[test]
    fn validate_accepts_defaults_and_legal_edges() {
        assert_eq!(ConfigOverrides::default().validate(), Ok(()));
        let edges = ConfigOverrides {
            t1: Some(0.5),
            t2: Some(4.0),
            retention_fail_per_bit: Some(0.0),
            refresh_multiplier: Some(1),
            mram_p01: Some(1.0),
            mram_p10: Some(0.0),
            retry_budget: Some(0),
        };
        assert_eq!(edges.validate(), Ok(()));
    }

    #[test]
    fn validate_names_the_offending_field() {
        type Set = fn(&mut ConfigOverrides);
        let cases: [(&str, Set); 12] = [
            ("t1", |o| o.t1 = Some(0.0)),
            ("t1", |o| o.t1 = Some(1.0)),
            ("t1", |o| o.t1 = Some(-1.0)),
            ("t1", |o| o.t1 = Some(f64::NAN)),
            ("t2", |o| o.t2 = Some(0.0)),
            ("t2", |o| o.t2 = Some(f64::NAN)),
            ("t2", |o| o.t2 = Some(f64::INFINITY)),
            ("retention_fail_per_bit", |o| o.retention_fail_per_bit = Some(1.5)),
            ("refresh_multiplier", |o| o.refresh_multiplier = Some(0)),
            ("mram_p01", |o| o.mram_p01 = Some(-0.1)),
            ("mram_p10", |o| o.mram_p10 = Some(2.0)),
            ("mram_p10", |o| o.mram_p10 = Some(f64::NAN)),
        ];
        for (field, set) in cases {
            let mut o = ConfigOverrides::default();
            set(&mut o);
            let err = o.validate().unwrap_err();
            assert_eq!(err.field, field, "{o:?}");
            assert!(err.to_string().starts_with(field), "{err}");
        }
    }

    #[test]
    fn labels_round_trip() {
        for d in DesignKind::ALL {
            assert_eq!(DesignKind::from_label(d.label()), Some(d));
        }
        for b in BackendKind::ALL {
            assert_eq!(BackendKind::from_label(b.label()), Some(b));
        }
        for l in LayoutKind::ALL {
            assert_eq!(LayoutKind::from_label(l.label()), Some(l));
        }
        for s in BenchScale::ALL {
            assert_eq!(BenchScale::from_label(s.label()), Some(s));
        }
        assert_eq!(DesignKind::from_label("avr"), None, "labels are exact");
        assert_eq!(BenchScale::from_label(""), None);
    }
}
