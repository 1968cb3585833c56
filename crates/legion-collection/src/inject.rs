//! Function injection — user code computing derived description data.
//!
//! "We plan to extend Collections to support function injection — the
//! ability for users to install code to dynamically compute new
//! description information and integrate it with the already existing
//! description information for a resource. This capability is especially
//! important to users of the Network Weather Service, which predicts
//! future resource availability based on statistical analysis of past
//! behavior." (§3.2)
//!
//! This module implements that extension: a [`DerivedAttribute`] is a
//! named function evaluated against each record at query time, and
//! [`LoadForecaster`] is the NWS-style consumer — it keeps a per-member
//! history of observed loads and injects a one-step-ahead AR(1) forecast
//! as `host_load_forecast`.

use legion_core::{AttrValue, AttributeDb, Loid};
use parking_lot::RwLock;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Arc;

type DerivedFn = dyn Fn(Loid, &AttributeDb) -> Option<AttrValue> + Send + Sync;

/// A named, injectable derived-attribute function.
#[derive(Clone)]
pub struct DerivedAttribute {
    name: String,
    f: Arc<DerivedFn>,
}

impl DerivedAttribute {
    /// Creates a derived attribute computing `f` per record.
    pub fn new(
        name: impl Into<String>,
        f: impl Fn(Loid, &AttributeDb) -> Option<AttrValue> + Send + Sync + 'static,
    ) -> Self {
        DerivedAttribute { name: name.into(), f: Arc::new(f) }
    }

    /// The injected attribute's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Computes the (name, value) pair for a record, if defined.
    pub(crate) fn compute(&self, member: Loid, attrs: &AttributeDb) -> Option<(String, AttrValue)> {
        (self.f)(member, attrs).map(|v| (self.name.clone(), v))
    }
}

impl fmt::Debug for DerivedAttribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DerivedAttribute({})", self.name)
    }
}

/// NWS-style load forecaster.
///
/// Observes each member's `host_load` over time (fed by the pull daemon
/// or by explicit `observe` calls), fits a one-step AR(1) model over a
/// sliding window, and predicts the next value. Exposed as a
/// [`DerivedAttribute`] named `host_load_forecast`.
#[derive(Debug)]
pub struct LoadForecaster {
    window: usize,
    history: RwLock<BTreeMap<Loid, VecDeque<f64>>>,
}

impl LoadForecaster {
    /// A forecaster remembering `window` samples per member.
    pub fn new(window: usize) -> Arc<Self> {
        assert!(window >= 2, "forecaster needs at least 2 samples of history");
        Arc::new(LoadForecaster { window, history: RwLock::new(BTreeMap::new()) })
    }

    /// Records an observed load for `member`.
    pub fn observe(&self, member: Loid, load: f64) {
        let mut h = self.history.write();
        let q = h.entry(member).or_default();
        if q.len() == self.window {
            q.pop_front();
        }
        q.push_back(load);
    }

    /// One-step-ahead forecast for `member`.
    ///
    /// Fits `x[t+1] ≈ mean + rho (x[t] - mean)` with `rho` estimated by
    /// lag-1 autocorrelation over the window; falls back to the last
    /// observation (persistence) with short history, or `None` with no
    /// history at all.
    pub fn forecast(&self, member: Loid) -> Option<f64> {
        let h = self.history.read();
        let q = h.get(&member)?;
        let n = q.len();
        if n == 0 {
            return None;
        }
        let last = *q.back().expect("non-empty");
        if n < 3 {
            return Some(last); // persistence forecast
        }
        let mean = q.iter().sum::<f64>() / n as f64;
        let mut num = 0.0;
        let mut den = 0.0;
        let v: Vec<f64> = q.iter().copied().collect();
        for i in 0..n - 1 {
            num += (v[i] - mean) * (v[i + 1] - mean);
        }
        for x in &v {
            den += (x - mean) * (x - mean);
        }
        let rho = if den.abs() < 1e-12 { 0.0 } else { (num / den).clamp(-1.0, 1.0) };
        Some((mean + rho * (last - mean)).max(0.0))
    }

    /// Wraps this forecaster as an injectable `host_load_forecast`.
    pub fn as_derived_attribute(self: &Arc<Self>) -> DerivedAttribute {
        let me = Arc::clone(self);
        DerivedAttribute::new("host_load_forecast", move |member, _| {
            me.forecast(member).map(AttrValue::Float)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_core::LoidKind;

    fn m() -> Loid {
        Loid::synthetic(LoidKind::Host, 1)
    }

    #[test]
    fn no_history_no_forecast() {
        let f = LoadForecaster::new(8);
        assert_eq!(f.forecast(m()), None);
    }

    #[test]
    fn short_history_is_persistence() {
        let f = LoadForecaster::new(8);
        f.observe(m(), 0.4);
        assert_eq!(f.forecast(m()), Some(0.4));
        f.observe(m(), 0.6);
        assert_eq!(f.forecast(m()), Some(0.6));
    }

    #[test]
    fn constant_series_forecasts_constant() {
        let f = LoadForecaster::new(8);
        for _ in 0..8 {
            f.observe(m(), 0.5);
        }
        let fc = f.forecast(m()).unwrap();
        assert!((fc - 0.5).abs() < 1e-9);
    }

    #[test]
    fn trending_toward_mean_on_noisy_reverting_series() {
        // Alternating series: lag-1 autocorrelation is negative, so the
        // forecast after a high value dips toward (below) the mean.
        let f = LoadForecaster::new(16);
        for i in 0..16 {
            f.observe(m(), if i % 2 == 0 { 0.2 } else { 0.8 });
        }
        let fc = f.forecast(m()).unwrap(); // last obs was 0.8 (i=15)
        assert!(fc < 0.5, "mean-reverting forecast expected, got {fc}");
    }

    #[test]
    fn window_slides() {
        let f = LoadForecaster::new(4);
        for _ in 0..4 {
            f.observe(m(), 2.0);
        }
        // Flush the window with zeros; forecast must follow.
        for _ in 0..4 {
            f.observe(m(), 0.0);
        }
        let fc = f.forecast(m()).unwrap();
        assert!(fc < 0.1, "old samples should have left the window, got {fc}");
    }

    #[test]
    fn derived_attribute_wraps_forecast() {
        let f = LoadForecaster::new(4);
        f.observe(m(), 0.3);
        let d = f.as_derived_attribute();
        assert_eq!(d.name(), "host_load_forecast");
        let (name, v) = d.compute(m(), &AttributeDb::new()).unwrap();
        assert_eq!(name, "host_load_forecast");
        assert_eq!(v.as_f64(), Some(0.3));
        // Unknown member: no injection.
        assert!(d.compute(Loid::synthetic(LoidKind::Host, 9), &AttributeDb::new()).is_none());
    }

    #[test]
    fn forecast_never_negative() {
        let f = LoadForecaster::new(8);
        for x in [0.0, 1.0, 0.0, 1.0, 0.0] {
            f.observe(m(), x);
        }
        assert!(f.forecast(m()).unwrap() >= 0.0);
    }
}
