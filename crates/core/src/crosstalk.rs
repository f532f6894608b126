//! Inter-channel isolation metrics.
//!
//! The paper's Fig. 3 argues frequency-division parallelism works
//! because the detector spectrum shows peaks *only* at the excitation
//! frequencies. This module quantifies that claim from a spectrum:
//! in-band vs out-of-band power, per-channel leakage, and isolation in
//! dB — reused by the width-variation study (§V), which reports "no
//! crosstalk effects" up to 500 nm.

use crate::channel::ChannelPlan;
use crate::error::GateError;
use magnon_math::spectrum::Spectrum;

/// Crosstalk assessment of a detector spectrum against a set of channel
/// frequencies.
#[derive(Debug, Clone, PartialEq)]
pub struct CrosstalkReport {
    /// Channel frequencies in Hz.
    pub channels: Vec<f64>,
    /// Spectral power within ±half_width of any channel.
    pub in_band_power: f64,
    /// Spectral power everywhere else (excluding DC).
    pub out_of_band_power: f64,
    /// `10·log10(in_band / out_of_band)` in dB; large is good.
    pub isolation_db: f64,
    /// Amplitude near each channel frequency.
    pub channel_amplitudes: Vec<f64>,
}

impl CrosstalkReport {
    /// Analyses `spectrum` for the given `channels`, counting power
    /// within `half_width` of a channel as in-band.
    ///
    /// # Errors
    ///
    /// Returns [`GateError::InvalidParameter`] for an empty channel list
    /// or non-positive half width.
    ///
    /// # Examples
    ///
    /// ```
    /// use magnon_core::crosstalk::CrosstalkReport;
    /// use magnon_math::spectrum::TimeSeries;
    /// use magnon_math::window::Window;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let dt = 1e-12;
    /// let samples: Vec<f64> = (0..4096)
    ///     .map(|i| (2.0 * std::f64::consts::PI * 20e9 * dt * i as f64).sin())
    ///     .collect();
    /// let spectrum = TimeSeries::new(dt, samples)?.spectrum(Window::Hann)?;
    /// let report = CrosstalkReport::analyze(&spectrum, &[20e9], 2e9)?;
    /// assert!(report.isolation_db > 20.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn analyze(
        spectrum: &Spectrum,
        channels: &[f64],
        half_width: f64,
    ) -> Result<Self, GateError> {
        if channels.is_empty() {
            return Err(GateError::InvalidParameter {
                parameter: "channels",
                value: 0.0,
            });
        }
        if !(half_width.is_finite() && half_width > 0.0) {
            return Err(GateError::InvalidParameter {
                parameter: "half_width",
                value: half_width,
            });
        }
        let in_band_power = spectrum.power_inside(channels, half_width);
        let out_of_band_power = spectrum.power_outside(channels, half_width);
        let isolation_db = if out_of_band_power > 0.0 {
            10.0 * (in_band_power / out_of_band_power).log10()
        } else {
            f64::INFINITY
        };
        Ok(CrosstalkReport {
            channels: channels.to_vec(),
            in_band_power,
            out_of_band_power,
            isolation_db,
            channel_amplitudes: channels
                .iter()
                .map(|&f| spectrum.amplitude_near(f))
                .collect(),
        })
    }

    /// `true` when isolation reaches `min_db` — the pass test the
    /// compiler's FDM placement applies.
    pub fn is_clean(&self, min_db: f64) -> bool {
        self.isolation_db >= min_db
    }

    /// Leakage ratio: strongest spectral content at a non-channel probe
    /// frequency divided by the weakest channel amplitude. Probe
    /// frequencies are the midpoints between adjacent channels (where
    /// intermodulation products of uniformly spaced channels would
    /// land... they land *on* channels for uniform grids, so midpoints
    /// catch only broadband leakage) plus half-spacing margins outside
    /// the band.
    pub fn midpoint_leakage(&self, spectrum: &Spectrum) -> f64 {
        if self.channels.len() < 2 {
            return 0.0;
        }
        let weakest_channel = self
            .channel_amplitudes
            .iter()
            .fold(f64::INFINITY, |a, &b| a.min(b));
        if weakest_channel <= 0.0 {
            return f64::INFINITY;
        }
        let mut worst = 0.0f64;
        for pair in self.channels.windows(2) {
            let mid = 0.5 * (pair[0] + pair[1]);
            worst = worst.max(spectrum.amplitude_near(mid));
        }
        worst / weakest_channel
    }
}

/// Inter-lane isolation assessment for several frequency lanes sharing
/// one waveguide (frequency-division multiplexing, arXiv:2008.12220).
///
/// Each excited channel rings with a Lorentzian line of half-width
/// `linewidth` (set by Gilbert damping); a neighbouring lane's channel
/// at spectral distance `Δf` picks up the tail power
/// `1 / (1 + (Δf / linewidth)²)`. The report carries the worst such
/// leakage across every cross-lane channel pair — the penalty FDM
/// serving pays for packing more gates onto one medium.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneIsolationReport {
    /// Number of lanes assessed.
    pub lane_count: usize,
    /// Smallest spectral gap between channels of different lanes, Hz.
    pub min_guard_band: f64,
    /// Worst cross-lane leakage as a power ratio (1.0 = a channel pair
    /// collides exactly).
    pub worst_leakage: f64,
    /// `-10·log10(worst_leakage)` in dB; large is good.
    pub isolation_db: f64,
    /// The lane-index pair producing the worst leakage.
    pub worst_pair: Option<(usize, usize)>,
    /// Lane pairs whose occupied bands overlap outright (must be zero
    /// for a usable FDM assignment).
    pub overlapping_pairs: usize,
}

impl LaneIsolationReport {
    /// Assesses `plans` (one [`ChannelPlan`] per lane) against a
    /// Lorentzian line of half-width `linewidth`.
    ///
    /// # Errors
    ///
    /// Returns [`GateError::InvalidParameter`] for fewer than two lanes
    /// or a non-positive linewidth.
    pub fn analyze(plans: &[&ChannelPlan], linewidth: f64) -> Result<Self, GateError> {
        if plans.len() < 2 {
            return Err(GateError::InvalidParameter {
                parameter: "lane_count",
                value: plans.len() as f64,
            });
        }
        if !(linewidth.is_finite() && linewidth > 0.0) {
            return Err(GateError::InvalidParameter {
                parameter: "linewidth",
                value: linewidth,
            });
        }
        let mut min_guard_band = f64::INFINITY;
        let mut worst_leakage = 0.0f64;
        let mut worst_pair = None;
        let mut overlapping_pairs = 0;
        for i in 0..plans.len() {
            for j in i + 1..plans.len() {
                if plans[i].overlaps(plans[j]) {
                    overlapping_pairs += 1;
                }
                let gap = plans[i].guard_band_to(plans[j]);
                min_guard_band = min_guard_band.min(gap);
                let leak = 1.0 / (1.0 + (gap / linewidth).powi(2));
                if leak > worst_leakage {
                    worst_leakage = leak;
                    worst_pair = Some((i, j));
                }
            }
        }
        Ok(LaneIsolationReport {
            lane_count: plans.len(),
            min_guard_band,
            worst_leakage,
            isolation_db: -10.0 * worst_leakage.log10(),
            worst_pair,
            overlapping_pairs,
        })
    }

    /// `true` when no bands overlap and the worst leakage stays under
    /// `min_db` of isolation — the bar FDM lane assignments are
    /// validated against.
    pub fn is_clean(&self, min_db: f64) -> bool {
        self.overlapping_pairs == 0 && self.isolation_db >= min_db
    }

    /// The worst leakage as an *amplitude* ratio — what a disturbed
    /// channel actually sees superposed on its own wave. Feed this to
    /// [`crate::robustness::NoiseModel::with_lane_leakage`] to fold the
    /// FDM penalty into a robustness run.
    pub fn amplitude_leakage(&self) -> f64 {
        self.worst_leakage.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magnon_math::spectrum::TimeSeries;
    use magnon_math::window::Window;
    use std::f64::consts::PI;

    fn spectrum_of(tones: &[(f64, f64)]) -> Spectrum {
        let dt = 1e-12;
        let n = 8192;
        let samples: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 * dt;
                tones
                    .iter()
                    .map(|&(f, a)| a * (2.0 * PI * f * t).sin())
                    .sum()
            })
            .collect();
        TimeSeries::new(dt, samples)
            .unwrap()
            .spectrum(Window::Hann)
            .unwrap()
    }

    #[test]
    fn clean_multi_tone_spectrum_is_isolated() {
        let channels: Vec<f64> = (1..=8).map(|i| i as f64 * 10e9).collect();
        let spec = spectrum_of(&channels.iter().map(|&f| (f, 1.0)).collect::<Vec<_>>());
        let report = CrosstalkReport::analyze(&spec, &channels, 2e9).unwrap();
        assert!(
            report.is_clean(15.0),
            "isolation = {} dB",
            report.isolation_db
        );
        assert_eq!(report.channel_amplitudes.len(), 8);
        for a in &report.channel_amplitudes {
            assert!(*a > 0.5);
        }
    }

    #[test]
    fn interferer_degrades_isolation() {
        let channels = [10e9, 20e9];
        let clean = spectrum_of(&[(10e9, 1.0), (20e9, 1.0)]);
        let dirty = spectrum_of(&[(10e9, 1.0), (20e9, 1.0), (15e9, 0.5)]);
        let r_clean = CrosstalkReport::analyze(&clean, &channels, 2e9).unwrap();
        let r_dirty = CrosstalkReport::analyze(&dirty, &channels, 2e9).unwrap();
        assert!(r_dirty.isolation_db < r_clean.isolation_db - 5.0);
        assert!(r_dirty.midpoint_leakage(&dirty) > 10.0 * r_clean.midpoint_leakage(&clean));
    }

    #[test]
    fn validation() {
        let spec = spectrum_of(&[(10e9, 1.0)]);
        assert!(CrosstalkReport::analyze(&spec, &[], 1e9).is_err());
        assert!(CrosstalkReport::analyze(&spec, &[10e9], 0.0).is_err());
    }

    #[test]
    fn single_channel_midpoint_leakage_zero() {
        let spec = spectrum_of(&[(10e9, 1.0)]);
        let r = CrosstalkReport::analyze(&spec, &[10e9], 2e9).unwrap();
        assert_eq!(r.midpoint_leakage(&spec), 0.0);
    }

    fn lane_plan(base_ghz: f64, count: usize) -> ChannelPlan {
        use crate::channel::DispersionModel;
        use magnon_physics::waveguide::Waveguide;
        let guide = Waveguide::paper_default().unwrap();
        ChannelPlan::uniform(
            &guide,
            DispersionModel::Exchange,
            count,
            base_ghz * 1e9,
            10e9,
        )
        .unwrap()
    }

    #[test]
    fn separated_lanes_are_clean_and_adjacent_lanes_are_not() {
        // Lane 0 at 10–40 GHz, lane 1 at 100–130 GHz: 60 GHz guard.
        let a = lane_plan(10.0, 4);
        let b = lane_plan(100.0, 4);
        let far = LaneIsolationReport::analyze(&[&a, &b], 0.5e9).unwrap();
        assert_eq!(far.overlapping_pairs, 0);
        assert!(far.min_guard_band >= 59e9);
        assert!(far.is_clean(30.0), "isolation = {} dB", far.isolation_db);
        assert_eq!(far.worst_pair, Some((0, 1)));
        assert!(far.amplitude_leakage() < 0.01);

        // Lane 1 moved right next to lane 0 (45 GHz base, 5 GHz gap):
        // still disjoint but much leakier than the far assignment.
        let near = lane_plan(45.0, 4);
        let close = LaneIsolationReport::analyze(&[&a, &near], 0.5e9).unwrap();
        assert_eq!(close.overlapping_pairs, 0);
        assert!(close.isolation_db < far.isolation_db);

        // Overlapping bands are flagged outright.
        let overlap = lane_plan(25.0, 4);
        let bad = LaneIsolationReport::analyze(&[&a, &overlap], 0.5e9).unwrap();
        assert!(bad.overlapping_pairs > 0);
        assert!(!bad.is_clean(0.0));
    }

    #[test]
    fn lane_isolation_validation() {
        let a = lane_plan(10.0, 2);
        assert!(LaneIsolationReport::analyze(&[&a], 1e9).is_err());
        let b = lane_plan(50.0, 2);
        assert!(LaneIsolationReport::analyze(&[&a, &b], 0.0).is_err());
        assert!(LaneIsolationReport::analyze(&[&a, &b], f64::NAN).is_err());
    }

    #[test]
    fn powers_are_nonnegative_and_consistent() {
        let channels = [10e9, 30e9];
        let spec = spectrum_of(&[(10e9, 1.0), (30e9, 0.5)]);
        let r = CrosstalkReport::analyze(&spec, &channels, 3e9).unwrap();
        assert!(r.in_band_power > 0.0);
        assert!(r.out_of_band_power >= 0.0);
        assert!(r.in_band_power > r.out_of_band_power);
    }
}
