//! Query-rate schedules (`R` per time step).

/// One phase of a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A constant rate for a number of steps.
    Flat {
        /// How many time steps this phase lasts.
        steps: u64,
        /// Queries per time step.
        rate: u64,
    },
    /// A linear ramp between two rates over a number of steps (inclusive of
    /// the start rate, approaching the end rate).
    Ramp {
        /// How many time steps this phase lasts.
        steps: u64,
        /// Rate at the first step of the phase.
        from: u64,
        /// Rate approached by the end of the phase.
        to: u64,
    },
    /// A diurnal sine wave: `base + amplitude·sin(2π·offset/period)`,
    /// clamped at zero. Models time-varying request volume (Carlsson/
    /// Eager, arXiv:1803.03914) — the day/night cycle elasticity policies
    /// must track without churning.
    Diurnal {
        /// How many time steps this phase lasts.
        steps: u64,
        /// Mean rate (the wave's midline).
        base: u64,
        /// Peak deviation from the midline.
        amplitude: u64,
        /// Steps per full day/night cycle.
        period: u64,
    },
}

impl Phase {
    fn steps(&self) -> u64 {
        match *self {
            Phase::Flat { steps, .. }
            | Phase::Ramp { steps, .. }
            | Phase::Diurnal { steps, .. } => steps,
        }
    }

    fn rate_at(&self, offset: u64) -> u64 {
        match *self {
            Phase::Flat { rate, .. } => rate,
            Phase::Ramp { steps, from, to } => {
                if steps <= 1 {
                    return to;
                }
                let t = offset as f64 / (steps - 1) as f64;
                (from as f64 + (to as f64 - from as f64) * t).round() as u64
            }
            Phase::Diurnal {
                base,
                amplitude,
                period,
                ..
            } => {
                let period = period.max(1);
                let t = (offset % period) as f64 / period as f64;
                let wave = base as f64 + amplitude as f64 * (2.0 * std::f64::consts::PI * t).sin();
                wave.round().max(0.0) as u64
            }
        }
    }
}

/// A flash crowd: a multiplicative arrival spike layered over a baseline
/// schedule for `[at, at + len)` steps (the paper's shoreline scenario —
/// a disaster hits and everyone asks for the same map region at once).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spike {
    /// First step of the spike (0-based).
    pub at: u64,
    /// How many steps the spike lasts.
    pub len: u64,
    /// Rate multiplier while the spike is active (×50 in ROADMAP item 5).
    pub mult: u64,
}

/// A piecewise rate schedule; steps past the last phase repeat the final
/// phase's ending rate. Optional [`Spike`] overlays multiply the phase
/// rate while active (flash crowds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RateSchedule {
    phases: Vec<Phase>,
    spikes: Vec<Spike>,
}

impl RateSchedule {
    /// A schedule from explicit phases.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty or any phase has zero steps.
    pub fn new(phases: Vec<Phase>) -> Self {
        assert!(!phases.is_empty(), "schedule needs at least one phase");
        assert!(
            phases.iter().all(|p| p.steps() > 0),
            "phases must last at least one step"
        );
        Self {
            phases,
            spikes: Vec::new(),
        }
    }

    /// A constant rate forever.
    pub fn constant(rate: u64) -> Self {
        Self::new(vec![Phase::Flat { steps: 1, rate }])
    }

    /// A pure diurnal schedule: `base ± amplitude` over a `period`-step
    /// cycle, repeating forever.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn diurnal(base: u64, amplitude: u64, period: u64) -> Self {
        assert!(period > 0, "diurnal period must be positive");
        Self::new(vec![Phase::Diurnal {
            steps: period,
            base,
            amplitude,
            period,
        }])
    }

    /// Layer flash-crowd spikes over this schedule: while step ∈
    /// `[spike.at, spike.at + spike.len)`, the rate is multiplied by
    /// `spike.mult`. Overlapping spikes compound.
    ///
    /// # Panics
    ///
    /// Panics if any spike has zero length or a zero multiplier (use
    /// `mult = 1` for a no-op, or drop the spike).
    pub fn with_flash_crowds(mut self, spikes: Vec<Spike>) -> Self {
        assert!(
            spikes.iter().all(|s| s.len > 0 && s.mult > 0),
            "spikes need positive length and multiplier"
        );
        self.spikes = spikes;
        self
    }

    /// The flash-crowd overlays, if any.
    pub fn spikes(&self) -> &[Spike] {
        &self.spikes
    }

    /// The eviction-experiment schedule of paper §IV-C:
    /// steps 1–100 at `R = 50`, steps 101–300 at `R = 250`, a ramp back
    /// down over steps 301–400 (the paper leaves this region unspecified;
    /// see DESIGN.md §7), then `R = 50` onward.
    pub fn paper_eviction_phases() -> Self {
        Self::new(vec![
            Phase::Flat {
                steps: 100,
                rate: 50,
            },
            Phase::Flat {
                steps: 200,
                rate: 250,
            },
            Phase::Ramp {
                steps: 100,
                from: 250,
                to: 50,
            },
            Phase::Flat { steps: 1, rate: 50 },
        ])
    }

    /// The Figure 3 schedule: one query per time step.
    pub fn paper_figure3() -> Self {
        Self::constant(1)
    }

    /// Queries per time step at 0-based step `step`.
    pub fn rate_at(&self, step: u64) -> u64 {
        let base = self.base_rate_at(step);
        let mult: u64 = self
            .spikes
            .iter()
            .filter(|s| step >= s.at && step - s.at < s.len)
            .map(|s| s.mult)
            .product();
        base.saturating_mul(mult)
    }

    /// The phase rate at `step`, before any spike overlay. A diurnal phase
    /// that is also the final phase keeps cycling past the schedule end
    /// (the wave is periodic); other phase kinds hold their final rate.
    fn base_rate_at(&self, step: u64) -> u64 {
        let mut offset = step;
        for phase in &self.phases {
            if offset < phase.steps() {
                return phase.rate_at(offset);
            }
            offset -= phase.steps();
        }
        // Past the end: a trailing diurnal wave keeps oscillating, other
        // phases hold their final rate.
        let last = self.phases.last().expect("non-empty");
        match last {
            Phase::Diurnal { steps, .. } => last.rate_at((steps.saturating_sub(1)) + offset + 1),
            _ => last.rate_at(last.steps() - 1),
        }
    }

    /// Total queries issued over the first `steps` time steps.
    pub fn total_queries(&self, steps: u64) -> u64 {
        (0..steps).map(|s| self.rate_at(s)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_schedule_never_changes() {
        let s = RateSchedule::constant(7);
        assert_eq!(s.rate_at(0), 7);
        assert_eq!(s.rate_at(1_000_000), 7);
        assert_eq!(s.total_queries(10), 70);
    }

    #[test]
    fn paper_phases_match_the_text() {
        let s = RateSchedule::paper_eviction_phases();
        // Steps 1..=100 (0-based 0..100): 50 q/step.
        assert_eq!(s.rate_at(0), 50);
        assert_eq!(s.rate_at(99), 50);
        // Steps 101..=300: 250 q/step.
        assert_eq!(s.rate_at(100), 250);
        assert_eq!(s.rate_at(299), 250);
        // Transition region ramps down.
        assert_eq!(s.rate_at(300), 250);
        assert!(s.rate_at(350) < 250);
        assert!(s.rate_at(350) > 50);
        // From step 400 (0-based 399): back to 50.
        assert_eq!(s.rate_at(399), 50);
        assert_eq!(s.rate_at(10_000), 50);
    }

    #[test]
    fn ramp_is_monotone_and_hits_endpoints() {
        let p = Phase::Ramp {
            steps: 5,
            from: 100,
            to: 20,
        };
        let rates: Vec<u64> = (0..5).map(|o| p.rate_at(o)).collect();
        assert_eq!(rates[0], 100);
        assert_eq!(rates[4], 20);
        assert!(rates.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn one_step_ramp_yields_target() {
        let p = Phase::Ramp {
            steps: 1,
            from: 9,
            to: 3,
        };
        assert_eq!(p.rate_at(0), 3);
    }

    #[test]
    fn total_queries_sums_phases() {
        let s = RateSchedule::new(vec![
            Phase::Flat { steps: 2, rate: 10 },
            Phase::Flat { steps: 3, rate: 1 },
        ]);
        assert_eq!(s.total_queries(5), 23);
        assert_eq!(s.total_queries(7), 25); // trailing rate held at 1
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_schedule_rejected() {
        RateSchedule::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn zero_length_phase_rejected() {
        RateSchedule::new(vec![Phase::Flat { steps: 0, rate: 1 }]);
    }

    #[test]
    fn diurnal_wave_peaks_and_troughs() {
        let s = RateSchedule::diurnal(100, 50, 100);
        // Midline at the cycle start, peak a quarter in, trough at 3/4.
        assert_eq!(s.rate_at(0), 100);
        assert_eq!(s.rate_at(25), 150);
        assert_eq!(s.rate_at(75), 50);
        // The wave keeps cycling past the single phase's end.
        assert_eq!(s.rate_at(125), 150);
        assert_eq!(s.rate_at(1_000_025), 150);
    }

    #[test]
    fn diurnal_never_goes_negative() {
        let s = RateSchedule::diurnal(10, 50, 40);
        for step in 0..200 {
            let _ = s.rate_at(step); // must not panic or wrap
        }
        assert_eq!(s.rate_at(30), 0, "trough clamps at zero");
    }

    #[test]
    fn flash_crowd_multiplies_only_inside_the_spike() {
        let s = RateSchedule::constant(50).with_flash_crowds(vec![Spike {
            at: 10,
            len: 5,
            mult: 50,
        }]);
        assert_eq!(s.rate_at(9), 50);
        assert_eq!(s.rate_at(10), 2500);
        assert_eq!(s.rate_at(14), 2500);
        assert_eq!(s.rate_at(15), 50);
        // total_queries integrates the spike.
        assert_eq!(s.total_queries(20), 50 * 15 + 2500 * 5);
    }

    #[test]
    fn overlapping_spikes_compound() {
        let s = RateSchedule::constant(10).with_flash_crowds(vec![
            Spike {
                at: 0,
                len: 4,
                mult: 2,
            },
            Spike {
                at: 2,
                len: 4,
                mult: 3,
            },
        ]);
        assert_eq!(s.rate_at(0), 20);
        assert_eq!(s.rate_at(2), 60);
        assert_eq!(s.rate_at(4), 30);
        assert_eq!(s.rate_at(6), 10);
    }

    #[test]
    #[should_panic(expected = "positive length")]
    fn zero_length_spike_rejected() {
        RateSchedule::constant(1).with_flash_crowds(vec![Spike {
            at: 0,
            len: 0,
            mult: 2,
        }]);
    }
}
