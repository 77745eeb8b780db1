//! The scenario zoo: named, seeded workload configurations.
//!
//! A [`Scenario`] bundles a rate schedule, a key distribution, a read/write
//! mix and a default horizon under a stable name, so the same workload can
//! be driven through cloudsim (virtual time, `cargo xtask scenario`) and
//! the simtest oracle — both byte-identical from one seed. The registry is the single source of truth: everything that
//! accepts a scenario name resolves it through [`Scenario::by_name`].

use crate::driver::{Op, QueryStream};
use crate::keys::KeyDist;
use crate::schedule::{RateSchedule, Spike};

/// A named workload configuration.
#[derive(Debug, Clone)]
pub struct Scenario {
    name: &'static str,
    summary: &'static str,
    schedule: RateSchedule,
    dist: KeyDist,
    write_ratio: f64,
    default_steps: u64,
}

impl Scenario {
    /// The registry: every zoo scenario, in stable order.
    pub fn all() -> Vec<Scenario> {
        vec![
            Scenario {
                name: "paper_shoreline",
                summary: "paper §IV-C eviction phases, uniform 32K keys (50/250/50 q/step)",
                schedule: RateSchedule::paper_eviction_phases(),
                dist: KeyDist::uniform(32 * 1024),
                write_ratio: 0.0,
                default_steps: 500,
            },
            Scenario {
                name: "zipf_hot",
                summary: "flat 200 q/step, Zipf s=1.1 over 64K keys (skewed hot ranks)",
                schedule: RateSchedule::constant(200),
                dist: KeyDist::zipf(64 * 1024, 1.1),
                write_ratio: 0.0,
                default_steps: 400,
            },
            Scenario {
                name: "shifting_hotset",
                summary: "flat 200 q/step, 512-key hot set (p=0.9) rotating every 50 steps",
                schedule: RateSchedule::constant(200),
                dist: KeyDist::shifting_hotspot(64 * 1024, 512, 0.9, 50),
                write_ratio: 0.0,
                default_steps: 400,
            },
            Scenario {
                name: "diurnal",
                summary: "sine load 150±120 q/step over a 200-step day, Zipf s=0.9 keys",
                schedule: RateSchedule::diurnal(150, 120, 200),
                dist: KeyDist::zipf(32 * 1024, 0.9),
                write_ratio: 0.0,
                default_steps: 600,
            },
            Scenario {
                name: "flash_crowd",
                summary: "baseline 40 q/step with a ×50 spike at steps 200..220, hotspot keys",
                schedule: RateSchedule::constant(40).with_flash_crowds(vec![Spike {
                    at: 200,
                    len: 20,
                    mult: 50,
                }]),
                dist: KeyDist::hotspot(64 * 1024, 256, 0.8),
                write_ratio: 0.0,
                default_steps: 400,
            },
            Scenario {
                name: "multi_tenant",
                summary: "three tenants (weights 5/3/1: Zipf, hotspot, uniform), 10% writes",
                schedule: RateSchedule::constant(150),
                dist: KeyDist::multi_tenant(vec![
                    (5.0, KeyDist::zipf(16 * 1024, 1.0)),
                    (3.0, KeyDist::hotspot(16 * 1024, 128, 0.9)),
                    (1.0, KeyDist::uniform(16 * 1024)),
                ]),
                write_ratio: 0.1,
                default_steps: 400,
            },
            Scenario {
                name: "write_heavy",
                summary: "flat 150 q/step, uniform 32K keys, 50% writes",
                schedule: RateSchedule::constant(150),
                dist: KeyDist::uniform(32 * 1024),
                write_ratio: 0.5,
                default_steps: 300,
            },
        ]
    }

    /// All scenario names, in registry order.
    pub fn names() -> Vec<&'static str> {
        Self::all().iter().map(|s| s.name).collect()
    }

    /// Look a scenario up by name.
    pub fn by_name(name: &str) -> Option<Scenario> {
        Self::all().into_iter().find(|s| s.name == name)
    }

    /// The scenario's stable name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// A one-line human description.
    pub fn summary(&self) -> &'static str {
        self.summary
    }

    /// The rate schedule.
    pub fn schedule(&self) -> &RateSchedule {
        &self.schedule
    }

    /// The key distribution.
    pub fn dist(&self) -> &KeyDist {
        &self.dist
    }

    /// The write fraction.
    pub fn write_ratio(&self) -> f64 {
        self.write_ratio
    }

    /// The horizon a full run uses when the caller does not override it.
    pub fn default_steps(&self) -> u64 {
        self.default_steps
    }

    /// The deterministic query stream for this scenario at `seed`.
    pub fn stream(&self, seed: u64) -> QueryStream {
        QueryStream::new(self.schedule.clone(), self.dist.clone(), seed)
            .with_write_ratio(self.write_ratio)
    }

    /// Generate the first `steps` time steps as `(step, op, key)` events.
    pub fn events(&self, seed: u64, steps: u64) -> impl Iterator<Item = (u64, Op, u64)> {
        self.stream(seed).take_steps_ops(steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let names = Scenario::names();
        for (i, n) in names.iter().enumerate() {
            assert!(!names[..i].contains(n), "duplicate scenario name {n}");
            assert!(Scenario::by_name(n).is_some());
        }
        assert!(Scenario::by_name("no_such_scenario").is_none());
        assert!(names.contains(&"paper_shoreline"));
        assert!(names.contains(&"flash_crowd"));
    }

    #[test]
    fn every_scenario_is_deterministic_from_its_seed() {
        for sc in Scenario::all() {
            let a: Vec<_> = sc.events(42, 8).collect();
            let b: Vec<_> = sc.events(42, 8).collect();
            assert_eq!(a, b, "{} not deterministic", sc.name());
            let c: Vec<_> = sc.events(43, 8).collect();
            assert_ne!(a, c, "{} ignores its seed", sc.name());
        }
    }

    #[test]
    fn keys_stay_inside_each_scenario_space() {
        for sc in Scenario::all() {
            let space = sc.dist().space();
            for (_, _, k) in sc.events(3, 5) {
                assert!(k < space, "{} drew {k} ≥ space {space}", sc.name());
            }
        }
    }

    #[test]
    fn write_ratios_show_up_in_the_stream() {
        let wh = Scenario::by_name("write_heavy").unwrap();
        let events: Vec<_> = wh.events(11, 40).collect();
        let writes = events.iter().filter(|(_, op, _)| *op == Op::Write).count();
        let frac = writes as f64 / events.len() as f64;
        assert!((frac - 0.5).abs() < 0.05, "write fraction {frac}");

        let ro = Scenario::by_name("paper_shoreline").unwrap();
        assert!(ro.events(11, 5).all(|(_, op, _)| op == Op::Read));
    }

    #[test]
    fn flash_crowd_spikes_the_rate() {
        let sc = Scenario::by_name("flash_crowd").unwrap();
        assert_eq!(sc.schedule().rate_at(199), 40);
        assert_eq!(sc.schedule().rate_at(200), 2000);
        assert_eq!(sc.schedule().rate_at(219), 2000);
        assert_eq!(sc.schedule().rate_at(220), 40);
    }
}
