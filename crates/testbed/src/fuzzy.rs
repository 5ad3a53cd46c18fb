//! Fuzzy-barrier measurement (§2.1).
//!
//! "Because the barrier algorithm is performed at the NIC, the processor is
//! free to perform computation while polling for the barrier to complete.
//! This is known as a *fuzzy barrier*." The measurement here compares the
//! steady-state period of an iterate-compute-synchronize loop in two modes:
//!
//! * **overlap** — initiate the NIC barrier, then compute while it runs
//!   (the fuzzy barrier); the period approaches `max(compute, barrier)`,
//! * **blocking** — compute, then synchronize; the period approaches
//!   `compute + barrier`.

use crate::experiment::{check_workload, run_one_team, ClusterSpec, ExperimentError, Measurement};
use gmsim_des::SimTime;
use gmsim_gm::cluster::ProgramStart;
use gmsim_gm::GmConfig;
use gmsim_lanai::NicModel;
use nic_barrier::{BarrierCosts, BarrierGroup, FuzzyBarrierLoop, TeamId};

/// Configuration of one fuzzy-barrier run.
#[derive(Debug, Clone, Copy)]
pub struct FuzzyExperiment {
    /// Participating processes (one per node).
    pub procs: usize,
    /// Per-round computation, µs.
    pub compute_us: u64,
    /// Overlap compute with the barrier (fuzzy) or block.
    pub overlap: bool,
    /// NIC model.
    pub nic: NicModel,
    /// Rounds to run.
    pub rounds: u64,
    /// Warmup rounds excluded from the mean.
    pub warmup: u64,
}

impl FuzzyExperiment {
    /// A default experiment on LANai 4.3.
    pub fn new(procs: usize, compute_us: u64, overlap: bool) -> Self {
        FuzzyExperiment {
            procs,
            compute_us,
            overlap,
            nic: NicModel::LANAI_4_3,
            rounds: 120,
            warmup: 20,
        }
    }

    /// Check the configuration without running anything.
    pub fn validate(&self) -> Result<(), ExperimentError> {
        check_workload(self.procs, self.rounds, self.warmup)
    }

    /// Run and return the steady-state per-round period: one global team
    /// of [`FuzzyBarrierLoop`]s, reduced like a [`crate::BarrierExperiment`].
    ///
    /// # Errors
    /// Configuration errors ([`FuzzyExperiment::validate`]) before anything
    /// runs; the run core's runtime failures after.
    pub fn run(&self) -> Result<Measurement, ExperimentError> {
        self.validate()?;
        let group = BarrierGroup::one_per_node(self.procs, 1);
        let compute = SimTime::from_us(self.compute_us);
        let programs: Vec<ProgramStart> = (0..self.procs)
            .map(|rank| {
                let program =
                    FuzzyBarrierLoop::new(group.clone(), rank, self.rounds, compute, self.overlap);
                (group.member(rank), Box::new(program) as _, SimTime::ZERO)
            })
            .collect();
        let config = GmConfig::paper_host(self.nic);
        let spec = ClusterSpec::new(self.procs, config, BarrierCosts::GM_1_2_3);
        run_one_team(spec, programs, TeamId::GLOBAL, self.rounds, self.warmup)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_hides_compute_inside_barrier() {
        // Compute smaller than the barrier latency: the fuzzy period should
        // stay close to the pure barrier latency, while blocking pays
        // compute + barrier.
        let barrier_only = FuzzyExperiment::new(8, 0, true).run().unwrap().mean_us;
        let fuzzy = FuzzyExperiment::new(8, 40, true).run().unwrap().mean_us;
        let blocking = FuzzyExperiment::new(8, 40, false).run().unwrap().mean_us;
        assert!(
            fuzzy < blocking,
            "fuzzy {fuzzy:.1} must beat blocking {blocking:.1}"
        );
        // Hiding is substantial: at least half the compute disappears.
        assert!(
            blocking - fuzzy > 20.0,
            "hidden time only {:.1}us",
            blocking - fuzzy
        );
        assert!(fuzzy >= barrier_only - 1.0);
    }

    #[test]
    fn big_compute_dominates_both_modes() {
        // Compute far larger than the barrier: both periods ≈ compute, and
        // overlap hides (almost) the whole barrier.
        let fuzzy = FuzzyExperiment::new(4, 1_000, true).run().unwrap().mean_us;
        let blocking = FuzzyExperiment::new(4, 1_000, false).run().unwrap().mean_us;
        assert!(fuzzy >= 1_000.0);
        assert!(blocking > fuzzy);
        assert!(
            fuzzy < 1_000.0 + 30.0,
            "fuzzy overhead too high: {fuzzy:.1}"
        );
    }

    #[test]
    fn events_are_counted() {
        let m = FuzzyExperiment::new(4, 20, true).run().unwrap();
        assert!(m.events > 0);
    }

    #[test]
    fn invalid_rounds_are_errors_not_panics() {
        let mut e = FuzzyExperiment::new(4, 20, true);
        e.rounds = 0;
        assert_eq!(e.run().unwrap_err(), ExperimentError::ZeroRounds);
        e.rounds = 10;
        e.warmup = 9;
        assert_eq!(
            e.run().unwrap_err(),
            ExperimentError::WarmupNotBelowRounds {
                rounds: 10,
                warmup: 9
            }
        );
        assert_eq!(
            FuzzyExperiment::new(0, 20, true).run().unwrap_err(),
            ExperimentError::ZeroProcs
        );
    }

    #[test]
    fn zero_compute_modes_agree() {
        let a = FuzzyExperiment::new(4, 0, true).run().unwrap().mean_us;
        let b = FuzzyExperiment::new(4, 0, false).run().unwrap().mean_us;
        assert!((a - b).abs() < 1e-6);
    }
}
