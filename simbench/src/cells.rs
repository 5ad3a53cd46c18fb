//! One sweep cell, assembled from the crates' public API so that each layer
//! can be timed from outside: `FabricSpec::build` (myrinet) →
//! `NicBarrierLoop::for_team` / `HostBarrierLoop::for_team` (core compile) →
//! `ClusterBuilder::build` (gm) → `Simulation::run` (des).
//!
//! The assembly mirrors `BarrierExperiment::run`; [`equivalent`] checks
//! that both give the same mean, event count and counters.

use crate::measure::{heap_in_use_bytes, Fnv};
use gmsim_des::{Counter, Histogram, MetricSet, RunOutcome, SimRng, SimTime, Tracer, Unit};
use gmsim_gm::cluster::{Cluster, ClusterBuilder};
use gmsim_gm::{GmConfig, HostProgram};
use gmsim_testbed::{Algorithm, BarrierExperiment, MultiTenantExperiment, Placement};
use nic_barrier::nic::{TURNAROUND_BINS, TURNAROUND_BIN_US};
use nic_barrier::programs::decode_note;
use nic_barrier::{BarrierExtension, HostBarrierLoop, NicBarrierLoop, Team};
use std::time::Instant;

/// The seven trace units, in `des::Unit` order.
pub const UNITS: [Unit; 7] = [
    Unit::Host,
    Unit::Sdma,
    Unit::Send,
    Unit::Recv,
    Unit::Rdma,
    Unit::Wire,
    Unit::Ext,
];

/// What one cell runs.
#[derive(Debug, Clone)]
pub enum Cell {
    /// A single barrier stream, assembled layer by layer.
    Barrier(BarrierExperiment),
    /// Concurrent teams under background traffic, run whole through
    /// `MultiTenantExperiment::run` (its setup is not separable).
    MultiTenant(MultiTenantExperiment),
}

/// How to run a cell.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunMode {
    /// Worker threads for the conservative parallel engine (`<= 1` serial).
    pub threads: usize,
    /// Record the program's structured trace and count records per unit.
    pub trace: bool,
    /// Run the serial engine in slices of this much virtual time, timing
    /// each slice (`None`: one `run` call).
    pub slice: Option<SimTime>,
}

/// Host-time stamps of one cell's layer calls, in seconds since the
/// benchmark's clock origin.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stamps {
    /// Cell start.
    pub start: f64,
    /// `FabricSpec::build` returned.
    pub topology: f64,
    /// Every rank's program compiled.
    pub compile: f64,
    /// `ClusterBuilder::build` returned.
    pub build: f64,
    /// The simulation drained.
    pub run: f64,
    /// Results extracted; the cell is done.
    pub end: f64,
}

impl Stamps {
    /// Topology + compile + cluster build, in host seconds.
    pub fn setup_s(&self) -> f64 {
        self.build - self.start
    }
    /// `FabricSpec::build`, host seconds.
    pub fn topology_s(&self) -> f64 {
        self.topology - self.start
    }
    /// Schedule compile into per-rank programs, host seconds.
    pub fn compile_s(&self) -> f64 {
        self.compile - self.topology
    }
    /// `ClusterBuilder::build`, host seconds.
    pub fn build_s(&self) -> f64 {
        self.build - self.compile
    }
    /// The simulation run, host seconds.
    pub fn run_s(&self) -> f64 {
        self.run - self.build
    }
    /// The whole cell, host seconds.
    pub fn wall_s(&self) -> f64 {
        self.end - self.start
    }
}

/// What one cell produced.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// Mean steady-state barrier latency, simulated µs.
    pub mean_us: f64,
    /// Simulation events fired.
    pub events: u64,
    /// Barrier rounds simulated, summed over teams.
    pub rounds: u64,
    /// Aggregated cluster counters.
    pub metrics: MetricSet,
    /// Merged per-packet NIC turnaround, simulated µs.
    pub turnaround: Histogram,
    /// Layer call stamps.
    pub stamps: Stamps,
    /// Trace records per unit (traced runs only).
    pub units: [u64; 7],
    /// Virtual time the last event fired at.
    pub sim_end: SimTime,
    /// Host seconds of each virtual-time slice of the run, in order (empty
    /// for an unsliced run).
    pub slices: Vec<f64>,
}

impl CellRun {
    /// Fingerprint of every simulated quantity: the mean's bits, the event
    /// count and every counter.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        h.word(self.mean_us.to_bits());
        h.word(self.events);
        h.word(self.rounds);
        for (_, v) in self.metrics.iter() {
            h.word(v);
        }
        h.0
    }
}

/// A short label for the cell.
pub fn label(cell: &Cell) -> String {
    match cell {
        Cell::Barrier(e) if e.fault_plan.is_none() => {
            format!("{}@{}/{}", e.algorithm.name(), e.procs, e.nic.name)
        }
        Cell::Barrier(e) => format!(
            "{}@{}/{}/drop={}",
            e.algorithm.name(),
            e.procs,
            e.nic.name,
            e.fault_plan.drop_probability
        ),
        Cell::MultiTenant(m) => format!("multitenant{}x{}", m.teams, m.nodes),
    }
}

/// Run one cell; the error text names what went wrong.
pub fn run_cell(cell: &Cell, mode: RunMode, origin: Instant) -> Result<CellRun, String> {
    match cell {
        Cell::Barrier(e) => run_barrier(e, mode, origin),
        Cell::MultiTenant(m) => run_multitenant(m, origin),
    }
}

fn secs(origin: Instant) -> f64 {
    origin.elapsed().as_secs_f64()
}

/// Everything `ClusterBuilder::build` needs for one barrier cell, assembled
/// through the myrinet and core layers with the calls stamped.
fn assemble(
    e: &BarrierExperiment,
    tracer: &Tracer,
    stamps: &mut Stamps,
    origin: Instant,
) -> Result<ClusterBuilder, String> {
    e.validate().map_err(|err| err.to_string())?;
    stamps.start = secs(origin);
    let nodes = match e.placement {
        Placement::OnePerNode => e.procs,
        Placement::Packed { procs_per_node } => e.procs.div_ceil(procs_per_node),
    };
    let topology = std::hint::black_box(e.fabric.build(nodes, e.routing));
    stamps.topology = secs(origin);

    let team = Team::new(e.team, e.group());
    let programs: Vec<Box<dyn HostProgram>> = (0..e.procs)
        .map(|rank| -> Box<dyn HostProgram> {
            match e.algorithm {
                Algorithm::Nic(d) => Box::new(NicBarrierLoop::for_team(&team, rank, d, e.rounds)),
                Algorithm::Host(d) => Box::new(HostBarrierLoop::for_team(&team, rank, d, e.rounds)),
            }
        })
        .collect();
    stamps.compile = secs(origin);

    let mut config = GmConfig::paper_host(e.nic).with_layer_overhead(e.layer_factor);
    config.collective_wire = e.wire;
    config.same_nic_optimization = e.same_nic_opt;
    if let Some(tokens) = e.send_tokens {
        config.send_tokens_per_port = tokens;
    }
    let mut builder = ClusterBuilder::new(nodes)
        .config(config)
        .topology(topology)
        .extension(BarrierExtension::factory_with_costs(e.costs))
        .tracer(tracer.clone());
    if !e.fault_plan.is_none() {
        builder = builder.faults(e.fault_plan, e.seed);
    }
    let mut rng = SimRng::new(e.seed);
    for (rank, program) in programs.into_iter().enumerate() {
        let start = if e.max_skew_us == 0 {
            SimTime::ZERO
        } else {
            SimTime::from_us(rng.below(e.max_skew_us + 1))
        };
        builder = builder.program(team.member(rank), program, start);
    }
    Ok(builder)
}

/// Heap bytes the serial `ClusterBuilder::build` of cell `e` leaves
/// allocated. Only the calling thread may allocate meanwhile, because the
/// allocator's count is process-wide.
pub fn cluster_heap_bytes(e: &BarrierExperiment) -> Result<i64, String> {
    let builder = assemble(
        e,
        &Tracer::disabled(),
        &mut Stamps::default(),
        Instant::now(),
    )?;
    let before = heap_in_use_bytes();
    let sim = builder.build();
    let heap = heap_in_use_bytes() - before;
    drop(sim);
    Ok(heap)
}

fn run_barrier(e: &BarrierExperiment, mode: RunMode, origin: Instant) -> Result<CellRun, String> {
    let tracer = if mode.trace {
        Tracer::capture()
    } else {
        Tracer::disabled()
    };
    let mut stamps = Stamps::default();
    let builder = assemble(e, &tracer, &mut stamps, origin)?;

    let mut units = [0u64; 7];
    let mut slices = Vec::new();
    let (outcome, events, sim_end, cluster) = if mode.threads > 1 {
        let mut sim = builder.build_parallel(mode.threads);
        stamps.build = secs(origin);
        let outcome = sim.run();
        count_units(&tracer, &mut units);
        // Only serial runs are sliced, so the end time is not needed here.
        (outcome, sim.events_fired(), SimTime::ZERO, sim.into_world())
    } else {
        let mut sim = builder.build();
        stamps.build = secs(origin);
        // A traced run drains the capture buffer slice by slice, so a big
        // cluster's trace never sits in memory whole.
        let slice = mode.slice.or(mode.trace.then(|| SimTime::from_us(200)));
        let outcome = match slice {
            None => sim.run(),
            Some(step) => {
                let mut horizon = step;
                loop {
                    let t = Instant::now();
                    let o = sim.run_until(horizon);
                    slices.push(t.elapsed().as_secs_f64());
                    count_units(&tracer, &mut units);
                    if o != RunOutcome::HorizonReached {
                        break o;
                    }
                    horizon += step;
                }
            }
        };
        (outcome, sim.events_fired(), sim.now(), sim.into_world())
    };
    stamps.run = secs(origin);
    if outcome != RunOutcome::Quiescent {
        return Err(format!("simulation did not drain: {outcome:?}"));
    }
    if let Some(node) = cluster
        .nodes
        .iter()
        .position(|n| n.mcp.core.connections().any(|c| c.is_dead()))
    {
        return Err(format!("node {node} gave up on a peer"));
    }
    let mean_us = mean_latency(e, &cluster)?;
    let (metrics, turnaround) = collect_metrics(&cluster);
    drop(cluster);
    stamps.end = secs(origin);
    Ok(CellRun {
        mean_us,
        events,
        rounds: e.rounds,
        metrics,
        turnaround,
        stamps,
        units,
        sim_end,
        slices,
    })
}

fn count_units(tracer: &Tracer, units: &mut [u64; 7]) {
    for rec in tracer.take_records() {
        let i = UNITS
            .iter()
            .position(|&u| u == rec.component.unit)
            .expect("every unit is listed");
        units[i] += 1;
    }
}

/// Consecutive-barrier latency exactly as `BarrierExperiment::run` derives
/// it: a round completes when its last participant's note lands.
fn mean_latency(e: &BarrierExperiment, cluster: &Cluster) -> Result<f64, String> {
    let rounds = e.rounds as usize;
    let mut done = vec![SimTime::ZERO; rounds];
    let mut counts = vec![0u64; rounds];
    for note in &cluster.notes {
        if let Some(round) = decode_note(note.tag) {
            done[round as usize] = done[round as usize].max(note.at);
            counts[round as usize] += 1;
        }
    }
    if let Some((r, c)) = counts
        .iter()
        .enumerate()
        .find(|(_, &c)| c != e.procs as u64)
    {
        return Err(format!("round {r} completed on {c}/{} processes", e.procs));
    }
    let span = done[rounds - 1] - done[e.warmup as usize];
    Ok(span.as_us_f64() / (e.rounds - e.warmup - 1) as f64)
}

/// The cluster's counters, summed the way the testbed aggregates them.
fn collect_metrics(cluster: &Cluster) -> (MetricSet, Histogram) {
    let mut m = MetricSet::new();
    let fabric = cluster.fabric.stats();
    m.add(Counter::PacketsSent, fabric.sends);
    m.add(Counter::PacketsDropped, fabric.drops);
    m.add(Counter::PacketsCorrupted, fabric.corruptions);
    m.add(Counter::DupRx, fabric.duplicates);
    m.add(Counter::ReorderRx, fabric.reorders);
    let mut turnaround = Histogram::new(TURNAROUND_BIN_US, TURNAROUND_BINS);
    let mut concurrent_peak = 0;
    let mut teams = Vec::new();
    for node in &cluster.nodes {
        let core = &node.mcp.core;
        let s = &core.stats;
        m.add(Counter::PacketsRetransmitted, s.retx);
        m.add(Counter::AcksSent, s.ack_tx);
        m.add(Counter::NacksSent, s.nack_tx);
        m.add(Counter::CrcDrops, s.crc_drops);
        m.add(Counter::DupDrops, s.dup_drops);
        m.add(Counter::RtoBackoffs, s.rto_backoffs);
        m.add(Counter::TimerCancels, s.timer_cancels);
        m.add(Counter::GaveUp, s.gave_up);
        m.add(Counter::CompletionDmas, s.host_events);
        m.add(Counter::FirmwareCycles, core.hw.cpu.executed_cycles());
        m.add(Counter::SdmaBytes, core.hw.sdma.bytes());
        m.add(Counter::RdmaBytes, core.hw.rdma.bytes());
        m.add(Counter::HostSends, node.host.stats.sends);
        m.add(Counter::HostEvents, node.host.stats.events);
        if let Some(ext) = node.mcp.ext().as_any().downcast_ref::<BarrierExtension>() {
            let b = &ext.stats;
            m.add(Counter::LocalFlags, b.local_flags);
            m.add(Counter::BarrierCompletions, b.completions);
            m.add(Counter::RejectsSent, b.rejects_sent);
            m.add(Counter::BarrierResends, b.resends);
            m.add(Counter::CrossTeamRejects, b.cross_team_rejects);
            concurrent_peak = concurrent_peak.max(b.concurrent_peak);
            teams.extend_from_slice(ext.teams_seen());
            turnaround.merge(ext.turnaround());
        }
    }
    teams.sort_unstable();
    teams.dedup();
    m.add(Counter::TeamsCreated, teams.len() as u64);
    m.add(Counter::ConcurrentPeak, concurrent_peak);
    (m, turnaround)
}

fn run_multitenant(m: &MultiTenantExperiment, origin: Instant) -> Result<CellRun, String> {
    let start = secs(origin);
    let r = m.run().map_err(|err| err.to_string())?;
    let end = secs(origin);
    // No layer is separable from outside: the whole cell is simulation.
    let stamps = Stamps {
        start,
        topology: start,
        compile: start,
        build: start,
        run: end,
        end,
    };
    Ok(CellRun {
        mean_us: r.mean_us,
        events: r.events,
        rounds: m.rounds * m.teams as u64,
        metrics: r.metrics,
        turnaround: Histogram::new(TURNAROUND_BIN_US, TURNAROUND_BINS),
        stamps,
        units: [0; 7],
        sim_end: SimTime::ZERO,
        slices: Vec::new(),
    })
}

/// Check the outside assembly against `BarrierExperiment::run` on the same
/// cell: mean, events and every counter must match exactly.
pub fn equivalent(e: &BarrierExperiment, ours: &CellRun) -> Result<(), String> {
    let theirs = e.run().map_err(|err| err.to_string())?;
    let counters: Vec<&str> = ours
        .metrics
        .iter()
        .zip(theirs.metrics.iter())
        .filter(|(a, b)| a != b)
        .map(|((c, _), _)| c.name())
        .collect();
    if theirs.mean_us.to_bits() != ours.mean_us.to_bits()
        || theirs.events != ours.events
        || !counters.is_empty()
    {
        return Err(format!(
            "assembly diverges from BarrierExperiment::run: mean {} vs {} us, \
             events {} vs {}, counters differing: [{}]",
            ours.mean_us,
            theirs.mean_us,
            ours.events,
            theirs.events,
            counters.join(", ")
        ));
    }
    Ok(())
}
