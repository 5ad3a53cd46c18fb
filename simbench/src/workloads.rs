//! The three workloads and the metrics they yield.
//!
//! A workload is a fixed list of cells (one *repetition*) derived from the
//! seed. The benchmark repeats it a fixed number of times, set by
//! `--seconds` alone; every repetition must reproduce the first one's
//! fingerprint exactly.

use crate::cells::{
    cluster_heap_bytes, equivalent, label, run_cell, Cell, CellRun, RunMode, Stamps, UNITS,
};
use crate::measure::{median, peak_rss_mb, quantile, Fnv};
use gmsim_des::{Counter, MetricSet, SimRng, SimTime};
use gmsim_gm::{GmConfig, Payload};
use gmsim_lanai::NicModel;
use gmsim_myrinet::{FabricSpec, FaultPlan, RoutePolicy};
use gmsim_testbed::{
    best_gb_dim, cell_seed, Algorithm, BarrierExperiment, Descriptor, MultiTenantExperiment,
    SweepEngine,
};
use nic_barrier::advisor::{self, Scenario};
use nic_barrier::{CostModel, PE_MODEL_TOLERANCE};
use std::time::Instant;

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 3] = ["paper16", "scale", "sweep"];

/// The paper's reference latencies (µs): NIC-PE and NIC-GB on 16 nodes and
/// host-PE on 16 nodes (LANai 4.3), then NIC-PE and host-PE on 8 nodes
/// (LANai 7.2), in [`paper_cells`] order.
pub const PAPER_US: [f64; 5] = [102.14, 152.27, 181.8, 49.25, 90.24];

/// Start skew bound of the `scale` cells, µs: early arrivals exercise the
/// firmware's reject path.
const SKEW_US: u64 = 20;

/// One repetition's inputs plus what to check and report on them.
pub struct Plan {
    /// The cells of one repetition, in order.
    pub cells: Vec<Cell>,
    /// `SweepEngine` workers, set explicitly.
    pub workers: usize,
    /// Candidate sets the advisor ranked: cell indices, advisor's pick
    /// first. Sets of one candidate read as a perfect pick.
    pub ranked: Vec<Vec<usize>>,
    /// Host seconds spent in `advisor::recommend` / `predict` for the plan.
    pub advisor_s: f64,
    /// Cells whose outside assembly is checked against
    /// `BarrierExperiment::run`.
    pub equivalence: Vec<usize>,
    /// The cell timed serial vs the 2-worker parallel engine.
    pub pdes: usize,
    /// Timed repetitions per second of `--seconds`. About the rate one
    /// repetition runs at on an unloaded 2-core 2.1 GHz Xeon, except where
    /// the fastest-slice sum needs more samples to settle under load.
    pub reps_per_s: f64,
}

impl Plan {
    /// Timed repetitions for a run of `seconds`, at least two. It depends
    /// on nothing measured, so every commit's runs take the same number of
    /// samples.
    pub fn timed_reps(&self, seconds: f64) -> usize {
        ((seconds * self.reps_per_s).round() as usize).max(2)
    }
}

/// The paper's five reference cells: the 16-node LANai 4.3 testbed and the
/// 8-node LANai 7.2 one, started in sync as the paper ran them. `gb_dim` is
/// the tree dimension `best_gb_dim` picks, as the headline table does.
pub fn paper_cells(rounds: &[u64; 5], gb_dim: usize) -> Vec<BarrierExperiment> {
    let l43 = NicModel::LANAI_4_3;
    let l72 = NicModel::LANAI_7_2;
    [
        (16, Algorithm::Nic(Descriptor::Pe), l43),
        (16, Algorithm::Nic(Descriptor::gb(gb_dim)), l43),
        (16, Algorithm::Host(Descriptor::Pe), l43),
        (8, Algorithm::Nic(Descriptor::Pe), l72),
        (8, Algorithm::Host(Descriptor::Pe), l72),
    ]
    .into_iter()
    .zip(rounds)
    .map(|((n, alg, nic), &rounds)| {
        BarrierExperiment::new(n, alg)
            .nic(nic)
            .rounds(rounds, 20.min(rounds / 4))
    })
    .collect()
}

/// The NIC-GB tree dimension the headline table reports for 16 nodes.
pub fn headline_gb_dim(tiny: bool) -> usize {
    let base = BarrierExperiment::new(16, Algorithm::Nic(Descriptor::gb(1)));
    let base = if tiny { base.rounds(40, 5) } else { base };
    best_gb_dim(base).0
}

fn rank(model: &CostModel, sc: &Scenario, algs: &[Algorithm]) -> Vec<usize> {
    let mut order: Vec<(f64, usize)> = algs
        .iter()
        .enumerate()
        .map(|(i, alg)| {
            let (placement, desc) = match *alg {
                Algorithm::Nic(d) => (advisor::Placement::Nic, d),
                Algorithm::Host(d) => (advisor::Placement::Host, d),
            };
            (advisor::predict(model, sc, placement, &desc), i)
        })
        .collect();
    order.sort_by(|a, b| a.0.total_cmp(&b.0));
    order.into_iter().map(|(_, i)| i).collect()
}

/// `paper16`: the paper's testbed, long back-to-back barrier streams. The
/// seed draws each stream's length; the steady-state mean must not depend
/// on it.
pub fn paper16(seed: u64, tiny: bool, gb_dim: usize) -> Plan {
    let (base, spread) = if tiny { (60, 20) } else { (1200, 600) };
    let mut rng = SimRng::new(seed);
    let rounds = [(); 5].map(|_| base + rng.below(spread));
    let exps = paper_cells(&rounds, gb_dim);
    let t0 = Instant::now();
    let m43 = CostModel::from_config(&GmConfig::paper_host(NicModel::LANAI_4_3));
    let m72 = CostModel::from_config(&GmConfig::paper_host(NicModel::LANAI_7_2));
    let algs: Vec<Algorithm> = exps.iter().map(|e| e.algorithm).collect();
    let r16 = rank(&m43, &Scenario::barrier(16), &algs[..3]);
    let r8: Vec<usize> = rank(&m72, &Scenario::barrier(8), &algs[3..])
        .into_iter()
        .map(|i| i + 3)
        .collect();
    let advisor_s = t0.elapsed().as_secs_f64();
    Plan {
        cells: exps.into_iter().map(Cell::Barrier).collect(),
        workers: 1,
        ranked: vec![r16, r8],
        advisor_s,
        equivalence: (0..5).collect(),
        pdes: 0,
        reps_per_s: 5.6,
    }
}

/// The paper's cells at the headline table's stream length: the accuracy
/// check of workloads that do not run the paper's testbed themselves.
pub fn paper_check(gb_dim: usize) -> Plan {
    Plan {
        cells: paper_cells(&[220; 5], gb_dim)
            .into_iter()
            .map(Cell::Barrier)
            .collect(),
        workers: 1,
        ranked: Vec::new(),
        advisor_s: 0.0,
        equivalence: Vec::new(),
        pdes: 0,
        // Run once, untimed.
        reps_per_s: 0.0,
    }
}

/// `scale`: NIC-PE on a two-level (N=1024) and a three-level (N=4096)
/// Clos, few rounds each.
pub fn scale(seed: u64, tiny: bool) -> Plan {
    let sizes: [(usize, u64); 2] = if tiny {
        [(64, 8), (128, 6)]
    } else {
        [(1024, 12), (4096, 5)]
    };
    let t0 = Instant::now();
    let model = CostModel::from_config(&GmConfig::paper_host(NicModel::LANAI_4_3));
    for (n, _) in sizes {
        std::hint::black_box(advisor::recommend(&model, &Scenario::barrier(n)));
    }
    let advisor_s = t0.elapsed().as_secs_f64();
    let cells = sizes
        .iter()
        .enumerate()
        .map(|(i, &(n, rounds))| {
            Cell::Barrier(
                BarrierExperiment::new(n, Algorithm::Nic(Descriptor::Pe))
                    .rounds(rounds, 1)
                    .skew(SKEW_US, cell_seed(seed, i as u64)),
            )
        })
        .collect();
    Plan {
        cells,
        workers: 1,
        ranked: vec![vec![0], vec![1]],
        advisor_s,
        equivalence: vec![0],
        pdes: 1,
        // A repetition takes about 1.3 s unloaded. Under heavy host load
        // the fastest-slice sum spread 19-25% across seeds with 8
        // repetitions per 10 s and 12% with 15.
        reps_per_s: 1.5,
    }
}

/// A 2:1 oversubscribed two-level Clos for `n` hosts (8 hosts per leaf,
/// 4 spines).
fn clos_2to1(n: usize) -> FabricSpec {
    FabricSpec::Clos {
        leaves: n / 8,
        hosts_per_leaf: 8,
        spines: 4,
    }
}

/// `sweep`: the advisor's grid on an oversubscribed Clos with adaptive
/// routing, every ranked candidate measured, plus two multi-tenant cells.
pub fn sweep(seed: u64, tiny: bool) -> Plan {
    let sizes: &[usize] = if tiny { &[16] } else { &[64, 256] };
    let model = CostModel::from_config(&GmConfig::paper_host(NicModel::LANAI_4_3));
    let mut cells = Vec::new();
    let mut ranked = Vec::new();
    let mut advisor_s = 0.0;
    let mut equivalence = Vec::new();
    let mut pdes = 0;
    for &n in sizes {
        for bytes in [0u64, 4096] {
            for drop in [0.0, 1e-2] {
                let fabric = clos_2to1(n);
                let mut sc = Scenario::barrier(n)
                    .with_faults(drop)
                    .with_fabric(fabric, RoutePolicy::Adaptive);
                if bytes > 0 {
                    sc = sc.with_payload(Payload::for_size(bytes));
                }
                let t0 = Instant::now();
                let rec = advisor::recommend(&model, &sc);
                advisor_s += t0.elapsed().as_secs_f64();
                // Paired seeding: every candidate of a scenario sees the
                // same fault stream.
                let scenario_seed = cell_seed(seed, ranked.len() as u64);
                let (rounds, warmup) = if bytes > 0 { (24, 4) } else { (40, 5) };
                let mut set = Vec::new();
                for c in &rec.ranked {
                    let alg = match c.placement {
                        advisor::Placement::Nic => Algorithm::Nic(c.descriptor),
                        advisor::Placement::Host => Algorithm::Host(c.descriptor),
                    };
                    let mut e = BarrierExperiment::new(n, alg)
                        .rounds(rounds, warmup)
                        .fabric(fabric, RoutePolicy::Adaptive);
                    e.seed = scenario_seed;
                    if drop > 0.0 {
                        e = e.faults(FaultPlan::drops(drop)).send_token_pool(64);
                    }
                    if bytes == 0 && drop == 0.0 && alg == Algorithm::Nic(Descriptor::Pe) {
                        pdes = cells.len();
                    }
                    set.push(cells.len());
                    cells.push(Cell::Barrier(e));
                }
                equivalence.push(set[0]);
                ranked.push(set);
            }
        }
    }
    let tenants = if tiny { 16 } else { 64 };
    for i in 0..2u64 {
        let m = MultiTenantExperiment::new(tenants, 4)
            .team_sizes(4, 16.min(tenants))
            .background(true)
            .seed(cell_seed(seed, 1000 + i));
        cells.push(Cell::MultiTenant(m));
    }
    Plan {
        cells,
        workers: 2,
        ranked,
        advisor_s,
        equivalence,
        pdes,
        reps_per_s: 0.8,
    }
}

/// One repetition of a plan.
pub struct Rep {
    /// Wall time of the whole repetition, host seconds.
    pub wall_s: f64,
    /// Per-cell outcomes, in plan order.
    pub runs: Vec<Result<CellRun, String>>,
}

impl Rep {
    fn ok(&self) -> impl Iterator<Item = &CellRun> {
        self.runs.iter().filter_map(|r| r.as_ref().ok())
    }
    fn sum(&self, f: impl Fn(&CellRun) -> f64) -> f64 {
        self.ok().map(f).sum()
    }
    fn rounds(&self) -> u64 {
        self.ok().map(|r| r.rounds).sum()
    }
    fn events(&self) -> u64 {
        self.ok().map(|r| r.events).sum()
    }
    fn metrics(&self) -> MetricSet {
        let mut m = MetricSet::new();
        for r in self.ok() {
            m.merge(&r.metrics);
        }
        m
    }
    /// Fingerprint over every cell, in order; failed cells mix in a marker.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        for r in &self.runs {
            h.word(r.as_ref().map_or(u64::MAX, CellRun::fingerprint));
        }
        h.0
    }
}

/// Run every cell of `plan` once on its `SweepEngine`; cell `i` runs in
/// slices of `slices[i]` virtual time when given.
pub fn run_rep(plan: &Plan, mode: RunMode, slices: &[Option<SimTime>], origin: Instant) -> Rep {
    let t0 = Instant::now();
    let runs = SweepEngine::new()
        .workers(plan.workers)
        .run(&plan.cells, |i, c| {
            let slice = slices.get(i).copied().flatten();
            run_cell(c, RunMode { slice, ..mode }, origin)
        });
    Rep {
        wall_s: t0.elapsed().as_secs_f64(),
        runs,
    }
}

/// Slices per cell in timed repetitions.
const SLICES: u64 = 32;

/// The fastest host time seen for each piece of work, summed. A cell's
/// simulation is cut into the same virtual-time slices in every timed
/// repetition, so slice `j` of cell `i` is the same work each time; its
/// cost is the fastest of its repetitions, which is the host's unloaded
/// speed whenever a repetition caught a quiet moment. Cells without
/// slices count whole.
fn fastest(reps: &[Rep], cell: usize, whole: impl Fn(&CellRun) -> f64, sliced: bool) -> f64 {
    let runs: Vec<&CellRun> = reps
        .iter()
        .filter_map(|r| r.runs[cell].as_ref().ok())
        .collect();
    let slices = runs.first().map_or(0, |r| r.slices.len());
    if !sliced || slices == 0 || runs.iter().any(|r| r.slices.len() != slices) {
        return runs.iter().map(|r| whole(r)).fold(f64::INFINITY, f64::min);
    }
    (0..slices)
        .map(|j| {
            runs.iter()
                .map(|r| r.slices[j])
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// A named measurement with its unit.
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one benchmark run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: cell runs plus the benchmark's checks.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable findings, one per line.
    pub notes: Vec<String>,
    /// The first repetition's fingerprint.
    pub fingerprint: u64,
    /// Layer stamps of every cell run, by repetition (traced runs only).
    pub spans: Vec<(usize, String, Stamps)>,
}

impl Outcome {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.notes.push(format!("FAIL {what}: {e}"));
        }
    }
}

/// Per-barrier ratio of a counter.
fn per_barrier(m: &MetricSet, c: Counter, rounds: u64) -> f64 {
    m.get(c) as f64 / rounds.max(1) as f64
}

/// Run `plan` for [`Plan::timed_reps`] repetitions and fill in the
/// end-to-end metrics (or, when `traced`, the per-layer ones). `paper_ref`
/// supplies the paper reference cells for plans that do not start with
/// them.
pub fn execute(
    plan: &Plan,
    seconds: f64,
    traced: bool,
    paper_ref: Option<&Plan>,
    origin: Instant,
) -> Outcome {
    let mut out = Outcome::default();
    let serial = RunMode {
        threads: 1,
        ..RunMode::default()
    };

    // Repetition 0 warms up, fixes the fingerprint and sizes the slices;
    // a fixed number of timed repetitions follow.
    let warm = run_rep(plan, serial, &[], origin);
    let slices: Vec<Option<SimTime>> = warm
        .runs
        .iter()
        .map(|r| {
            let end = r.as_ref().ok()?.sim_end.as_ns();
            (end > 0).then(|| SimTime::from_ns(end.div_ceil(SLICES)))
        })
        .collect();
    let mut reps: Vec<Rep> = vec![warm];
    for _ in 0..plan.timed_reps(seconds) {
        reps.push(run_rep(plan, serial, &slices, origin));
    }
    let first = &reps[0];
    out.fingerprint = first.fingerprint();
    for (r, rep) in reps.iter().enumerate() {
        for (i, run) in rep.runs.iter().enumerate() {
            out.attempted += 1;
            let bad = match run {
                Err(e) => Some(e.clone()),
                Ok(c) => {
                    let want = first.runs[i].as_ref().map(CellRun::fingerprint);
                    (want != Ok(c.fingerprint()))
                        .then(|| "fingerprint differs from repetition 0".to_string())
                }
            };
            if let Some(e) = bad {
                out.failed += 1;
                out.notes
                    .push(format!("FAIL rep {r} cell {}: {e}", label(&plan.cells[i])));
            }
        }
    }
    out.notes.push(format!(
        "1 warm-up and {} timed repetitions of {} cells, fingerprint {:016x}",
        reps.len() - 1,
        plan.cells.len(),
        out.fingerprint
    ));

    // Outside assembly ≡ BarrierExperiment::run.
    for &i in &plan.equivalence {
        let result = match (&plan.cells[i], &first.runs[i]) {
            (Cell::Barrier(e), Ok(ours)) => equivalent(e, ours),
            (_, Err(e)) => Err(e.clone()),
            (Cell::MultiTenant(_), _) => Ok(()),
        };
        out.check(&format!("equivalence {}", label(&plan.cells[i])), result);
    }

    // Accuracy against the paper: from this plan, or a short reference rep.
    let paper_err = match paper_ref {
        None => paper_error(plan, first, &mut out),
        Some(reference) => {
            let rep = run_rep(reference, serial, &[], origin);
            for run in &rep.runs {
                out.check(
                    "paper reference cell",
                    run.as_ref().map(|_| ()).map_err(Clone::clone),
                );
            }
            paper_error(reference, &rep, &mut out)
        }
    };

    // Advisor: measured pick over measured best, worst candidate set.
    let mean = |i: usize| first.runs[i].as_ref().map_or(f64::NAN, |r| r.mean_us);
    let mut pick_over_best: f64 = 1.0;
    for set in plan.ranked.iter().filter(|s| s.len() > 1) {
        let best = set
            .iter()
            .copied()
            .min_by(|&a, &b| mean(a).total_cmp(&mean(b)))
            .expect("candidate sets are not empty");
        let ratio = mean(set[0]) / mean(best);
        out.notes.push(format!(
            "advisor pick {} {:.2} us, measured best {} {:.2} us",
            label(&plan.cells[set[0]]),
            mean(set[0]),
            label(&plan.cells[best]),
            mean(best)
        ));
        if ratio.is_finite() {
            pick_over_best = pick_over_best.max(ratio);
        }
    }

    let timed = &reps[1..];
    let cells = 0..plan.cells.len();
    let run_s: f64 = cells
        .clone()
        .map(|i| fastest(timed, i, |c| c.stamps.run_s(), true))
        .sum();
    // A cell is setup, run, then result extraction; each piece at its
    // fastest.
    let cell_s: f64 = run_s
        + cells
            .map(|i| {
                fastest(timed, i, |c| c.stamps.setup_s(), false)
                    + fastest(timed, i, |c| c.stamps.end - c.stamps.run, false)
            })
            .sum::<f64>();
    let per_rep =
        |f: &dyn Fn(&Rep) -> f64| -> f64 { median(&timed.iter().map(f).collect::<Vec<_>>()) };
    let busy = per_rep(&|r| r.sum(|c| c.stamps.wall_s()) / (r.wall_s * plan.workers as f64));
    let rounds = first.rounds();
    if !traced {
        out.push("barriers_per_s", rounds as f64 / run_s, "1/s");
        out.push(
            "cells_per_s",
            plan.cells.len() as f64 * plan.workers as f64 * busy / cell_s,
            "1/s",
        );
        out.push("setup_s", per_rep(&|r| r.sum(|c| c.stamps.setup_s())), "s");
        out.push("peak_rss_mb", peak_rss_mb(), "MiB");
        out.push("paper_err_pct", paper_err * 100.0, "%");
        out.push("advisor_pick_over_best", pick_over_best, "ratio");
        return out;
    }

    // Per-layer metrics.
    let m = first.metrics();
    out.push(
        "des.ns_per_event",
        run_s * 1e9 / first.events() as f64,
        "ns",
    );
    out.push(
        "des.events_per_barrier",
        first.events() as f64 / rounds as f64,
        "count",
    );

    // Serial vs 2-worker parallel engine on one cell; must be identical.
    let cell = &plan.cells[plan.pdes];
    let s = run_cell(cell, serial, origin);
    let p = run_cell(
        cell,
        RunMode {
            threads: 2,
            ..serial
        },
        origin,
    );
    let speedup = match (&s, &p) {
        (Ok(s), Ok(p)) => {
            let same = s.fingerprint() == p.fingerprint();
            out.check(
                &format!("serial == parallel(2) on {}", label(cell)),
                if same {
                    Ok(())
                } else {
                    Err("fingerprints differ".into())
                },
            );
            s.stamps.run_s() / p.stamps.run_s()
        }
        (Err(e), _) | (_, Err(e)) => {
            out.check("pdes cell", Err(e.clone()));
            f64::NAN
        }
    };
    out.push("des.pdes_speedup_2w", speedup, "ratio");

    out.push(
        "myrinet.topology_build_s",
        per_rep(&|r| r.sum(|c| c.stamps.topology_s())),
        "s",
    );
    out.push(
        "myrinet.packets_per_barrier",
        per_barrier(&m, Counter::PacketsSent, rounds),
        "count",
    );
    out.push(
        "myrinet.drops",
        m.get(Counter::PacketsDropped) as f64,
        "count",
    );
    out.push(
        "lanai.fw_cycles_per_barrier",
        per_barrier(&m, Counter::FirmwareCycles, rounds),
        "cycles",
    );
    out.push("lanai.sdma_bytes", m.get(Counter::SdmaBytes) as f64, "B");
    out.push("lanai.rdma_bytes", m.get(Counter::RdmaBytes) as f64, "B");
    out.push(
        "gm.cluster_build_s",
        per_rep(&|r| r.sum(|c| c.stamps.build_s())),
        "s",
    );
    // A separate serial pass, so the timed runs keep the plain allocator
    // and no other thread allocates while a build is counted. A cell that
    // fails here has already failed in the repetitions.
    let heap = plan
        .cells
        .iter()
        .filter_map(|c| match c {
            Cell::Barrier(e) => cluster_heap_bytes(e).ok(),
            Cell::MultiTenant(_) => None,
        })
        .max()
        .unwrap_or(0);
    out.push(
        "gm.cluster_build_heap_mb",
        heap as f64 / (1u64 << 20) as f64,
        "MiB",
    );
    out.push(
        "gm.retx_per_barrier",
        per_barrier(&m, Counter::PacketsRetransmitted, rounds),
        "count",
    );
    out.push(
        "gm.rto_backoffs",
        m.get(Counter::RtoBackoffs) as f64,
        "count",
    );
    out.push(
        "gm.timer_cancels",
        m.get(Counter::TimerCancels) as f64,
        "count",
    );
    out.push(
        "gm.host_events_per_barrier",
        per_barrier(&m, Counter::HostEvents, rounds),
        "count",
    );
    out.push(
        "core.compile_s",
        per_rep(&|r| r.sum(|c| c.stamps.compile_s())),
        "s",
    );
    out.push("core.advisor_s", plan.advisor_s, "s");
    out.push(
        "core.rejects_sent",
        m.get(Counter::RejectsSent) as f64,
        "count",
    );
    out.push(
        "core.resends",
        m.get(Counter::BarrierResends) as f64,
        "count",
    );
    let mut turnaround = first.ok().next().map(|c| c.turnaround.clone());
    if let Some(t) = turnaround.as_mut() {
        for c in first.ok().skip(1) {
            t.merge(&c.turnaround);
        }
    }
    let q = |p| {
        turnaround
            .as_ref()
            .and_then(|t| t.quantile(p))
            .unwrap_or(0.0)
    };
    out.push("core.nic_turnaround_us.p50", q(0.5), "us");
    out.push("core.nic_turnaround_us.p99", q(0.99), "us");

    let walls: Vec<f64> = timed
        .iter()
        .flat_map(|r| r.ok().map(|c| c.stamps.wall_s() * 1e3))
        .collect();
    out.push("testbed.cell_wall_ms.p50", quantile(&walls, 0.5), "ms");
    out.push("testbed.cell_wall_ms.p90", quantile(&walls, 0.9), "ms");
    out.push("testbed.worker_busy_frac", busy, "ratio");

    // One more repetition with the program's tracer on, same slices.
    let traced_rep = run_rep(
        plan,
        RunMode {
            trace: true,
            ..serial
        },
        &slices,
        origin,
    );
    out.check(
        "traced repetition reproduces the fingerprint",
        if traced_rep.fingerprint() == out.fingerprint {
            Ok(())
        } else {
            Err(format!("{:016x}", traced_rep.fingerprint()))
        },
    );
    let mut units = [0u64; 7];
    for c in traced_rep.ok() {
        for (u, n) in units.iter_mut().zip(c.units) {
            *u += n;
        }
    }
    for (u, n) in UNITS.iter().zip(units) {
        out.push(&format!("trace.records.{}", u.name()), n as f64, "count");
    }
    out.push(
        "trace.overhead_frac",
        traced_rep.sum(|c| c.stamps.run_s()) / per_rep(&|r| r.sum(|c| c.stamps.run_s())) - 1.0,
        "ratio",
    );

    for (r, rep) in reps.iter().enumerate() {
        for (i, run) in rep.runs.iter().enumerate() {
            if let Ok(c) = run {
                out.spans.push((r, label(&plan.cells[i]), c.stamps));
            }
        }
    }
    out
}

/// Largest |relative error| of the plan's first five cells, the paper's,
/// against [`PAPER_US`]; each cell beyond [`PE_MODEL_TOLERANCE`] counts as
/// a failed check.
fn paper_error(plan: &Plan, rep: &Rep, out: &mut Outcome) -> f64 {
    let mut worst: f64 = 0.0;
    for (i, &paper) in PAPER_US.iter().enumerate() {
        let result = match &rep.runs[i] {
            Ok(c) => {
                let err = ((c.mean_us - paper) / paper).abs();
                worst = worst.max(err);
                out.notes.push(format!(
                    "paper {}: {:.2} us vs {paper} us ({:+.2}%)",
                    label(&plan.cells[i]),
                    c.mean_us,
                    (c.mean_us - paper) / paper * 100.0
                ));
                if err <= PE_MODEL_TOLERANCE {
                    Ok(())
                } else {
                    Err(format!("{:.1}% off", err * 100.0))
                }
            }
            Err(e) => Err(e.clone()),
        };
        out.check(&format!("paper accuracy {}", label(&plan.cells[i])), result);
    }
    worst
}
