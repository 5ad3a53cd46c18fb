//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p gmsim-bench --bin repro -- all
//! cargo run --release -p gmsim-bench --bin repro -- fig5a fig5b headline
//! cargo run --release -p gmsim-bench --bin repro -- breakdown
//! cargo run --release -p gmsim-bench --bin repro -- --trace trace.json
//! cargo run --release -p gmsim-bench --bin repro -- --smoke scale
//! ```
//!
//! Experiment ids (see DESIGN.md §5) are the names in [`STUDIES`], which
//! `all` runs in order, plus the `trace` diagnostic. Gated studies exit
//! nonzero when a gate fails; `--smoke` shrinks their grids for CI.
//!
//! `--trace <path>` runs a 16-node NIC-based PE barrier with structured
//! tracing on and writes a chrome://tracing (Perfetto-loadable) JSON file.

use gmsim_bench::{Bench, Gate, Json};
use gmsim_gm::config::CollectiveWireMode;
use gmsim_gm::GmConfig;
use gmsim_lanai::NicModel;
use gmsim_testbed::table::{factor, us};
use gmsim_testbed::{
    best_gb_dim, run_all, Algorithm, BarrierExperiment, Descriptor, FuzzyExperiment,
    MultiTenantExperiment, Placement, Table,
};
use nic_barrier::{BarrierCosts, CostModel};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = if let Some(i) = args.iter().position(|a| a == "--smoke") {
        args.remove(i);
        true
    } else {
        false
    };
    let mut trace_path = None;
    if let Some(i) = args.iter().position(|a| a == "--trace") {
        if i + 1 >= args.len() {
            eprintln!("--trace needs an output path");
            std::process::exit(2);
        }
        trace_path = Some(args.remove(i + 1));
        args.remove(i);
    }
    if let Some(path) = &trace_path {
        export_chrome_trace(path);
    }
    let ids: Vec<&str> =
        if args.iter().any(|a| a == "all") || (args.is_empty() && trace_path.is_none()) {
            STUDIES.iter().map(|&(id, _)| id).collect()
        } else {
            args.iter().map(String::as_str).collect()
        };
    let mut ok = true;
    for id in ids {
        match STUDIES
            .iter()
            .chain(DIAGNOSTICS)
            .find(|&&(name, _)| name == id)
        {
            Some((_, study)) => {
                if !study(smoke) {
                    eprintln!("{id}: at least one gate failed");
                    ok = false;
                }
            }
            None => eprintln!("unknown experiment id: {id}"),
        }
    }
    if !ok {
        std::process::exit(1);
    }
}

/// A study prints its tables and writes its BENCH file, if it has one.
/// The argument is `--smoke`; the result is `false` when a gate failed.
type Study = fn(bool) -> bool;

/// Every study, in the order `all` runs them.
const STUDIES: &[(&str, Study)] = &[
    ("fig5a", |_| fig5_latency(NicModel::LANAI_4_3, "fig5a")),
    ("fig5b", |_| fig5_improvement(NicModel::LANAI_4_3, "fig5b")),
    ("fig5c", |_| fig5_latency(NicModel::LANAI_7_2, "fig5c")),
    ("fig5d", |_| fig5_improvement(NicModel::LANAI_7_2, "fig5d")),
    ("fig2", fig2_timing_model),
    ("gbdim", gb_dimension_sweep),
    ("headline", headline),
    ("scale", scaling_study),
    ("layer", layer_study),
    ("fuzzy", fuzzy_study),
    ("ablate", ablations),
    ("mpi", mpi_study),
    ("util", util_study),
    ("dissem", dissemination_study),
    ("scan", scan_study),
    ("breakdown", breakdown),
    ("faults", faults_study),
    ("multitenant", multitenant_study),
    ("payload", payload_study),
    ("advisor", advisor_study),
    ("fabric", fabric_study),
];

/// Ids that run only when named: diagnostics, not parts of the evaluation.
const DIAGNOSTICS: &[(&str, Study)] = &[("trace", trace_one_barrier)];

fn measure(e: BarrierExperiment) -> f64 {
    e.run().unwrap().mean_us
}

/// The node counts the paper measured: sixteen LANai 4.3 cards, but only
/// eight LANai 7.2 cards.
fn testbed_sizes(nic: NicModel) -> &'static [usize] {
    if nic == NicModel::LANAI_7_2 {
        &[2, 4, 8]
    } else {
        &[2, 4, 8, 16]
    }
}

/// The four curves of Figure 5(a)/(c): barrier latency vs nodes.
fn fig5_latency(nic: NicModel, id: &str) -> bool {
    println!("\n=== {id}: barrier latency vs nodes, {} ===", nic.name);
    let mut t = Table::new(vec![
        "nodes",
        "NIC-PE (us)",
        "NIC-GB best (us)",
        "host-PE (us)",
        "host-GB best (us)",
    ]);
    for &n in testbed_sizes(nic) {
        let nic_pe = measure(BarrierExperiment::new(n, Algorithm::Nic(Descriptor::Pe)).nic(nic));
        let host_pe = measure(BarrierExperiment::new(n, Algorithm::Host(Descriptor::Pe)).nic(nic));
        let (nd, ngb) =
            best_gb_dim(BarrierExperiment::new(n, Algorithm::Nic(Descriptor::gb(1))).nic(nic));
        let (hd, hgb) =
            best_gb_dim(BarrierExperiment::new(n, Algorithm::Host(Descriptor::gb(1))).nic(nic));
        t.row(vec![
            n.to_string(),
            us(nic_pe),
            format!("{} (d={nd})", us(ngb.mean_us)),
            us(host_pe),
            format!("{} (d={hd})", us(hgb.mean_us)),
        ]);
    }
    print!("{}", t.render());
    true
}

/// Figure 5(b)/(d): factor of improvement vs nodes.
fn fig5_improvement(nic: NicModel, id: &str) -> bool {
    println!(
        "\n=== {id}: factor of improvement (host / NIC), {} ===",
        nic.name
    );
    let mut t = Table::new(vec!["nodes", "PE factor", "GB factor"]);
    for &n in testbed_sizes(nic) {
        let nic_pe = measure(BarrierExperiment::new(n, Algorithm::Nic(Descriptor::Pe)).nic(nic));
        let host_pe = measure(BarrierExperiment::new(n, Algorithm::Host(Descriptor::Pe)).nic(nic));
        let (_, ngb) =
            best_gb_dim(BarrierExperiment::new(n, Algorithm::Nic(Descriptor::gb(1))).nic(nic));
        let (_, hgb) =
            best_gb_dim(BarrierExperiment::new(n, Algorithm::Host(Descriptor::gb(1))).nic(nic));
        t.row(vec![
            n.to_string(),
            factor(host_pe / nic_pe),
            factor(hgb.mean_us / ngb.mean_us),
        ]);
    }
    print!("{}", t.render());
    true
}

/// Figure 2 / Equations 1–3: analytic component model vs simulation.
fn fig2_timing_model(_smoke: bool) -> bool {
    println!("\n=== fig2: timing model components and Eq.1-3 vs simulation ===");
    // The paper's Figure 2 timing diagrams (8-node example), from the model.
    let m = CostModel::from_config(&GmConfig::paper_host(NicModel::LANAI_4_3));
    print!("{}", gmsim_testbed::Diagram::host_barrier(&m, 8).render(96));
    print!("{}", gmsim_testbed::Diagram::nic_barrier(&m, 8).render(96));
    for nic in [NicModel::LANAI_4_3, NicModel::LANAI_7_2] {
        let m = CostModel::from_config(&GmConfig::paper_host(nic));
        println!(
            "{}: Send={} SDMA={} Network={} Recv={} RDMA={} HRecv={} (us)",
            nic.name,
            us(m.send_us),
            us(m.sdma_us),
            us(m.network_us),
            us(m.recv_us),
            us(m.rdma_us),
            us(m.hrecv_us)
        );
    }
    let mut t = Table::new(vec![
        "nic",
        "nodes",
        "Eq1 host (us)",
        "sim host (us)",
        "Eq2 nic (us)",
        "sim nic (us)",
        "Eq3 factor",
        "sim factor",
    ]);
    for nic in [NicModel::LANAI_4_3, NicModel::LANAI_7_2] {
        let m = CostModel::from_config(&GmConfig::paper_host(nic));
        for &n in testbed_sizes(nic) {
            let sim_host =
                measure(BarrierExperiment::new(n, Algorithm::Host(Descriptor::Pe)).nic(nic));
            let sim_nic =
                measure(BarrierExperiment::new(n, Algorithm::Nic(Descriptor::Pe)).nic(nic));
            t.row(vec![
                nic.name.to_string(),
                n.to_string(),
                us(m.host_barrier_us(n)),
                us(sim_host),
                us(m.nic_barrier_us(n)),
                us(sim_nic),
                factor(m.improvement(n)),
                factor(sim_host / sim_nic),
            ]);
        }
    }
    print!("{}", t.render());
    true
}

/// §6 ¶2: the GB tree-dimension sweep behind "the latencies reported in the
/// graphs are the minimum latencies over all dimensions".
fn gb_dimension_sweep(_smoke: bool) -> bool {
    println!("\n=== gbdim: GB latency vs tree dimension, LANai 4.3 ===");
    for n in [4usize, 8, 16] {
        let mut t = Table::new(vec!["dim", "NIC-GB (us)", "host-GB (us)"]);
        let nic_exps: Vec<_> = (1..n)
            .map(|d| BarrierExperiment::new(n, Algorithm::Nic(Descriptor::gb(d))))
            .collect();
        let host_exps: Vec<_> = (1..n)
            .map(|d| BarrierExperiment::new(n, Algorithm::Host(Descriptor::gb(d))))
            .collect();
        let nic_res = run_all(&nic_exps);
        let host_res = run_all(&host_exps);
        for (i, d) in (1..n).enumerate() {
            t.row(vec![
                d.to_string(),
                us(nic_res[i].mean_us),
                us(host_res[i].mean_us),
            ]);
        }
        println!("-- {n} nodes --");
        print!("{}", t.render());
    }
    true
}

/// The in-text headline numbers (§1/§6) against our measurements.
fn headline(_smoke: bool) -> bool {
    println!("\n=== headline: paper's published numbers vs this reproduction ===");
    let l43 = NicModel::LANAI_4_3;
    let l72 = NicModel::LANAI_7_2;
    let nic_pe_16 = measure(BarrierExperiment::new(16, Algorithm::Nic(Descriptor::Pe)).nic(l43));
    let host_pe_16 = measure(BarrierExperiment::new(16, Algorithm::Host(Descriptor::Pe)).nic(l43));
    let nic_pe_8_43 = measure(BarrierExperiment::new(8, Algorithm::Nic(Descriptor::Pe)).nic(l43));
    let host_pe_8_43 = measure(BarrierExperiment::new(8, Algorithm::Host(Descriptor::Pe)).nic(l43));
    let (_, nic_gb_16) =
        best_gb_dim(BarrierExperiment::new(16, Algorithm::Nic(Descriptor::gb(1))).nic(l43));
    let (_, host_gb_16) =
        best_gb_dim(BarrierExperiment::new(16, Algorithm::Host(Descriptor::gb(1))).nic(l43));
    let nic_pe_8_72 = measure(BarrierExperiment::new(8, Algorithm::Nic(Descriptor::Pe)).nic(l72));
    let host_pe_8_72 = measure(BarrierExperiment::new(8, Algorithm::Host(Descriptor::Pe)).nic(l72));
    let mut t = Table::new(vec!["metric", "paper", "measured", "error"]);
    let mut row = |name: &str, paper: f64, got: f64, is_factor: bool| {
        let err = (got - paper) / paper * 100.0;
        t.row(vec![
            name.to_string(),
            if is_factor { factor(paper) } else { us(paper) },
            if is_factor { factor(got) } else { us(got) },
            format!("{err:+.1}%"),
        ]);
    };
    row("NIC-PE 16n LANai4.3 (us)", 102.14, nic_pe_16, false);
    row("NIC-GB 16n LANai4.3 (us)", 152.27, nic_gb_16.mean_us, false);
    row(
        "PE improvement 16n L4.3",
        1.78,
        host_pe_16 / nic_pe_16,
        true,
    );
    row(
        "GB improvement 16n L4.3",
        1.46,
        host_gb_16.mean_us / nic_gb_16.mean_us,
        true,
    );
    row(
        "PE improvement 8n L4.3",
        1.66,
        host_pe_8_43 / nic_pe_8_43,
        true,
    );
    row("NIC-PE 8n LANai7.2 (us)", 49.25, nic_pe_8_72, false);
    row("host-PE 8n LANai7.2 (us)", 90.24, host_pe_8_72, false);
    row(
        "PE improvement 8n L7.2",
        1.83,
        host_pe_8_72 / nic_pe_8_72,
        true,
    );
    print!("{}", t.render());
    true
}

/// §2.2's scaling prediction taken far beyond the paper's testbed: barrier
/// latency vs cluster size for PE, GB (d = 8), and dissemination, NIC- and
/// host-based, on both LANai generations, from 32 up to 4096 nodes (the
/// two-level Clos through 1024, the three-level Clos beyond). Every point
/// is cross-checked against the analytic scaling forms in
/// `nic_barrier::analytic` within the stated tolerances
/// ([`nic_barrier::PE_MODEL_TOLERANCE`] / [`nic_barrier::GB_MODEL_TOLERANCE`]);
/// any violation is reported inline with the offending configuration and
/// the study exits nonzero. The grid runs through
/// the parallel [`gmsim_testbed::SweepEngine`] with a deterministic
/// per-cell seed; the 2048/4096-node rows ride the conservative parallel
/// DES engine (DESIGN.md §15). A closing table times one N = 1024 cell
/// serial vs 2/4/8 PDES workers and gates their bit-identity. Results —
/// including host core count and the worker counts used — land in
/// `BENCH_scale.json` for CI. `--smoke` caps the sweep at 256 nodes plus
/// one tiny 2048-node PDES cell (the CI scale-smoke and pdes-smoke jobs).
///
/// Returns `false` if any point violates its tolerance or any parallel
/// run diverges from serial.
fn scaling_study(smoke: bool) -> bool {
    use gmsim_testbed::{cell_seed, SweepEngine};
    use nic_barrier::{GB_MODEL_TOLERANCE, PE_MODEL_TOLERANCE};
    use std::time::Instant;

    /// Base seed for the per-cell seed stream; arbitrary but fixed so the
    /// study is reproducible run-to-run and across worker counts.
    const SCALE_SEED: u64 = 0x5ca1_ab1e_0000_0001;

    let host_cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    // Workers for the in-simulation parallel engine. Capped at 8 (the
    // widest configuration the speedup table measures); on a single-core
    // host this is 1 and `build_parallel` falls back to the serial
    // scheduler — the results are bit-identical either way.
    let pdes_threads = host_cores.min(8);

    println!(
        "\n=== scale{}: barrier latency vs nodes, 32..{}, vs analytic model ===",
        if smoke { " (smoke)" } else { "" },
        if smoke { "256 (+2048 pdes)" } else { "4096" }
    );
    let grid: &[usize] = if smoke {
        &[32, 64, 128, 256]
    } else {
        &[32, 64, 128, 256, 512, 1024]
    };
    // Beyond the sweep grid: cluster sizes that only the parallel engine
    // makes practical. Fewer rounds (the steady state is reached within
    // two), and in smoke mode a single tiny PE cell keeps the CI path hot.
    let big: &[usize] = if smoke { &[2048] } else { &[2048, 4096] };
    // (algorithm, json key, is_gb) — GB points get the looser tolerance.
    let algs: [(Algorithm, &str, bool); 6] = [
        (Algorithm::Nic(Descriptor::Pe), "nic_pe", false),
        (Algorithm::Host(Descriptor::Pe), "host_pe", false),
        (Algorithm::Nic(Descriptor::gb(8)), "nic_gb8", true),
        (Algorithm::Host(Descriptor::gb(8)), "host_gb8", true),
        (
            Algorithm::Nic(Descriptor::dissemination()),
            "nic_dissem",
            false,
        ),
        (
            Algorithm::Host(Descriptor::dissemination()),
            "host_dissem",
            false,
        ),
    ];
    let mut cells = Vec::new();
    for nic in [NicModel::LANAI_4_3, NicModel::LANAI_7_2] {
        for &n in grid {
            for &(alg, key, is_gb) in &algs {
                let mut e = BarrierExperiment::new(n, alg).nic(nic).rounds(30, 5);
                e.seed = cell_seed(SCALE_SEED, cells.len() as u64);
                cells.push((nic, n, key, is_gb, e));
            }
        }
    }
    for nic in [NicModel::LANAI_4_3, NicModel::LANAI_7_2] {
        for &n in big {
            for &(alg, key, is_gb) in &algs {
                if smoke && (nic != NicModel::LANAI_4_3 || key != "nic_pe") {
                    continue;
                }
                let (rounds, warmup) = if smoke { (6, 1) } else { (12, 2) };
                let mut e = BarrierExperiment::new(n, alg)
                    .nic(nic)
                    .rounds(rounds, warmup)
                    .parallel(pdes_threads);
                e.seed = cell_seed(SCALE_SEED, cells.len() as u64);
                cells.push((nic, n, key, is_gb, e));
            }
        }
    }
    let sweep = SweepEngine::new();
    let sweep_workers = sweep.effective_workers(cells.len());
    let measured = sweep.run(&cells, |_, (_, _, key, _, e)| {
        e.run()
            .unwrap_or_else(|err| panic!("scale cell {key} n={}: {err}", e.procs))
            .mean_us
    });

    let mut ok = true;
    let mut points = Vec::new();
    let mut t = Table::new(vec![
        "nic",
        "nodes",
        "algorithm",
        "sim (us)",
        "model (us)",
        "err",
        "tol",
        "ok",
    ]);
    for ((nic, n, key, is_gb, _), meas) in cells.iter().zip(&measured) {
        let m = CostModel::from_config(&GmConfig::paper_host(*nic));
        let model = match *key {
            "nic_pe" => m.nic_pe_us(*n),
            "host_pe" => m.host_pe_us(*n),
            "nic_gb8" => m.nic_gb_us(*n, 8),
            "host_gb8" => m.host_gb_us(*n, 8),
            "nic_dissem" => m.nic_dissemination_us(*n),
            "host_dissem" => m.host_dissemination_us(*n),
            other => unreachable!("unknown scale key {other}"),
        };
        let tol = if *is_gb {
            GB_MODEL_TOLERANCE
        } else {
            PE_MODEL_TOLERANCE
        };
        let label = format!("{} n={n} {key} model vs sim", nic.name);
        let g = Gate::report("scale", &label, model, *meas, tol);
        ok &= g.pass;
        t.row(vec![
            nic.name.to_string(),
            n.to_string(),
            key.to_string(),
            us(*meas),
            us(model),
            format!("{:+.1}%", g.rel * 100.0),
            format!("{:.0}%", tol * 100.0),
            g.verdict().to_string(),
        ]);
        points.push(vec![
            ("nic", nic.name.into()),
            ("clock_mhz", Json::plain(nic.clock.mhz())),
            ("nodes", (*n).into()),
            ("algorithm", (*key).into()),
            ("measured_us", Json::fixed(*meas, 3)),
            ("model_us", Json::fixed(model, 3)),
            ("rel_err", Json::fixed(g.rel, 4)),
            ("tolerance", Json::plain(tol)),
            ("pass", g.pass.into()),
        ]);
    }
    print!("{}", t.render());
    println!("(NIC-PE's lead over host-PE keeps widening with log2 N, as §2.2 predicts)");

    // Wall-clock speedup of the conservative parallel engine on one run:
    // the same experiment, serial vs 2/4/8 workers. The virtual-time mean
    // must be bit-identical at every worker count (the DESIGN.md §15
    // contract); wall-clock speedup depends on the host — with
    // `host_cores` = 1 every worker count shares the core and the table
    // documents slowdown, not speedup.
    let speed_n = if smoke { 64 } else { 1024 };
    let (srounds, swarmup) = if smoke { (10, 2) } else { (20, 4) };
    println!("\n--- pdes speedup: NIC-PE {speed_n} nodes, serial vs parallel workers ---");
    let mut st = Table::new(vec![
        "workers",
        "wall (s)",
        "speedup",
        "mean (us)",
        "bit-identical",
    ]);
    let mut speed_rows = Vec::new();
    let base =
        BarrierExperiment::new(speed_n, Algorithm::Nic(Descriptor::Pe)).rounds(srounds, swarmup);
    let mut serial_wall = None;
    let mut serial_mean: Option<f64> = None;
    for &threads in &[1usize, 2, 4, 8] {
        let start = Instant::now();
        let m = base
            .parallel(threads)
            .run()
            .unwrap_or_else(|err| panic!("speedup cell t={threads}: {err}"));
        let wall = start.elapsed().as_secs_f64();
        let base_wall = *serial_wall.get_or_insert(wall);
        let reference = *serial_mean.get_or_insert(m.mean_us);
        let identical = m.mean_us.to_bits() == reference.to_bits();
        if !identical {
            eprintln!(
                "scale: FAIL pdes t={threads} n={speed_n}: mean {:.17e} us \
                 diverged from serial {:.17e} us",
                m.mean_us, reference
            );
        }
        ok &= identical;
        let speedup = base_wall / wall;
        st.row(vec![
            threads.to_string(),
            format!("{wall:.2}"),
            factor(speedup),
            us(m.mean_us),
            if identical { "yes" } else { "NO" }.to_string(),
        ]);
        speed_rows.push(vec![
            ("nodes", speed_n.into()),
            ("threads", threads.into()),
            ("wall_s", Json::fixed(wall, 3)),
            ("speedup", Json::fixed(speedup, 3)),
            ("mean_us", Json::fixed(m.mean_us, 4)),
            ("bit_identical", identical.into()),
        ]);
    }
    print!("{}", st.render());

    Bench::new("gmsim-scale/v2", "latency_vs_nodes_vs_analytic_model")
        .field("smoke", smoke)
        .field("host_cores", host_cores)
        .field("sweep_workers", sweep_workers)
        .field("pdes_threads", pdes_threads)
        .rows("points", points)
        .rows("speedup", speed_rows)
        .write("BENCH_scale.json");
    ok
}

/// §2.2's layering prediction: "as the host send overhead increases, say
/// from the addition of another programming layer such as MPI, the factor
/// of improvement will increase".
fn layer_study(_smoke: bool) -> bool {
    println!("\n=== layer: factor of improvement vs host-layer overhead, 16n LANai 4.3 ===");
    let mut t = Table::new(vec![
        "layer factor",
        "host-PE (us)",
        "NIC-PE (us)",
        "improvement",
    ]);
    for mult in [1.0f64, 1.5, 2.0, 3.0, 4.0] {
        let host = measure(BarrierExperiment::new(16, Algorithm::Host(Descriptor::Pe)).layer(mult));
        let nic = measure(BarrierExperiment::new(16, Algorithm::Nic(Descriptor::Pe)).layer(mult));
        t.row(vec![
            format!("{mult:.1}x"),
            us(host),
            us(nic),
            factor(host / nic),
        ]);
    }
    print!("{}", t.render());
    true
}

/// §2.1's fuzzy barrier: computation hidden inside the NIC barrier.
fn fuzzy_study(_smoke: bool) -> bool {
    println!("\n=== fuzzy: compute overlapped with the NIC barrier, 8n LANai 4.3 ===");
    let mut t = Table::new(vec![
        "compute (us)",
        "blocking period (us)",
        "fuzzy period (us)",
        "hidden (us)",
    ]);
    for compute in [0u64, 20, 40, 60, 80, 120] {
        let blocking = FuzzyExperiment::new(8, compute, false)
            .run()
            .unwrap()
            .mean_us;
        let fuzzy = FuzzyExperiment::new(8, compute, true)
            .run()
            .unwrap()
            .mean_us;
        t.row(vec![
            compute.to_string(),
            us(blocking),
            us(fuzzy),
            us(blocking - fuzzy),
        ]);
    }
    print!("{}", t.render());
    true
}

/// §8 / CAC'01 follow-up: MPI_Barrier bound to the NIC-based vs host-based
/// barrier under an MPI-like layer, raw barrier latency and a BSP app.
fn mpi_study(_smoke: bool) -> bool {
    use gmsim_des::SimTime;
    use gmsim_gm::cluster::ClusterBuilder;
    use gmsim_mpi::{script, MpiConfig, MpiProcess, NOTE_MPI_DONE};
    use nic_barrier::{BarrierExtension, BarrierGroup};

    let run = |n: usize, config: MpiConfig, barriers: u64| -> f64 {
        let group = BarrierGroup::one_per_node(n, 1);
        let mut b = ClusterBuilder::new(n)
            .config(GmConfig::paper_host(NicModel::LANAI_4_3))
            .extension(BarrierExtension::factory());
        for rank in 0..n {
            b = b.program(
                group.member(rank),
                Box::new(MpiProcess::new(
                    group.clone(),
                    rank,
                    config,
                    script().repeat(barriers, |s| s.barrier()).build(),
                )),
                SimTime::ZERO,
            );
        }
        let mut sim = b.build();
        sim.run();
        sim.world()
            .notes
            .iter()
            .filter(|nt| nt.tag == NOTE_MPI_DONE)
            .map(|nt| nt.at)
            .max()
            .expect("mpi run did not finish")
            .as_us_f64()
            / barriers as f64
    };
    println!("\n=== mpi: MPI_Barrier over GM, NIC-bound vs host-bound (per-barrier us) ===");
    let mut t = Table::new(vec![
        "nodes",
        "MPI host-based (us)",
        "MPI NIC-based (us)",
        "factor",
        "raw-GM factor",
    ]);
    for n in [2usize, 4, 8, 16] {
        let host = run(n, MpiConfig::host_based(), 60);
        let nic = run(n, MpiConfig::nic_based(), 60);
        let raw_host = measure(BarrierExperiment::new(n, Algorithm::Host(Descriptor::Pe)));
        let raw_nic = measure(BarrierExperiment::new(n, Algorithm::Nic(Descriptor::Pe)));
        t.row(vec![
            n.to_string(),
            us(host),
            us(nic),
            factor(host / nic),
            factor(raw_host / raw_nic),
        ]);
    }
    print!("{}", t.render());
    println!("(the MPI factor exceeding the raw-GM factor is the paper's §2.2/§8 prediction)");
    true
}

/// §1's host-utilization claim: "Because the barrier algorithm is
/// performed at the NIC, the processor is free to perform computation
/// while polling for the barrier to complete."
fn util_study(_smoke: bool) -> bool {
    use gmsim_des::SimTime;
    use gmsim_gm::cluster::ClusterBuilder;
    use nic_barrier::programs::NicBarrierLoop;
    use nic_barrier::{BarrierExtension, BarrierGroup, HostBarrierLoop};

    // Run a barrier stream and report how much host time each barrier
    // costs (the rest is available to the application).
    let run = |n: usize, nic_based: bool, rounds: u64| -> (f64, f64) {
        let group = BarrierGroup::one_per_node(n, 1);
        let mut b = ClusterBuilder::new(n)
            .config(GmConfig::paper_host(NicModel::LANAI_4_3))
            .extension(BarrierExtension::factory());
        for rank in 0..n {
            let prog: Box<dyn gmsim_gm::HostProgram> = if nic_based {
                Box::new(NicBarrierLoop::new(
                    group.clone(),
                    rank,
                    Descriptor::Pe,
                    rounds,
                ))
            } else {
                Box::new(HostBarrierLoop::new(&group, rank, Descriptor::Pe, rounds))
            };
            b = b.program(group.member(rank), prog, SimTime::ZERO);
        }
        let mut sim = b.build();
        sim.run();
        let cl = sim.world();
        let total = cl
            .notes
            .iter()
            .map(|nt| nt.at)
            .max()
            .unwrap_or(SimTime::ZERO)
            .as_us_f64();
        // Host busy time on node 0: send initiations + event processing.
        let cfg = cl.config();
        let h = &cl.nodes[0].host.stats;
        let busy = h.sends as f64 * cfg.host_send_overhead.as_us_f64()
            + h.events as f64 * cfg.host_recv_overhead.as_us_f64()
            + h.compute.as_us_f64();
        (busy / rounds as f64, total / rounds as f64)
    };
    println!("\n=== util: host processor cost per barrier (16 nodes, LANai 4.3) ===");
    let mut t = Table::new(vec![
        "implementation",
        "host busy (us/barrier)",
        "period (us)",
        "host free",
    ]);
    for (name, nic_based) in [("NIC-based PE", true), ("host-based PE", false)] {
        let (busy, period) = run(16, nic_based, 120);
        t.row(vec![
            name.to_string(),
            us(busy),
            us(period),
            format!("{:.0}%", (1.0 - busy / period) * 100.0),
        ]);
    }
    print!("{}", t.render());
    println!("(the freed host time is what the fuzzy barrier converts into computation)");
    true
}

/// Diagnostic: the measured wire-event interleaving of one 4-node
/// NIC-based PE barrier (every packet send and reception, in virtual-time
/// order). Not a paper figure; it shows the §5.2 firmware chaining live.
fn trace_one_barrier(_smoke: bool) -> bool {
    use gmsim_des::SimTime;
    use gmsim_gm::cluster::ClusterBuilder;
    use nic_barrier::programs::NicBarrierLoop;
    use nic_barrier::{BarrierExtension, BarrierGroup};

    println!("\n=== trace: one 4-node NIC-based PE barrier, every wire event ===");
    let group = BarrierGroup::one_per_node(4, 1);
    let mut b = ClusterBuilder::new(4)
        .config(GmConfig::paper_host(NicModel::LANAI_4_3))
        .trace(4096)
        .extension(BarrierExtension::factory());
    for rank in 0..4 {
        b = b.program(
            group.member(rank),
            Box::new(NicBarrierLoop::new(group.clone(), rank, Descriptor::Pe, 1)),
            SimTime::ZERO,
        );
    }
    let mut sim = b.build();
    sim.run();
    let cl = sim.world();
    for rec in cl.tracer.snapshot() {
        println!("  {rec}");
    }
    for note in &cl.notes {
        println!(
            "  [{:>12}] host{}: barrier complete",
            note.at.as_ns(),
            note.node.0
        );
    }
    true
}

/// Extension beyond the paper: dissemination barrier vs PE, NIC- and
/// host-based. Dissemination's send/receive peers differ per round, so it
/// pays one extra half-round of skew tolerance but no fold steps at
/// non-powers of two.
fn dissemination_study(_smoke: bool) -> bool {
    println!("\n=== dissem: dissemination barrier vs PE (extension), LANai 4.3 ===");
    let mut t = Table::new(vec![
        "procs",
        "NIC-PE (us)",
        "NIC-dissem (us)",
        "host-PE (us)",
        "host-dissem (us)",
    ]);
    for n in [2usize, 3, 4, 6, 8, 12, 16] {
        let cells = vec![
            n.to_string(),
            us(measure(BarrierExperiment::new(
                n,
                Algorithm::Nic(Descriptor::Pe),
            ))),
            us(measure(BarrierExperiment::new(
                n,
                Algorithm::Nic(Descriptor::dissemination()),
            ))),
            us(measure(BarrierExperiment::new(
                n,
                Algorithm::Host(Descriptor::Pe),
            ))),
            us(measure(BarrierExperiment::new(
                n,
                Algorithm::Host(Descriptor::dissemination()),
            ))),
        ];
        t.row(cells);
    }
    print!("{}", t.render());
    println!("(at non-powers of two dissemination avoids PE's fold steps)");
    true
}

/// Extension beyond the paper: NIC-offloaded inclusive prefix scan
/// (Hillis–Steele) through the same compiled-schedule path, vs the
/// host-based interpretation of the identical IR and the plain barrier.
fn scan_study(_smoke: bool) -> bool {
    use nic_barrier::ReduceOp;

    println!("\n=== scan: NIC-offloaded MPI_Scan vs host-based (extension), LANai 4.3 ===");
    let mut t = Table::new(vec![
        "procs",
        "NIC-scan (us)",
        "host-scan (us)",
        "factor",
        "NIC-PE barrier (us)",
    ]);
    let op = ReduceOp::Sum;
    for n in [2usize, 3, 4, 6, 8, 12, 16] {
        let nic = measure(BarrierExperiment::new(
            n,
            Algorithm::Nic(Descriptor::scan(op)),
        ));
        let host = measure(BarrierExperiment::new(
            n,
            Algorithm::Host(Descriptor::scan(op)),
        ));
        let pe = measure(BarrierExperiment::new(n, Algorithm::Nic(Descriptor::Pe)));
        t.row(vec![
            n.to_string(),
            us(nic),
            us(host),
            factor(host / nic),
            us(pe),
        ]);
    }
    print!("{}", t.render());
    println!("(scan shares PE's exchange structure, so its latency tracks the barrier)");
    true
}

/// Beyond the paper: barrier completion latency vs injected drop rate on
/// the reliable stream — the cost of GM's go-back-N recovery with the
/// adaptive RTO. Emits `BENCH_faults.json` alongside the table so CI can
/// archive the curve.
fn faults_study(_smoke: bool) -> bool {
    use gmsim_des::Counter;
    use gmsim_myrinet::FaultPlan;

    println!("\n=== faults: NIC-PE barrier latency vs drop rate, 8n LANai 4.3 ===");
    let mut t = Table::new(vec![
        "drop rate",
        "mean (us)",
        "drops",
        "retx",
        "rto backoffs",
        "timer cancels",
    ]);
    let rates = [0.0f64, 0.02, 0.05, 0.10, 0.20];
    let mut points = Vec::new();
    for &rate in &rates {
        let m = BarrierExperiment::new(8, Algorithm::Nic(Descriptor::Pe))
            .rounds(120, 10)
            .faults(FaultPlan::drops(rate))
            .run()
            .expect("faults run");
        let drops = m.metrics.get(Counter::PacketsDropped);
        let retx = m.metrics.get(Counter::PacketsRetransmitted);
        let backoffs = m.metrics.get(Counter::RtoBackoffs);
        let cancels = m.metrics.get(Counter::TimerCancels);
        t.row(vec![
            format!("{:.0}%", rate * 100.0),
            us(m.mean_us),
            drops.to_string(),
            retx.to_string(),
            backoffs.to_string(),
            cancels.to_string(),
        ]);
        points.push(vec![
            ("drop_rate", Json::plain(rate)),
            ("mean_us", Json::fixed(m.mean_us, 3)),
            ("drops", drops.into()),
            ("retx", retx.into()),
            ("rto_backoffs", backoffs.into()),
            ("timer_cancels", cancels.into()),
        ]);
    }
    print!("{}", t.render());
    println!("(recovery is timeout-driven, so the mean climbs with the RTO, not the wire time)");
    Bench::new("gmsim-faults/v1", "nic_pe_8n_lanai43_drop_sweep")
        .rows("points", points)
        .write("BENCH_faults.json");
    true
}

/// Beyond the paper: multi-tenant interference. Hundreds of mixed-size
/// teams run their barriers concurrently on one cluster (with background
/// point-to-point traffic), and the per-team mean/p99 latency is charted
/// against the number of concurrent teams, at N ∈ {16, 64, 256}.
///
/// The isolated baseline anchors the chart *and* gates the refactor: one
/// whole-cluster team driven through the multi-tenant path must reproduce
/// the classic global-barrier latency to within float noise — if it
/// regresses, the team plumbing broke the single-team path, and the study
/// returns `false` (nonzero exit). Results land in
/// `BENCH_multitenant.json`; `--smoke` shrinks the grid for CI.
fn multitenant_study(smoke: bool) -> bool {
    use gmsim_des::Counter;

    /// The isolated whole-cluster team may differ from the global barrier
    /// only by float summation order in the aggregation.
    const BASELINE_TOLERANCE: f64 = 1e-6;

    println!(
        "\n=== multitenant{}: concurrent-team interference, LANai 4.3 ===",
        if smoke { " (smoke)" } else { "" }
    );
    let sizes: &[usize] = if smoke { &[16, 64] } else { &[16, 64, 256] };
    let (rounds, warmup) = if smoke { (20, 4) } else { (40, 8) };

    let mut ok = true;
    let mut baseline_rows = Vec::new();
    let mut point_rows = Vec::new();
    let mut bt = Table::new(vec![
        "nodes",
        "global barrier (us)",
        "isolated team (us)",
        "rel err",
        "ok",
    ]);
    let mut t = Table::new(vec![
        "nodes",
        "teams",
        "mean (us)",
        "p99 (us)",
        "vs isolated",
        "peak",
        "xrejects",
    ]);
    for &n in sizes {
        // Gate: one team spanning every node, driven through the
        // multi-tenant machinery, vs today's global barrier.
        let reference = BarrierExperiment::new(n, Algorithm::Nic(Descriptor::Pe))
            .rounds(rounds, warmup)
            .run()
            .expect("reference run")
            .mean_us;
        let isolated = MultiTenantExperiment::new(n, 1)
            .team_sizes(n, n)
            .rounds(rounds, warmup)
            .run()
            .expect("isolated baseline run");
        let label = format!("n={n} isolated team vs global barrier");
        let g = Gate::report(
            "multitenant",
            &label,
            isolated.mean_us,
            reference,
            BASELINE_TOLERANCE,
        );
        ok &= g.pass;
        bt.row(vec![
            n.to_string(),
            us(reference),
            us(isolated.mean_us),
            format!("{:+.2e}", g.rel),
            g.verdict().to_string(),
        ]);
        baseline_rows.push(vec![
            ("nodes", n.into()),
            ("reference_us", Json::fixed(reference, 4)),
            ("isolated_us", Json::fixed(isolated.mean_us, 4)),
            ("rel_err", Json::sci(g.rel, 3)),
            ("pass", g.pass.into()),
        ]);

        // Interference curve: mixed-size teams under background traffic.
        // At 256 nodes the full study packs hundreds of teams onto the
        // cluster, several per node.
        let team_counts: &[usize] = match (smoke, n) {
            (true, _) => &[1, 2, 4],
            (false, 256) => &[1, 4, 16, 64, 256],
            (false, _) => &[1, 2, 4, 8, 16],
        };
        let mut isolated_small: Option<f64> = None;
        for &teams in team_counts {
            let m = MultiTenantExperiment::new(n, teams)
                .team_sizes(4, 8.min(n))
                .rounds(rounds, warmup)
                .background(true)
                .run()
                .unwrap_or_else(|err| panic!("multitenant n={n} teams={teams}: {err}"));
            let base = *isolated_small.get_or_insert(m.mean_us);
            let peak = m.metrics.get(Counter::ConcurrentPeak);
            let xrejects = m.metrics.get(Counter::CrossTeamRejects);
            t.row(vec![
                n.to_string(),
                teams.to_string(),
                us(m.mean_us),
                us(m.p99_us),
                factor(m.mean_us / base),
                peak.to_string(),
                xrejects.to_string(),
            ]);
            point_rows.push(vec![
                ("nodes", n.into()),
                ("teams", teams.into()),
                ("mean_us", Json::fixed(m.mean_us, 4)),
                ("p99_us", Json::fixed(m.p99_us, 4)),
                ("concurrent_peak", peak.into()),
                ("cross_team_rejects", xrejects.into()),
            ]);
        }
    }
    print!("{}", bt.render());
    print!("{}", t.render());
    println!("(one NIC multiplexes every co-resident team; contention shows up in p99 first)");
    Bench::new("gmsim-multitenant/v1", "concurrent_team_interference")
        .field("smoke", smoke)
        .rows("baseline", baseline_rows)
        .rows("points", point_rows)
        .write("BENCH_multitenant.json");
    ok
}

/// Tentpole study of the data-carrying collective redesign: latency vs
/// message size (1 B – 1 MiB) for broadcast, reduce, allreduce and scan at
/// N ∈ {16, 64, 256, 1024}, each size measured twice — forced *eager*
/// (one worm, `Payload::eager`) and forced *pipelined* (4 KiB segments,
/// `Payload::pipelined`) — so the eager→pipelined crossover is visible in
/// the curves rather than asserted. Every simulated point is gated
/// against the payload forms in `nic_barrier::analytic` within
/// [`nic_barrier::PAYLOAD_MODEL_TOLERANCE`]; results (including the
/// per-curve crossover size) land in `BENCH_payload.json` for CI.
/// `--smoke` caps the grid at 64 nodes / 64 KiB (the CI payload-smoke
/// job). Returns `false` if any point violates the tolerance.
fn payload_study(smoke: bool) -> bool {
    use gmsim_gm::Payload;
    use gmsim_testbed::{cell_seed, SweepEngine};
    use nic_barrier::{ReduceOp, PAYLOAD_MODEL_TOLERANCE};

    const PAYLOAD_SEED: u64 = 0x5ca1_ab1e_0000_0002;
    /// Segment size of the pipelined arm (also `Payload::for_size`'s
    /// default granularity and eager threshold).
    const SEG: u64 = 4096;

    println!(
        "\n=== payload{}: collective latency vs message size, eager vs pipelined ===",
        if smoke { " (smoke)" } else { "" }
    );
    let sizes: &[usize] = if smoke {
        &[16, 64]
    } else {
        &[16, 64, 256, 1024]
    };
    let bytes: &[u64] = if smoke {
        &[1, 1024, 4096, 16384, 65536]
    } else {
        &[1, 64, 1024, 4096, 16384, 65536, 262144, 1048576]
    };
    // (descriptor, json key). All trees run at dim = 2, the MPI layer's
    // binding.
    let colls: [(Descriptor, &str); 4] = [
        (Descriptor::bcast(2), "bcast"),
        (Descriptor::reduce(ReduceOp::Sum, 2), "reduce"),
        (Descriptor::allreduce(ReduceOp::Sum, 2), "allreduce"),
        (Descriptor::scan(ReduceOp::Sum), "scan"),
    ];

    let mut cells = Vec::new();
    for &n in sizes {
        for &(desc, key) in &colls {
            for &b in bytes {
                for eager in [true, false] {
                    let payload = if eager {
                        Payload::eager(b)
                    } else {
                        Payload::pipelined(b, SEG)
                    };
                    // Segment counts grow with the message; fewer timing
                    // rounds keep the big cells tractable without moving
                    // the steady-state mean.
                    let (rounds, warmup) = if n >= 1024 || b >= 262144 {
                        (4, 1)
                    } else {
                        (8, 2)
                    };
                    let mut e =
                        BarrierExperiment::new(n, Algorithm::Nic(desc.with_payload(payload)))
                            .rounds(rounds, warmup);
                    e.seed = cell_seed(PAYLOAD_SEED, cells.len() as u64);
                    cells.push((n, key, b, eager, payload, e));
                }
            }
        }
    }
    let sweep = SweepEngine::new();
    let measured = sweep.run(&cells, |_, (n, key, b, _, _, e)| {
        e.run()
            .unwrap_or_else(|err| panic!("payload cell {key} n={n} bytes={b}: {err}"))
            .mean_us
    });

    let m = CostModel::from_config(&GmConfig::paper_host(NicModel::LANAI_4_3));
    let mut ok = true;
    let mut points = Vec::new();
    let mut t = Table::new(vec![
        "nodes",
        "collective",
        "bytes",
        "mode",
        "sim (us)",
        "model (us)",
        "err",
        "ok",
    ]);
    // (n, key, bytes) -> (eager_us, pipelined_us) for crossover detection.
    let mut pairs = std::collections::BTreeMap::new();
    for ((n, key, b, eager, payload, _), meas) in cells.iter().zip(&measured) {
        let model = match *key {
            "bcast" => m.nic_bcast_us(*n, 2, *payload),
            "reduce" => m.nic_reduce_us(*n, 2, *payload),
            "allreduce" => m.nic_allreduce_us(*n, 2, *payload),
            "scan" => m.nic_scan_us(*n, *payload),
            other => unreachable!("unknown payload key {other}"),
        };
        let mode = if *eager { "eager" } else { "pipelined" };
        let label = format!("{key} n={n} bytes={b} {mode} model vs sim");
        let g = Gate::report("payload", &label, model, *meas, PAYLOAD_MODEL_TOLERANCE);
        ok &= g.pass;
        t.row(vec![
            n.to_string(),
            key.to_string(),
            b.to_string(),
            mode.to_string(),
            us(*meas),
            us(model),
            format!("{:+.1}%", g.rel * 100.0),
            g.verdict().to_string(),
        ]);
        let entry = pairs.entry((*n, *key, *b)).or_insert((f64::NAN, f64::NAN));
        if *eager {
            entry.0 = *meas;
        } else {
            entry.1 = *meas;
        }
        points.push(vec![
            ("nodes", (*n).into()),
            ("collective", (*key).into()),
            ("bytes", (*b).into()),
            ("mode", mode.into()),
            ("segments", Json::plain(payload.segments().get())),
            ("measured_us", Json::fixed(*meas, 3)),
            ("model_us", Json::fixed(model, 3)),
            ("rel_err", Json::fixed(g.rel, 4)),
            ("tolerance", Json::plain(PAYLOAD_MODEL_TOLERANCE)),
            ("pass", g.pass.into()),
        ]);
    }
    print!("{}", t.render());

    // The crossover: the smallest size at which segmenting beats the
    // single worm. Below it the per-segment overhead dominates (eager
    // wins); above it the pipeline hides the per-byte terms behind the
    // tree depth.
    let mut ct = Table::new(vec!["nodes", "collective", "crossover (bytes)"]);
    let mut cross_rows = Vec::new();
    for &n in sizes {
        for &(_, key) in &colls {
            let cross = bytes
                .iter()
                .find(|&&b| {
                    let (e, p) = pairs[&(n, key, b)];
                    p < e
                })
                .copied();
            let label = cross.map_or("none (eager wins)".to_string(), |b| b.to_string());
            ct.row(vec![n.to_string(), key.to_string(), label]);
            cross_rows.push(vec![
                ("nodes", n.into()),
                ("collective", key.into()),
                ("crossover_bytes", cross.into()),
            ]);
        }
    }
    print!("{}", ct.render());
    println!("(eager wins small messages; segment pipelining wins once per-byte time dominates)");

    Bench::new(
        "gmsim-payload/v1",
        "collective_latency_vs_size_vs_analytic_model",
    )
    .field("smoke", smoke)
    .field("seg_bytes", SEG)
    .rows("points", points)
    .rows("crossover", cross_rows)
    .write("BENCH_payload.json");
    ok
}

/// The advisor validation study: replay the advisor's scenario space
/// (group size × payload × drop rate) in simulation, measure every
/// candidate the advisor ranks, and gate the pick's measured *regret* —
/// how much slower the recommended candidate is than the measured-best
/// one — against `ADVISOR_REGRET_TOLERANCE`. Writes `BENCH_advisor.json`
/// for CI. `--smoke` trims the grid to 64 nodes (the CI advisor-smoke
/// job). Returns `false` if any cell's regret exceeds the tolerance.
fn advisor_study(smoke: bool) -> bool {
    use gmsim_gm::Payload;
    use gmsim_myrinet::FaultPlan;
    use gmsim_testbed::{cell_seed, SweepEngine};
    use nic_barrier::{advisor, ADVISOR_REGRET_TOLERANCE};

    const ADVISOR_SEED: u64 = 0x5ca1_ab1e_0000_0003;

    println!(
        "\n=== advisor{}: recommended algorithm vs measured best ===",
        if smoke { " (smoke)" } else { "" }
    );
    let sizes: &[usize] = if smoke {
        &[8, 64]
    } else {
        &[8, 64, 256, 1024, 4096]
    };
    let faults: &[f64] = if smoke {
        &[0.0, 0.001]
    } else {
        &[0.0, 0.001, 0.01]
    };
    let payloads: &[u64] = &[0, 4096];

    let m = CostModel::from_config(&GmConfig::paper_host(NicModel::LANAI_4_3));
    // One scenario per grid point; one sweep cell per ranked candidate.
    let mut scenarios = Vec::new();
    let mut cells = Vec::new();
    for &n in sizes {
        for &bytes in payloads {
            for &fault in faults {
                let mut sc = advisor::Scenario::barrier(n).with_faults(fault);
                if bytes > 0 {
                    sc = sc.with_payload(Payload::for_size(bytes));
                }
                let rec = advisor::recommend(&m, &sc);
                let scenario_idx = scenarios.len();
                for c in &rec.ranked {
                    let alg = match c.placement {
                        advisor::Placement::Nic => Algorithm::Nic(c.descriptor),
                        advisor::Placement::Host => Algorithm::Host(c.descriptor),
                    };
                    // The biggest clusters keep fewer timed rounds to stay
                    // tractable; payload cells get enough rounds that one
                    // lucky/unlucky drop placement cannot dominate a mean
                    // (a single RTO is ~20× a fault-free payload round).
                    let (rounds, warmup) = if n >= 2048 {
                        (12, 2)
                    } else if bytes > 0 {
                        (24, 4)
                    } else {
                        (40, 5)
                    };
                    let mut e = BarrierExperiment::new(n, alg).rounds(rounds, warmup);
                    if fault > 0.0 {
                        // Deep host schedules at 4096 nodes post more
                        // sends per barrier than GM's default 16-token
                        // pool, and under drops a stuck send holds its
                        // token for a full RTO while the stream advances;
                        // open the ports with a deeper pool, as a real
                        // application running that schedule would.
                        e = e.faults(FaultPlan::drops(fault)).send_token_pool(64);
                    }
                    // Paired seeding: every candidate in a scenario sees
                    // the same drop pattern, so algorithmically identical
                    // schedules (PE vs radix-2 dissemination at powers of
                    // two) measure identically instead of differing by
                    // drop-placement luck.
                    e.seed = cell_seed(ADVISOR_SEED, scenario_idx as u64);
                    cells.push((scenario_idx, c.name(), c.predicted_us, e));
                }
                scenarios.push((n, bytes, fault, rec));
            }
        }
    }
    let sweep = SweepEngine::new();
    let measured = sweep.run(&cells, |_, (_, name, _, e)| {
        e.run()
            .unwrap_or_else(|err| panic!("advisor cell {name}: {err}"))
            .mean_us
    });

    let mut ok = true;
    let mut cell_rows = Vec::new();
    let mut cand_rows = Vec::new();
    let mut t = Table::new(vec![
        "nodes",
        "payload",
        "fault",
        "advisor pick",
        "pick (us)",
        "measured best",
        "best (us)",
        "regret",
        "ok",
    ]);
    for (si, (n, bytes, fault, _)) in scenarios.iter().enumerate() {
        // This scenario's candidates, still in the advisor's rank order.
        let results: Vec<(&str, f64, f64)> = cells
            .iter()
            .zip(&measured)
            .filter(|((idx, ..), _)| *idx == si)
            .map(|((_, name, pred, _), meas)| (name.as_str(), *pred, *meas))
            .collect();
        let (pick_name, pick_pred, pick_meas) = results[0];
        let &(best_name, _, best_meas) = results
            .iter()
            .min_by(|a, b| a.2.total_cmp(&b.2))
            .expect("scenario with no candidates");
        // The pick is one of the candidates, so regret is never negative
        // and the two-sided gate is the one-sided regret bound.
        let label =
            format!("n={n} payload={bytes} fault={fault} pick {pick_name} vs best {best_name}");
        let g = Gate::report(
            "advisor",
            &label,
            pick_meas,
            best_meas,
            ADVISOR_REGRET_TOLERANCE,
        );
        ok &= g.pass;
        t.row(vec![
            n.to_string(),
            bytes.to_string(),
            format!("{fault}"),
            pick_name.to_string(),
            us(pick_meas),
            best_name.to_string(),
            us(best_meas),
            format!("{:+.1}%", g.rel * 100.0),
            g.verdict().to_string(),
        ]);
        cell_rows.push(vec![
            ("nodes", (*n).into()),
            ("payload_bytes", (*bytes).into()),
            ("fault_rate", Json::plain(fault)),
            ("pick", pick_name.into()),
            ("pick_predicted_us", Json::fixed(pick_pred, 3)),
            ("pick_measured_us", Json::fixed(pick_meas, 3)),
            ("best", best_name.into()),
            ("best_measured_us", Json::fixed(best_meas, 3)),
            ("regret", Json::fixed(g.rel, 4)),
            ("tolerance", Json::plain(ADVISOR_REGRET_TOLERANCE)),
            ("pass", g.pass.into()),
        ]);
        for &(name, pred, meas) in &results {
            cand_rows.push(vec![
                ("nodes", (*n).into()),
                ("payload_bytes", (*bytes).into()),
                ("fault_rate", Json::plain(fault)),
                ("candidate", name.into()),
                ("predicted_us", Json::fixed(pred, 3)),
                ("measured_us", Json::fixed(meas, 3)),
            ]);
        }
    }
    print!("{}", t.render());
    println!("(regret = advisor pick's measured latency over the measured-best candidate's)");

    Bench::new("gmsim-advisor/v1", "advisor_pick_vs_measured_best")
        .field("smoke", smoke)
        .field("regret_tolerance", Json::plain(ADVISOR_REGRET_TOLERANCE))
        .rows("cells", cell_rows)
        .rows("candidates", cand_rows)
        .write("BENCH_advisor.json");
    ok
}

/// Fabric study: algorithm × fabric × oversubscription × routing policy,
/// measured against the per-fabric analytic forms (DESIGN.md §18). The
/// grid sweeps the non-blocking, 2:1 and 4:1 Clos plus a k=8 fat tree
/// under static-BFS, dispersed and adaptive routing, and gates every
/// cell's model error against `FABRIC_MODEL_TOLERANCE`.
fn fabric_study(smoke: bool) -> bool {
    use gmsim_testbed::{cell_seed, FabricSpec, RoutePolicy, SweepEngine};
    use nic_barrier::{advisor, FABRIC_MODEL_TOLERANCE};

    const FABRIC_SEED: u64 = 0x5ca1_ab1e_0000_0004;

    println!(
        "\n=== fabric{}: algorithm x fabric x routing vs per-fabric model ===",
        if smoke { " (smoke)" } else { "" }
    );
    // The smoke grid keeps the non-blocking and 4:1 Clos, drops static
    // routing and dissemination, and keeps the full grid's cell order.
    let clos = |spines| FabricSpec::Clos {
        leaves: 8,
        hosts_per_leaf: 8,
        spines,
    };
    let fabrics: Vec<(&str, FabricSpec, usize)> = [
        ("clos-1to1", clos(8), 64),
        ("clos-2to1", clos(4), 64),
        ("clos-4to1", clos(2), 64),
        ("fat-tree-k8", FabricSpec::FatTree { k: 8 }, 128),
    ]
    .into_iter()
    .filter(|&(name, ..)| !smoke || matches!(name, "clos-1to1" | "clos-4to1"))
    .collect();
    let policies = [
        ("static", RoutePolicy::StaticBfs),
        ("dispersed", RoutePolicy::Dispersed),
        ("adaptive", RoutePolicy::Adaptive),
    ];
    let policies = if smoke { &policies[1..] } else { &policies[..] };
    let algorithms = [
        ("nic-pe", Descriptor::pe()),
        ("nic-gb8", Descriptor::gb(8)),
        ("nic-dissem2", Descriptor::dissemination_radix(2)),
    ];
    let algorithms = if smoke {
        &algorithms[..2]
    } else {
        &algorithms[..]
    };

    let m = CostModel::from_config(&GmConfig::paper_host(NicModel::LANAI_4_3));
    let mut cells = Vec::new();
    for &(fname, spec, n) in &fabrics {
        for &(pname, policy) in policies {
            for &(aname, desc) in algorithms {
                let sc = advisor::Scenario::barrier(n).with_fabric(spec, policy);
                let predicted = advisor::predict(&m, &sc, advisor::Placement::Nic, &desc);
                let mut e = BarrierExperiment::new(n, Algorithm::Nic(desc)).rounds(40, 5);
                e = e.fabric(spec, policy);
                // Paired seeding per (fabric, policy): all algorithms on
                // one cabling see identical conditions.
                e.seed = cell_seed(FABRIC_SEED, cells.len() as u64);
                cells.push((fname, n, spec, pname, aname, predicted, e));
            }
        }
    }
    let sweep = SweepEngine::new();
    let measured = sweep.run(&cells, |_, (fname, _, _, pname, aname, _, e)| {
        e.run()
            .unwrap_or_else(|err| panic!("fabric cell {fname}/{pname}/{aname}: {err}"))
            .mean_us
    });

    let mut ok = true;
    let mut rows = Vec::new();
    let mut t = Table::new(vec![
        "fabric",
        "nodes",
        "oversub",
        "routing",
        "algorithm",
        "model (us)",
        "measured (us)",
        "err",
        "ok",
    ]);
    for ((fname, n, spec, pname, aname, predicted, _), meas) in cells.iter().zip(&measured) {
        let label = format!("{fname}/{pname}/{aname} model vs measured");
        let g = Gate::report("fabric", &label, *predicted, *meas, FABRIC_MODEL_TOLERANCE);
        ok &= g.pass;
        let oversub = spec.oversub_ratio(*n);
        t.row(vec![
            fname.to_string(),
            n.to_string(),
            format!("{oversub:.1}"),
            pname.to_string(),
            aname.to_string(),
            us(*predicted),
            us(*meas),
            format!("{:+.1}%", g.rel * 100.0),
            g.verdict().to_string(),
        ]);
        rows.push(vec![
            ("fabric", (*fname).into()),
            ("nodes", (*n).into()),
            ("oversub", Json::plain(oversub)),
            ("routing", (*pname).into()),
            ("algorithm", (*aname).into()),
            ("model_us", Json::fixed(*predicted, 3)),
            ("measured_us", Json::fixed(*meas, 3)),
            ("err", Json::fixed(g.rel, 4)),
            ("tolerance", Json::plain(FABRIC_MODEL_TOLERANCE)),
            ("pass", g.pass.into()),
        ]);
    }
    print!("{}", t.render());
    println!("(err = per-fabric analytic prediction against the measured mean)");

    Bench::new("gmsim-fabric/v1", "fabric_model_vs_measured")
        .field("smoke", smoke)
        .field("model_tolerance", Json::plain(FABRIC_MODEL_TOLERANCE))
        .rows("cells", rows)
        .write("BENCH_fabric.json");
    ok
}

/// Ablations of the §3 design choices.
fn ablations(_smoke: bool) -> bool {
    println!("\n=== ablate: design-choice ablations ===");
    // 1. Reliability: the paper's unreliable prototype vs the integrated
    //    reliable stream (§3.3/4.4).
    let mut t = Table::new(vec!["config", "NIC-PE 16n (us)"]);
    for (name, wire) in [
        (
            "reliable barrier packets (adopted design)",
            CollectiveWireMode::Reliable,
        ),
        (
            "unreliable (paper's measured prototype)",
            CollectiveWireMode::Unreliable,
        ),
    ] {
        let m = measure(BarrierExperiment::new(16, Algorithm::Nic(Descriptor::Pe)).wire(wire));
        t.row(vec![name.to_string(), us(m)]);
    }
    print!("{}", t.render());

    // 2. §3.4 same-NIC optimization, 16 processes packed 2 per node.
    let mut t = Table::new(vec!["config", "NIC-PE 16 procs / 8 nodes (us)"]);
    for (name, on) in [
        ("same-NIC flag optimization ON", true),
        ("OFF (loopback packets)", false),
    ] {
        let m = measure(
            BarrierExperiment::new(16, Algorithm::Nic(Descriptor::Pe))
                .placement(Placement::Packed { procs_per_node: 2 })
                .same_nic_opt(on),
        );
        t.row(vec![name.to_string(), us(m)]);
    }
    print!("{}", t.render());

    // 3. Unexpected-record cost sensitivity: a 4x more expensive record
    //    (e.g. a hash probe instead of the paper's bit test).
    let mut slow = BarrierCosts::GM_1_2_3;
    slow.record_cycles *= 4;
    let mut t = Table::new(vec!["config", "NIC-PE 16n (us)"]);
    t.row(vec![
        "bit-array record (paper, O(1))".to_string(),
        us(measure(BarrierExperiment::new(
            16,
            Algorithm::Nic(Descriptor::Pe),
        ))),
    ]);
    t.row(vec![
        "4x record cost".to_string(),
        us(measure(
            BarrierExperiment::new(16, Algorithm::Nic(Descriptor::Pe)).costs(slow),
        )),
    ]);
    print!("{}", t.render());
    true
}

/// `--trace <path>`: run a 16-node NIC-based PE barrier stream with
/// structured tracing enabled and export it as chrome://tracing JSON
/// (load in Perfetto or chrome://tracing). Every process is a node,
/// every thread a NIC unit; SDMA transfers become duration spans and a
/// derived per-node "nic barrier" span runs from the collective token
/// post to the completion DMA.
fn export_chrome_trace(path: &str) {
    use gmsim_des::{TracePayload, TraceRecord, Unit};

    let m = BarrierExperiment::new(16, Algorithm::Nic(Descriptor::Pe))
        .rounds(12, 2)
        .trace(1 << 16)
        .run()
        .expect("trace run failed");
    let records = &m.trace;

    let tid = |u: Unit| match u {
        Unit::Host => 0,
        Unit::Sdma => 1,
        Unit::Send => 2,
        Unit::Recv => 3,
        Unit::Rdma => 4,
        Unit::Wire => 5,
        Unit::Ext => 6,
    };
    let ts_us = |r: &TraceRecord| r.at.as_ns() as f64 / 1000.0;

    let mut out = String::with_capacity(records.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    let mut first = true;
    let push = |out: &mut String, first: &mut bool, ev: String| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&ev);
    };

    // Process/thread naming metadata.
    let nodes: std::collections::BTreeSet<u32> = records.iter().map(|r| r.component.node).collect();
    for &n in &nodes {
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{n},\
                 \"args\":{{\"name\":\"node{n}\"}}}}"
            ),
        );
        for u in [
            Unit::Host,
            Unit::Sdma,
            Unit::Send,
            Unit::Recv,
            Unit::Rdma,
            Unit::Wire,
            Unit::Ext,
        ] {
            push(
                &mut out,
                &mut first,
                format!(
                    "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{n},\"tid\":{},\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    tid(u),
                    u.name()
                ),
            );
        }
    }

    // Derived per-node barrier spans: collective token post → completion
    // DMA. Ring eviction can orphan a completion; skip those.
    let mut open: std::collections::BTreeMap<u32, f64> = std::collections::BTreeMap::new();
    for r in records {
        match r.payload {
            TracePayload::SendTokenPost {
                collective: true, ..
            } => {
                open.entry(r.component.node).or_insert_with(|| ts_us(r));
            }
            TracePayload::CompletionDma { .. } => {
                if let Some(start) = open.remove(&r.component.node) {
                    push(
                        &mut out,
                        &mut first,
                        format!(
                            "{{\"ph\":\"X\",\"name\":\"nic barrier\",\"cat\":\"barrier\",\
                             \"pid\":{},\"tid\":{},\"ts\":{start:.3},\"dur\":{:.3}}}",
                            r.component.node,
                            tid(Unit::Ext),
                            ts_us(r) - start,
                        ),
                    );
                }
            }
            _ => {}
        }
    }

    // The records themselves: SDMA begin/end pairs as B/E spans,
    // everything else as instants.
    for r in records {
        let (pid, t) = (r.component.node, ts_us(r));
        let tid = tid(r.component.unit);
        let ev = match r.payload {
            TracePayload::SdmaStart { bytes } => format!(
                "{{\"ph\":\"B\",\"name\":\"sdma\",\"cat\":\"dma\",\"pid\":{pid},\
                 \"tid\":{tid},\"ts\":{t:.3},\"args\":{{\"bytes\":{bytes}}}}}"
            ),
            TracePayload::SdmaFinish { .. } => format!(
                "{{\"ph\":\"E\",\"name\":\"sdma\",\"cat\":\"dma\",\"pid\":{pid},\
                 \"tid\":{tid},\"ts\":{t:.3}}}"
            ),
            p => format!(
                "{{\"ph\":\"i\",\"name\":\"{}\",\"cat\":\"event\",\"pid\":{pid},\
                 \"tid\":{tid},\"ts\":{t:.3},\"s\":\"t\"}}",
                p.name()
            ),
        };
        push(&mut out, &mut first, ev);
    }
    out.push_str("\n]}\n");
    std::fs::write(path, &out).expect("write trace file");
    println!(
        "wrote {} trace events ({} structured records) to {path}",
        records.len() + open.len(),
        records.len()
    );
}

/// `breakdown`: the paper's host-vs-NIC cost decomposition (§2.2, Figure 2,
/// Equations 1–2) next to what the simulator measures, for PE and GB at
/// N ∈ {8, 16}. The per-phase terms show *where* the NIC-based barrier
/// wins: every intermediate round drops Send/SDMA/RDMA/HostRecv.
fn breakdown(_smoke: bool) -> bool {
    use gmsim_des::Counter;

    println!("\n=== breakdown: per-phase host-vs-NIC cost decomposition, LANai 4.3 ===");
    let cfg = GmConfig::paper_host(NicModel::LANAI_4_3);
    let m = CostModel::from_config(&cfg);
    let mut t = Table::new(vec!["phase", "host pays", "NIC pays", "cost (us)"]);
    for (phase, host, nic, cost) in [
        ("HostSend (gm_send)", "every round", "once", m.send_us),
        ("SDMA (token fetch)", "every round", "once", m.sdma_us),
        ("Wire", "every round", "every round", m.network_us),
        ("NIC recv", "every round", "every round", m.nic_recv_us),
        ("NIC fwd step", "-", "every round", m.nic_step_us),
        ("RDMA (event DMA)", "every round", "once", m.rdma_us),
        ("HostRecv (poll)", "every round", "once", m.hrecv_us),
    ] {
        t.row(vec![
            phase.to_string(),
            host.to_string(),
            nic.to_string(),
            us(cost),
        ]);
    }
    print!("{}", t.render());

    let mut t = Table::new(vec![
        "N",
        "algorithm",
        "model (us)",
        "measured (us)",
        "fw cycles/barrier",
        "turnaround mean (us)",
        "turnaround p95 (us)",
    ]);
    for n in [8usize, 16] {
        for (alg, model_us) in [
            (Algorithm::Host(Descriptor::Pe), m.host_barrier_us(n)),
            (Algorithm::Nic(Descriptor::Pe), m.nic_barrier_us(n)),
        ] {
            let meas = BarrierExperiment::new(n, alg).run().expect("breakdown run");
            // Firmware cycles per completed barrier, NIC-interpreted runs
            // only (host runs drive no extension, so the per-barrier share
            // would be the whole run's GM bookkeeping).
            let fw = if alg.is_nic() {
                let barriers = meas.metrics.get(Counter::BarrierCompletions).max(1);
                format!(
                    "{:.0}",
                    meas.metrics.get(Counter::FirmwareCycles) as f64 / barriers as f64
                )
            } else {
                "-".to_string()
            };
            t.row(vec![
                n.to_string(),
                alg.name(),
                us(model_us),
                us(meas.mean_us),
                fw,
                meas.nic_turnaround
                    .mean()
                    .map_or("-".into(), |v| format!("{v:.2}")),
                meas.nic_turnaround
                    .quantile(0.95)
                    .map_or("-".into(), |v| format!("{v:.2}")),
            ]);
        }
        for nic_side in [false, true] {
            let alg = if nic_side {
                Algorithm::Nic(Descriptor::gb(1))
            } else {
                Algorithm::Host(Descriptor::gb(1))
            };
            let (dim, meas) = best_gb_dim(BarrierExperiment::new(n, alg));
            t.row(vec![
                n.to_string(),
                format!("{}-GB best d={dim}", if nic_side { "NIC" } else { "host" }),
                "-".to_string(),
                us(meas.mean_us),
                "-".to_string(),
                meas.nic_turnaround
                    .mean()
                    .map_or("-".into(), |v| format!("{v:.2}")),
                meas.nic_turnaround
                    .quantile(0.95)
                    .map_or("-".into(), |v| format!("{v:.2}")),
            ]);
        }
    }
    print!("{}", t.render());
    println!(
        "(Eq.1 charges the host column's phases in all {{2,..}}ceil(log2 N) rounds; \
         Eq.2 pays host phases once and NIC recv+fwd per round)"
    );
    true
}
