//! `plan-static` and `eval-large`: one op takes one platform through the
//! paper's six heuristics and the MTP bound, and — for `plan-static` — on
//! through schedule synthesis, validation and simulated replay.

use crate::check::{self, Net};
use crate::util::{
    catch, layer_metrics, mean, median, mix, ms_since, permutation, Args, EndToEnd, Layers, Obs,
    Report, KINDS, KNOWN_FAULT,
};
use bcast_core::heuristics::build_structure_with_loads;
use bcast_core::{optimal_throughput, steady_state_throughput, HeuristicKind, OptimalMethod};
use bcast_net::NodeId;
use bcast_platform::generators::{
    gaussian_platform, random_platform, tiers_platform, GaussianPlatformConfig,
    RandomPlatformConfig, TiersConfig,
};
use bcast_platform::{CommModel, MessageSpec, Platform};
use bcast_sched::{synthesize_schedule_with_tree_fallback, SynthesisConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

pub const SLICE: f64 = 1.0e6;
const SOURCE: NodeId = NodeId(0);

#[derive(Clone, Copy, Debug)]
pub enum Family {
    Random(f64),
    Tiers(f64),
    Gaussian,
}

/// One platform shape: family (with its edge density) and node count.
#[derive(Clone, Copy, Debug)]
pub struct Shape(pub Family, pub usize);

impl Shape {
    pub fn generate(self, platform_seed: u64) -> Platform {
        let mut rng = StdRng::seed_from_u64(platform_seed);
        let Shape(family, n) = self;
        match family {
            Family::Random(d) => random_platform(&RandomPlatformConfig::paper(n, d), &mut rng),
            Family::Tiers(d) => tiers_platform(&TiersConfig::paper(n, d), &mut rng),
            Family::Gaussian => gaussian_platform(&GaussianPlatformConfig::paper(n), &mut rng),
        }
    }

    /// The platform of the first seed at or after `from` that generates
    /// (the Gaussian generator panics on ~1.5% of seeds; that fault is
    /// kept as its own failing op, not drawn at random).
    pub fn first_good(self, from: u64) -> Platform {
        (from..)
            .find_map(|s| catch(|| self.generate(s)).ok())
            .expect("some seed generates")
    }
}

/// `plan-static` round: paper densities (Random 0.12, Tiers 0.10) at
/// 16–30 nodes. The median op must fall inside one instance's cluster of
/// latencies, not between two: so an odd count, three platforms that
/// synthesize in ~0.2 s, Random-20 alone at ~0.47 s, and three at
/// 0.7–1.3 s. With the median between two instances 5% apart,
/// `op_p50_ms` swung 26% over ten runs while `ops_per_s` swung 19%.
const PLAN_SHAPES: [Shape; 7] = [
    Shape(Family::Random(0.12), 16),
    Shape(Family::Tiers(0.10), 20),
    Shape(Family::Gaussian, 20),
    Shape(Family::Random(0.12), 20),
    Shape(Family::Tiers(0.10), 26),
    Shape(Family::Gaussian, 26),
    Shape(Family::Tiers(0.10), 30),
];

/// `eval-large` round: one platform per family at 130–200 nodes, at the
/// densities of the repository's scaling points.
const EVAL_SHAPES: [Shape; 3] = [
    Shape(Family::Random(0.03), 200),
    Shape(Family::Tiers(0.04), 130),
    Shape(Family::Gaussian, 200),
];

/// Every round plans the same platforms: for each shape, the first seed
/// from this one that generates. They do not depend on `--seed`, which
/// orders the ops of each round: per-instance cost spans more than 10x
/// across seeds at one shape (the LP at 130–200 nodes, synthesis at
/// 20–30), far more than the run-to-run bound a run of a few dozen ops
/// could hold if every seed drew new platforms.
const PLATFORM_SEED: u64 = 1;

/// The known generator fault: this seed panics at every paper size.
const FAULT_SEED: u64 = 13;

/// A platform and its checker view.
struct Instance {
    platform: Platform,
    net: Net,
}

impl Instance {
    fn new(platform: Platform) -> Instance {
        let net = net_of(&platform);
        Instance { platform, net }
    }
}

/// The checker's view of a platform: endpoints and one-slice link times.
pub fn net_of(platform: &Platform) -> Net {
    let graph = platform.graph();
    Net {
        nodes: platform.node_count(),
        edges: platform
            .edges()
            .map(|e| {
                let (u, v) = graph.endpoints(e);
                (u.index(), v.index(), platform.link_time(e, SLICE))
            })
            .collect(),
    }
}

/// What one op produced, in plain data for the checker.
#[derive(Clone, Debug, PartialEq)]
struct PlanOut {
    tp: f64,
    loads: Vec<f64>,
    /// Each heuristic's structure.
    trees: Vec<check::Structure>,
    schedule: Option<ScheduleOut>,
}

#[derive(Clone, Debug, PartialEq)]
struct ScheduleOut {
    sim_tp: f64,
    period: f64,
    trees: Vec<Vec<usize>>,
    transfers: usize,
}

fn run_plan(inst: &Instance, with_schedule: bool, layers: &mut Layers) -> Result<PlanOut, String> {
    let p = &inst.platform;
    let optimal = layers
        .time("cut_gen.ms", || {
            optimal_throughput(p, SOURCE, SLICE, OptimalMethod::CutGeneration)
        })
        .map_err(|e| format!("bound: {e}"))?;
    let mut trees = Vec::new();
    let mut structures = Vec::new();
    for (kind, stem) in KINDS {
        let (structure, tp) = layers
            .time(&format!("heuristics.{stem}_ms"), || {
                build_structure_with_loads(
                    p,
                    SOURCE,
                    kind,
                    CommModel::OnePort,
                    SLICE,
                    Some(&optimal),
                )
                .map(|s| {
                    let tp = steady_state_throughput(p, &s, CommModel::OnePort, SLICE);
                    (s, tp)
                })
            })
            .map_err(|e| format!("{stem}: {e}"))?;
        trees.push((
            structure.edges().iter().map(|e| e.index()).collect(),
            tp,
            kind != HeuristicKind::Binomial,
        ));
        structures.push(structure);
    }
    let schedule = if with_schedule {
        let schedule = layers
            .time("sched.synthesize_ms", || {
                synthesize_schedule_with_tree_fallback(
                    p,
                    SOURCE,
                    &optimal,
                    SLICE,
                    &SynthesisConfig::default(),
                    &structures,
                )
            })
            .map_err(|e| format!("synthesis: {e}"))?;
        layers
            .time("sched.validate_ms", || schedule.validate(p))
            .map_err(|e| format!("validate: {e}"))?;
        let batch = schedule.slices_per_period();
        let spec = MessageSpec::new(8.0 * batch as f64 * SLICE, SLICE);
        let report = layers.time("sim.replay_ms", || {
            bcast_sim::simulate_schedule(p, &schedule, &spec)
        });
        layers.add("sched.slices_per_period", batch as f64);
        layers.add("sched.transfers", schedule.transfers().len() as f64);
        Some(ScheduleOut {
            sim_tp: report.batch_throughput(batch),
            period: schedule.period(),
            trees: schedule
                .trees()
                .iter()
                .map(|t| t.iter().map(|e| e.index()).collect())
                .collect(),
            transfers: schedule.transfers().len(),
        })
    } else {
        None
    };
    Ok(PlanOut {
        tp: optimal.throughput,
        loads: optimal.edge_load,
        trees,
        schedule,
    })
}

/// Checks one op's output; returns (best tree / bound, schedule / bound).
fn check_out(net: &Net, out: &PlanOut) -> Result<(f64, Option<f64>), String> {
    let sim = out.schedule.as_ref().map(|s| s.sim_tp);
    check::check_bound(net, SOURCE.index(), out.tp, &out.loads)?;
    let best = check::check_plan(net, SOURCE.index(), &out.trees, out.tp, sim)?;
    if let Some(s) = &out.schedule {
        check::check_schedule(net, SOURCE.index(), &s.trees, s.period)?;
    }
    Ok((best / out.tp, sim.map(|s| s / out.tp)))
}

/// The failing op of every round: plan a Gaussian platform whose
/// generation panics. `Ok(())` would mean the fault is gone.
fn known_fault_op(nodes: usize) -> Result<(), String> {
    match catch(|| Shape(Family::Gaussian, nodes).generate(FAULT_SEED)) {
        Err(msg) if msg.contains(KNOWN_FAULT) => Err(msg),
        Err(msg) => Err(format!("unexpected panic: {msg}")),
        Ok(_) => Ok(()),
    }
}

struct Workload {
    shapes: &'static [Shape],
    with_schedule: bool,
    fault_nodes: usize,
    /// One set-up (input generation) is timed as the fastest of this many
    /// back-to-back repetitions. It runs before the timed phase and again
    /// after every round, off its clock; `setup_s` is the median set-up.
    /// On the 2-vCPU reference VM the same ~0.1 ms generation reads 2x
    /// slower while the host is busy, 3–4 times the slowdown of a whole
    /// op: a median over all repetitions moved 24% between two sets of
    /// ten runs of the same code while `ops_per_s` moved 12%.
    setup_reps: usize,
}

pub fn plan_static(args: &Args) -> Report {
    let workload = Workload {
        shapes: &PLAN_SHAPES,
        with_schedule: true,
        fault_nodes: 20,
        setup_reps: 1000,
    };
    run(args, &workload)
}

pub fn eval_large(args: &Args) -> Report {
    let workload = Workload {
        shapes: &EVAL_SHAPES,
        with_schedule: false,
        fault_nodes: 200,
        setup_reps: 8,
    };
    run(args, &workload)
}

fn run(args: &Args, w: &Workload) -> Report {
    let mut layers = Layers::new(args.trace);
    // Set-up is input generation; the last pool is used.
    let mut setup = Vec::new();
    let set_up = |setup: &mut Vec<f64>| {
        let (mut pool, mut best) = (Vec::new(), f64::INFINITY);
        for _ in 0..w.setup_reps {
            let t = Instant::now();
            pool = w
                .shapes
                .iter()
                .map(|&shape| Instance::new(shape.first_good(PLATFORM_SEED)))
                .collect::<Vec<_>>();
            best = best.min(t.elapsed().as_secs_f64());
        }
        setup.push(best);
        pool
    };
    let pool = set_up(&mut setup);

    let mut problems = Vec::new();
    let mut op_ms = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut tree_ratios, mut sched_ratios) = (Vec::new(), Vec::new());
    // Outputs already checked: a later round must reproduce them bit for
    // bit (the pipeline is deterministic).
    let mut seen: Vec<Option<PlanOut>> = vec![None; pool.len()];

    Obs::start(args.trace);
    let start = Instant::now();
    let mut paused = 0.0;
    let timed = |paused: f64| start.elapsed().as_secs_f64() - paused;
    let mut round = 0usize;
    while round == 0 || timed(paused) < args.seconds {
        let order = permutation(mix(args.seed, &[2, round as u64]), w.shapes.len() + 1);
        for slot in order {
            attempted += 1;
            if slot == w.shapes.len() {
                match known_fault_op(w.fault_nodes) {
                    Err(msg) if msg.contains(KNOWN_FAULT) => failed += 1,
                    Err(msg) => {
                        failed += 1;
                        problems.push(msg);
                    }
                    Ok(()) => problems.push("the known generator fault no longer fires".into()),
                }
                continue;
            }
            let inst = &pool[slot];
            let t = Instant::now();
            let out = run_plan(inst, w.with_schedule, &mut layers);
            let ms = ms_since(t);
            match out {
                Err(e) => {
                    failed += 1;
                    problems.push(format!("op failed: {e}"));
                }
                Ok(out) => {
                    op_ms.push(ms);
                    let prior = &mut seen[slot];
                    match prior {
                        Some(first) if *first != out => problems.push(format!(
                            "round {round} slot {slot}: output differs from round 0"
                        )),
                        Some(_) => {}
                        None => match check_out(&inst.net, &out) {
                            Ok((tree, sched)) => {
                                tree_ratios.push(tree);
                                sched_ratios.extend(sched);
                                *prior = Some(out);
                            }
                            Err(e) => problems.push(format!("round {round} slot {slot}: {e}")),
                        },
                    }
                }
            }
        }
        round += 1;
        let t = Instant::now();
        set_up(&mut setup);
        paused += t.elapsed().as_secs_f64();
    }
    let wall_s = timed(paused);
    let obs = Obs::read();
    let setup_s = median(&setup);
    layers.set("platform.generate_ms", setup_s * 1e3);

    let tree_tp_ratio = mean(&tree_ratios);
    let e2e = EndToEnd {
        setup_s,
        wall_s,
        tree_tp_ratio,
        // Without synthesis (`eval-large`) the schedule a user would run is
        // the best tree: `synthesize_schedule_with_tree_fallback` never
        // does worse.
        schedule_tp_ratio: if w.with_schedule {
            mean(&sched_ratios)
        } else {
            tree_tp_ratio
        },
        op_ms,
    };
    let ops = e2e.op_ms.len();
    let metrics = if args.trace {
        layers.set("trace.ops_per_s", e2e.ops_per_s());
        layer_metrics(&mut layers, &obs, ops)
    } else {
        e2e.metrics()
    };
    Report {
        attempted,
        failed,
        problems,
        metrics,
        info: vec![
            ("rounds".into(), round.to_string()),
            ("ops".into(), ops.to_string()),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::tests::{diamond, DIAMOND_LOADS, DIAMOND_TP};
    use bcast_platform::LinkCost;

    /// The checker's hand-built diamond as a program platform.
    fn diamond_platform() -> Platform {
        let net = diamond();
        let mut b = Platform::builder();
        let nodes = b.add_processors(net.nodes);
        for &(u, v, t) in &net.edges {
            b.add_link(nodes[u], nodes[v], LinkCost::one_port(0.0, t / SLICE));
        }
        b.build()
    }

    #[test]
    fn program_meets_the_hand_values() {
        let inst = Instance::new(diamond_platform());
        let out = run_plan(&inst, true, &mut Layers::new(false)).unwrap();
        assert!(check::close(out.tp, DIAMOND_TP, 1e-9), "bound {}", out.tp);
        check::check_bound(&inst.net, 0, out.tp, &DIAMOND_LOADS).unwrap();
        let (tree, sched) = check_out(&inst.net, &out).unwrap();
        assert!(
            check::close(tree * DIAMOND_TP, 0.5, 1e-9),
            "best tree {tree}"
        );
        assert!(sched.unwrap() * DIAMOND_TP >= 0.5 * (1.0 - check::EXACT));
    }

    #[test]
    fn the_known_fault_fires_at_both_sizes() {
        crate::util::quiet_known_fault();
        for n in [20, 200] {
            assert!(matches!(known_fault_op(n), Err(m) if m.contains(KNOWN_FAULT)));
        }
    }
}
