//! `service-churn`: one `Service` holds a fleet of drifting and churning
//! sessions; a single closed-loop client steps them round-robin with
//! resolves, queries and periodic snapshots mixed in, then reopens the
//! directory repeatedly.

use crate::check::{self, Net, PORT_OVERFILL};
use crate::plan::{net_of, SLICE};
use crate::util::{
    catch, layer_metrics, mean, median, mix, ms_since, permutation, Args, EndToEnd, Layers, Obs,
    Report, KINDS, KNOWN_FAULT,
};
use bcast_core::heuristics::build_structure_with_loads;
use bcast_core::{optimal_throughput, steady_state_throughput, HeuristicKind, OptimalMethod};
use bcast_net::NodeId;
use bcast_platform::{CommModel, DriftEvent, Platform};
use bcast_service::session::{generate_platform, generate_trace};
use bcast_service::{
    Command, FaultPlan, Outcome, PlatformFamily, ScheduleStats, Service, SessionSpec, StepStats,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Trace length of every fleet session: enough steps for several times
/// the rounds a run makes; an exhausted trace ends the timed phase.
const TRACE_STEPS: usize = 240;
/// A fleet-wide snapshot closes every this many rounds.
const SNAPSHOT_EVERY: usize = 4;
/// The durable footprint is read right after the snapshot that closes
/// this round, so it covers the same command count in every run.
const DURABLE_ROUND: usize = 12;
/// After this round the fleet's files are copied aside: a snapshot plus a
/// WAL tail of one round, at the same trace position in every run. The
/// copy is reopened then and every `RECOVER_EVERY` rounds after, with the
/// clock of the timed phase paused; spread over the run, the reopens do
/// not all land in one burst of host contention.
const RECOVER_ROUND: usize = DURABLE_ROUND + 1;
const RECOVER_EVERY: usize = 7;
/// Fleet set-ups per run; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// The known bound fault: a cold MTP solve of this trace step of the
/// first fleet session (`random-drift`, seven failed links) returns loads
/// that keep a port busy longer than the period.
const OVERFILL_STEP: usize = 2;

/// The fleet: three families at 20–30 nodes, each with a drift (link
/// failures) and a churn (joins and leaves) trace.
const FLEET: [(&str, PlatformFamily, bool); 6] = [
    (
        "random-drift",
        PlatformFamily::Random {
            nodes: 24,
            density: 0.12,
        },
        false,
    ),
    (
        "random-churn",
        PlatformFamily::Random {
            nodes: 24,
            density: 0.12,
        },
        true,
    ),
    (
        "tiers-drift",
        PlatformFamily::Tiers {
            nodes: 30,
            density: 0.10,
        },
        false,
    ),
    (
        "tiers-churn",
        PlatformFamily::Tiers {
            nodes: 30,
            density: 0.10,
        },
        true,
    ),
    (
        "gaussian-drift",
        PlatformFamily::Gaussian { nodes: 20 },
        false,
    ),
    (
        "gaussian-churn",
        PlatformFamily::Gaussian { nodes: 20 },
        true,
    ),
];

fn spec(
    family: PlatformFamily,
    platform_seed: u64,
    steps: usize,
    drift_seed: u64,
    churn: bool,
) -> SessionSpec {
    SessionSpec {
        family,
        platform_seed,
        slice_size: SLICE,
        batch: 16,
        drift_steps: steps,
        drift_seed,
        churn,
    }
}

/// A spec whose platform and trace generate, and whose churn trace (if
/// any) has both joins and leaves. The specs do not depend on `--seed`:
/// churn traces join more nodes than they lose, and how many differs so
/// much between drift seeds that per-step cost moved by half between two
/// seeds. `--seed` sets the command mix instead (see `service_churn`).
fn fleet_spec(i: usize) -> SessionSpec {
    let (_, family, churn) = FLEET[i];
    let platform_seed = (101..)
        .find(|&s| catch(|| generate_platform(&spec(family, s, 1, 0, false))).is_ok())
        .expect("a platform seed generates");
    (0..)
        .map(|k| {
            spec(
                family,
                platform_seed,
                TRACE_STEPS,
                mix(1, &[4, i as u64, k]),
                churn,
            )
        })
        .find(|s| match catch(|| generate_trace(s)) {
            Err(_) => false,
            Ok(_) if !churn => true,
            Ok(trace) => {
                let events = || (0..trace.len()).flat_map(|t| trace.step(t).events.clone());
                events().any(|e| matches!(e, DriftEvent::NodeJoin(_)))
                    && events().any(|e| matches!(e, DriftEvent::NodeLeave(_)))
            }
        })
        .expect("a drift seed generates")
}

/// The known fault, as a service sees it: a session spec whose platform
/// generation panics (after the create was logged).
fn faulty_spec() -> SessionSpec {
    spec(PlatformFamily::Gaussian { nodes: 20 }, 13, 4, 1, false)
}

fn work_dir(tag: &str) -> PathBuf {
    Path::new(".bench_work").join(format!("{}-{tag}", std::process::id()))
}

fn fresh(dir: &Path) -> &Path {
    let _ = std::fs::remove_dir_all(dir);
    dir
}

fn kb(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64 / 1024.0)
}

fn open(dir: &Path) -> Service {
    Service::open(dir, FaultPlan::none()).expect("service opens")
}

/// The step command the session's trace calls for next.
fn step_command(service: &Service, name: &str) -> Command {
    let session = name.to_string();
    if service
        .session(name)
        .expect("session exists")
        .next_step_is_churn()
    {
        Command::NodeChurn { session }
    } else {
        Command::DriftStep { session }
    }
}

/// Every bit of a session's observable state: its step log and its
/// schedule statistics.
fn state_bits(service: &Service, name: &str) -> Vec<u64> {
    let s = service.session(name).expect("session exists");
    let mut bits = Vec::new();
    for st in s.log() {
        bits.extend([
            st.step as u64,
            st.tp.to_bits(),
            st.pivots as u64,
            st.rounds as u64,
        ]);
        bits.extend([
            st.reused_cuts as u64,
            st.kept_trees as u64,
            st.repair_ops as u64,
        ]);
        bits.extend([
            st.grafted as u64,
            st.pruned as u64,
            st.efficiency.to_bits(),
            st.sim_tp.to_bits(),
        ]);
    }
    if let Some(q) = s.schedule_stats() {
        bits.extend(schedule_bits(&q));
    }
    bits
}

fn schedule_bits(q: &ScheduleStats) -> [u64; 6] {
    [
        q.throughput.to_bits(),
        q.period.to_bits(),
        q.slices_per_period as u64,
        q.efficiency.to_bits(),
        q.max_lag as u64,
        q.transfers as u64,
    ]
}

/// Live answers of every session: state bits and `QuerySchedule` outcome.
type Answers = BTreeMap<String, (Vec<u64>, Outcome)>;

/// Reopens `dir` once, timed, and checks every session against
/// `expected`. With `ask` it also asks each session `QuerySchedule`
/// again; that appends to the WAL, so only a directory's last reopen does.
fn reopen_checked(
    dir: &Path,
    expected: &Answers,
    ask: bool,
    problems: &mut Vec<String>,
) -> (f64, Service) {
    let t = Instant::now();
    let mut service = open(dir);
    let ms = ms_since(t);
    for (name, (bits, answer)) in expected {
        if service.session(name).is_none() {
            problems.push(format!("reopen: session {name} missing"));
            continue;
        }
        if state_bits(&service, name) != *bits {
            problems.push(format!("reopen: {name} differs from the live service"));
        }
        let query = Command::QuerySchedule {
            session: name.clone(),
        };
        if ask && service.apply(&query).ok().as_ref() != Some(answer) {
            problems.push(format!("reopen: {name} answers a query differently"));
        }
    }
    (ms, service)
}

/// Live answers (state bits + query outcome) of every session.
fn live_answers(service: &mut Service, names: &[String]) -> Answers {
    names
        .iter()
        .map(|name| {
            let query = Command::QuerySchedule {
                session: name.clone(),
            };
            let answer = service.apply(&query).expect("query applies");
            (name.clone(), (state_bits(service, name), answer))
        })
        .collect()
}

/// The two failing ops of every round: create the faulty session in a
/// throwaway directory (it is logged, then panics), then reopen that
/// directory (replay panics too). Returns how many failed as expected.
fn known_fault_ops(problems: &mut Vec<String>) -> u64 {
    let dir = work_dir("faulty");
    let create = Command::CreateSession {
        name: "faulty".into(),
        spec: faulty_spec(),
    };
    let mut failed = 0;
    let mut service = open(fresh(&dir));
    let attempts: [Result<(), String>; 2] = [
        catch(std::panic::AssertUnwindSafe(|| {
            let _ = service.apply(&create);
        })),
        catch(|| drop(open(&dir))),
    ];
    for attempt in attempts {
        match attempt {
            Err(msg) if msg.contains(KNOWN_FAULT) => failed += 1,
            Err(msg) => {
                failed += 1;
                problems.push(format!("unexpected panic: {msg}"));
            }
            Ok(()) => problems.push("the known generator fault no longer fires".into()),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    failed
}

/// The bound-fault op of every round: a cold MTP solve of a drift
/// platform with a failed link, checked by [`check::check_ports`].
/// `Ok(())` would mean the fault is gone.
fn overfill_op(platform: &Platform, source: NodeId, net: &Net) -> Result<(), String> {
    let cold = optimal_throughput(platform, source, SLICE, OptimalMethod::CutGeneration)
        .map_err(|e| format!("cold bound: {e}"))?;
    check::check_ports(net, &cold.edge_load)
}

fn apply_kind(command: &Command) -> &'static str {
    match command {
        Command::DriftStep { .. } => "drift",
        Command::NodeChurn { .. } => "churn",
        Command::Resolve { .. } => "resolve",
        Command::QuerySchedule { .. } => "query",
        Command::Snapshot => "snapshot",
        Command::CreateSession { .. } => "create",
    }
}

/// Builds the fleet in a fresh directory: open, create every session,
/// and take each one's cold first step.
fn setup_fleet(dir: &Path, specs: &[SessionSpec], problems: &mut Vec<String>) -> Service {
    let mut service = open(fresh(dir));
    for (i, spec) in specs.iter().enumerate() {
        let name = FLEET[i].0.to_string();
        let create = Command::CreateSession {
            name: name.clone(),
            spec: *spec,
        };
        if !matches!(service.apply(&create), Ok(Outcome::Created { .. })) {
            problems.push(format!("create {name} failed"));
        }
        let first = step_command(&service, &name);
        if !matches!(service.apply(&first), Ok(Outcome::Stepped { .. })) {
            problems.push(format!("first step of {name} failed"));
        }
    }
    service
}

pub fn service_churn(args: &Args) -> Report {
    let mut layers = Layers::new(args.trace);
    let mut problems = Vec::new();
    let specs: Vec<SessionSpec> = (0..FLEET.len()).map(fleet_spec).collect();
    let names: Vec<String> = FLEET.iter().map(|f| f.0.to_string()).collect();
    let overfill = {
        let trace = generate_trace(&specs[0]);
        let platform = trace.platform_at(OVERFILL_STEP);
        let net = net_of(&platform);
        (platform, trace.source_at(OVERFILL_STEP), net)
    };

    let mut setup = Vec::new();
    let mut fleet = None;
    let mut dir = PathBuf::new();
    for rep in 0..SETUP_REPS {
        if fleet.take().is_some() {
            let _ = std::fs::remove_dir_all(&dir);
        }
        dir = work_dir(&format!("fleet{rep}"));
        let t = Instant::now();
        fleet = Some(setup_fleet(&dir, &specs, &mut problems));
        setup.push(t.elapsed().as_secs_f64());
    }
    let mut service = fleet.expect("fleet set up");
    if args.trace {
        let t = Instant::now();
        specs.iter().for_each(|s| drop(generate_platform(s)));
        layers.set("platform.generate_ms", ms_since(t));
        let t = Instant::now();
        specs.iter().for_each(|s| drop(generate_trace(s)));
        layers.set("platform.trace_ms", ms_since(t));
    }

    let mut op_ms = Vec::new();
    let mut apply_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut snapshot_kb, mut wal_kb) = (0.0, 0.0);
    let mut exhausted = false;
    let copy = work_dir("recovery");
    let (mut expected, mut recover, mut paused) = (Answers::new(), Vec::new(), 0.0);
    // `--seed` sets the order of the steps within every round. Which
    // session gets the round's resolve and query, and which rounds end in
    // a snapshot, are the same in every run: a resolve or a snapshot
    // changes warm solver state, so seeding them would change the state
    // at the recovery point and the work of every later step.

    Obs::start(args.trace);
    let start = Instant::now();
    let mut round = 0usize;
    let timed = |paused: f64| start.elapsed().as_secs_f64() - paused;
    while !exhausted && (round < RECOVER_ROUND || timed(paused) < args.seconds) {
        let order = permutation(mix(args.seed, &[5, round as u64]), names.len());
        exhausted = order.iter().any(|&i| {
            let s = service.session(&names[i]).expect("session exists");
            s.steps_done() >= s.trace_len()
        });
        if exhausted {
            break;
        }
        let mut extras = vec![
            Command::Resolve {
                session: names[round % names.len()].clone(),
            },
            Command::QuerySchedule {
                session: names[(round + 3) % names.len()].clone(),
            },
        ];
        let snapshot = round % SNAPSHOT_EVERY == SNAPSHOT_EVERY - 1;
        if snapshot {
            extras.push(Command::Snapshot);
        }
        for k in 0..order.len() + extras.len() {
            let is_step = k < order.len();
            let command = match order.get(k) {
                Some(&i) => step_command(&service, &names[i]),
                None => extras[k - order.len()].clone(),
            };
            let t = Instant::now();
            let outcome = service.apply(&command);
            let ms = ms_since(t);
            apply_ms.entry(apply_kind(&command)).or_default().push(ms);
            match outcome {
                Ok(Outcome::Stepped { .. }) if is_step => {
                    attempted += 1;
                    op_ms.push(ms);
                    if let Some(q) = service
                        .session(command.session().unwrap())
                        .and_then(|s| s.schedule_stats())
                    {
                        layers.add("sched.slices_per_period", q.slices_per_period as f64);
                        layers.add("sched.transfers", q.transfers as f64);
                    }
                }
                Ok(Outcome::Resolved { tp, .. }) => {
                    let s = service.session(command.session().unwrap()).unwrap();
                    let last = s.log().last().map_or(f64::NAN, |st| st.tp);
                    if !check::close(tp, last, 1e-6) {
                        problems.push(format!("resolve gave {tp}, last step {last}"));
                    }
                }
                Ok(Outcome::Schedule(answer)) => {
                    let s = service.session(command.session().unwrap()).unwrap();
                    if answer.is_none() || answer != s.schedule_stats() {
                        problems.push("query answer differs from the session".into());
                    }
                }
                Ok(Outcome::SnapshotWritten) => {}
                other => {
                    if is_step {
                        attempted += 1;
                        failed += 1;
                    }
                    problems.push(format!("{command:?}: {other:?}"));
                }
            }
        }
        if snapshot && round + 1 == DURABLE_ROUND {
            snapshot_kb = kb(&dir.join("snapshot.bin"));
            wal_kb = kb(&dir.join("wal.bin"));
        }
        attempted += 3;
        failed += known_fault_ops(&mut problems);
        match overfill_op(&overfill.0, overfill.1, &overfill.2) {
            Err(msg) if msg.starts_with(PORT_OVERFILL) => failed += 1,
            Err(msg) => {
                failed += 1;
                problems.push(format!("unexpected bound failure: {msg}"));
            }
            Ok(()) => problems.push("the known port overfill no longer fires".into()),
        }
        round += 1;
        if round >= RECOVER_ROUND && (round - RECOVER_ROUND).is_multiple_of(RECOVER_EVERY) {
            let t = Instant::now();
            if args.trace {
                bcast_obs::disable();
            }
            if round == RECOVER_ROUND {
                expected = live_answers(&mut service, &names);
                std::fs::create_dir_all(&copy).expect("recovery copy");
                for file in ["snapshot.bin", "wal.bin"] {
                    std::fs::copy(dir.join(file), copy.join(file)).expect("recovery copy");
                }
            }
            recover.push(reopen_checked(&copy, &expected, false, &mut problems).0);
            if args.trace {
                bcast_obs::enable();
            }
            paused += t.elapsed().as_secs_f64();
        }
    }
    let wall_s = timed(paused);
    let obs = Obs::read();
    if args.trace {
        bcast_obs::disable();
    }

    // Correctness pass over every step every session took. A step whose
    // cold bound overfills a port on a platform with a failed link is the
    // known bound fault: it is counted, not reported as a problem.
    let (mut tree_ratios, mut sched_ratios) = (Vec::new(), Vec::new());
    let mut overfilled = 0usize;
    for (i, name) in names.iter().enumerate() {
        let trace = generate_trace(&specs[i]);
        for st in service.session(name).expect("session exists").log() {
            let has_failed_link = trace.step(st.step).failed_count() > 0;
            match check_step(
                &trace.platform_at(st.step),
                trace.source_at(st.step).index(),
                st,
            ) {
                Ok((tree, sched, ports)) => {
                    tree_ratios.push(tree);
                    sched_ratios.push(sched);
                    match ports {
                        Ok(()) => {}
                        Err(e) if has_failed_link && e.starts_with(PORT_OVERFILL) => {
                            overfilled += 1
                        }
                        Err(e) => problems.push(format!("{name} step {}: {e}", st.step)),
                    }
                }
                Err(e) => problems.push(format!("{name} step {}: {e}", st.step)),
            }
        }
    }
    drop(service);
    let (_, reopened) = reopen_checked(&copy, &expected, true, &mut problems);
    let replayed = reopened.recovery().replayed as f64;
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&copy);
    let recover_ms = median(&recover);

    let e2e = EndToEnd {
        setup_s: median(&setup),
        wall_s,
        tree_tp_ratio: mean(&tree_ratios),
        schedule_tp_ratio: mean(&sched_ratios),
        op_ms,
    };
    let ops = e2e.op_ms.len();
    let metrics = if args.trace {
        layers.set("trace.ops_per_s", e2e.ops_per_s());
        for (kind, v) in &apply_ms {
            layers.set(&format!("service.apply_ms.{kind}"), mean(v));
        }
        layers.set("service.snapshot_kb", snapshot_kb);
        layers.set("service.wal_kb", wal_kb);
        layers.set("service.recover_ms", recover_ms);
        layers.set("service.replayed", replayed);
        layers.set("cut_gen.ms", obs.span_ms("cut_gen.solve"));
        layers.set("sched.synthesize_ms", obs.span_ms("sched.synthesize"));
        layers.set(
            "sched.repair_ms",
            obs.span_ms("sched.repair") + obs.span_ms("sched.repair_churn"),
        );
        layers.set("sim.replay_ms", obs.span_ms("sim.replay"));
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
            ("trace_exhausted".into(), exhausted.to_string()),
            ("steps_checked".into(), tree_ratios.len().to_string()),
            ("steps_port_overfilled".into(), overfilled.to_string()),
        ],
    }
}

/// Checks one logged step against a cold solve of the same trace
/// platform; returns (best tree / bound, simulated schedule / bound, the
/// port half of the bound's certificate).
fn check_step(
    platform: &Platform,
    source: usize,
    st: &StepStats,
) -> Result<(f64, f64, Result<(), String>), String> {
    let src = NodeId(source as u32);
    let cold = optimal_throughput(platform, src, SLICE, OptimalMethod::CutGeneration)
        .map_err(|e| format!("cold bound: {e}"))?;
    if !check::close(st.tp, cold.throughput, 1e-6) {
        return Err(format!(
            "step TP {} but a cold solve gives {}",
            st.tp, cold.throughput
        ));
    }
    if st.sim_tp > st.tp * (1.0 + check::EXACT) {
        return Err(format!("simulated {} above the bound {}", st.sim_tp, st.tp));
    }
    let net = net_of(platform);
    let mut trees = Vec::new();
    for (kind, stem) in KINDS {
        let s =
            build_structure_with_loads(platform, src, kind, CommModel::OnePort, SLICE, Some(&cold))
                .map_err(|e| format!("{stem}: {e}"))?;
        let tp = steady_state_throughput(platform, &s, CommModel::OnePort, SLICE);
        trees.push((
            s.edges().iter().map(|e| e.index()).collect(),
            tp,
            kind != HeuristicKind::Binomial,
        ));
    }
    check::check_flows(&net, source, cold.throughput, &cold.edge_load)?;
    let ports = check::check_ports(&net, &cold.edge_load);
    let best = check::check_plan(&net, source, &trees, cold.throughput, None)?;
    Ok((best / cold.throughput, st.sim_tp / st.tp, ports))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_known_port_overfill_fires() {
        let trace = generate_trace(&fleet_spec(0));
        let platform = trace.platform_at(OVERFILL_STEP);
        assert!(trace.step(OVERFILL_STEP).failed_count() > 0);
        let net = net_of(&platform);
        let source = trace.source_at(OVERFILL_STEP);
        assert!(
            matches!(overfill_op(&platform, source, &net), Err(m) if m.starts_with(PORT_OVERFILL))
        );
    }
}
