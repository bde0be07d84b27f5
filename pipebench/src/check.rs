//! Independent output checker.
//!
//! Everything here works on a plain edge list ([`Net`]) built from the
//! platform's raw link data, and re-derives the paper's quantities from
//! first principles: the one-port period of a tree, the port constraints of
//! the MTP bound, and per-destination max-flows. None of it calls the
//! program's own tree, throughput, or flow code, so a bug there cannot hide
//! behind the same bug here.

/// A directed platform: `edges[e] = (src, dst, link time of one slice)`.
#[derive(Clone, Debug)]
pub struct Net {
    pub nodes: usize,
    pub edges: Vec<(usize, usize, f64)>,
}

/// Relative tolerance for comparing throughputs the program computed with
/// the ones recomputed here.
pub const EXACT: f64 = 1e-9;
/// Relative tolerance on the bound's max-flow certificate (the LP is solved
/// in floating point to about this accuracy).
pub const FLOW: f64 = 1e-6;

/// Checks that `tree` (edge indices) is a spanning arborescence of `net`
/// rooted at `source` and returns its one-port period: the largest, over
/// all nodes, of the summed link times to its children.
pub fn tree_period(net: &Net, source: usize, tree: &[usize]) -> Result<f64, String> {
    let n = net.nodes;
    if tree.len() + 1 != n {
        return Err(format!("{} edges for {} nodes", tree.len(), n));
    }
    let mut parent = vec![usize::MAX; n];
    let mut send = vec![0.0f64; n];
    let mut children = vec![Vec::new(); n];
    for &e in tree {
        let &(u, v, t) = net.edges.get(e).ok_or(format!("edge {e} out of range"))?;
        if v == source {
            return Err(format!("edge {e} enters the source"));
        }
        if parent[v] != usize::MAX {
            return Err(format!("node {v} has two parents"));
        }
        parent[v] = u;
        send[u] += t;
        children[u].push(v);
    }
    let mut seen = vec![false; n];
    let mut stack = vec![source];
    seen[source] = true;
    let mut reached = 1;
    while let Some(u) = stack.pop() {
        for &v in &children[u] {
            if !seen[v] {
                seen[v] = true;
                reached += 1;
                stack.push(v);
            }
        }
    }
    if reached != n {
        return Err(format!(
            "{} of {} nodes reachable from the source",
            reached, n
        ));
    }
    Ok(send.into_iter().fold(0.0, f64::max))
}

/// Checks that the distinct edges `overlay` reach every node from
/// `source` and returns the one-port period of pipelining along them: the
/// largest, over all nodes, of the summed link times of its outgoing or
/// of its incoming overlay edges. The paper's binomial overlay is routed
/// along shortest paths and need not be a tree; on a tree this period
/// equals [`tree_period`].
pub fn overlay_period(net: &Net, source: usize, overlay: &[usize]) -> Result<f64, String> {
    let n = net.nodes;
    let mut used = vec![false; net.edges.len()];
    let mut send = vec![0.0f64; n];
    let mut recv = vec![0.0f64; n];
    let mut out = vec![Vec::new(); n];
    for &e in overlay {
        let &(u, v, t) = net.edges.get(e).ok_or(format!("edge {e} out of range"))?;
        if std::mem::replace(&mut used[e], true) {
            return Err(format!("edge {e} listed twice"));
        }
        send[u] += t;
        recv[v] += t;
        out[u].push(v);
    }
    let mut seen = vec![false; n];
    let mut stack = vec![source];
    seen[source] = true;
    while let Some(u) = stack.pop() {
        for &v in &out[u] {
            if !std::mem::replace(&mut seen[v], true) {
                stack.push(v);
            }
        }
    }
    if let Some(v) = seen.iter().position(|&s| !s) {
        return Err(format!("node {v} unreachable from the source"));
    }
    Ok((0..n).map(|u| send[u].max(recv[u])).fold(0.0, f64::max))
}

/// `|a - b| <= tol * max(|a|, |b|)`.
pub fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs())
}

/// Checks the MTP certificate: `loads` meet every one-port constraint
/// ([`check_ports`]) and give every destination a max-flow of at least
/// `tp · (1 − FLOW)` ([`check_flows`]).
pub fn check_bound(net: &Net, source: usize, tp: f64, loads: &[f64]) -> Result<(), String> {
    check_ports(net, loads)?;
    check_flows(net, source, tp, loads)
}

/// The port half of the certificate: no node sends or receives for longer
/// than the period, to a relative `FLOW`.
pub fn check_ports(net: &Net, loads: &[f64]) -> Result<(), String> {
    if loads.len() != net.edges.len() {
        return Err(format!(
            "{} loads for {} edges",
            loads.len(),
            net.edges.len()
        ));
    }
    let mut out = vec![0.0f64; net.nodes];
    let mut inp = vec![0.0f64; net.nodes];
    for (&(u, v, t), &x) in net.edges.iter().zip(loads) {
        if x.is_nan() || x < -EXACT {
            return Err(format!("negative load {x}"));
        }
        out[u] += x * t;
        inp[v] += x * t;
    }
    for u in 0..net.nodes {
        if out[u] > 1.0 + FLOW || inp[u] > 1.0 + FLOW {
            return Err(format!(
                "{PORT_OVERFILL}: node {u} busy {:.9}/{:.9} of the period",
                out[u], inp[u]
            ));
        }
    }
    Ok(())
}

/// How [`check_ports`] reports a port busy longer than the period.
pub const PORT_OVERFILL: &str = "port overfilled";

/// The flow half of the certificate: `tp` is a positive number and
/// every destination gets a max-flow of at least `tp · (1 − FLOW)` over
/// the loads, computed by [`max_flow`].
pub fn check_flows(net: &Net, source: usize, tp: f64, loads: &[f64]) -> Result<(), String> {
    if !(tp.is_finite() && tp > 0.0) {
        return Err(format!("bound {tp} is not a positive number"));
    }
    if loads.len() != net.edges.len() {
        return Err(format!(
            "{} loads for {} edges",
            loads.len(),
            net.edges.len()
        ));
    }
    let caps: Vec<f64> = loads.iter().map(|&x| x.max(0.0)).collect();
    let need = tp * (1.0 - FLOW);
    for d in (0..net.nodes).filter(|&d| d != source) {
        let flow = max_flow(net, &caps, source, d, need);
        if flow < need {
            return Err(format!("destination {d} gets flow {flow} < bound {tp}"));
        }
    }
    Ok(())
}

/// Dinic max-flow from `s` to `t` over `caps` (indexed like `net.edges`),
/// stopping early once `target` is reached.
pub fn max_flow(net: &Net, caps: &[f64], s: usize, t: usize, target: f64) -> f64 {
    // Residual arcs in pairs: arc 2e forward, arc 2e+1 its reverse.
    let n = net.nodes;
    let mut head = Vec::with_capacity(2 * net.edges.len());
    let mut cap = Vec::with_capacity(2 * net.edges.len());
    let mut adj = vec![Vec::new(); n];
    for (e, &(u, v, _)) in net.edges.iter().enumerate() {
        adj[u].push(head.len());
        head.push(v);
        cap.push(caps[e]);
        adj[v].push(head.len());
        head.push(u);
        cap.push(0.0);
    }
    const EPS: f64 = 1e-12;
    let mut flow = 0.0;
    let mut level = vec![usize::MAX; n];
    let mut next = vec![0usize; n];
    while flow < target {
        level.iter_mut().for_each(|l| *l = usize::MAX);
        level[s] = 0;
        let mut queue = std::collections::VecDeque::from([s]);
        while let Some(u) = queue.pop_front() {
            for &a in &adj[u] {
                if cap[a] > EPS && level[head[a]] == usize::MAX {
                    level[head[a]] = level[u] + 1;
                    queue.push_back(head[a]);
                }
            }
        }
        if level[t] == usize::MAX {
            break;
        }
        next.iter_mut().for_each(|i| *i = 0);
        loop {
            let pushed = augment(
                s,
                t,
                f64::INFINITY,
                &adj,
                &head,
                &mut cap,
                &level,
                &mut next,
            );
            if pushed <= EPS {
                break;
            }
            flow += pushed;
        }
    }
    flow
}

#[allow(clippy::too_many_arguments)]
fn augment(
    u: usize,
    t: usize,
    limit: f64,
    adj: &[Vec<usize>],
    head: &[usize],
    cap: &mut [f64],
    level: &[usize],
    next: &mut [usize],
) -> f64 {
    if u == t {
        return limit;
    }
    while next[u] < adj[u].len() {
        let a = adj[u][next[u]];
        let v = head[a];
        if cap[a] > 1e-12 && level[v] == level[u] + 1 {
            let pushed = augment(v, t, limit.min(cap[a]), adj, head, cap, level, next);
            if pushed > 0.0 {
                cap[a] -= pushed;
                cap[a ^ 1] += pushed;
                return pushed;
            }
        }
        next[u] += 1;
    }
    0.0
}

/// One heuristic's structure: its edges, the throughput the program
/// reported for it, and whether it must be a spanning arborescence.
pub type Structure = (Vec<usize>, f64, bool);

/// Checks one broadcast plan: every heuristic structure (with the
/// throughput the program reported for it) against its recomputed period,
/// and the ordering best structure ≤ schedule ≤ bound. Returns the best
/// structure's throughput. The bound's own certificate is
/// [`check_bound`].
pub fn check_plan(
    net: &Net,
    source: usize,
    trees: &[Structure],
    tp: f64,
    schedule_tp: Option<f64>,
) -> Result<f64, String> {
    let mut best = 0.0f64;
    for (i, (tree, reported, strict)) in trees.iter().enumerate() {
        let period = match strict {
            true => tree_period(net, source, tree),
            false => overlay_period(net, source, tree),
        }
        .map_err(|e| format!("structure {i}: {e}"))?;
        if !close(1.0 / period, *reported, EXACT) {
            return Err(format!(
                "tree {i}: throughput {reported} but period {period} gives {}",
                1.0 / period
            ));
        }
        best = best.max(*reported);
    }
    if best > tp * (1.0 + EXACT) {
        return Err(format!("best tree {best} above the bound {tp}"));
    }
    if let Some(sched) = schedule_tp {
        if sched > tp * (1.0 + EXACT) {
            return Err(format!("schedule {sched} above the bound {tp}"));
        }
        if sched < best * (1.0 - EXACT) {
            return Err(format!("schedule {sched} below the best tree {best}"));
        }
    }
    Ok(best)
}

/// Checks a periodic schedule: every slice's tree is a spanning
/// arborescence rooted at `source`, and within one `period` no port is
/// busy longer than the period — so `trees.len() / period` slices per time
/// unit is feasible under the one-port model.
pub fn check_schedule(
    net: &Net,
    source: usize,
    trees: &[Vec<usize>],
    period: f64,
) -> Result<(), String> {
    if trees.is_empty() || !(period.is_finite() && period > 0.0) {
        return Err(format!("{} trees in a period of {period}", trees.len()));
    }
    let mut send = vec![0.0f64; net.nodes];
    let mut recv = vec![0.0f64; net.nodes];
    for (j, tree) in trees.iter().enumerate() {
        tree_period(net, source, tree).map_err(|e| format!("slice {j}: {e}"))?;
        for &e in tree {
            let (u, v, t) = net.edges[e];
            send[u] += t;
            recv[v] += t;
        }
    }
    for u in 0..net.nodes {
        let busy = send[u].max(recv[u]);
        if busy > period * (1.0 + EXACT) {
            return Err(format!("node {u} busy {busy} in a period of {period}"));
        }
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Source 0 with two fast links to 1 and 2, slow cross links 1↔2, and
    /// fast links from 1 and 2 into 3.
    ///
    /// By hand: every spanning arborescence either makes the source send
    /// twice, or makes 1 or 2 send over a cross link (time 2) — period 2,
    /// throughput 1/2. The MTP optimum is 3/4: loads 1/2 on 0→1 and 0→2,
    /// 1/4 on both cross links and 1/2 on 1→3 and 2→3 fill the ports of
    /// 0, 1 and 2 exactly, and each of 1 and 2 receives 1/2 directly plus
    /// 1/4 via the other. Any better solution would, averaged with its
    /// mirror image, give a symmetric one with `x + y ≥ TP`, `x ≤ 1/2`,
    /// `x + 2y ≤ 1` (x the source loads, y the cross loads), so TP ≤ 3/4.
    pub(crate) fn diamond() -> Net {
        Net {
            nodes: 4,
            edges: vec![
                (0, 1, 1.0), // 0
                (0, 2, 1.0), // 1
                (1, 2, 2.0), // 2
                (2, 1, 2.0), // 3
                (1, 3, 1.0), // 4
                (2, 3, 1.0), // 5
            ],
        }
    }

    pub(crate) const DIAMOND_TP: f64 = 0.75;
    pub(crate) const DIAMOND_LOADS: [f64; 6] = [0.5, 0.5, 0.25, 0.25, 0.5, 0.5];

    #[test]
    fn tree_periods_match_hand_values() {
        let net = diamond();
        assert_eq!(tree_period(&net, 0, &[0, 1, 4]), Ok(2.0));
        assert_eq!(tree_period(&net, 0, &[0, 2, 5]), Ok(2.0));
        assert_eq!(tree_period(&net, 0, &[1, 3, 4]), Ok(2.0));
        assert_eq!(tree_period(&net, 0, &[0, 1, 5]), Ok(2.0));
    }

    #[test]
    fn overlays_may_share_receivers() {
        let net = diamond();
        // 0→1, 0→2, 1→3, 2→3: node 0 sends 2, node 3 receives 2.
        assert_eq!(overlay_period(&net, 0, &[0, 1, 4, 5]), Ok(2.0));
        assert_eq!(
            overlay_period(&net, 0, &[0, 2, 4]),
            tree_period(&net, 0, &[0, 2, 4])
        );
        assert!(overlay_period(&net, 0, &[0, 4]).is_err(), "2 unreachable");
        assert!(
            overlay_period(&net, 0, &[0, 0, 1, 4]).is_err(),
            "edge twice"
        );
        assert!(tree_period(&net, 0, &[0, 1, 4, 5]).is_err());
    }

    #[test]
    fn non_arborescences_are_refused() {
        let net = diamond();
        assert!(tree_period(&net, 0, &[0, 1]).is_err(), "too few edges");
        assert!(tree_period(&net, 0, &[0, 3, 4]).is_err(), "node 1 twice");
        assert!(
            tree_period(&net, 0, &[2, 3, 4]).is_err(),
            "cycle, 0 cut off"
        );
        assert!(
            tree_period(&net, 1, &[0, 2, 4]).is_err(),
            "enters the source"
        );
    }

    #[test]
    fn hand_bound_is_certified_and_nothing_above_it() {
        let net = diamond();
        check_bound(&net, 0, DIAMOND_TP, &DIAMOND_LOADS).unwrap();
        assert!(check_bound(&net, 0, 0.8, &DIAMOND_LOADS).is_err());
        let mut over = DIAMOND_LOADS;
        over[2] = 0.3; // node 1 sends 0.6 + 0.5 > 1
        assert!(check_bound(&net, 0, 0.7, &over).is_err());
        assert!(matches!(check_ports(&net, &over), Err(m) if m.starts_with(PORT_OVERFILL)));
        check_flows(&net, 0, 0.7, &over).unwrap();
    }

    #[test]
    fn max_flow_matches_hand_cuts() {
        let net = diamond();
        let f = |d| max_flow(&net, &DIAMOND_LOADS, 0, d, f64::INFINITY);
        assert!(close(f(1), 0.75, 1e-12));
        assert!(close(f(2), 0.75, 1e-12));
        assert!(close(f(3), 1.0, 1e-12));
    }

    #[test]
    fn schedule_ports_fit_the_period() {
        let net = diamond();
        // Slice 0 goes 0→1, 0→2, 1→3; slice 1 goes 0→2, 2→1, 2→3. Node 0
        // sends 1+1+1, node 2 sends 2+1, node 1 receives 1+2: period 3.
        let trees = [vec![0, 1, 4], vec![1, 3, 5]];
        check_schedule(&net, 0, &trees, 3.0).unwrap();
        assert!(check_schedule(&net, 0, &trees, 2.9).is_err());
        assert!(check_schedule(&net, 0, &[vec![0, 2, 3]], 9.0).is_err());
    }

    #[test]
    fn plan_ordering_is_enforced() {
        let net = diamond();
        let trees = vec![(vec![0, 1, 4], 0.5, true), (vec![0, 2, 5], 0.5, true)];
        let plan = |s| check_plan(&net, 0, &trees, DIAMOND_TP, s);
        assert_eq!(plan(Some(0.7)), Ok(0.5));
        assert!(plan(Some(0.76)).is_err(), "schedule above the bound");
        assert!(plan(Some(0.49)).is_err(), "schedule below the best tree");
        let wrong = vec![(vec![0, 1, 4], 0.6, true)];
        assert!(check_plan(&net, 0, &wrong, DIAMOND_TP, None).is_err());
    }
}
