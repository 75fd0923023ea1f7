//! Figures 4–6 of the paper.

use std::time::Instant;

use aigs_core::policy::{GreedyDagPolicy, GreedyNaivePolicy, GreedyTreePolicy, WigsPolicy};
use aigs_core::{
    evaluate_exhaustive, run_online_trace, run_session, NodeWeights, Policy, SearchContext,
    TargetOracle,
};
use aigs_data::{object_trace, Dataset, WeightSetting};
use aigs_graph::NodeId;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::config::ExperimentConfig;
use crate::report::{fmt, fmt4, TextTable};

/// A plotted series: label plus `(x, y)` points.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// Data points.
    pub points: Vec<(f64, f64)>,
}

fn greedy_for(dataset: &Dataset) -> Box<dyn Policy + Send> {
    if dataset.dag.is_tree() {
        Box::new(GreedyTreePolicy::new())
    } else {
        Box::new(GreedyDagPolicy::new())
    }
}

/// Fig. 4: average cost vs number of categorised objects, online-learned
/// distribution, averaged over `cfg.traces` shuffled traces. Baselines:
/// WIGS and the greedy policy given the offline (true) distribution.
pub fn fig4(cfg: &ExperimentConfig, dataset: &Dataset) -> (TextTable, Vec<Series>) {
    let window = (cfg.trace_len / 10).max(1);
    let weights = dataset.empirical_weights();

    // Baseline horizontal lines, restricted to the *stream* distribution
    // (the window average only ever sees targets with objects).
    let stream_cost = |policy: &mut dyn Policy| -> f64 {
        let ctx = SearchContext::new(&dataset.dag, &weights);
        let report = evaluate_exhaustive(policy, &ctx).expect("sound policy");
        report.expected_cost
    };
    let mut wigs = WigsPolicy::new();
    let wigs_cost = stream_cost(&mut wigs);
    let mut offline = greedy_for(dataset);
    let offline_cost = stream_cost(offline.as_mut());

    // Online runs.
    let mut window_sums: Vec<f64> = Vec::new();
    let mut windows = 0usize;
    for trace_idx in 0..cfg.traces {
        let mut rng =
            ChaCha8Rng::seed_from_u64(cfg.sub_seed(&format!("fig4-{}-{trace_idx}", dataset.name)));
        let trace = object_trace(&dataset.object_counts, cfg.trace_len, &mut rng);
        let mut policy = greedy_for(dataset);
        let points =
            run_online_trace(&dataset.dag, &trace, policy.as_mut(), window, 1).expect("online run");
        windows = windows.max(points.len());
        if window_sums.len() < points.len() {
            window_sums.resize(points.len(), 0.0);
        }
        for (i, p) in points.iter().enumerate() {
            window_sums[i] += p.avg_cost;
        }
    }
    let online: Vec<(f64, f64)> = window_sums
        .iter()
        .take(windows)
        .enumerate()
        .map(|(i, &s)| (((i + 1) * window) as f64, s / cfg.traces as f64))
        .collect();

    let mut t = TextTable::new(
        format!(
            "Fig. 4 — average cost vs #categorized objects ({})",
            dataset.name
        ),
        vec!["#objects", "online greedy", "offline greedy", "WIGS"],
    );
    for &(x, y) in &online {
        t.push_row(vec![
            (x as u64).to_string(),
            fmt(y),
            fmt(offline_cost),
            fmt(wigs_cost),
        ]);
    }
    let series = vec![
        Series {
            label: format!("{} online greedy", dataset.name),
            points: online,
        },
        Series {
            label: format!("{} offline greedy", dataset.name),
            points: vec![(0.0, offline_cost)],
        },
        Series {
            label: format!("{} wigs", dataset.name),
            points: vec![(0.0, wigs_cost)],
        },
    ];
    (t, series)
}

/// Fig. 5: cost vs the Zipf parameter `a`, with the equal-probability cost
/// as the reference line.
pub fn fig5(cfg: &ExperimentConfig, dataset: &Dataset) -> (TextTable, Vec<Series>) {
    let params = [1.5, 2.0, 2.5, 3.0, 3.5, 4.0];
    let n = dataset.dag.node_count();

    // Reference: equal probabilities.
    let equal_cost = {
        let w = NodeWeights::uniform(n);
        let ctx = SearchContext::new(&dataset.dag, &w);
        let mut p = greedy_for(dataset);
        evaluate_exhaustive(p.as_mut(), &ctx)
            .expect("sound policy")
            .expected_cost
    };

    let mut zipf_points = Vec::new();
    for &a in &params {
        let mut total = 0.0;
        for rep in 0..cfg.repetitions {
            let mut rng = ChaCha8Rng::seed_from_u64(
                cfg.sub_seed(&format!("fig5-{}-{a}-{rep}", dataset.name)),
            );
            let w = WeightSetting::Zipf(a).assign(n, &mut rng);
            let ctx = SearchContext::new(&dataset.dag, &w);
            let mut p = greedy_for(dataset);
            total += evaluate_exhaustive(p.as_mut(), &ctx)
                .expect("sound policy")
                .expected_cost;
        }
        zipf_points.push((a, total / cfg.repetitions as f64));
    }

    let mut t = TextTable::new(
        format!("Fig. 5 — cost vs Zipf parameter ({})", dataset.name),
        vec!["Zipf a", "greedy", "equal-prob reference"],
    );
    for &(a, c) in &zipf_points {
        t.push_row(vec![format!("{a:.1}"), fmt(c), fmt(equal_cost)]);
    }
    let series = vec![
        Series {
            label: format!("{} greedy under Zipf", dataset.name),
            points: zipf_points,
        },
        Series {
            label: format!("{} equal-probability reference", dataset.name),
            points: vec![(0.0, equal_cost)],
        },
    ];
    (t, series)
}

/// Fig. 6: per-search running time (milliseconds) by target depth, naive
/// vs efficient instantiation.
pub fn fig6(cfg: &ExperimentConfig, dataset: &Dataset) -> (TextTable, Vec<Series>) {
    let weights = dataset.empirical_weights();
    let depths = dataset.dag.depths();
    let max_depth = *depths.iter().max().unwrap_or(&0);

    // Bucket nodes by depth.
    let mut by_depth: Vec<Vec<NodeId>> = vec![Vec::new(); max_depth as usize + 1];
    for v in dataset.dag.nodes() {
        by_depth[depths[v.index()] as usize].push(v);
    }

    let fast_name = if dataset.dag.is_tree() {
        "GreedyTree"
    } else {
        "GreedyDAG"
    };
    let mut fast_series = Vec::new();
    let mut naive_series = Vec::new();
    let mut t = TextTable::new(
        format!("Fig. 6 — running time by target depth ({})", dataset.name),
        vec!["depth", &format!("{fast_name} (ms)"), "GreedyNaive (ms)"],
    );

    let mut rng = ChaCha8Rng::seed_from_u64(cfg.sub_seed(&format!("fig6-{}", dataset.name)));
    for (d, bucket) in by_depth.iter().enumerate() {
        if bucket.is_empty() {
            continue;
        }
        let pick = |rng: &mut ChaCha8Rng, count: usize| -> Vec<NodeId> {
            (0..count)
                .map(|_| *bucket.choose(rng).expect("non-empty"))
                .collect()
        };
        let fast_targets = pick(&mut rng, cfg.targets_per_depth);
        let naive_targets = pick(&mut rng, cfg.naive_targets_per_depth);

        let time_policy = |policy: &mut dyn Policy, targets: &[NodeId]| -> f64 {
            let ctx = SearchContext::new(&dataset.dag, &weights);
            let start = Instant::now();
            for &z in targets {
                let mut oracle = TargetOracle::new(&dataset.dag, z);
                let out = run_session(policy, &ctx, &mut oracle, None).expect("sound policy");
                assert_eq!(out.target, z);
            }
            start.elapsed().as_secs_f64() * 1e3 / targets.len() as f64
        };

        let mut fast: Box<dyn Policy + Send> = if dataset.dag.is_tree() {
            Box::new(GreedyTreePolicy::new())
        } else {
            Box::new(GreedyDagPolicy::new())
        };
        let fast_ms = time_policy(fast.as_mut(), &fast_targets);
        let mut naive = GreedyNaivePolicy::new();
        let naive_ms = time_policy(&mut naive, &naive_targets);

        t.push_row(vec![d.to_string(), fmt4(fast_ms), fmt4(naive_ms)]);
        fast_series.push((d as f64, fast_ms));
        naive_series.push((d as f64, naive_ms));
    }

    let series = vec![
        Series {
            label: format!("{} {fast_name}", dataset.name),
            points: fast_series,
        },
        Series {
            label: format!("{} GreedyNaive", dataset.name),
            points: naive_series,
        },
    ];
    (t, series)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aigs_data::Scale;

    fn micro_cfg() -> ExperimentConfig {
        ExperimentConfig {
            scale: Scale::Small,
            repetitions: 1,
            trace_len: 400,
            traces: 1,
            targets_per_depth: 2,
            naive_targets_per_depth: 1,
            ..ExperimentConfig::default()
        }
    }

    fn micro_dataset() -> Dataset {
        // A hand-scaled dataset so figure tests run quickly.
        let mut d = aigs_data::amazon_like(Scale::Small, 1);
        // Shrink: take the small dataset as-is; tests only check structure.
        d.name = "amazon";
        d
    }

    #[test]
    fn fig5_series_monotone_in_skew() {
        let cfg = micro_cfg();
        let d = micro_dataset();
        let (_, series) = fig5(&cfg, &d);
        let zipf = &series[0].points;
        // Cost must increase with a (less skew => closer to equal-prob).
        assert!(zipf.first().unwrap().1 < zipf.last().unwrap().1);
        // And approach the equal reference from below.
        let equal = series[1].points[0].1;
        assert!(zipf.last().unwrap().1 <= equal + 0.5);
    }

    #[test]
    fn fig6_fast_beats_naive() {
        let cfg = micro_cfg();
        let d = micro_dataset();
        let (table, series) = fig6(&cfg, &d);
        assert!(!table.rows.is_empty());
        // Summed over depths, the efficient instantiation must be faster
        // than the naive scan. The margin is kept loose because unit tests
        // run with CPU contention from parallel tests; the real separation
        // (3 orders of magnitude in the paper, similar here in release
        // mode) is what `experiments fig6` prints.
        let fast: f64 = series[0].points.iter().map(|p| p.1).sum();
        let naive: f64 = series[1].points.iter().map(|p| p.1).sum();
        assert!(
            fast * 2.0 < naive,
            "fast {fast}ms vs naive {naive}ms lacks separation"
        );
    }
}
