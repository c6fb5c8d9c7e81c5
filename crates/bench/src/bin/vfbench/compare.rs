//! `vfbench --compare A B`: set-against-set verdicts under the bounds of
//! [`END_TO_END`] (the bounds `BENCHMARK.json` declares).
//!
//! A and B are result files written with `--out` (one or more runs
//! each, typically one run per seed). For every (workload, metric)
//! pair in either set the tool reports each side's median and quartiles
//! over its runs, the ratio B/A, and a verdict:
//!
//! * for a bounded metric: `missing` when only one set has it,
//!   `unresolved` when either side's spread exceeds the bound, `worse`
//!   when B is worse than A by more than the bound, `ok` otherwise;
//! * for `fail_frac`: `failed` unless every run of both sets has it at 0;
//! * for the per-layer metrics, which have no bound: `-`.

use std::collections::{BTreeMap, BTreeSet};

use crate::measure::Stats;
use crate::{END_TO_END, FAIL_FRAC};

/// Compare two result files; returns the process exit code (0 when
/// every verdict is `ok` or `-`).
pub fn main(args: &[String]) -> i32 {
    let [a, b] = args else {
        eprintln!("usage: vfbench --compare A B");
        return 2;
    };
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("reading {path}: {e}"))
            .and_then(|text| parse_results(&text))
    };
    match read(a).and_then(|a| Ok((a, read(b)?))) {
        Ok((a, b)) => report(&a, &b),
        Err(e) => {
            eprintln!("vfbench --compare: {e}");
            2
        }
    }
}

/// `(workload, metric)` → `(unit, one value per run)`.
type Results = BTreeMap<(String, String), (String, Vec<f64>)>;

/// Read the `workload metric value unit median q1 q3 n` lines of a
/// result file (`#` lines are run headers).
fn parse_results(text: &str) -> Result<Results, String> {
    let mut out = Results::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        let f: Vec<&str> = line.split_whitespace().collect();
        let [workload, metric, value, unit, _, _, _, _] = f[..] else {
            return Err(format!("malformed result line: {line}"));
        };
        let value: f64 = value
            .parse()
            .map_err(|_| format!("bad value in result line: {line}"))?;
        out.entry((workload.to_string(), metric.to_string()))
            .or_insert_with(|| (unit.to_string(), Vec::new()))
            .1
            .push(value);
    }
    Ok(out)
}

fn report(a: &Results, b: &Results) -> i32 {
    let show = |s: Option<Stats>| {
        s.map_or("-".to_string(), |s| {
            format!("{:.6} [{:.6}, {:.6}] n={}", s.median, s.q1, s.q3, s.n)
        })
    };
    println!("workload metric unit | A median [q1, q3] | B median [q1, q3] | B/A bound verdict");
    let mut code = 0;
    for key in a.keys().chain(b.keys()).collect::<BTreeSet<_>>() {
        let (ra, rb) = (a.get(key), b.get(key));
        let unit = &ra.or(rb).expect("the key comes from one of the sets").0;
        let (sa, sb) = (ra.map(|r| Stats::of(&r.1)), rb.map(|r| Stats::of(&r.1)));
        let bounded = END_TO_END
            .iter()
            .find(|m| m.name == key.1)
            .and_then(|m| m.bound.map(|bound| (bound, m.better == "higher")));
        let (bound, verdict) = if key.1 == FAIL_FRAC {
            let clean =
                |r: Option<&(String, Vec<f64>)>| r.is_some_and(|r| r.1.iter().all(|&f| f == 0.0));
            (
                "0".to_string(),
                if clean(ra) && clean(rb) {
                    "ok"
                } else {
                    "failed"
                },
            )
        } else {
            match (bounded, sa, sb) {
                (None, ..) => ("-".to_string(), "-"),
                (Some((bound, _)), None, _) | (Some((bound, _)), _, None) => {
                    (format!("{bound}"), "missing")
                }
                (Some((bound, higher)), Some(sa), Some(sb)) => {
                    (format!("{bound}"), verdict(&sa, &sb, bound, higher))
                }
            }
        };
        if !matches!(verdict, "ok" | "-") {
            code = 1;
        }
        let ratio = match (sa, sb) {
            (Some(sa), Some(sb)) if sa.median != 0.0 => format!("{:.4}", sb.median / sa.median),
            _ => "-".to_string(),
        };
        println!(
            "{} {} {unit} | {} | {} | {ratio} {bound} {verdict}",
            key.0,
            key.1,
            show(sa),
            show(sb)
        );
    }
    code
}

/// The verdict for B against A under `bound`.
fn verdict(a: &Stats, b: &Stats, bound: f64, higher_is_better: bool) -> &'static str {
    if a.spread() > bound || b.spread() > bound {
        "unresolved"
    } else if (higher_is_better && b.median < a.median * (1.0 - bound))
        || (!higher_is_better && b.median > a.median * (1.0 + bound))
    {
        "worse"
    } else {
        "ok"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_direction() {
        let s = |m: f64| Stats::of(&[m * 0.99, m, m * 1.01]);
        assert_eq!(verdict(&s(1.0), &s(1.05), 0.1, false), "ok");
        assert_eq!(verdict(&s(1.0), &s(1.2), 0.1, false), "worse");
        assert_eq!(verdict(&s(1.0), &s(1.2), 0.1, true), "ok");
        assert_eq!(verdict(&s(1.0), &s(0.8), 0.1, true), "worse");
        let wide = Stats::of(&[0.5, 1.0, 1.5]);
        assert_eq!(verdict(&s(1.0), &wide, 0.1, false), "unresolved");
    }

    /// A bounded metric in one set only, or a run with failed points in
    /// either set, fails the comparison; an unbounded metric in one set
    /// only does not.
    #[test]
    fn missing_metrics_and_failed_points_fail_the_comparison() {
        let set = |text: &str| parse_results(text).unwrap();
        let good = set("w wall_s 1 s 1 1 1 9\nw fail_frac 0 ratio 0 0 0 1\n");
        assert_eq!(report(&good, &good), 0);
        let no_wall = set("w fail_frac 0 ratio 0 0 0 1\n");
        assert_eq!(report(&good, &no_wall), 1);
        assert_eq!(report(&no_wall, &good), 1);
        let failed = set("w wall_s 1 s 1 1 1 9\nw fail_frac 0.5 ratio 0.5 0.5 0.5 1\n");
        assert_eq!(report(&good, &failed), 1);
        assert_eq!(report(&failed, &good), 1);
        let no_fail_frac = set("w wall_s 1 s 1 1 1 9\n");
        assert_eq!(report(&good, &no_fail_frac), 1);
        let per_layer = set("w wall_s 1 s 1 1 1 9\nw fail_frac 0 ratio 0 0 0 1\n\
                             w sim.events_per_op 3 events/op 3 3 3 1\n");
        assert_eq!(report(&good, &per_layer), 0);
    }

    #[test]
    fn result_lines_group_by_workload_and_metric() {
        let text = "# run 1\nnet_mq wall_s 1.5 s 1.5 1.4 1.6 5\n\
                    # run 2\nnet_mq wall_s 1.7 s 1.7 1.6 1.8 5\n";
        let r = parse_results(text).unwrap();
        let (unit, values) = &r[&("net_mq".to_string(), "wall_s".to_string())];
        assert_eq!((unit.as_str(), values.as_slice()), ("s", &[1.5, 1.7][..]));
        assert!(parse_results("net_mq wall_s\n").is_err());
        assert!(parse_results("net_mq fail_frac 0 ratio\n").is_err());
    }
}
