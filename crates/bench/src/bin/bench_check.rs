//! Bench-regression gate: compares a fresh `CRITERION_JSON` dump against a
//! committed baseline (`BENCH_*.json`) and fails when any matched row's
//! median exceeds `tolerance ×` the baseline median.
//!
//! ```text
//! bench_check <baseline.json> <current.json> [tolerance] \
//!             [--require-faster A B]...
//! ```
//!
//! Each `--require-faster A B` pair (repeatable) additionally asserts an
//! *ordering* between two rows of the **current** dump: row `A`'s median
//! must not exceed row `B`'s by more than 10%. Unlike the cross-machine
//! baseline ratio, both rows of a pair come from the same run on the same
//! hardware, so a tight slack is honest: it absorbs scheduler jitter
//! without letting a real inversion (an "optimised" path losing to its
//! from-scratch reference) through. Pair ids are matched exactly; a
//! missing id is a usage error (exit 2), not a silent pass.
//!
//! The default tolerance is 5×: CI smoke runs share hardware with other
//! jobs and the committed baselines come from a different machine, so the
//! gate is a tripwire for order-of-magnitude regressions (an accidental
//! `O(n)` walk on the hot path, a lock moved inside a loop), not a
//! microbenchmark court. Rows are matched by exact id first; failing that,
//! by the id with its trailing numeric `/NNN` parameter stripped — smoke
//! runs cap live-session counts, so `service_step/greedy-dag-closure/512`
//! compares against the baseline's `.../10000` row. A stripped match is
//! used only when it is unambiguous (exactly one baseline candidate).
//! Unmatched rows on either side are reported but never fail the gate, so
//! adding a bench doesn't require regenerating every baseline first.
//!
//! The JSON is the fixed row format the vendored criterion shim writes
//! (`{"id": ..., "median_ns": ..., ...}` objects in a flat array), parsed
//! by hand so this binary needs nothing beyond std and stays usable from
//! any CI step. Exit codes: 0 pass, 1 regression, 2 usage or parse error.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// One `id → median_ns` measurement from a shim JSON dump.
#[derive(Debug, Clone, PartialEq)]
struct Row {
    id: String,
    median_ns: f64,
}

/// Baseline rows keyed by exact id.
type ExactMap<'a> = BTreeMap<&'a str, f64>;
/// Baseline `(id, median)` rows grouped by id with the `/NNN` tail stripped.
type StrippedMap<'a> = BTreeMap<&'a str, Vec<(&'a str, f64)>>;

/// Extracts the string value following `"<key>": "` in `obj`.
fn string_field(obj: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\": \"");
    let start = obj.find(&needle)? + needle.len();
    let rest = &obj[start..];
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

/// Extracts the numeric value following `"<key>": ` in `obj`.
fn number_field(obj: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\": ");
    let start = obj.find(&needle)? + needle.len();
    let rest = &obj[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parses a shim dump: a flat array of one-line `{...}` row objects. Rows
/// missing either field are a parse error — a truncated artifact should
/// fail loudly, not gate against half a baseline.
fn parse_rows(text: &str) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim().trim_end_matches(',');
        if !line.starts_with('{') {
            continue;
        }
        let id = string_field(line, "id")
            .ok_or_else(|| format!("line {}: no \"id\" field: {line}", lineno + 1))?;
        let median_ns = number_field(line, "median_ns")
            .ok_or_else(|| format!("line {}: no \"median_ns\" field: {line}", lineno + 1))?;
        rows.push(Row { id, median_ns });
    }
    if rows.is_empty() {
        return Err("no benchmark rows found".into());
    }
    Ok(rows)
}

/// `id` with a trailing numeric `/NNN` parameter removed, if it has one.
fn strip_param(id: &str) -> Option<&str> {
    let (head, tail) = id.rsplit_once('/')?;
    (!tail.is_empty() && tail.bytes().all(|b| b.is_ascii_digit())).then_some(head)
}

/// The outcome of one current-row comparison.
#[derive(Debug, PartialEq)]
enum Verdict {
    /// `(baseline id, baseline median, ratio)` — within tolerance.
    Pass(String, f64, f64),
    /// `(baseline id, baseline median, ratio)` — regression.
    Fail(String, f64, f64),
    /// No (unambiguous) baseline row to compare against.
    Unmatched,
}

/// Same-run ordering slack for `--require-faster` pairs: `A` may exceed
/// `B` by at most this factor before the pair fails.
const FASTER_SLACK: f64 = 1.10;

/// Judges one `--require-faster` pair against the current rows: returns
/// `(a_median, b_median, holds)` or an error when either id is absent.
fn judge_faster(current: &ExactMap<'_>, a: &str, b: &str) -> Result<(f64, f64, bool), String> {
    let find = |id: &str| {
        current
            .get(id)
            .copied()
            .ok_or_else(|| format!("--require-faster: no current row with id {id:?}"))
    };
    let (fast, slow) = (find(a)?, find(b)?);
    Ok((fast, slow, fast <= slow * FASTER_SLACK))
}

/// The report line of one judged `--require-faster` pair: both medians,
/// the measured `A / B` ratio and the slack it is held to, so a pass shows
/// its margin as plainly as a failure shows its excess.
fn faster_line(a: &str, b: &str, fast: f64, slow: f64, holds: bool) -> String {
    let ratio = fast / slow;
    if holds {
        format!(
            "ok    {a} ({fast:.1} ns) faster than {b} ({slow:.1} ns): \
             {ratio:.2}x of {FASTER_SLACK:.2}x slack"
        )
    } else {
        format!(
            "FAIL  {a} ({fast:.1} ns) not faster than {b} ({slow:.1} ns): \
             {ratio:.2}x over {FASTER_SLACK:.2}x slack"
        )
    }
}

/// Compares one current row against the baseline maps.
fn judge(row: &Row, exact: &ExactMap<'_>, stripped: &StrippedMap<'_>, tolerance: f64) -> Verdict {
    let matched: Option<(&str, f64)> = exact
        .get_key_value(row.id.as_str())
        .map(|(id, m)| (*id, *m))
        .or_else(|| {
            let key = strip_param(&row.id)?;
            match stripped.get(key)?.as_slice() {
                [only] => Some(*only),
                _ => None, // ambiguous: several baseline params share the head
            }
        });
    let Some((base_id, base)) = matched else {
        return Verdict::Unmatched;
    };
    // A zero/negative baseline cannot anchor a ratio; treat as unmatched.
    if base <= 0.0 {
        return Verdict::Unmatched;
    }
    let ratio = row.median_ns / base;
    if ratio > tolerance {
        Verdict::Fail(base_id.to_string(), base, ratio)
    } else {
        Verdict::Pass(base_id.to_string(), base, ratio)
    }
}

fn run(
    baseline_path: &str,
    current_path: &str,
    tolerance: f64,
    faster: &[(String, String)],
) -> Result<bool, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let baseline =
        parse_rows(&read(baseline_path)?).map_err(|e| format!("{baseline_path}: {e}"))?;
    let current = parse_rows(&read(current_path)?).map_err(|e| format!("{current_path}: {e}"))?;

    let exact: ExactMap<'_> = baseline
        .iter()
        .map(|r| (r.id.as_str(), r.median_ns))
        .collect();
    let mut stripped: StrippedMap<'_> = BTreeMap::new();
    for r in &baseline {
        if let Some(head) = strip_param(&r.id) {
            stripped.entry(head).or_default().push((&r.id, r.median_ns));
        }
    }

    let mut failures = 0usize;
    let mut matched = 0usize;
    for row in &current {
        match judge(row, &exact, &stripped, tolerance) {
            Verdict::Pass(base_id, base, ratio) => {
                matched += 1;
                println!(
                    "ok    {:<56} {:>12.1} vs {:>12.1} ns ({ratio:.2}x of {base_id})",
                    row.id, row.median_ns, base
                );
            }
            Verdict::Fail(base_id, base, ratio) => {
                matched += 1;
                failures += 1;
                println!(
                    "FAIL  {:<56} {:>12.1} vs {:>12.1} ns ({ratio:.2}x > {tolerance}x of {base_id})",
                    row.id, row.median_ns, base
                );
            }
            Verdict::Unmatched => {
                println!("skip  {:<56} no unambiguous baseline row", row.id);
            }
        }
    }
    if matched == 0 {
        return Err(format!(
            "no current row matched any of the {} baseline rows — wrong baseline file?",
            baseline.len()
        ));
    }
    let mut inversions = 0usize;
    if !faster.is_empty() {
        let current_map: ExactMap<'_> = current
            .iter()
            .map(|r| (r.id.as_str(), r.median_ns))
            .collect();
        for (a, b) in faster {
            let (fast, slow, holds) = judge_faster(&current_map, a, b)?;
            if !holds {
                inversions += 1;
            }
            println!("{}", faster_line(a, b, fast, slow, holds));
        }
    }
    println!(
        "bench_check: {matched} matched, {} skipped, {failures} over {tolerance}x tolerance, \
         {inversions} of {} orderings inverted",
        current.len() - matched,
        faster.len()
    );
    Ok(failures == 0 && inversions == 0)
}

fn main() -> ExitCode {
    const USAGE: &str = "usage: bench_check <baseline.json> <current.json> [tolerance=5] \
                         [--require-faster A B]...";
    let mut positional: Vec<String> = Vec::new();
    let mut faster: Vec<(String, String)> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--require-faster" {
            match (args.next(), args.next()) {
                (Some(a), Some(b)) => faster.push((a, b)),
                _ => {
                    eprintln!("bench_check: --require-faster takes two row ids\n{USAGE}");
                    return ExitCode::from(2);
                }
            }
        } else {
            positional.push(arg);
        }
    }
    let (baseline, current, tolerance) = match positional.as_slice() {
        [b, c] => (b, c, 5.0),
        [b, c, t] => match t.parse::<f64>() {
            Ok(t) if t > 0.0 => (b, c, t),
            _ => {
                eprintln!("bench_check: tolerance must be a positive number, got {t:?}");
                return ExitCode::from(2);
            }
        },
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(baseline, current, tolerance, &faster) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_check: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn maps(rows: &[Row]) -> (ExactMap<'_>, StrippedMap<'_>) {
        let exact = rows.iter().map(|r| (r.id.as_str(), r.median_ns)).collect();
        let mut stripped: StrippedMap<'_> = BTreeMap::new();
        for r in rows {
            if let Some(h) = strip_param(&r.id) {
                stripped.entry(h).or_default().push((&r.id, r.median_ns));
            }
        }
        (exact, stripped)
    }

    fn row(id: &str, m: f64) -> Row {
        Row {
            id: id.into(),
            median_ns: m,
        }
    }

    #[test]
    fn parses_shim_row_format() {
        let text = concat!(
            "[\n",
            "  {\"id\": \"service_step/greedy-dag-closure/10000\", \"median_ns\": 6038.3, ",
            "\"min_ns\": 5000.0, \"max_ns\": 7000.1, \"samples\": 20},\n",
            "  {\"id\": \"gauge/nodes\", \"median_ns\": 1023.0, \"min_ns\": 1023.0, ",
            "\"max_ns\": 1023.0, \"samples\": 1}\n",
            "]\n"
        );
        let rows = parse_rows(text).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].id, "service_step/greedy-dag-closure/10000");
        assert_eq!(rows[0].median_ns, 6038.3);
        assert_eq!(rows[1].median_ns, 1023.0);
        assert!(parse_rows("[]\n").is_err(), "empty dump must not pass");
        assert!(parse_rows("[\n  {\"median_ns\": 1.0}\n]").is_err());
    }

    #[test]
    fn strip_param_only_strips_numeric_tails() {
        assert_eq!(strip_param("a/b/512"), Some("a/b"));
        assert_eq!(strip_param("a/b/closure"), None);
        assert_eq!(strip_param("plain"), None);
        assert_eq!(strip_param("trailing/"), None);
    }

    #[test]
    fn exact_match_beats_stripped_and_gates_on_tolerance() {
        let base = [row("g/f/10000", 100.0), row("g/f", 1.0)];
        let (exact, stripped) = maps(&base);
        // Exact id present: compares against 100, not the stripped head's 1.
        assert_eq!(
            judge(&row("g/f/10000", 400.0), &exact, &stripped, 5.0),
            Verdict::Pass("g/f/10000".into(), 100.0, 4.0)
        );
        assert!(matches!(
            judge(&row("g/f/10000", 600.0), &exact, &stripped, 5.0),
            Verdict::Fail(_, _, _)
        ));
    }

    #[test]
    fn smoke_param_falls_back_to_unambiguous_baseline_param() {
        let base = [row("service_step/x/10000", 100.0)];
        let (exact, stripped) = maps(&base);
        assert_eq!(
            judge(&row("service_step/x/512", 300.0), &exact, &stripped, 5.0),
            Verdict::Pass("service_step/x/10000".into(), 100.0, 3.0)
        );
        // Two baseline params for the same head: ambiguous, skipped.
        let base = [row("sweep/s/1", 10.0), row("sweep/s/4", 40.0)];
        let (exact, stripped) = maps(&base);
        assert_eq!(
            judge(&row("sweep/s/2", 20.0), &exact, &stripped, 5.0),
            Verdict::Unmatched
        );
    }

    #[test]
    fn require_faster_gates_orderings_with_slack() {
        let rows = [
            row("yes_chain/inc/64", 100.0),
            row("yes_chain/scratch/64", 200.0),
            row("yes_chain/noisy/64", 108.0),
        ];
        let (exact, _) = maps(&rows);
        // Clear win holds.
        let (a, b, holds) =
            judge_faster(&exact, "yes_chain/inc/64", "yes_chain/scratch/64").unwrap();
        assert!(holds);
        assert_eq!((a, b), (100.0, 200.0));
        // Within the 10% slack: jitter, not an inversion.
        let (a, b, holds) = judge_faster(&exact, "yes_chain/noisy/64", "yes_chain/inc/64").unwrap();
        assert!(holds, "8% over must pass the 10% slack");
        // A pass prints its margin: the measured ratio against the slack.
        assert_eq!(
            faster_line("yes_chain/noisy/64", "yes_chain/inc/64", a, b, holds),
            "ok    yes_chain/noisy/64 (108.0 ns) faster than yes_chain/inc/64 (100.0 ns): \
             1.08x of 1.10x slack"
        );
        // Past the slack: a real inversion fails, and says by how much.
        let (a, b, holds) =
            judge_faster(&exact, "yes_chain/scratch/64", "yes_chain/inc/64").unwrap();
        assert!(!holds);
        assert_eq!(
            faster_line("yes_chain/scratch/64", "yes_chain/inc/64", a, b, holds),
            "FAIL  yes_chain/scratch/64 (200.0 ns) not faster than yes_chain/inc/64 (100.0 ns): \
             2.00x over 1.10x slack"
        );
        // A missing id is an error, never a silent pass.
        assert!(judge_faster(&exact, "typo/row", "yes_chain/inc/64").is_err());
        assert!(judge_faster(&exact, "yes_chain/inc/64", "typo/row").is_err());
    }

    #[test]
    fn new_rows_and_zero_baselines_are_skipped() {
        let base = [row("old/bench", 0.0)];
        let (exact, stripped) = maps(&base);
        assert_eq!(
            judge(&row("new/bench", 1.0), &exact, &stripped, 5.0),
            Verdict::Unmatched
        );
        assert_eq!(
            judge(&row("old/bench", 1.0), &exact, &stripped, 5.0),
            Verdict::Unmatched,
            "zero baseline cannot anchor a ratio"
        );
    }
}
