//! Small helpers: statistics, a child's peak memory and the flat scanning of the service's one-line JSON responses.

use std::time::Instant;

/// Median of `v` (mean of the two middle values for an even count);
/// `None` when `v` is empty.
pub fn median(v: &[f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let m = s.len() / 2;
    Some(if s.len().is_multiple_of(2) {
        (s[m - 1] + s[m]) / 2.0
    } else {
        s[m]
    })
}

/// Nearest-rank quantile `q` in `[0, 1]` of `v`; `None` when empty.
pub fn quantile(v: &[f64], q: f64) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    Some(s[rank - 1])
}

/// Largest value of `v`; `None` when empty.
pub fn max(v: &[f64]) -> Option<f64> {
    v.iter().copied().reduce(f64::max)
}

/// Seconds elapsed between two instants.
pub fn secs(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64()
}

/// Peak resident set size (`VmHWM`) of a live process in MB, or `None`
/// once it has exited. Read from `/proc`, not from `wait4`: a child's
/// `ru_maxrss` also counts its parent's memory at the time it was
/// spawned.
pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The scalar fields of a flat one-line JSON object, in order, as raw
/// text (strings without quotes). Nested arrays and objects are skipped
/// as values, their inner fields are not returned.
pub fn scalar_fields(line: &str) -> Vec<(String, String)> {
    let b = line.as_bytes();
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'{' | b'[' => depth += 1,
            b'}' | b']' => depth = depth.saturating_sub(1),
            b'"' => {
                let (key, end) = read_str(b, i);
                i = end;
                if depth == 1 && b.get(i) == Some(&b':') {
                    let v = i + 1;
                    match b.get(v) {
                        Some(b'"') => {
                            let (val, end) = read_str(b, v);
                            out.push((key, val));
                            i = end;
                        }
                        Some(b'{') | Some(b'[') => {}
                        _ => {
                            let end = b[v..]
                                .iter()
                                .position(|c| matches!(c, b',' | b'}' | b']'))
                                .map_or(b.len(), |p| v + p);
                            out.push((key, line[v..end].to_string()));
                            i = end;
                        }
                    }
                }
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    out
}

fn read_str(b: &[u8], start: usize) -> (String, usize) {
    let mut i = start + 1;
    let mut s = Vec::new();
    while i < b.len() && b[i] != b'"' {
        if b[i] == b'\\' && i + 1 < b.len() {
            i += 1;
        }
        s.push(b[i]);
        i += 1;
    }
    (String::from_utf8_lossy(&s).into_owned(), i + 1)
}

/// The value of scalar field `key` of a flat JSON line.
pub fn field(line: &str, key: &str) -> Option<String> {
    scalar_fields(line)
        .into_iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

/// `(n, attempted, verified)` of every rung object in a `rungs` array.
pub fn rungs(line: &str) -> Vec<(u64, u64, u64)> {
    let Some(start) = line.find("\"rungs\":[") else {
        return Vec::new();
    };
    let body = &line[start..];
    let end = body.find(']').unwrap_or(body.len());
    body[..end]
        .split('{')
        .skip(1)
        .filter_map(|obj| {
            let o = format!("{{{obj}");
            let num = |k: &str| field(&o, k)?.parse::<u64>().ok();
            Some((num("n")?, num("attempted")?, num("verified")?))
        })
        .collect()
}

/// Mean over points of the largest `n` proven, from ladder rungs
/// `(n, attempted, verified)`: a point proven up to `n_k` was proven at
/// every earlier rung, so it contributes `n_k − n_{k−1}` at each one.
pub fn certified_n_mean(rungs: &[(u64, u64, u64)], points: usize) -> Option<f64> {
    if points == 0 {
        return None;
    }
    let mut r = rungs.to_vec();
    r.sort_unstable();
    let mut prev = 0u64;
    let mut total = 0u64;
    for (n, _, verified) in r {
        total += (n - prev) * verified;
        prev = n;
    }
    Some(total as f64 / points as f64)
}

/// Counters of a `Debug`-printed struct (`Name { a: 1, b: 2 }`), by
/// field name. Reading counters by name means a counter the program
/// drops shows up as missing instead of breaking the build.
pub fn debug_counters(debug: &str) -> std::collections::BTreeMap<String, f64> {
    let inner = debug
        .split_once('{')
        .map_or("", |(_, r)| r.trim_end_matches('}'));
    inner
        .split(',')
        .filter_map(|kv| {
            let (k, v) = kv.split_once(':')?;
            Some((k.trim().to_string(), v.trim().parse::<f64>().ok()?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scans_flat_fields_and_rungs() {
        let l = r#"{"ok":true,"op":"sweep","handle":"m","epoch":0,"rungs":[{"n":1,"attempted":2,"verified":1,"timeouts":0},{"n":2,"attempted":1,"verified":0,"timeouts":0}]}"#;
        assert_eq!(field(l, "op").as_deref(), Some("sweep"));
        assert_eq!(field(l, "epoch").as_deref(), Some("0"));
        assert_eq!(field(l, "n"), None);
        assert_eq!(rungs(l), vec![(1, 2, 1), (2, 1, 0)]);
        assert_eq!(certified_n_mean(&rungs(l), 2), Some(0.5));
    }

    #[test]
    fn ladder_mean_counts_each_points_largest_rung() {
        // 2 points proven to 4, 1 to 1, 1 never.
        let r = [(1, 4, 3), (2, 3, 2), (4, 2, 2), (8, 2, 0)];
        assert_eq!(certified_n_mean(&r, 4), Some((4.0 + 4.0 + 1.0) / 4.0));
    }

    #[test]
    fn reads_debug_counters() {
        let m = debug_counters("S { a: 3, b_c: 10, d: true }");
        assert_eq!(m.get("a"), Some(&3.0));
        assert_eq!(m.get("b_c"), Some(&10.0));
        assert!(!m.contains_key("d"));
    }

    #[test]
    fn quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), Some(50.5));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(max(&v), Some(100.0));
    }
}
