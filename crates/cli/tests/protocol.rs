//! Protocol property test for `antidote serve`: whatever bytes arrive
//! on stdin, [`serve_loop`] returns `Ok`, never panics, and writes
//! exactly one single-line JSON response per non-blank, non-`#` line up
//! to and including a `shutdown`.
//!
//! Streams mix valid requests against a preloaded iris handle, the same
//! requests with a byte overwritten, inserted, or cut off, raw random
//! bytes, and the inputs that once crashed or fooled the service (short
//! and long points, non-finite values, integers past 2^53, absurd
//! depths, deep nesting, invalid UTF-8, lines past the length cap). CI
//! runs it in release.

use antidote_cli::service::{serve_loop, Service, MAX_LINE_BYTES};
use proptest::prelude::*;

/// SplitMix64: derives as many pseudo-random words from one generated
/// seed as a line needs.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An iris-shaped point, sometimes with a wrong arity.
fn point(r: &mut u64) -> String {
    let arity = match mix(r) % 8 {
        0 => 2,
        1 => 5,
        _ => 4,
    };
    let xs: Vec<String> = (0..arity)
        .map(|_| format!("{:.1}", (mix(r) % 80) as f64 / 10.0))
        .collect();
    format!("[{}]", xs.join(","))
}

/// A budget: usually small, sometimes anywhere below 2^53.
fn budget(r: &mut u64) -> u64 {
    match mix(r) % 4 {
        0 => mix(r) % (1 << 53),
        _ => mix(r) % 20,
    }
}

/// One request line before mutation, chosen by `kind`.
fn template(kind: u64, r: &mut u64) -> Vec<u8> {
    let handle = match mix(r) % 5 {
        0 => "other",
        _ => "iris",
    };
    let line = match kind % 16 {
        0..=3 => format!(
            r#"{{"op":"certify","handle":"{handle}","x":{},"n":{}}}"#,
            point(r),
            budget(r)
        ),
        4 | 5 => format!(
            r#"{{"op":"sweep","handle":"{handle}","points":[{},{}],"max_n":{}}}"#,
            point(r),
            point(r),
            budget(r)
        ),
        6 => format!(
            r#"{{"op":"batch","requests":[{{"op":"certify","handle":"{handle}","x":{},"n":{}}},{{"op":"sweep","handle":"iris","points":[{}]}}]}}"#,
            point(r),
            budget(r),
            point(r)
        ),
        7 => format!(
            r#"{{"op":"delta","handle":"{handle}","deltas":[{{"remove":[{}]}},{{"flip":[{{"row":{},"label":{}}}],"append":[{{"values":{},"label":0}}]}}]}}"#,
            mix(r) % 130,
            mix(r) % 130,
            mix(r) % 4,
            point(r)
        ),
        8 => format!(
            r#"{{"op":"load","handle":"{handle}","dataset":"iris","depth":{},"domain":"box"}}"#,
            mix(r) % 3
        ),
        9 => format!(r#"{{"op":"evict","handle":"{handle}"}}"#),
        10 => r#"{"op":"metrics"}"#.to_string(),
        11 => r#"{"op":"shutdown"}"#.to_string(),
        12 => "# a comment".to_string(),
        13 => String::new(),
        14 => return (0..mix(r) % 40).map(|_| mix(r) as u8).collect(),
        _ => {
            let nasty = [
                r#"{"op":"certify","handle":"iris","x":[1,2],"n":1}"#.to_string(),
                r#"{"op":"certify","handle":"iris","x":[5,3.4,1.5,0.2,99],"n":1}"#.to_string(),
                r#"{"op":"certify","handle":"iris","x":[1e999,1,1,1],"n":1}"#.to_string(),
                r#"{"op":"certify","handle":"iris","x":[1,1,1,1],"n":18446744073709551616}"#
                    .to_string(),
                r#"{"op":"load","handle":"other","dataset":"iris","depth":1000000}"#.to_string(),
                "[".repeat(100 + (mix(r) % 1000) as usize),
                r#"{"op":"sweep","handle":"iris","points":[[[[[[[[[[[]]]]]]]]]]]}"#.to_string(),
            ];
            match (mix(r) % (nasty.len() as u64 + 1)) as usize {
                i if i < nasty.len() => nasty[i].clone(),
                _ => over_long(r#"{"op":"metrics"}"#, (mix(r) % 3) as usize),
            }
        }
    };
    line.into_bytes()
}

/// `line` padded with blanks to `MAX_LINE_BYTES + extra` bytes: at
/// `extra = 0` it is read (blanks are trimmed), past that it is refused.
fn over_long(line: &str, extra: usize) -> String {
    line.to_string() + &" ".repeat(MAX_LINE_BYTES + extra - line.len())
}

/// Overwrites, inserts, or cuts off at one byte — or leaves the line
/// alone. An inserted or overwritten `\n` splits the line in two.
fn mutate(mut line: Vec<u8>, r: &mut u64) -> Vec<u8> {
    if line.is_empty() {
        return line;
    }
    let at = (mix(r) % line.len() as u64) as usize;
    // Mostly ASCII, so a mutated line usually still reaches the parser.
    let byte = match mix(r) % 4 {
        0 => mix(r) as u8,
        _ => mix(r) as u8 & 0x7F,
    };
    match mix(r) % 6 {
        0 => line[at] = byte,
        1 => line.insert(at, byte),
        2 => line.truncate(at),
        _ => {}
    }
    line
}

/// The lines the server must answer, in order: every line longer than
/// `MAX_LINE_BYTES`, and every other non-blank, non-`#` line.
fn answerable(stream: &[u8]) -> Vec<String> {
    stream
        .split(|&b| b == b'\n')
        .filter_map(|l| {
            if l.len() > MAX_LINE_BYTES {
                return Some(format!("<{} bytes>", l.len()));
            }
            let l = String::from_utf8_lossy(l).trim().to_string();
            (!l.is_empty() && !l.starts_with('#')).then_some(l)
        })
        .collect()
}

fn preloaded() -> Service {
    let mut service = Service::new(1);
    let (r, _) = service.handle_line(r#"{"op":"load","handle":"iris","dataset":"iris","depth":1}"#);
    assert!(r.starts_with(r#"{"ok":true"#), "{r}");
    service
}

proptest! {
    #[test]
    fn one_json_line_per_request_for_any_byte_stream(
        seeds in prop::collection::vec((0u64..16, 0u64..u64::MAX), 0..14),
    ) {
        let mut stream = Vec::new();
        for &(kind, seed) in &seeds {
            let mut r = seed;
            let line = mutate(template(kind, &mut r), &mut r);
            stream.extend_from_slice(&line);
            stream.push(b'\n');
        }
        let requests = answerable(&stream);

        let mut out = Vec::new();
        let result = serve_loop(&mut preloaded(), stream.as_slice(), &mut out);
        prop_assert!(result.is_ok(), "serve_loop failed: {result:?}");
        let text = String::from_utf8(out).expect("responses are UTF-8");
        prop_assert!(text.is_empty() || text.ends_with('\n'));
        let responses: Vec<&str> = text.lines().collect();

        // Everything up to the first shutdown is answered, nothing after.
        let stop = responses
            .iter()
            .position(|r| *r == r#"{"ok":true,"op":"shutdown"}"#);
        let expected = stop.map_or(requests.len(), |i| i + 1);
        prop_assert_eq!(
            responses.len(),
            expected,
            "requests {:?}\nresponses {:?}",
            requests,
            responses
        );
        if let Some(i) = stop {
            prop_assert!(
                requests[i].contains("shutdown"),
                "{} answered as shutdown",
                requests[i]
            );
        }
        for response in &responses {
            prop_assert!(
                response.starts_with(r#"{"ok":true,"op":""#)
                    || response.starts_with(r#"{"ok":false,"error":""#),
                "not a response object: {response}"
            );
            prop_assert!(response.ends_with('}'), "truncated response: {response}");
        }
    }
}

/// Lines past the cap — a request, a comment, a blank run, the last line
/// without its `\n` — each get exactly one error line, and the server
/// answers what follows them.
#[test]
fn over_long_lines_get_one_error_line_each() {
    let certify = r#"{"op":"certify","handle":"iris","x":[5.1,3.5,1.4,0.2],"n":1}"#;
    let lines = [
        over_long(certify, 1),
        certify.to_string(),
        over_long("# a comment", 7),
        over_long("", 2 * MAX_LINE_BYTES),
        over_long(certify, 0),
        over_long(r#"{"op":"metrics"}"#, 1),
    ];
    let stream = lines.join("\n");
    let mut out = Vec::new();
    serve_loop(&mut preloaded(), stream.as_bytes(), &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    let responses: Vec<&str> = text.lines().collect();
    let too_long =
        format!(r#"{{"ok":false,"error":"request line is longer than {MAX_LINE_BYTES} bytes"}}"#);
    assert_eq!(responses.len(), lines.len(), "{responses:?}");
    for i in [0, 2, 3, 5] {
        assert_eq!(responses[i], too_long, "line {i}");
    }
    for i in [1, 4] {
        assert!(
            responses[i].contains(r#""verdict":"robust""#),
            "{}",
            responses[i]
        );
    }
}
