//! Hostile-input properties for the two parsers every request passes
//! through: the HTTP request reader and the JSON body parser.
//!
//! Neither may panic or hang on any input. A request read off a byte
//! slice either fails with a typed error (a malformed request, or a
//! body cut short) or yields a request within the size limits; a JSON
//! body either fails with an error that locates a byte of the input or
//! parses.

use std::io::ErrorKind;

use heb_serve::http::{parse_request, HttpError, HttpRequest};
use heb_serve::json;
use proptest::prelude::*;

/// Largest head and body `parse_request` accepts, as documented there.
const HEAD_LIMIT: usize = 8 * 1024;
const BODY_LIMIT: usize = 64 * 1024;

/// Bytes the request grammar gives meaning to, a few it does not know,
/// and bytes that are not UTF-8 on their own.
const REQUEST_BYTES: &[u8] = b"GETPOS /qhzHTP1.0:\r\n\r\n\t Content-Length9-+x\0\xff\xc3\x80";

/// Whole tokens a request mutation splices in.
const REQUEST_TOKENS: &[&str] = &[
    "\r\n",
    "\r\n\r\n",
    "\n",
    ":",
    " ",
    "HTTP/1.1",
    "HTTP/2",
    "Content-Length: ",
    "content-length:",
    "99999999999999999999999",
    "65537",
    "-1",
    "0",
    "\u{0}",
    "é",
];

/// Well-formed requests the mutations start from.
const VALID_REQUESTS: &[&str] = &[
    "GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n",
    "GET /metrics HTTP/1.0\r\n\r\n",
    "POST /query HTTP/1.1\r\nHost: a\r\nContent-Type: application/json\r\nContent-Length: 47\r\nConnection: close\r\n\r\n{\"workloads\":[\"WS\",\"TS\"],\"hours\":0.1,\"seed\":13}",
    "POST /shutdown HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
];

/// Characters the JSON grammar gives meaning to, and a few it does not.
const JSON_CHARS: &[char] = &[
    '{', '}', '[', ']', '"', ',', ':', '\\', ' ', '\n', '0', '1', '9', '.', '-', '+', 'e', 'E',
    't', 'r', 'u', 'f', 'a', 'l', 's', 'n', 'x', '/', '\u{0}', '\u{1f}', 'é', '💥',
];

/// Whole tokens a JSON mutation splices in.
const JSON_TOKENS: &[&str] = &[
    "{", "}", "[", "]", "\"", ",", ":", "null", "true", "fals", "1e999", "-0", "NaN", "\\u",
    "\\uD83D", "\\u00e9", "\\x", "[[[[[[[[", "{\"a\":",
];

/// Well-formed bodies the mutations start from.
const VALID_BODIES: &[&str] = &[
    r#"{"workloads":["WS","TS"],"hours":8,"seed":42,"policy":"HEB-D","sc_fraction":0.2,"tariff":{"energy_per_kwh":0.12,"demand_per_kw_month":14}}"#,
    r#"{"workloads":["HB","DFS"],"hours":0.5,"seed":3,"servers":12,"budget_w":520.5,"capacity_wh":300}"#,
    r#"[1,-2.5e3,true,false,null,"a\"b\\c\ndA",{"deep":[[{}]]}]"#,
];

/// One edit: (kind, position, token or alphabet pick, length).
type Mutation = (usize, usize, usize, usize);

fn edits() -> impl Strategy<Value = Vec<Mutation>> {
    proptest::collection::vec((0..3usize, 0..256usize, 0..64usize, 1..8usize), 1..6)
}

/// Applies `edits` to `base`: insert a token, delete a run, or
/// overwrite one element with an alphabet pick.
fn mutate<T: Copy>(base: &mut Vec<T>, edits: &[Mutation], tokens: &[Vec<T>], alphabet: &[T]) {
    for &(kind, pos, pick, len) in edits {
        let at = pos % (base.len() + 1);
        match kind {
            0 => {
                let token = &tokens[pick % tokens.len()];
                base.splice(at..at, token.iter().copied());
            }
            1 => {
                let end = (at + len).min(base.len());
                base.drain(at..end);
            }
            _ => {
                if at < base.len() {
                    base[at] = alphabet[pick % alphabet.len()];
                }
            }
        }
    }
}

fn arbitrary_request() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0..REQUEST_BYTES.len(), 0..160)
        .prop_map(|picks| picks.into_iter().map(|i| REQUEST_BYTES[i]).collect())
}

fn random_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u16..256, 0..256)
        .prop_map(|bytes| bytes.into_iter().map(|b| b as u8).collect())
}

fn mutated_request() -> impl Strategy<Value = Vec<u8>> {
    (0..VALID_REQUESTS.len(), edits()).prop_map(|(base, edits)| {
        let tokens: Vec<Vec<u8>> = REQUEST_TOKENS
            .iter()
            .map(|t| t.as_bytes().to_vec())
            .collect();
        let mut bytes = VALID_REQUESTS[base].as_bytes().to_vec();
        mutate(&mut bytes, &edits, &tokens, REQUEST_BYTES);
        bytes
    })
}

fn arbitrary_json() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..JSON_CHARS.len(), 0..96)
        .prop_map(|picks| picks.into_iter().map(|i| JSON_CHARS[i]).collect())
}

fn mutated_json() -> impl Strategy<Value = String> {
    (0..VALID_BODIES.len(), edits()).prop_map(|(base, edits)| {
        let tokens: Vec<Vec<char>> = JSON_TOKENS.iter().map(|t| t.chars().collect()).collect();
        let mut chars: Vec<char> = VALID_BODIES[base].chars().collect();
        mutate(&mut chars, &edits, &tokens, JSON_CHARS);
        chars.into_iter().collect()
    })
}

/// Parses `bytes` as one request. An accepted request has a method and
/// a path and a body within the limit; a refused one is malformed, or
/// its body was cut short (the only I/O error a byte slice can give).
fn assert_request_is_sane(bytes: &[u8]) {
    match parse_request(&mut &bytes[..]) {
        Ok(HttpRequest { method, path, body }) => {
            assert!(!method.is_empty() && !path.is_empty(), "{bytes:?}");
            assert!(body.len() <= BODY_LIMIT, "{bytes:?}");
        }
        Err(HttpError::Malformed(why)) => assert!(!why.is_empty()),
        Err(HttpError::Io(err)) => assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "{bytes:?}"),
    }
}

/// Parses `body`; a refusal must point inside the input.
fn assert_json_is_sane(body: &str) {
    if let Err(err) = json::parse(body) {
        assert!(err.offset <= body.len(), "{body:?}: {err}");
        assert!(!err.message.is_empty());
    }
}

#[test]
fn the_valid_requests_parse() {
    for request in VALID_REQUESTS {
        let parsed = parse_request(&mut request.as_bytes()).expect(request);
        assert!(request.ends_with(&parsed.body));
    }
    for body in VALID_BODIES {
        json::parse(body).expect(body);
    }
}

#[test]
fn a_head_that_never_ends_reads_at_most_its_limit() {
    // A megabyte with no newline: refused after the head's limit, with
    // the rest of the input left unread.
    let mut bytes = b"GET / HTTP/1.1\r\nX-Filler: ".to_vec();
    bytes.resize(1 << 20, b'a');
    let mut rest = &bytes[..];
    match parse_request(&mut rest) {
        Err(HttpError::Malformed(why)) => assert_eq!(why, "headers too large"),
        other => panic!("expected headers too large, got {other:?}"),
    }
    assert_eq!(bytes.len() - rest.len(), HEAD_LIMIT);

    // A request line alone past the limit is refused the same way, and
    // a head that ends exactly at the limit is accepted.
    let long_path = format!("GET /{} HTTP/1.1\r\n\r\n", "p".repeat(HEAD_LIMIT));
    assert!(matches!(
        parse_request(&mut long_path.as_bytes()),
        Err(HttpError::Malformed("headers too large"))
    ));
    let mut exact = b"GET / HTTP/1.1\r\nX: ".to_vec();
    exact.resize(HEAD_LIMIT - 4, b'a');
    exact.extend_from_slice(b"\r\n\r\n");
    assert_eq!(exact.len(), HEAD_LIMIT);
    assert!(parse_request(&mut &exact[..]).is_ok());
}

#[test]
fn an_oversized_body_is_refused_before_it_is_read() {
    let request = format!(
        "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        BODY_LIMIT + 1
    );
    assert!(matches!(
        parse_request(&mut request.as_bytes()),
        Err(HttpError::Malformed("body too large"))
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_requests_never_panic(bytes in arbitrary_request()) {
        assert_request_is_sane(&bytes);
    }

    #[test]
    fn random_bytes_never_panic_the_request_reader(bytes in random_bytes()) {
        assert_request_is_sane(&bytes);
    }

    #[test]
    fn mutated_requests_never_panic(bytes in mutated_request()) {
        assert_request_is_sane(&bytes);
    }

    #[test]
    fn arbitrary_json_never_panics(body in arbitrary_json()) {
        assert_json_is_sane(&body);
    }

    #[test]
    fn random_bytes_never_panic_the_json_parser(bytes in random_bytes()) {
        assert_json_is_sane(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn mutated_json_never_panics(body in mutated_json()) {
        assert_json_is_sane(&body);
    }
}
