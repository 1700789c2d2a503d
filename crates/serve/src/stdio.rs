//! The stdio transport: newline-delimited JSON request/response over any
//! `BufRead`/`Write` pair (the `rms serve` default, and what the tests
//! drive with in-memory buffers).
//!
//! The reader is hardened against hostile input: lines are read with a
//! **bounded** `read_until` (the per-line cap is the service's
//! `max_body_bytes`), so a peer streaming gigabytes without a newline
//! cannot grow the buffer past the cap — the excess is drained without
//! being stored and answered with a structured error. Invalid UTF-8 on
//! a line likewise gets an in-band error response instead of tearing
//! down the transport.

use crate::service::{error_envelope, kind, Service};
use std::io::{self, BufRead, Read, Write};

/// Serves JSONL over the given reader/writer until EOF: one request
/// object per input line, one response object per output line (flushed
/// after each, so interactive pipes see responses immediately). Blank
/// lines are ignored. On EOF the service's journal is compacted
/// ([`Service::shutdown`]) — the stdio clean-shutdown path.
///
/// # Errors
///
/// Propagates I/O errors from the transport; protocol-level problems
/// (malformed JSON, oversized lines, invalid UTF-8, unknown options)
/// are answered in-band as `status:"error"` lines instead.
pub fn run_stdio<R: BufRead, W: Write>(
    service: &Service,
    mut input: R,
    output: &mut W,
) -> io::Result<()> {
    let max_line = service.config().max_body_bytes.max(1);
    let mut buf: Vec<u8> = Vec::new();
    loop {
        buf.clear();
        let n = input
            .by_ref()
            .take(max_line as u64 + 1)
            .read_until(b'\n', &mut buf)?;
        if n == 0 {
            break; // EOF
        }
        let response = if buf.len() > max_line {
            // The line overran the cap: drop what we have, drain the
            // rest of the line without storing it, and answer in-band.
            let drained = drain_line(&mut input)?;
            error_envelope(
                "",
                kind::BAD_REQUEST,
                &format!(
                    "request line of at least {} bytes exceeds the {max_line}-byte limit",
                    buf.len() as u64 + drained
                ),
            )
        } else {
            match std::str::from_utf8(&buf) {
                Err(_) => error_envelope("", kind::BAD_REQUEST, "request line is not valid UTF-8"),
                Ok(line) => {
                    let trimmed = line.trim();
                    if trimmed.is_empty() {
                        continue;
                    }
                    service.handle_line(trimmed)
                }
            }
        };
        writeln!(output, "{response}")?;
        output.flush()?;
    }
    service.shutdown();
    Ok(())
}

/// Consumes input up to and including the next newline (or EOF) without
/// buffering it; returns the number of bytes discarded.
fn drain_line<R: BufRead>(input: &mut R) -> io::Result<u64> {
    let mut drained = 0u64;
    loop {
        let available = input.fill_buf()?;
        if available.is_empty() {
            return Ok(drained); // EOF mid-line
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                input.consume(pos + 1);
                return Ok(drained + pos as u64 + 1);
            }
            None => {
                let len = available.len();
                input.consume(len);
                drained += len as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServeConfig;

    #[test]
    fn stdio_round_trip_hits_cache_on_second_line() {
        let service = Service::new(ServeConfig::default());
        let input = b"\n{\"id\":\"a\",\"bench\":\"rd53_f2\",\"effort\":2}\n\
                      {\"id\":\"b\",\"bench\":\"rd53_f2\",\"effort\":2}\n";
        let mut output = Vec::new();
        run_stdio(&service, &input[..], &mut output).expect("stdio transport");
        let text = String::from_utf8(output).expect("utf-8 responses");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "one response per request line: {text}");
        assert!(lines[0].contains("\"cache\":\"miss\""), "{}", lines[0]);
        assert!(lines[1].contains("\"cache\":\"hit\""), "{}", lines[1]);
    }

    #[test]
    fn malformed_line_gets_error_and_transport_continues() {
        let service = Service::new(ServeConfig::default());
        let input = b"this is not json\n{\"id\":\"ok\",\"op\":\"ping\"}\n";
        let mut output = Vec::new();
        run_stdio(&service, &input[..], &mut output).expect("stdio transport");
        let text = String::from_utf8(output).expect("utf-8 responses");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].contains("\"status\":\"error\""), "{}", lines[0]);
        assert!(
            lines[0].contains("\"kind\":\"bad_request\""),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].contains("\"op\":\"ping\""),
            "transport survived: {}",
            lines[1]
        );
    }

    #[test]
    fn oversized_line_is_rejected_with_bounded_memory() {
        let service = Service::new(ServeConfig {
            max_body_bytes: 64,
            ..ServeConfig::default()
        });
        // A 1 KiB line against a 64-byte cap, followed by a good request.
        let mut input = vec![b'x'; 1024];
        input.push(b'\n');
        input.extend_from_slice(b"{\"id\":\"after\",\"op\":\"ping\"}\n");
        let mut output = Vec::new();
        run_stdio(&service, &input[..], &mut output).expect("stdio transport");
        let text = String::from_utf8(output).expect("utf-8 responses");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].contains("\"status\":\"error\""), "{}", lines[0]);
        assert!(
            lines[0].contains("exceeds the 64-byte limit"),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].contains("\"op\":\"ping\""),
            "transport survived: {}",
            lines[1]
        );
    }

    #[test]
    fn invalid_utf8_line_is_answered_in_band() {
        let service = Service::new(ServeConfig::default());
        let input = b"\xff\xfe garbage \xff\n{\"id\":\"after\",\"op\":\"ping\"}\n";
        let mut output = Vec::new();
        run_stdio(&service, &input[..], &mut output).expect("stdio transport");
        let text = String::from_utf8(output).expect("utf-8 responses");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].contains("not valid UTF-8"), "{}", lines[0]);
        assert!(lines[1].contains("\"op\":\"ping\""), "{}", lines[1]);
    }

    #[test]
    fn oversized_line_without_newline_at_eof_is_handled() {
        let service = Service::new(ServeConfig {
            max_body_bytes: 64,
            ..ServeConfig::default()
        });
        let input = vec![b'y'; 300]; // no trailing newline, over the cap
        let mut output = Vec::new();
        run_stdio(&service, &input[..], &mut output).expect("stdio transport");
        let text = String::from_utf8(output).expect("utf-8 responses");
        assert!(text.contains("\"status\":\"error\""), "{text}");
    }
}
