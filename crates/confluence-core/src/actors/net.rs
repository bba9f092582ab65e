//! Network push sources: connecting workflows to external data streams.
//!
//! CONFLuEnCE supports push communication by actors "able to connect to
//! external data streams (through TCP or HTTP connections)" — as data are
//! pushed into those connections, the actors pump it into the workflow's
//! internal ports at the rate dictated by the director's execution model
//! (paper §2.2). [`TcpPushSource`] drains a raw TCP connection line by
//! line; [`HttpPushSource`] speaks just enough HTTP/1.1 (status line,
//! headers, identity or chunked bodies) to consume a line-delimited
//! streaming endpoint. Each parsed line becomes a token the source emits
//! whenever the director fires it.

use std::io::{BufRead, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::thread::JoinHandle;

use crate::actor::{Actor, FireContext, IoSignature};
use crate::error::{Error, Result};
use crate::time::Timestamp;
use crate::token::Token;

use super::{PushHandle, PushSource};

/// A push source fed by a line-delimited TCP stream.
pub struct TcpPushSource {
    inner: PushSource,
    reader: Option<JoinHandle<()>>,
}

impl TcpPushSource {
    /// Connect to `addr` and parse each received line with `parse`
    /// (`None` skips the line). The stream ends — and with it this
    /// source — when the peer closes the connection.
    pub fn connect<A: ToSocketAddrs>(
        addr: A,
        parse: impl Fn(&str) -> Option<Token> + Send + 'static,
    ) -> Result<Self> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| Error::Actor {
                actor: "TcpPushSource".into(),
                stage: "initialize",
                message: format!("connect failed: {e}"),
            })?;
        Ok(Self::from_stream(stream, parse))
    }

    /// Build from an already-established stream (e.g. one side of an
    /// accepted connection).
    pub fn from_stream(
        stream: TcpStream,
        parse: impl Fn(&str) -> Option<Token> + Send + 'static,
    ) -> Self {
        let (inner, handle) = PushSource::new();
        let reader = std::thread::Builder::new()
            .name("cwf-tcp-reader".into())
            .spawn(move || pump(stream, handle, parse))
            .expect("spawn tcp reader thread");
        TcpPushSource {
            inner,
            reader: Some(reader),
        }
    }

    /// A parser for plain text lines (each line becomes a `Str` token).
    pub fn lines() -> impl Fn(&str) -> Option<Token> + Send + 'static {
        |line: &str| Some(Token::str(line))
    }

    /// A parser for comma-separated integer records with the given field
    /// names (malformed lines are skipped) — the shape of the Linear Road
    /// feed.
    pub fn csv_ints(fields: &[&str]) -> impl Fn(&str) -> Option<Token> + Send + 'static {
        let names: Vec<String> = fields.iter().map(|s| s.to_string()).collect();
        move |line: &str| {
            let parts: Vec<&str> = line.split(',').collect();
            if parts.len() != names.len() {
                return None;
            }
            let mut rec = Token::record();
            for (name, part) in names.iter().zip(parts) {
                rec = rec.field(name, part.trim().parse::<i64>().ok()?);
            }
            Some(rec.build())
        }
    }
}

fn pump(
    stream: TcpStream,
    handle: PushHandle,
    parse: impl Fn(&str) -> Option<Token>,
) {
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if let Some(token) = parse(&line) {
            if !handle.push(token) {
                break; // workflow gone
            }
        }
    }
    // Dropping `handle` here ends the stream.
}

impl Actor for TcpPushSource {
    fn signature(&self) -> IoSignature {
        IoSignature::source("out")
    }

    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        self.inner.fire(ctx)
    }

    fn postfire(&mut self, ctx: &mut dyn FireContext) -> Result<bool> {
        self.inner.postfire(ctx)
    }

    fn wrapup(&mut self) -> Result<()> {
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        Ok(())
    }

    fn is_source(&self) -> bool {
        true
    }

    fn next_arrival(&self) -> Option<Timestamp> {
        self.inner.next_arrival()
    }
}

/// A push source fed by a line-delimited HTTP/1.1 response body.
///
/// Speaks the minimal client side: one `GET` with `Connection: close`,
/// accepts identity (read-until-close) and `chunked` transfer encodings,
/// and streams the body's lines through the same parser machinery as
/// [`TcpPushSource`].
pub struct HttpPushSource {
    inner: PushSource,
    reader: Option<JoinHandle<()>>,
}

impl HttpPushSource {
    /// `GET http://{host_port}{path}` and stream the response body.
    pub fn get<A: ToSocketAddrs>(
        addr: A,
        host: &str,
        path: &str,
        parse: impl Fn(&str) -> Option<Token> + Send + 'static,
    ) -> Result<Self> {
        use std::io::Write;
        let mut stream = TcpStream::connect(addr).map_err(|e| Error::Actor {
            actor: "HttpPushSource".into(),
            stage: "initialize",
            message: format!("connect failed: {e}"),
        })?;
        let request = format!(
            "GET {path} HTTP/1.1\r\nHost: {host}\r\nAccept: */*\r\nConnection: close\r\n\r\n"
        );
        stream.write_all(request.as_bytes()).map_err(|e| Error::Actor {
            actor: "HttpPushSource".into(),
            stage: "initialize",
            message: format!("request failed: {e}"),
        })?;
        let (inner, handle) = PushSource::new();
        let reader = std::thread::Builder::new()
            .name("cwf-http-reader".into())
            .spawn(move || {
                let _ = http_pump(stream, handle, parse);
            })
            .expect("spawn http reader thread");
        Ok(HttpPushSource {
            inner,
            reader: Some(reader),
        })
    }
}

/// Read the response head; stream body lines (identity or chunked).
fn http_pump(
    stream: TcpStream,
    handle: PushHandle,
    parse: impl Fn(&str) -> Option<Token>,
) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    // Status line.
    reader.read_line(&mut line)?;
    let ok = line.split_whitespace().nth(1).map(|code| code.starts_with('2'));
    if ok != Some(true) {
        return Ok(()); // non-2xx: end of stream (handle drops)
    }
    // Headers.
    let mut chunked = false;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(());
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.eq_ignore_ascii_case("transfer-encoding")
                && value.trim().eq_ignore_ascii_case("chunked")
            {
                chunked = true;
            }
        }
    }
    let push_lines = |text: &str| -> bool {
        for l in text.split('\n') {
            let l = l.trim_end_matches('\r');
            if l.is_empty() {
                continue;
            }
            if let Some(token) = parse(l) {
                if !handle.push(token) {
                    return false;
                }
            }
        }
        true
    };
    if !chunked {
        // Identity body: stream lines until close.
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Ok(());
            }
            if !push_lines(&line) {
                return Ok(());
            }
        }
    }
    // Chunked body: size line (hex), then that many bytes, then CRLF.
    use std::io::Read;
    let mut carry = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        let size_str = line.trim().split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_str, 16).unwrap_or(0);
        if size == 0 {
            break; // terminal chunk
        }
        let mut buf = vec![0u8; size];
        reader.read_exact(&mut buf)?;
        let mut crlf = [0u8; 2];
        let _ = reader.read_exact(&mut crlf);
        carry.push_str(&String::from_utf8_lossy(&buf));
        // Emit complete lines; keep the trailing partial in `carry`.
        while let Some(idx) = carry.find('\n') {
            let complete: String = carry.drain(..=idx).collect();
            if !push_lines(&complete) {
                return Ok(());
            }
        }
    }
    if !carry.is_empty() {
        push_lines(&carry);
    }
    Ok(())
}

impl Actor for HttpPushSource {
    fn signature(&self) -> IoSignature {
        IoSignature::source("out")
    }

    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        self.inner.fire(ctx)
    }

    fn postfire(&mut self, ctx: &mut dyn FireContext) -> Result<bool> {
        self.inner.postfire(ctx)
    }

    fn wrapup(&mut self) -> Result<()> {
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        Ok(())
    }

    fn is_source(&self) -> bool {
        true
    }

    fn next_arrival(&self) -> Option<Timestamp> {
        self.inner.next_arrival()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actors::Collector;
    use crate::director::threaded::ThreadedDirector;
    use crate::director::Director;
    use crate::graph::WorkflowBuilder;
    use std::io::Write;
    use std::net::TcpListener;

    #[test]
    fn csv_parser_builds_records() {
        let parse = TcpPushSource::csv_ints(&["a", "b"]);
        let t = parse("3, 4").unwrap();
        assert_eq!(t.int_field("a").unwrap(), 3);
        assert_eq!(t.int_field("b").unwrap(), 4);
        assert!(parse("3").is_none());
        assert!(parse("x,y").is_none());
    }

    #[test]
    fn lines_parser_wraps_strings() {
        let parse = TcpPushSource::lines();
        assert_eq!(parse("hello"), Some(Token::str("hello")));
    }

    #[test]
    fn tcp_stream_flows_into_workflow() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Producer: accept one connection, write the feed, close.
        let producer = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            for i in 0..5 {
                writeln!(conn, "{i},{}", i * 10).unwrap();
            }
            // drop closes the connection → end of stream
        });

        let src = TcpPushSource::connect(addr, TcpPushSource::csv_ints(&["id", "v"])).unwrap();
        let out = Collector::new();
        let mut b = WorkflowBuilder::new("tcp");
        let s = b.add_actor("feed", src);
        let k = b.add_actor("sink", out.actor());
        b.link((s, "out"), (k, "in")).unwrap();
        let mut wf = b.build().unwrap();
        ThreadedDirector::new().run(&mut wf).unwrap();
        producer.join().unwrap();
        assert_eq!(out.len(), 5);
        assert_eq!(out.tokens()[4].int_field("v").unwrap(), 40);
    }

    fn run_http_workflow(source: HttpPushSource) -> Collector {
        let out = Collector::new();
        let mut b = WorkflowBuilder::new("http");
        let s = b.add_actor("feed", source);
        let k = b.add_actor("sink", out.actor());
        b.link((s, "out"), (k, "in")).unwrap();
        let mut wf = b.build().unwrap();
        ThreadedDirector::new().run(&mut wf).unwrap();
        out
    }

    #[test]
    fn http_identity_body_streams_lines() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            // Read the request head (until blank line).
            let mut r = std::io::BufReader::new(conn.try_clone().unwrap());
            let mut line = String::new();
            loop {
                line.clear();
                std::io::BufRead::read_line(&mut r, &mut line).unwrap();
                if line.trim().is_empty() {
                    break;
                }
            }
            write!(conn, "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\n").unwrap();
            for i in 0..4 {
                writeln!(conn, "event-{i}").unwrap();
            }
        });
        let src = HttpPushSource::get(addr, "localhost", "/stream", TcpPushSource::lines()).unwrap();
        let out = run_http_workflow(src);
        server.join().unwrap();
        assert_eq!(out.len(), 4);
        assert_eq!(out.tokens()[0], Token::str("event-0"));
    }

    #[test]
    fn http_chunked_body_streams_lines() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut r = std::io::BufReader::new(conn.try_clone().unwrap());
            let mut line = String::new();
            loop {
                line.clear();
                std::io::BufRead::read_line(&mut r, &mut line).unwrap();
                if line.trim().is_empty() {
                    break;
                }
            }
            write!(
                conn,
                "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
            )
            .unwrap();
            // Two chunks splitting a line across the boundary.
            let body = "alpha\nbe";
            write!(conn, "{:x}\r\n{}\r\n", body.len(), body).unwrap();
            let body2 = "ta\ngamma\n";
            write!(conn, "{:x}\r\n{}\r\n", body2.len(), body2).unwrap();
            write!(conn, "0\r\n\r\n").unwrap();
        });
        let src = HttpPushSource::get(addr, "localhost", "/s", TcpPushSource::lines()).unwrap();
        let out = run_http_workflow(src);
        server.join().unwrap();
        assert_eq!(
            out.tokens(),
            vec![Token::str("alpha"), Token::str("beta"), Token::str("gamma")]
        );
    }

    #[test]
    fn http_error_status_yields_empty_stream() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            write!(conn, "HTTP/1.1 404 Not Found\r\n\r\n").unwrap();
        });
        let src = HttpPushSource::get(addr, "localhost", "/nope", TcpPushSource::lines()).unwrap();
        let out = run_http_workflow(src);
        server.join().unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn connect_failure_is_an_error() {
        // A port that nothing listens on (bind then drop to reserve-and-free).
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        assert!(TcpPushSource::connect(addr, TcpPushSource::lines()).is_err());
        assert!(HttpPushSource::get(addr, "h", "/", TcpPushSource::lines()).is_err());
    }
}
