//! The `serve` child process and the benchmark's client side of it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// A running `serve` process; killed and reaped on drop.
pub struct ServeChild {
    child: Child,
    stderr_drain: Option<std::thread::JoinHandle<()>>,
}

impl ServeChild {
    /// The child's process id.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Stops the child and waits until it and its stderr reader have ended.
    pub fn stop(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.stderr_drain.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        self.reap();
    }
}

/// One request/response exchange as the client saw it.
#[derive(Debug)]
pub struct Exchange {
    /// The response line, without its newline.
    pub response: String,
    /// Send → first response byte, seconds.
    pub ttfb_s: f64,
    /// First response byte → trailing newline, seconds.
    pub wire_s: f64,
}

impl Exchange {
    /// Send → trailing newline, seconds.
    #[must_use]
    pub fn latency_s(&self) -> f64 {
        self.ttfb_s + self.wire_s
    }
}

/// A line-oriented client connection (a child's stdin/stdout pair or a
/// TCP stream).
pub struct Conn<W: Write, R: Read> {
    writer: W,
    reader: BufReader<R>,
}

impl<W: Write, R: Read> Conn<W, R> {
    /// Sends one request line in a single write and reads its response,
    /// timing the first byte and the newline separately.
    ///
    /// # Errors
    ///
    /// I/O errors, or end of stream before a full line.
    pub fn call(&mut self, line: &str) -> std::io::Result<Exchange> {
        let mut msg = String::with_capacity(line.len() + 1);
        msg.push_str(line);
        msg.push('\n');
        let t0 = Instant::now();
        self.writer.write_all(msg.as_bytes())?;
        self.writer.flush()?;
        if self.reader.fill_buf()?.is_empty() {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let ttfb_s = t0.elapsed().as_secs_f64();
        let mut response = String::new();
        self.reader.read_line(&mut response)?;
        let latency = t0.elapsed().as_secs_f64();
        if response.pop() != Some('\n') {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(Exchange {
            response,
            ttfb_s,
            wire_s: latency - ttfb_s,
        })
    }
}

/// A connection to a `serve --stdin` child.
pub type StdioConn = Conn<ChildStdin, ChildStdout>;
/// A connection to a `serve --listen` child.
pub type TcpConn = Conn<TcpStream, TcpStream>;

fn drain(stderr: impl Read + Send + 'static) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let _ = std::io::copy(&mut BufReader::new(stderr), &mut std::io::sink());
    })
}

/// Starts `serve --stdin` with default jobs.
///
/// # Errors
///
/// Spawn failures.
pub fn spawn_stdin(serve_bin: &Path) -> std::io::Result<(ServeChild, StdioConn)> {
    let mut child = Command::new(serve_bin)
        .arg("--stdin")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let writer = child.stdin.take().expect("piped stdin");
    let reader = BufReader::new(child.stdout.take().expect("piped stdout"));
    let stderr_drain = Some(drain(child.stderr.take().expect("piped stderr")));
    Ok((
        ServeChild {
            child,
            stderr_drain,
        },
        Conn { writer, reader },
    ))
}

/// Starts `serve --listen 127.0.0.1:0` with default jobs and returns the
/// address it bound.
///
/// # Errors
///
/// Spawn failures, or a child that exits before announcing its address.
pub fn spawn_tcp(serve_bin: &Path) -> std::io::Result<(ServeChild, String)> {
    let mut child = Command::new(serve_bin)
        .args(["--listen", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()?;
    let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
    let mut first = String::new();
    stderr.read_line(&mut first)?;
    let mut serve = ServeChild {
        child,
        stderr_drain: None,
    };
    let Some(addr) = first.trim().strip_prefix("serve: listening on ") else {
        serve.reap();
        return Err(std::io::Error::other(format!(
            "serve did not announce its address: {first:?}"
        )));
    };
    let addr = addr.to_string();
    serve.stderr_drain = Some(drain(stderr));
    Ok((serve, addr))
}

/// Opens one plain blocking connection (default socket options).
///
/// # Errors
///
/// Connect failures.
pub fn connect(addr: &str) -> std::io::Result<TcpConn> {
    let stream = TcpStream::connect(addr)?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok(Conn {
        writer: stream,
        reader,
    })
}
